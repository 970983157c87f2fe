//! Order statistics and process counters.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the printed spread matches what a script using that
/// function computes from the same values. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        len => {
            let q = |i: usize| {
                let n = 4usize;
                let m = len + 1;
                let j = (i * m / n).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            };
            (q(1), q(3))
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile_sorted<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of unsorted values (sorts a copy).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// Latency samples bucketed by due time into fixed windows. A run's
/// p50 and p99 are the medians over its windows of each window's
/// percentile, so one stalled second moves the result by one window,
/// not by its share of the tail.
#[derive(Debug)]
pub struct LatencyWindows {
    origin: Instant,
    width: Duration,
    buckets: Vec<Vec<u64>>,
}

impl LatencyWindows {
    pub fn new(origin: Instant, width: Duration) -> LatencyWindows {
        LatencyWindows {
            origin,
            width,
            buckets: Vec::new(),
        }
    }

    /// Add a record due at `due` that took `latency_ns`; records due
    /// before the origin are left out.
    pub fn add(&mut self, due: Instant, latency_ns: u64) {
        let Some(since) = due.checked_duration_since(self.origin) else {
            return;
        };
        let i = (since.as_nanos() / self.width.as_nanos().max(1)) as usize;
        if self.buckets.len() <= i {
            self.buckets.resize_with(i + 1, Vec::new);
        }
        self.buckets[i].push(latency_ns);
    }

    pub fn samples(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Windows holding at least half as many samples as the fullest
    /// (a trailing partial window would be a small, noisy sample).
    fn full_windows(&mut self) -> impl Iterator<Item = &mut Vec<u64>> {
        let most = self.buckets.iter().map(Vec::len).max().unwrap_or(0);
        self.buckets
            .iter_mut()
            .filter(move |b| !b.is_empty() && 2 * b.len() >= most)
    }

    /// Median over full windows of each window's `p` percentile, in ms.
    pub fn percentile_ms(&mut self, p: f64) -> f64 {
        let per_window: Vec<f64> = self
            .full_windows()
            .map(|b| {
                b.sort_unstable();
                percentile_sorted(b, p) as f64 / 1e6
            })
            .collect();
        median(&per_window)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, at
/// nanosecond resolution (`/proc` and `getrusage` tick too coarsely
/// for a sub-second drain).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target), and the clock id is a
    // constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

extern "C" {
    fn getrusage(who: i32, usage: *mut i64) -> i32;
}

/// Linux `RUSAGE_SELF`.
const RUSAGE_SELF: i32 = 0;

/// Peak resident set size of this process in MiB: `ru_maxrss`, the
/// kernel's high-water mark, in KiB on Linux.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (four longs),
    // then fourteen longs, the first of which is `ru_maxrss`.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of the size and alignment of
    // `struct rusage`, and `RUSAGE_SELF` is always accepted.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    if rc != 0 {
        return 0.0;
    }
    usage[4] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted::<u64>(&[], 0.5), 0);
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        let t0 = Instant::now();
        let mut w = LatencyWindows::new(t0, Duration::from_secs(1));
        for s in 0..5u64 {
            // Window 2 stalls: every record takes 100 ms.
            let lat = if s == 2 { 100_000_000 } else { 1_000_000 + s };
            for k in 0..100u64 {
                w.add(t0 + Duration::from_secs(s) + Duration::from_millis(k), lat);
            }
        }
        w.add(t0 + Duration::from_secs(5), 9); // partial window, ignored
        assert_eq!(w.samples(), 501);
        assert_eq!(w.percentile_ms(0.99), 1.000_003);
    }

    #[test]
    fn process_cpu_advances() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > a, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
