//! The open-loop producer: one thread appending at a fixed absolute
//! rate on a fixed schedule, whatever the engine does.
//!
//! Record `j` is due at `t0 + j / rate` and goes to partition
//! `j % partitions`, offset `j / partitions`. The producer wakes on a
//! fixed tick and appends every record due by then, one append per
//! partition. Latency is timed from the due time, so a producer stall
//! counts against the records it delays.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ss_bus::MessageBus;
use ss_common::Row;

use crate::inputs::TOPIC;
use crate::trace::{maybe_time, Recorder};

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Records per second.
    pub rate: f64,
    pub partitions: u32,
    pub tick: Duration,
    /// Records offered in total.
    pub total: u64,
}

impl Schedule {
    /// Due time of record `j`, relative to the schedule's start.
    pub fn due(&self, j: u64) -> Duration {
        Duration::from_secs_f64(j as f64 / self.rate)
    }

    /// Global sequence number of the record at `(partition, offset)`.
    pub fn seq(&self, partition: u32, offset: u64) -> u64 {
        offset * self.partitions as u64 + partition as u64
    }

    /// Records due at or before `elapsed`.
    fn due_by(&self, elapsed: Duration) -> u64 {
        ((elapsed.as_secs_f64() * self.rate).floor() as u64 + 1).min(self.total)
    }

    /// Records of partition `p` among the first `n` of the sequence.
    pub fn in_partition(&self, n: u64, p: u32) -> u64 {
        let (p, k) = (p as u64, self.partitions as u64);
        if n > p {
            (n - p).div_ceil(k)
        } else {
            0
        }
    }

    /// Pre-generate every record, grouped by partition in offset order.
    pub fn rows(&self, row: impl Fn(u32, u64) -> Row) -> Vec<Vec<Row>> {
        (0..self.partitions)
            .map(|p| {
                (0..self.in_partition(self.total, p))
                    .map(|o| row(p, o))
                    .collect()
            })
            .collect()
    }

    /// Split per-partition feeds after the first `n` records of the
    /// sequence: `(the first n, the rest)`.
    pub fn split(&self, mut feeds: Vec<Vec<Row>>, n: u64) -> (Vec<Vec<Row>>, Vec<Vec<Row>>) {
        let head = feeds
            .iter_mut()
            .enumerate()
            .map(|(p, f)| {
                let k = (self.in_partition(n, p as u32) as usize).min(f.len());
                let rest = f.split_off(k);
                std::mem::replace(f, rest)
            })
            .collect();
        (head, feeds)
    }
}

/// What the producer observed.
#[derive(Debug, Default)]
pub struct Produced {
    /// How late each tick woke against its schedule (ns).
    pub tick_lag_ns: Vec<u64>,
    pub error: Option<String>,
}

/// Append records `from..` of the schedule — `feeds`, one
/// pre-generated row list per partition — on the schedule that starts
/// at `t0`. `on_tick(sent)` runs after each tick's appends with the
/// number of records sent so far (counting the `from` sent earlier).
pub fn produce(
    schedule: &Schedule,
    t0: Instant,
    from: u64,
    feeds: Vec<Vec<Row>>,
    bus: &MessageBus,
    rec: Option<&Arc<Recorder>>,
    mut on_tick: impl FnMut(u64),
) -> Produced {
    let mut out = Produced::default();
    let mut feeds: Vec<std::vec::IntoIter<Row>> = feeds.into_iter().map(Vec::into_iter).collect();
    let mut sent = from;
    // The first tick at or after record `from`'s due time.
    let mut tick = (schedule
        .due(from)
        .as_nanos()
        .div_ceil(schedule.tick.as_nanos().max(1))) as u32;
    while sent < schedule.total {
        let at = t0 + schedule.tick * tick;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let woke = Instant::now();
        out.tick_lag_ns
            .push(woke.saturating_duration_since(at).as_nanos() as u64);
        let due = schedule.due_by(woke.duration_since(t0));
        for (p, feed) in feeds.iter_mut().enumerate() {
            let k = schedule.in_partition(due, p as u32) - schedule.in_partition(sent, p as u32);
            if k == 0 {
                continue;
            }
            let batch: Vec<Row> = feed.by_ref().take(k as usize).collect();
            if let Err(e) = maybe_time(
                rec,
                "bus.append",
                0,
                || bus.append(TOPIC, p as u32, batch),
                |_| k,
            ) {
                out.error = Some(e.to_string());
                return out;
            }
        }
        sent = due;
        on_tick(sent);
        tick += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_counts_cover_the_sequence() {
        let s = Schedule {
            rate: 1000.0,
            partitions: 8,
            tick: Duration::from_millis(1),
            total: 101,
        };
        let total: u64 = (0..8).map(|p| s.in_partition(101, p)).sum();
        assert_eq!(total, 101);
        assert_eq!(s.in_partition(101, 4), 13); // 4, 12, ..., 100
        assert_eq!(s.in_partition(3, 4), 0);
        assert_eq!(s.seq(4, 12), 100);
        assert_eq!(s.due_by(Duration::from_millis(5)), 6);

        let rows =
            s.rows(|p, o| Row::new(vec![ss_common::Value::Int64((o * 8 + p as u64) as i64)]));
        let (head, rest) = s.split(rows, 10);
        let seqs = |f: &Vec<Vec<Row>>| -> Vec<i64> {
            let mut v: Vec<i64> = f
                .iter()
                .flatten()
                .map(|r| match r.get(0) {
                    ss_common::Value::Int64(j) => *j,
                    _ => -1,
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(seqs(&head), (0..10).collect::<Vec<_>>());
        assert_eq!(seqs(&rest), (10..101).collect::<Vec<_>>());
    }
}
