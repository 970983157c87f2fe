//! CPU placement for the live workloads: the producer thread on one
//! CPU, the engine on the others.
//!
//! Left to the scheduler, the producer was sometimes woken on the CPU
//! where the engine's worker spins, and then waited behind it for the
//! rest of the run: a third of the runs read twice the tail latency of
//! the others. Separating the load generator from the system under test
//! removes that mode.

/// `cpu_set_t` is 1024 bits.
const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on.
fn allowed() -> Vec<usize> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restrict the calling thread — and the threads it spawns from now
/// on — to `cpus`. Returns whether the kernel accepted the mask.
fn pin_current(cpus: &[usize]) -> bool {
    let mut mask = [0u64; SET_WORDS];
    for &c in cpus.iter().filter(|&&c| c < SET_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}

/// A placement for one live run: the producer's CPU and the engine's.
/// Dropping it gives the thread that applied it back every CPU.
#[derive(Debug)]
pub struct Placement {
    producer: Vec<usize>,
    engine: Vec<usize>,
    all: Vec<usize>,
}

impl Placement {
    /// Split the CPUs this thread may use: the first for the producer,
    /// the rest for the engine, and pin the calling thread (which
    /// starts the engine) to the engine's. `None`, and nothing pinned,
    /// with fewer than two CPUs.
    pub fn apply() -> Option<Placement> {
        let all = allowed();
        if all.len() < 2 {
            return None;
        }
        let p = Placement {
            producer: all[..1].to_vec(),
            engine: all[1..].to_vec(),
            all,
        };
        pin_current(&p.engine).then_some(p)
    }

    /// Pin the calling thread to the producer's CPU.
    pub fn pin_producer(&self) {
        pin_current(&self.producer);
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        pin_current(&self.all);
    }
}
