//! The repository benchmark.
//!
//! Four workloads over the engine's public API, each checked against
//! an oracle on every run:
//!
//! * `yahoo_drain` — the Yahoo query (§9.1), serial, draining a backlog
//!   preloaded onto 8 bus partitions;
//! * `yahoo_drain_p2` — the same at 2 workers (the exchange and the
//!   task scheduler);
//! * `yahoo_live` — the same query, serial, fed open loop at a fixed
//!   rate under a 5 ms trigger (per-epoch fixed costs);
//! * `map_live_continuous` — filter → project on the continuous engine
//!   (§6.3), fed open loop at a fixed rate (the per-record path).
//!
//! End-to-end metrics come from an untraced run; a separate traced run
//! wraps the engine's public traits in timing decorators ([`trace`])
//! to attribute time to layers.

use std::sync::Arc;
use std::time::Duration;

pub mod cont;
pub mod delivery;
pub mod drain;
pub mod engine;
pub mod inputs;
pub mod live;
pub mod pin;
pub mod producer;
pub mod report;
pub mod stats;
pub mod trace;

use drain::DrainSpec;
use inputs::Inputs;
use live::LiveSpec;
use report::Run;
use trace::Recorder;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &[
    "yahoo_drain",
    "yahoo_drain_p2",
    "yahoo_live",
    "map_live_continuous",
];

/// A workload and its fixed shape.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Drain(DrainSpec),
    Live(LiveSpec),
    Continuous(LiveSpec),
}

const DRAIN: DrainSpec = DrainSpec {
    partitions: 8,
    per_partition: 100_000,
    parallelism: 1,
    warmup_reps: 1,
    min_reps: 5,
};

/// Offered rates are absolute, fixed here, and never derived from a
/// capacity measured on the code under test.
const LIVE: LiveSpec = LiveSpec {
    rate: 100_000.0,
    partitions: 8,
    tick: Duration::from_micros(500),
    trigger: Duration::from_millis(5),
    warmup: Duration::from_secs(1),
    window: Duration::from_secs(1),
    setup_reps: 5,
    drain_deadline: Duration::from_secs(5),
};

const CONTINUOUS: LiveSpec = LiveSpec {
    rate: 100_000.0,
    partitions: 1,
    window: Duration::from_millis(250),
    ..LIVE
};

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        Some(match name {
            "yahoo_drain" => Workload::Drain(DRAIN),
            "yahoo_drain_p2" => Workload::Drain(DrainSpec {
                parallelism: 2,
                ..DRAIN
            }),
            "yahoo_live" => Workload::Live(LIVE),
            "map_live_continuous" => Workload::Continuous(CONTINUOUS),
            _ => return None,
        })
    }

    /// One run: about `seconds` of measurement, traced when `rec` is
    /// given.
    pub fn run(&self, inputs: &Inputs, seconds: f64, rec: Option<&Arc<Recorder>>) -> Run {
        match self {
            Workload::Drain(spec) => drain::run(inputs, spec, seconds, rec),
            Workload::Live(spec) => live::run(inputs, spec, seconds, rec),
            Workload::Continuous(spec) => cont::run(inputs, spec, seconds, rec),
        }
    }
}
