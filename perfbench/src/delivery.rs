//! Which records each sink commit delivered, and how late.
//!
//! The sink commit that carries a record's result is the commit of the
//! epoch whose offset range holds the record. The harness reads each
//! epoch's range from the query's write-ahead log right after the epoch
//! ran (checkpoint retention compacts old records later), so the
//! untraced run needs no decorator to time records.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ss_common::{OffsetRange, Result, SsError};
use ss_state::{CheckpointBackend, MemoryBackend};
use ss_wal::WriteAheadLog;

use crate::inputs::TOPIC;
use crate::stats::LatencyWindows;

/// Records delivered by a run's commits.
#[derive(Debug, Default)]
pub struct Delivered {
    /// Records in committed epochs.
    pub records: u64,
    /// When the last commit returned.
    pub last_commit: Option<Instant>,
}

/// The offset range of every epoch a query ran.
pub struct EpochRanges {
    wal: WriteAheadLog,
    ranges: BTreeMap<u64, OffsetRange>,
}

impl EpochRanges {
    /// Read ranges from the WAL in `backend` (the unwrapped backend, so
    /// these reads never show up as spans).
    pub fn new(backend: &Arc<MemoryBackend>) -> EpochRanges {
        EpochRanges {
            wal: WriteAheadLog::new(backend.clone() as Arc<dyn CheckpointBackend>),
            ranges: BTreeMap::new(),
        }
    }

    /// Record the range of `epoch`, which has just run.
    pub fn note(&mut self, epoch: u64) -> Result<()> {
        let offsets = self
            .wal
            .read_offsets(epoch)?
            .ok_or_else(|| SsError::Internal(format!("epoch {epoch} has no logged offsets")))?;
        if let Some(range) = offsets.sources.get(TOPIC) {
            self.ranges.insert(epoch, range.clone());
        }
        Ok(())
    }

    /// Count the records delivered by `commits` (`(epoch, returned
    /// at)`; the first commit of an epoch counts) and add each one's
    /// latency — commit return minus its due time — to `windows`.
    pub fn deliveries(
        &self,
        commits: &[(u64, Instant)],
        windows: &mut LatencyWindows,
        due: impl Fn(u32, u64) -> Instant,
    ) -> Result<Delivered> {
        let mut d = Delivered::default();
        let mut seen = std::collections::BTreeSet::new();
        for &(epoch, at) in commits {
            if !seen.insert(epoch) {
                continue;
            }
            let range = self.ranges.get(&epoch).ok_or_else(|| {
                SsError::Internal(format!("committed epoch {epoch} was never noted"))
            })?;
            d.records += range.num_records();
            d.last_commit = Some(d.last_commit.map_or(at, |l| l.max(at)));
            for (&p, &end) in &range.end {
                let start = range.start.get(&p).copied().unwrap_or(0);
                for o in start..end {
                    let t = due(p, o);
                    windows.add(t, at.saturating_duration_since(t).as_nanos() as u64);
                }
            }
        }
        Ok(d)
    }
}
