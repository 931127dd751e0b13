use blockdev::IoStatsSnapshot;
use serde::{Deserialize, Serialize};

use crate::types::CpNumber;

/// Cumulative counters maintained by a [`BacklogEngine`](crate::BacklogEngine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BacklogStats {
    /// Block operations observed (reference additions plus removals).
    pub block_ops: u64,
    /// Reference additions.
    pub refs_added: u64,
    /// Reference removals.
    pub refs_removed: u64,
    /// Additions cancelled by proactive pruning (a matching `To` record from
    /// the same CP interval was found in the write store and removed).
    pub pruned_adds: u64,
    /// Removals cancelled by proactive pruning (the matching `From` record
    /// was still in the write store).
    pub pruned_removes: u64,
    /// Consistency points taken.
    pub consistency_points: u64,
    /// Database maintenance passes run.
    pub maintenance_runs: u64,
    /// Total wall-clock nanoseconds spent in add/remove callbacks.
    pub callback_ns: u64,
    /// Total wall-clock nanoseconds spent flushing write stores at CPs.
    pub cp_flush_ns: u64,
    /// Total wall-clock nanoseconds spent in maintenance.
    pub maintenance_ns: u64,
    /// Queries answered.
    pub queries: u64,
}

impl BacklogStats {
    /// Block operations whose effects survived at least one consistency point
    /// (the denominator of the paper's Figure 5 I/O overhead metric).
    pub fn persistent_ops(&self) -> u64 {
        self.block_ops - self.pruned_adds - self.pruned_removes
    }

    /// Average wall-clock microseconds spent per block operation in the
    /// add/remove callbacks plus CP flushes (the paper's "time per block
    /// operation", dominated by write-store updates).
    pub fn micros_per_block_op(&self) -> f64 {
        if self.block_ops == 0 {
            return 0.0;
        }
        (self.callback_ns + self.cp_flush_ns) as f64 / 1_000.0 / self.block_ops as f64
    }
}

/// Per-consistency-point report returned by
/// [`BacklogEngine::consistency_point`](crate::BacklogEngine::consistency_point).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CpReport {
    /// The global CP number that was just made durable.
    pub cp: CpNumber,
    /// Block operations (add + remove) since the previous CP.
    pub block_ops: u64,
    /// Block operations that survived to this CP (not proactively pruned).
    pub persistent_ops: u64,
    /// Records flushed from the write stores into new Level-0 runs.
    pub records_flushed: u64,
    /// Level-0 runs created at this CP.
    pub runs_created: u32,
    /// Device page writes performed by the flush.
    pub pages_written: u64,
    /// Device page reads performed by the flush (expected to be zero — run
    /// construction is bottom-up).
    pub pages_read: u64,
    /// Contended state-lock acquisitions over the CP interval, from the
    /// device's shared counter: write-store shard locks (a reference
    /// callback or flush commit finding its partition's shard held) plus
    /// the file store's allocation lock (parallel flush workers allocating
    /// run pages). Zero when writers are partition-disjoint and the flush
    /// runs single-threaded.
    pub lock_contentions: u64,
    /// Wall-clock nanoseconds spent in callbacks since the previous CP.
    pub callback_ns: u64,
    /// Wall-clock nanoseconds spent flushing at this CP.
    pub flush_ns: u64,
    /// Per-phase duration breakdown of this CP, measured on the engine's
    /// observability clock (nanoseconds when timing is enabled,
    /// deterministic ticks under the simulator).
    pub phases: CpPhaseNs,
    /// Pages of `pages_written` that went to the manifest log (zero for
    /// non-durable engines) — the CP's metadata cost, as opposed to the run
    /// pages and the one superblock page.
    pub manifest_pages: u64,
    /// Which kind of manifest-log frame this CP wrote; `None` for
    /// non-durable engines.
    pub manifest_kind: Option<ManifestKind>,
}

/// The two kinds of frame a durable consistency point can write to the
/// manifest log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ManifestKind {
    /// A full description of the database, opening a new log: the engine's
    /// first CP, the first CP after `open`, the CP after a failed one, and
    /// a rollover when the next delta no longer fits in the log.
    Base,
    /// What changed since the previous durable CP, appended to the log.
    Delta,
}

/// The shape of the manifest log the newest durable superblock points at
/// (see [`BacklogEngine::manifest_log`](crate::BacklogEngine::manifest_log)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestLogStats {
    /// Pages of the log's base frame.
    pub base_pages: u64,
    /// Delta frames appended after the base.
    pub delta_frames: u64,
    /// Pages those delta frames occupy.
    pub delta_pages: u64,
    /// Pages reserved for the log (its one extent).
    pub reserved_pages: u64,
    /// The kind of frame the most recent durable CP *attempt* chose to
    /// write, whether or not that CP then succeeded (`None` before the
    /// first attempt and after `open`).
    pub last_attempt: Option<ManifestKind>,
}

impl ManifestLogStats {
    /// Pages of the log a reopen has to read: the base plus every delta.
    pub fn log_pages(&self) -> u64 {
        self.base_pages + self.delta_pages
    }
}

/// Per-phase durations of one consistency point.
///
/// The five phases partition [`CpReport::flush_ns`]: `prepare` covers
/// kicking off the three table flushes, `flush` the pipelined table and
/// manifest-frame writes and their drain, `barrier` the single pre-flip
/// device flush, `flip` the superblock write plus post-flip hardening,
/// and `retire` retired-log deletion, freed-block commit and journal
/// truncation. Non-durable engines only populate `prepare` and `flush`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpPhaseNs {
    /// Kicking off the per-table prepare flushes.
    pub prepare: u64,
    /// Pipelined table + manifest-frame writes, including the wait-all drain.
    pub flush: u64,
    /// The single pre-flip flush barrier.
    pub barrier: u64,
    /// Superblock flip and post-flip hardening flush.
    pub flip: u64,
    /// Old-log delete (after a base frame), freed-block commit, journal
    /// tail truncation.
    pub retire: u64,
}

impl CpPhaseNs {
    /// Sum of all phase durations.
    pub fn total(&self) -> u64 {
        self.prepare + self.flush + self.barrier + self.flip + self.retire
    }
}

impl CpReport {
    /// I/O page writes per *persistent* block operation, the metric plotted
    /// in Figures 5 and 7 of the paper (≈0.010 for the synthetic workload).
    pub fn io_writes_per_persistent_op(&self) -> f64 {
        if self.persistent_ops == 0 {
            return 0.0;
        }
        self.pages_written as f64 / self.persistent_ops as f64
    }

    /// I/O page writes per block operation (persistent or not).
    pub fn io_writes_per_op(&self) -> f64 {
        if self.block_ops == 0 {
            return 0.0;
        }
        self.pages_written as f64 / self.block_ops as f64
    }

    /// Total time (callbacks + flush) per block operation in microseconds,
    /// the metric plotted in the right half of Figures 5 and 7.
    pub fn micros_per_op(&self) -> f64 {
        if self.block_ops == 0 {
            return 0.0;
        }
        (self.callback_ns + self.flush_ns) as f64 / 1_000.0 / self.block_ops as f64
    }
}

/// Report returned by [`BacklogEngine::maintenance`](crate::BacklogEngine::maintenance).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceReport {
    /// Level-0 runs (across all three tables) merged away.
    pub runs_merged: u32,
    /// Complete records written to the Combined table.
    pub combined_records: u64,
    /// Incomplete records retained in the From table.
    pub incomplete_records: u64,
    /// Records purged because they referenced only deleted snapshots.
    pub purged_records: u64,
    /// Zombie snapshot IDs dropped because they no longer have descendants.
    pub zombies_pruned: u64,
    /// Database bytes on disk before maintenance.
    pub bytes_before: u64,
    /// Database bytes on disk after maintenance.
    ///
    /// Measured from the live tables, so retired pre-rebuild runs still held
    /// by in-flight reader snapshots are excluded — but their *files* are
    /// only reclaimed when the last snapshot drops, so with concurrent
    /// readers the device may briefly hold more than this value.
    pub bytes_after: u64,
    /// Device I/O performed by the maintenance pass.
    pub io: IoDelta,
    /// Wall-clock nanoseconds the pass took.
    pub elapsed_ns: u64,
    /// Partitions rebuilt by this pass: every partition for a full pass
    /// (1 for an unpartitioned database), otherwise however many the
    /// [`MaintenancePlan`](crate::MaintenancePlan) selected — less any that
    /// a concurrent pass rebuilt first (this pass's rebuild of it was stale
    /// and counts nowhere in the report).
    pub partitions: u32,
    /// Peak number of records the pass held in memory at any instant — the
    /// largest single identity's record group flowing through the streaming
    /// join. The materialized oracle
    /// ([`maintenance::reference`](crate::maintenance::reference)) holds
    /// every record of the database, which is what the streaming pipeline
    /// exists to avoid.
    pub peak_resident_records: u64,
}

impl MaintenanceReport {
    /// Fraction of the database size reclaimed by this pass (0.3–0.5 in the
    /// paper's synthetic workload).
    pub fn reduction_ratio(&self) -> f64 {
        if self.bytes_before == 0 {
            return 0.0;
        }
        1.0 - (self.bytes_after as f64 / self.bytes_before as f64)
    }
}

/// A simple (reads, writes) pair describing device traffic attributable to
/// one operation or phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoDelta {
    /// Page reads.
    pub reads: u64,
    /// Page writes.
    pub writes: u64,
}

impl IoDelta {
    /// Computes the delta between two device snapshots.
    pub fn between(before: &IoStatsSnapshot, after: &IoStatsSnapshot) -> Self {
        let d = after.delta_since(before);
        IoDelta {
            reads: d.page_reads,
            writes: d.page_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistent_ops_subtracts_pruned() {
        let s = BacklogStats {
            block_ops: 100,
            pruned_adds: 10,
            pruned_removes: 5,
            ..Default::default()
        };
        assert_eq!(s.persistent_ops(), 85);
    }

    #[test]
    fn micros_per_block_op_handles_zero() {
        assert_eq!(BacklogStats::default().micros_per_block_op(), 0.0);
        let s = BacklogStats {
            block_ops: 10,
            callback_ns: 50_000,
            cp_flush_ns: 50_000,
            ..Default::default()
        };
        assert!((s.micros_per_block_op() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cp_report_ratios() {
        let r = CpReport {
            block_ops: 1000,
            persistent_ops: 500,
            pages_written: 5,
            callback_ns: 1_000_000,
            flush_ns: 1_000_000,
            ..Default::default()
        };
        assert!((r.io_writes_per_persistent_op() - 0.01).abs() < 1e-12);
        assert!((r.io_writes_per_op() - 0.005).abs() < 1e-12);
        assert!((r.micros_per_op() - 2.0).abs() < 1e-9);
        assert_eq!(CpReport::default().io_writes_per_persistent_op(), 0.0);
        assert_eq!(CpReport::default().micros_per_op(), 0.0);
    }

    #[test]
    fn maintenance_reduction_ratio() {
        let r = MaintenanceReport {
            bytes_before: 100,
            bytes_after: 60,
            ..Default::default()
        };
        assert!((r.reduction_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(MaintenanceReport::default().reduction_ratio(), 0.0);
    }

    #[test]
    fn io_delta_between_snapshots() {
        let before = IoStatsSnapshot {
            page_reads: 5,
            page_writes: 10,
            ..Default::default()
        };
        let after = IoStatsSnapshot {
            page_reads: 8,
            page_writes: 25,
            ..Default::default()
        };
        assert_eq!(
            IoDelta::between(&before, &after),
            IoDelta {
                reads: 3,
                writes: 15
            }
        );
    }
}
