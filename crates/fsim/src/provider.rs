//! The pluggable back-reference provider interface.
//!
//! The simulator reports every reference change and every consistency point
//! to a [`BackrefProvider`]. Three families of providers exist in this
//! workspace, mirroring the paper's Table 1 configurations:
//!
//! * [`NullProvider`] — no back references at all (the *Base* configuration).
//! * `baseline::BtrfsLikeBackrefs` — reference-counted, metadata-integrated
//!   back references (the *Original* configuration).
//! * [`BacklogProvider`] — the paper's contribution (the *Backlog*
//!   configuration), wrapping a [`BacklogEngine`].
//! * `baseline::NaiveBackrefs` — the strawman conceptual-table design from
//!   Section 4.1, used to demonstrate why the log-structured design matters.

use std::sync::Arc;

use backlog::{
    BacklogConfig, BacklogEngine, BlockNo, CpNumber, LineId, Owner, RefOp, SnapshotId, WriteBatch,
};
use blockdev::Device;

use crate::error::Result;

/// Per-consistency-point accounting reported by a provider.
///
/// Providers accumulate these counters across the CP interval from `&self`
/// callbacks that may run on many threads at once, so implementations keep
/// the accumulators in atomics (or behind the provider's own state lock) —
/// never in plain fields mutated through shared references.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProviderCpStats {
    /// Records (of whatever internal form) written to stable storage.
    pub records_flushed: u64,
    /// Device page writes attributable to back-reference maintenance.
    pub pages_written: u64,
    /// Device page reads attributable to back-reference maintenance.
    pub pages_read: u64,
    /// Contended state-lock acquisitions (e.g. write-store shard locks)
    /// observed over the CP interval, for providers that track them.
    pub lock_contentions: u64,
    /// Wall-clock nanoseconds spent inside reference callbacks since the
    /// previous CP.
    pub callback_ns: u64,
    /// Wall-clock nanoseconds spent flushing at this CP.
    pub flush_ns: u64,
}

impl ProviderCpStats {
    /// Total provider time (callbacks plus flush) in microseconds.
    pub fn total_micros(&self) -> f64 {
        (self.callback_ns + self.flush_ns) as f64 / 1_000.0
    }
}

/// A back-reference implementation driven by file-system callbacks.
///
/// Providers must tolerate any callback order the file system produces; in
/// particular a reference may be added and removed within one CP interval.
///
/// # Concurrency contract
///
/// Every method takes `&self`, and a provider must be safe to drive from
/// many file-system threads at once: reference callbacks may race each
/// other, queries and even a consistency point (the host serializes CPs
/// against each other, but not against callbacks — an operation that races
/// the CP boundary simply lands in whichever CP interval it hits, exactly as
/// in a real write-anywhere file system). Scalable providers shard their
/// mutable state (the Backlog engine shards its write stores by partition);
/// baseline providers may simply wrap their state in a lock — serializing
/// writers is itself a faithful model of those designs.
///
/// Multi-threaded hosts should prefer [`apply_batch`](Self::apply_batch)
/// over per-operation callbacks: providers with sharded state amortize their
/// per-partition locking over the whole batch.
pub trait BackrefProvider: std::fmt::Debug + Send + Sync {
    /// Short human-readable name used in benchmark output ("backlog",
    /// "btrfs-like", "naive", "none").
    fn name(&self) -> &str;

    /// `owner` now references `block`.
    fn add_reference(&self, block: BlockNo, owner: Owner);

    /// `owner` no longer references `block`.
    fn remove_reference(&self, block: BlockNo, owner: Owner);

    /// Applies an ordered batch of reference operations.
    ///
    /// Semantically identical to looping
    /// [`add_reference`](Self::add_reference) /
    /// [`remove_reference`](Self::remove_reference) — which is exactly what
    /// the default implementation does. Providers with sharded or otherwise
    /// lock-guarded state override this to amortize lock acquisitions across
    /// the batch (see `BacklogProvider`).
    fn apply_batch(&self, batch: &WriteBatch) {
        for op in batch.ops() {
            match *op {
                RefOp::Add { block, owner } => self.add_reference(block, owner),
                RefOp::Remove { block, owner } => self.remove_reference(block, owner),
            }
        }
    }

    /// The file system is taking consistency point `cp` (the CP that is now
    /// being made durable). Returns the provider's overhead accounting.
    ///
    /// # Errors
    ///
    /// Returns an error if the provider's stable storage fails.
    fn consistency_point(&self, cp: CpNumber) -> Result<ProviderCpStats>;

    /// A snapshot was taken. Default: ignored.
    fn snapshot_created(&self, _snap: SnapshotId) {}

    /// A snapshot was deleted. Default: ignored.
    fn snapshot_deleted(&self, _snap: SnapshotId) {}

    /// A writable clone of `parent` was created as `line`. Default: ignored.
    fn clone_created(&self, _parent: SnapshotId, _line: LineId) {}

    /// An entire line (writable clone) was deleted. Default: ignored.
    fn line_deleted(&self, _line: LineId) {}

    /// The owners of `block` that are reachable from the live file system.
    /// Providers that cannot answer queries return an empty vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the provider's stable storage fails.
    fn query_owners(&self, _block: BlockNo) -> Result<Vec<Owner>> {
        Ok(Vec::new())
    }

    /// Bytes of back-reference metadata currently on stable storage.
    fn metadata_bytes(&self) -> u64 {
        0
    }

    /// Runs the provider's periodic maintenance, if it has any.
    ///
    /// # Errors
    ///
    /// Returns an error if the provider's stable storage fails.
    fn maintenance(&self) -> Result<()> {
        Ok(())
    }
}

/// A provider that maintains no back references at all — the paper's *Base*
/// btrfs configuration, used to measure the intrinsic cost of the other
/// providers.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProvider;

impl NullProvider {
    /// Creates the provider.
    pub fn new() -> Self {
        NullProvider
    }
}

impl BackrefProvider for NullProvider {
    fn name(&self) -> &str {
        "none"
    }

    fn add_reference(&self, _block: BlockNo, _owner: Owner) {}

    fn remove_reference(&self, _block: BlockNo, _owner: Owner) {}

    fn consistency_point(&self, _cp: CpNumber) -> Result<ProviderCpStats> {
        Ok(ProviderCpStats::default())
    }
}

/// The Backlog provider: adapts a [`BacklogEngine`] to the
/// [`BackrefProvider`] interface.
///
/// The engine's internal CP counter starts at 1, like the simulator's, and is
/// advanced exactly once per [`consistency_point`](BackrefProvider::consistency_point)
/// call, so the two stay in lock step.
#[derive(Debug)]
pub struct BacklogProvider {
    engine: BacklogEngine,
}

impl BacklogProvider {
    /// Creates a provider around an engine backed by a fresh simulated disk.
    pub fn new(config: BacklogConfig) -> Self {
        BacklogProvider {
            engine: BacklogEngine::new_simulated(config),
        }
    }

    /// Creates a provider around an existing engine (e.g. one sharing a
    /// device with other instrumentation).
    pub fn with_engine(engine: BacklogEngine) -> Self {
        BacklogProvider { engine }
    }

    /// Creates a provider around a *durable* engine on an empty device:
    /// every consistency point appends a manifest-log frame and flips the
    /// superblock, so the provider can later be [`reopen`](Self::reopen)ed
    /// from the same device after a crash or clean shutdown.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from writing the initial manifest frame.
    pub fn create_durable(device: Arc<dyn Device>, config: BacklogConfig) -> Result<Self> {
        Ok(BacklogProvider {
            engine: BacklogEngine::create_durable(device, config)
                .map_err(crate::error::FsError::from)?,
        })
    }

    /// Reopens a provider from raw device contents — the state as of the
    /// last durable consistency point. The host file system must resume its
    /// CP numbering from [`BacklogEngine::current_cp`] (the simulator's
    /// restart path does) and, once its snapshot/clone metadata is restored,
    /// call [`replay_recovered_journal`](Self::replay_recovered_journal).
    ///
    /// # Errors
    ///
    /// Propagates recovery errors (no superblock, corrupt manifest,
    /// mismatched configuration).
    pub fn reopen(device: Arc<dyn Device>, config: BacklogConfig) -> Result<Self> {
        Ok(BacklogProvider {
            engine: BacklogEngine::open(device, config).map_err(crate::error::FsError::from)?,
        })
    }

    /// Group-commits the engine's pending journal entries to the on-device
    /// ring behind one flush barrier and returns the durable LSN — the
    /// provider-level fence a host calls before acknowledging an operation
    /// as stable. No-op (returns 0) without a ring.
    ///
    /// # Errors
    ///
    /// Propagates device errors; the pending entries survive for a retry.
    pub fn journal_sync(&self) -> Result<u64> {
        self.engine
            .journal_sync()
            .map_err(crate::error::FsError::from)
    }

    /// Replays the callbacks [`reopen`](Self::reopen) recovered from the
    /// on-device journal ring, returning the engine's recovery report.
    /// Call *after* restoring host-side snapshot/clone metadata.
    ///
    /// # Errors
    ///
    /// Propagates engine replay errors.
    pub fn replay_recovered_journal(&self) -> Result<backlog::JournalRecovery> {
        self.engine
            .replay_recovered_journal()
            .map_err(crate::error::FsError::from)
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &BacklogEngine {
        &self.engine
    }

    /// Consumes the provider and returns the engine.
    pub fn into_engine(self) -> BacklogEngine {
        self.engine
    }
}

impl BackrefProvider for BacklogProvider {
    fn name(&self) -> &str {
        "backlog"
    }

    fn add_reference(&self, block: BlockNo, owner: Owner) {
        self.engine.add_reference(block, owner);
    }

    fn remove_reference(&self, block: BlockNo, owner: Owner) {
        self.engine.remove_reference(block, owner);
    }

    fn apply_batch(&self, batch: &WriteBatch) {
        // One shard-lock acquisition per touched partition instead of one
        // per operation.
        self.engine.apply(batch);
    }

    fn consistency_point(&self, cp: CpNumber) -> Result<ProviderCpStats> {
        debug_assert_eq!(
            cp,
            self.engine.current_cp(),
            "engine CP out of sync with fsim CP"
        );
        let report = self.engine.consistency_point()?;
        Ok(ProviderCpStats {
            records_flushed: report.records_flushed,
            pages_written: report.pages_written,
            pages_read: report.pages_read,
            lock_contentions: report.lock_contentions,
            callback_ns: report.callback_ns,
            flush_ns: report.flush_ns,
        })
    }

    fn snapshot_created(&self, snap: SnapshotId) {
        self.engine.register_snapshot(snap);
    }

    fn snapshot_deleted(&self, snap: SnapshotId) {
        self.engine.delete_snapshot(snap);
    }

    fn clone_created(&self, parent: SnapshotId, line: LineId) {
        self.engine.register_clone(parent, line);
    }

    fn line_deleted(&self, line: LineId) {
        self.engine.delete_line(line);
    }

    fn query_owners(&self, block: BlockNo) -> Result<Vec<Owner>> {
        Ok(self.engine.live_owners(block)?)
    }

    fn metadata_bytes(&self) -> u64 {
        self.engine.database_disk_bytes()
    }

    fn maintenance(&self) -> Result<()> {
        self.engine.maintenance()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_provider_is_free() {
        let p = NullProvider::new();
        p.add_reference(1, Owner::block(1, 0, LineId::ROOT));
        p.remove_reference(1, Owner::block(1, 0, LineId::ROOT));
        let stats = p.consistency_point(1).unwrap();
        assert_eq!(stats, ProviderCpStats::default());
        assert_eq!(p.name(), "none");
        assert_eq!(p.metadata_bytes(), 0);
        assert!(p.query_owners(1).unwrap().is_empty());
        p.maintenance().unwrap();
    }

    #[test]
    fn backlog_provider_tracks_references() {
        let p = BacklogProvider::new(BacklogConfig::default().without_timing());
        let owner = Owner::block(5, 2, LineId::ROOT);
        p.add_reference(77, owner);
        let stats = p.consistency_point(1).unwrap();
        assert_eq!(stats.records_flushed, 1);
        assert!(stats.pages_written > 0);
        assert_eq!(p.query_owners(77).unwrap(), vec![owner]);
        assert!(p.metadata_bytes() > 0);
        assert_eq!(p.name(), "backlog");
        p.maintenance().unwrap();
        assert_eq!(p.query_owners(77).unwrap(), vec![owner]);
    }

    #[test]
    fn backlog_provider_snapshot_lifecycle_roundtrip() {
        let p = BacklogProvider::new(BacklogConfig::default().without_timing());
        let owner = Owner::block(5, 2, LineId::ROOT);
        p.add_reference(10, owner);
        p.consistency_point(1).unwrap();
        let snap = SnapshotId::new(LineId::ROOT, 2);
        p.snapshot_created(snap);
        p.clone_created(snap, LineId(7));
        // The clone inherits the reference.
        let owners = p.query_owners(10).unwrap();
        assert!(owners.iter().any(|o| o.line == LineId(7)));
        p.line_deleted(LineId(7));
        p.snapshot_deleted(snap);
        let owners = p.query_owners(10).unwrap();
        assert!(owners.iter().all(|o| o.line == LineId::ROOT));
        assert_eq!(p.engine().current_cp(), 2);
    }

    #[test]
    fn apply_batch_prunes_like_scalar_callbacks() {
        // The default impl loops the scalar callbacks (NullProvider)...
        let null = NullProvider::new();
        let mut batch = WriteBatch::new();
        let owner = Owner::block(3, 0, LineId::ROOT);
        batch.add_reference(1, owner);
        batch.remove_reference(1, owner);
        null.apply_batch(&batch);
        // ...and the Backlog provider routes through the engine's batched
        // path, including proactive pruning of the same-CP pair.
        let p = BacklogProvider::new(BacklogConfig::default().without_timing());
        p.apply_batch(&batch);
        let stats = p.consistency_point(1).unwrap();
        assert_eq!(stats.records_flushed, 0, "same-CP pair never reaches disk");
        assert_eq!(p.engine().stats().block_ops, 2);
        assert_eq!(p.engine().stats().pruned_adds, 1);
    }

    #[test]
    fn providers_are_shareable_across_threads() {
        // The redesigned trait promises `&self` callbacks from any thread.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NullProvider>();
        assert_send_sync::<BacklogProvider>();
        let p = BacklogProvider::new(BacklogConfig::default().without_timing());
        std::thread::scope(|s| {
            let provider = &p;
            for w in 0..2u64 {
                s.spawn(move || {
                    for b in 0..50u64 {
                        provider.add_reference(w * 100 + b, Owner::block(1, b, LineId::ROOT));
                    }
                });
            }
        });
        p.consistency_point(1).unwrap();
        assert_eq!(p.query_owners(0).unwrap().len(), 1);
        assert_eq!(p.query_owners(149).unwrap().len(), 1);
        assert_eq!(p.engine().stats().refs_added, 100);
    }

    #[test]
    fn provider_cp_stats_micros() {
        let s = ProviderCpStats {
            callback_ns: 1_500,
            flush_ns: 500,
            ..Default::default()
        };
        assert!((s.total_micros() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn provider_power_cut_roundtrip_replays_the_device_journal() {
        use blockdev::{DeviceConfig, PowerCutProfile, SimDisk};
        let device = SimDisk::new_shared(DeviceConfig::free_latency());
        device.set_write_cache(true);
        let config = BacklogConfig::default().without_timing().with_journaling();
        let p = BacklogProvider::create_durable(device.clone(), config.clone()).unwrap();
        let owner = Owner::block(5, 2, LineId::ROOT);
        p.add_reference(77, owner);
        p.consistency_point(1).unwrap();
        // Post-CP callbacks live in the write store until the journal fence
        // group-commits them to the on-device ring.
        let late = Owner::block(6, 0, LineId::ROOT);
        p.add_reference(78, late);
        assert_eq!(p.journal_sync().unwrap(), 2);
        drop(p);
        // Power cut: every unflushed cached page vanishes; the durable CP's
        // and the journal fence's barriers flushed their own pages, so
        // recovery — from raw device contents alone — reproduces both
        // references.
        device.power_cut(&PowerCutProfile::lose_all(1));
        let p = BacklogProvider::reopen(device, config).unwrap();
        let rec = p.replay_recovered_journal().unwrap();
        assert_eq!(rec.applied, 1, "only the post-CP add needs replaying");
        assert_eq!(rec.last_lsn, 2);
        assert_eq!(p.query_owners(77).unwrap(), vec![owner]);
        assert_eq!(p.query_owners(78).unwrap(), vec![late]);
    }
}
