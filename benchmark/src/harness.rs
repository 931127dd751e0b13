//! How the load reaches the engine: the fixed engine configuration, the
//! staging [`BackrefProvider`] and the timed sections around every call into
//! `core`'s public functions.
//!
//! `fsim` delivers callbacks one at a time, ~0.5 µs apart; timing each would
//! cost as much as the callback. The [`StagingProvider`] therefore buffers a
//! CP interval's callbacks and snapshot/clone events in arrival order and,
//! when `fsim` takes the consistency point, replays them into the engine
//! inside **one** timed section, then times `consistency_point` on its own.
//! Generator and simulator time thus stay out of the write-path metrics at
//! the price of two clock reads per interval.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use backlog::{
    BacklogConfig, BacklogEngine, BacklogError, BlockNo, CpNumber, LineId, MaintenanceReport,
    Owner, SnapshotId, WriteBatch,
};
use blockdev::{Device, DeviceConfig, SimDisk};
use fsim::{BackrefProvider, FsError, ProviderCpStats};

use crate::device::TracedDevice;
use crate::guard::Guard;
use crate::trace::{Kind, Tracer};

/// Engine partitions (paper §5.3: RS files partitioned by block number).
pub const PARTITIONS: u32 = 8;
/// Journal ring capacity. The ring holds every group since the one-CP-late
/// truncation tail — two 32 000-op intervals at one page per 64-entry group
/// is ~1 000 pages — so 4 096 leaves `JournalFull` unreachable.
pub const JOURNAL_RING_PAGES: u64 = 4096;
/// Callbacks per `WriteBatch` when a workload replays through `apply`.
pub const APPLY_BATCH: usize = 256;

/// The engine configuration every workload runs under (see README "Fixed
/// configuration"): 8 partitions over `key_space` blocks, journaling to the
/// on-device ring with the default group size, single-threaded CP flush and
/// the product's default `track_timing`. `engine_timing` is false only for
/// the traced run's extra pass that measures what `track_timing` costs.
pub fn engine_config(key_space: u64, engine_timing: bool) -> BacklogConfig {
    let config = BacklogConfig::partitioned(PARTITIONS, key_space)
        .with_journaling()
        .with_journal_ring_pages(JOURNAL_RING_PAGES);
    if engine_timing {
        config
    } else {
        config.without_timing()
    }
}

/// The simulated disk every workload runs on: the paper's 15K-RPM latency
/// model at queue depth 16, latency emulation off (wall time is CPU time;
/// modelled device time is read from the `SimClock`), volatile write cache
/// on so that only barriers make data durable.
pub fn new_disk() -> Arc<SimDisk> {
    let disk = SimDisk::new_shared(DeviceConfig::default());
    disk.set_write_cache(true);
    disk
}

/// One buffered provider callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `add_reference`.
    Add(BlockNo, Owner),
    /// `remove_reference`.
    Remove(BlockNo, Owner),
    /// `snapshot_created`.
    SnapshotCreated(SnapshotId),
    /// `snapshot_deleted`.
    SnapshotDeleted(SnapshotId),
    /// `clone_created`.
    CloneCreated(SnapshotId, LineId),
    /// `line_deleted`.
    LineDeleted(LineId),
}

/// Applies a snapshot/clone event to `engine`; reference events are ignored.
pub fn apply_lineage(engine: &BacklogEngine, event: Event) {
    match event {
        Event::SnapshotCreated(s) => engine.register_snapshot(s),
        Event::SnapshotDeleted(s) => engine.delete_snapshot(s),
        Event::CloneCreated(p, l) => engine.register_clone(p, l),
        Event::LineDeleted(l) => engine.delete_line(l),
        Event::Add(..) | Event::Remove(..) => {}
    }
}

/// How staged reference callbacks are replayed into the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// `add_reference` / `remove_reference`, one call per callback (the
    /// paper's interface).
    Scalar,
    /// `apply(WriteBatch)` in batches of [`APPLY_BATCH`].
    Batched,
}

/// Which maintenance entry point a call uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Maintenance {
    /// `maintenance()`: every partition.
    Full,
    /// `maintenance_if_dirty(threshold)`.
    IfDirty(u32),
}

/// Write-path accounting, summed over every replayed interval and CP.
#[derive(Debug, Clone, Default)]
pub struct WriteStats {
    /// CP intervals during which the [`Guard`] saw a neighbour disturb the
    /// machine. They stay in the sums: intervals differ too much for the
    /// rest to stand in for them.
    pub disturbed_cps: u64,
    /// CPs the guard has not ruled on yet.
    pending_cps: u64,
    /// Whether set-up is over ([`Bench::start_measuring`] was called).
    measuring: bool,
    /// Reference callbacks replayed since measuring started.
    pub ops: u64,
    /// Reference callbacks replayed since the engine was created. The
    /// engine's journal numbers callbacks in arrival order from 1, so this
    /// is also the LSN of the newest one.
    pub lsn: u64,
    /// Wall time inside callback replay sections.
    pub callback_ns: u64,
    /// Wall time of each `consistency_point` call.
    pub cp_ns: Vec<u64>,
    /// Device page writes during replay + CP sections.
    pub pages_written: u64,
    /// Write barriers (device flushes) during replay + CP sections.
    pub barriers: u64,
    /// `SimClock` advance during replay + CP sections.
    pub device_clock_ns: u64,
    /// Records the CPs flushed into Level-0 runs.
    pub records_flushed: u64,
    /// Level-0 runs the CPs created.
    pub runs_created: u64,
    /// Callbacks the CPs covered.
    pub cp_block_ops: u64,
    /// Those of them that survived proactive pruning.
    pub persistent_ops: u64,
    /// Largest write-store footprint seen just before a CP.
    pub write_store_bytes_peak: u64,
    /// Most Level-0 runs on disk after any CP.
    pub runs_peak: u64,
    /// Newest LSN the engine acknowledged as durable (CP or `journal_sync`).
    pub acked_lsn: u64,
    /// Snapshot/clone events replayed since the last CP; a host re-applies
    /// them after a crash (the engine's lineage is persisted at CPs only).
    pub lineage_since_cp: Vec<Event>,
    /// Intervals after which the journal still held a full group — a
    /// group commit failed (`JournalFull` or a device error).
    pub journal_stalls: u64,
}

/// Maintenance accounting, summed over every call.
#[derive(Debug, Clone, Default)]
pub struct MaintStats {
    /// Wall time inside maintenance calls.
    pub ns: u64,
    /// Calls that rebuilt at least one partition.
    pub passes: u64,
    /// Those of them during which the [`Guard`] saw a neighbour disturb the
    /// machine.
    pub disturbed_passes: u64,
    /// Level-0 runs merged away.
    pub runs_merged: u64,
    /// Records written to the Combined table.
    pub records_combined: u64,
    /// Records purged.
    pub records_purged: u64,
}

/// One durable engine on one simulated disk plus everything the benchmark
/// measures around it.
#[derive(Debug)]
pub struct Bench {
    /// Section timer / span recorder.
    pub tracer: Arc<Tracer>,
    /// The disk itself (power cuts, `IoStats`, `SimClock`).
    pub disk: Arc<SimDisk>,
    /// The wrapper the engine talks through in a traced run.
    pub traced: Option<Arc<TracedDevice>>,
    /// The engine under test.
    pub engine: BacklogEngine,
    /// The writer thread's interference guard (it outlives the engine: the
    /// reopened one is measured under it too).
    pub guard: Arc<Guard>,
    /// Highest block number any callback has named; the `mixed_2t` query
    /// client draws its range queries below it.
    pub max_block: AtomicU64,
    client_keys: Mutex<Arc<Vec<BlockNo>>>,
    replay: Replay,
    staged: Mutex<Vec<Event>>,
    write: Mutex<WriteStats>,
    maint: Mutex<MaintStats>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked holding a lock")
}

impl Bench {
    /// Creates a durable engine on a fresh disk. In a recording tracer's run
    /// the engine reaches the disk through a [`TracedDevice`].
    ///
    /// # Errors
    ///
    /// Propagates the engine's error from writing its initial manifest.
    pub fn create(
        tracer: Arc<Tracer>,
        config: BacklogConfig,
        replay: Replay,
    ) -> Result<Arc<Bench>, BacklogError> {
        let disk = new_disk();
        let traced = tracer
            .recording()
            .then(|| Arc::new(TracedDevice::new(disk.clone())));
        let device = engine_device(&disk, &traced);
        let engine = BacklogEngine::create_durable(device, config)?;
        Ok(Arc::new(Bench {
            tracer,
            disk,
            traced,
            engine,
            guard: Arc::new(Guard::new()),
            max_block: AtomicU64::new(0),
            client_keys: Mutex::new(Arc::new(Vec::new())),
            replay,
            staged: Mutex::new(Vec::new()),
            write: Mutex::new(WriteStats::default()),
            maint: Mutex::new(MaintStats::default()),
        }))
    }

    /// Hands the query client blocks the file system holds live right now.
    pub fn publish_client_keys(&self, blocks: Vec<BlockNo>) {
        *lock(&self.client_keys) = Arc::new(blocks);
    }

    /// The blocks last published for the query client.
    pub fn client_keys(&self) -> Arc<Vec<BlockNo>> {
        lock(&self.client_keys).clone()
    }

    /// A copy of the write-path accounting.
    pub fn write_stats(&self) -> WriteStats {
        lock(&self.write).clone()
    }

    /// A copy of the maintenance accounting.
    pub fn maint_stats(&self) -> MaintStats {
        lock(&self.maint).clone()
    }

    /// Forgets the write-path and maintenance accounting gathered so far
    /// (the LSN counter and acknowledgements stay): set-up work ends here.
    pub fn start_measuring(&self) {
        let mut w = lock(&self.write);
        *w = WriteStats {
            lsn: w.lsn,
            acked_lsn: w.acked_lsn,
            lineage_since_cp: std::mem::take(&mut w.lineage_since_cp),
            measuring: true,
            ..WriteStats::default()
        };
        *lock(&self.maint) = MaintStats::default();
    }

    fn stage(&self, event: Event) {
        lock(&self.staged).push(event);
    }

    /// Runs `f` inside a timed write-path section of `kind`; returns its
    /// result and duration after adding the device page writes, the barriers
    /// and the `SimClock` advance it caused to the write-path accounting.
    fn write_section<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> (T, u64) {
        let io_before = self.disk.stats().snapshot();
        let clock_before = self.disk.clock().now_ns();
        let (out, ns) = self.tracer.timed(kind, f);
        let io = self.disk.stats().snapshot().delta_since(&io_before);
        let mut w = lock(&self.write);
        w.pages_written += io.page_writes;
        w.barriers += io.flushes;
        w.device_clock_ns += self.disk.clock().now_ns() - clock_before;
        (out, ns)
    }

    /// Replays every staged event into the engine, in arrival order, inside
    /// one timed `callback` section. Returns the events replayed so callers
    /// that track ground truth can follow along.
    pub fn drain(&self) -> Vec<Event> {
        let events = std::mem::take(&mut *lock(&self.staged));
        if events.is_empty() {
            return events;
        }
        let ((), ns) = self.write_section(Kind::Callback, || {
            replay_events(&self.engine, &events, self.replay)
        });

        let mut w = lock(&self.write);
        let mut max_block = 0;
        let mut ops = 0;
        for event in &events {
            match event {
                Event::Add(block, _) => {
                    max_block = max_block.max(*block);
                    ops += 1;
                }
                Event::Remove(..) => ops += 1,
                lineage => w.lineage_since_cp.push(*lineage),
            }
        }
        w.callback_ns += ns;
        w.ops += ops;
        w.lsn += ops;
        self.max_block.fetch_max(max_block, Ordering::Relaxed);
        // Auto-commit drains the pending segment whenever it reaches the
        // group size, so a full group left behind means a commit failed.
        if let Some(ring) = self.engine.journal_ring_stats() {
            if ring.pending_entries >= self.engine.config().journal_group_size.max(1) {
                w.journal_stalls += 1;
            }
        }
        events
    }

    /// Drains, then takes a consistency point inside a timed `cp` section.
    ///
    /// # Errors
    ///
    /// Propagates the engine's error; nothing is acknowledged.
    pub fn consistency_point(&self) -> Result<backlog::CpReport, BacklogError> {
        self.drain();
        let ws_bytes = self.engine.write_store_bytes();
        let (report, ns) = self.write_section(Kind::Cp, || self.engine.consistency_point());
        let report = report?;
        let runs = u64::from(self.engine.run_count());

        let mut w = lock(&self.write);
        w.cp_ns.push(ns);
        w.pending_cps += 1;
        w.records_flushed += report.records_flushed;
        w.runs_created += u64::from(report.runs_created);
        w.cp_block_ops += report.block_ops;
        w.persistent_ops += report.persistent_ops;
        w.write_store_bytes_peak = w.write_store_bytes_peak.max(ws_bytes);
        w.runs_peak = w.runs_peak.max(runs);
        // A durable CP covers every callback replayed before it.
        w.acked_lsn = w.lsn;
        w.lineage_since_cp.clear();
        let measuring = w.measuring;
        drop(w);
        // Set-up is timed as a whole: no waiting for quiet inside it.
        if measuring {
            if let Some(undisturbed) = self.guard.check_if_due() {
                self.settle(undisturbed);
            }
        }
        Ok(report)
    }

    /// The guard's verdict on the intervals closed since its last one.
    fn settle(&self, undisturbed: bool) {
        let mut w = lock(&self.write);
        let pending = std::mem::take(&mut w.pending_cps);
        if !undisturbed {
            w.disturbed_cps += pending;
        }
    }

    /// A phase boundary: has the guard rule on the intervals still pending
    /// and wait until the machine is quiet.
    pub fn gate(&self) {
        self.settle(self.guard.check());
    }

    /// Drains, then runs maintenance inside a timed `maint` section.
    ///
    /// # Errors
    ///
    /// Propagates the engine's error.
    pub fn maintenance(&self, how: Maintenance) -> Result<(), BacklogError> {
        self.drain();
        // A pass is one long sample that nothing can repeat: start it quiet.
        self.gate();
        let (report, ns) = self.tracer.timed(Kind::Maint, || match how {
            Maintenance::Full => self.engine.maintenance().map(Some),
            Maintenance::IfDirty(threshold) => self.engine.maintenance_if_dirty(threshold),
        });
        let disturbed = !self.guard.check();
        let mut m = lock(&self.maint);
        m.ns += ns;
        if let Some(report) = report? {
            record_maintenance(&mut m, &report);
            m.disturbed_passes += u64::from(disturbed);
        }
        Ok(())
    }

    /// Drains, then group-commits the journal; the returned LSN and
    /// everything below it is acknowledged durable.
    ///
    /// # Errors
    ///
    /// Propagates the engine's error (`JournalFull`, device errors).
    pub fn journal_sync(&self) -> Result<u64, BacklogError> {
        self.drain();
        let (lsn, ns) = self.write_section(Kind::Callback, || self.engine.journal_sync());
        let lsn = lsn?;
        let mut w = lock(&self.write);
        w.callback_ns += ns;
        w.acked_lsn = w.acked_lsn.max(lsn);
        Ok(lsn)
    }
}

/// The device handle an engine is given: the wrapper if there is one.
pub fn engine_device(disk: &Arc<SimDisk>, traced: &Option<Arc<TracedDevice>>) -> Arc<dyn Device> {
    match traced {
        Some(t) => t.clone(),
        None => disk.clone(),
    }
}

/// Folds one maintenance report into the running sums.
pub fn record_maintenance(m: &mut MaintStats, report: &MaintenanceReport) {
    m.passes += 1;
    m.runs_merged += u64::from(report.runs_merged);
    m.records_combined += report.combined_records;
    m.records_purged += report.purged_records;
}

/// Replays `events` in order.
fn replay_events(engine: &BacklogEngine, events: &[Event], replay: Replay) {
    let mut batch = WriteBatch::with_capacity(APPLY_BATCH);
    for &event in events {
        match event {
            Event::Add(block, owner) => match replay {
                Replay::Scalar => engine.add_reference(block, owner),
                Replay::Batched => batch.add_reference(block, owner),
            },
            Event::Remove(block, owner) => match replay {
                Replay::Scalar => engine.remove_reference(block, owner),
                Replay::Batched => batch.remove_reference(block, owner),
            },
            lineage => {
                // A lineage event is a barrier for the batch before it.
                engine.apply(&batch);
                batch.clear();
                apply_lineage(engine, lineage);
            }
        }
        if batch.len() >= APPLY_BATCH {
            engine.apply(&batch);
            batch.clear();
        }
    }
    engine.apply(&batch);
}

/// The benchmark's [`BackrefProvider`]: stages callbacks, replays them at
/// the consistency point (see the module docs).
#[derive(Debug, Clone)]
pub struct StagingProvider(pub Arc<Bench>);

impl BackrefProvider for StagingProvider {
    fn name(&self) -> &str {
        "backlog-staged"
    }

    fn add_reference(&self, block: BlockNo, owner: Owner) {
        self.0.stage(Event::Add(block, owner));
    }

    fn remove_reference(&self, block: BlockNo, owner: Owner) {
        self.0.stage(Event::Remove(block, owner));
    }

    fn consistency_point(&self, cp: CpNumber) -> fsim::Result<ProviderCpStats> {
        debug_assert_eq!(cp, self.0.engine.current_cp(), "engine CP out of step");
        let report = self.0.consistency_point().map_err(FsError::from)?;
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
        self.0.stage(Event::SnapshotCreated(snap));
    }

    fn snapshot_deleted(&self, snap: SnapshotId) {
        self.0.stage(Event::SnapshotDeleted(snap));
    }

    fn clone_created(&self, parent: SnapshotId, line: LineId) {
        self.0.stage(Event::CloneCreated(parent, line));
    }

    fn line_deleted(&self, line: LineId) {
        self.0.stage(Event::LineDeleted(line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim::{BacklogProvider, DedupConfig, FileSystem, FsConfig, SnapshotPolicy};
    use workloads::{SyntheticConfig, SyntheticWorkload};

    fn fs_config() -> FsConfig {
        FsConfig {
            dedup: DedupConfig {
                probability: 0.10,
                pool_size: 64,
            },
            metadata_cow: true,
            snapshot_policy: SnapshotPolicy::paper_default(2),
            seed: 11,
        }
    }

    /// Clone churn on, clone writes off: with two dirty lines in one interval
    /// `fsim` flushes their metadata in `HashMap` order, and the streams of
    /// two file systems would differ by themselves.
    fn generator() -> SyntheticWorkload {
        SyntheticWorkload::new(SyntheticConfig {
            ops_per_cp: 400,
            clones_per_100_cps: 40.0,
            clone_update_fraction: 0.0,
            min_live_files: 16,
            seed: 5,
            ..SyntheticConfig::default()
        })
    }

    fn run_staged(replay: Replay) -> Arc<Bench> {
        let bench = Bench::create(
            Arc::new(Tracer::new(false)),
            engine_config(20_000, true),
            replay,
        )
        .unwrap();
        let mut fs = FileSystem::new(StagingProvider(bench.clone()), fs_config());
        let mut wl = generator();
        for cp in 0..24 {
            wl.run_cp(&mut fs).unwrap();
            if cp % 8 == 7 {
                bench.maintenance(Maintenance::Full).unwrap();
            }
        }
        bench.drain();
        assert!(fs.stats().clones_created > 0 && fs.stats().snapshots_deleted > 0);
        bench
    }

    #[test]
    fn staged_replay_preserves_order() {
        // The same seeded stream through the plain provider...
        let plain =
            BacklogProvider::create_durable(new_disk(), engine_config(20_000, true)).unwrap();
        let mut fs = FileSystem::new(plain, fs_config());
        let mut wl = generator();
        for cp in 0..24 {
            wl.run_cp(&mut fs).unwrap();
            if cp % 8 == 7 {
                fs.provider().maintenance().unwrap();
            }
        }
        let plain = fs.provider().engine();
        let want = plain.dump_all().unwrap().refs;
        assert!(want.len() > 1_000);
        let counters = |e: &BacklogEngine| {
            let s = e.stats();
            (
                s.refs_added,
                s.refs_removed,
                s.pruned_adds,
                s.pruned_removes,
                s.consistency_points,
                s.maintenance_runs,
            )
        };
        // ...and through the staging provider, scalar and batched.
        for replay in [Replay::Scalar, Replay::Batched] {
            let bench = run_staged(replay);
            assert_eq!(bench.engine.dump_all().unwrap().refs, want, "{replay:?}");
            assert_eq!(counters(&bench.engine), counters(plain), "{replay:?}");
            let w = bench.write_stats();
            assert_eq!(w.ops, plain.stats().block_ops);
            assert_eq!(w.cp_ns.len(), 24);
            assert_eq!(w.journal_stalls, 0);
            // The benchmark's LSN counter is the journal's.
            assert_eq!(
                bench.engine.journal_ring_stats().unwrap().appended_lsn,
                w.ops
            );
            assert_eq!(bench.maint_stats().passes, 3);
        }
    }

    #[test]
    fn acknowledgements_follow_cps_and_journal_syncs() {
        let bench = Bench::create(
            Arc::new(Tracer::new(false)),
            engine_config(1_000, true),
            Replay::Scalar,
        )
        .unwrap();
        let p = StagingProvider(bench.clone());
        for b in 0..10 {
            p.add_reference(b, Owner::block(2, b, LineId::ROOT));
        }
        assert_eq!(bench.write_stats().ops, 0, "staged, not yet replayed");
        p.consistency_point(1).unwrap();
        assert_eq!(bench.write_stats().acked_lsn, 10);
        p.snapshot_created(SnapshotId::new(LineId::ROOT, 1));
        p.add_reference(10, Owner::block(2, 10, LineId::ROOT));
        assert_eq!(bench.journal_sync().unwrap(), 11);
        let w = bench.write_stats();
        assert_eq!((w.ops, w.lsn, w.acked_lsn), (11, 11, 11));
        assert_eq!(
            w.lineage_since_cp,
            vec![Event::SnapshotCreated(SnapshotId::new(LineId::ROOT, 1))]
        );
        assert_eq!(bench.max_block.load(Ordering::Relaxed), 10);
        bench.start_measuring();
        let w = bench.write_stats();
        assert_eq!((w.ops, w.lsn, w.acked_lsn, w.cp_ns.len()), (0, 11, 11, 0));
        assert_eq!(w.lineage_since_cp.len(), 1);
        assert_eq!((w.disturbed_cps, w.pending_cps), (0, 0));
    }

    #[test]
    fn a_disturbed_verdict_covers_the_cps_since_the_last_one() {
        let bench = Bench::create(
            Arc::new(Tracer::new(false)),
            engine_config(1_000, true),
            Replay::Scalar,
        )
        .unwrap();
        lock(&bench.write).pending_cps = 3;
        bench.settle(true);
        let w = bench.write_stats();
        assert_eq!((w.disturbed_cps, w.pending_cps), (0, 0));
        lock(&bench.write).pending_cps = 2;
        bench.settle(false);
        let w = bench.write_stats();
        assert_eq!((w.disturbed_cps, w.pending_cps), (2, 0));
    }
}
