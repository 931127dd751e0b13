use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blockdev::{
    Completion, Device, DeviceConfig, FileId, FileStore, IoStatsSnapshot, ReservedExtent, SimDisk,
    Superblock, FIRST_DATA_PAGE, PAGE_SIZE,
};
use lsm::{LsmTable, RangeCapture, TableConfig};
use obs::{spans, Histogram, MetricSet};
use parking_lot::{Mutex, RwLock};

use crate::batch::{RefOp, WriteBatch};
use crate::config::BacklogConfig;
use crate::error::{BacklogError, Result};
use crate::journal::{JournalEntry, JournalRing, JournalRingStats};
use crate::lineage::LineageTable;
use crate::maintenance::{join_and_purge_streaming, JoinPurgeStats, MaintenancePlan};
use crate::manifest::{self, BuiltRuns, LogTail, TableSnapshots};
use crate::observe::EngineObs;
use crate::query::{assemble_query, QueryResult};
use crate::record::{CombinedRecord, FromRecord, RefIdentity, ToRecord};
use crate::stats::{
    BacklogStats, CpPhaseNs, CpReport, IoDelta, MaintenanceReport, ManifestKind, ManifestLogStats,
};
use crate::types::{BlockNo, CpNumber, LineId, Owner, SnapshotId};

/// The log-structured back-reference engine (the paper's *Backlog*).
///
/// The engine is driven by three callbacks from the host file system —
/// [`add_reference`](Self::add_reference),
/// [`remove_reference`](Self::remove_reference) and
/// [`consistency_point`](Self::consistency_point) — plus snapshot-lifecycle
/// notifications ([`take_snapshot`](Self::take_snapshot),
/// [`create_clone`](Self::create_clone),
/// [`delete_snapshot`](Self::delete_snapshot)). It maintains the `From`, `To`
/// and `Combined` tables in LSM form on a simulated device, answers
/// back-reference queries, and periodically compacts the database
/// ([`maintenance`](Self::maintenance)).
///
/// # Concurrency model
///
/// The *entire* public surface takes `&self` and the engine is `Sync`: any
/// number of host file-system threads may issue reference callbacks
/// concurrently with each other, with queries, with a consistency point and
/// with an in-flight maintenance rebuild.
///
/// * **Callbacks** ([`add_reference`](Self::add_reference),
///   [`remove_reference`](Self::remove_reference),
///   [`apply`](Self::apply)) lock only the touched partition's `From` and
///   `To` write-store shards, so writers serialize only when they hit the
///   same partition;
///   [`WriteBatch`] amortizes the shard-lock acquisition over a group of
///   operations. Counters are atomics.
/// * **Consistency points** are serialized against each other by an internal
///   lock (one CP at a time, as in the host file system) but run concurrently
///   with callbacks: a CP *cuts* each partition by staging its `From` and
///   `To` shards under both shard guards at once, then builds and swaps, so
///   a racing callback lands whole in this CP's runs or stays whole in the
///   write stores for the next — never lost, never duplicated, never split.
///   The CP builds the partitions' runs on the calling thread and submits
///   all of their pages before waiting on any. A callback racing
///   the CP boundary is attributed to whichever interval it lands in, exactly
///   as its record lands in this flush or the next; a host that needs an
///   operation inside CP *n* must fence it before calling
///   [`consistency_point`](Self::consistency_point), as a real
///   write-anywhere file system does.
/// * **Queries and maintenance** use the tables' own partition locks, the
///   only partition locks there are, taken `From` → `To` → `Combined`. A
///   query, a maintenance pass and a durable CP's manifest take the three
///   read guards of a partition together ([`lsm::PartitionReadGuard`]),
///   capture snapshots (a query also the write-store records in range),
///   release them, and only then stream. A rebuild commit takes the three
///   write guards together ([`lsm::PartitionWriteGuard`]), so readers
///   observe each partition fully pre- or fully post-rebuild across all
///   three tables, and no lock is held across a rebuild's I/O. The commit
///   preserves state that arrived after the rebuild's snapshot — Level-0
///   runs appended by a racing CP flush and deletion marks added by a
///   racing relocation survive the swap. Two passes over the same
///   partition may race: the one that commits second finds its snapshot's
///   runs gone, deletes its outputs and adds nothing to the report. Purge
///   decisions use a point-in-time copy of the lineage, which can only err
///   on the side of keeping a record one round longer.
/// * **The engine spawns no threads.** Every operation runs on the thread
///   that calls it. A host parallelizes maintenance from its own threads,
///   each calling [`maintain`](Self::maintain) with a
///   [`MaintenancePlan::partition`] plan for different partitions: the
///   partitions are independent, and a racing pass over the same one is
///   refused at commit.
///
/// # Durability
///
/// Engines created with [`create_durable`](Self::create_durable) (or
/// recovered with [`open`](Self::open)) finish every consistency point by
/// appending a *delta frame* — what changed since the previous CP — to the
/// on-device *manifest log* (or starting a new log with a full *base
/// frame*) and flipping a ping-pong superblock at fixed device pages —
/// after which the database can be reopened from raw device contents at
/// exactly that CP. Updates after the last durable CP live only in the
/// write stores; with [`BacklogConfig::journaling`] a durable engine also
/// logs every callback to an on-device [`JournalRing`] whose location the
/// superblock records, so [`open`](Self::open) +
/// [`replay_recovered_journal`](Self::replay_recovered_journal) recover the
/// acknowledged ones from raw device contents alone (a non-durable engine
/// can never be reopened, so `journaling` has no effect on it). Every CP
/// records the exact journal LSN each partition's cut covered; replay
/// applies precisely the entries beyond that frontier, reading no table.
/// [`crate::journal`] and the README's "Durability & recovery" and
/// "On-device journal & group commit" sections have the protocol.
///
/// # Example
///
/// ```
/// use backlog::{BacklogConfig, BacklogEngine, LineId, Owner};
///
/// # fn main() -> Result<(), backlog::BacklogError> {
/// let mut engine = BacklogEngine::new_simulated(BacklogConfig::default());
/// // Block 1000 is referenced by inode 7 at offset 0.
/// engine.add_reference(1000, Owner::block(7, 0, LineId::ROOT));
/// engine.consistency_point()?;
/// let result = engine.query_block(1000)?;
/// assert_eq!(result.refs.len(), 1);
/// assert_eq!(result.refs[0].inode, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BacklogEngine {
    files: Arc<FileStore>,
    config: BacklogConfig,
    from_table: LsmTable<FromRecord>,
    to_table: LsmTable<ToRecord>,
    combined_table: LsmTable<CombinedRecord>,
    /// Lines, snapshots, clones and the CP clock. Callbacks take brief read
    /// locks (to stamp records with the current CP); snapshot-lifecycle
    /// mutations and the CP advance take brief write locks; maintenance
    /// works from a point-in-time clone so it never holds the lock while
    /// waiting on partition guards.
    lineage: RwLock<LineageTable>,
    /// Serializes consistency points against each other and holds the
    /// totals observed at the end of the previous CP, from which each
    /// [`CpReport`] derives its per-interval deltas.
    cp_lock: Mutex<CpInterval>,
    /// Serializes block relocations against each other: two concurrent
    /// relocations of the same block would each re-create the block's full
    /// reference history at their targets.
    relocate_lock: Mutex<()>,
    /// Cumulative counters, bumped from concurrent `&self` paths and folded
    /// into [`stats`](Self::stats) on read.
    counters: Counters,
    /// Whether every consistency point additionally writes a CP manifest and
    /// flips the superblock (engines created via
    /// [`create_durable`](Self::create_durable) or [`open`](Self::open)).
    durable: bool,
    /// The on-device journal of reference callbacks, when this is a durable
    /// engine with journaling active.
    journal: Option<JournalRing>,
    /// Entries a ring scan recovered during [`open`](Self::open), waiting
    /// for [`replay_recovered_journal`](Self::replay_recovered_journal).
    recovered_journal: Mutex<Option<RecoveredJournal>>,
    /// Per-shard replicas of the current CP number, so the scalar callback
    /// path stamps records without touching the lineage read-lock at all.
    cp_cache: CpCache,
    /// Flight recorder, observability clock and latency histograms (see
    /// [`EngineObs`]); the source behind [`metrics`](Self::metrics).
    obs: EngineObs,
}

/// Records the elapsed observability-clock time into a histogram when
/// dropped, so error returns out of an instrumented scope still sample.
struct HistogramOnDrop<'a> {
    hist: &'a Histogram,
    obs: &'a EngineObs,
    t0: u64,
}

impl Drop for HistogramOnDrop<'_> {
    fn drop(&mut self) {
        self.hist.record(self.obs.now().saturating_sub(self.t0));
    }
}

/// Entries recovered from the on-device ring at open with their LSNs, and
/// the per-partition frontier the durable CP recorded, stashed until the
/// host asks for replay.
#[derive(Debug)]
struct RecoveredJournal {
    entries: Vec<(u64, JournalEntry)>,
    frontier: Vec<u64>,
    last_lsn: u64,
}

/// What [`BacklogEngine::replay_recovered_journal`] found and applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalRecovery {
    /// Entries the ring scan recovered from the device.
    pub recovered: usize,
    /// Entries applied: those beyond their partition's frontier (the rest
    /// were already durable in runs).
    pub applied: usize,
    /// The LSN recovery reaches: the newest recovered entry's, or the
    /// durable CP's frontier if that is higher (0 without a ring). Every
    /// entry the engine ever acknowledged as durable has an LSN at or below
    /// this, and the ring resumes numbering above it.
    pub last_lsn: u64,
}

/// Per-shard cache of the global CP number. Callbacks read the replica of
/// the partition they touch; the consistency point — the only writer of the
/// CP clock, serialized by the CP lock — publishes the new value to every
/// replica. Each replica sits on its own cache line so the once-per-CP
/// publication invalidates only the line a callback actually reads (between
/// publications, readers share the lines read-only either way; the
/// replication exists for that invalidation moment and to keep the path
/// per-shard like the write stores it feeds). The replicas can lag the
/// lineage table only within the instant of publication, which is the same
/// window a callback racing the CP boundary always had under the read-lock
/// scheme: the record lands in whichever CP interval the race resolves to.
#[derive(Debug)]
struct CpCache {
    shards: Box<[CachePadded]>,
}

#[derive(Debug)]
#[repr(align(64))]
struct CachePadded(AtomicU64);

impl CpCache {
    fn new(shards: u32, initial: CpNumber) -> Self {
        CpCache {
            shards: (0..shards.max(1))
                .map(|_| CachePadded(AtomicU64::new(initial)))
                .collect(),
        }
    }

    fn read(&self, pidx: u32) -> CpNumber {
        self.shards[pidx as usize].0.load(Ordering::Acquire)
    }

    fn publish(&self, cp: CpNumber) {
        for shard in self.shards.iter() {
            shard.0.store(cp, Ordering::Release);
        }
    }
}

/// Totals at the end of the previous consistency point (guarded by the CP
/// lock), so each CP reports the delta over its own interval — plus the
/// durable-metadata cursor (superblock generation and the manifest log),
/// which the CP lock conveniently serializes too.
#[derive(Debug, Default)]
struct CpInterval {
    block_ops: u64,
    pruned: u64,
    /// Wall-clock sum of the callback histogram (not the cumulative
    /// [`BacklogStats::callback_ns`], which adds a recovered manifest's).
    callback_ns: u64,
    io: IoStatsSnapshot,
    /// Generation of the most recent durable superblock (0 = none yet).
    sb_generation: u64,
    /// The manifest log the durable superblock points at, deleted once a CP
    /// that started a new log has flipped.
    log_file: Option<FileId>,
    /// The tail of that log, when the next CP may append a delta frame to
    /// it. `None` — before the first CP, after [`open`](BacklogEngine::open)
    /// and after any CP that failed — makes the next CP start a new log
    /// with a base frame.
    log_tail: Option<LogTail>,
    /// The shape of the durable log, for
    /// [`manifest_log`](BacklogEngine::manifest_log).
    log_stats: ManifestLogStats,
}

/// The engine's cumulative atomic counters. `block_ops` is derived
/// (`refs_added + refs_removed`), so a callback bumps at most two counters.
/// The three `*_ns` totals of [`BacklogStats`] are not counted here at all:
/// they are the sums of the [`EngineObs`] histograms that time the same
/// scopes, on top of what a recovered manifest carried over.
#[derive(Debug, Default)]
struct Counters {
    refs_added: AtomicU64,
    refs_removed: AtomicU64,
    pruned_adds: AtomicU64,
    pruned_removes: AtomicU64,
    consistency_points: AtomicU64,
    queries: AtomicU64,
    maintenance_runs: AtomicU64,
    /// `callback_ns` / `cp_flush_ns` / `maintenance_ns` as of the durable
    /// CP this engine was opened from (zero for a created engine).
    recovered_callback_ns: u64,
    recovered_cp_flush_ns: u64,
    recovered_maintenance_ns: u64,
}

impl Counters {
    /// Reinstates the counters a CP manifest recorded (crash recovery).
    fn from_stats(stats: &BacklogStats) -> Self {
        Counters {
            refs_added: AtomicU64::new(stats.refs_added),
            refs_removed: AtomicU64::new(stats.refs_removed),
            pruned_adds: AtomicU64::new(stats.pruned_adds),
            pruned_removes: AtomicU64::new(stats.pruned_removes),
            consistency_points: AtomicU64::new(stats.consistency_points),
            queries: AtomicU64::new(stats.queries),
            maintenance_runs: AtomicU64::new(stats.maintenance_runs),
            recovered_callback_ns: stats.callback_ns,
            recovered_cp_flush_ns: stats.cp_flush_ns,
            recovered_maintenance_ns: stats.maintenance_ns,
        }
    }
}

/// Reserves the on-device journal ring: one contiguous extent in a virtual
/// file that is never appended to — the ring writes raw pages straight
/// through the device inside the reservation, and the file registration
/// only keeps those pages out of the allocator.
fn reserve_journal_ring(files: &Arc<FileStore>, config: &BacklogConfig) -> Result<JournalRing> {
    let extent = files.reserve_extent(config.journal_ring_pages.max(1))?;
    Ok(JournalRing::new(
        files.device().clone(),
        extent.file(),
        extent.start(),
        extent.pages(),
        config.journal_group_size,
    ))
}

/// The `From`, `To` and `Combined` table configurations of an engine.
fn table_configs(config: &BacklogConfig) -> [TableConfig; 3] {
    ["From", "To", "Combined"]
        .map(|name| TableConfig::named(name).with_partitioning(config.partitioning))
}

impl BacklogEngine {
    /// Creates an engine whose tables live in `files`.
    pub fn new(files: Arc<FileStore>, config: BacklogConfig) -> Self {
        let [from, to, combined] = table_configs(&config);
        let from_table = LsmTable::new(files.clone(), from);
        let to_table = LsmTable::new(files.clone(), to);
        let combined_table = LsmTable::new(files.clone(), combined);
        let cp_cache = CpCache::new(config.partitioning.partition_count(), 1);
        let obs = EngineObs::new(config.track_timing);
        files
            .device()
            .stats()
            .attach_obs(obs.recorder().clone(), obs.clock());
        BacklogEngine {
            files,
            config,
            from_table,
            to_table,
            combined_table,
            lineage: RwLock::new(LineageTable::new()),
            cp_lock: Mutex::new(CpInterval::default()),
            relocate_lock: Mutex::new(()),
            counters: Counters::default(),
            durable: false,
            journal: None,
            recovered_journal: Mutex::new(None),
            cp_cache,
            obs,
        }
    }

    /// Creates an engine backed by a fresh in-memory simulated disk with the
    /// default latency model. Convenient for examples and tests.
    pub fn new_simulated(config: BacklogConfig) -> Self {
        let disk = SimDisk::new_shared(DeviceConfig::default());
        let files = Arc::new(FileStore::new(disk));
        Self::new(files, config)
    }

    /// Creates a *durable* engine on an empty device: pages 0–1 are reserved
    /// for the ping-pong superblock, the file store defers page frees until
    /// each superblock flip (the write-anywhere reuse rule), and every
    /// consistency point additionally writes a manifest-log frame and flips
    /// the superblock — so [`open`](Self::open) can rebuild the engine from
    /// the raw device after a crash. An initial base frame describing the
    /// empty database is written immediately: a crash before the first real
    /// CP recovers to an empty database rather than an unopenable device.
    ///
    /// # Errors
    ///
    /// Propagates device errors from writing the initial frame.
    pub fn create_durable(device: Arc<dyn Device>, config: BacklogConfig) -> Result<Self> {
        let files = Arc::new(FileStore::with_base_page(device, FIRST_DATA_PAGE));
        files.set_deferred_frees(true);
        let mut engine = Self::new(files, config);
        engine.durable = true;
        if engine.config.journaling {
            // The journal lives on the device, in a reserved single-extent
            // ring whose location every superblock records — recovery needs
            // no help from the host.
            let ring = reserve_journal_ring(&engine.files, &engine.config)?;
            engine.obs.attach_ring(&ring);
            engine.journal = Some(ring);
        }
        let lineage = engine.lineage.read().clone();
        let stats = engine.stats();
        {
            let mut interval = engine.cp_lock.lock();
            engine.write_durable_cp(
                &mut interval,
                &lineage,
                &stats,
                BuiltRuns {
                    frontier: &vec![0; engine.config.partitioning.partition_count() as usize],
                    ..BuiltRuns::NONE
                },
                Vec::new(),
                &mut CpPhaseNs::default(),
            )?;
        }
        Ok(engine)
    }

    /// Rebuilds a fully functional engine from raw device contents: reads
    /// the latest valid superblock, reads the valid prefix of the manifest
    /// log it points at (`ceil(len / page)` pages of one extent, at full
    /// queue depth), decodes the base frame and REDO-applies the delta
    /// frames in order, restores the file store's extent map, reopens every
    /// table's runs and deletion vectors, and reinstates the lineage table
    /// and cumulative counters — the state as of the last durable
    /// consistency point. The log is not appended to afterwards: the first
    /// CP of the reopened engine starts a new log with a base frame and
    /// retires this one. Updates that post-date that CP lived only in the
    /// in-memory write stores; a journaling engine recovers the acknowledged
    /// ones from its on-device ring: `open` scans the ring's live groups
    /// (and reads no run page), and
    /// [`replay_recovered_journal`](Self::replay_recovered_journal) applies
    /// the entries beyond the frontier the log recorded.
    ///
    /// # Errors
    ///
    /// Returns [`BacklogError::Recovery`] if the device holds no valid
    /// superblock, the superblock's record of the log or the journal ring
    /// does not fit the device, any frame fails validation, or `config`
    /// disagrees with the recorded partitioning — device read errors
    /// included.
    pub fn open(device: Arc<dyn Device>, config: BacklogConfig) -> Result<Self> {
        // Every failure below — including a device read dying mid-open —
        // surfaces as `Recovery` naming the stage that failed. Recovery is
        // read-only up to this function's last line, so an aborted open
        // leaves the durable CP untouched and can simply be retried.
        fn stage(what: &str, err: BacklogError) -> BacklogError {
            match err {
                BacklogError::Recovery { detail } => BacklogError::Recovery {
                    detail: format!("{what}: {detail}"),
                },
                other => BacklogError::Recovery {
                    detail: format!("{what}: {other}"),
                },
            }
        }
        let obs = EngineObs::new(config.track_timing);
        let recorder = obs.recorder().clone();
        let _open_span = recorder.span(spans::OPEN, 0);
        let sb = Superblock::read_latest(&*device)
            .map_err(|e| stage("superblock read", e.into()))?
            .ok_or_else(|| BacklogError::Recovery {
                detail: "no valid superblock on the device".into(),
            })?;
        let (log_extent, log) =
            manifest::read_log(&*device, &sb).map_err(|e| stage("manifest log read", e))?;
        let m = manifest::decode_log(&log, sb.generation, config.partitioning)
            .map_err(|e| stage("manifest log decode", e))?;
        // The log's whole extent is re-registered as a live file so its
        // pages stay unallocatable until the next CP's flip retires it.
        let mut files_list = m.files;
        files_list.push(log_extent.persisted(sb.manifest_len_bytes));
        // Likewise the journal ring (the log only lists files that run
        // metadata references): re-registering its extent keeps the ring's
        // pages out of the allocator forever. The superblock's record of it
        // is as untrusted as its record of the log.
        if sb.journal_pages > 0 {
            let ring = ReservedExtent::from_raw(
                FileId(sb.journal_file),
                sb.journal_start,
                sb.journal_pages,
                device.capacity_pages(),
            )
            .map_err(|e| stage("journal ring extent", e.into()))?;
            files_list.push(ring.persisted(ring.pages().saturating_mul(PAGE_SIZE as u64)));
        }
        let files = Arc::new(
            FileStore::restore(
                device,
                FIRST_DATA_PAGE,
                sb.next_file,
                sb.next_page,
                files_list,
            )
            .map_err(|e| stage("file store restore", e.into()))?,
        );
        let [from, to, combined] = table_configs(&config);
        let from_table = LsmTable::open_from_manifest(files.clone(), from, m.tables.from)
            .map_err(|e| stage("From table reopen", e.into()))?;
        let to_table = LsmTable::open_from_manifest(files.clone(), to, m.tables.to)
            .map_err(|e| stage("To table reopen", e.into()))?;
        let combined_table =
            LsmTable::open_from_manifest(files.clone(), combined, m.tables.combined)
                .map_err(|e| stage("Combined table reopen", e.into()))?;
        // A ring recorded in the superblock is authoritative: its groups are
        // scanned from the recorded tail and stashed for
        // `replay_recovered_journal`, and the engine keeps journaling into
        // it whatever `config.journaling` says (the device demands its
        // maintenance). A journaling engine opened on a pre-ring device
        // reserves a ring now; it becomes crash-findable at the next CP.
        let (journal, recovered) = if sb.journal_pages > 0 {
            let mut scan_span = recorder.span(spans::RING_SCAN, sb.journal_tail_seq);
            let rec = JournalRing::recover(
                files.device().clone(),
                FileId(sb.journal_file),
                sb.journal_start,
                sb.journal_pages,
                config.journal_group_size,
                (sb.journal_tail_page, sb.journal_tail_seq),
                m.journal_frontier.iter().copied().max().unwrap_or(0),
            )
            .map_err(|e| stage("journal ring scan", e))?;
            scan_span.set_b(rec.entries.len() as u64);
            drop(scan_span);
            (
                Some(rec.ring),
                Some(RecoveredJournal {
                    entries: rec.entries,
                    frontier: m.journal_frontier,
                    last_lsn: rec.last_lsn,
                }),
            )
        } else if config.journaling {
            (Some(reserve_journal_ring(&files, &config)?), None)
        } else {
            (None, None)
        };
        let cp_cache = CpCache::new(
            config.partitioning.partition_count(),
            m.lineage.current_cp(),
        );
        if let Some(ring) = &journal {
            obs.attach_ring(ring);
        }
        files
            .device()
            .stats()
            .attach_obs(obs.recorder().clone(), obs.clock());
        let interval = CpInterval {
            block_ops: m.stats.block_ops,
            pruned: m.stats.pruned_adds + m.stats.pruned_removes,
            // This process's callback histogram starts empty.
            callback_ns: 0,
            io: files.device().stats().snapshot(),
            sb_generation: sb.generation,
            log_file: Some(log_extent.file()),
            log_tail: None,
            log_stats: ManifestLogStats {
                base_pages: m.base_pages,
                delta_frames: m.delta_frames,
                delta_pages: m.delta_pages,
                reserved_pages: log_extent.pages(),
                last_attempt: None,
            },
        };
        obs.set_manifest_log_pages(interval.log_stats.log_pages());
        Ok(BacklogEngine {
            counters: Counters::from_stats(&m.stats),
            files,
            config,
            from_table,
            to_table,
            combined_table,
            lineage: RwLock::new(m.lineage),
            cp_lock: Mutex::new(interval),
            relocate_lock: Mutex::new(()),
            durable: true,
            journal,
            recovered_journal: Mutex::new(recovered),
            cp_cache,
            obs,
        })
    }

    /// Replays the journal entries a ring scan recovered during
    /// [`open`](Self::open), reconstructing the write-store contents the
    /// crash destroyed, needing no bytes from the host: exactly the entries
    /// beyond the frontier the durable CP recorded are applied, in order
    /// (see [`replay_journal`](crate::replay_journal)); no table is read and
    /// nothing is written. Call it before issuing new callbacks; a
    /// consistency point taken first replays on the host's behalf, so that
    /// its cut covers what it truncates. Idempotent — a second call finds
    /// nothing to do.
    ///
    /// # Errors
    ///
    /// None today: replay is a filter over entries already in memory.
    pub fn replay_recovered_journal(&self) -> Result<JournalRecovery> {
        let Some(stash) = self.recovered_journal.lock().take() else {
            return Ok(JournalRecovery::default());
        };
        let mut span = self
            .obs
            .recorder()
            .span(spans::JOURNAL_REPLAY, stash.entries.len() as u64);
        let applied = crate::journal::replay(self, &stash.entries, &stash.frontier);
        span.set_b(applied as u64);
        Ok(JournalRecovery {
            recovered: stash.entries.len(),
            applied,
            last_lsn: stash.last_lsn,
        })
    }

    /// The configuration this engine was created with.
    pub fn config(&self) -> &BacklogConfig {
        &self.config
    }

    /// The file store holding the back-reference database.
    pub fn files(&self) -> &Arc<FileStore> {
        &self.files
    }

    /// The underlying device (for I/O accounting in experiments).
    pub fn device(&self) -> &Arc<dyn Device> {
        self.files.device()
    }

    /// A point-in-time copy of the lineage table (lines, snapshots, clones,
    /// zombies). A *copy* rather than a guard: holding a read guard across
    /// any of the engine's `&self` mutation methods (which take the lineage
    /// write lock) would self-deadlock, and the lineage is small.
    pub fn lineage_snapshot(&self) -> LineageTable {
        self.lineage.read().clone()
    }

    /// Cumulative engine statistics (a point-in-time copy of the atomic
    /// counters that concurrent `&self` paths bump; with callbacks in flight
    /// on other threads, related counters may be mutually off by the
    /// operations mid-update).
    pub fn stats(&self) -> BacklogStats {
        let c = &self.counters;
        let refs_added = c.refs_added.load(Ordering::Relaxed);
        let refs_removed = c.refs_removed.load(Ordering::Relaxed);
        BacklogStats {
            block_ops: refs_added + refs_removed,
            refs_added,
            refs_removed,
            pruned_adds: c.pruned_adds.load(Ordering::Relaxed),
            pruned_removes: c.pruned_removes.load(Ordering::Relaxed),
            consistency_points: c.consistency_points.load(Ordering::Relaxed),
            maintenance_runs: c.maintenance_runs.load(Ordering::Relaxed),
            callback_ns: c.recovered_callback_ns + self.obs.wall_ns(self.obs.callback_ns.sum()),
            cp_flush_ns: c.recovered_cp_flush_ns + self.obs.wall_ns(self.obs.cp_flush_ns.sum()),
            maintenance_ns: c.recovered_maintenance_ns
                + self.obs.wall_ns(self.obs.maintenance_ns.sum()),
            queries: c.queries.load(Ordering::Relaxed),
        }
    }

    /// The engine's observability bundle: the flight recorder, its clock
    /// and the latency histograms behind [`metrics`](Self::metrics).
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// Assembles the unified metrics registry: every engine counter,
    /// device counter and journal-ring gauge plus the latency histogram
    /// family, as one named, typed [`MetricSet`] ready for the text or
    /// JSON exporter.
    pub fn metrics(&self) -> MetricSet {
        let journal = self.journal_ring_stats();
        let mut set = self
            .obs
            .registry(&self.stats(), self.device().stats(), journal.as_ref());
        let (from, to, combined) = self.table_stats();
        set.gauge(
            "backlog_run_index_bytes",
            (from.index_bytes + to.index_bytes + combined.index_bytes) as f64,
        );
        set
    }

    /// The current global consistency-point number.
    pub fn current_cp(&self) -> CpNumber {
        self.lineage.read().current_cp()
    }

    fn io_snapshot(&self) -> IoStatsSnapshot {
        self.device().stats().snapshot()
    }

    // ------------------------------------------------------------------
    // Callbacks from the file system
    // ------------------------------------------------------------------

    /// Records that `owner` now references physical block `block`.
    ///
    /// Called on every block allocation, reallocation, or new deduplicated
    /// reference, from any number of threads. The update is buffered in the
    /// touched partition's write-store shard; no disk I/O is performed until
    /// the next [`consistency_point`](Self::consistency_point).
    pub fn add_reference(&self, block: BlockNo, owner: Owner) {
        self.callback(RefOp::Add { block, owner });
    }

    /// Records that `owner` no longer references physical block `block`.
    ///
    /// Called on every block deallocation or copy-on-write replacement. Like
    /// [`add_reference`](Self::add_reference), the update is buffered until
    /// the next consistency point.
    pub fn remove_reference(&self, block: BlockNo, owner: Owner) {
        self.callback(RefOp::Remove { block, owner });
    }

    /// One scalar callback: a one-operation group, timed.
    fn callback(&self, op: RefOp) {
        let t0 = self.obs.now();
        let pidx = self.config.partitioning.partition_of(op.block());
        let (pruned, want_commit) = self.apply_group(pidx, &[op], true);
        let is_add = matches!(op, RefOp::Add { .. });
        self.count_ops(u64::from(is_add), u64::from(!is_add), pruned);
        if want_commit {
            self.auto_commit();
        }
        self.obs
            .callback_ns
            .record(self.obs.now().saturating_sub(t0));
    }

    /// Applies `ops`, all of partition `pidx`, in order, inside one critical
    /// section — the partition's `From` and `To` shard guards, in that
    /// order: the CP stamp is read, the operations are journaled (when
    /// `journal` is set and the engine has a ring) and the write stores are
    /// mutated under the same two guards a consistency point holds while it
    /// cuts the partition (see [`crate::journal`]). Returns the pairs
    /// proactively pruned and whether the journal's pending segment reached
    /// the group-commit threshold.
    fn apply_group(&self, pidx: u32, ops: &[RefOp], journal: bool) -> (u64, bool) {
        let mut from = self.from_table.ws_shard(pidx);
        let mut to = self.to_table.ws_shard(pidx);
        // The touched partition's replica of the CP clock: callbacks take
        // no lineage lock at all.
        let cp = self.cp_cache.read(pidx);
        let mut want_commit = false;
        if let Some(ring) = self.journal.as_ref().filter(|_| journal) {
            for op in ops {
                let entry = match *op {
                    RefOp::Add { block, owner } => JournalEntry::Add { block, owner, cp },
                    RefOp::Remove { block, owner } => JournalEntry::Remove { block, owner, cp },
                };
                want_commit |= ring.append(entry).1;
            }
        }
        let mut pruned = 0u64;
        for op in ops {
            // Proactive pruning: a reference added and removed (or removed
            // and re-added) within one CP interval still has its other half
            // in the write store; removing that splices the lifetimes back
            // together and neither record ever needs to reach disk.
            let spliced = match *op {
                RefOp::Add { block, owner } => {
                    let identity = RefIdentity::new(block, owner);
                    let spliced = to.remove(&ToRecord::new(identity, cp));
                    if !spliced {
                        from.insert(FromRecord::new(identity, cp));
                    }
                    spliced
                }
                RefOp::Remove { block, owner } => {
                    let identity = RefIdentity::new(block, owner);
                    let spliced = from.remove(&FromRecord::new(identity, cp));
                    if !spliced {
                        to.insert(ToRecord::new(identity, cp));
                    }
                    spliced
                }
            };
            pruned += u64::from(spliced);
        }
        (pruned, want_commit)
    }

    fn count_ops(&self, adds: u64, removes: u64, pruned: u64) {
        let c = &self.counters;
        if adds != 0 {
            c.refs_added.fetch_add(adds, Ordering::Relaxed);
        }
        if removes != 0 {
            c.refs_removed.fetch_add(removes, Ordering::Relaxed);
        }
        if pruned != 0 {
            c.pruned_adds.fetch_add(pruned, Ordering::Relaxed);
            c.pruned_removes.fetch_add(pruned, Ordering::Relaxed);
        }
    }

    /// Applies a batch of reference operations, amortizing the per-partition
    /// shard-lock acquisitions and counter updates over the whole batch: the
    /// operations are grouped by partition (preserving their relative order,
    /// so add/remove pairs of one identity still prune each other) and each
    /// group is applied under a single acquisition of the `From` and `To`
    /// shard locks.
    ///
    /// Semantically identical to looping
    /// [`add_reference`](Self::add_reference) /
    /// [`remove_reference`](Self::remove_reference); multi-threaded hosts
    /// batch their callbacks to cut the per-operation locking overhead.
    pub fn apply(&self, batch: &WriteBatch) {
        self.apply_ops(batch.ops(), true);
    }

    /// [`apply`](Self::apply) over a slice. Journal replay passes `journal =
    /// false`: its operations are already in the ring under their original
    /// LSNs and must not be logged a second time.
    pub(crate) fn apply_ops(&self, ops: &[RefOp], journal: bool) {
        if ops.is_empty() {
            return;
        }
        let t0 = self.obs.now();
        let parts = self.config.partitioning;
        let (mut pruned, mut want_commit) = (0u64, false);
        if parts.partition_count() == 1 {
            (pruned, want_commit) = self.apply_group(0, ops, journal);
        } else {
            let mut buckets: Vec<Vec<RefOp>> = (0..parts.partition_count() as usize)
                .map(|_| Vec::new())
                .collect();
            for op in ops {
                buckets[parts.partition_of(op.block()) as usize].push(*op);
            }
            for (pidx, group) in buckets.iter().enumerate() {
                if !group.is_empty() {
                    let (p, w) = self.apply_group(pidx as u32, group, journal);
                    pruned += p;
                    want_commit |= w;
                }
            }
        }
        let adds = ops
            .iter()
            .filter(|op| matches!(op, RefOp::Add { .. }))
            .count() as u64;
        self.count_ops(adds, ops.len() as u64 - adds, pruned);
        if want_commit {
            self.auto_commit();
        }
        // One histogram sample and one trace mark per batch — the whole
        // point of `apply` is amortizing per-operation overhead, and that
        // covers the observability overhead too (a = operations applied).
        self.obs
            .callback_ns
            .record(self.obs.now().saturating_sub(t0));
        self.obs
            .recorder()
            .mark(spans::CALLBACK, ops.len() as u64, pruned);
        if journal && self.journal.is_some() {
            self.obs
                .recorder()
                .mark(spans::JOURNAL_APPEND, ops.len() as u64, 0);
        }
    }

    /// Opportunistic group commit once the pending segment reaches
    /// [`BacklogConfig::journal_group_size`]. Errors are swallowed — the
    /// entries stay pending and durability is only ever *claimed* by
    /// [`journal_sync`](Self::journal_sync) or a consistency point, both of
    /// which surface failures.
    fn auto_commit(&self) {
        if let Some(ring) = &self.journal {
            let _ = ring.sync();
        }
    }

    /// Takes a consistency point: writes the buffered `From`/`To` updates to
    /// new Level-0 read-store runs, advances the global CP number, and
    /// returns per-CP overhead accounting. The runs are built on the calling
    /// thread; their page writes, and a durable engine's manifest frame,
    /// share the device queue at full depth and are waited on once.
    ///
    /// Consistency points are serialized against each other (a second caller
    /// blocks until the first completes), but reference callbacks keep
    /// running concurrently: each partition is *cut* — its `From` and `To`
    /// shards staged together under both shard guards — and then built and
    /// swapped, so a racing callback lands whole in this CP's runs or stays
    /// whole in the write stores for the next — never lost, never
    /// duplicated. A callback racing the CP boundary is attributed to
    /// whichever CP interval it lands in.
    ///
    /// # Errors
    ///
    /// Propagates device errors from writing the run files. On error the CP
    /// number does not advance and unflushed records return to the write
    /// stores; the CP can be retried once the device recovers.
    pub fn consistency_point(&self) -> Result<CpReport> {
        let mut interval = self.cp_lock.lock();
        interval.log_stats.last_attempt = None;
        // A host that reopened and went straight to a CP: replay first, or
        // this CP's cut would truncate recovered entries it does not cover.
        self.replay_recovered_journal()?;
        let io_before = self.io_snapshot();
        let cp_t0 = self.obs.now();
        let cp = self.lineage.read().current_cp();
        let mut cp_span = self.obs.recorder().span(spans::CP_TOTAL, cp);
        let mut phases = CpPhaseNs::default();

        // Prepare-then-commit: each table's flush is *built* here (runs on
        // the device, records staged but still query-visible in the write
        // stores) and *installed* only after the durable manifest and
        // superblock flip succeed. An error at any `?` below drops the
        // prepared handles, which aborts: built run files are deleted and
        // every staged record returns to its write store. This keeps a
        // failed CP truly side-effect-free — in particular, a record
        // flushed by a half-finished CP can no longer strand in a run where
        // a same-interval remove cannot prune it (the From/To pair would
        // later be read back as a live reference, not an empty lifetime).
        //
        // The three builds are *async*: each submits all of its run-page
        // writes without waiting, so the device services every table's flush
        // (and, for a durable engine, the manifest appends) through one
        // shared queue at full depth. All completions drain through a single
        // wait before the one pre-flip barrier — not one wait-all per table.
        let prep_t0 = self.obs.now();
        let prep_span = self.obs.recorder().span(spans::CP_PREPARE, cp);
        // The cut: each partition's `From` and `To` shards are staged under
        // both shard guards at once (the callbacks' critical section), and
        // the journal's newest LSN is read before they are released — so
        // `frontier[p]` splits partition `p`'s entries exactly.
        let mut from_prep = self.from_table.begin_flush();
        let mut to_prep = self.to_table.begin_flush();
        let frontier: Vec<u64> = (0..self.config.partitioning.partition_count())
            .map(|pidx| {
                let mut from = self.from_table.ws_shard(pidx);
                let mut to = self.to_table.ws_shard(pidx);
                from_prep.stage(pidx, &mut from);
                to_prep.stage(pidx, &mut to);
                self.journal.as_ref().map_or(0, JournalRing::appended_lsn)
            })
            .collect();
        from_prep.build()?;
        to_prep.build()?;
        let mut combined_prep = self.combined_table.prepare_flush()?;
        let mut pending: Vec<Completion> = from_prep.take_pending_io();
        pending.extend(to_prep.take_pending_io());
        pending.extend(combined_prep.take_pending_io());
        drop(prep_span);
        phases.prepare = self.obs.now().saturating_sub(prep_t0);

        // Durability: write the manifest-log frame and flip the superblock
        // before declaring the CP. The frame records the *advanced* CP clock
        // (a reopened engine must stamp new records into the next interval),
        // but the in-memory lineage advances only after the flip succeeds —
        // on error the engine state is exactly "CP not taken", as the
        // method's contract promises, and the previous durable CP is intact
        // on disk.
        let mut manifest_write = None;
        if self.durable {
            let mut lineage_next = self.lineage.read().clone();
            lineage_next.advance_cp();
            // The frame likewise records the post-CP counter state: this CP
            // counts itself (its counter bump happens after the flip).
            let mut stats_next = self.stats();
            stats_next.consistency_points += 1;
            manifest_write = Some(self.write_durable_cp(
                &mut interval,
                &lineage_next,
                &stats_next,
                BuiltRuns {
                    from: from_prep.built_runs(),
                    to: to_prep.built_runs(),
                    combined: combined_prep.built_runs(),
                    frontier: &frontier,
                },
                pending,
                &mut phases,
            )?);
        } else {
            // Non-durable: no manifest to overlap with, but the flush I/O
            // still has to land before the runs become query-visible.
            let flush_t0 = self.obs.now();
            let flush_span = self.obs.recorder().span(spans::CP_FLUSH, cp);
            for completion in pending {
                completion.wait()?;
            }
            drop(flush_span);
            phases.flush = self.obs.now().saturating_sub(flush_t0);
        }
        let from_flush = from_prep.commit();
        let to_flush = to_prep.commit();
        let combined_flush = combined_prep.commit();

        let io_after = self.io_snapshot();
        let io = IoDelta::between(&io_before, &io_after);
        let cp_elapsed = self.obs.now().saturating_sub(cp_t0);

        // Per-interval accounting is the delta of the cumulative counters
        // against the totals recorded at the previous CP (guarded by the CP
        // lock), so concurrent callbacks are never double-counted.
        let ops_now = self.counters.refs_added.load(Ordering::Relaxed)
            + self.counters.refs_removed.load(Ordering::Relaxed);
        let pruned_now = self.counters.pruned_adds.load(Ordering::Relaxed)
            + self.counters.pruned_removes.load(Ordering::Relaxed);
        let callback_ns_now = self.obs.wall_ns(self.obs.callback_ns.sum());
        let block_ops = ops_now.saturating_sub(interval.block_ops);
        let pruned = pruned_now.saturating_sub(interval.pruned);

        let report = CpReport {
            cp,
            block_ops,
            persistent_ops: block_ops.saturating_sub(pruned),
            records_flushed: from_flush.records_flushed
                + to_flush.records_flushed
                + combined_flush.records_flushed,
            runs_created: from_flush.runs_created
                + to_flush.runs_created
                + combined_flush.runs_created,
            pages_written: io.writes,
            pages_read: io.reads,
            lock_contentions: io_after
                .lock_contentions
                .saturating_sub(interval.io.lock_contentions),
            callback_ns: callback_ns_now.saturating_sub(interval.callback_ns),
            flush_ns: self.obs.wall_ns(cp_elapsed),
            phases,
            manifest_pages: manifest_write.map_or(0, |(_, pages)| pages),
            manifest_kind: manifest_write.map(|(kind, _)| kind),
        };
        self.obs.record_cp(cp_elapsed, &phases);
        cp_span.set_b(report.pages_written);

        interval.block_ops = ops_now;
        interval.pruned = pruned_now;
        interval.callback_ns = callback_ns_now;
        interval.io = io_after;

        {
            let mut lineage = self.lineage.write();
            let next = lineage.advance_cp();
            self.cp_cache.publish(next);
        }
        self.counters
            .consistency_points
            .fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    /// Writes one durable consistency point: one frame of the manifest log
    /// (see [`crate::manifest`]) followed by the superblock flip, then
    /// retires what the flip made garbage and commits the deferred page
    /// frees. Returns the kind of frame written and its size in pages.
    ///
    /// **Which frame.** If the previous durable CP left a log tail and a
    /// delta against it fits in the rest of the log's reservation, the
    /// frame is that *delta* — the runs added and removed and the deletion
    /// vectors replaced since then, found in time proportional to the
    /// partitions that changed — appended at the first page beyond the
    /// valid prefix the previous superblock recorded. Otherwise (first CP,
    /// first CP after [`open`](Self::open), the CP after a failed one, or a
    /// *rollover* because the delta no longer fits) it is a *base* frame
    /// describing everything, written at the start of a new reservation of
    /// twice its own size. Either way nothing the previous superblock can
    /// reach is overwritten.
    ///
    /// **Ordering** is everything here:
    ///
    /// 1. every page this CP submitted — the three tables' run writes handed
    ///    in as `pending_io` *and* the frame pages submitted here — is
    ///    waited on through **one** completion drain, then made stable by
    ///    **one** pre-flip barrier (*the superblock never covers a frame or
    ///    run that is not fully on disk*);
    /// 2. the superblock flip is a single page write into the slot the
    ///    previous generation does **not** occupy, recording the log's
    ///    extent and its new valid prefix. A crash at any write of 1–2
    ///    leaves the previous generation's superblock, the prefix it
    ///    recorded, and every run that prefix names — whose pages deferred
    ///    frees have kept unallocatable — fully intact; the dead CP's frame
    ///    lies beyond that prefix and is never read;
    /// 3. only after a post-flip barrier do the old log (if this CP started
    ///    a new one), the runs only the previous log view still pinned, the
    ///    interval's deferred frees and the journal ring's truncated groups
    ///    become reusable space.
    ///
    /// `built.frontier` is the cut those runs were built from: per
    /// partition, the newest journal LSN they cover. The frame records it —
    /// the replay filter, atomic with the flip — and its minimum moves the
    /// ring's tail.
    ///
    /// **Failure.** The in-memory log tail is consumed on entry and
    /// reinstated only on success, so after an error — before the flip, or
    /// the post-flip barrier failing, which leaves the flip's durability
    /// unknown — the next CP writes a base frame into a new reservation. A
    /// new reservation this CP made is deleted on a pre-flip error; the log
    /// the durable superblock points at stays registered (and its pages
    /// unallocatable) until a later CP's flip retires it. The CP can simply
    /// be retried.
    ///
    /// `built` are this CP's prepared-but-uninstalled Level-0 runs (see
    /// [`lsm::PreparedFlush`]). The frame lists them after each partition's
    /// installed runs: it must describe the table state *after* the flip
    /// commits the flush, and the caller holds the prepared handles across
    /// this write so the run files cannot be deleted from under the frame.
    ///
    /// `pending_io` are the in-flight run-page writes those prepared flushes
    /// submitted ([`lsm::PreparedFlush::take_pending_io`]); the frame's
    /// pages join the same queue, and everything is waited on together. An
    /// error on any completion aborts exactly like a submit error: nothing
    /// flips, and the caller's drop of the prepared handles restores the
    /// tables.
    fn write_durable_cp(
        &self,
        interval: &mut CpInterval,
        lineage: &LineageTable,
        stats: &BacklogStats,
        built: BuiltRuns<'_>,
        mut pending_io: Vec<Completion>,
        phases: &mut CpPhaseNs,
    ) -> Result<(ManifestKind, u64)> {
        let cp = lineage.current_cp();
        let flush_t0 = self.obs.now();
        let flush_span = self.obs.recorder().span(spans::CP_FLUSH, cp);
        let tail = interval.log_tail.take();
        let generation = interval.sb_generation + 1;
        // One snapshot per partition per table — two `Arc` clones each, no
        // run is touched. They move into the new log view below and stay
        // there past the flip: their `Arc`s pin the run files the frame
        // names against a concurrent rebuild commit deleting them.
        let partitions = self.config.partitioning.partition_count();
        let mut snaps = TableSnapshots {
            from: Vec::with_capacity(partitions as usize),
            to: Vec::with_capacity(partitions as usize),
            combined: Vec::with_capacity(partitions as usize),
        };
        for p in 0..partitions {
            // Under the three tables' read guards of `p` together, so the
            // per-table states are mutually consistent (a rebuild commit
            // takes the three write guards across its three swaps).
            let from = self.from_table.read_partition(p);
            let to = self.to_table.read_partition(p);
            let combined = self.combined_table.read_partition(p);
            snaps.from.push(from.snapshot());
            snaps.to.push(to.snapshot());
            snaps.combined.push(combined.snapshot());
        }
        let encode = |prev: Option<&manifest::LogView>| {
            manifest::encode_frame(
                prev,
                generation,
                self.config.partitioning,
                stats,
                lineage,
                &snaps,
                built,
            )
        };
        let delta = tail
            .as_ref()
            .map(|t| (t, encode(Some(&t.view))))
            .filter(|(t, (frame, _))| t.fits(frame.len()));
        let (kind, frame, view, extent, first_page) = match delta {
            Some((t, (frame, view))) => (ManifestKind::Delta, frame, view, t.extent, t.next_page()),
            None => {
                let (frame, view) = encode(None);
                // ONE contiguous extent (a single free extent or fresh bump
                // pages), so the log's extent list always fits in the
                // superblock page no matter how fragmented the free list is.
                let extent = self
                    .files
                    .reserve_extent(manifest::reservation_pages(frame.len()))?;
                (ManifestKind::Base, frame, view, extent, 0)
            }
        };
        let rollover = kind == ManifestKind::Base && tail.is_some();
        interval.log_stats.last_attempt = Some(kind);
        // A pre-flip failure gives a new reservation back; a delta's pages
        // belong to the live log and simply stay beyond its valid prefix.
        let abandon = |e: BacklogError| {
            if kind == ManifestKind::Base {
                let _ = self.files.delete(extent.file());
            }
            e
        };
        // Frame pages join the same in-flight queue as the run writes: they
        // are submitted back to back and overlap with whatever flush I/O the
        // device is still servicing.
        for (i, chunk) in frame.chunks(PAGE_SIZE).enumerate() {
            match extent.submit_write(&**self.device(), first_page + i as u64, chunk) {
                Ok(completion) => pending_io.push(completion),
                Err(e) => {
                    drop(pending_io); // retire in-flight accounting unwaited
                    return Err(abandon(e.into()));
                }
            }
        }
        // The single wait-all: every run page and frame page this CP
        // submitted resolves here, in one drain, before the one barrier
        // below. An error abandons the rest (their accounting retires).
        for completion in pending_io {
            if let Err(e) = completion.wait() {
                return Err(abandon(e.into()));
            }
        }
        drop(flush_span);
        phases.flush = self.obs.now().saturating_sub(flush_t0);
        // The cursor is sampled after the log's reservation, so every file
        // id and extent the log (or the superblock) references lies below
        // it — the restore-time free-space computation depends on this.
        let (next_file, next_page) = self.files.alloc_cursor();
        // The journal ring's truncation target: every entry at or below the
        // lowest partition frontier is in the runs this flip covers, so the
        // tail moves to the first group holding a later one — the
        // superblock's tail is the truncation record, atomic with the flip.
        let journal_through = built.frontier.iter().copied().min().unwrap_or(0);
        let (journal_file, journal_start, journal_pages, journal_tail) = match &self.journal {
            Some(ring) => (
                ring.file_id().0,
                ring.start_page(),
                ring.ring_pages(),
                ring.prepare_truncate(journal_through),
            ),
            None => (0, 0, 0, (0, 0)),
        };
        let len_bytes = first_page * PAGE_SIZE as u64 + frame.len() as u64;
        let sb = Superblock {
            generation,
            manifest_file: extent.file().0,
            manifest_len_bytes: len_bytes,
            next_file,
            next_page,
            journal_file,
            journal_start,
            journal_pages,
            journal_tail_page: journal_tail.0,
            journal_tail_seq: journal_tail.1,
            manifest_extents: vec![(extent.start(), extent.pages())],
        };
        // THE pre-flip barrier: every page this CP wrote — all three tables'
        // run files and the frame pages, already drained above — must be
        // stable before the superblock can cover them, or a power cut could
        // persist the flip but lose (or tear) what it references. One
        // barrier covers everything because the drain above already proved
        // every write reached the device.
        let barrier_t0 = self.obs.now();
        let barrier_span = self.obs.recorder().span(spans::CP_BARRIER, cp);
        if let Err(e) = self.device().flush() {
            return Err(abandon(e.into()));
        }
        drop(barrier_span);
        phases.barrier = self.obs.now().saturating_sub(barrier_t0);
        let flip_t0 = self.obs.now();
        let flip_span = self.obs.recorder().span(spans::CP_FLIP, cp);
        if let Err(e) = sb.write_to(&**self.device()) {
            return Err(abandon(e.into()));
        }
        // Post-flip barrier: the flip itself must be stable before anything
        // the previous generation can reach (and this interval's deferred
        // frees) becomes reusable. On failure the flip's durability is
        // unknown, so nothing is retired or freed — both generations' data
        // stays pinned, which is safe whichever superblock survives; a
        // retried CP writes a base frame at a higher generation.
        self.device().flush().map_err(BacklogError::from)?;
        drop(flip_span);
        phases.flip = self.obs.now().saturating_sub(flip_t0);
        // The flip is durable: everything only the previous generation kept
        // pinned is now garbage.
        let retire_t0 = self.obs.now();
        let retire_span = self.obs.recorder().span(spans::CP_RETIRE, cp);
        interval.sb_generation = generation;
        if kind == ManifestKind::Base {
            if let Some(old) = interval.log_file.replace(extent.file()) {
                let _ = self.files.delete(old);
            }
        }
        let frame_pages = frame.len().div_ceil(PAGE_SIZE) as u64;
        let log = &mut interval.log_stats;
        match kind {
            ManifestKind::Delta => {
                log.delta_frames += 1;
                log.delta_pages += frame_pages;
            }
            ManifestKind::Base => {
                *log = ManifestLogStats {
                    base_pages: frame_pages,
                    reserved_pages: extent.pages(),
                    last_attempt: Some(kind),
                    ..Default::default()
                };
            }
        }
        self.obs
            .record_manifest_frame(kind, frame_pages, rollover, log.log_pages());
        // The previous view goes before the frees commit: its snapshots may
        // be the last holders of runs a rebuild retired since, whose pages
        // this flip made unreachable.
        drop(tail);
        interval.log_tail = Some(LogTail {
            extent,
            len_bytes,
            view,
        });
        self.files.commit_frees();
        // The flip carried the ring's truncation record; only now may the
        // in-memory tail advance past the dropped groups (an aborted CP
        // above leaves the journal exactly as it was).
        if let Some(ring) = &self.journal {
            ring.commit_truncate(journal_tail.1, journal_through);
        }
        drop(retire_span);
        phases.retire = self.obs.now().saturating_sub(retire_t0);
        Ok((kind, frame_pages))
    }

    /// The shape of the manifest log the newest durable superblock points
    /// at — base pages, delta frames and pages, reservation — and the kind
    /// of frame the latest CP attempt chose. All zero for non-durable
    /// engines.
    pub fn manifest_log(&self) -> ManifestLogStats {
        self.cp_lock.lock().log_stats
    }

    /// Whether this engine writes durable metadata at every consistency
    /// point (created via [`create_durable`](Self::create_durable) or
    /// [`open`](Self::open)).
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// The generation of the most recent durable superblock (0 before the
    /// first durable CP; always 0 for non-durable engines).
    pub fn superblock_generation(&self) -> u64 {
        self.cp_lock.lock().sb_generation
    }

    /// Group-commits every pending journal entry to the on-device ring and
    /// returns the durable LSN frontier — every entry whose LSN (as handed
    /// out by the callback's append) is at or below it will survive a power
    /// cut. Concurrent callers coalesce onto one flush barrier. Returns 0
    /// for engines without a ring (their durability unit is the CP).
    ///
    /// # Errors
    ///
    /// Propagates [`BacklogError::JournalFull`] and device write errors; no
    /// entry is acknowledged or lost on failure, and the sync can be
    /// retried.
    pub fn journal_sync(&self) -> Result<u64> {
        self.journal.as_ref().map_or(Ok(0), JournalRing::sync)
    }

    /// The on-device ring's durable LSN frontier (0 without a ring).
    pub fn journal_durable_lsn(&self) -> u64 {
        self.journal.as_ref().map_or(0, JournalRing::durable_lsn)
    }

    /// A point-in-time view of the on-device journal ring's internals, or
    /// `None` for engines without a ring.
    pub fn journal_ring_stats(&self) -> Option<JournalRingStats> {
        self.journal.as_ref().map(JournalRing::stats)
    }

    // ------------------------------------------------------------------
    // Snapshot lifecycle (no I/O)
    // ------------------------------------------------------------------

    /// Registers the current CP of `line` as a retained snapshot. Incurs no
    /// I/O — one of the key properties of the design.
    pub fn take_snapshot(&self, line: LineId) -> SnapshotId {
        self.lineage.write().take_snapshot(line)
    }

    /// Creates a writable clone of `parent` and returns the new line. Incurs
    /// no I/O and copies no back-reference records (structural inheritance).
    pub fn create_clone(&self, parent: SnapshotId) -> LineId {
        self.lineage.write().create_clone(parent)
    }

    /// Registers a clone whose line identifier was assigned by the host file
    /// system (e.g. the `fsim` simulator).
    ///
    /// # Panics
    ///
    /// Panics if `line` is already known to the engine.
    pub fn register_clone(&self, parent: SnapshotId, line: LineId) {
        self.lineage.write().register_clone(parent, line)
    }

    /// Registers an externally identified snapshot as retained (live).
    pub fn register_snapshot(&self, snap: SnapshotId) {
        self.lineage.write().register_snapshot(snap)
    }

    /// Deletes a snapshot. If it has been cloned, it becomes a zombie so its
    /// back references survive maintenance until its descendants are gone.
    pub fn delete_snapshot(&self, snap: SnapshotId) {
        self.lineage.write().delete_snapshot(snap)
    }

    /// Deletes an entire line (e.g. a writable clone that is no longer
    /// needed).
    pub fn delete_line(&self, line: LineId) {
        self.lineage.write().delete_line(line)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Returns all back references for a single physical block.
    ///
    /// # Errors
    ///
    /// Propagates device errors from reading run files.
    pub fn query_block(&self, block: BlockNo) -> Result<QueryResult> {
        self.query_range(block, block)
    }

    /// Returns all back references for physical blocks in `min..=max`
    /// ("Tell me all the objects containing this block", generalized to a
    /// range as used by volume shrinking and defragmentation).
    ///
    /// Takes `&self` and may run from any number of threads, concurrently
    /// with an in-flight maintenance rebuild: each partition is captured
    /// under the three tables' read guards of it, taken together, so it is
    /// observed fully pre- or fully post-swap across all three tables; the
    /// streaming happens after, from immutable run snapshots, with no lock
    /// held.
    ///
    /// Caveat: the per-operation I/O accounting in the returned
    /// [`QueryResult`] (and in [`MaintenanceReport::io`]) is a delta of the
    /// *global* device counters, so while other threads are doing I/O the
    /// attribution is approximate — a query timed during a rebuild also
    /// counts the rebuild's pages. The paper-reproduction experiments that
    /// report per-operation I/O all run single-threaded.
    ///
    /// # Errors
    ///
    /// Propagates device errors from reading run files.
    pub fn query_range(&self, min: BlockNo, max: BlockNo) -> Result<QueryResult> {
        let io_before = self.io_snapshot();
        let query_t0 = self.obs.now();
        let _query_span = self.obs.recorder().span(spans::QUERY_TOTAL, min);
        // Each touched partition is captured under the three tables' read
        // guards of it, taken together: a rebuild commit takes the three
        // write guards, so it cannot land between the per-table captures.
        // The guards are released before anything is streamed.
        let tables_span = self.obs.recorder().span(spans::QUERY_TABLES, min);
        let mut froms = RangeCapture::new(&self.from_table, min, max);
        let mut tos = RangeCapture::new(&self.to_table, min, max);
        let mut combined = RangeCapture::new(&self.combined_table, min, max);
        for p in froms.partitions() {
            let from = self.from_table.read_partition(p);
            let to = self.to_table.read_partition(p);
            let comb = self.combined_table.read_partition(p);
            from.capture(&mut froms);
            to.capture(&mut tos);
            comb.capture(&mut combined);
        }
        let froms = froms.into_records()?;
        let tos = tos.into_records()?;
        let combined = combined.into_records()?;
        drop(tables_span);
        // The lineage lock is taken only after the partition guards are
        // released, keeping the lock hierarchy acyclic.
        let assemble_span = self.obs.recorder().span(spans::QUERY_ASSEMBLE, min);
        let refs = {
            let lineage = self.lineage.read();
            assemble_query(&froms, &tos, &combined, &lineage)
        };
        drop(assemble_span);
        let io = IoDelta::between(&io_before, &self.io_snapshot());
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        let elapsed = self.obs.now().saturating_sub(query_t0);
        self.obs.query_ns.record(elapsed);
        Ok(QueryResult {
            refs,
            io_reads: io.reads,
            elapsed_ns: self.obs.wall_ns(elapsed),
        })
    }

    /// The live owners of `block` (those reachable from the live file
    /// system), the common input to pointer-update operations.
    ///
    /// # Errors
    ///
    /// Propagates device errors from reading run files.
    pub fn live_owners(&self, block: BlockNo) -> Result<Vec<Owner>> {
        let result = self.query_block(block)?;
        let mut owners: Vec<Owner> = result
            .refs
            .iter()
            .filter(|r| r.is_live())
            .map(|r| r.owner())
            .collect();
        owners.sort();
        owners.dedup();
        Ok(owners)
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Runs full database maintenance: merges all Level-0 runs, precomputes
    /// the Combined table (the From ⟗ To join), purges records that refer
    /// only to deleted snapshots, and prunes the zombie list. This is
    /// [`maintain`](Self::maintain) with [`MaintenancePlan::full`].
    ///
    /// The pass is a streaming pipeline, processed one partition at a time:
    ///
    /// ```text
    /// From runs ──iter_range──┐
    /// To runs ────iter_range──┼─ k-way merges ─ join_and_purge_streaming ─┬─ Combined RunBuilder
    /// Combined runs ─iter_range┘   (per table)    (identity groups)       └─ From RunBuilder
    /// ```
    ///
    /// Peak memory is one identity's record group plus the builders' output
    /// pages — never a table or even a partition (reported as
    /// [`peak_resident_records`](MaintenanceReport::peak_resident_records)).
    /// The swap is crash-safe build-then-swap: a partition's replacement runs
    /// are fully written before any of its old runs is deleted, so a device
    /// fault at any point leaves every partition either fully old or fully
    /// rebuilt and the database queryable with unchanged results. The price
    /// is transient space: old and replacement runs coexist until the
    /// partition commits, so the device must have roughly one partition's
    /// worth of free pages (the pre-streaming path freed old runs first and
    /// could complete on a fuller device — at the cost of losing the table
    /// on a fault). Finer partitioning shrinks this headroom requirement
    /// proportionally.
    ///
    /// # Errors
    ///
    /// Propagates device errors. After an error the tables still hold their
    /// contents (partitions already rebuilt are equivalent, the rest
    /// untouched); maintenance can simply be retried — though a retry cannot
    /// succeed on a device without the transient headroom described above.
    pub fn maintenance(&self) -> Result<MaintenanceReport> {
        // A full plan selects every partition, so the pass always reports.
        Ok(self.maintain(MaintenancePlan::full())?.unwrap_or_default())
    }

    /// Rebuilds only the partitions whose run count (summed across the three
    /// tables) has reached `run_threshold`, dirtiest first, returning
    /// `Ok(None)` when no partition is dirty enough — the cheap steady-state
    /// outcome for a background maintenance loop. This is
    /// [`maintain`](Self::maintain) with [`MaintenancePlan::if_dirty`].
    ///
    /// # Errors
    ///
    /// As for [`maintain`](Self::maintain).
    pub fn maintenance_if_dirty(&self, run_threshold: u32) -> Result<Option<MaintenanceReport>> {
        self.maintain(MaintenancePlan::if_dirty(run_threshold))
    }

    /// The one maintenance driver: rebuilds the partitions `plan` selects,
    /// dirtiest first (most runs across the three tables, then most
    /// disk-resident records, then lowest index), on the calling thread,
    /// while queries keep executing against each partition's pre-rebuild
    /// snapshot. Returns `Ok(None)` when the plan selects nothing.
    ///
    /// The paper partitions the RS files by block number precisely so that
    /// "each partition can be processed independently"; this is the step
    /// that cashes that in. Because the three tables share one partitioning,
    /// a reference identity's records never cross partitions and each
    /// partition can be joined, purged and swapped on its own. Dirtiest
    /// first means a bounded maintenance window reclaims the most garbage
    /// first and leaves the cleanest partitions for last; each runs the
    /// streaming pass described at [`maintenance`](Self::maintenance):
    /// snapshot → k-way merge → join/purge → replacement builders → atomic
    /// three-table swap, from one point-in-time lineage copy shared by the
    /// whole run.
    ///
    /// A host that wants partitions rebuilt in parallel calls `maintain`
    /// with [`MaintenancePlan::partition`] plans from its own threads.
    /// Concurrent calls may even rebuild the same partition: whichever pass
    /// commits second is stale, discards its output and counts nowhere in
    /// its report.
    ///
    /// Zombie snapshots are pruned only by a full plan: zombie liveness is a
    /// whole-database property, and partitions a partial plan skipped may
    /// still hold records that a zombie keeps alive.
    ///
    /// # Errors
    ///
    /// [`BacklogError::InvalidPartition`] if the plan names a partition the
    /// engine does not have; otherwise the first device error, which stops
    /// the run. Every partition is left either fully old or fully rebuilt
    /// (equivalently), so the database stays queryable and the pass can be
    /// retried. Zombies are pruned only when every partition succeeded.
    pub fn maintain(&self, plan: MaintenancePlan) -> Result<Option<MaintenanceReport>> {
        let partitions = self.config.partitioning.partition_count();
        if let Some(partition) = plan.partition.filter(|&p| p >= partitions) {
            return Err(BacklogError::InvalidPartition {
                partition,
                partitions,
            });
        }
        // One consistent sample drives selection, order and `runs_merged`.
        let selected: Vec<(u32, u32, u64)> = self
            .partition_dirtiness()
            .into_iter()
            .filter(|&(p, runs, _)| {
                plan.partition.is_none_or(|only| only == p) && runs >= plan.min_runs
            })
            .collect();
        if selected.is_empty() {
            return Ok(None);
        }
        let io_before = self.io_snapshot();
        let maint_t0 = self.obs.now();
        let _maint_span = self.obs.recorder().span(spans::MAINT_TOTAL, 0);
        let bytes_before = self.database_disk_bytes();

        // The passes' sums; a stale pass adds nothing.
        let mut totals = MaintenanceReport::default();
        // One point-in-time lineage copy for the whole run, shared by every
        // partition pass.
        let lineage = self.lineage.read().clone();
        for (pidx, runs, _) in selected {
            if let Some(pass) = self.maintenance_partition_pass(pidx, &lineage)? {
                totals.partitions += 1;
                totals.runs_merged += runs;
                totals.combined_records += pass.combined;
                totals.incomplete_records += pass.incomplete;
                totals.purged_records += pass.purged;
                totals.peak_resident_records =
                    totals.peak_resident_records.max(pass.peak_group_records);
            }
        }
        let zombies_pruned = if plan.is_full() {
            self.lineage.read().prune_zombies() as u64
        } else {
            0
        };
        let bytes_after = self.database_disk_bytes();
        let io = IoDelta::between(&io_before, &self.io_snapshot());
        let elapsed = self.obs.now().saturating_sub(maint_t0);
        self.obs.maintenance_ns.record(elapsed);
        self.counters
            .maintenance_runs
            .fetch_add(1, Ordering::Relaxed);
        Ok(Some(MaintenanceReport {
            zombies_pruned,
            bytes_before,
            bytes_after,
            io,
            elapsed_ns: self.obs.wall_ns(elapsed),
            ..totals
        }))
    }

    /// One consistent `(partition, runs, records)` sample per partition —
    /// run counts and record counts summed across the three tables — sorted
    /// dirtiest first: most runs, ties broken by most disk-resident records,
    /// then by index for determinism.
    fn partition_dirtiness(&self) -> Vec<(u32, u32, u64)> {
        let mut dirtiness: Vec<(u32, u32, u64)> = (0..self.config.partitioning.partition_count())
            .map(|p| {
                let runs = self.from_table.partition_run_count(p)
                    + self.to_table.partition_run_count(p)
                    + self.combined_table.partition_run_count(p);
                let records = self.from_table.partition_disk_records(p)
                    + self.to_table.partition_disk_records(p)
                    + self.combined_table.partition_disk_records(p);
                (p, runs, records)
            })
            .collect();
        dirtiness.sort_by_key(|&(p, runs, records)| (Reverse(runs), Reverse(records), p));
        dirtiness
    }

    /// Joins, purges and rebuilds one partition of all three tables,
    /// streaming from snapshots of the old runs into the replacement runs,
    /// and returns what it joined and purged — or `None` when it was stale.
    ///
    /// The pass holds a partition lock only twice, briefly: the three
    /// tables' read guards while it snapshots and their write guards while
    /// it commits — never across its I/O. Queries, reference callbacks and
    /// CP flushes proceed concurrently; the commit preserves runs and
    /// deletion marks that arrive while the rebuild streams. Safe to call
    /// from several threads at once, even on the same partition: a pass
    /// whose snapshot's runs a concurrent pass already replaced is stale,
    /// deletes its outputs and returns `None`.
    ///
    /// `lineage` is the caller's point-in-time copy of the lineage (one
    /// clone per maintenance run, shared by every partition pass): purge
    /// decisions never hold the lineage lock while streaming or waiting on
    /// partition guards (keeping the lock hierarchy acyclic), and a snapshot
    /// deleted while the pass runs survives one extra round — purging is
    /// conservative, never eager.
    fn maintenance_partition_pass(
        &self,
        pidx: u32,
        lineage: &LineageTable,
    ) -> Result<Option<JoinPurgeStats>> {
        let pass_t0 = self.obs.now();
        let _pass_span = self
            .obs
            .recorder()
            .span(spans::MAINT_PARTITION, pidx as u64);
        let _pass_hist = HistogramOnDrop {
            hist: &self.obs.maintenance_partition_ns,
            obs: &self.obs,
            t0: pass_t0,
        };
        // Input stage: immutable snapshots of the partition in all three
        // tables, taken under their three read guards together so a
        // concurrent pass's commit (which takes the three write guards)
        // cannot land between them — without this, overlapping passes over
        // the same partition could join a pre-swap `From` against a
        // post-swap `To` and resurrect already-combined records. Nothing
        // below can be disturbed by (or disturb) concurrent readers; the
        // swap at the end installs the replacements atomically.
        let (from_snap, to_snap, combined_snap) = {
            let from = self.from_table.read_partition(pidx);
            let to = self.to_table.read_partition(pidx);
            let combined = self.combined_table.read_partition(pidx);
            (from.snapshot(), to.snapshot(), combined.snapshot())
        };
        // Output stage: replacement runs under construction. Builders write
        // fresh files through the shared store; the tables' current runs are
        // untouched until the commit below.
        let mut from_builder = self
            .from_table
            .new_run_builder(from_snap.disk_records() as usize);
        // Every joined interval with a finite endpoint lands in Combined —
        // including unmatched To overrides — so the Bloom sizing must count
        // the To records too, or an override-heavy partition would saturate
        // its filter.
        let mut combined_builder = self.combined_table.new_run_builder(
            (combined_snap.disk_records() + from_snap.disk_records() + to_snap.disk_records())
                as usize,
        );
        // Transform stage: lazy per-run cursors, k-way merged per table,
        // joined and purged one identity group at a time, flowing directly
        // into the builders.
        let streamed = (|| {
            join_and_purge_streaming(
                from_snap.iter_disk()?,
                to_snap.iter_disk()?,
                combined_snap.iter_disk()?,
                lineage,
                |rec| combined_builder.push(&rec),
                |rec| from_builder.push(&rec),
            )
        })();
        let stats = match streamed {
            Ok(stats) => stats,
            Err(e) => {
                from_builder.abandon();
                combined_builder.abandon();
                return Err(e.into());
            }
        };
        // The builders received exactly what the sweep emitted — nothing was
        // buffered, reordered or dropped between the stages.
        debug_assert_eq!(from_builder.record_count(), stats.incomplete);
        debug_assert_eq!(combined_builder.record_count(), stats.combined);
        // Complete the replacement runs; every page is durable before any
        // old run is considered for deletion.
        let from_run = match from_builder.finish_nonempty() {
            Ok(run) => run,
            Err(e) => {
                combined_builder.abandon();
                return Err(e.into());
            }
        };
        let combined_run = match combined_builder.finish_nonempty() {
            Ok(run) => run,
            Err(e) => {
                if let Some(run) = from_run {
                    let _ = run.delete();
                }
                return Err(e.into());
            }
        };
        // Swap. No fallible device writes happen past this point: committing
        // only installs the finished runs and retires the consumed ones
        // (runs flushed and marks added since the snapshots survive). The
        // three write guards, taken together, make the three table swaps
        // one atomic step from any query's point of view.
        let mut from = self.from_table.write_partition(pidx);
        let mut to = self.to_table.write_partition(pidx);
        let mut combined = self.combined_table.write_partition(pidx);
        if from.holds(&from_snap) && to.holds(&to_snap) && combined.holds(&combined_snap) {
            from.commit_rebuild(from_run, &from_snap);
            to.commit_rebuild(None, &to_snap);
            combined.commit_rebuild(combined_run, &combined_snap);
            return Ok(Some(stats));
        }
        // A concurrent pass over this partition committed first and
        // consumed these snapshots: installing this pass's outputs would
        // duplicate that pass's records.
        drop((from, to, combined));
        if let Some(run) = from_run {
            let _ = run.delete();
        }
        if let Some(run) = combined_run {
            let _ = run.delete();
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Block relocation (the defragmentation / volume-shrink use case)
    // ------------------------------------------------------------------

    /// Relocates the back references of `old_block` to `new_block`, as a
    /// defragmenter or volume shrinker does after physically moving the
    /// block. Existing records for `old_block` are hidden through the
    /// deletion vectors (the read-store files are not rewritten); equivalent
    /// records for `new_block` are inserted. Returns the number of references
    /// moved.
    ///
    /// Relocations are serialized against each other, but not against
    /// queries of the two blocks involved: between hiding the old records
    /// and inserting the new ones, a concurrent query of `old_block` or
    /// `new_block` can observe the references at neither (or the history
    /// mid-copy). A real defragmenter holds the file system's block lock
    /// while moving a block — the engine expects the host to do the same
    /// and not query a block it is actively relocating. All *other* blocks
    /// are unaffected throughout.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn relocate_block(&self, old_block: BlockNo, new_block: BlockNo) -> Result<usize> {
        let _relocations_serialized = self.relocate_lock.lock();
        let result = self.query_block(old_block)?;
        // Hide every record of the old block in all three tables.
        for rec in self.from_table.query_range(old_block, old_block)? {
            self.from_table.mark_deleted(rec);
        }
        for rec in self.to_table.query_range(old_block, old_block)? {
            self.to_table.mark_deleted(rec);
        }
        for rec in self.combined_table.query_range(old_block, old_block)? {
            self.combined_table.mark_deleted(rec);
        }
        // Re-create the same reference history for the new block.
        let mut moved = 0usize;
        for r in &result.refs {
            let mut identity = RefIdentity::new(new_block, r.owner());
            identity.length = r.length;
            if r.is_live() {
                self.from_table.insert(FromRecord::new(identity, r.from));
            } else {
                self.combined_table
                    .insert(CombinedRecord::new(identity, r.from, r.to));
            }
            moved += 1;
        }
        Ok(moved)
    }

    // ------------------------------------------------------------------
    // Size accounting
    // ------------------------------------------------------------------

    /// Bytes of back-reference data on disk (all runs of all three tables).
    pub fn database_disk_bytes(&self) -> u64 {
        self.from_table.disk_bytes() + self.to_table.disk_bytes() + self.combined_table.disk_bytes()
    }

    /// Approximate bytes of back-reference data buffered in the write stores.
    pub fn write_store_bytes(&self) -> u64 {
        (self.from_table.ws_approx_bytes()
            + self.to_table.ws_approx_bytes()
            + self.combined_table.ws_approx_bytes()) as u64
    }

    /// Memory held by Bloom filters across all runs.
    pub fn bloom_bytes(&self) -> u64 {
        self.from_table.stats().bloom_bytes
            + self.to_table.stats().bloom_bytes
            + self.combined_table.stats().bloom_bytes
    }

    /// Number of Level-0 runs currently on disk across the three tables.
    pub fn run_count(&self) -> u32 {
        self.from_table.run_count() + self.to_table.run_count() + self.combined_table.run_count()
    }

    /// Per-table statistics `(from, to, combined)`.
    pub fn table_stats(&self) -> (lsm::TableStats, lsm::TableStats, lsm::TableStats) {
        (
            self.from_table.stats(),
            self.to_table.stats(),
            self.combined_table.stats(),
        )
    }

    /// Direct read access to the `From` table (used by the verification
    /// walker and by white-box tests).
    pub fn from_table(&self) -> &LsmTable<FromRecord> {
        &self.from_table
    }

    /// Direct read access to the `To` table.
    pub fn to_table(&self) -> &LsmTable<ToRecord> {
        &self.to_table
    }

    /// Direct read access to the `Combined` table.
    pub fn combined_table(&self) -> &LsmTable<CombinedRecord> {
        &self.combined_table
    }

    /// Returns every back reference currently derivable from the database,
    /// expanded and masked exactly like a query over the full block range.
    /// Used by the verification utility; not intended for the hot path.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn dump_all(&self) -> Result<QueryResult> {
        self.query_range(0, u64::MAX)
    }
}

// The engine intentionally does not implement `Clone`: it owns on-disk state.

// Compile-time `Send + Sync` guarantees (static_assertions-style): hosts share
// `&BacklogEngine` across writer, reader, CP and maintenance threads, so
// regressions here must fail the build, not the stress tests.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<BacklogEngine>();
    assert::<LineageTable>();
    assert::<LsmTable<FromRecord>>();
    assert::<LsmTable<ToRecord>>();
    assert::<LsmTable<CombinedRecord>>();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> BacklogEngine {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk));
        BacklogEngine::new(files, BacklogConfig::default())
    }

    #[test]
    fn journaling_has_no_effect_on_a_non_durable_engine() {
        // The ring is the only journal, and only a durable engine has a
        // device to reopen from: there is nothing to log to.
        let e = BacklogEngine::new_simulated(
            BacklogConfig::default().without_timing().with_journaling(),
        );
        let owner = Owner::block(1, 0, LineId::ROOT);
        e.add_reference(1, owner);
        let mut batch = WriteBatch::new();
        batch.remove_reference(2, owner);
        e.apply(&batch);
        assert_eq!(e.journal_ring_stats(), None);
        assert_eq!(e.journal_sync(), Ok(0));
        assert_eq!(e.journal_durable_lsn(), 0);
        assert_eq!(e.replay_recovered_journal(), Ok(JournalRecovery::default()));
        e.consistency_point().unwrap();
        assert_eq!(e.journal_ring_stats(), None);
        assert!(!e.is_durable());
        assert_eq!(e.superblock_generation(), 0);
    }

    #[test]
    fn durable_engine_auto_commits_journal_groups() {
        let device = SimDisk::new_shared(DeviceConfig::free_latency());
        let config = BacklogConfig::default()
            .without_timing()
            .with_journaling()
            .with_journal_group_size(2);
        let e = BacklogEngine::create_durable(device, config).unwrap();
        let o = |i| Owner::block(1, i, LineId::ROOT);
        e.add_reference(1, o(0));
        assert_eq!(e.journal_durable_lsn(), 0, "below the group threshold");
        e.add_reference(2, o(1));
        assert_eq!(e.journal_durable_lsn(), 2, "group committed at threshold");
        // The batched path coalesces its appends into one commit as well —
        // including the entries of a proactively pruned pair, which are
        // journaled like any other callback.
        let mut batch = WriteBatch::new();
        batch.add_reference(3, o(2));
        batch.add_reference(4, o(3));
        batch.remove_reference(4, o(3));
        e.apply(&batch);
        assert_eq!(e.journal_durable_lsn(), 5, "batch path auto-commits too");
        let stats = e.journal_ring_stats().unwrap();
        assert_eq!(stats.durable_lsn, 5);
        assert_eq!(stats.appended_lsn, 5);
        assert_eq!(e.journal_sync().unwrap(), 5, "fence finds nothing pending");
    }

    #[test]
    fn cp_cache_tracks_the_lineage_clock() {
        let e = BacklogEngine::new(
            Arc::new(FileStore::new(SimDisk::new_shared(
                DeviceConfig::free_latency(),
            ))),
            BacklogConfig::partitioned(4, 4_000).without_timing(),
        );
        for pidx in 0..4 {
            assert_eq!(e.cp_cache.read(pidx), 1);
        }
        e.consistency_point().unwrap();
        e.consistency_point().unwrap();
        for pidx in 0..4 {
            assert_eq!(e.cp_cache.read(pidx), 3, "every replica published");
        }
        assert_eq!(e.current_cp(), 3);
        // Records are stamped from the replica of their own partition.
        e.add_reference(3_500, Owner::block(1, 0, LineId::ROOT)); // partition 3
        let rec = &e.from_table.scan_all().unwrap()[0];
        assert_eq!(rec.from, 3);
    }

    #[test]
    fn add_query_roundtrip() {
        let e = engine();
        e.add_reference(500, Owner::block(3, 7, LineId::ROOT));
        // Query works even before the CP (records still in the write store).
        let r = e.query_block(500).unwrap();
        assert_eq!(r.refs.len(), 1);
        assert_eq!(r.refs[0].inode, 3);
        assert_eq!(r.refs[0].offset, 7);
        assert!(r.refs[0].is_live());
        e.consistency_point().unwrap();
        let r = e.query_block(500).unwrap();
        assert_eq!(r.refs.len(), 1);
    }

    #[test]
    fn remove_after_cp_produces_bounded_interval() {
        let e = engine();
        e.add_reference(500, Owner::block(3, 0, LineId::ROOT));
        e.consistency_point().unwrap(); // cp 1 durable, now at cp 2
        e.take_snapshot(LineId::ROOT); // retain cp 2
        e.consistency_point().unwrap();
        e.remove_reference(500, Owner::block(3, 0, LineId::ROOT));
        e.consistency_point().unwrap();
        let r = e.query_block(500).unwrap();
        assert_eq!(r.refs.len(), 1);
        assert_eq!(r.refs[0].from, 1);
        assert_eq!(r.refs[0].to, 3);
        assert!(!r.refs[0].is_live());
        assert_eq!(r.refs[0].live_versions, vec![2]);
    }

    #[test]
    fn removed_reference_with_no_snapshot_is_masked_out() {
        let e = engine();
        e.add_reference(500, Owner::block(3, 0, LineId::ROOT));
        e.consistency_point().unwrap();
        e.remove_reference(500, Owner::block(3, 0, LineId::ROOT));
        e.consistency_point().unwrap();
        // No snapshot retained the old state: the reference is unreachable.
        let r = e.query_block(500).unwrap();
        assert!(r.refs.is_empty());
    }

    #[test]
    fn proactive_pruning_within_one_cp() {
        let e = engine();
        e.add_reference(1, Owner::block(9, 0, LineId::ROOT));
        e.remove_reference(1, Owner::block(9, 0, LineId::ROOT));
        assert_eq!(e.stats().pruned_adds, 1);
        assert_eq!(e.stats().pruned_removes, 1);
        let report = e.consistency_point().unwrap();
        assert_eq!(report.records_flushed, 0, "pruned records never reach disk");
        assert_eq!(report.persistent_ops, 0);
        assert_eq!(report.block_ops, 2);
        assert!(e.query_block(1).unwrap().refs.is_empty());
    }

    #[test]
    fn prune_remove_then_readd_extends_lifetime() {
        let e = engine();
        let owner = Owner::block(9, 0, LineId::ROOT);
        e.add_reference(1, owner);
        e.consistency_point().unwrap(); // ref valid from cp 1
                                        // Within cp 2: remove then re-add; the To record must be pruned so
                                        // the reference keeps its original lifespan.
        e.remove_reference(1, owner);
        e.add_reference(1, owner);
        e.consistency_point().unwrap();
        let refs = e.query_block(1).unwrap().refs;
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].from, 1);
        assert!(refs[0].is_live());
    }

    #[test]
    fn cp_report_counts_io_and_ops() {
        let e = engine();
        for i in 0..1000u64 {
            e.add_reference(i, Owner::block(1, i, LineId::ROOT));
        }
        let report = e.consistency_point().unwrap();
        assert_eq!(report.block_ops, 1000);
        assert_eq!(report.persistent_ops, 1000);
        assert_eq!(report.records_flushed, 1000);
        assert!(report.pages_written > 0);
        assert_eq!(report.pages_read, 0, "CP flush never reads");
        assert!(report.io_writes_per_persistent_op() < 0.05);
        // Next CP with no activity is free.
        let idle = e.consistency_point().unwrap();
        assert_eq!(idle.pages_written, 0);
        assert_eq!(idle.block_ops, 0);
    }

    #[test]
    fn snapshot_and_clone_operations_do_no_io() {
        let e = engine();
        e.add_reference(10, Owner::block(1, 0, LineId::ROOT));
        e.consistency_point().unwrap();
        let before = e.device().stats().snapshot();
        let snap = e.take_snapshot(LineId::ROOT);
        let clone = e.create_clone(snap);
        e.delete_snapshot(snap);
        e.delete_line(clone);
        let after = e.device().stats().snapshot();
        assert_eq!(
            before, after,
            "snapshot lifecycle must not touch the device"
        );
    }

    #[test]
    fn clone_inherits_back_references() {
        let e = engine();
        let owner = Owner::block(4, 2, LineId::ROOT);
        e.add_reference(77, owner);
        e.consistency_point().unwrap();
        let snap = e.take_snapshot(LineId::ROOT);
        let clone = e.create_clone(snap);
        let refs = e.query_block(77).unwrap().refs;
        let lines: Vec<LineId> = refs.iter().map(|r| r.line).collect();
        assert!(lines.contains(&LineId::ROOT));
        assert!(
            lines.contains(&clone),
            "clone inherits the reference via structural inheritance"
        );
        // Overriding the block in the clone ends the inherited lifetime: the
        // clone now references block 78 instead, and no clone version that
        // still saw block 77 is retained, so the inherited record disappears.
        e.remove_reference(77, Owner::block(4, 2, clone));
        e.add_reference(78, Owner::block(4, 2, clone));
        e.consistency_point().unwrap();
        let refs = e.query_block(77).unwrap().refs;
        assert!(
            refs.iter().all(|r| r.line != clone),
            "override ends the inherited reference"
        );
        assert!(
            refs.iter().any(|r| r.line == LineId::ROOT),
            "parent line still owns the block"
        );
        let refs78 = e.query_block(78).unwrap().refs;
        assert_eq!(refs78.len(), 1);
        assert_eq!(refs78[0].line, clone);
    }

    #[test]
    fn maintenance_compacts_and_purges() {
        let e = engine();
        let owner = Owner::block(1, 0, LineId::ROOT);
        // Create and destroy references over several CPs without snapshots:
        // after maintenance they should all be purged.
        for block in 0..200u64 {
            e.add_reference(block, owner);
            e.consistency_point().unwrap();
            e.remove_reference(block, owner);
            e.consistency_point().unwrap();
        }
        assert!(e.run_count() > 100);
        let bytes_before = e.database_disk_bytes();
        let report = e.maintenance().unwrap();
        assert!(report.purged_records >= 200, "dead references are purged");
        assert!(report.bytes_after < bytes_before);
        assert!(e.run_count() <= 3);
        assert_eq!(
            e.to_table().stats().disk_records,
            0,
            "To table is empty after maintenance"
        );
    }

    #[test]
    fn maintenance_preserves_live_and_snapshotted_references() {
        let e = engine();
        e.add_reference(10, Owner::block(1, 0, LineId::ROOT));
        e.add_reference(11, Owner::block(1, 1, LineId::ROOT));
        e.consistency_point().unwrap();
        e.take_snapshot(LineId::ROOT);
        e.consistency_point().unwrap();
        e.remove_reference(11, Owner::block(1, 1, LineId::ROOT));
        e.consistency_point().unwrap();
        let report = e.maintenance().unwrap();
        assert_eq!(report.incomplete_records, 1, "block 10 is still live");
        assert_eq!(
            report.combined_records, 1,
            "block 11 survives via the snapshot"
        );
        let refs = e.query_block(11).unwrap().refs;
        assert_eq!(refs.len(), 1);
        let refs = e.query_block(10).unwrap().refs;
        assert_eq!(refs.len(), 1);
    }

    #[test]
    fn queries_work_identically_before_and_after_maintenance() {
        let e = engine();
        for block in 0..50u64 {
            e.add_reference(block, Owner::block(block % 7, block, LineId::ROOT));
            if block % 5 == 0 {
                e.consistency_point().unwrap();
            }
        }
        e.consistency_point().unwrap();
        e.take_snapshot(LineId::ROOT);
        let before: Vec<_> = (0..50u64).map(|b| e.query_block(b).unwrap().refs).collect();
        e.maintenance().unwrap();
        let after: Vec<_> = (0..50u64).map(|b| e.query_block(b).unwrap().refs).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn clone_override_records_survive_maintenance() {
        // Regression test: a clone that stops referencing an inherited block
        // writes an override record whose interval covers no live snapshot.
        // Maintenance must keep it anyway, or query expansion would
        // resurrect the inherited reference.
        let e = engine();
        let owner = Owner::block(4, 2, LineId::ROOT);
        e.add_reference(77, owner);
        e.consistency_point().unwrap();
        let snap = e.take_snapshot(LineId::ROOT);
        let clone = e.create_clone(snap);
        // The clone replaces block 77 with block 78.
        e.remove_reference(77, Owner::block(4, 2, clone));
        e.add_reference(78, Owner::block(4, 2, clone));
        e.consistency_point().unwrap();
        let before: Vec<_> = e
            .query_block(77)
            .unwrap()
            .refs
            .iter()
            .map(|r| (r.line, r.is_live()))
            .collect();
        e.maintenance().unwrap();
        let after: Vec<_> = e
            .query_block(77)
            .unwrap()
            .refs
            .iter()
            .map(|r| (r.line, r.is_live()))
            .collect();
        assert_eq!(before, after, "maintenance must not change query results");
        assert!(
            e.query_block(77)
                .unwrap()
                .refs
                .iter()
                .all(|r| r.line != clone),
            "the clone must not reacquire block 77 after maintenance"
        );
    }

    #[test]
    fn failed_cp_flush_loses_no_records() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk.clone()));
        let e = BacklogEngine::new(files, BacklogConfig::default());
        // Several leaves of delta-coded `From` records.
        for i in 0..5_000u64 {
            e.add_reference(i, Owner::block(1, i, LineId::ROOT));
        }
        // Let a handful of pages through so the failure lands mid-flush.
        disk.fail_writes_after(2);
        assert!(
            e.consistency_point().is_err(),
            "injected fault must surface"
        );
        // The failed CP did not advance the clock and the buffered records
        // are still queryable (they went back to the write store).
        assert_eq!(e.current_cp(), 1);
        assert_eq!(e.query_block(123).unwrap().refs.len(), 1);
        // After the device recovers, a retry flushes everything.
        disk.clear_write_fault();
        let report = e.consistency_point().unwrap();
        assert_eq!(report.records_flushed, 5_000);
        assert_eq!(e.current_cp(), 2);
        for block in [0u64, 2_500, 4_999] {
            assert_eq!(e.query_block(block).unwrap().refs.len(), 1, "block {block}");
        }
    }

    /// Builds a workload with live, snapshotted and dead references spread
    /// over many CPs, so maintenance has joining, purging and retention work
    /// to do in every table.
    fn populate(e: &mut BacklogEngine, blocks: u64) {
        for block in 0..blocks {
            e.add_reference(block, Owner::block(1 + block % 7, block, LineId::ROOT));
            if block % 16 == 0 {
                e.consistency_point().unwrap();
            }
        }
        e.consistency_point().unwrap();
        e.take_snapshot(LineId::ROOT);
        e.consistency_point().unwrap();
        // Remove a third of the references: they survive via the snapshot.
        for block in (0..blocks).step_by(3) {
            e.remove_reference(block, Owner::block(1 + block % 7, block, LineId::ROOT));
        }
        e.consistency_point().unwrap();
    }

    fn all_query_results(e: &mut BacklogEngine, blocks: u64) -> Vec<Vec<crate::BackRef>> {
        (0..blocks)
            .map(|b| e.query_block(b).unwrap().refs)
            .collect()
    }

    /// Runs a full maintenance pass on `e` and checks it against the
    /// materialized oracle, [`crate::maintenance::reference::join_and_purge`]
    /// over the disk state the pass reads: afterwards `From`, `To` and
    /// `Combined` hold exactly the oracle's incomplete records, nothing, and
    /// its complete records, and the report counts what the oracle counts.
    fn maintain_against_oracle(e: &BacklogEngine) -> MaintenanceReport {
        let oracle = crate::maintenance::reference::join_and_purge(
            &e.from_table().scan_disk().unwrap(),
            &e.to_table().scan_disk().unwrap(),
            &e.combined_table().scan_disk().unwrap(),
            &e.lineage_snapshot(),
        );
        let report = e.maintenance().unwrap();
        assert_eq!(e.from_table().scan_disk().unwrap(), oracle.incomplete_from);
        assert_eq!(e.to_table().scan_disk().unwrap(), Vec::new());
        assert_eq!(e.combined_table().scan_disk().unwrap(), oracle.combined);
        assert_eq!(
            (
                report.combined_records,
                report.incomplete_records,
                report.purged_records
            ),
            (
                oracle.combined.len() as u64,
                oracle.incomplete_from.len() as u64,
                oracle.purged
            )
        );
        report
    }

    #[test]
    fn maintenance_matches_materialized_reference_oracle() {
        let mut e = engine();
        populate(&mut e, 300);
        let baseline = all_query_results(&mut e, 300);
        let report = maintain_against_oracle(&e);
        assert_eq!(all_query_results(&mut e, 300), baseline);
        // The whole point of the pipeline: the streaming pass held a few
        // records, never the database.
        assert!(
            report.peak_resident_records < 16,
            "peak {}",
            report.peak_resident_records
        );
    }

    #[test]
    fn failed_maintenance_leaves_tables_intact_at_every_fault_point() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk.clone()));
        let mut e = BacklogEngine::new(files, BacklogConfig::default());
        // Enough blocks that the rebuilt tables span several leaves.
        populate(&mut e, 1_000);
        let baseline = all_query_results(&mut e, 1_000);
        let from_before = e.from_table().scan_disk().unwrap();
        let to_before = e.to_table().scan_disk().unwrap();
        let combined_before = e.combined_table().scan_disk().unwrap();
        // Kill the device at every maintenance write in turn (0, 1, 2, …
        // until the pass survives): a fault at *any* point during the
        // rebuild must leave the old runs installed with their
        // pre-maintenance contents.
        let mut fail_after = 0u64;
        loop {
            disk.fail_writes_after(fail_after);
            let result = e.maintenance();
            disk.clear_write_fault();
            if result.is_ok() {
                break;
            }
            assert_eq!(
                e.from_table().scan_disk().unwrap(),
                from_before,
                "From table changed after fault at write {fail_after}"
            );
            assert_eq!(e.to_table().scan_disk().unwrap(), to_before);
            assert_eq!(e.combined_table().scan_disk().unwrap(), combined_before);
            assert_eq!(
                all_query_results(&mut e, 1_000),
                baseline,
                "query results changed after fault at write {fail_after}"
            );
            fail_after += 1;
        }
        assert!(
            fail_after >= 3,
            "rebuild performed only {fail_after} writes"
        );
        // The pass that finally completed preserves results.
        assert_eq!(all_query_results(&mut e, 1_000), baseline);
    }

    #[test]
    fn failed_partitioned_maintenance_keeps_every_partition_queryable() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk.clone()));
        let mut e = BacklogEngine::new(files, BacklogConfig::partitioned(4, 400));
        populate(&mut e, 400);
        let baseline = all_query_results(&mut e, 400);
        // Walk the fault point through the whole pass: early faults leave
        // every partition old; later ones leave a prefix of partitions
        // rebuilt (with equivalent contents) and the rest old. Query results
        // must be unchanged in every mixed state.
        let mut fail_after = 0u64;
        let mut failures = 0u32;
        loop {
            disk.fail_writes_after(fail_after);
            let result = e.maintenance();
            disk.clear_write_fault();
            if result.is_ok() {
                break;
            }
            failures += 1;
            assert_eq!(
                all_query_results(&mut e, 400),
                baseline,
                "query results changed after fault at write {fail_after}"
            );
            fail_after += 1;
        }
        assert!(failures >= 3, "only {failures} distinct fault points");
        assert_eq!(all_query_results(&mut e, 400), baseline);
    }

    #[test]
    fn maintenance_partition_rebuilds_only_its_partition() {
        let mut e =
            BacklogEngine::new_simulated(BacklogConfig::partitioned(4, 400).without_timing());
        populate(&mut e, 400);
        let baseline = all_query_results(&mut e, 400);
        let runs_before_p1 = e.from_table().partition_run_count(1);
        let from_runs_before: u32 = e.from_table().run_count();
        assert!(runs_before_p1 > 1);
        let report = e.maintain(MaintenancePlan::partition(1)).unwrap().unwrap();
        assert_eq!(report.partitions, 1);
        assert_eq!(report.zombies_pruned, 0);
        assert!(report.runs_merged >= runs_before_p1);
        // Partition 1 is compacted to at most one run per table; the other
        // partitions keep all their Level-0 runs.
        assert!(e.from_table().partition_run_count(1) <= 1);
        assert_eq!(
            e.from_table().run_count(),
            from_runs_before - runs_before_p1 + e.from_table().partition_run_count(1)
        );
        assert_eq!(all_query_results(&mut e, 400), baseline);
        // Finishing the remaining partitions equals a full pass.
        for pidx in [0u32, 2, 3] {
            e.maintain(MaintenancePlan::partition(pidx)).unwrap();
        }
        assert_eq!(all_query_results(&mut e, 400), baseline);
        assert!(e.run_count() <= 8, "all partitions compacted");
    }

    #[test]
    fn maintaining_a_partition_out_of_range_is_an_error() {
        let mut e =
            BacklogEngine::new_simulated(BacklogConfig::partitioned(4, 400).without_timing());
        populate(&mut e, 400);
        let runs = e.run_count();
        let p = e.config().partitioning.partition_count();
        assert_eq!(
            e.maintain(MaintenancePlan::partition(p)),
            Err(BacklogError::InvalidPartition {
                partition: 4,
                partitions: 4
            })
        );
        assert_eq!(e.run_count(), runs, "nothing was rebuilt");
        assert_eq!(e.stats().maintenance_runs, 0);
    }

    #[test]
    fn partitioned_maintenance_matches_reference_and_bounds_memory() {
        let mut e =
            BacklogEngine::new_simulated(BacklogConfig::partitioned(8, 600).without_timing());
        populate(&mut e, 600);
        let report = maintain_against_oracle(&e);
        assert_eq!(report.partitions, 8);
        assert!(
            report.peak_resident_records < 16,
            "streaming pass must never hold a partition's records, peak {}",
            report.peak_resident_records
        );
    }

    /// Rebuilds every partition once from `threads` host threads: thread `t`
    /// calls `maintain(MaintenancePlan::partition(p))` for every
    /// `threads`-th partition from `t` and stops at its first error. Returns
    /// the first error, else the reports' summed counts.
    fn maintain_on_host_threads(e: &BacklogEngine, threads: u32) -> Result<MaintenanceReport> {
        let partitions = e.config().partitioning.partition_count();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        (t..partitions)
                            .step_by(threads as usize)
                            .map(|p| e.maintain(MaintenancePlan::partition(p)))
                            .collect::<Result<Vec<_>>>()
                    })
                })
                .collect();
            let mut sum = MaintenanceReport::default();
            for worker in workers {
                for report in worker.join().unwrap()?.into_iter().flatten() {
                    sum.partitions += report.partitions;
                    sum.runs_merged += report.runs_merged;
                    sum.combined_records += report.combined_records;
                    sum.incomplete_records += report.incomplete_records;
                    sum.purged_records += report.purged_records;
                }
            }
            Ok(sum)
        })
    }

    #[test]
    fn maintenance_parallel_matches_serial() {
        // Identical workloads; one engine maintained by one full pass, the
        // other by single-partition passes from four host threads. On-disk
        // tables, reports and query results must be identical.
        let mut serial =
            BacklogEngine::new_simulated(BacklogConfig::partitioned(8, 600).without_timing());
        let mut parallel =
            BacklogEngine::new_simulated(BacklogConfig::partitioned(8, 600).without_timing());
        populate(&mut serial, 600);
        populate(&mut parallel, 600);
        let a = serial.maintenance().unwrap();
        let b = maintain_on_host_threads(&parallel, 4).unwrap();
        assert_eq!(a.runs_merged, b.runs_merged);
        assert_eq!(a.combined_records, b.combined_records);
        assert_eq!(a.incomplete_records, b.incomplete_records);
        assert_eq!(a.purged_records, b.purged_records);
        assert_eq!(a.partitions, b.partitions);
        assert_eq!(
            serial.from_table().scan_disk().unwrap(),
            parallel.from_table().scan_disk().unwrap()
        );
        assert_eq!(
            serial.to_table().scan_disk().unwrap(),
            parallel.to_table().scan_disk().unwrap()
        );
        assert_eq!(
            serial.combined_table().scan_disk().unwrap(),
            parallel.combined_table().scan_disk().unwrap()
        );
        assert_eq!(
            all_query_results(&mut serial, 600),
            all_query_results(&mut parallel, 600)
        );
        assert_eq!(parallel.stats().maintenance_runs, 8, "one per host call");
    }

    #[test]
    fn failed_parallel_maintenance_keeps_every_partition_queryable() {
        // The parallel analogue of the serial fault walk: kill the device at
        // every write of single-partition passes racing on three host
        // threads in turn. Whatever subset of partitions the threads managed
        // to commit, each partition must be fully old or fully (equivalently)
        // new, and query results unchanged.
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk.clone()));
        let mut e = BacklogEngine::new(files, BacklogConfig::partitioned(4, 400));
        populate(&mut e, 400);
        let baseline = all_query_results(&mut e, 400);
        let mut fail_after = 0u64;
        let mut failures = 0u32;
        loop {
            disk.fail_writes_after(fail_after);
            let result = maintain_on_host_threads(&e, 3);
            disk.clear_write_fault();
            if result.is_ok() {
                break;
            }
            failures += 1;
            assert_eq!(
                all_query_results(&mut e, 400),
                baseline,
                "query results changed after fault at write {fail_after}"
            );
            fail_after += 1;
        }
        assert!(failures >= 3, "only {failures} distinct fault points");
        assert_eq!(all_query_results(&mut e, 400), baseline);
        assert!(e.run_count() <= 12, "retry completed the compaction");
    }

    #[test]
    fn maintenance_schedules_dirtiest_partition_first() {
        // Partition 1 accumulates many more runs than the others; it must be
        // first in the maintenance order.
        let e = BacklogEngine::new_simulated(BacklogConfig::partitioned(4, 400).without_timing());
        for cp in 0..6u64 {
            // Every CP touches partition 1 (blocks 100..200); only the first
            // touches the rest of the key space.
            if cp == 0 {
                for block in 0..400u64 {
                    e.add_reference(block, Owner::block(1, block, LineId::ROOT));
                }
            }
            e.add_reference(100 + cp, Owner::block(2, cp, LineId::ROOT));
            e.consistency_point().unwrap();
        }
        let order: Vec<u32> = e
            .partition_dirtiness()
            .into_iter()
            .map(|(p, _, _)| p)
            .collect();
        assert_eq!(order[0], 1, "dirtiest partition first, got {order:?}");
        // Ties (partitions 0, 2, 3 all have one run) break by records, then
        // by index; all partitions appear exactly once.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn apply_batch_matches_scalar_callbacks() {
        let scalar = BacklogEngine::new_simulated(BacklogConfig::partitioned(4, 400));
        let batched = BacklogEngine::new_simulated(BacklogConfig::partitioned(4, 400));
        let owner = |b: u64| Owner::block(1 + b % 5, b, LineId::ROOT);
        // Adds, removes and a same-CP add/remove pair (proactive pruning),
        // spread over every partition.
        let mut batch = WriteBatch::new();
        for b in 0..400u64 {
            scalar.add_reference(b, owner(b));
            batch.add_reference(b, owner(b));
        }
        for b in (0..400u64).step_by(3) {
            scalar.remove_reference(b, owner(b));
            batch.remove_reference(b, owner(b));
        }
        batched.apply(&batch);
        let (a, b) = (scalar.stats(), batched.stats());
        assert_eq!(a.refs_added, b.refs_added);
        assert_eq!(a.refs_removed, b.refs_removed);
        assert_eq!(a.pruned_adds, b.pruned_adds);
        assert!(b.pruned_adds > 0, "same-CP pairs must prune");
        assert_eq!(a.block_ops, b.block_ops);
        scalar.consistency_point().unwrap();
        batched.consistency_point().unwrap();
        for block in [0u64, 1, 100, 399] {
            assert_eq!(
                scalar.query_block(block).unwrap().refs,
                batched.query_block(block).unwrap().refs,
                "block {block}"
            );
        }
    }

    #[test]
    fn concurrent_callbacks_land_once_each() {
        // Four writer threads share &engine and add disjoint block ranges
        // (exercising different shards); every reference must be queryable
        // exactly once after the CP.
        let e = BacklogEngine::new_simulated(BacklogConfig::partitioned(4, 4_000).without_timing());
        std::thread::scope(|s| {
            let engine = &e;
            for w in 0..4u64 {
                s.spawn(move || {
                    let mut batch = WriteBatch::with_capacity(100);
                    for b in 0..1_000u64 {
                        let block = w * 1_000 + b;
                        batch.add_reference(block, Owner::block(1, block, LineId::ROOT));
                        if batch.len() == 100 {
                            engine.apply(&batch);
                            batch.clear();
                        }
                    }
                    engine.apply(&batch);
                });
            }
        });
        let report = e.consistency_point().unwrap();
        assert_eq!(report.block_ops, 4_000);
        assert_eq!(report.records_flushed, 4_000);
        assert_eq!(e.stats().refs_added, 4_000);
        for block in [0u64, 999, 1_000, 2_500, 3_999] {
            assert_eq!(e.query_block(block).unwrap().refs.len(), 1, "block {block}");
        }
    }

    #[test]
    fn maintenance_if_dirty_rebuilds_only_what_is_dirty() {
        let e = BacklogEngine::new_simulated(BacklogConfig::partitioned(4, 400).without_timing());
        for cp in 0..5u64 {
            if cp == 0 {
                for block in 0..400u64 {
                    e.add_reference(block, Owner::block(1, block, LineId::ROOT));
                }
            }
            e.add_reference(100 + cp, Owner::block(2, cp, LineId::ROOT));
            e.consistency_point().unwrap();
        }
        let baseline: Vec<_> = (0..400u64)
            .map(|b| e.query_block(b).unwrap().refs)
            .collect();
        // Partition 1 has 5 From runs; the others 1 each.
        assert!(e.maintenance_if_dirty(100).unwrap().is_none());
        let report = e
            .maintenance_if_dirty(3)
            .unwrap()
            .expect("partition 1 is dirty");
        assert_eq!(report.partitions, 1, "only the dirty partition rebuilt");
        assert_eq!(report.runs_merged, 5);
        assert!(e.from_table().partition_run_count(1) <= 1);
        assert_eq!(
            e.from_table().partition_run_count(0),
            1,
            "clean partitions untouched"
        );
        // Below the threshold now: the steady-state outcome is None.
        assert!(e.maintenance_if_dirty(3).unwrap().is_none());
        let after: Vec<_> = (0..400u64)
            .map(|b| e.query_block(b).unwrap().refs)
            .collect();
        assert_eq!(baseline, after, "targeted maintenance preserves queries");
        // Threshold 1 selects every partition that holds a run at all.
        let report = e.maintenance_if_dirty(1).unwrap().unwrap();
        assert_eq!(report.partitions, 4);
    }

    #[test]
    fn relocate_block_moves_references() {
        let e = engine();
        let o1 = Owner::block(1, 0, LineId::ROOT);
        let o2 = Owner::block(2, 5, LineId::ROOT);
        e.add_reference(100, o1);
        e.add_reference(100, o2); // deduplicated: two owners
        e.consistency_point().unwrap();
        let moved = e.relocate_block(100, 900).unwrap();
        assert_eq!(moved, 2);
        assert!(
            e.query_block(100).unwrap().refs.is_empty(),
            "old block has no owners"
        );
        let new_owners = e.live_owners(900).unwrap();
        assert_eq!(new_owners, vec![o1, o2]);
    }

    #[test]
    fn dedup_multiple_owners_of_one_block() {
        let e = engine();
        for inode in 0..10u64 {
            e.add_reference(42, Owner::block(inode, 0, LineId::ROOT));
        }
        e.consistency_point().unwrap();
        let owners = e.live_owners(42).unwrap();
        assert_eq!(owners.len(), 10);
    }

    #[test]
    fn range_query_returns_sorted_refs_for_all_blocks() {
        let e = engine();
        for block in 100..200u64 {
            e.add_reference(block, Owner::block(1, block - 100, LineId::ROOT));
        }
        e.consistency_point().unwrap();
        let result = e.query_range(150, 159).unwrap();
        assert_eq!(result.refs.len(), 10);
        assert!(result.refs.windows(2).all(|w| w[0].block <= w[1].block));
        assert_eq!(result.blocks().len(), 10);
    }

    #[test]
    fn stats_accumulate() {
        let e = engine();
        e.add_reference(1, Owner::block(1, 0, LineId::ROOT));
        e.remove_reference(2, Owner::block(1, 1, LineId::ROOT));
        e.consistency_point().unwrap();
        e.query_block(1).unwrap();
        e.maintenance().unwrap();
        let s = e.stats();
        assert_eq!(s.block_ops, 2);
        assert_eq!(s.refs_added, 1);
        assert_eq!(s.refs_removed, 1);
        assert_eq!(s.consistency_points, 1);
        assert_eq!(s.queries, 1, "maintenance does not count as a query");
        assert_eq!(s.maintenance_runs, 1);
    }

    #[test]
    fn report_ns_fields_come_from_the_one_observability_clock() {
        let run = |config: BacklogConfig| {
            let e = BacklogEngine::new_simulated(config);
            let mut cps = Vec::new();
            for round in 0..3u64 {
                let mut batch = WriteBatch::new();
                for b in 0..50 {
                    let block = round * 100 + b;
                    e.add_reference(block, Owner::block(1, block, LineId::ROOT));
                    batch.add_reference(block + 50, Owner::block(2, block, LineId::ROOT));
                }
                e.apply(&batch);
                e.remove_reference(round * 100, Owner::block(1, round * 100, LineId::ROOT));
                cps.push(e.consistency_point().unwrap());
            }
            let query = e.query_block(1).unwrap();
            let maint = e.maintenance().unwrap();
            (e, cps, query, maint)
        };

        // Wall clock: each `*_ns` field is the very sample its histogram
        // took, so the per-CP callback times add up to the histogram's sum
        // exactly — not approximately, as two clocks would.
        let (e, cps, query, maint) = run(BacklogConfig::partitioned(4, 400));
        let obs = e.obs();
        let callback_ns: u64 = cps.iter().map(|r| r.callback_ns).sum();
        assert!(callback_ns > 0);
        assert_eq!(callback_ns, obs.callback_ns.sum());
        assert_eq!(
            cps.iter().map(|r| r.flush_ns).sum::<u64>(),
            obs.cp_flush_ns.sum()
        );
        assert_eq!(query.elapsed_ns, obs.query_ns.sum());
        assert_eq!(maint.elapsed_ns, obs.maintenance_ns.sum());
        let stats = e.stats();
        assert_eq!(stats.callback_ns, obs.callback_ns.sum());
        assert_eq!(stats.cp_flush_ns, obs.cp_flush_ns.sum());
        assert_eq!(stats.maintenance_ns, obs.maintenance_ns.sum());

        // A reopened engine carries the manifest's totals forward and keeps
        // attributing per-CP callback time from its own (fresh) histogram.
        let device = SimDisk::new_shared(DeviceConfig::free_latency());
        let config = BacklogConfig::default();
        let owner = |b| Owner::block(1, b, LineId::ROOT);
        let e = BacklogEngine::create_durable(device.clone(), config.clone()).unwrap();
        (0..50).for_each(|b| e.add_reference(b, owner(b)));
        e.consistency_point().unwrap();
        let durable = e.stats();
        assert!(durable.callback_ns > 0);
        drop(e);
        let e = BacklogEngine::open(device, config).unwrap();
        assert_eq!(e.stats().callback_ns, durable.callback_ns);
        (50..100).for_each(|b| e.add_reference(b, owner(b)));
        let report = e.consistency_point().unwrap();
        assert!(report.callback_ns > 0);
        assert_eq!(report.callback_ns, e.obs().callback_ns.sum());
        assert_eq!(
            e.stats().callback_ns,
            durable.callback_ns + report.callback_ns
        );

        // Tick clock: the histograms still fill (in ticks), but a tick
        // count is not a time and never reaches a `*_ns` field.
        let (e, cps, query, maint) = run(BacklogConfig::partitioned(4, 400).without_timing());
        assert!(e.obs().callback_ns.sum() > 0);
        for r in &cps {
            assert_eq!((r.callback_ns, r.flush_ns), (0, 0));
        }
        assert_eq!(query.elapsed_ns, 0);
        assert_eq!(maint.elapsed_ns, 0);
        let stats = e.stats();
        assert_eq!(
            (stats.callback_ns, stats.cp_flush_ns, stats.maintenance_ns),
            (0, 0, 0)
        );
    }

    #[test]
    fn write_store_and_bloom_accounting() {
        let e = engine();
        for i in 0..100u64 {
            e.add_reference(i, Owner::block(1, i, LineId::ROOT));
        }
        assert!(e.write_store_bytes() > 0);
        assert_eq!(e.database_disk_bytes(), 0);
        e.consistency_point().unwrap();
        assert_eq!(e.write_store_bytes(), 0);
        assert!(e.database_disk_bytes() > 0);
        assert!(e.bloom_bytes() > 0);
        let (f, t, c) = e.table_stats();
        assert_eq!(f.index_bytes, 8, "one leaf, one resident fence key");
        assert_eq!(
            e.metrics().get("backlog_run_index_bytes"),
            Some(&obs::MetricValue::Gauge(8.0))
        );
        assert_eq!(f.disk_records, 100);
        assert_eq!(t.disk_records, 0);
        assert_eq!(c.disk_records, 0);
    }
}
