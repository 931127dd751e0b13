use std::cell::Cell;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use blockdev::{Completion, FileStore};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::bloom::BloomConfig;
use crate::deletion_vector::DeletionVector;
use crate::error::{LsmError, Result};
use crate::merge::{KWayMerge, TryKWayMerge};
use crate::partition::Partitioning;
use crate::record::Record;
use crate::run::{Run, RunBuilder, RunMeta, RunRangeIter, RunStats};
use crate::write_store::{ShardedWriteStore, WriteShard};

/// One partition's durable description inside a consistency-point manifest:
/// the installed runs (oldest first) and the deletion-vector contents.
/// Captured by [`PartitionSnapshot::manifest`] and replayed by
/// [`LsmTable::open_from_manifest`].
#[derive(Debug, Clone)]
pub struct PartitionManifest<R: Record> {
    /// The partition's runs, oldest first.
    pub runs: Vec<RunMeta>,
    /// The partition's deletion-vector records, sorted.
    pub deletions: Vec<R>,
}

/// Configuration for an [`LsmTable`].
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Human-readable table name used in diagnostics (`"From"`, `"To"`, ...).
    pub name: String,
    /// Bloom filter sizing for this table's runs.
    pub bloom: BloomConfig,
    /// Horizontal partitioning of runs by partition key.
    pub partitioning: Partitioning,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            name: "table".to_owned(),
            bloom: BloomConfig::default(),
            partitioning: Partitioning::single(),
        }
    }
}

impl TableConfig {
    /// Creates a config with the given diagnostic name and defaults otherwise.
    pub fn named(name: impl Into<String>) -> Self {
        TableConfig {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Sets the partitioning scheme.
    pub fn with_partitioning(mut self, partitioning: Partitioning) -> Self {
        self.partitioning = partitioning;
        self
    }

    /// Sets the Bloom filter configuration.
    pub fn with_bloom(mut self, bloom: BloomConfig) -> Self {
        self.bloom = bloom;
        self
    }
}

/// Statistics returned by [`LsmTable::flush_cp`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Records written out of the write store.
    pub records_flushed: u64,
    /// Level-0 runs created (one per non-empty partition).
    pub runs_created: u32,
    /// Total pages written for the new runs.
    pub pages_written: u64,
}

/// Point-in-time statistics for a table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Records buffered in the write store.
    pub ws_records: u64,
    /// Number of on-disk runs.
    pub run_count: u32,
    /// Records stored across all runs.
    pub disk_records: u64,
    /// Pages occupied by all runs (leaves plus fence sections).
    pub disk_pages: u64,
    /// Logical bytes of disk-resident records.
    pub disk_record_bytes: u64,
    /// Memory held by Bloom filters, in bytes.
    pub bloom_bytes: u64,
    /// Memory held by the runs' resident fence keys, in bytes (8 per leaf;
    /// a reopened run counts once its first lookup has loaded them).
    pub index_bytes: u64,
    /// Records currently masked by the deletion vector.
    pub deleted_records: u64,
}

/// The swappable per-partition state: an immutable, shared run list plus the
/// deletion marks for keys in the partition. Readers clone the two `Arc`s
/// under the partition's read lock (a [`PartitionSnapshot`], taken through a
/// [`PartitionReadGuard`]); rebuilds replace them wholesale under the write
/// lock ([`PartitionWriteGuard`]), so a swap is atomic with respect to every
/// reader and never blocks on in-flight page I/O.
#[derive(Debug)]
struct PartitionState<R: Record> {
    /// On-disk runs, oldest first.
    runs: Arc<Vec<Arc<Run<R>>>>,
    /// Deletion marks whose partition key falls in this partition.
    deletions: Arc<DeletionVector<R>>,
}

impl<R: Record> PartitionState<R> {
    fn empty() -> Self {
        PartitionState {
            runs: Arc::new(Vec::new()),
            deletions: Arc::new(DeletionVector::new()),
        }
    }
}

/// An immutable point-in-time view of one partition's disk state: the run
/// list and deletion vector that were installed when the snapshot was taken.
///
/// Snapshots are what make concurrent reads and rebuilds safe: a query or a
/// maintenance pass captures the partition once (two `Arc` clones under a
/// [`PartitionReadGuard`]) and then streams from it with no lock held. A
/// concurrent [`commit_rebuild`](PartitionWriteGuard::commit_rebuild) swap
/// does not disturb the snapshot — replaced runs are retired, not deleted,
/// and their pages survive until the last snapshot drops.
#[derive(Debug, Clone)]
pub struct PartitionSnapshot<R: Record> {
    key_range: (u64, u64),
    runs: Arc<Vec<Arc<Run<R>>>>,
    deletions: Arc<DeletionVector<R>>,
}

impl<R: Record> PartitionSnapshot<R> {
    /// The runs visible in this snapshot, oldest first.
    pub fn runs(&self) -> &[Arc<Run<R>>] {
        &self.runs
    }

    /// The deletion vector visible in this snapshot.
    pub fn deletions(&self) -> &DeletionVector<R> {
        &self.deletions
    }

    /// The inclusive key range `[min, max]` the partition covers.
    pub fn key_range(&self) -> (u64, u64) {
        self.key_range
    }

    /// Number of runs in the snapshot.
    pub fn run_count(&self) -> u32 {
        self.runs.len() as u32
    }

    /// Disk-resident records across the snapshot's runs (before
    /// deletion-vector masking). Streaming rebuilds use this to size the
    /// replacement run's Bloom filter without scanning anything.
    pub fn disk_records(&self) -> u64 {
        self.runs.iter().map(|r| r.len()).sum()
    }

    /// Whether `self` and `other` hold the very same installed run list —
    /// an O(1) pointer comparison. Every change to a partition's runs
    /// installs a new list while another snapshot of the old one is alive
    /// (the lists are copy-on-write), so as long as the caller keeps `other`
    /// alive, `true` means no run was added or removed since it was taken.
    /// `false` only means "look closer": the lists may still be equal.
    pub fn same_runs(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.runs, &other.runs)
    }

    /// Whether `self` and `other` hold the very same deletion vector (see
    /// [`same_runs`](Self::same_runs) for what the answer means).
    pub fn same_deletions(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.deletions, &other.deletions)
    }

    /// Captures this snapshot's full durable description — every run's
    /// [`RunMeta`] (Bloom words included) and every deletion mark — in the
    /// form [`LsmTable::open_from_manifest`] takes back. This walks and
    /// copies the whole partition; a writer that only needs what changed
    /// compares snapshots ([`same_runs`](Self::same_runs)) instead.
    pub fn manifest(&self) -> PartitionManifest<R> {
        PartitionManifest {
            runs: self.runs.iter().map(|r| r.meta()).collect(),
            deletions: self.deletions.iter().cloned().collect(),
        }
    }

    /// Returns a lazy, sorted stream over the snapshot's records, with the
    /// deletion vector applied record by record. This is the read stage of
    /// the streaming rebuild pipeline: each run contributes one lazy
    /// [`Run::iter_range`] cursor and a [`TryKWayMerge`] interleaves them, so
    /// the peak memory held is one leaf page per run plus the merge heap —
    /// never the partition's record set.
    ///
    /// # Errors
    ///
    /// Errors positioning a cursor (its run's fence load, its first leaf)
    /// surface immediately; page errors hit mid-stream are
    /// yielded as `Err` items, after which the stream fuses.
    pub fn iter_disk(&self) -> Result<impl Iterator<Item = Result<R>> + '_> {
        let (min, max) = self.key_range;
        let mut sources: Vec<RunRangeIter<'_, R>> = Vec::new();
        for run in self.runs.iter() {
            sources.push(run.iter_range(min, max)?);
        }
        let deletions = &self.deletions;
        Ok(TryKWayMerge::new(sources).filter(move |item| match item {
            Ok(rec) => deletions.is_empty() || !deletions.contains(rec),
            Err(_) => true,
        }))
    }
}

/// Partition `pidx` of one table, read-locked
/// ([`LsmTable::read_partition`]).
///
/// Whatever is captured under the guard is one instant of the partition: a
/// CP flush commit, a deletion mark and a rebuild commit each take the
/// partition's write lock. A caller holding the guards of the same partition
/// in several tables captures all of them at one instant — the engine takes
/// `From`, `To` and `Combined` in that order, the order a rebuild commit
/// takes their [`PartitionWriteGuard`]s. Capture, drop the guards, then
/// stream: snapshots need no lock.
#[derive(Debug)]
pub struct PartitionReadGuard<'a, R: Record> {
    table: &'a LsmTable<R>,
    pidx: u32,
    state: RwLockReadGuard<'a, PartitionState<R>>,
}

impl<R: Record> PartitionReadGuard<'_, R> {
    /// An immutable snapshot of the partition's disk state: two `Arc`
    /// clones.
    pub fn snapshot(&self) -> PartitionSnapshot<R> {
        PartitionSnapshot {
            key_range: self.table.config.partitioning.key_range(self.pidx),
            runs: self.state.runs.clone(),
            deletions: self.state.deletions.clone(),
        }
    }

    /// Adds the partition to `into`: its snapshot plus the write-store
    /// records in the capture's key range. The shard is read under this
    /// guard, and a flush commit takes both, so each record is seen in the
    /// shard or in the freshly installed run — never in both, never in
    /// neither.
    ///
    /// # Panics
    ///
    /// Debug-asserts that partitions are captured in ascending order, each
    /// once.
    pub fn capture(&self, into: &mut RangeCapture<R>) {
        debug_assert_eq!(
            self.pidx,
            into.partitions().start() + into.snaps.len() as u32,
            "partitions captured out of order"
        );
        self.table
            .ws
            .lock_shard(self.pidx)
            .collect_range(into.min, into.max, &mut into.ws);
        into.snaps.push(self.snapshot());
    }
}

/// Partition `pidx` of one table, write-locked
/// ([`LsmTable::write_partition`]): the guard a rebuild commits under. A
/// rebuild of several tables takes their guards together, in the same order
/// as readers take [`PartitionReadGuard`]s, so no reader observes it
/// half-committed.
#[derive(Debug)]
pub struct PartitionWriteGuard<'a, R: Record> {
    table: &'a LsmTable<R>,
    pidx: u32,
    state: RwLockWriteGuard<'a, PartitionState<R>>,
}

impl<R: Record> PartitionWriteGuard<'_, R> {
    /// Whether every run of `snap` is still installed. Only a rebuild
    /// commit removes runs, so `false` means another rebuild of this
    /// partition committed after `snap` was taken and consumed what `snap`
    /// holds: a rebuild streamed from `snap` is *stale*, and installing it
    /// would duplicate that rebuild's records.
    pub fn holds(&self, snap: &PartitionSnapshot<R>) -> bool {
        Arc::ptr_eq(&self.state.runs, &snap.runs)
            || snap
                .runs
                .iter()
                .all(|old| self.state.runs.iter().any(|run| Arc::ptr_eq(old, run)))
    }

    /// Atomically swaps the runs a rebuild consumed (`rebuilt_from`, the
    /// snapshot the rebuild streamed) for `new_run` (build-then-swap), and
    /// returns `true`. The caller has already built `new_run` to completion
    /// — every page of it is on the device — so this step performs no
    /// fallible writes: it installs the new run list, drops the deletion
    /// marks the rebuild consumed in-stream and retires the replaced runs.
    /// Readers holding a pre-swap [`PartitionSnapshot`] keep streaming from
    /// the old runs (whose files survive until the last snapshot drops —
    /// `rebuilt_from` among them); every snapshot taken after the swap sees
    /// only the new run.
    ///
    /// State that arrived *after* the rebuild's snapshot survives the swap:
    /// Level-0 runs appended by a racing consistency-point flush stay
    /// installed (after `new_run`, preserving oldest-first order), and
    /// deletion marks added by a racing relocation keep masking their
    /// records — only the runs and marks the rebuild actually consumed are
    /// replaced. A rebuild that failed before this point simply never calls
    /// it, leaving the partition fully intact and queryable.
    ///
    /// Two rebuilds of the same partition may race; whichever commits
    /// second is stale (see [`holds`](Self::holds)). Its commit returns
    /// `false`, deletes `new_run` and leaves the partition unchanged.
    ///
    /// Passing `None` empties the consumed runs (e.g. every record was
    /// purged).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `new_run`'s keys lie inside the partition.
    pub fn commit_rebuild(
        &mut self,
        new_run: Option<Run<R>>,
        rebuilt_from: &PartitionSnapshot<R>,
    ) -> bool {
        if !self.holds(rebuilt_from) {
            if let Some(run) = new_run {
                let _ = run.delete();
            }
            return false;
        }
        let (min, max) = self.table.config.partitioning.key_range(self.pidx);
        if let Some(run) = &new_run {
            debug_assert!(
                run.min_key() >= min && run.max_key() <= max,
                "rebuilt run keys [{}, {}] escape partition {} [{min}, {max}]",
                run.min_key(),
                run.max_key(),
                self.pidx,
            );
        }
        let st = &mut *self.state;
        let mut fresh: Vec<Arc<Run<R>>> = new_run.into_iter().map(Arc::new).collect();
        for run in st.runs.iter() {
            if rebuilt_from.runs.iter().any(|old| Arc::ptr_eq(old, run)) {
                // `rebuilt_from` still holds it, so no file is deleted
                // under the lock.
                run.retire();
            } else {
                // Appended by a flush after the snapshot: keep it.
                fresh.push(run.clone());
            }
        }
        st.deletions = if Arc::ptr_eq(&st.deletions, &rebuilt_from.deletions) {
            Arc::new(DeletionVector::new())
        } else {
            // Marks added since the snapshot were not consumed by the
            // rebuild; they must keep masking their records.
            Arc::new(st.deletions.difference(&rebuilt_from.deletions))
        };
        st.runs = Arc::new(fresh);
        true
    }
}

/// One table's records in `min..=max`, captured partition by partition under
/// [`PartitionReadGuard`]s and merged with no lock held
/// ([`into_records`](Self::into_records)).
#[derive(Debug)]
pub struct RangeCapture<R: Record> {
    partitioning: Partitioning,
    min: u64,
    max: u64,
    snaps: Vec<PartitionSnapshot<R>>,
    /// Write-store records in range. Partitions cover ascending key ranges
    /// and are captured in order, so this is sorted.
    ws: Vec<R>,
}

impl<R: Record> RangeCapture<R> {
    /// An empty capture of `table`'s records in `min..=max`. Capture each of
    /// its [`partitions`](Self::partitions) into it, in ascending order,
    /// before merging.
    pub fn new(table: &LsmTable<R>, min: u64, max: u64) -> Self {
        RangeCapture {
            partitioning: table.config.partitioning,
            min,
            max,
            snaps: Vec::new(),
            ws: Vec::new(),
        }
    }

    /// The partitions the range touches, ascending.
    pub fn partitions(&self) -> RangeInclusive<u32> {
        self.partitioning.partitions_for_range(self.min, self.max)
    }

    /// Every captured record whose partition key falls in `min..=max`,
    /// sorted, with deletion-vector records removed.
    ///
    /// Each relevant run contributes a lazy [`iter_range`](Run::iter_range)
    /// cursor, the write-store records one more source, and a [`KWayMerge`]
    /// produces the result directly, applying the deletion vectors record
    /// by record — no per-source materialization, and no interference with
    /// a rebuild swapping partitions underneath.
    ///
    /// # Errors
    ///
    /// Propagates device errors from reading run pages.
    pub fn into_records(self) -> Result<Vec<R>> {
        let (min, max) = (self.min, self.max);
        let first = *self.partitions().start();
        // Device errors hit mid-stream land in this cell (the merge operates
        // on plain records); the first error aborts the query.
        let error: Cell<Option<LsmError>> = Cell::new(None);
        let mut sources: Vec<Box<dyn Iterator<Item = R> + '_>> = Vec::new();
        if !self.ws.is_empty() {
            sources.push(Box::new(self.ws.into_iter()));
        }
        for snap in &self.snaps {
            for run in snap.runs() {
                if run.may_contain_range(min, max) {
                    // Positioning errors surface immediately; later page errors
                    // are captured by the adapter below.
                    let iter = run.iter_range(min, max)?;
                    sources.push(Box::new(CaptureErrors {
                        inner: iter,
                        sink: &error,
                    }));
                }
            }
        }
        let apply_deletions = self.snaps.iter().any(|s| !s.deletions.is_empty());
        let mut out = Vec::new();
        let mut merge = KWayMerge::new(sources);
        loop {
            // Abort at the first captured error instead of draining the
            // remaining sources into a result that will be thrown away.
            if let Some(e) = error.take() {
                return Err(e);
            }
            let Some(rec) = merge.next() else { break };
            let deleted = apply_deletions && {
                let pidx = self.partitioning.partition_of(rec.partition_key());
                self.snaps[(pidx - first) as usize].deletions.contains(&rec)
            };
            if !deleted {
                out.push(rec);
            }
        }
        match error.take() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

/// A consistency-point flush on its way to the device, in three steps:
/// [`LsmTable::begin_flush`] takes the table's flush lock,
/// [`stage`](Self::stage) moves a shard's records into its staged set —
/// still query-visible in the write store — and [`build`](Self::build)
/// writes one Level-0 run per staged shard without changing any partition's
/// run list. [`LsmTable::prepare_flush`] is all three over every shard.
///
/// Staging is its own step so that a caller can decide *what one flush
/// covers* under locks of its own: the engine stages a partition's `From`
/// and `To` shards inside one critical section, so no callback can land
/// between the two and the flush covers an exact prefix of the journal.
///
/// Exactly one of two things happens next:
///
/// * [`commit`](Self::commit) installs each run and unstages its records in
///   one per-partition atomic step (the moment a durable CP's superblock
///   flip is known to be on disk);
/// * dropping the handle (or calling [`abort`](Self::abort)) deletes the
///   built run files and returns every staged record to its shard — the
///   table is exactly as if the flush had never been attempted.
///
/// The handle holds the table's flush lock for its whole lifetime, and
/// [`built_runs`](Self::built_runs) exposes the built runs so a
/// consistency-point manifest can reference them before they are visible to
/// queries.
#[must_use = "a prepared flush must be committed, or dropped to abort"]
#[derive(Debug)]
pub struct PreparedFlush<'a, R: Record> {
    table: &'a LsmTable<R>,
    _flush: MutexGuard<'a, ()>,
    /// Partitions whose shards were staged (restored on abort).
    staged: Vec<u32>,
    /// Staged record sets [`build`](Self::build) has yet to write.
    work: Vec<(u32, Vec<R>)>,
    /// The built-but-uninstalled runs, ascending by partition.
    built: Vec<(u32, Run<R>)>,
    /// In-flight run-page writes still to be waited on (empty once
    /// [`wait_io`](Self::wait_io) or [`take_pending_io`](Self::take_pending_io)
    /// has run).
    pending_io: Vec<Completion>,
    stats: FlushStats,
    done: bool,
}

impl<R: Record> PreparedFlush<'_, R> {
    /// Stages partition `pidx`'s records for this flush. `shard` is that
    /// partition's write-store shard of this table, locked by the caller
    /// ([`LsmTable::ws_shard`]) — who may hold other locks around the call
    /// to make the staging atomic with something else. The records stay
    /// query-visible in the shard until [`commit`](Self::commit).
    pub fn stage(&mut self, pidx: u32, shard: &mut WriteShard<R>) {
        let records = shard.stage();
        if !records.is_empty() {
            self.staged.push(pidx);
            self.work.push((pidx, records));
        }
    }

    /// Builds one Level-0 run per staged shard **without installing
    /// anything**, fanning the independent partition builds across
    /// `threads` scoped worker threads (clamped to `1..=staged shards`; with
    /// one thread the loop runs inline, in staging order). Returns **without
    /// waiting for the page writes to complete**: every page of every run
    /// has been *submitted*, and [`take_pending_io`](Self::take_pending_io)
    /// holds the completions.
    ///
    /// # Errors
    ///
    /// The first error raised *at submission*. Drop the handle to abort:
    /// the runs that were built are deleted and every staged record returns
    /// to its shard.
    pub fn build(&mut self, threads: usize) -> Result<()> {
        let work = std::mem::take(&mut self.work);
        if work.is_empty() {
            return Ok(());
        }
        let table = self.table;
        let built: Mutex<Vec<(u32, Run<R>)>> = Mutex::new(Vec::new());
        let pending: Mutex<Vec<Completion>> = Mutex::new(Vec::new());
        let first_error: Mutex<Option<LsmError>> = Mutex::new(None);
        let next = AtomicUsize::new(0);
        let worker = || loop {
            if first_error.lock().is_some() {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((pidx, records)) = work.get(i) else {
                break;
            };
            match Run::build_async(&table.files, records, &table.config.bloom) {
                Ok(Some((run, io))) => {
                    built.lock().push((*pidx, run));
                    pending.lock().extend(io);
                }
                Ok(None) => {}
                Err(e) => {
                    first_error.lock().get_or_insert(e);
                    break;
                }
            }
        };
        let threads = threads.clamp(1, work.len());
        if threads == 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(worker);
                }
            });
        }
        // Whatever was built belongs to the handle, so that dropping it
        // after an error deletes those runs too. (Returning drops the
        // collected completions, which retires their device accounting
        // without delivering results to anyone.)
        self.built = built.into_inner();
        self.built.sort_by_key(|entry| entry.0);
        if let Some(e) = first_error.into_inner() {
            return Err(e);
        }
        self.pending_io = pending.into_inner();
        self.stats = FlushStats {
            records_flushed: work.iter().map(|(_, recs)| recs.len() as u64).sum(),
            runs_created: self.built.len() as u32,
            pages_written: self
                .built
                .iter()
                .map(|(_, run)| run.stats().total_pages)
                .sum(),
        };
        Ok(())
    }

    /// The flush totals (records staged, runs built, pages written) as
    /// [`commit`](Self::commit) will report them.
    pub fn stats(&self) -> FlushStats {
        self.stats
    }

    /// Whether the prepared flush holds no runs at all (nothing was staged).
    pub fn is_empty(&self) -> bool {
        self.built.is_empty() && self.staged.is_empty()
    }

    /// The built-but-uninstalled runs as `(partition, run)`, ascending by
    /// partition — what a consistency-point manifest appends to each
    /// partition's installed-run list (newest last) so the flushed records
    /// survive a crash that lands after the superblock flip but before any
    /// in-memory commit.
    pub fn built_runs(&self) -> &[(u32, Run<R>)] {
        &self.built
    }

    /// Waits for every in-flight run-page write submitted by
    /// [`prepare_flush`](LsmTable::prepare_flush). Must succeed
    /// (or the pending I/O must be drained through
    /// [`take_pending_io`](Self::take_pending_io) and waited externally)
    /// before [`commit`](Self::commit).
    ///
    /// # Errors
    ///
    /// The first failing write's error; remaining in-flight writes are
    /// abandoned (their device accounting still retires). Drop the handle
    /// afterwards to abort — built runs are deleted and staged records
    /// restored.
    pub fn wait_io(&mut self) -> Result<()> {
        let pending = std::mem::take(&mut self.pending_io);
        for completion in pending {
            completion.wait()?;
        }
        Ok(())
    }

    /// Hands the in-flight write completions to the caller, leaving the
    /// handle with none pending. A durable consistency point uses this to
    /// merge all three tables' flush I/O (plus its manifest appends) into a
    /// single wait-then-barrier step instead of draining each table's queue
    /// separately.
    pub fn take_pending_io(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.pending_io)
    }

    /// Installs every built run and unstages its records, partition by
    /// partition: under the partition lock + shard lock, the deletion marks
    /// deferred for staged records enter the partition's deletion vector and
    /// the run is appended, in the same atomic step — a concurrent query
    /// observes each record in the write store or in the new run, never in
    /// both and never in neither. Infallible: no device I/O happens here.
    ///
    /// # Panics
    ///
    /// If in-flight writes from
    /// [`prepare_flush`](LsmTable::prepare_flush) were neither
    /// waited ([`wait_io`](Self::wait_io)) nor drained
    /// ([`take_pending_io`](Self::take_pending_io)) — committing runs whose
    /// pages may still fail would break the all-or-nothing flush contract.
    pub fn commit(mut self) -> FlushStats {
        assert!(
            self.pending_io.is_empty() && self.work.is_empty(),
            "PreparedFlush::commit with staged records unbuilt or writes still pending"
        );
        let built = std::mem::take(&mut self.built);
        let mut with_runs: Vec<u32> = Vec::with_capacity(built.len());
        for (pidx, run) in built {
            with_runs.push(pidx);
            // Lock order (partition state, then shard) matches the query
            // path.
            let mut st = self.table.partitions[pidx as usize].write();
            let mut shard = self.table.ws.lock_shard(pidx);
            let deferred = shard.commit_flush();
            if !deferred.is_empty() {
                let dv = Arc::make_mut(&mut st.deletions);
                for mark in deferred {
                    dv.insert(mark);
                }
            }
            Arc::make_mut(&mut st.runs).push(Arc::new(run));
        }
        // Defensive: a staged shard without a built run cannot happen today
        // (staging hands back only non-empty record sets, and building a
        // non-empty set always yields a run), but if it ever does, its
        // deferred deletion marks still belong in the partition's vector.
        for &pidx in &self.staged {
            if with_runs.contains(&pidx) {
                continue;
            }
            let mut st = self.table.partitions[pidx as usize].write();
            let mut shard = self.table.ws.lock_shard(pidx);
            let deferred = shard.commit_flush();
            if !deferred.is_empty() {
                let dv = Arc::make_mut(&mut st.deletions);
                for mark in deferred {
                    dv.insert(mark);
                }
            }
        }
        self.done = true;
        self.stats
    }

    /// Explicitly abandons the prepared flush (equivalent to dropping it):
    /// built run files are deleted and staged records return to their
    /// shards.
    pub fn abort(self) {
        // Drop does the work.
    }
}

impl<R: Record> Drop for PreparedFlush<'_, R> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        for (_, run) in std::mem::take(&mut self.built) {
            let _ = run.delete();
        }
        for &pidx in &self.staged {
            self.table.ws.lock_shard(pidx).restore_flush();
        }
    }
}

/// One logical LSM table: an in-memory write store plus the Level-0 runs
/// accumulated since the last maintenance pass, horizontally partitioned by
/// block number.
///
/// Backlog instantiates three of these — `From`, `To` and `Combined` — on a
/// shared [`FileStore`]. The table is deliberately unaware of the semantics
/// of its records; joining `From` and `To`, structural inheritance and
/// version masking all live in the `backlog` crate.
///
/// # Concurrency model
///
/// The whole mutation surface takes `&self`; the table is safe to share
/// across writer, reader, flusher and maintenance threads simultaneously.
///
/// *Writes.* The write store is sharded by partition
/// ([`ShardedWriteStore`]): [`insert`](Self::insert),
/// [`ws_remove`](Self::ws_remove) and [`mark_deleted`](Self::mark_deleted)
/// lock only the touched partition's shard, so callbacks from different
/// threads serialize only when they hit the same partition (contended
/// acquisitions are counted in the device's
/// [`lock_contentions`](blockdev::IoStatsSnapshot::lock_contentions)).
///
/// *Flushes.* [`flush_cp`](Self::flush_cp) is build-then-swap per partition:
/// each shard's records are *staged* (query-visible, treated as durable by
/// removals), the replacement run is built with no locks held, and a commit
/// under the partition lock + shard lock installs the run and unstages the
/// records in one atomic step — a concurrent query sees every record in
/// exactly one place. On a device error the staged records return to the
/// shard, so a failed consistency point loses nothing.
/// [`prepare_flush`](Self::prepare_flush) is the staged form a consistency
/// point drives, and fans independent partition builds onto scoped worker
/// threads.
///
/// *Reads and rebuilds.* On-disk state is shared and swappable: each
/// partition holds an `Arc<Vec<Arc<Run>>>` run list plus its deletion marks
/// behind a read/write lock, the table's only partition lock. Reads capture
/// the `Arc`s under a [`PartitionReadGuard`], release it and stream from
/// immutable runs; rebuilds build replacements off to the side, holding no
/// lock, and [`PartitionWriteGuard::commit_rebuild`] swaps in the
/// replacement while *preserving* state that arrived after the rebuild's
/// snapshot (Level-0 runs appended by a racing flush, deletion marks added
/// by a racing relocation). Replaced runs are retired, not deleted — their
/// files are reclaimed when the last snapshot drops — so readers always
/// observe a partition as fully old or fully new.
///
/// Two rebuilds of the *same* partition may run at once: the commit detects
/// the second as stale (its snapshot's runs are no longer installed),
/// deletes its output and leaves the partition as the first left it.
#[derive(Debug)]
pub struct LsmTable<R: Record> {
    files: Arc<FileStore>,
    config: TableConfig,
    ws: ShardedWriteStore<R>,
    /// Swappable per-partition disk state.
    partitions: Vec<RwLock<PartitionState<R>>>,
    /// Serializes whole-table flushes against each other (two overlapping
    /// flushes of one partition would build duplicate runs from the same
    /// staged records). Writers and queries never take this lock.
    flush_lock: Mutex<()>,
}

impl<R: Record> LsmTable<R> {
    /// Creates an empty table whose runs will be stored in `files`.
    pub fn new(files: Arc<FileStore>, config: TableConfig) -> Self {
        let partitions = config.partitioning.partition_count() as usize;
        LsmTable {
            ws: ShardedWriteStore::new(config.partitioning, files.device().clone()),
            files,
            config,
            partitions: (0..partitions)
                .map(|_| RwLock::new(PartitionState::empty()))
                .collect(),
            flush_lock: Mutex::new(()),
        }
    }

    /// Rebuilds a table from the per-partition state a consistency-point
    /// manifest recorded. The backing run files must already be live in
    /// `files` (see [`FileStore::restore`](blockdev::FileStore::restore));
    /// each run is reopened from its [`RunMeta`] without reading a page, and
    /// the deletion vectors are repopulated. The write store starts empty —
    /// its contents were volatile by definition and are recovered, if at
    /// all, by replaying the engine's on-device journal.
    ///
    /// # Errors
    ///
    /// Returns [`LsmError::CorruptRun`] if `parts` does not have exactly one
    /// entry per configured partition, a run's geometry disagrees with its
    /// file, or a record is filed under the wrong partition.
    pub fn open_from_manifest(
        files: Arc<FileStore>,
        config: TableConfig,
        parts: Vec<PartitionManifest<R>>,
    ) -> Result<Self> {
        let partition_count = config.partitioning.partition_count() as usize;
        if parts.len() != partition_count {
            return Err(LsmError::CorruptRun {
                detail: format!(
                    "table {} manifest has {} partitions, config says {partition_count}",
                    config.name,
                    parts.len()
                ),
            });
        }
        let mut partitions = Vec::with_capacity(partition_count);
        for (pidx, part) in parts.into_iter().enumerate() {
            let (min, max) = config.partitioning.key_range(pidx as u32);
            let mut runs = Vec::with_capacity(part.runs.len());
            for meta in &part.runs {
                if meta.records > 0 && (meta.min_key < min || meta.max_key > max) {
                    return Err(LsmError::CorruptRun {
                        detail: format!(
                            "run {} keys [{}, {}] escape partition {pidx} [{min}, {max}]",
                            meta.file, meta.min_key, meta.max_key
                        ),
                    });
                }
                runs.push(Arc::new(Run::open_from_meta(&files, meta)?));
            }
            let mut deletions = DeletionVector::new();
            for rec in part.deletions {
                let key = rec.partition_key();
                if key < min || key > max {
                    return Err(LsmError::CorruptRun {
                        detail: format!(
                            "deletion mark for key {key} filed under partition {pidx} [{min}, {max}]"
                        ),
                    });
                }
                deletions.insert(rec);
            }
            partitions.push(RwLock::new(PartitionState {
                runs: Arc::new(runs),
                deletions: Arc::new(deletions),
            }));
        }
        Ok(LsmTable {
            ws: ShardedWriteStore::new(config.partitioning, files.device().clone()),
            files,
            config,
            partitions,
            flush_lock: Mutex::new(()),
        })
    }

    /// The table configuration.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// The file store holding this table's runs.
    pub fn files(&self) -> &Arc<FileStore> {
        &self.files
    }

    /// Buffers a record in its partition's write-store shard.
    pub fn insert(&self, record: R) {
        self.ws.insert(record);
    }

    /// Removes an exact record from the write store (proactive pruning).
    /// Returns `true` if the record was buffered (records staged by an
    /// in-flight flush count as durable and report `false`).
    pub fn ws_remove(&self, record: &R) -> bool {
        self.ws.remove(record)
    }

    /// Whether the exact record is currently buffered in the write store.
    pub fn ws_contains(&self, record: &R) -> bool {
        self.ws.contains(record)
    }

    /// Number of records buffered in the write store.
    pub fn ws_len(&self) -> usize {
        self.ws.len()
    }

    /// Approximate memory footprint of the buffered records in bytes.
    pub fn ws_approx_bytes(&self) -> usize {
        self.ws.approx_bytes()
    }

    /// Locks and returns partition `pidx`'s write-store shard, so a caller
    /// applying a batch of operations to one partition pays for the lock
    /// acquisition once (the engine's `WriteBatch` path).
    ///
    /// # Panics
    ///
    /// Panics if `pidx` is out of range.
    pub fn ws_shard(&self, pidx: u32) -> MutexGuard<'_, WriteShard<R>> {
        self.ws.lock_shard(pidx)
    }

    /// Number of on-disk runs across all partitions.
    pub fn run_count(&self) -> u32 {
        self.partitions
            .iter()
            .map(|p| p.read().runs.len() as u32)
            .sum()
    }

    /// Number of horizontal partitions (from the table's
    /// [`Partitioning`](crate::Partitioning)).
    pub fn partition_count(&self) -> u32 {
        self.config.partitioning.partition_count()
    }

    /// Number of on-disk runs in one partition.
    ///
    /// # Panics
    ///
    /// Panics if `pidx` is out of range.
    pub fn partition_run_count(&self, pidx: u32) -> u32 {
        self.partitions[pidx as usize].read().runs.len() as u32
    }

    /// Disk-resident records stored in partition `pidx` (before
    /// deletion-vector masking).
    ///
    /// # Panics
    ///
    /// Panics if `pidx` is out of range.
    pub fn partition_disk_records(&self, pidx: u32) -> u64 {
        self.partitions[pidx as usize]
            .read()
            .runs
            .iter()
            .map(|r| r.len())
            .sum()
    }

    /// Read-locks partition `pidx`. All read paths — queries, scans and the
    /// streaming rebuild pipeline — capture [`PartitionSnapshot`]s under the
    /// guard and stream after dropping it, which is what lets them run
    /// concurrently with partition swaps.
    ///
    /// # Panics
    ///
    /// Panics if `pidx` is out of range.
    pub fn read_partition(&self, pidx: u32) -> PartitionReadGuard<'_, R> {
        PartitionReadGuard {
            table: self,
            pidx,
            state: self.partitions[pidx as usize].read(),
        }
    }

    /// Write-locks partition `pidx`, to commit a rebuild under.
    ///
    /// # Panics
    ///
    /// Panics if `pidx` is out of range.
    pub fn write_partition(&self, pidx: u32) -> PartitionWriteGuard<'_, R> {
        PartitionWriteGuard {
            table: self,
            pidx,
            state: self.partitions[pidx as usize].write(),
        }
    }

    /// Marks a record as deleted without touching the run files
    /// (C-Store-style deletion vector).
    ///
    /// A record still in the write store's active set is simply removed. A
    /// record *staged* by an in-flight flush is unstaged at once and its
    /// mark deferred: it enters the partition's deletion vector in the same
    /// atomic step that installs the flush's run, so the vector never holds
    /// a mark for a record that is not yet on disk (a rebuild snapshot
    /// taken mid-flush would otherwise treat such a mark as consumed and
    /// resurrect the record). A durable record is masked directly.
    pub fn mark_deleted(&self, record: R) {
        let pidx = self
            .config
            .partitioning
            .partition_of(record.partition_key());
        // Lock order (partition state, then shard) matches the query and
        // flush-commit paths.
        let mut st = self.partitions[pidx as usize].write();
        let mut shard = self.ws.lock_shard(pidx);
        if shard.remove(&record) || shard.defer_mark(&record) {
            return;
        }
        Arc::make_mut(&mut st.deletions).insert(record);
    }

    /// Records currently masked by deletion vectors, across all partitions.
    pub fn deleted_records(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.read().deletions.len() as u64)
            .sum()
    }

    /// Flushes the write store into one new Level-0 run per non-empty
    /// partition, inline on the calling thread:
    /// [`prepare_flush`](Self::prepare_flush), one wait for the submitted
    /// pages, then [`PreparedFlush::commit`]. All-or-nothing.
    ///
    /// # Errors
    ///
    /// Propagates device errors. On error *no* partition keeps a new run —
    /// every staged record returns to its shard, exactly as if the flush had
    /// never been attempted — so the caller can retry once the device
    /// recovers.
    pub fn flush_cp(&self) -> Result<FlushStats> {
        let mut prep = self.prepare_flush(1)?;
        // An error drops `prep`, which aborts: built runs deleted, staged
        // shards restored.
        prep.wait_io()?;
        Ok(prep.commit())
    }

    /// Takes the table's flush lock and returns a flush with nothing staged
    /// yet; the caller [`stage`](PreparedFlush::stage)s shards and then
    /// [`build`](PreparedFlush::build)s. Concurrent flushes block until the
    /// handle is committed or dropped.
    pub fn begin_flush(&self) -> PreparedFlush<'_, R> {
        PreparedFlush {
            table: self,
            _flush: self.flush_lock.lock(),
            staged: Vec::new(),
            work: Vec::new(),
            built: Vec::new(),
            pending_io: Vec::new(),
            stats: FlushStats::default(),
            done: false,
        }
    }

    /// Stages every shard of the write store and builds one Level-0 run per
    /// non-empty partition **without installing anything**:
    /// [`begin_flush`](Self::begin_flush), [`PreparedFlush::stage`] over the
    /// shards in ascending order, [`PreparedFlush::build`] on `threads`
    /// workers. The staged records stay query-visible in their shards, the
    /// partitions' run lists are untouched, and the built runs are
    /// referenced only by the returned handle, whose page writes are
    /// submitted but not waited for — the device services the whole flush at
    /// full queue depth while the caller stages the next table's flush or
    /// encodes a manifest, before waiting once for everything.
    ///
    /// The caller either [`commit`](PreparedFlush::commit)s the prepared
    /// flush — installing every run and unstaging its records in one
    /// per-partition atomic step — or drops it, which aborts: built run
    /// files are deleted and every staged record returns to its shard. This
    /// split is what lets a durable consistency point make its *entire*
    /// flush conditional on the manifest and superblock reaching the device:
    /// committing only after the flip means a failed CP leaves the table
    /// exactly as it was, preserving the invariant that a same-interval
    /// add/remove pair is always pruned in the write store (a half-installed
    /// flush would strand the add in a run where the remove can no longer
    /// reach it, and the pair would later resurrect as a live reference).
    ///
    /// # Errors
    ///
    /// The first error raised *at submission*; the table is left untouched
    /// (staged records restored, partial runs deleted). Errors on a
    /// completion surface from [`PreparedFlush::wait_io`] (or the caller's
    /// own wait); drop the handle to abort.
    pub fn prepare_flush(&self, threads: usize) -> Result<PreparedFlush<'_, R>> {
        let mut flush = self.begin_flush();
        for pidx in 0..self.ws.shard_count() {
            flush.stage(pidx, &mut self.ws.lock_shard(pidx));
        }
        flush.build(threads)?;
        Ok(flush)
    }

    /// Returns every record (write store and runs) whose partition key falls
    /// in `min..=max`, sorted, with deletion-vector records removed: each
    /// partition is captured under its [`PartitionReadGuard`], then the
    /// capture is merged with no lock held ([`RangeCapture::into_records`]).
    ///
    /// # Errors
    ///
    /// Propagates device errors from reading run pages.
    pub fn query_range(&self, min: u64, max: u64) -> Result<Vec<R>> {
        let mut capture = RangeCapture::new(self, min, max);
        for p in capture.partitions() {
            self.read_partition(p).capture(&mut capture);
        }
        capture.into_records()
    }

    /// Returns all records in the table (write store and runs), sorted, with
    /// deleted records removed.
    pub fn scan_all(&self) -> Result<Vec<R>> {
        self.query_range(0, u64::MAX)
    }

    /// Returns only the disk-resident records (ignores the write store),
    /// sorted, with deleted records removed. Database maintenance operates on
    /// this view: write-store records always survive maintenance untouched.
    pub fn scan_disk(&self) -> Result<Vec<R>> {
        let mut capture = RangeCapture::new(self, 0, u64::MAX);
        for p in capture.partitions() {
            let snap = self.read_partition(p).snapshot();
            capture.snaps.push(snap);
        }
        capture.into_records()
    }

    /// Creates a [`RunBuilder`] on this table's file store, with a Bloom
    /// filter sized for `expected_records`, for assembling a replacement run
    /// outside the table (the write stage of the streaming rebuild pipeline).
    /// Install the finished run with [`PartitionWriteGuard::commit_rebuild`].
    pub fn new_run_builder(&self, expected_records: usize) -> RunBuilder<R> {
        RunBuilder::with_capacity(self.files.clone(), &self.config.bloom, expected_records)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> TableStats {
        let mut disk = RunStats::default();
        let mut bloom_bytes = 0u64;
        let mut index_bytes = 0u64;
        let mut run_count = 0u32;
        let mut deleted_records = 0u64;
        for part in &self.partitions {
            let st = part.read();
            for run in st.runs.iter() {
                let s = run.stats();
                disk.records += s.records;
                disk.total_pages += s.total_pages;
                disk.record_bytes += s.record_bytes;
                bloom_bytes += run.bloom().size_bytes() as u64;
                index_bytes += run.index_bytes() as u64;
                run_count += 1;
            }
            deleted_records += st.deletions.len() as u64;
        }
        TableStats {
            ws_records: self.ws.len() as u64,
            run_count,
            disk_records: disk.records,
            disk_pages: disk.total_pages,
            disk_record_bytes: disk.record_bytes,
            bloom_bytes,
            index_bytes,
            deleted_records,
        }
    }

    /// Total bytes the table occupies on the device (pages × page size).
    pub fn disk_bytes(&self) -> u64 {
        self.stats().disk_pages * blockdev::PAGE_SIZE as u64
    }
}

// Compile-time `Send + Sync` guarantees (static_assertions-style), checked
// for every record type: concurrent maintenance shares `&LsmTable` across
// worker threads and readers stream from `PartitionSnapshot`s concurrently.
#[allow(dead_code)]
fn _assert_send_sync<R: Record>() {
    fn assert<T: Send + Sync>() {}
    assert::<LsmTable<R>>();
    assert::<PartitionSnapshot<R>>();
    assert::<Run<R>>();
    assert::<RunBuilder<R>>();
    assert::<DeletionVector<R>>();
}

/// Adapts a fallible record stream into an infallible one for the k-way
/// merge: the first error is parked in `sink` and the stream ends, which
/// aborts the merge cleanly (the caller checks the cell afterwards).
struct CaptureErrors<'a, R, I: Iterator<Item = Result<R>>> {
    inner: I,
    sink: &'a Cell<Option<LsmError>>,
}

impl<R, I: Iterator<Item = Result<R>>> Iterator for CaptureErrors<'_, R, I> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        match self.inner.next() {
            Some(Ok(r)) => Some(r),
            Some(Err(e)) => {
                self.sink.set(Some(e));
                None
            }
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_support::TestRec;
    use blockdev::{Device, DeviceConfig, SimDisk};

    fn table() -> (Arc<SimDisk>, LsmTable<TestRec>) {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk.clone()));
        (disk, LsmTable::new(files, TableConfig::named("test")))
    }

    /// `flush_cp` with the partition builds fanned across `threads` workers.
    fn flush_threads(t: &LsmTable<TestRec>, threads: usize) -> Result<FlushStats> {
        let mut prep = t.prepare_flush(threads)?;
        prep.wait_io()?;
        Ok(prep.commit())
    }

    /// Rebuilds partition `pidx` from `snap` into one run through the guard
    /// API, as maintenance does for each table: stream with no lock held,
    /// then commit under the write guard. Returns whether the commit
    /// installed the run (`false`: `snap` was stale).
    fn rebuild_from(
        t: &LsmTable<TestRec>,
        pidx: u32,
        snap: &PartitionSnapshot<TestRec>,
    ) -> Result<bool> {
        let mut builder = t.new_run_builder(snap.disk_records() as usize);
        let streamed: Result<()> = (|| {
            for item in snap.iter_disk()? {
                builder.push(&item?)?;
            }
            Ok(())
        })();
        if let Err(e) = streamed {
            builder.abandon();
            return Err(e);
        }
        let run = builder.finish_nonempty()?;
        Ok(t.write_partition(pidx).commit_rebuild(run, snap))
    }

    /// [`rebuild_from`] a fresh snapshot of partition `pidx`.
    fn rebuild(t: &LsmTable<TestRec>, pidx: u32) -> Result<bool> {
        let snap = t.read_partition(pidx).snapshot();
        rebuild_from(t, pidx, &snap)
    }

    /// [`rebuild`]s every partition in turn.
    fn rebuild_all(t: &LsmTable<TestRec>) -> Result<()> {
        for pidx in 0..t.partition_count() {
            rebuild(t, pidx)?;
        }
        Ok(())
    }

    #[test]
    fn query_sees_ws_and_runs() {
        let (_d, t) = table();
        t.insert(TestRec::new(1, 10));
        t.insert(TestRec::new(2, 20));
        t.flush_cp().unwrap();
        t.insert(TestRec::new(3, 30));
        let all = t.scan_all().unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(t.query_range(2, 3).unwrap().len(), 2);
        assert_eq!(t.ws_len(), 1);
        assert_eq!(t.run_count(), 1);
    }

    #[test]
    fn flush_empty_ws_is_noop() {
        let (_d, t) = table();
        let stats = t.flush_cp().unwrap();
        assert_eq!(stats, FlushStats::default());
        assert_eq!(t.run_count(), 0);
    }

    #[test]
    fn each_flush_creates_a_level0_run() {
        let (_d, t) = table();
        for cp in 0..5u64 {
            for i in 0..100u64 {
                t.insert(TestRec::new(cp * 100 + i, cp));
            }
            t.flush_cp().unwrap();
        }
        assert_eq!(t.run_count(), 5);
        assert_eq!(t.stats().disk_records, 500);
    }

    #[test]
    fn compaction_merges_runs_into_one() {
        let (_d, t) = table();
        for cp in 0..5u64 {
            for i in 0..50u64 {
                t.insert(TestRec::new(i * 10 + cp, cp));
            }
            t.flush_cp().unwrap();
        }
        let before = t.scan_all().unwrap();
        assert_eq!(t.run_count(), 5);
        assert!(rebuild(&t, 0).unwrap());
        assert_eq!(t.stats().disk_records, 250);
        assert_eq!(
            t.scan_all().unwrap(),
            before,
            "compaction preserves contents"
        );
        assert_eq!(t.run_count(), 1);
    }

    #[test]
    fn bloom_filters_avoid_reads_for_absent_keys() {
        let (disk, t) = table();
        for cp in 0..10u64 {
            for i in 0..100u64 {
                t.insert(TestRec::new(cp * 1_000 + i, 0));
            }
            t.flush_cp().unwrap();
        }
        let before = disk.stats().snapshot();
        // Query a key far away from anything stored: every run is skipped by
        // its key bounds / bloom filter.
        assert!(t.query_range(500_000, 500_000).unwrap().is_empty());
        let after = disk.stats().snapshot();
        assert_eq!(after.page_reads, before.page_reads);
    }

    #[test]
    fn deletion_vector_hides_records_until_rewrite() {
        let (_d, t) = table();
        for i in 0..10u64 {
            t.insert(TestRec::new(i, i));
        }
        t.flush_cp().unwrap();
        t.mark_deleted(TestRec::new(3, 3));
        t.mark_deleted(TestRec::new(4, 4));
        assert_eq!(t.scan_all().unwrap().len(), 8);
        assert_eq!(t.stats().deleted_records, 2);
        assert_eq!(t.deleted_records(), 2);
        rebuild_all(&t).unwrap();
        assert_eq!(t.stats().disk_records, 8);
        assert_eq!(t.stats().deleted_records, 0);
        assert_eq!(t.scan_all().unwrap().len(), 8);
    }

    #[test]
    fn mark_deleted_on_buffered_record_prunes_ws() {
        let (_d, t) = table();
        t.insert(TestRec::new(7, 7));
        t.mark_deleted(TestRec::new(7, 7));
        assert_eq!(t.ws_len(), 0);
        assert_eq!(
            t.stats().deleted_records,
            0,
            "no deletion vector entry needed"
        );
    }

    #[test]
    fn partitioned_table_splits_runs_by_key_range() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk));
        let config =
            TableConfig::named("parted").with_partitioning(Partitioning::fixed_ranges(4, 1_000));
        let t = LsmTable::new(files, config);
        for i in 0..4_000u64 {
            t.insert(TestRec::new(i, 0));
        }
        let stats = t.flush_cp().unwrap();
        assert_eq!(stats.runs_created, 4);
        assert_eq!(t.run_count(), 4);
        assert_eq!(t.query_range(1_500, 1_509).unwrap().len(), 10);
        assert_eq!(t.scan_all().unwrap().len(), 4_000);
        rebuild_all(&t).unwrap();
        assert_eq!(t.run_count(), 4);
    }

    #[test]
    fn scan_disk_ignores_write_store() {
        let (_d, t) = table();
        t.insert(TestRec::new(1, 1));
        t.flush_cp().unwrap();
        t.insert(TestRec::new(2, 2));
        assert_eq!(t.scan_disk().unwrap().len(), 1);
        assert_eq!(t.scan_all().unwrap().len(), 2);
    }

    #[test]
    fn failed_flush_returns_records_to_write_store() {
        let (disk, t) = table();
        for i in 0..1000u64 {
            t.insert(TestRec::new(i, i));
        }
        disk.fail_writes_after(1);
        assert!(t.flush_cp().is_err());
        // Nothing was lost: the records are back in the write store and the
        // partially written run file was deleted rather than leaked.
        assert_eq!(t.ws_len(), 1000);
        assert_eq!(t.run_count(), 0);
        assert_eq!(
            t.files().file_count(),
            0,
            "aborted run file must be deleted"
        );
        assert_eq!(t.scan_all().unwrap().len(), 1000);
        // Retry after recovery flushes the same records.
        disk.clear_write_fault();
        let stats = t.flush_cp().unwrap();
        assert_eq!(stats.records_flushed, 1000);
        assert_eq!(t.ws_len(), 0);
        assert_eq!(t.scan_all().unwrap().len(), 1000);
    }

    #[test]
    fn failed_flush_is_all_or_nothing_across_partitions() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk.clone()));
        let config =
            TableConfig::named("parted").with_partitioning(Partitioning::fixed_ranges(4, 1_000));
        let t = LsmTable::new(files, config);
        for i in 0..4_000u64 {
            t.insert(TestRec::new(i, 0));
        }
        // Partition 0 holds 1000 16-byte records: 4 leaves + 1 root = 5
        // pages. Let those through, then fail partition 1 mid-build: even
        // the partition whose run was fully built must NOT be installed —
        // a half-committed flush would strand records in runs where
        // same-interval proactive pruning can no longer reach them.
        disk.fail_writes_after(5);
        assert!(t.flush_cp().is_err());
        disk.clear_write_fault();
        assert_eq!(t.ws_len(), 4_000, "every record returns to the write store");
        assert_eq!(t.stats().disk_records, 0, "no partition keeps a run");
        assert_eq!(t.run_count(), 0);
        assert_eq!(
            t.files().file_count(),
            0,
            "built and partial run files are deleted, not leaked"
        );
        assert_eq!(t.scan_all().unwrap().len(), 4_000, "no record lost");
        t.flush_cp().unwrap();
        assert_eq!(t.ws_len(), 0);
        assert_eq!(t.scan_all().unwrap().len(), 4_000);
    }

    #[test]
    fn prepared_flush_installs_nothing_until_commit() {
        let (_d, t) = table();
        for i in 0..100u64 {
            t.insert(TestRec::new(i, i));
        }
        let mut prep = t.prepare_flush(1).unwrap();
        prep.wait_io().unwrap();
        // Built but not installed: queries still see the records in the
        // write store, the run list is empty, and the manifest-facing metas
        // describe the pending run.
        assert_eq!(t.run_count(), 0);
        assert_eq!(t.ws_len(), 100);
        assert_eq!(t.scan_all().unwrap().len(), 100);
        assert_eq!(prep.stats().records_flushed, 100);
        assert_eq!(prep.built_runs().len(), 1);
        assert_eq!(prep.built_runs()[0].1.len(), 100);
        let stats = prep.commit();
        assert_eq!(stats.records_flushed, 100);
        assert_eq!(t.run_count(), 1);
        assert_eq!(t.ws_len(), 0);
        assert_eq!(t.scan_all().unwrap().len(), 100);
    }

    #[test]
    fn dropped_prepared_flush_aborts_cleanly() {
        let (_d, t) = table();
        for i in 0..100u64 {
            t.insert(TestRec::new(i, i));
        }
        {
            let prep = t.prepare_flush(1).unwrap();
            assert!(!prep.is_empty());
            // Dropped without commit: abort.
        }
        assert_eq!(t.run_count(), 0);
        assert_eq!(t.ws_len(), 100, "staged records return to the shard");
        assert_eq!(t.files().file_count(), 0, "built run file is deleted");
        // The same records flush fine afterwards (the flush lock was
        // released by the drop).
        t.flush_cp().unwrap();
        assert_eq!(t.run_count(), 1);
        assert_eq!(t.scan_all().unwrap().len(), 100);
    }

    #[test]
    fn a_flush_covers_exactly_the_shards_its_caller_staged() {
        // The engine's consistency point stages a partition under guards of
        // its own choosing; whatever it did not stage stays buffered, and a
        // record arriving after the staging is not part of the flush.
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let config =
            TableConfig::named("parted").with_partitioning(Partitioning::fixed_ranges(2, 1_000));
        let t = LsmTable::new(Arc::new(FileStore::new(disk)), config);
        for key in [1u64, 2, 1_001] {
            t.insert(TestRec::new(key, 0));
        }
        let mut flush = t.begin_flush();
        {
            let mut shard = t.ws_shard(0);
            flush.stage(0, &mut shard);
            assert!(!shard.insert(TestRec::new(1, 0)), "staged, still buffered");
        }
        t.insert(TestRec::new(3, 0)); // after the cut of partition 0
        flush.build(1).unwrap();
        flush.wait_io().unwrap();
        assert_eq!(flush.built_runs().len(), 1);
        let stats = flush.commit();
        assert_eq!((stats.records_flushed, stats.runs_created), (2, 1));
        assert_eq!(t.scan_disk().unwrap().len(), 2);
        assert!(t.ws_contains(&TestRec::new(3, 0)), "arrived after the cut");
        assert!(t.ws_contains(&TestRec::new(1_001, 0)), "never staged");
        assert_eq!(t.scan_all().unwrap().len(), 4);
    }

    #[test]
    fn dropping_a_staged_but_unbuilt_flush_restores_the_records() {
        let (_d, t) = table();
        t.insert(TestRec::new(7, 0));
        let mut flush = t.begin_flush();
        flush.stage(0, &mut t.ws_shard(0));
        assert!(!t.ws_remove(&TestRec::new(7, 0)), "staged: not prunable");
        drop(flush);
        assert_eq!(t.files().file_count(), 0);
        assert!(t.ws_remove(&TestRec::new(7, 0)), "active again");
    }

    #[test]
    fn prepare_flush_hands_back_inflight_writes() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency().with_queue_depth(8));
        let files = Arc::new(FileStore::new(disk.clone()));
        let t: LsmTable<TestRec> = LsmTable::new(files, TableConfig::named("async"));
        for i in 0..2_000u64 {
            t.insert(TestRec::new(i, i));
        }
        let mut prep = t.prepare_flush(1).unwrap();
        let pending = prep.take_pending_io();
        assert!(
            !pending.is_empty(),
            "an async prepare leaves completions for the caller"
        );
        for c in pending {
            c.wait().unwrap();
        }
        prep.commit();
        assert_eq!(t.run_count(), 1);
        assert_eq!(t.scan_all().unwrap().len(), 2_000);
        assert!(
            disk.stats().snapshot().max_in_flight > 1,
            "the flush pipelined writes through the device queue"
        );
    }

    #[test]
    fn failed_async_completion_aborts_the_prepared_flush() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency().with_queue_depth(8));
        let files = Arc::new(FileStore::new(disk.clone()));
        let t: LsmTable<TestRec> = LsmTable::new(files, TableConfig::named("async"));
        for i in 0..2_000u64 {
            t.insert(TestRec::new(i, i));
        }
        // Build one clean run so the pipelined flush has >2 writes to fail.
        t.flush_cp().unwrap();
        for i in 2_000..4_000u64 {
            t.insert(TestRec::new(i, i));
        }
        let files_before = t.files().file_count();
        disk.fail_writes_after(2);
        let result = t.prepare_flush(1).and_then(|mut prep| prep.wait_io());
        disk.clear_write_fault();
        assert!(matches!(result, Err(LsmError::Device(_))));
        assert_eq!(t.ws_len(), 2_000, "staged records return to the shard");
        assert_eq!(
            t.files().file_count(),
            files_before,
            "the half-written run file is deleted"
        );
        assert_eq!(t.run_count(), 1, "the earlier run is untouched");
        t.flush_cp().unwrap();
        assert_eq!(t.scan_all().unwrap().len(), 4_000);
    }

    #[test]
    fn compact_fault_leaves_old_runs_intact() {
        let (disk, t) = table();
        for cp in 0..5u64 {
            for i in 0..500u64 {
                t.insert(TestRec::new(i * 5 + cp, cp));
            }
            t.flush_cp().unwrap();
        }
        let before = t.scan_disk().unwrap();
        let files_before = t.files().file_count();
        // Fail every failure point of the rebuild in turn: whichever page
        // write dies, the old runs must stay installed and readable.
        for fail_after in [0u64, 1, 3, 7] {
            disk.fail_writes_after(fail_after);
            assert!(
                rebuild(&t, 0).is_err(),
                "fault at write {fail_after} must surface"
            );
            disk.clear_write_fault();
            assert_eq!(t.run_count(), 5, "old runs survive the failed rebuild");
            assert_eq!(
                t.scan_disk().unwrap(),
                before,
                "contents intact after fault at write {fail_after}"
            );
            assert_eq!(
                t.files().file_count(),
                files_before,
                "partial replacement file must be deleted, not leaked"
            );
        }
        // Once the device recovers, the same rebuild succeeds.
        assert!(rebuild(&t, 0).unwrap());
        assert_eq!(t.run_count(), 1);
        assert_eq!(t.scan_disk().unwrap(), before);
    }

    #[test]
    fn partitioned_compact_fault_leaves_every_partition_consistent() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk.clone()));
        let config =
            TableConfig::named("parted").with_partitioning(Partitioning::fixed_ranges(4, 1_000));
        let t = LsmTable::new(files, config);
        for cp in 0..3u64 {
            for i in 0..4_000u64 {
                t.insert(TestRec::new(i, cp));
            }
            t.flush_cp().unwrap();
        }
        let before = t.scan_disk().unwrap();
        // Partition 0's rebuild succeeds; a later partition's rebuild dies.
        // Each partition must be either fully old or fully rebuilt, and the
        // union of contents unchanged.
        disk.fail_writes_after(8);
        assert!(rebuild_all(&t).is_err());
        disk.clear_write_fault();
        assert_eq!(
            t.scan_disk().unwrap(),
            before,
            "no record lost or duplicated"
        );
        // Recovery completes the compaction.
        rebuild_all(&t).unwrap();
        assert_eq!(t.run_count(), 4);
        assert_eq!(t.scan_disk().unwrap(), before);
    }

    #[test]
    fn rebuild_consumes_deletion_marks_in_stream() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk));
        let config =
            TableConfig::named("parted").with_partitioning(Partitioning::fixed_ranges(2, 1_000));
        let t = LsmTable::new(files, config);
        for i in 0..2_000u64 {
            t.insert(TestRec::new(i, 0));
        }
        t.flush_cp().unwrap();
        t.mark_deleted(TestRec::new(10, 0)); // partition 0
        t.mark_deleted(TestRec::new(1_500, 0)); // partition 1
                                                // Rebuilding partition 0 drops its mark but must keep partition 1's.
        assert!(rebuild(&t, 0).unwrap());
        assert_eq!(t.stats().deleted_records, 1, "other partition's mark kept");
        assert_eq!(t.scan_all().unwrap().len(), 1_998);
        assert!(rebuild(&t, 1).unwrap());
        assert_eq!(t.stats().deleted_records, 0);
        assert_eq!(t.scan_all().unwrap().len(), 1_998);
    }

    #[test]
    fn partition_snapshot_streams_sorted_and_masked() {
        let (_d, t) = table();
        for cp in 0..3u64 {
            for i in 0..100u64 {
                t.insert(TestRec::new(i * 3 + cp, cp));
            }
            t.flush_cp().unwrap();
        }
        t.mark_deleted(TestRec::new(0, 0));
        let snap = t.read_partition(0).snapshot();
        assert_eq!(snap.run_count(), 3);
        assert_eq!(snap.disk_records(), 300);
        assert_eq!(snap.key_range(), (0, u64::MAX));
        let streamed: Result<Vec<TestRec>> = snap.iter_disk().unwrap().collect();
        let streamed = streamed.unwrap();
        assert_eq!(streamed.len(), 299);
        assert!(streamed.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(streamed, t.scan_disk().unwrap());
    }

    #[test]
    fn snapshot_survives_a_concurrent_swap() {
        // A reader's snapshot taken before a rebuild must keep streaming the
        // pre-rebuild state even after the partition has been swapped and
        // the old runs retired.
        let (_d, t) = table();
        for cp in 0..4u64 {
            for i in 0..200u64 {
                t.insert(TestRec::new(i * 4 + cp, cp));
            }
            t.flush_cp().unwrap();
        }
        let before = t.scan_disk().unwrap();
        let files_before = t.files().file_count();
        let snap = t.read_partition(0).snapshot();
        assert_eq!(snap.run_count(), 4);
        assert!(rebuild(&t, 0).unwrap());
        assert_eq!(t.run_count(), 1, "table sees the rebuilt partition");
        // Old run files survive because the snapshot still references them.
        assert_eq!(t.files().file_count(), files_before + 1);
        let streamed: Result<Vec<TestRec>> = snap.iter_disk().unwrap().collect();
        assert_eq!(streamed.unwrap(), before, "snapshot reads pre-swap state");
        drop(snap);
        assert_eq!(
            t.files().file_count(),
            1,
            "dropping the last snapshot reclaims the retired runs"
        );
        assert_eq!(t.scan_disk().unwrap(), before);
    }

    #[test]
    fn concurrent_readers_see_old_or_new_during_compaction() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk));
        let config =
            TableConfig::named("parted").with_partitioning(Partitioning::fixed_ranges(4, 1_000));
        let t = LsmTable::new(files, config);
        for cp in 0..6u64 {
            for i in 0..4_000u64 {
                t.insert(TestRec::new(i, cp));
            }
            t.flush_cp().unwrap();
        }
        let baseline = t.scan_disk().unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let table = &t;
            let done_ref = &done;
            let baseline_ref = &baseline;
            for _ in 0..2 {
                s.spawn(move || {
                    let mut observed = 0u32;
                    while !done_ref.load(Ordering::Relaxed) {
                        // Compaction must be invisible to queries: results
                        // always match the (unchanging) logical contents.
                        let got = table.query_range(1_500, 1_509).unwrap();
                        let want: Vec<TestRec> = baseline_ref
                            .iter()
                            .filter(|r| (1_500..=1_509).contains(&r.key))
                            .cloned()
                            .collect();
                        assert_eq!(got, want);
                        observed += 1;
                    }
                    assert!(observed > 0);
                });
            }
            s.spawn(move || {
                rebuild_all(table).unwrap();
                done_ref.store(true, Ordering::Relaxed);
            });
        });
        assert_eq!(t.run_count(), 4);
        assert_eq!(t.scan_disk().unwrap(), baseline);
        assert_eq!(t.files().file_count(), 4, "no retired file leaked");
    }

    #[test]
    fn narrow_queries_do_not_materialize_full_run_scans() {
        let (disk, t) = table();
        // One large run: 50k 16-byte records = ~197 leaves + index pages.
        for i in 0..50_000u64 {
            t.insert(TestRec::new(i, i));
        }
        t.flush_cp().unwrap();
        let full_scan_pages = {
            let before = disk.stats().snapshot().page_reads;
            assert_eq!(t.scan_all().unwrap().len(), 50_000);
            disk.stats().snapshot().page_reads - before
        };
        let narrow_pages = {
            let before = disk.stats().snapshot().page_reads;
            assert_eq!(t.query_range(25_000, 25_000).unwrap().len(), 1);
            disk.stats().snapshot().page_reads - before
        };
        // A point query reads the one leaf the run's resident fence keys
        // name, while the full scan touches every leaf.
        assert_eq!(narrow_pages, 1, "point query read {narrow_pages} pages");
        assert!(
            full_scan_pages >= 190,
            "full scan expected to touch every leaf, read {full_scan_pages}"
        );
    }

    #[test]
    fn flush_parallel_matches_serial() {
        let mk = || {
            let disk = SimDisk::new_shared(DeviceConfig::free_latency());
            let files = Arc::new(FileStore::new(disk));
            let config = TableConfig::named("parted")
                .with_partitioning(Partitioning::fixed_ranges(4, 1_000));
            let t = LsmTable::new(files, config);
            for i in 0..4_000u64 {
                t.insert(TestRec::new(i, i % 7));
            }
            t
        };
        let serial = mk();
        let parallel = mk();
        let a = serial.flush_cp().unwrap();
        let b = flush_threads(&parallel, 4).unwrap();
        assert_eq!(a, b, "flush stats identical across fan-out widths");
        assert_eq!(serial.scan_disk().unwrap(), parallel.scan_disk().unwrap());
        assert_eq!(parallel.run_count(), 4);
        assert_eq!(parallel.ws_len(), 0);
    }

    #[test]
    fn parallel_flush_fault_loses_no_records() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk.clone()));
        let config =
            TableConfig::named("parted").with_partitioning(Partitioning::fixed_ranges(4, 1_000));
        let t = LsmTable::new(files, config);
        for i in 0..4_000u64 {
            t.insert(TestRec::new(i, 0));
        }
        disk.fail_writes_after(3);
        assert!(flush_threads(&t, 4).is_err());
        disk.clear_write_fault();
        // Whatever subset of partitions committed, the union is intact and a
        // retry completes the flush.
        assert_eq!(t.ws_len() as u64 + t.stats().disk_records, 4_000);
        assert_eq!(t.scan_all().unwrap().len(), 4_000);
        flush_threads(&t, 4).unwrap();
        assert_eq!(t.ws_len(), 0);
        assert_eq!(t.scan_all().unwrap().len(), 4_000);
    }

    #[test]
    fn rebuild_commit_preserves_runs_flushed_after_snapshot() {
        // A CP flush that lands while a rebuild streams must survive the
        // rebuild's commit: only the runs the rebuild consumed are swapped.
        let (_d, t) = table();
        for i in 0..100u64 {
            t.insert(TestRec::new(i, 0));
        }
        t.flush_cp().unwrap();
        let snap = t.read_partition(0).snapshot();
        // Racing flush after the rebuild snapshot.
        for i in 100..150u64 {
            t.insert(TestRec::new(i, 0));
        }
        t.flush_cp().unwrap();
        assert!(rebuild_from(&t, 0, &snap).unwrap());
        assert_eq!(t.run_count(), 2, "racing flush's run survives the swap");
        assert_eq!(t.scan_disk().unwrap().len(), 150, "no record lost");
    }

    #[test]
    fn rebuild_commit_preserves_deletion_marks_added_after_snapshot() {
        let (_d, t) = table();
        for i in 0..10u64 {
            t.insert(TestRec::new(i, 0));
        }
        t.flush_cp().unwrap();
        let snap = t.read_partition(0).snapshot();
        // A relocation marks a record deleted while the rebuild streams; the
        // rebuild's output still contains the record (its snapshot predates
        // the mark), so the mark must survive the commit.
        t.mark_deleted(TestRec::new(3, 0));
        assert!(rebuild_from(&t, 0, &snap).unwrap());
        assert_eq!(t.stats().deleted_records, 1, "racing mark survives");
        let disk = t.scan_disk().unwrap();
        assert_eq!(disk.len(), 9);
        assert!(!disk.contains(&TestRec::new(3, 0)));
        // The next rebuild consumes the mark in-stream and drops it.
        assert!(rebuild(&t, 0).unwrap());
        assert_eq!(t.stats().deleted_records, 0);
        assert_eq!(t.scan_disk().unwrap().len(), 9);
    }

    #[test]
    fn a_stale_rebuild_commit_is_refused_and_deletes_its_output() {
        // Two rebuilds of one partition stream from the same snapshot; the
        // one that commits second would install the records again beside
        // the first one's run.
        let (_d, t) = table();
        for cp in 0..3u64 {
            for i in 0..100u64 {
                t.insert(TestRec::new(i * 3 + cp, cp));
            }
            t.flush_cp().unwrap();
        }
        let snap = t.read_partition(0).snapshot();
        assert!(t.write_partition(0).holds(&snap));
        assert!(rebuild(&t, 0).unwrap(), "the competing rebuild commits");
        assert!(!t.write_partition(0).holds(&snap));
        let installed = t.read_partition(0).snapshot();
        let contents = t.scan_disk().unwrap();
        let files = t.files().file_count();
        assert!(!rebuild_from(&t, 0, &snap).unwrap(), "reported stale");
        assert!(
            t.read_partition(0).snapshot().same_runs(&installed),
            "partition unchanged"
        );
        assert_eq!(t.scan_disk().unwrap(), contents);
        assert_eq!(contents.len(), 300, "no record installed twice");
        assert_eq!(t.files().file_count(), files, "stale output deleted");
    }

    #[test]
    fn mark_on_staged_record_defers_until_the_flush_commit() {
        // Regression test: a record staged by an in-flight flush must not
        // put its deletion mark in the partition's vector before the
        // flush's run is installed — a rebuild snapshot taken in that
        // window would treat the mark as consumed, and its commit would
        // clear it while the racing flush installs the record, resurrecting
        // a deleted record.
        let (_d, t) = table();
        t.insert(TestRec::new(1, 0));
        t.insert(TestRec::new(2, 0));
        let staged = t.ws_shard(0).stage(); // a CP flush is now "in flight"
        assert_eq!(staged.len(), 2);
        t.mark_deleted(TestRec::new(1, 0));
        // Unstaged at once and invisible, but the deletion vector — which a
        // rebuild snapshot would capture — is still empty.
        assert_eq!(t.scan_all().unwrap(), vec![TestRec::new(2, 0)]);
        assert_eq!(t.stats().deleted_records, 0, "mark deferred, not in the DV");
        assert_eq!(t.read_partition(0).snapshot().deletions().len(), 0);
        // The flush commit hands the deferred mark back to be applied in
        // the same critical section that installs the run.
        let deferred = t.ws_shard(0).commit_flush();
        assert_eq!(deferred, vec![TestRec::new(1, 0)]);
    }

    #[test]
    fn mark_on_staged_record_is_dropped_when_the_flush_fails() {
        let (_d, t) = table();
        t.insert(TestRec::new(1, 0));
        t.ws_shard(0).stage();
        t.mark_deleted(TestRec::new(1, 0));
        // The flush fails: the record was deleted while buffered, so it
        // simply ceases to exist — no run, no mark, nothing restored.
        t.ws_shard(0).restore_flush();
        assert_eq!(t.ws_len(), 0);
        assert_eq!(t.stats().deleted_records, 0);
        assert!(t.scan_all().unwrap().is_empty());
        assert!(t.ws_shard(0).commit_flush().is_empty(), "no mark lingers");
    }

    #[test]
    fn writers_race_flush_and_queries_without_losing_records() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk));
        let config =
            TableConfig::named("parted").with_partitioning(Partitioning::fixed_ranges(4, 1_000));
        let t = LsmTable::new(files, config);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let table = &t;
            let done_ref = &done;
            // Four writers, each owning one partition's key range.
            let writers: Vec<_> = (0..4u64)
                .map(|w| {
                    s.spawn(move || {
                        for i in 0..500u64 {
                            table.insert(TestRec::new(w * 1_000 + i, 0));
                        }
                    })
                })
                .collect();
            // Flusher and reader race the writers.
            s.spawn(move || {
                while !done_ref.load(Ordering::Relaxed) {
                    flush_threads(table, 2).unwrap();
                }
                // Final flush after the writers are done drains everything.
                table.flush_cp().unwrap();
            });
            s.spawn(move || {
                while !done_ref.load(Ordering::Relaxed) {
                    // Buffered and flushed records must never double up.
                    let got = table.query_range(0, 0).unwrap();
                    assert!(got.len() <= 1, "record seen twice: {got:?}");
                }
            });
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(t.ws_len(), 0, "final flush drained the store");
        assert_eq!(
            t.scan_all().unwrap().len(),
            2_000,
            "every record exactly once"
        );
    }

    #[test]
    fn manifest_roundtrip_reopens_identical_table() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk.clone()));
        let mk_config =
            || TableConfig::named("parted").with_partitioning(Partitioning::fixed_ranges(4, 1_000));
        let t = LsmTable::new(files.clone(), mk_config());
        for cp in 0..3u64 {
            for i in 0..4_000u64 {
                t.insert(TestRec::new(i, cp));
            }
            t.flush_cp().unwrap();
        }
        t.mark_deleted(TestRec::new(10, 0));
        t.mark_deleted(TestRec::new(3_500, 2));
        let want = t.scan_disk().unwrap();
        let want_stats = t.stats();
        let reads_before = disk.stats().snapshot().page_reads;
        // Capture the manifest and reopen on the same file store (the files
        // are still live, as they would be after FileStore::restore).
        let parts: Vec<PartitionManifest<TestRec>> = (0..4)
            .map(|p| t.read_partition(p).snapshot().manifest())
            .collect();
        drop(t);
        let reopened = LsmTable::open_from_manifest(files, mk_config(), parts).unwrap();
        assert_eq!(
            disk.stats().snapshot().page_reads,
            reads_before,
            "reopening reads no pages"
        );
        assert_eq!(reopened.scan_disk().unwrap(), want);
        let got_stats = reopened.stats();
        assert_eq!(got_stats.run_count, want_stats.run_count);
        assert_eq!(got_stats.disk_records, want_stats.disk_records);
        assert_eq!(got_stats.deleted_records, 2);
        assert_eq!(got_stats.bloom_bytes, want_stats.bloom_bytes);
        // The reopened table is fully functional: bloom filters still skip
        // absent keys, inserts and flushes still work.
        let reads = disk.stats().snapshot().page_reads;
        assert!(reopened.query_range(999_999, 999_999).unwrap().is_empty());
        assert_eq!(disk.stats().snapshot().page_reads, reads);
        reopened.insert(TestRec::new(42, 9));
        reopened.flush_cp().unwrap();
        assert_eq!(reopened.scan_all().unwrap().len(), want.len() + 1);
    }

    #[test]
    fn open_from_manifest_rejects_inconsistent_state() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let files = Arc::new(FileStore::new(disk));
        let config =
            TableConfig::named("parted").with_partitioning(Partitioning::fixed_ranges(2, 1_000));
        let t = LsmTable::new(files.clone(), config.clone());
        for i in 0..2_000u64 {
            t.insert(TestRec::new(i, 0));
        }
        t.flush_cp().unwrap();
        let parts: Vec<PartitionManifest<TestRec>> = (0..2)
            .map(|p| t.read_partition(p).snapshot().manifest())
            .collect();
        // Wrong partition count.
        let r = LsmTable::open_from_manifest(files.clone(), config.clone(), parts[..1].to_vec());
        assert!(matches!(r, Err(LsmError::CorruptRun { .. })));
        // Runs filed under the wrong partition.
        let swapped = vec![parts[1].clone(), parts[0].clone()];
        let r = LsmTable::open_from_manifest(files.clone(), config.clone(), swapped);
        assert!(matches!(r, Err(LsmError::CorruptRun { .. })));
        // Geometry that disagrees with the backing file.
        let mut bad = parts.clone();
        bad[0].runs[0].root_page += 1;
        let r = LsmTable::open_from_manifest(files.clone(), config.clone(), bad);
        assert!(matches!(r, Err(LsmError::CorruptRun { .. })));
        // Deletion mark filed under the wrong partition.
        let mut bad = parts;
        bad[0].deletions.push(TestRec::new(1_500, 0));
        let r = LsmTable::open_from_manifest(files, config, bad);
        assert!(matches!(r, Err(LsmError::CorruptRun { .. })));
    }

    #[test]
    fn stats_track_sizes() {
        let (_d, t) = table();
        for i in 0..1000u64 {
            t.insert(TestRec::new(i, i));
        }
        t.flush_cp().unwrap();
        let s = t.stats();
        assert_eq!(s.disk_records, 1000);
        assert!(s.disk_pages > 0);
        assert_eq!(s.disk_record_bytes, 1000 * 16);
        assert!(s.bloom_bytes > 0);
        assert!(t.disk_bytes() >= s.disk_record_bytes);
    }

    #[test]
    fn index_bytes_are_eight_per_leaf_and_small_beside_the_bloom_filters() {
        let (_d, t) = table();
        for batch in 0..3u64 {
            for i in 0..10_000u64 {
                t.insert(TestRec::new(batch * 10_000 + i, i));
            }
            t.flush_cp().unwrap();
        }
        let leaves: u64 = (0..t.partition_count())
            .flat_map(|p| t.read_partition(p).snapshot().runs().to_vec())
            .map(|run| run.stats().leaf_pages)
            .sum();
        let s = t.stats();
        assert_eq!(leaves, 3 * 40);
        assert_eq!(s.index_bytes, 8 * leaves);
        assert!(
            s.index_bytes * 8 <= s.bloom_bytes,
            "{} index bytes beside {} bloom bytes",
            s.index_bytes,
            s.bloom_bytes
        );
    }
}
