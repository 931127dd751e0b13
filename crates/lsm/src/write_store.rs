use std::collections::BTreeSet;
use std::ops::RangeInclusive;
use std::sync::Arc;

use blockdev::Device;
use parking_lot::{Mutex, MutexGuard};

use crate::partition::Partitioning;
use crate::record::Record;

/// The in-memory write store (WS, the LSM-tree's C0 component).
///
/// Updates between two consistency points accumulate here; at a consistency
/// point the whole store is drained into a new on-disk run. The paper
/// implements the WS with an in-memory Berkeley DB B-tree (fsim) or a Linux
/// red/black tree (btrfs) and notes that "any efficient indexing structure
/// would work"; we use a [`BTreeSet`].
///
/// The store keeps records sorted by their full `Ord`, so proactive pruning
/// (removing a `From`/`To` pair born and dead within the same CP interval)
/// is a logarithmic-time removal, as required by Section 5.1 of the paper.
#[derive(Debug, Clone)]
pub struct WriteStore<R: Record> {
    records: BTreeSet<R>,
}

impl<R: Record> Default for WriteStore<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Record> WriteStore<R> {
    /// Creates an empty write store.
    pub fn new() -> Self {
        WriteStore {
            records: BTreeSet::new(),
        }
    }

    /// Inserts a record. Returns `true` if it was not already present.
    pub fn insert(&mut self, record: R) -> bool {
        self.records.insert(record)
    }

    /// Removes an exact record. Returns `true` if it was present.
    ///
    /// This is the hook for the paper's *proactive pruning*: a reference that
    /// is added and removed within one CP interval is deleted here and never
    /// reaches the read store.
    pub fn remove(&mut self, record: &R) -> bool {
        self.records.remove(record)
    }

    /// Whether the exact record is present.
    pub fn contains(&self, record: &R) -> bool {
        self.records.contains(record)
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Approximate memory footprint of the buffered records in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.records.len() * (std::mem::size_of::<R>() + 32)
    }

    /// Iterates over all records in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &R> + '_ {
        self.records.iter()
    }

    /// Iterates over records whose partition key falls in `range`, in sorted
    /// order. The record ordering sorts by partition key first, so this is a
    /// contiguous slice of the tree walked lazily.
    pub fn range_by_partition_key(
        &self,
        range: RangeInclusive<u64>,
    ) -> impl Iterator<Item = &R> + '_ {
        let (min, max) = (*range.start(), *range.end());
        self.records.iter().filter(move |r| {
            let k = r.partition_key();
            k >= min && k <= max
        })
    }

    /// Removes and returns all records in sorted order, leaving the store
    /// empty. Called at every consistency point.
    pub fn drain_sorted(&mut self) -> Vec<R> {
        std::mem::take(&mut self.records).into_iter().collect()
    }

    /// Returns all records in sorted order without draining.
    pub fn to_sorted_vec(&self) -> Vec<R> {
        self.records.iter().cloned().collect()
    }

    /// Removes every record matching `predicate`, returning how many were
    /// removed.
    pub fn retain<F: FnMut(&R) -> bool>(&mut self, mut keep: F) -> usize {
        let before = self.records.len();
        self.records.retain(|r| keep(r));
        before - self.records.len()
    }
}

/// One shard of a [`ShardedWriteStore`]: the records of a single partition,
/// split into the *active* set (accepting inserts and removals) and the
/// *flushing* set (staged by an in-flight consistency point, query-visible
/// but already bound for disk).
///
/// The two sets are disjoint by construction: [`insert`](Self::insert)
/// refuses records already staged, and [`remove`](Self::remove) treats staged
/// records as durable (the caller then follows the path it would take for a
/// disk-resident record — writing a `To` record — instead of un-staging a
/// record whose run may already be built).
#[derive(Debug)]
pub struct WriteShard<R: Record> {
    active: WriteStore<R>,
    flushing: WriteStore<R>,
    /// Deletion marks deferred for records that were *staged* when they were
    /// marked: the record is unstaged immediately (queries stop seeing it)
    /// and the mark is applied to the partition's deletion vector in the
    /// same atomic step that installs the flush's run — never earlier, so a
    /// rebuild snapshot can never capture a mark whose record is not yet in
    /// any of its runs.
    pending_marks: Vec<R>,
}

impl<R: Record> Default for WriteShard<R> {
    fn default() -> Self {
        WriteShard {
            active: WriteStore::new(),
            flushing: WriteStore::new(),
            pending_marks: Vec::new(),
        }
    }
}

impl<R: Record> WriteShard<R> {
    /// Inserts a record. Returns `true` if it was not already present
    /// (neither active nor staged for the in-flight flush).
    pub fn insert(&mut self, record: R) -> bool {
        if self.flushing.contains(&record) {
            return false;
        }
        self.active.insert(record)
    }

    /// Removes an exact record from the active set (proactive pruning).
    /// Returns `false` for records staged by an in-flight flush: those are
    /// moments from durability and must be treated like disk-resident
    /// records, not spliced out of a run that may already be built.
    pub fn remove(&mut self, record: &R) -> bool {
        self.active.remove(record)
    }

    /// Whether the record is buffered (active or staged).
    pub fn contains(&self, record: &R) -> bool {
        self.active.contains(record) || self.flushing.contains(record)
    }

    /// Records buffered in this shard (active plus staged).
    pub fn len(&self) -> usize {
        self.active.len() + self.flushing.len()
    }

    /// Whether the shard holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty() && self.flushing.is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.active.approx_bytes() + self.flushing.approx_bytes()
    }

    /// Stages every active record for flushing (merging with records left
    /// staged by a previously failed flush) and returns the staged records in
    /// sorted order. Called by the flush at the start of a consistency point;
    /// the records stay query-visible until [`commit_flush`](Self::commit_flush).
    pub fn stage(&mut self) -> Vec<R> {
        if !self.active.is_empty() {
            self.flushing
                .extend(std::mem::take(&mut self.active).drain_sorted());
        }
        self.flushing.to_sorted_vec()
    }

    /// Drops the staged records — their run is fully on disk and installed —
    /// and returns the deferred deletion marks the caller must apply to the
    /// partition's deletion vector in the same critical section.
    pub fn commit_flush(&mut self) -> Vec<R> {
        self.flushing = WriteStore::new();
        std::mem::take(&mut self.pending_marks)
    }

    /// Returns the staged records to the active set after a failed flush, so
    /// proactive pruning resumes and a retry re-stages them. Deferred marks
    /// are dropped: their records were unstaged at mark time and the failed
    /// flush's run was deleted, so they exist nowhere — exactly as if the
    /// mark had removed them from the active set directly.
    pub fn restore_flush(&mut self) {
        if !self.flushing.is_empty() {
            let mut staged = std::mem::take(&mut self.flushing);
            self.active.extend(staged.drain_sorted());
        }
        self.pending_marks.clear();
    }

    /// Handles a deletion mark for a record currently *staged* by an
    /// in-flight flush: the record is unstaged (queries stop seeing it at
    /// once) and the mark is deferred until
    /// [`commit_flush`](Self::commit_flush) applies it together with the run
    /// that contains the record. Returns `false` if the record is not staged (the caller
    /// then marks the partition's deletion vector directly).
    pub fn defer_mark(&mut self, record: &R) -> bool {
        if self.flushing.remove(record) {
            self.pending_marks.push(record.clone());
            true
        } else {
            false
        }
    }

    /// Appends the shard's records with partition key in `min..=max` to
    /// `out`, in sorted order (the active and staged sets are disjoint, so
    /// this is a two-way merge).
    pub fn collect_range(&self, min: u64, max: u64, out: &mut Vec<R>) {
        let mut a = self.active.range_by_partition_key(min..=max).peekable();
        let mut f = self.flushing.range_by_partition_key(min..=max).peekable();
        loop {
            let take_active = match (a.peek(), f.peek()) {
                (Some(x), Some(y)) => x <= y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let next = if take_active { a.next() } else { f.next() };
            out.push(next.expect("peeked").clone());
        }
    }
}

/// The write store sharded by partition: one [`WriteShard`] per table
/// partition behind its own mutex, so reference callbacks from different
/// threads only serialize when they touch the same partition.
///
/// All methods take `&self`; per-call methods lock exactly one shard.
/// Callers that apply many operations to one partition (the engine's
/// `WriteBatch` path) can hold a shard lock across the whole group via
/// [`lock_shard`](Self::lock_shard) to amortize the acquisition.
///
/// Lock acquisitions that find a shard already held are counted in the
/// device's [`IoStatsSnapshot::lock_contentions`](blockdev::IoStatsSnapshot)
/// (the same probe-then-block scheme the file store uses for its allocation
/// lock), so write-shard contention shows up in benchmark output.
#[derive(Debug)]
pub struct ShardedWriteStore<R: Record> {
    shards: Vec<Mutex<WriteShard<R>>>,
    partitioning: Partitioning,
    device: Arc<dyn Device>,
}

impl<R: Record> ShardedWriteStore<R> {
    /// Creates an empty store with one shard per partition; contended shard
    /// acquisitions are counted into `device`'s I/O statistics.
    pub fn new(partitioning: Partitioning, device: Arc<dyn Device>) -> Self {
        ShardedWriteStore {
            shards: (0..partitioning.partition_count())
                .map(|_| Mutex::new(WriteShard::default()))
                .collect(),
            partitioning,
            device,
        }
    }

    /// Number of shards (== the table's partition count).
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Locks the shard for partition `pidx` and returns the guard. A
    /// contended acquisition is counted before blocking.
    ///
    /// # Panics
    ///
    /// Panics if `pidx` is out of range.
    pub fn lock_shard(&self, pidx: u32) -> MutexGuard<'_, WriteShard<R>> {
        let shard = &self.shards[pidx as usize];
        match shard.try_lock() {
            Some(guard) => guard,
            None => {
                let stats = self.device.stats();
                stats.record_lock_contention();
                let wait_t0 = stats.obs_now();
                // backlint: allow(lock-order) — try-then-block fallback: this arm runs only when try_lock returned None, so no shard guard is held
                let guard = shard.lock();
                stats.record_lock_wait(
                    blockdev::stats::LOCK_ID_WRITE_SHARD,
                    stats.obs_now().saturating_sub(wait_t0),
                );
                guard
            }
        }
    }

    fn shard_of(&self, record: &R) -> u32 {
        self.partitioning.partition_of(record.partition_key())
    }

    /// Inserts a record into its partition's shard. Returns `true` if it was
    /// not already buffered.
    pub fn insert(&self, record: R) -> bool {
        let pidx = self.shard_of(&record);
        self.lock_shard(pidx).insert(record)
    }

    /// Removes an exact record from its shard's active set. Returns `true`
    /// if it was present (and not staged by an in-flight flush).
    pub fn remove(&self, record: &R) -> bool {
        self.lock_shard(self.shard_of(record)).remove(record)
    }

    /// Whether the exact record is buffered anywhere.
    pub fn contains(&self, record: &R) -> bool {
        self.lock_shard(self.shard_of(record)).contains(record)
    }

    /// Total buffered records across all shards.
    pub fn len(&self) -> usize {
        (0..self.shard_count())
            .map(|p| self.lock_shard(p).len())
            .sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        (0..self.shard_count()).all(|p| self.lock_shard(p).is_empty())
    }

    /// Approximate memory footprint of all buffered records in bytes.
    pub fn approx_bytes(&self) -> usize {
        (0..self.shard_count())
            .map(|p| self.lock_shard(p).approx_bytes())
            .sum()
    }

    /// All buffered records in sorted order. Partitions cover ascending,
    /// disjoint key ranges and records sort by partition key first, so
    /// concatenating the shards in index order yields a sorted vector.
    pub fn to_sorted_vec(&self) -> Vec<R> {
        let mut out = Vec::new();
        for p in 0..self.shard_count() {
            self.lock_shard(p).collect_range(0, u64::MAX, &mut out);
        }
        out
    }
}

impl<R: Record> Extend<R> for WriteStore<R> {
    fn extend<T: IntoIterator<Item = R>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl<R: Record> FromIterator<R> for WriteStore<R> {
    fn from_iter<T: IntoIterator<Item = R>>(iter: T) -> Self {
        WriteStore {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_support::TestRec;

    #[test]
    fn insert_remove_contains() {
        let mut ws = WriteStore::new();
        assert!(ws.insert(TestRec::new(5, 1)));
        assert!(
            !ws.insert(TestRec::new(5, 1)),
            "duplicate insert reports false"
        );
        assert!(ws.contains(&TestRec::new(5, 1)));
        assert!(ws.remove(&TestRec::new(5, 1)));
        assert!(!ws.remove(&TestRec::new(5, 1)));
        assert!(ws.is_empty());
    }

    #[test]
    fn drain_returns_sorted_and_empties() {
        let mut ws = WriteStore::new();
        for k in [5u64, 1, 9, 3] {
            ws.insert(TestRec::new(k, k * 10));
        }
        let drained = ws.drain_sorted();
        let keys: Vec<u64> = drained.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
        assert!(ws.is_empty());
    }

    #[test]
    fn range_by_partition_key_filters() {
        let mut ws = WriteStore::new();
        for k in 0..20u64 {
            ws.insert(TestRec::new(k, 0));
        }
        let hits: Vec<u64> = ws.range_by_partition_key(5..=8).map(|r| r.key).collect();
        assert_eq!(hits, vec![5, 6, 7, 8]);
    }

    #[test]
    fn retain_removes_matching() {
        let mut ws: WriteStore<TestRec> = (0..10u64).map(|k| TestRec::new(k, 0)).collect();
        let removed = ws.retain(|r| r.key % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(ws.len(), 5);
        assert!(ws.iter().all(|r| r.key % 2 == 0));
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut ws: WriteStore<TestRec> = [TestRec::new(1, 1)].into_iter().collect();
        ws.extend([TestRec::new(2, 2), TestRec::new(3, 3)]);
        assert_eq!(ws.len(), 3);
        assert!(ws.approx_bytes() > 0);
    }

    fn sharded(partitions: u32, width: u64) -> ShardedWriteStore<TestRec> {
        ShardedWriteStore::new(
            Partitioning::fixed_ranges(partitions, width),
            blockdev::SimDisk::new_shared(blockdev::DeviceConfig::free_latency()),
        )
    }

    #[test]
    fn sharded_insert_remove_route_by_partition() {
        let s = sharded(4, 10);
        assert!(s.insert(TestRec::new(5, 1))); // shard 0
        assert!(s.insert(TestRec::new(15, 1))); // shard 1
        assert!(!s.insert(TestRec::new(5, 1)), "duplicate reports false");
        assert!(s.contains(&TestRec::new(15, 1)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(&TestRec::new(5, 1)));
        assert!(!s.remove(&TestRec::new(5, 1)));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert!(s.approx_bytes() > 0);
    }

    #[test]
    fn sharded_sorted_vec_concatenates_shards_in_key_order() {
        let s = sharded(4, 10);
        for k in [35u64, 5, 25, 15, 7, 33] {
            s.insert(TestRec::new(k, 0));
        }
        let keys: Vec<u64> = s.to_sorted_vec().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![5, 7, 15, 25, 33, 35]);
    }

    #[test]
    fn staged_records_stay_visible_but_not_removable() {
        let s = sharded(2, 10);
        s.insert(TestRec::new(3, 0));
        let staged = s.lock_shard(0).stage();
        assert_eq!(staged.len(), 1);
        // Staged records are query-visible and count toward len...
        assert!(s.contains(&TestRec::new(3, 0)));
        assert_eq!(s.len(), 1);
        // ...but behave like durable records for removal and insertion.
        assert!(
            !s.remove(&TestRec::new(3, 0)),
            "staged record is not removable"
        );
        assert!(
            !s.insert(TestRec::new(3, 0)),
            "staged record is not re-insertable"
        );
        // A different record inserted mid-flush lands in the active set.
        assert!(s.insert(TestRec::new(4, 0)));
        s.lock_shard(0).commit_flush();
        assert!(
            !s.contains(&TestRec::new(3, 0)),
            "committed record left the store"
        );
        assert!(
            s.contains(&TestRec::new(4, 0)),
            "mid-flush insert survives commit"
        );
    }

    #[test]
    fn restore_flush_returns_staged_records_to_active() {
        let s = sharded(2, 10);
        s.insert(TestRec::new(3, 0));
        s.lock_shard(0).stage();
        s.lock_shard(0).restore_flush();
        assert!(
            s.remove(&TestRec::new(3, 0)),
            "restored record removable again"
        );
        assert!(s.is_empty());
    }

    #[test]
    fn restage_after_failed_flush_merges_old_and_new() {
        let s = sharded(2, 10);
        s.insert(TestRec::new(3, 0));
        s.lock_shard(0).stage(); // flush attempt 1 (fails; records stay staged)
        s.insert(TestRec::new(1, 0));
        let staged: Vec<u64> = s.lock_shard(0).stage().iter().map(|r| r.key).collect();
        assert_eq!(
            staged,
            vec![1, 3],
            "retry stages old and new records together"
        );
    }

    #[test]
    fn collect_range_merges_active_and_staged_sorted() {
        let s = sharded(1, u64::MAX);
        for k in [2u64, 6, 9] {
            s.insert(TestRec::new(k, 0));
        }
        s.lock_shard(0).stage();
        for k in [1u64, 5, 7] {
            s.insert(TestRec::new(k, 0));
        }
        let mut out = Vec::new();
        s.lock_shard(0).collect_range(2, 7, &mut out);
        let keys: Vec<u64> = out.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![2, 5, 6, 7]);
    }

    #[test]
    fn contended_shard_acquisitions_are_counted() {
        let disk = blockdev::SimDisk::new_shared(blockdev::DeviceConfig::free_latency());
        let stats = disk.clone();
        let s = Arc::new(ShardedWriteStore::<TestRec>::new(
            Partitioning::fixed_ranges(2, 10),
            disk,
        ));
        let guard = s.lock_shard(0);
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            s2.insert(TestRec::new(1, 0)); // blocks on shard 0
        });
        // Wait until the spawned thread has registered its contention.
        while stats.stats().snapshot().lock_contentions == 0 {
            std::thread::yield_now();
        }
        drop(guard);
        t.join().unwrap();
        assert!(stats.stats().snapshot().lock_contentions >= 1);
        assert_eq!(s.len(), 1);
    }
}
