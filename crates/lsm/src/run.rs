// Decode-surface module: recovery paths must return errors, never panic
// (enforced by `backlint` panic-free and audited by clippy here).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use blockdev::{Completion, FileId, FileMap, FileStore, PersistedFile, PAGE_SIZE};

use crate::bloom::{BloomConfig, BloomFilter};
use crate::error::{LsmError, Result};
use crate::record::Record;

/// Number of bytes reserved at the start of every run page for the header
/// (`u16` record count, `u8` page kind, `u8` reserved).
const PAGE_HEADER: usize = 4;
const KIND_LEAF: u8 = 1;
/// A fence page: big-endian `u64` first-keys of consecutive leaves. Kind 2 is
/// not reused: it marks the internal pages of pre-version-3 run files.
const KIND_FENCE: u8 = 3;
const FENCE_LEN: usize = 8;
/// Fence keys per fence page (511 with 4 KiB pages).
const FENCES_PER_PAGE: usize = (PAGE_SIZE - PAGE_HEADER) / FENCE_LEN;

/// Pages of the fence section that follows `leaf_pages` leaves: one key per
/// leaf, except that a run of at most one leaf writes none (its only fence
/// is its `min_key`).
fn fence_pages(leaf_pages: u64) -> u64 {
    if leaf_pages <= 1 {
        0
    } else {
        leaf_pages.div_ceil(FENCES_PER_PAGE as u64)
    }
}

/// Everything needed to reopen a [`Run`] from its (immutable) backing file
/// without reading it: the geometry (leaf count and last page), the key
/// bounds and the Bloom filter contents. A consistency-point manifest
/// records one `RunMeta` per installed run; [`Run::open_from_meta`] turns it
/// back into a live run in O(extent-map) time, which is what makes
/// `BacklogEngine::open` independent of the database's record count. The
/// fence keys are not recorded: they are read back from the run's fence
/// section by the first lookup that needs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// The backing virtual file.
    pub file: FileId,
    /// Number of records stored in the run.
    pub records: u64,
    /// Number of leaf pages (pages `0..leaf_pages` of the file).
    pub leaf_pages: u64,
    /// Page offset of the last page of the file: the end of the fence
    /// section, or the only leaf of a single-leaf run.
    pub root_page: u64,
    /// Smallest partition key stored.
    pub min_key: u64,
    /// Largest partition key stored.
    pub max_key: u64,
    /// Number of hash functions of the run's Bloom filter.
    pub bloom_hashes: u32,
    /// Number of keys inserted into the Bloom filter.
    pub bloom_entries: u64,
    /// The Bloom filter's raw bit words.
    pub bloom_words: Vec<u64>,
}

/// Summary statistics for a single on-disk run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of records stored in the run.
    pub records: u64,
    /// Number of leaf pages.
    pub leaf_pages: u64,
    /// Total pages including the fence section.
    pub total_pages: u64,
    /// Logical size in bytes (records × encoded length).
    pub record_bytes: u64,
}

/// An immutable on-disk read-store run: densely packed sorted leaf pages
/// followed by a flat *fence section* holding the partition key of each
/// leaf's first record.
///
/// A run is the unit the paper calls an *RS file* (a Stepped-Merge Level-0
/// run, or the large merged run produced by database maintenance). Building
/// one performs only sequential page writes — the fence keys are collected
/// in memory while the leaves are written — so a consistency-point flush
/// needs no disk reads.
///
/// Two things are resident per run: a [`BloomFilter`] over the partition
/// keys of its records, so queries can skip runs that cannot contain a
/// block, and the fence keys (8 bytes per leaf), so a lookup binary-searches
/// memory and reads exactly the one leaf that can hold its key. A built run
/// has its fences from the builder; a run reopened by
/// [`open_from_meta`](Run::open_from_meta) reads its fence section on the
/// first lookup (⌈leaves / 511⌉ pages, once).
///
/// Runs are shared: the table hands out `Arc<Run>` snapshots to readers while
/// maintenance builds replacements off to the side. A replaced run is
/// [`retire`](Run::retire)d rather than deleted eagerly — its backing file is
/// freed when the last reference drops, so an in-flight query keeps reading
/// consistent pre-rebuild pages and the pages return to the free list the
/// moment nobody can observe them.
#[derive(Debug)]
pub struct Run<R: Record> {
    files: Arc<FileStore>,
    file: FileId,
    /// Cached extent map of the (immutable) run file, so page reads bypass
    /// the file store's lock and hash lookup entirely.
    map: FileMap,
    /// Page offset of the last page of the run file.
    root_page: u64,
    leaf_pages: u64,
    /// First partition key of each leaf (leaf `i` ↔ entry `i`). Empty until
    /// the first lookup on a reopened run; a failed load is not cached.
    fences: OnceLock<Vec<u64>>,
    records: u64,
    min_key: u64,
    max_key: u64,
    bloom: BloomFilter,
    /// Set by [`retire`](Run::retire): delete the backing file when the run
    /// is dropped (i.e. when the last shared reference goes away).
    retired: AtomicBool,
    _marker: PhantomData<R>,
}

impl<R: Record> Run<R> {
    /// Builds a run from records that are already sorted (ascending, by the
    /// record's `Ord`). Returns `None` if `records` is empty.
    ///
    /// # Errors
    ///
    /// Returns [`LsmError::UnsortedInput`] if the input is not sorted and
    /// propagates device errors from writing run pages.
    pub fn build(
        files: &Arc<FileStore>,
        records: &[R],
        bloom_config: &BloomConfig,
    ) -> Result<Option<Self>> {
        if records.is_empty() {
            return Ok(None);
        }
        if R::ENCODED_LEN == 0 || R::ENCODED_LEN > PAGE_SIZE - PAGE_HEADER {
            return Err(LsmError::RecordTooLarge {
                encoded_len: R::ENCODED_LEN,
            });
        }
        if !records.is_sorted() {
            return Err(LsmError::UnsortedInput);
        }
        match Self::build_async(files, records, bloom_config)? {
            None => Ok(None),
            Some((run, pending)) => wait_pending(run, pending).map(Some),
        }
    }

    /// Like [`build`](Run::build), but returns the run together with the
    /// completions of its still-in-flight page writes instead of waiting for
    /// them. The run's structure (extent map, geometry, Bloom filter) is
    /// final; only the page payloads are still riding the device queue, so a
    /// caller building several runs back-to-back keeps the queue full across
    /// run boundaries. The caller must wait every completion (and delete the
    /// run if any fails) before treating the run as written.
    ///
    /// # Errors
    ///
    /// Returns [`LsmError::UnsortedInput`] if the input is not sorted and
    /// propagates submit-side device errors (allocation failures and any
    /// write completion reaped while bounding the pipeline depth).
    pub fn build_async(
        files: &Arc<FileStore>,
        records: &[R],
        bloom_config: &BloomConfig,
    ) -> Result<Option<(Self, Vec<Completion>)>> {
        if records.is_empty() {
            return Ok(None);
        }
        if R::ENCODED_LEN == 0 || R::ENCODED_LEN > PAGE_SIZE - PAGE_HEADER {
            return Err(LsmError::RecordTooLarge {
                encoded_len: R::ENCODED_LEN,
            });
        }
        if !records.is_sorted() {
            return Err(LsmError::UnsortedInput);
        }
        let mut builder = RunBuilder::with_capacity(files.clone(), bloom_config, records.len());
        for r in records {
            if let Err(e) = builder.push(r) {
                builder.abandon();
                return Err(e);
            }
        }
        builder.finish_async().map(Some)
    }

    /// Captures the run's durable description for a consistency-point
    /// manifest (see [`RunMeta`]). The backing file's extents are the
    /// [`FileStore`]'s business and are recorded separately.
    pub fn meta(&self) -> RunMeta {
        RunMeta {
            file: self.file,
            records: self.records,
            leaf_pages: self.leaf_pages,
            root_page: self.root_page,
            min_key: self.min_key,
            max_key: self.max_key,
            bloom_hashes: self.bloom.hashes(),
            bloom_entries: self.bloom.entries() as u64,
            bloom_words: self.bloom.words().to_vec(),
        }
    }

    /// The backing file's durable description (extents and lengths), the
    /// other half of what a manifest records per run. Answered from the
    /// run's own extent-map snapshot — the file is immutable once built —
    /// so it costs no file-store lock.
    pub fn persisted_file(&self) -> PersistedFile {
        self.map.persisted(self.file)
    }

    /// Reopens a run from a [`RunMeta`] recorded at the last consistency
    /// point. The backing file must already be live in `files` (restored via
    /// [`FileStore::restore`](blockdev::FileStore::restore)); no page is
    /// read — the extent-map snapshot is taken and the in-memory Bloom
    /// filter is rebuilt from the persisted words.
    ///
    /// # Errors
    ///
    /// Returns [`LsmError::CorruptRun`] if the file's length disagrees with
    /// the recorded geometry, and propagates file-store errors.
    pub fn open_from_meta(files: &Arc<FileStore>, meta: &RunMeta) -> Result<Self> {
        let map = files.map_file(meta.file)?;
        // Leaves plus their fence section (an empty run is one empty leaf).
        let expected = meta
            .leaf_pages
            .checked_add(fence_pages(meta.leaf_pages))
            .map(|pages| pages.max(1));
        if meta.root_page.checked_add(1) != expected || Some(map.len_pages()) != expected {
            return Err(LsmError::CorruptRun {
                detail: format!(
                    "{} holds {} pages but the manifest records last page {} ({} leaves)",
                    meta.file,
                    map.len_pages(),
                    meta.root_page,
                    meta.leaf_pages
                ),
            });
        }
        Ok(Run {
            files: files.clone(),
            file: meta.file,
            map,
            root_page: meta.root_page,
            leaf_pages: meta.leaf_pages,
            fences: OnceLock::new(),
            records: meta.records,
            min_key: meta.min_key,
            max_key: meta.max_key,
            bloom: crate::bloom::BloomFilter::from_parts(
                meta.bloom_words.clone(),
                meta.bloom_hashes,
                meta.bloom_entries as usize,
            ),
            retired: AtomicBool::new(false),
            _marker: PhantomData,
        })
    }

    /// This run's statistics.
    pub fn stats(&self) -> RunStats {
        RunStats {
            records: self.records,
            leaf_pages: self.leaf_pages,
            total_pages: self.total_pages(),
            record_bytes: self.records * R::ENCODED_LEN as u64,
        }
    }

    fn total_pages(&self) -> u64 {
        self.root_page + 1
    }

    /// Number of records in the run.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether the run holds no records (never true for a built run).
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Smallest partition key stored in the run.
    pub fn min_key(&self) -> u64 {
        self.min_key
    }

    /// Largest partition key stored in the run.
    pub fn max_key(&self) -> u64 {
        self.max_key
    }

    /// The Bloom filter over this run's partition keys.
    pub fn bloom(&self) -> &BloomFilter {
        &self.bloom
    }

    /// Memory held by the resident fence keys, in bytes: 8 per leaf once
    /// loaded, 0 for a reopened run no lookup has touched yet.
    pub fn index_bytes(&self) -> usize {
        self.fences.get().map_or(0, |f| f.len() * FENCE_LEN)
    }

    /// The identifier of the backing virtual file.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Whether a query for partition keys `min..=max` needs to read this run,
    /// according to the key bounds and the Bloom filter.
    pub fn may_contain_range(&self, min: u64, max: u64) -> bool {
        if max < self.min_key || min > self.max_key {
            return false;
        }
        self.bloom.may_contain_range(min, max, 256)
    }

    /// Deletes the backing file immediately, consuming the run. Only valid
    /// for exclusively owned runs; shared runs are [`retire`](Self::retire)d
    /// instead so in-flight readers finish against intact pages.
    pub fn delete(self) -> Result<()> {
        // Disarm the drop hook: the file is gone after this call.
        self.retired.store(false, Ordering::Relaxed);
        self.files.delete(self.file)?;
        Ok(())
    }

    /// Marks the run retired: its backing file is deleted when the last
    /// reference drops. This is how [`LsmTable`](crate::LsmTable) swaps a
    /// partition — old runs are retired under the swap lock, readers holding
    /// a pre-swap snapshot keep every page they can see, and the space is
    /// reclaimed as soon as the final snapshot is dropped (immediately, when
    /// no query is in flight).
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    fn read_page(&self, page: u64) -> Result<Vec<u8>> {
        Ok(self.map.read_page(page)?)
    }

    /// Reads leaf `leaf` and validates its header, returning the page and
    /// its record count.
    fn read_leaf(&self, leaf: usize) -> Result<(Vec<u8>, usize)> {
        let page = self.read_page(leaf as u64)?;
        let (kind, count) = parse_header(&page, R::ENCODED_LEN)?;
        if kind != KIND_LEAF {
            return Err(LsmError::CorruptRun {
                detail: format!("expected leaf at page {leaf}, found kind {kind}"),
            });
        }
        Ok((page, count))
    }

    /// The resident fence keys, read from the fence section on a reopened
    /// run's first lookup. A failed load is that lookup's error and is not
    /// remembered: the next lookup reads the section again.
    fn fences(&self) -> Result<&[u64]> {
        if let Some(fences) = self.fences.get() {
            return Ok(fences);
        }
        let loaded = self.load_fences()?;
        Ok(self.fences.get_or_init(|| loaded))
    }

    /// Decodes the fence section (pages `leaf_pages..=root_page`): every
    /// page a full fence page but the last, one key per leaf, ascending,
    /// starting at `min_key`.
    fn load_fences(&self) -> Result<Vec<u64>> {
        // `open_from_meta` checked `leaf_pages` against the file's length.
        let leaves = self.leaf_pages as usize;
        if leaves <= 1 {
            // No section on disk: a lone leaf starts at the run's first key.
            return Ok(vec![self.min_key; leaves]);
        }
        let mut fences: Vec<u64> = Vec::with_capacity(leaves);
        for page_no in self.leaf_pages..=self.root_page {
            let page = self.read_page(page_no)?;
            let (kind, count) = parse_header(&page, R::ENCODED_LEN)?;
            let want = leaves.saturating_sub(fences.len()).min(FENCES_PER_PAGE);
            if kind != KIND_FENCE || count != want {
                return Err(LsmError::CorruptRun {
                    detail: format!(
                        "page {page_no}: expected {want} fence keys, found {count} of kind {kind}"
                    ),
                });
            }
            let keys = entry_bytes(&page, PAGE_HEADER, count * FENCE_LEN, page_no)?;
            fences.extend(
                keys.chunks_exact(FENCE_LEN)
                    .filter_map(|key| key.try_into().ok())
                    .map(u64::from_be_bytes),
            );
        }
        if fences.len() != leaves || !fences.is_sorted() || fences[0] != self.min_key {
            return Err(LsmError::CorruptRun {
                detail: format!(
                    "the fence section of {} is not {leaves} ascending keys from {}",
                    self.file, self.min_key
                ),
            });
        }
        Ok(fences)
    }

    /// Returns every record whose partition key lies in `min..=max`, in
    /// sorted order.
    ///
    /// # Errors
    ///
    /// Propagates device errors; reports [`LsmError::CorruptRun`] if the run
    /// pages are structurally invalid.
    pub fn scan_range(&self, min: u64, max: u64) -> Result<Vec<R>> {
        self.iter_range(min, max)?.collect()
    }

    /// Returns all records in the run, in sorted order.
    pub fn scan_all(&self) -> Result<Vec<R>> {
        self.scan_range(0, u64::MAX)
    }

    /// Visits records with partition keys in `min..=max` in order, stopping
    /// early when `visit` returns `false`.
    pub fn for_each_in_range<F: FnMut(R) -> bool>(
        &self,
        min: u64,
        max: u64,
        mut visit: F,
    ) -> Result<()> {
        for item in self.iter_range(min, max)? {
            if !visit(item?) {
                break;
            }
        }
        Ok(())
    }

    /// Returns a lazy iterator over the records whose partition keys lie in
    /// `min..=max`, in sorted order, reading leaf pages one at a time as the
    /// iterator advances.
    ///
    /// This is the streaming read path: a query merges these iterators (one
    /// per relevant run) with the write store instead of materializing each
    /// run's hits into an intermediate vector. Pages touched are exactly the
    /// leaf the resident fence keys place the first key `>= min` in, plus
    /// the following leaves whose first key is `<= max` — a point query
    /// reads one page no matter how many records the run holds.
    ///
    /// # Errors
    ///
    /// Errors loading the fence keys or reading the first leaf are returned
    /// eagerly; page errors hit while iterating are yielded as `Err` items
    /// (the iterator then fuses).
    pub fn iter_range(&self, min: u64, max: u64) -> Result<RunRangeIter<'_, R>> {
        let mut iter = RunRangeIter {
            run: self,
            fences: &[],
            min,
            max,
            leaf: 0,
            index: 0,
            page: Vec::new(),
            count: 0,
            done: true,
        };
        if max < self.min_key || min > self.max_key || self.records == 0 {
            return Ok(iter);
        }
        iter.fences = self.fences()?;
        (iter.leaf, iter.index, iter.page, iter.count) = self.find_first_ge(iter.fences, min)?;
        iter.done = false;
        Ok(iter)
    }

    /// Locates the first leaf slot whose record partition key is `>= key`:
    /// the last leaf whose fence is strictly below `key` (the first leaf by
    /// default), then a binary search within it. `<` rather than `<=`
    /// matters when duplicates of `key` span a leaf boundary: the run of
    /// equal keys may begin in the previous leaf, so the search starts there
    /// and the cursor walks forward. Returns `(leaf, slot, page, count)` —
    /// the one page read is handed to the cursor, not read again; the slot
    /// may be one past the last record, in which case the cursor moves on.
    fn find_first_ge(&self, fences: &[u64], key: u64) -> Result<(usize, usize, Vec<u8>, usize)> {
        let leaf = fences.partition_point(|&k| k < key).saturating_sub(1);
        let (page, count) = self.read_leaf(leaf)?;
        let mut lo = 0usize;
        let mut hi = count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let start = PAGE_HEADER + mid * R::ENCODED_LEN;
            let rec = R::decode(entry_bytes(&page, start, R::ENCODED_LEN, leaf as u64)?);
            if rec.partition_key() < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok((leaf, lo, page, count))
    }
}

/// Waits out a freshly built run's in-flight page writes. On failure the run
/// file is deleted (the remaining completions are dropped first, which still
/// retires their device accounting) and the first error is returned.
fn wait_pending<R: Record>(run: Run<R>, pending: Vec<Completion>) -> Result<Run<R>> {
    let mut first_error = None;
    for completion in &pending {
        if let Err(e) = completion.wait() {
            first_error = Some(e);
            break;
        }
    }
    drop(pending);
    match first_error {
        Some(e) => {
            let _ = run.delete();
            Err(e.into())
        }
        None => Ok(run),
    }
}

impl<R: Record> Drop for Run<R> {
    fn drop(&mut self) {
        // Deferred deletion for retired runs: the swap marked the run dead,
        // the last reference reclaims its pages. A run that no longer exists
        // in the store (explicit `delete`) is a no-op here.
        if *self.retired.get_mut() {
            let _ = self.files.delete(self.file);
        }
    }
}

/// Lazy iterator over a key range of a [`Run`], created by
/// [`Run::iter_range`]. Yields records in sorted order, holding one leaf
/// page at a time.
#[derive(Debug)]
pub struct RunRangeIter<'a, R: Record> {
    run: &'a Run<R>,
    /// The run's resident fence keys (empty for an empty range).
    fences: &'a [u64],
    min: u64,
    max: u64,
    /// The leaf the iterator is positioned on (an index into `fences`).
    leaf: usize,
    /// The slot within the current leaf.
    index: usize,
    /// The current leaf's payload and validated record count.
    page: Vec<u8>,
    count: usize,
    done: bool,
}

impl<R: Record> Iterator for RunRangeIter<'_, R> {
    type Item = Result<R>;

    fn next(&mut self) -> Option<Result<R>> {
        if self.done {
            return None;
        }
        loop {
            if self.index < self.count {
                let start = PAGE_HEADER + self.index * R::ENCODED_LEN;
                let rec = match entry_bytes(&self.page, start, R::ENCODED_LEN, self.leaf as u64) {
                    Ok(bytes) => R::decode(bytes),
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                };
                self.index += 1;
                let key = rec.partition_key();
                if key > self.max {
                    self.done = true;
                    return None;
                }
                if key >= self.min {
                    return Some(Ok(rec));
                }
                // Keys below `min` can only appear in the first leaf (the
                // search positions us at the first record >= min, but a run
                // of duplicates may force a conservative start); skip them.
            } else {
                // The next leaf's first key is resident: past the last leaf,
                // or past `max`, the range ends here without another read.
                let next = self.leaf + 1;
                if self.fences.get(next).is_none_or(|&first| first > self.max) {
                    self.done = true;
                    return None;
                }
                match self.run.read_leaf(next) {
                    Ok((page, count)) => {
                        (self.leaf, self.index, self.page, self.count) = (next, 0, page, count);
                    }
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            }
        }
    }
}

/// Incremental builder for a [`Run`].
///
/// Records must be pushed in sorted order. Leaf pages are written as they
/// fill and each leaf's first key is kept in memory; finishing appends those
/// fence keys as one flat section and hands them to the [`Run`] as its
/// resident index, so the build is a single sequential write pass and the
/// new run needs no read before its first lookup.
#[derive(Debug)]
pub struct RunBuilder<R: Record> {
    files: Arc<FileStore>,
    file: FileId,
    bloom: BloomFilter,
    /// The table's sizing policy, kept to right-size the filter at finish.
    bloom_config: BloomConfig,
    /// The leaf page currently being filled.
    leaf_buf: Vec<u8>,
    leaf_count_in_page: usize,
    /// Partition key of the first record of each leaf started so far.
    fences: Vec<u64>,
    pages_written: u64,
    records: u64,
    min_key: u64,
    max_key: u64,
    last: Option<R>,
    records_per_leaf: usize,
    /// Completions of pipelined page writes not yet waited on, oldest first:
    /// the builder encodes page `N+1` while page `N` is still in flight.
    pending_io: VecDeque<Completion>,
    /// Bound on outstanding writes (2 × the device queue depth), so a huge
    /// run cannot accumulate unbounded completions.
    max_pending_io: usize,
}

impl<R: Record> RunBuilder<R> {
    /// Creates a builder sized for `expected_records` records.
    pub fn with_capacity(
        files: Arc<FileStore>,
        bloom_config: &BloomConfig,
        expected_records: usize,
    ) -> Self {
        let file = files.create().id();
        let records_per_leaf = (PAGE_SIZE - PAGE_HEADER) / R::ENCODED_LEN;
        let max_pending_io = (files.device().queue_depth() * 2).max(2);
        RunBuilder {
            files,
            file,
            bloom: BloomFilter::for_entries(expected_records, bloom_config),
            bloom_config: *bloom_config,
            leaf_buf: new_page_buf(KIND_LEAF),
            leaf_count_in_page: 0,
            fences: Vec::new(),
            pages_written: 0,
            records: 0,
            min_key: u64::MAX,
            max_key: 0,
            last: None,
            records_per_leaf: records_per_leaf.max(1),
            pending_io: VecDeque::new(),
            max_pending_io,
        }
    }

    /// Number of records pushed so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Appends the next record, which must not sort before the previous one.
    ///
    /// # Errors
    ///
    /// Returns [`LsmError::UnsortedInput`] on out-of-order input and
    /// propagates device errors.
    pub fn push(&mut self, record: &R) -> Result<()> {
        if let Some(last) = &self.last {
            if record < last {
                return Err(LsmError::UnsortedInput);
            }
        }
        self.last = Some(record.clone());
        let key = record.partition_key();
        self.min_key = self.min_key.min(key);
        self.max_key = self.max_key.max(key);
        self.bloom.insert(key);
        if self.leaf_count_in_page == self.records_per_leaf {
            self.flush_leaf()?;
        }
        if self.leaf_count_in_page == 0 {
            // The first record of a leaf: its key is the leaf's fence.
            self.fences.push(key);
        }
        let start = PAGE_HEADER + self.leaf_count_in_page * R::ENCODED_LEN;
        record.encode(&mut self.leaf_buf[start..start + R::ENCODED_LEN]);
        self.leaf_count_in_page += 1;
        self.records += 1;
        Ok(())
    }

    fn flush_leaf(&mut self) -> Result<()> {
        if self.leaf_count_in_page == 0 {
            return Ok(());
        }
        set_header(&mut self.leaf_buf, KIND_LEAF, self.leaf_count_in_page);
        let buf = std::mem::replace(&mut self.leaf_buf, new_page_buf(KIND_LEAF));
        self.append_pipelined(&buf)?;
        self.leaf_count_in_page = 0;
        Ok(())
    }

    /// Submits one page write without waiting for it, reaping the oldest
    /// outstanding completion first when the pipeline is full. Reaped errors
    /// surface here; the caller abandons the build on any error.
    fn append_pipelined(&mut self, buf: &[u8]) -> Result<()> {
        while self.pending_io.len() >= self.max_pending_io {
            let Some(oldest) = self.pending_io.pop_front() else {
                break;
            };
            oldest.wait()?;
        }
        let f = self.files.open(self.file)?;
        let (_, completion) = f.append_page_async(buf)?;
        self.pending_io.push_back(completion);
        self.pages_written += 1;
        Ok(())
    }

    /// Finishes the run: flushes the last leaf and writes the fence section,
    /// returning the completed immutable [`Run`] with its fence keys
    /// resident. On error the partially written run file is deleted.
    ///
    /// # Errors
    ///
    /// Propagates device errors. An empty builder produces a run with zero
    /// records whose scans return nothing.
    pub fn finish(self) -> Result<Run<R>> {
        let (run, pending) = self.finish_async()?;
        wait_pending(run, pending)
    }

    /// Like [`finish`](Self::finish), but hands back the completions of the
    /// run's in-flight page writes instead of waiting: the next run's build
    /// starts while this run's tail pages are still being written. The
    /// caller must wait every completion (deleting the run on failure)
    /// before the run counts as durable on the device.
    ///
    /// # Errors
    ///
    /// Propagates submit-side errors; the partially written run file is
    /// deleted.
    pub fn finish_async(mut self) -> Result<(Run<R>, Vec<Completion>)> {
        let leaf_pages = match self.write_index() {
            Ok(leaves) => leaves,
            Err(e) => {
                self.abandon();
                return Err(e);
            }
        };
        let root_page = self.pages_written.saturating_sub(1);
        // Snapshot the extent map: the run file is immutable from here on,
        // so every future page read bypasses the file store.
        let map = match self.files.map_file(self.file) {
            Ok(map) => map,
            Err(e) => {
                self.abandon();
                return Err(e.into());
            }
        };
        // Right-size the Bloom filter if the run turned out much smaller than
        // the sizing estimate (the paper shrinks by halving).
        let ideal_bits = self.bloom_config.bits_for(self.records as usize);
        if ideal_bits < self.bloom.num_bits() {
            self.bloom.shrink_to(ideal_bits);
        }
        let pending: Vec<Completion> = self.pending_io.drain(..).collect();
        Ok((
            Run {
                files: self.files,
                file: self.file,
                map,
                root_page,
                leaf_pages,
                fences: OnceLock::from(self.fences),
                records: self.records,
                min_key: if self.records == 0 { 0 } else { self.min_key },
                max_key: self.max_key,
                bloom: self.bloom,
                retired: AtomicBool::new(false),
                _marker: PhantomData,
            },
            pending,
        ))
    }

    /// Like [`finish`](Self::finish), but a builder that received no records
    /// produces `None` instead of an empty run, deleting the (still empty)
    /// backing file. This is the form streaming rebuilds use: a partition
    /// whose records were all purged simply ends up with no run.
    ///
    /// # Errors
    ///
    /// Propagates device errors; the partially written run file is deleted.
    pub fn finish_nonempty(self) -> Result<Option<Run<R>>> {
        if self.records == 0 {
            self.abandon();
            return Ok(None);
        }
        self.finish().map(Some)
    }

    /// Flushes the last leaf and writes the fence section — the leaves'
    /// first keys as big-endian `u64`s, [`FENCES_PER_PAGE`] to a page —
    /// returning the number of leaf pages. A single leaf needs no section:
    /// its fence is the run's `min_key`.
    fn write_index(&mut self) -> Result<u64> {
        self.flush_leaf()?;
        let leaf_pages = self.pages_written;
        if leaf_pages == 0 {
            // Empty run: write a single empty leaf so the file has a page.
            self.append_pipelined(&new_page_buf(KIND_LEAF))?;
        }
        let fences = std::mem::take(&mut self.fences);
        if leaf_pages > 1 {
            for chunk in fences.chunks(FENCES_PER_PAGE) {
                let mut buf = new_page_buf(KIND_FENCE);
                for (slot, key) in buf[PAGE_HEADER..].chunks_exact_mut(FENCE_LEN).zip(chunk) {
                    slot.copy_from_slice(&key.to_be_bytes());
                }
                set_header(&mut buf, KIND_FENCE, chunk.len());
                self.append_pipelined(&buf)?;
            }
        }
        self.fences = fences;
        Ok(leaf_pages)
    }

    /// Abandons the build, deleting the partially written run file. Called on
    /// error paths so a failed consistency-point flush does not leak pages.
    pub fn abandon(self) {
        let _ = self.files.delete(self.file);
    }
}

fn new_page_buf(kind: u8) -> Vec<u8> {
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[2] = kind;
    buf
}

fn set_header(buf: &mut [u8], kind: u8, count: usize) {
    buf[0..2].copy_from_slice(&(count as u16).to_be_bytes());
    buf[2] = kind;
    buf[3] = 0;
}

/// Parses a run-page header, validating the entry count against the page
/// length for the page's kind (`record_len` bytes per leaf entry, 8 per
/// fence key). The count is a decoded u16 — on a
/// corrupt page it can claim up to 65535 entries, so it must never drive
/// slicing without this check. Unknown kinds pass through for the caller to
/// reject with page context.
fn parse_header(buf: &[u8], record_len: usize) -> Result<(u8, usize)> {
    let (head, kind) = match (buf.get(0..2), buf.get(2)) {
        (Some(head), Some(&kind)) => (head, kind),
        _ => {
            return Err(LsmError::CorruptRun {
                detail: "page shorter than header".into(),
            })
        }
    };
    let count = u16::from_be_bytes([head[0], head[1]]) as usize;
    let entry_len = match kind {
        KIND_LEAF => record_len,
        KIND_FENCE => FENCE_LEN,
        _ => return Ok((kind, count)),
    };
    if count
        .checked_mul(entry_len)
        .is_none_or(|body| PAGE_HEADER + body > buf.len())
    {
        return Err(LsmError::CorruptRun {
            detail: format!(
                "page header claims {count} entries of {entry_len} bytes, more \
                 than fit in {} bytes",
                buf.len()
            ),
        });
    }
    Ok((kind, count))
}

/// Bounds-checked view of one entry's bytes. With the header count
/// validated a miss is impossible, but a corrupt page must surface as an
/// error, never as a slice panic mid-scan.
fn entry_bytes(page: &[u8], start: usize, len: usize, page_no: u64) -> Result<&[u8]> {
    page.get(start..start + len)
        .ok_or_else(|| LsmError::CorruptRun {
            detail: format!("entry out of page bounds at page {page_no}"),
        })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::record::test_support::TestRec;
    use blockdev::{Device, DeviceConfig, SimDisk};

    fn files() -> Arc<FileStore> {
        Arc::new(FileStore::new(SimDisk::new_shared(
            DeviceConfig::free_latency(),
        )))
    }

    fn build(records: &[TestRec]) -> (Arc<FileStore>, Run<TestRec>) {
        let fs = files();
        let run = Run::build(&fs, records, &BloomConfig::default())
            .unwrap()
            .unwrap();
        (fs, run)
    }

    #[test]
    fn empty_input_builds_nothing() {
        let fs = files();
        assert!(Run::<TestRec>::build(&fs, &[], &BloomConfig::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn small_run_roundtrips() {
        let recs: Vec<TestRec> = (0..10u64).map(|k| TestRec::new(k * 2, k)).collect();
        let (_fs, run) = build(&recs);
        assert_eq!(run.len(), 10);
        assert_eq!(run.min_key(), 0);
        assert_eq!(run.max_key(), 18);
        assert_eq!(run.scan_all().unwrap(), recs);
    }

    #[test]
    fn corrupt_page_header_is_an_error_not_a_panic() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = Arc::new(FileStore::new(disk.clone()));
        let recs: Vec<TestRec> = (0..10u64).map(|k| TestRec::new(k * 2, k)).collect();
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        let meta = fs.file_meta(run.file_id()).unwrap();
        assert_eq!(meta.len_pages, 1, "test assumes a single-page run");
        let page_no = meta.extents[0].0;
        let good = disk.read_page(page_no).unwrap();

        // A flipped count claiming 65535 entries: an unvalidated count
        // would drive slicing straight off the end of the page.
        let mut bad = good.clone();
        bad[0] = 0xff;
        bad[1] = 0xff;
        disk.write_page(page_no, &bad).unwrap();
        assert!(matches!(run.scan_all(), Err(LsmError::CorruptRun { .. })));

        // A flipped kind byte is rejected with page context.
        let mut bad = good.clone();
        bad[2] = 7;
        disk.write_page(page_no, &bad).unwrap();
        assert!(matches!(run.scan_all(), Err(LsmError::CorruptRun { .. })));

        // The pristine page still scans.
        disk.write_page(page_no, &good).unwrap();
        assert_eq!(run.scan_all().unwrap(), recs);
    }

    #[test]
    fn large_run_has_a_flat_fence_section_and_scans_correctly() {
        // 16-byte records, 255 per leaf; 10,000 records => 40 leaves => one
        // fence page, however many leaves (up to 511) it indexes.
        let recs: Vec<TestRec> = (0..10_000u64)
            .map(|k| TestRec::new(k, k ^ 0xdead))
            .collect();
        let (_fs, run) = build(&recs);
        let stats = run.stats();
        assert_eq!(stats.leaf_pages, 40);
        assert_eq!(stats.total_pages, stats.leaf_pages + 1, "one fence page");
        assert_eq!(run.index_bytes(), 8 * 40);
        assert_eq!(run.scan_all().unwrap().len(), 10_000);
        // Point query in the middle.
        assert_eq!(
            run.scan_range(5_000, 5_000).unwrap(),
            vec![TestRec::new(5_000, 5_000 ^ 0xdead)]
        );
        // Range query.
        let r = run.scan_range(9_990, 10_005).unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].key, 9_990);
    }

    #[test]
    fn range_query_with_duplicate_partition_keys() {
        let mut recs = Vec::new();
        for k in 0..100u64 {
            for p in 0..5u64 {
                recs.push(TestRec::new(k, p));
            }
        }
        recs.sort();
        let (_fs, run) = build(&recs);
        let hits = run.scan_range(50, 50).unwrap();
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|r| r.key == 50));
    }

    #[test]
    fn duplicate_keys_spanning_leaf_boundaries_are_all_found() {
        // 255 records fit per leaf. Put 200 records with smaller keys first
        // so that the run of 300 duplicates of key 1000 straddles a leaf
        // boundary, then verify a point range query returns every duplicate.
        let mut recs: Vec<TestRec> = (0..200u64).map(|k| TestRec::new(k, 0)).collect();
        recs.extend((0..300u64).map(|p| TestRec::new(1_000, p)));
        recs.extend((0..200u64).map(|k| TestRec::new(2_000 + k, 0)));
        recs.sort();
        let (_fs, run) = build(&recs);
        assert!(run.stats().leaf_pages >= 2);
        let hits = run.scan_range(1_000, 1_000).unwrap();
        assert_eq!(
            hits.len(),
            300,
            "every duplicate across the leaf boundary is returned"
        );
        // And a range that starts mid-duplicates still works.
        assert_eq!(run.scan_range(999, 1_001).unwrap().len(), 300);
        assert_eq!(run.scan_range(0, 199).unwrap().len(), 200);
    }

    #[test]
    fn unsorted_input_is_rejected() {
        let fs = files();
        let recs = vec![TestRec::new(5, 0), TestRec::new(1, 0)];
        assert_eq!(
            Run::build(&fs, &recs, &BloomConfig::default()).unwrap_err(),
            LsmError::UnsortedInput
        );
        let mut b = RunBuilder::<TestRec>::with_capacity(files(), &BloomConfig::default(), 10);
        b.push(&TestRec::new(5, 0)).unwrap();
        assert_eq!(
            b.push(&TestRec::new(1, 0)).unwrap_err(),
            LsmError::UnsortedInput
        );
    }

    #[test]
    fn building_needs_no_reads() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = Arc::new(FileStore::new(disk.clone()));
        let recs: Vec<TestRec> = (0..5_000u64).map(|k| TestRec::new(k, 0)).collect();
        let _run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(
            disk.stats().snapshot().page_reads,
            0,
            "bottom-up build reads nothing"
        );
        assert!(disk.stats().snapshot().page_writes > 0);
    }

    #[test]
    fn bloom_filter_rejects_absent_ranges() {
        let recs: Vec<TestRec> = (0..1000u64).map(|k| TestRec::new(k * 1000, 0)).collect();
        let (_fs, run) = build(&recs);
        assert!(run.may_contain_range(0, 0));
        assert!(
            !run.may_contain_range(2_000_000, 3_000_000),
            "outside key bounds"
        );
        // Inside bounds but between stored keys: the bloom filter usually
        // rejects it (allow the rare false positive).
        let rejected = (0..50)
            .filter(|i| !run.may_contain_range(i * 1000 + 500, i * 1000 + 501))
            .count();
        assert!(
            rejected > 25,
            "bloom filter should reject most absent point ranges"
        );
    }

    #[test]
    fn scan_outside_bounds_is_empty_without_io() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = Arc::new(FileStore::new(disk.clone()));
        let recs: Vec<TestRec> = (10..20u64).map(|k| TestRec::new(k, 0)).collect();
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        let before = disk.stats().snapshot();
        assert!(run.scan_range(100, 200).unwrap().is_empty());
        assert_eq!(disk.stats().snapshot().page_reads, before.page_reads);
    }

    #[test]
    fn for_each_early_stop() {
        let recs: Vec<TestRec> = (0..1000u64).map(|k| TestRec::new(k, 0)).collect();
        let (_fs, run) = build(&recs);
        let mut seen = 0;
        run.for_each_in_range(0, u64::MAX, |_| {
            seen += 1;
            seen < 10
        })
        .unwrap();
        assert_eq!(seen, 10);
    }

    #[test]
    fn delete_frees_file() {
        let fs = files();
        let recs: Vec<TestRec> = (0..100u64).map(|k| TestRec::new(k, 0)).collect();
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(fs.file_count(), 1);
        run.delete().unwrap();
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn retired_run_outlives_readers_then_frees_its_file() {
        let fs = files();
        let recs: Vec<TestRec> = (0..100u64).map(|k| TestRec::new(k, 0)).collect();
        let run = Arc::new(
            Run::build(&fs, &recs, &BloomConfig::default())
                .unwrap()
                .unwrap(),
        );
        let reader = run.clone();
        run.retire();
        drop(run);
        // A reader snapshot still holds the run: the file must survive and
        // stay fully readable.
        assert_eq!(fs.file_count(), 1, "reader keeps the retired run alive");
        assert_eq!(reader.scan_all().unwrap(), recs);
        drop(reader);
        assert_eq!(fs.file_count(), 0, "last reference reclaims the file");
    }

    #[test]
    fn unretired_drop_leaks_nothing_but_keeps_file() {
        // Dropping a run without retiring it must not delete the file (the
        // table owns that decision); explicit delete still works.
        let fs = files();
        let recs: Vec<TestRec> = (0..10u64).map(|k| TestRec::new(k, 0)).collect();
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        let id = run.file_id();
        drop(run);
        assert_eq!(fs.file_count(), 1);
        fs.delete(id).unwrap();
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn build_pipelines_page_writes_through_the_device_queue() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency().with_queue_depth(8));
        let fs = Arc::new(FileStore::new(disk.clone()));
        let recs: Vec<TestRec> = (0..5_000u64).map(|k| TestRec::new(k, 0)).collect();
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        let s = disk.stats().snapshot();
        assert!(
            s.max_in_flight > 1,
            "builder keeps pages in flight (saw {})",
            s.max_in_flight
        );
        assert!(s.completed_async_ops > 0);
        assert_eq!(run.scan_all().unwrap().len(), 5_000, "payloads intact");
    }

    #[test]
    fn build_async_hands_back_inflight_writes() {
        let fs = files();
        let recs: Vec<TestRec> = (0..1_000u64).map(|k| TestRec::new(k, 0)).collect();
        let (run, pending) = Run::build_async(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        assert!(!pending.is_empty(), "tail pages ride the queue");
        for c in &pending {
            c.wait().unwrap();
        }
        assert_eq!(run.scan_all().unwrap(), recs);
        // Empty input still builds nothing.
        assert!(
            Run::<TestRec>::build_async(&fs, &[], &BloomConfig::default())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn failed_inflight_write_deletes_the_run_in_finish() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency().with_queue_depth(8));
        let fs = Arc::new(FileStore::new(disk.clone()));
        let recs: Vec<TestRec> = (0..1_000u64).map(|k| TestRec::new(k, 0)).collect();
        // Let a few pages through, then fail: the fault lands on an
        // in-flight completion, not the submit.
        disk.fail_writes_after(2);
        let err = Run::build(&fs, &recs, &BloomConfig::default()).unwrap_err();
        assert!(matches!(err, LsmError::Device(_)), "{err:?}");
        disk.clear_write_fault();
        assert_eq!(fs.file_count(), 0, "failed build leaks no file");
    }

    #[test]
    fn stats_are_consistent() {
        let recs: Vec<TestRec> = (0..1000u64).map(|k| TestRec::new(k, 0)).collect();
        let (_fs, run) = build(&recs);
        let s = run.stats();
        assert_eq!(s.records, 1000);
        assert_eq!(s.record_bytes, 1000 * 16);
        assert!(s.total_pages >= s.leaf_pages);
    }

    /// A disk plus a run of `n` unique-key records (key `k`, 255 per leaf).
    fn disk_and_run(n: u64) -> (Arc<SimDisk>, Arc<FileStore>, Run<TestRec>) {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = Arc::new(FileStore::new(disk.clone()));
        let recs: Vec<TestRec> = (0..n).map(|k| TestRec::new(k, k)).collect();
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        (disk, fs, run)
    }

    /// Pages read from `disk` while `f` runs.
    fn reads_during<T>(disk: &SimDisk, f: impl FnOnce() -> T) -> (u64, T) {
        let before = disk.stats().snapshot().page_reads;
        let out = f();
        (disk.stats().snapshot().page_reads - before, out)
    }

    /// The device page backing page `logical` of the run's file.
    fn device_page(run: &Run<TestRec>, logical: u64) -> u64 {
        let mut left = logical;
        for (start, len) in run.persisted_file().extents {
            if left < len {
                return start + left;
            }
            left -= len;
        }
        panic!("page {logical} is past the end of the run file");
    }

    #[test]
    fn bloom_is_right_sized_against_the_builders_own_config() {
        let fs = files();
        let cfg = BloomConfig {
            bits_per_entry: 16,
            min_bits: 4096,
            ..BloomConfig::default()
        };
        let recs: Vec<TestRec> = (0..1_000u64).map(|k| TestRec::new(k, 0)).collect();
        let run = Run::build(&fs, &recs, &cfg).unwrap().unwrap();
        assert_eq!(run.bloom().num_bits(), 16_384, "16 bits per entry kept");
        // An over-estimated builder shrinks to the configured floor, not to
        // the default one.
        let mut b = RunBuilder::<TestRec>::with_capacity(fs.clone(), &cfg, 50_000);
        for r in &recs[..10] {
            b.push(r).unwrap();
        }
        assert_eq!(b.finish().unwrap().bloom().num_bits(), 4096);
    }

    #[test]
    fn warm_point_lookup_reads_exactly_one_page() {
        // 1 leaf (no fence section), 2 leaves, and 514 leaves (two fence
        // pages): with the fences resident the lookup is one leaf read.
        for (n, leaves, fence_pages) in [(10u64, 1u64, 0u64), (400, 2, 1), (131_000, 514, 2)] {
            let (disk, _fs, run) = disk_and_run(n);
            let stats = run.stats();
            assert_eq!(stats.leaf_pages, leaves);
            assert_eq!(stats.total_pages, leaves + fence_pages);
            assert_eq!(run.index_bytes() as u64, 8 * leaves);
            for key in [3, n / 2 + 1, n - 2] {
                let (reads, hits) = reads_during(&disk, || run.scan_range(key, key).unwrap());
                assert_eq!(hits, vec![TestRec::new(key, key)]);
                assert_eq!(reads, 1, "{n} records, key {key}");
            }
        }
    }

    #[test]
    fn cursor_reads_a_second_leaf_only_when_the_range_reaches_it() {
        // Leaf 0 holds keys 0..=254, leaf 1 starts at 255.
        let (disk, _fs, run) = disk_and_run(400);
        let (reads, hits) = reads_during(&disk, || run.scan_range(250, 254).unwrap());
        assert_eq!(hits.len(), 5);
        assert_eq!(reads, 1, "range ends on leaf 0's last record");
        let (reads, hits) = reads_during(&disk, || run.scan_range(250, 255).unwrap());
        assert_eq!(hits.len(), 6);
        assert_eq!(reads, 2);
        let (reads, hits) = reads_during(&disk, || run.scan_all().unwrap());
        assert_eq!(hits.len(), 400);
        assert_eq!(
            reads, 2,
            "a full scan reads each leaf once and no fence page"
        );

        // Duplicates of one key straddling the leaf boundary: both leaves.
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = Arc::new(FileStore::new(disk.clone()));
        let mut recs: Vec<TestRec> = (0..200u64).map(|k| TestRec::new(k, 0)).collect();
        recs.extend((0..100u64).map(|p| TestRec::new(1_000, p)));
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        let (reads, hits) = reads_during(&disk, || run.scan_range(1_000, 1_000).unwrap());
        assert_eq!(hits.len(), 100);
        assert_eq!(reads, 2);
    }

    #[test]
    fn reopened_run_loads_its_fences_once_on_the_first_lookup() {
        for (n, fence_pages) in [(10u64, 0u64), (400, 1), (131_000, 2)] {
            let (disk, fs, run) = disk_and_run(n);
            let (reads, reopened) = reads_during(&disk, || {
                Run::<TestRec>::open_from_meta(&fs, &run.meta()).unwrap()
            });
            assert_eq!(reads, 0, "open reads no run page");
            assert_eq!(reopened.index_bytes(), 0, "nothing resident yet");
            let key = n / 2;
            let (reads, hits) = reads_during(&disk, || reopened.scan_range(key, key).unwrap());
            assert_eq!(hits, vec![TestRec::new(key, key)]);
            assert_eq!(reads, fence_pages + 1, "{n} records: fence section + leaf");
            assert_eq!(reopened.index_bytes(), run.index_bytes());
            let (reads, _) = reads_during(&disk, || reopened.scan_range(3, 3).unwrap());
            assert_eq!(reads, 1, "{n} records: fences stay resident");
            assert_eq!(reopened.scan_all().unwrap(), run.scan_all().unwrap());
        }
    }

    #[test]
    fn hostile_fence_pages_are_corrupt_run_errors_not_panics() {
        // 600 records: leaves at pages 0..3, one fence page at page 3
        // holding [0, 255, 510].
        let (disk, fs, run) = disk_and_run(600);
        assert_eq!(run.stats().total_pages, 4);
        let meta = run.meta();
        let fence_page = device_page(&run, 3);
        let good = disk.read_page(fence_page).unwrap();
        let with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = good.clone();
            edit(&mut bad);
            bad
        };
        let hostile: Vec<(&str, Vec<u8>)> = vec![
            ("leaf kind", with(&|p| p[2] = KIND_LEAF)),
            ("parent's internal kind", with(&|p| p[2] = 2)),
            ("unknown kind", with(&|p| p[2] = 0xee)),
            (
                "count above 511",
                with(&|p| p[..2].copy_from_slice(&512u16.to_be_bytes())),
            ),
            (
                "count 65535",
                with(&|p| p[..2].copy_from_slice(&[0xff, 0xff])),
            ),
            (
                "truncated section",
                with(&|p| p[..2].copy_from_slice(&2u16.to_be_bytes())),
            ),
            (
                "overlong section",
                with(&|p| p[..2].copy_from_slice(&4u16.to_be_bytes())),
            ),
            (
                "descending keys",
                with(&|p| p[12..20].copy_from_slice(&600u64.to_be_bytes())),
            ),
            (
                "first fence is not min_key",
                with(&|p| p[4..12].copy_from_slice(&1u64.to_be_bytes())),
            ),
            ("zeroed page", vec![0u8; PAGE_SIZE]),
        ];
        let reopened = Run::<TestRec>::open_from_meta(&fs, &meta).unwrap();
        for (what, bad) in &hostile {
            disk.write_page(fence_page, bad).unwrap();
            assert!(
                matches!(
                    reopened.scan_range(300, 300),
                    Err(LsmError::CorruptRun { .. })
                ),
                "{what}"
            );
            assert!(matches!(
                reopened.iter_range(0, u64::MAX),
                Err(LsmError::CorruptRun { .. })
            ));
        }
        // No failure was remembered: with the page repaired the very same
        // run loads its fences and answers.
        disk.write_page(fence_page, &good).unwrap();
        assert_eq!(
            reopened.scan_range(300, 300).unwrap(),
            vec![TestRec::new(300, 300)]
        );
        assert_eq!(reopened.scan_all().unwrap().len(), 600);

        // A manifest whose geometry disagrees with the file is refused at
        // open: a leaf count that implies a different section length.
        for leaf_pages in [0, 1, 2, 4, 600, u64::MAX] {
            let bad = RunMeta {
                leaf_pages,
                ..meta.clone()
            };
            assert!(
                matches!(
                    Run::<TestRec>::open_from_meta(&fs, &bad),
                    Err(LsmError::CorruptRun { .. })
                ),
                "{leaf_pages} leaves"
            );
        }
        let bad = RunMeta {
            root_page: u64::MAX,
            ..meta.clone()
        };
        assert!(Run::<TestRec>::open_from_meta(&fs, &bad).is_err());
        // A wrong `min_key` passes open (it reads nothing) and is caught by
        // the loader.
        let bad = RunMeta { min_key: 7, ..meta };
        let reopened = Run::<TestRec>::open_from_meta(&fs, &bad).unwrap();
        assert!(matches!(
            reopened.scan_range(300, 300),
            Err(LsmError::CorruptRun { .. })
        ));
    }

    #[test]
    fn read_fault_during_the_lazy_load_fails_that_query_only() {
        // 514 leaves, two fence pages: fail before the first and between
        // the two.
        let (disk, fs, run) = disk_and_run(131_000);
        for successful in [0, 1] {
            let reopened = Run::<TestRec>::open_from_meta(&fs, &run.meta()).unwrap();
            disk.fail_reads_after(successful);
            let err = reopened.scan_range(70_000, 70_000).unwrap_err();
            assert!(matches!(err, LsmError::Device(_)), "{err:?}");
            assert_eq!(reopened.index_bytes(), 0, "a partial load is not kept");
            disk.clear_read_fault();
            let (reads, hits) =
                reads_during(&disk, || reopened.scan_range(70_000, 70_000).unwrap());
            assert_eq!(hits, vec![TestRec::new(70_000, 70_000)]);
            assert_eq!(reads, 3, "the retry reads the whole section again");
        }
        // A fault on a later leaf surfaces mid-stream and fuses the cursor.
        disk.fail_reads_after(2);
        let mut iter = run.iter_range(0, u64::MAX).unwrap();
        let (oks, errs): (Vec<_>, Vec<_>) = iter.by_ref().partition(|item| item.is_ok());
        assert_eq!(oks.len(), 2 * 255);
        assert_eq!(errs.len(), 1);
        assert!(iter.next().is_none());
        disk.clear_read_fault();
    }
}
