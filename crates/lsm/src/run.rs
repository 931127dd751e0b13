// Decode-surface module: recovery paths must return errors, never panic
// (enforced by `backlint` panic-free and audited by clippy here).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use blockdev::{Completion, FileId, FileMap, FileStore, PersistedFile, PAGE_SIZE};

use crate::bloom::{BloomConfig, BloomFilter};
use crate::error::{LsmError, Result};
use crate::record::Record;

/// Number of bytes reserved at the start of every run page for the header
/// (`u16` record count, `u8` page kind, `u8` reserved).
const PAGE_HEADER: usize = 4;
const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;

/// Everything needed to reopen a [`Run`] from its (immutable) backing file
/// without scanning it: the B-tree geometry, the key bounds and the Bloom
/// filter contents. A consistency-point manifest records one `RunMeta` per
/// installed run; [`Run::open_from_meta`] turns it back into a live run in
/// O(extent-map) time, which is what makes
/// `BacklogEngine::open` independent of the database's record count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// The backing virtual file.
    pub file: FileId,
    /// Number of records stored in the run.
    pub records: u64,
    /// Number of leaf pages (pages `0..leaf_pages` of the file).
    pub leaf_pages: u64,
    /// Page offset of the B-tree root within the file (the last page).
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
    /// Total pages including internal index pages.
    pub total_pages: u64,
    /// Logical size in bytes (records × encoded length).
    pub record_bytes: u64,
}

/// An immutable on-disk read-store run: a densely packed B-tree built
/// bottom-up from a sorted record stream.
///
/// A run is the unit the paper calls an *RS file* (a Stepped-Merge Level-0
/// run, or the large merged run produced by database maintenance). Building
/// one performs only sequential page writes — the internal index level
/// `I(n+1)` is accumulated in memory while level `In` is written — so a
/// consistency-point flush needs no disk reads.
///
/// Each run carries an in-memory [`BloomFilter`] over the partition keys of
/// its records so queries can skip runs that cannot contain a block.
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
    /// Page offset of the root page within the run file.
    root_page: u64,
    leaf_pages: u64,
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
        let mut builder =
            RunBuilder::new(files.clone(), bloom_config.clone_for_entries(records.len()));
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
        if map.len_pages() != meta.root_page + 1 || meta.leaf_pages > meta.root_page + 1 {
            return Err(LsmError::CorruptRun {
                detail: format!(
                    "{} holds {} pages but the manifest records root page {} ({} leaves)",
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
    /// B-tree descent to the first key `>= min` plus the leaves up to the
    /// first key `> max` — a narrow query over a large run reads a handful
    /// of pages no matter how many records the run holds.
    ///
    /// # Errors
    ///
    /// The initial descent errors are returned eagerly; page errors hit
    /// while iterating are yielded as `Err` items (the iterator then fuses).
    pub fn iter_range(&self, min: u64, max: u64) -> Result<RunRangeIter<'_, R>> {
        if max < self.min_key || min > self.max_key || self.records == 0 {
            return Ok(RunRangeIter {
                run: self,
                min,
                max,
                leaf: self.leaf_pages,
                index: 0,
                page: None,
                done: true,
            });
        }
        let (leaf, index) = self.find_first_ge(min)?;
        Ok(RunRangeIter {
            run: self,
            min,
            max,
            leaf,
            index,
            page: None,
            done: false,
        })
    }

    /// Locates the first leaf slot whose record partition key is `>= key`.
    /// Returns `(leaf_page, slot_index)`; the position may be one past the
    /// last record, in which case iteration terminates immediately.
    fn find_first_ge(&self, key: u64) -> Result<(u64, usize)> {
        // Descend from the root through internal pages.
        let mut page_no = self.root_page;
        loop {
            let page = self.read_page(page_no)?;
            let (kind, count) = parse_header(&page, R::ENCODED_LEN)?;
            match kind {
                KIND_LEAF => {
                    // Binary search within the leaf for the first record >= key.
                    let mut lo = 0usize;
                    let mut hi = count;
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        let start = PAGE_HEADER + mid * R::ENCODED_LEN;
                        let rec = R::decode(entry_bytes(&page, start, R::ENCODED_LEN, page_no)?);
                        if rec.partition_key() < key {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    return Ok((page_no, lo));
                }
                KIND_INTERNAL => {
                    let entry_len = R::ENCODED_LEN + 8;
                    // Find the last child whose separator key is strictly
                    // less than the search key (default: the first child).
                    // Using `<` rather than `<=` matters when duplicates of
                    // the search key span a child boundary: the run of equal
                    // keys may begin in the previous child, so we must start
                    // there and let the leaf scan walk forward.
                    let mut chosen = 0usize;
                    let mut lo = 0usize;
                    let mut hi = count;
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        let start = PAGE_HEADER + mid * entry_len;
                        let rec = R::decode(entry_bytes(&page, start, R::ENCODED_LEN, page_no)?);
                        if rec.partition_key() < key {
                            chosen = mid;
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    let start = PAGE_HEADER + chosen * entry_len;
                    let child_bytes: [u8; 8] =
                        entry_bytes(&page, start + R::ENCODED_LEN, 8, page_no)?
                            .try_into()
                            .map_err(|_| LsmError::CorruptRun {
                                detail: format!("malformed child pointer at page {page_no}"),
                            })?;
                    page_no = u64::from_be_bytes(child_bytes);
                }
                other => {
                    return Err(LsmError::CorruptRun {
                        detail: format!("unknown page kind {other} at page {page_no}"),
                    })
                }
            }
        }
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
/// [`Run::iter_range`]. Yields records in sorted order, reading one leaf
/// page at a time.
#[derive(Debug)]
pub struct RunRangeIter<'a, R: Record> {
    run: &'a Run<R>,
    min: u64,
    max: u64,
    /// The leaf page the iterator is positioned on.
    leaf: u64,
    /// The slot within the current leaf.
    index: usize,
    /// The current leaf's payload and record count, loaded on demand.
    page: Option<(Vec<u8>, usize)>,
    done: bool,
}

impl<R: Record> RunRangeIter<'_, R> {
    fn load_page(&mut self) -> Result<bool> {
        let page = self.run.read_page(self.leaf)?;
        let (kind, count) = parse_header(&page, R::ENCODED_LEN)?;
        if kind != KIND_LEAF {
            return Err(LsmError::CorruptRun {
                detail: format!("expected leaf at page {}", self.leaf),
            });
        }
        self.page = Some((page, count));
        Ok(true)
    }
}

impl<R: Record> Iterator for RunRangeIter<'_, R> {
    type Item = Result<R>;

    fn next(&mut self) -> Option<Result<R>> {
        if self.done {
            return None;
        }
        loop {
            if self.page.is_none() {
                if self.leaf >= self.run.leaf_pages {
                    self.done = true;
                    return None;
                }
                if let Err(e) = self.load_page() {
                    self.done = true;
                    return Some(Err(e));
                }
            }
            let Some((page, count)) = self.page.as_ref() else {
                self.done = true;
                return Some(Err(LsmError::CorruptRun {
                    detail: format!("leaf page {} not loaded", self.leaf),
                }));
            };
            if self.index < *count {
                let start = PAGE_HEADER + self.index * R::ENCODED_LEN;
                let rec = match entry_bytes(page, start, R::ENCODED_LEN, self.leaf) {
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
                // descent positions us at the first record >= min, but a run
                // of duplicates may force a conservative start); skip them.
            } else {
                self.leaf += 1;
                self.index = 0;
                self.page = None;
            }
        }
    }
}

trait CloneForEntries {
    fn clone_for_entries(&self, entries: usize) -> BloomSizing;
}

/// Internal helper carrying both the config and the intended entry count to
/// the builder.
#[derive(Debug, Clone)]
pub(crate) struct BloomSizing {
    config: BloomConfig,
    entries: usize,
}

impl CloneForEntries for BloomConfig {
    fn clone_for_entries(&self, entries: usize) -> BloomSizing {
        BloomSizing {
            config: *self,
            entries,
        }
    }
}

/// Incremental builder for a [`Run`].
///
/// Records must be pushed in sorted order. Leaf pages are written as they
/// fill; separator entries for the next index level are kept in memory, so
/// the build is a single sequential write pass.
#[derive(Debug)]
pub struct RunBuilder<R: Record> {
    files: Arc<FileStore>,
    file: FileId,
    bloom: BloomFilter,
    /// The leaf page currently being filled.
    leaf_buf: Vec<u8>,
    leaf_count_in_page: usize,
    /// (first record bytes, page offset) of each completed page at the level
    /// currently being produced.
    pending_level: Vec<(Vec<u8>, u64)>,
    pages_written: u64,
    records: u64,
    min_key: u64,
    max_key: u64,
    last: Option<R>,
    records_per_leaf: usize,
    entries_per_internal: usize,
    /// Completions of pipelined page writes not yet waited on, oldest first:
    /// the builder encodes page `N+1` while page `N` is still in flight.
    pending_io: VecDeque<Completion>,
    /// Bound on outstanding writes (2 × the device queue depth), so a huge
    /// run cannot accumulate unbounded completions.
    max_pending_io: usize,
}

impl<R: Record> RunBuilder<R> {
    pub(crate) fn new(files: Arc<FileStore>, sizing: BloomSizing) -> Self {
        let file = files.create().id();
        let records_per_leaf = (PAGE_SIZE - PAGE_HEADER) / R::ENCODED_LEN;
        let entries_per_internal = (PAGE_SIZE - PAGE_HEADER) / (R::ENCODED_LEN + 8);
        let max_pending_io = (files.device().queue_depth() * 2).max(2);
        RunBuilder {
            files,
            file,
            bloom: BloomFilter::for_entries(sizing.entries, &sizing.config),
            leaf_buf: new_page_buf(KIND_LEAF),
            leaf_count_in_page: 0,
            pending_level: Vec::new(),
            pages_written: 0,
            records: 0,
            min_key: u64::MAX,
            max_key: 0,
            last: None,
            records_per_leaf: records_per_leaf.max(1),
            entries_per_internal: entries_per_internal.max(2),
            pending_io: VecDeque::new(),
            max_pending_io,
        }
    }

    /// Creates a builder sized for `expected_records` records.
    pub fn with_capacity(
        files: Arc<FileStore>,
        bloom_config: &BloomConfig,
        expected_records: usize,
    ) -> Self {
        Self::new(files, bloom_config.clone_for_entries(expected_records))
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
            // Remember the first record of this leaf as its separator.
            self.pending_level
                .push((record.encode_to_vec(), self.pages_written));
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

    /// Finishes the run: flushes the last leaf and writes the internal index
    /// levels bottom-up, returning the completed immutable [`Run`]. On error
    /// the partially written run file is deleted.
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
        let cfg = BloomConfig::default();
        let ideal_bits = cfg.bits_for(self.records as usize);
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

    /// Flushes the last leaf and writes the internal index levels bottom-up,
    /// returning the number of leaf pages.
    fn write_index(&mut self) -> Result<u64> {
        self.flush_leaf()?;
        let leaf_pages = self.pages_written;
        // Build index levels until a level fits in one page.
        let mut level = std::mem::take(&mut self.pending_level);
        if level.is_empty() {
            // Empty run: write a single empty leaf so the root page exists.
            let buf = new_page_buf(KIND_LEAF);
            self.append_pipelined(&buf)?;
        }
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for chunk in level.chunks(self.entries_per_internal) {
                let mut buf = new_page_buf(KIND_INTERNAL);
                for (i, (key_bytes, child)) in chunk.iter().enumerate() {
                    let start = PAGE_HEADER + i * (R::ENCODED_LEN + 8);
                    buf[start..start + R::ENCODED_LEN].copy_from_slice(key_bytes);
                    buf[start + R::ENCODED_LEN..start + R::ENCODED_LEN + 8]
                        .copy_from_slice(&child.to_be_bytes());
                }
                set_header(&mut buf, KIND_INTERNAL, chunk.len());
                next_level.push((chunk[0].0.clone(), self.pages_written));
                self.append_pipelined(&buf)?;
            }
            level = next_level;
        }
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
/// length for the page's kind (`record_len` bytes per leaf entry, plus a
/// child pointer for internal entries). The count is a decoded u16 — on a
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
        KIND_INTERNAL => record_len + 8,
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
    fn large_run_spans_multiple_levels_and_scans_correctly() {
        // 16-byte records, ~255 per leaf; 10,000 records => ~40 leaves =>
        // at least one internal level.
        let recs: Vec<TestRec> = (0..10_000u64)
            .map(|k| TestRec::new(k, k ^ 0xdead))
            .collect();
        let (_fs, run) = build(&recs);
        let stats = run.stats();
        assert!(stats.leaf_pages > 1);
        assert!(stats.total_pages > stats.leaf_pages, "has internal pages");
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
}
