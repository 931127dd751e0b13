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
/// (`u16` entry count, `u8` page kind, `u8` flags).
const PAGE_HEADER: usize = 4;
/// A leaf page: `count` delta-coded records from byte [`PAGE_HEADER`] on,
/// and at the end of the page a big-endian `u16` offset per restart point
/// followed by the `u16` number of restart points. Kinds 1 and 2 are not
/// reused: they mark the fixed-width leaves of pre-version-5 run files and
/// the internal pages of pre-version-3 ones.
const KIND_LEAF: u8 = 4;
/// A fence page: big-endian `u64` first-keys of consecutive leaves.
const KIND_FENCE: u8 = 3;
const FENCE_LEN: usize = 8;
/// Fence keys per fence page (511 with 4 KiB pages).
const FENCES_PER_PAGE: usize = (PAGE_SIZE - PAGE_HEADER) / FENCE_LEN;
/// Leaf flag (header byte 3): the leaf's first key equals the previous
/// leaf's last key, so a run of that key's duplicates begins before it.
const LEAF_CONTINUES: u8 = 1;
/// Records per restart point: record `i` of a leaf is stored whole when
/// `i % RESTART_INTERVAL == 0`, delta-coded against record `i - 1` otherwise.
const RESTART_INTERVAL: usize = 16;
/// Bytes of one restart offset, and of the restart count that ends a leaf.
const RESTART_LEN: usize = 2;
/// Largest encoded record: at most 8 columns of at most 8 bytes.
const MAX_RECORD: usize = 64;
/// A record's encoding plus 8 bytes of slack, so that every column reads
/// and writes as one 8-byte big-endian word.
type RecordBuf = [u8; MAX_RECORD + 8];

/// Fails the build of any code that writes or reads runs of `R` unless its
/// layout can be delta-coded.
fn assert_layout<R: Record>() {
    const {
        assert!(
            layout_is_valid(R::COLUMNS, R::ENCODED_LEN),
            "Record::COLUMNS must be 1 to 8 widths of 1 to 8 bytes summing to ENCODED_LEN"
        )
    }
}

/// The longest delta coding of a record with these columns: the flags byte
/// and each column's longest varint (7 bits a byte).
const fn max_delta(columns: &[usize]) -> usize {
    let mut len = 1;
    let mut i = 0;
    while i < columns.len() {
        len += (8 * columns[i]).div_ceil(7);
        i += 1;
    }
    len
}

/// Whether a record layout can be delta-coded: 1 to 8 columns of 1 to 8
/// bytes, summing to the encoded length.
const fn layout_is_valid(columns: &[usize], encoded_len: usize) -> bool {
    if columns.is_empty() || columns.len() > 8 {
        return false;
    }
    let mut sum = 0;
    let mut i = 0;
    while i < columns.len() {
        if columns[i] == 0 || columns[i] > 8 {
            return false;
        }
        sum += columns[i];
        i += 1;
    }
    sum == encoded_len
}

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
    /// Number of distinct keys inserted into the Bloom filter.
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
    /// Logical size in bytes: records × the fixed-width encoded length, the
    /// paper's record format. Leaves store less, because they delta-code.
    pub record_bytes: u64,
}

/// An immutable on-disk read-store run: sorted, delta-coded leaf pages
/// followed by a flat *fence section* holding the partition key of each
/// leaf's first record.
///
/// A leaf stores each record as a flags byte naming the
/// [`COLUMNS`](Record::COLUMNS) that differ from the previous record, then
/// one varint per changed column: the first carries its growth over the
/// previous value, the rest their raw values. Every 16th record is a
/// *restart point*, stored whole, and the leaf ends with the byte offsets of
/// its restart points, so a lookup binary-searches them and decodes at most
/// 16 records. A leaf whose first key repeats the previous leaf's last key
/// says so in its header, so a lookup for a key equal to a leaf's fence
/// reads that leaf alone unless a run of duplicates crosses into it.
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

    /// Reads leaf `leaf` and validates its layout (see [`Leaf::parse`]).
    fn read_leaf(&self, leaf: usize) -> Result<Leaf> {
        Leaf::parse(self.read_page(leaf as u64)?, leaf)
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
            let (kind, count, _) = parse_header(&page)?;
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
        assert_layout::<R>();
        let mut iter = RunRangeIter {
            run: self,
            fences: &[],
            min,
            max,
            leaf: Leaf::default(),
            ahead: None,
            cursor: Cursor::default(),
            last: None,
            done: true,
        };
        if max < self.min_key || min > self.max_key || self.records == 0 {
            return Ok(iter);
        }
        iter.fences = self.fences()?;
        let (leaf, ahead) = self.find_leaf(iter.fences, min)?;
        iter.cursor = leaf.seek::<R>(min)?;
        (iter.leaf, iter.ahead, iter.done) = (leaf, ahead, false);
        Ok(iter)
    }

    /// Reads the leaf that holds the first record whose partition key is
    /// `>= key`: the last leaf whose fence is at most `key`, or the first
    /// leaf by default. When a leaf's fence *equals* `key`, a run of that
    /// key's duplicates may begin in the previous leaf, which is what the
    /// leaf's [`LEAF_CONTINUES`] flag says; only then is the previous leaf
    /// read too, and the leaf already read is handed back to be visited
    /// next rather than read again.
    fn find_leaf(&self, fences: &[u64], key: u64) -> Result<(Leaf, Option<Leaf>)> {
        let first_ge = fences.partition_point(|&k| k < key);
        if first_ge > 0 && fences.get(first_ge) == Some(&key) {
            let leaf = self.read_leaf(first_ge)?;
            if leaf.continues {
                return Ok((self.read_leaf(first_ge - 1)?, Some(leaf)));
            }
            return Ok((leaf, None));
        }
        Ok((self.read_leaf(first_ge.saturating_sub(1))?, None))
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

/// A leaf page whose layout [`parse`](Leaf::parse) validated: the restart
/// count matches the record count, the restart array fits the page, and
/// the first restart is the first record byte.
#[derive(Debug, Default)]
struct Leaf {
    page: Vec<u8>,
    /// The leaf's index in the run, for error context.
    no: usize,
    count: usize,
    restarts: usize,
    /// One past the record area: where the restart offsets begin.
    area_end: usize,
    continues: bool,
}

/// A decoding position within a [`Leaf`]: the index and byte offset of the
/// next record, and the previous record's column values and encoding,
/// which the next delta-coded record amends.
#[derive(Debug)]
struct Cursor {
    index: usize,
    at: usize,
    values: [u64; 8],
    record: RecordBuf,
}

impl Cursor {
    /// A cursor on record `index`, which starts at byte `at`.
    fn at(index: usize, at: usize) -> Cursor {
        Cursor {
            index,
            at,
            values: [0; 8],
            record: [0; MAX_RECORD + 8],
        }
    }
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor::at(0, PAGE_HEADER)
    }
}

impl Leaf {
    /// Validates leaf `no`'s header and restart array.
    fn parse(page: Vec<u8>, no: usize) -> Result<Leaf> {
        let corrupt = |what: String| leaf_error(no, what);
        let (kind, count, flags) = parse_header(&page)?;
        if kind != KIND_LEAF {
            return Err(corrupt(format!("expected a leaf, found kind {kind}")));
        }
        let restarts = page
            .get(page.len().saturating_sub(RESTART_LEN)..)
            .and_then(|b| b.try_into().ok())
            .map_or(0, |b: [u8; 2]| u16::from_be_bytes(b) as usize);
        if restarts != count.div_ceil(RESTART_INTERVAL) {
            return Err(corrupt(format!(
                "{restarts} restart points for {count} records"
            )));
        }
        let area_end = page
            .len()
            .checked_sub(RESTART_LEN * (restarts + 1))
            .filter(|&end| end >= PAGE_HEADER)
            .ok_or_else(|| corrupt(format!("{restarts} restart points overflow the page")))?;
        let leaf = Leaf {
            page,
            no,
            count,
            restarts,
            area_end,
            continues: flags & LEAF_CONTINUES != 0,
        };
        // Later restarts are checked where they are used: a lookup reads a
        // restart record only inside the record area, and a cursor checks
        // that the records before each restart end exactly where it begins.
        if restarts > 0 && leaf.restart(0) != PAGE_HEADER {
            return Err(corrupt(format!(
                "restart 0 at byte {}, not at the first record",
                leaf.restart(0)
            )));
        }
        Ok(leaf)
    }

    /// The byte offset of restart point `i` (`usize::MAX` past the array).
    fn restart(&self, i: usize) -> usize {
        let at = self.area_end + i * RESTART_LEN;
        self.page
            .get(at..at + RESTART_LEN)
            .and_then(|b| b.try_into().ok())
            .map_or(usize::MAX, |b: [u8; 2]| u16::from_be_bytes(b) as usize)
    }

    /// The record stored whole at restart point `i`.
    fn restart_record(&self, i: usize, len: usize) -> Result<&[u8]> {
        let at = self.restart(i);
        self.page
            .get(at..self.area_end)
            .and_then(|area| area.get(..len))
            .filter(|_| at >= PAGE_HEADER)
            .ok_or_else(|| {
                self.corrupt(format!(
                    "restart {i} at byte {at} is outside the record area"
                ))
            })
    }

    /// A cursor on the last restart point whose record's partition key is
    /// below `key` (the first by default): the first record `>= key` is at
    /// most 16 records on.
    fn seek<R: Record>(&self, key: u64) -> Result<Cursor> {
        let (mut lo, mut hi) = (0, self.restarts);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if R::decode(self.restart_record(mid, R::ENCODED_LEN)?).partition_key() < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let restart = lo.saturating_sub(1);
        Ok(match self.restarts {
            0 => Cursor::default(),
            _ => Cursor::at(restart * RESTART_INTERVAL, self.restart(restart)),
        })
    }

    /// Decodes the record at `cursor` and moves the cursor past it. The
    /// caller checks `cursor.index < self.count`.
    fn decode_next<R: Record>(&self, cursor: &mut Cursor) -> Result<R> {
        let len = R::ENCODED_LEN;
        if cursor.index.is_multiple_of(RESTART_INTERVAL) {
            let restart = cursor.index / RESTART_INTERVAL;
            if self.restart(restart) != cursor.at {
                return Err(self.corrupt(format!(
                    "record {} ends at byte {}, not at restart {restart}",
                    cursor.index, cursor.at
                )));
            }
            let whole = self.restart_record(restart, len)?;
            if let Some(record) = cursor.record.get_mut(..len) {
                record.copy_from_slice(whole);
            }
            cursor.values = column_values(R::COLUMNS, &cursor.record);
            cursor.at += len;
        } else {
            let area = self.page.get(..self.area_end).unwrap_or_default();
            decode_delta(R::COLUMNS, area, &mut cursor.at, &mut cursor.values)
                .map_err(|what| self.corrupt(format!("record {}: {what}", cursor.index)))?;
            put_columns(R::COLUMNS, &cursor.values, &mut cursor.record);
        }
        cursor.index += 1;
        Ok(R::decode(cursor.record.get(..len).unwrap_or_default()))
    }

    fn corrupt(&self, what: String) -> LsmError {
        leaf_error(self.no, what)
    }
}

fn leaf_error(no: usize, what: String) -> LsmError {
    LsmError::CorruptRun {
        detail: format!("leaf {no}: {what}"),
    }
}

/// Lazy iterator over a key range of a [`Run`], created by
/// [`Run::iter_range`]. Yields records in sorted order, holding one leaf
/// page at a time and decoding forward from the previous record.
#[derive(Debug)]
pub struct RunRangeIter<'a, R: Record> {
    run: &'a Run<R>,
    /// The run's resident fence keys (empty for an empty range).
    fences: &'a [u64],
    min: u64,
    max: u64,
    /// The leaf the iterator is positioned on.
    leaf: Leaf,
    /// The following leaf, when the lookup had to read it first.
    ahead: Option<Leaf>,
    cursor: Cursor,
    /// The last record decoded: every record must sort at or above it.
    last: Option<R>,
    done: bool,
}

impl<R: Record> RunRangeIter<'_, R> {
    /// The next record at or after `min`, `None` past `max` or the run's end.
    fn advance(&mut self) -> Result<Option<R>> {
        loop {
            if self.cursor.index < self.leaf.count {
                let rec: R = self.leaf.decode_next(&mut self.cursor)?;
                if self.last.as_ref().is_some_and(|last| rec < *last) {
                    return Err(self.leaf.corrupt(format!(
                        "record {} sorts below its predecessor",
                        self.cursor.index - 1
                    )));
                }
                self.last = Some(rec.clone());
                let key = rec.partition_key();
                if key > self.max {
                    return Ok(None);
                }
                if key >= self.min {
                    return Ok(Some(rec));
                }
                // Keys below `min` lie only between the restart point the
                // lookup started at and the first record `>= min`.
            } else {
                // The next leaf's first key is resident: past the last leaf,
                // or past `max`, the range ends here without another read.
                let next = self.leaf.no + 1;
                if self.fences.get(next).is_none_or(|&first| first > self.max) {
                    return Ok(None);
                }
                self.leaf = match self.ahead.take() {
                    Some(leaf) => leaf,
                    None => self.run.read_leaf(next)?,
                };
                self.cursor = Cursor::default();
            }
        }
    }
}

impl<R: Record> Iterator for RunRangeIter<'_, R> {
    type Item = Result<R>;

    fn next(&mut self) -> Option<Result<R>> {
        if self.done {
            return None;
        }
        let item = self.advance().transpose();
        // An error or the end of the range fuses the iterator.
        self.done = !matches!(item, Some(Ok(_)));
        item
    }
}

/// Incremental builder for a [`Run`].
///
/// Records must be pushed in sorted order. Each is delta-coded against its
/// predecessor into the current leaf, which is written as soon as the next
/// record's worst-case coding would not fit; each leaf's first key is kept in memory,
/// and finishing appends those fence keys as one flat section and hands them
/// to the [`Run`] as its resident index, so the build is a single sequential
/// write pass and the new run needs no read before its first lookup.
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
    /// One past the last record byte of the current leaf.
    leaf_used: usize,
    /// Byte offsets of the current leaf's restart points.
    restarts: Vec<u16>,
    /// The column values of the last record pushed.
    prev: [u64; 8],
    /// Partition key of the first record of each leaf started so far.
    fences: Vec<u64>,
    pages_written: u64,
    records: u64,
    min_key: u64,
    max_key: u64,
    last: Option<R>,
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
        assert_layout::<R>();
        let file = files.create().id();
        let max_pending_io = (files.device().queue_depth() * 2).max(2);
        RunBuilder {
            files,
            file,
            bloom: BloomFilter::for_entries(expected_records, bloom_config),
            bloom_config: *bloom_config,
            leaf_buf: new_page_buf(KIND_LEAF),
            leaf_count_in_page: 0,
            leaf_used: PAGE_HEADER,
            restarts: Vec::new(),
            prev: [0; 8],
            fences: Vec::new(),
            pages_written: 0,
            records: 0,
            min_key: u64::MAX,
            max_key: 0,
            last: None,
            pending_io: VecDeque::new(),
            max_pending_io,
        }
    }

    /// Number of records pushed so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Appends the next record, which must not sort before the previous one.
    /// The Bloom filter receives each distinct key once: the input is
    /// sorted, so a key's duplicates are adjacent.
    ///
    /// # Errors
    ///
    /// Returns [`LsmError::UnsortedInput`] on out-of-order input and
    /// propagates device errors.
    pub fn push(&mut self, record: &R) -> Result<()> {
        let key = record.partition_key();
        let repeats_key = match &self.last {
            Some(last) if record < last => return Err(LsmError::UnsortedInput),
            Some(last) => last.partition_key() == key,
            None => false,
        };
        self.last = Some(record.clone());
        self.min_key = self.min_key.min(key);
        self.max_key = self.max_key.max(key);
        if !repeats_key {
            self.bloom.insert(key);
        }
        let mut encoded: RecordBuf = [0; MAX_RECORD + 8];
        record.encode(&mut encoded[..R::ENCODED_LEN]);
        if self.room() < self.worst_case() {
            self.flush_leaf()?;
        }
        let columns = column_values(R::COLUMNS, &encoded);
        if self.leaf_count_in_page.is_multiple_of(RESTART_INTERVAL) {
            let end = self.leaf_used + R::ENCODED_LEN;
            self.restarts.push(self.leaf_used as u16);
            self.leaf_buf[self.leaf_used..end].copy_from_slice(&encoded[..R::ENCODED_LEN]);
            self.leaf_used = end;
        } else {
            let out = &mut self.leaf_buf[self.leaf_used..];
            self.leaf_used += encode_delta(R::COLUMNS, &self.prev, &columns, out);
        }
        self.prev = columns;
        self.leaf_count_in_page += 1;
        if self.leaf_count_in_page == 1 {
            // The first record of a leaf: its key is the leaf's fence.
            self.fences.push(key);
            if repeats_key {
                self.leaf_buf[3] |= LEAF_CONTINUES;
            }
        }
        self.records += 1;
        Ok(())
    }

    /// Free bytes of the current leaf between its records and its restart
    /// array.
    fn room(&self) -> usize {
        PAGE_SIZE - RESTART_LEN * (self.restarts.len() + 1) - self.leaf_used
    }

    /// The most bytes the next record can take in the current leaf: whole
    /// plus a restart slot at a restart point, its longest delta coding
    /// otherwise. A fresh leaf always has room for it.
    fn worst_case(&self) -> usize {
        if self.leaf_count_in_page.is_multiple_of(RESTART_INTERVAL) {
            R::ENCODED_LEN + RESTART_LEN
        } else {
            const { max_delta(R::COLUMNS) }
        }
    }

    fn flush_leaf(&mut self) -> Result<()> {
        if self.leaf_count_in_page == 0 {
            return Ok(());
        }
        let trailer = PAGE_SIZE - RESTART_LEN * (self.restarts.len() + 1);
        let slots = self.leaf_buf[trailer..].chunks_exact_mut(RESTART_LEN);
        let entries = self
            .restarts
            .iter()
            .copied()
            .chain([self.restarts.len() as u16]);
        for (slot, value) in slots.zip(entries) {
            slot.copy_from_slice(&value.to_be_bytes());
        }
        set_header(&mut self.leaf_buf, KIND_LEAF, self.leaf_count_in_page);
        let buf = std::mem::replace(&mut self.leaf_buf, new_page_buf(KIND_LEAF));
        self.append_pipelined(&buf)?;
        self.leaf_count_in_page = 0;
        self.leaf_used = PAGE_HEADER;
        self.restarts.clear();
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

/// Sets a page's entry count and kind, keeping its flags byte.
fn set_header(buf: &mut [u8], kind: u8, count: usize) {
    buf[0..2].copy_from_slice(&(count as u16).to_be_bytes());
    buf[2] = kind;
}

/// Parses a run-page header into its entry count, kind and flags. The
/// count is a decoded u16 — on a corrupt page it can claim up to 65535
/// entries — so the caller checks it against the page's layout before it
/// drives any slicing.
fn parse_header(buf: &[u8]) -> Result<(u8, usize, u8)> {
    match buf.get(..PAGE_HEADER) {
        Some(&[hi, lo, kind, flags]) => Ok((kind, u16::from_be_bytes([hi, lo]) as usize, flags)),
        _ => Err(LsmError::CorruptRun {
            detail: "page shorter than header".into(),
        }),
    }
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

/// All-ones in the low `width` bytes.
fn column_mask(width: usize) -> u64 {
    u64::MAX >> (64 - 8 * width)
}

/// The 8-byte big-endian word of `record` at byte `at`.
fn word(record: &RecordBuf, at: usize) -> u64 {
    record
        .get(at..at + 8)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u64::from_be_bytes)
}

/// The unsigned value of each column of an encoded record.
fn column_values(columns: &[usize], record: &RecordBuf) -> [u64; 8] {
    let mut values = [0; 8];
    let mut at = 0;
    for (value, &width) in values.iter_mut().zip(columns) {
        *value = word(record, at) >> (64 - 8 * width);
        at += width;
    }
    values
}

/// Delta-codes a record's column values against its predecessor's into
/// `out`, returning the coded length: a flags byte with bit `c` set when
/// column `c` differs, then one LEB128 varint per set bit — the first
/// changed column's growth (modulo its width), the later ones' raw values.
/// `out` has room for the longest coding.
fn encode_delta(columns: &[usize], prev: &[u64; 8], cur: &[u64; 8], out: &mut [u8]) -> usize {
    let (mut flags, mut len) = (0u8, 1);
    for (c, &width) in columns.iter().enumerate() {
        if cur[c] == prev[c] {
            continue;
        }
        let mut coded = if flags == 0 {
            cur[c].wrapping_sub(prev[c]) & column_mask(width)
        } else {
            cur[c]
        };
        flags |= 1 << c;
        while coded > 0x7f {
            out[len] = coded as u8 | 0x80;
            coded >>= 7;
            len += 1;
        }
        out[len] = coded as u8;
        len += 1;
    }
    out[0] = flags;
    len
}

/// Decodes one delta-coded record from `area[*at..]` onto `values`, the
/// previous record's column values, advancing `at` past it. The error names
/// what is wrong; the caller adds the page context.
fn decode_delta(
    columns: &[usize],
    area: &[u8],
    at: &mut usize,
    values: &mut [u64; 8],
) -> std::result::Result<(), &'static str> {
    let flags = *area.get(*at).ok_or("record starts past the record area")?;
    *at += 1;
    if u32::from(flags) >> columns.len() != 0 {
        return Err("flags name a column the record does not have");
    }
    let mut changed = flags;
    let mut first = true;
    while changed != 0 {
        let c = changed.trailing_zeros() as usize;
        changed &= changed - 1;
        let mask = columns.get(c).map_or(0, |&width| column_mask(width));
        let coded = decode_varint(area, at)?;
        if coded > mask {
            return Err("column value wider than its column");
        }
        values[c] = if first {
            values[c].wrapping_add(coded) & mask
        } else {
            coded
        };
        first = false;
    }
    Ok(())
}

/// Writes column values into an encoded record, in column order: each
/// 8-byte store's low bytes are overwritten by the next column's.
fn put_columns(columns: &[usize], values: &[u64; 8], record: &mut RecordBuf) {
    let mut at = 0;
    for (&value, &width) in values.iter().zip(columns) {
        if let Some(bytes) = record.get_mut(at..at + 8) {
            bytes.copy_from_slice(&(value << (64 - 8 * width)).to_be_bytes());
        }
        at += width;
    }
}

/// Reads one LEB128 varint of at most 64 bits from `area[*at..]`.
fn decode_varint(area: &[u8], at: &mut usize) -> std::result::Result<u64, &'static str> {
    let mut value = 0u64;
    let mut shift = 0;
    let mut next = *at;
    while let Some(&byte) = area.get(next) {
        next += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            // Ten 7-bit groups hold 64 bits only if the tenth is 0 or 1.
            if shift == 63 && byte > 1 {
                break;
            }
            *at = next;
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            break;
        }
    }
    let rest = area.get(*at..).unwrap_or_default();
    if rest.iter().all(|&byte| byte >= 0x80) {
        Err("varint runs past the record area")
    } else {
        Err("varint wider than 64 bits")
    }
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
        // Each record after a restart point codes as 5 bytes (flags, a 1-byte
        // key delta, a 3-byte payload), so 700 fit a leaf; 28,000 records =>
        // 40 leaves => one fence page, however many leaves (up to 511) it
        // indexes.
        let recs: Vec<TestRec> = (0..28_000u64)
            .map(|k| TestRec::new(k, k ^ 0xdead))
            .collect();
        let (_fs, run) = build(&recs);
        let stats = run.stats();
        assert_eq!(stats.leaf_pages, 40);
        assert_eq!(stats.total_pages, stats.leaf_pages + 1, "one fence page");
        assert_eq!(run.index_bytes(), 8 * 40);
        assert_eq!(run.fences().unwrap()[1], 700);
        assert_eq!(run.scan_all().unwrap(), recs);
        // Point query in the middle.
        assert_eq!(
            run.scan_range(5_000, 5_000).unwrap(),
            vec![TestRec::new(5_000, 5_000 ^ 0xdead)]
        );
        // Range query.
        let r = run.scan_range(27_990, 28_005).unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].key, 27_990);
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
        // About 1,360 two-byte-coded records fit per leaf. Put 1,300 records
        // with smaller keys first so that the run of 300 duplicates of key
        // 5000 straddles a leaf boundary, then verify a point range query
        // returns every duplicate.
        let mut recs: Vec<TestRec> = (0..1_300u64).map(|k| TestRec::new(k, 0)).collect();
        recs.extend((0..300u64).map(|p| TestRec::new(5_000, p)));
        recs.extend((0..200u64).map(|k| TestRec::new(6_000 + k, 0)));
        recs.sort();
        let (_fs, run) = build(&recs);
        assert!(run.stats().leaf_pages >= 2);
        let hits = run.scan_range(5_000, 5_000).unwrap();
        assert_eq!(
            hits.len(),
            300,
            "every duplicate across the leaf boundary is returned"
        );
        // And a range that starts mid-duplicates still works.
        assert_eq!(run.scan_range(4_999, 5_001).unwrap().len(), 300);
        assert_eq!(run.scan_range(0, 1_299).unwrap().len(), 1_300);
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
        // Four leaves and a fence page.
        let recs: Vec<TestRec> = (0..5_000u64).map(|k| TestRec::new(k, 0)).collect();
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

    /// Records per leaf of [`disk_and_run`]: groups of a 16-byte restart
    /// record, its 2-byte slot and 15 two-byte deltas fill a leaf's 4,090
    /// free bytes until fewer are left than the longest delta coding of a
    /// record (21): 84 groups, a restart record and 10 deltas.
    const PER_LEAF: u64 = 1_355;

    /// A disk plus a run of `n` unique-key records (key `k`, payload 0,
    /// [`PER_LEAF`] per leaf).
    fn disk_and_run(n: u64) -> (Arc<SimDisk>, Arc<FileStore>, Run<TestRec>) {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = Arc::new(FileStore::new(disk.clone()));
        let recs: Vec<TestRec> = (0..n).map(|k| TestRec::new(k, 0)).collect();
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
        let big = 513 * PER_LEAF + 1;
        for (n, leaves, fence_pages) in [(10u64, 1u64, 0u64), (2_000, 2, 1), (big, 514, 2)] {
            let (disk, _fs, run) = disk_and_run(n);
            let stats = run.stats();
            assert_eq!(stats.leaf_pages, leaves);
            assert_eq!(stats.total_pages, leaves + fence_pages);
            assert_eq!(run.index_bytes() as u64, 8 * leaves);
            for key in [3, n / 2 + 1, n - 2] {
                let (reads, hits) = reads_during(&disk, || run.scan_range(key, key).unwrap());
                assert_eq!(hits, vec![TestRec::new(key, 0)]);
                assert_eq!(reads, 1, "{n} records, key {key}");
            }
        }
    }

    #[test]
    fn cursor_reads_a_second_leaf_only_when_the_range_reaches_it() {
        // Leaf 0 holds keys 0..=1354, leaf 1 starts at 1355.
        let (disk, _fs, run) = disk_and_run(2_000);
        let (reads, hits) = reads_during(&disk, || run.scan_range(1_350, 1_354).unwrap());
        assert_eq!(hits.len(), 5);
        assert_eq!(reads, 1, "range ends on leaf 0's last record");
        let (reads, hits) = reads_during(&disk, || run.scan_range(1_350, 1_355).unwrap());
        assert_eq!(hits.len(), 6);
        assert_eq!(reads, 2);
        let (reads, hits) = reads_during(&disk, || run.scan_all().unwrap());
        assert_eq!(hits.len(), 2_000);
        assert_eq!(
            reads, 2,
            "a full scan reads each leaf once and no fence page"
        );

        // Duplicates of one key straddling the leaf boundary: both leaves,
        // each read once, though the lookup reads the second one first.
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = Arc::new(FileStore::new(disk.clone()));
        let mut recs: Vec<TestRec> = (0..1_300u64).map(|k| TestRec::new(k, 0)).collect();
        recs.extend((0..100u64).map(|p| TestRec::new(5_000, p)));
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(run.fences().unwrap(), &[0, 5_000]);
        let (reads, hits) = reads_during(&disk, || run.scan_range(5_000, 5_000).unwrap());
        assert_eq!(hits.len(), 100);
        assert_eq!(reads, 2);
    }

    #[test]
    fn reopened_run_loads_its_fences_once_on_the_first_lookup() {
        for (n, fence_pages) in [(10u64, 0u64), (2_000, 1), (513 * PER_LEAF + 1, 2)] {
            let (disk, fs, run) = disk_and_run(n);
            let (reads, reopened) = reads_during(&disk, || {
                Run::<TestRec>::open_from_meta(&fs, &run.meta()).unwrap()
            });
            assert_eq!(reads, 0, "open reads no run page");
            assert_eq!(reopened.index_bytes(), 0, "nothing resident yet");
            let key = n / 2;
            let (reads, hits) = reads_during(&disk, || reopened.scan_range(key, key).unwrap());
            assert_eq!(hits, vec![TestRec::new(key, 0)]);
            assert_eq!(reads, fence_pages + 1, "{n} records: fence section + leaf");
            assert_eq!(reopened.index_bytes(), run.index_bytes());
            let (reads, _) = reads_during(&disk, || reopened.scan_range(3, 3).unwrap());
            assert_eq!(reads, 1, "{n} records: fences stay resident");
            assert_eq!(reopened.scan_all().unwrap(), run.scan_all().unwrap());
        }
    }

    #[test]
    fn hostile_fence_pages_are_corrupt_run_errors_not_panics() {
        // 3,000 records: leaves at pages 0..3, one fence page at page 3
        // holding [0, 1355, 2710].
        let (disk, fs, run) = disk_and_run(3_000);
        assert_eq!(run.stats().total_pages, 4);
        assert_eq!(run.fences().unwrap(), &[0, PER_LEAF, 2 * PER_LEAF]);
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
            ("fixed-width leaf kind", with(&|p| p[2] = 1)),
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
                with(&|p| p[12..20].copy_from_slice(&3_000u64.to_be_bytes())),
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
                    reopened.scan_range(1_500, 1_500),
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
            reopened.scan_range(1_500, 1_500).unwrap(),
            vec![TestRec::new(1_500, 0)]
        );
        assert_eq!(reopened.scan_all().unwrap().len(), 3_000);

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
            reopened.scan_range(1_500, 1_500),
            Err(LsmError::CorruptRun { .. })
        ));
    }

    #[test]
    fn read_fault_during_the_lazy_load_fails_that_query_only() {
        // 514 leaves, two fence pages: fail before the first and between
        // the two.
        let (disk, fs, run) = disk_and_run(513 * PER_LEAF + 1);
        for successful in [0, 1] {
            let reopened = Run::<TestRec>::open_from_meta(&fs, &run.meta()).unwrap();
            disk.fail_reads_after(successful);
            let err = reopened.scan_range(350_000, 350_000).unwrap_err();
            assert!(matches!(err, LsmError::Device(_)), "{err:?}");
            assert_eq!(reopened.index_bytes(), 0, "a partial load is not kept");
            disk.clear_read_fault();
            let (reads, hits) =
                reads_during(&disk, || reopened.scan_range(350_000, 350_000).unwrap());
            assert_eq!(hits, vec![TestRec::new(350_000, 0)]);
            assert_eq!(reads, 3, "the retry reads the whole section again");
        }
        // A fault on a later leaf surfaces mid-stream and fuses the cursor.
        disk.fail_reads_after(2);
        let mut iter = run.iter_range(0, u64::MAX).unwrap();
        let (oks, errs): (Vec<_>, Vec<_>) = iter.by_ref().partition(|item| item.is_ok());
        assert_eq!(oks.len(), 2 * PER_LEAF as usize);
        assert_eq!(errs.len(), 1);
        assert!(iter.next().is_none());
        disk.clear_read_fault();
    }

    #[test]
    fn fence_key_lookup_reads_one_page_unless_duplicates_cross_into_the_leaf() {
        // Leaf 1's fence is 1355 and leaf 0 ends at 1354: a lookup for the
        // fence key, or a range starting there, reads leaf 1 alone.
        let (disk, _fs, run) = disk_and_run(2_000);
        assert!(!run.read_leaf(1).unwrap().continues);
        let (reads, hits) = reads_during(&disk, || run.scan_range(PER_LEAF, PER_LEAF).unwrap());
        assert_eq!(hits, vec![TestRec::new(PER_LEAF, 0)]);
        assert_eq!(reads, 1);
        let (reads, hits) = reads_during(&disk, || run.scan_range(PER_LEAF, PER_LEAF + 5).unwrap());
        assert_eq!(hits.len(), 6);
        assert_eq!(reads, 1);

        // 4,000 duplicates of key 5000 start in leaf 0 and fill the next
        // leaves, each flagged as continuing its predecessor's last key: the
        // lookup reads every leaf holding the key exactly once.
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = Arc::new(FileStore::new(disk.clone()));
        let mut recs: Vec<TestRec> = (0..1_000u64).map(|k| TestRec::new(k, 0)).collect();
        recs.extend((0..4_000u64).map(|p| TestRec::new(5_000, p)));
        recs.extend((0..100u64).map(|k| TestRec::new(6_000 + k, 0)));
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        let fences = run.fences().unwrap().to_vec();
        let dup_leaves = fences.iter().filter(|&&k| k == 5_000).count();
        assert!(dup_leaves >= 2, "the duplicates straddle three leaves");
        for (leaf, &fence) in fences.iter().enumerate() {
            assert_eq!(
                run.read_leaf(leaf).unwrap().continues,
                fence == 5_000,
                "leaf {leaf}"
            );
        }
        let (reads, hits) = reads_during(&disk, || run.scan_range(5_000, 5_000).unwrap());
        assert_eq!(hits, recs[1_000..5_000]);
        assert_eq!(reads, 1 + dup_leaves as u64);
        let (reads, hits) = reads_during(&disk, || run.scan_range(5_000, 6_099).unwrap());
        assert_eq!(hits, recs[1_000..]);
        assert_eq!(reads, fences.len() as u64, "every leaf once");
    }

    #[test]
    fn bloom_takes_each_distinct_key_once() {
        let fs = files();
        let cfg = BloomConfig::default();
        let recs: Vec<TestRec> = (0..3_000u64)
            .map(|i| TestRec::new(i / 7 * 3, i % 7))
            .collect();
        let run = Run::build(&fs, &recs, &cfg).unwrap().unwrap();
        // The filter of inserting every record's key, right-sized as the
        // builder right-sizes it.
        let mut every = BloomFilter::for_entries(recs.len(), &cfg);
        for r in &recs {
            every.insert(r.key);
        }
        every.shrink_to(cfg.bits_for(recs.len()));
        assert_eq!(run.bloom().words(), every.words());
        let meta = run.meta();
        assert_eq!(meta.bloom_entries, 3_000u64.div_ceil(7), "distinct keys");
        assert_eq!(every.entries(), 3_000);
    }

    /// Orders by key, then by *descending* payload, so the payload's
    /// big-endian bytes shrink where the record grows: the first changed
    /// column's growth wraps.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Desc(TestRec);

    impl Ord for Desc {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.0.key, std::cmp::Reverse(self.0.payload))
                .cmp(&(other.0.key, std::cmp::Reverse(other.0.payload)))
        }
    }

    impl PartialOrd for Desc {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Record for Desc {
        const ENCODED_LEN: usize = TestRec::ENCODED_LEN;
        const COLUMNS: &'static [usize] = TestRec::COLUMNS;
        fn encode(&self, buf: &mut [u8]) {
            self.0.encode(buf);
        }
        fn decode(buf: &[u8]) -> Self {
            Desc(TestRec::decode(buf))
        }
        fn partition_key(&self) -> u64 {
            self.0.key
        }
    }

    #[test]
    fn encodings_out_of_record_order_round_trip() {
        let fs = files();
        let mut recs: Vec<Desc> = (0..5_000u64)
            .map(|i| Desc(TestRec::new(i / 10, i.wrapping_mul(0x9e37_79b9_7f4a_7c15))))
            .collect();
        recs.sort();
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        assert!(run.stats().leaf_pages > 1);
        assert_eq!(run.scan_all().unwrap(), recs);
        for key in [0, 250, 499] {
            let want: Vec<Desc> = recs.iter().copied().filter(|r| r.0.key == key).collect();
            assert_eq!(run.scan_range(key, key).unwrap(), want);
        }
    }

    /// The byte offset of every record of `leaf`, in order.
    fn record_offsets(run: &Run<TestRec>, leaf: usize) -> Vec<usize> {
        let leaf = run.read_leaf(leaf).unwrap();
        let mut cursor = Cursor::default();
        let mut offsets = Vec::new();
        while cursor.index < leaf.count {
            offsets.push(cursor.at);
            leaf.decode_next::<TestRec>(&mut cursor).unwrap();
        }
        offsets
    }

    #[test]
    fn hostile_leaf_pages_are_corrupt_run_errors_not_panics() {
        // Payloads that change every record and code as 10-byte varints:
        // 329 records a leaf, so 900 records are leaves of keys 0..329,
        // 329..658 and 658..900, then a fence page.
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = Arc::new(FileStore::new(disk.clone()));
        let recs: Vec<TestRec> = (0..900u64).map(|k| TestRec::new(k, !k)).collect();
        let run = Run::build(&fs, &recs, &BloomConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(run.fences().unwrap(), &[0, 329, 658]);
        let page_no = device_page(&run, 1);
        let good = disk.read_page(page_no).unwrap();
        let offsets = record_offsets(&run, 1);
        assert_eq!(offsets.len(), 329);
        // 21 restart points, so the record area ends 44 bytes before the
        // page does: the restart array, then its count.
        let area_end = PAGE_SIZE - 2 * 22;
        assert_eq!(&good[PAGE_SIZE - 2..], &21u16.to_be_bytes());
        let restart_at = |i: usize| area_end + 2 * i;
        let with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = good.clone();
            edit(&mut bad);
            bad
        };
        let set_u16 = |p: &mut Vec<u8>, at: usize, v: u16| {
            p[at..at + 2].copy_from_slice(&v.to_be_bytes());
        };
        let last = offsets[328];
        let hostile: Vec<(&str, Vec<u8>)> = vec![
            (
                "restart count too large for the page",
                with(&|p| {
                    set_u16(p, 0, u16::MAX);
                    set_u16(p, PAGE_SIZE - 2, 4_096);
                }),
            ),
            (
                "restart count disagrees with the record count",
                with(&|p| set_u16(p, PAGE_SIZE - 2, 22)),
            ),
            (
                "restart offset at the restart array",
                with(&|p| set_u16(p, restart_at(3), area_end as u16)),
            ),
            (
                "restart offset past the page",
                with(&|p| set_u16(p, restart_at(3), u16::MAX)),
            ),
            (
                "non-ascending restart offsets",
                with(&|p| set_u16(p, restart_at(2), offsets[16] as u16)),
            ),
            (
                "first restart is not the first record",
                with(&|p| set_u16(p, restart_at(0), 5)),
            ),
            (
                "records end before a restart point",
                with(&|p| set_u16(p, restart_at(1), offsets[16] as u16 + 1)),
            ),
            (
                "varint running past the record area",
                with(&|p| {
                    p[last] = 0b10;
                    p[last + 1..area_end].fill(0x80);
                }),
            ),
            (
                "varint wider than 64 bits",
                with(&|p| {
                    p[offsets[1]] = 0b10;
                    p[offsets[1] + 1..offsets[1] + 11].fill(0xff);
                    p[offsets[1] + 11] = 0;
                }),
            ),
            ("flags bit beyond COLUMNS", with(&|p| p[offsets[1]] = 0b100)),
            (
                // Only the key changes, and its growth wraps: key 329 + (2^64
                // - 1) is 328.
                "record sorting below its predecessor",
                with(&|p| {
                    p[offsets[1]] = 0b01;
                    p[offsets[1] + 1..offsets[1] + 10].fill(0xff);
                    p[offsets[1] + 10] = 0x01;
                }),
            ),
            ("fixed-width leaf kind", with(&|p| p[2] = 1)),
            ("fence kind", with(&|p| p[2] = KIND_FENCE)),
            ("zeroed page", vec![0u8; PAGE_SIZE]),
        ];
        for (what, bad) in &hostile {
            disk.write_page(page_no, bad).unwrap();
            let err = run.scan_range(329, 657).unwrap_err();
            assert!(
                matches!(err, LsmError::CorruptRun { .. }),
                "{what}: {err:?}"
            );
            assert!(
                matches!(run.scan_all(), Err(LsmError::CorruptRun { .. })),
                "{what}"
            );
            let mut iter = run.iter_range(0, u64::MAX).unwrap();
            let oks = iter.by_ref().take_while(|item| item.is_ok()).count();
            assert!(oks >= 329, "{what}: leaf 0 still reads");
            assert!(iter.next().is_none(), "{what}: the cursor fuses");
        }
        disk.write_page(page_no, &good).unwrap();
        assert_eq!(run.scan_all().unwrap(), recs);
    }
}
