use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::completion::Completion;
use crate::device::Device;
use crate::error::{DeviceError, Result};
use crate::{PageNo, PAGE_SIZE};

/// Identifier of a virtual file inside a [`FileStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vfile#{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct FileMeta {
    /// Extents of contiguous device pages, in file order.
    extents: Vec<(PageNo, u64)>,
    /// Length in pages.
    len_pages: u64,
    /// Logical length in bytes (may not fill the last page).
    len_bytes: u64,
}

impl FileMeta {
    fn page_at(&self, offset: u64) -> Option<PageNo> {
        let mut remaining = offset;
        for &(start, len) in &self.extents {
            if remaining < len {
                return Some(start + remaining);
            }
            remaining -= len;
        }
        None
    }
}

/// A simple extent-allocating file layer over a [`Device`].
///
/// Read-store run files (`Leaf`, `I1`, `I2`, ... in the paper's terminology)
/// are created through this layer: each run file is written strictly
/// append-only during a consistency point and later read randomly by the
/// query engine. The store allocates device pages in contiguous extents so
/// that sequential run writes stay sequential on the simulated disk, which is
/// what makes consistency-point flushes cheap in the latency model.
///
/// # Concurrency
///
/// The store is internally synchronized and shared by every table (and, with
/// parallel maintenance, every rebuild worker). One mutex guards the
/// allocation/metadata state; every critical section is bookkeeping only —
/// page I/O always happens after the lock is released, so a slow device never
/// extends the lock hold time. Acquisitions that find the lock held are
/// counted in the device's [`IoStats`](crate::IoStats) as `lock_contentions`.
#[derive(Debug)]
pub struct FileStore {
    device: Arc<dyn Device>,
    state: Mutex<StoreState>,
    /// When set, pages of deleted files are *deferred* rather than freed:
    /// they accumulate in `pending_free` and become allocatable only at the
    /// next [`commit_frees`](Self::commit_frees). A durable engine enables
    /// this so that pages still referenced by the last consistency point's
    /// manifest are never overwritten before the next CP's superblock flip
    /// makes them unreachable — the write-anywhere page-reuse rule.
    deferred_frees: AtomicBool,
}

#[derive(Debug, Default)]
struct StoreState {
    files: HashMap<FileId, FileMeta>,
    next_file: u64,
    /// Next never-allocated device page (bump allocation).
    next_page: PageNo,
    /// Pages returned by deleted files, reused before extending `next_page`.
    free: Vec<(PageNo, u64)>,
    /// Pages freed since the last durable consistency point; moved to `free`
    /// by [`FileStore::commit_frees`] once the superblock flip has made the
    /// previous CP's metadata unreachable.
    pending_free: Vec<(PageNo, u64)>,
}

/// A file's durable description — identifier, extent list and lengths — as
/// recorded in a consistency-point manifest and fed back to
/// [`FileStore::restore`] to rebuild the extent map after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistedFile {
    /// The file identifier, stable across restore.
    pub id: FileId,
    /// Extents of contiguous device pages, in file order.
    pub extents: Vec<(PageNo, u64)>,
    /// Length in pages.
    pub len_pages: u64,
    /// Logical length in bytes.
    pub len_bytes: u64,
}

impl FileStore {
    /// Creates a file store allocating from page 0 of `device`.
    pub fn new(device: Arc<dyn Device>) -> Self {
        FileStore {
            device,
            state: Mutex::new(StoreState::default()),
            deferred_frees: AtomicBool::new(false),
        }
    }

    /// Creates a file store whose allocations start at `first_page`, leaving
    /// lower page numbers to other users of the device (e.g. file-system data).
    pub fn with_base_page(device: Arc<dyn Device>, first_page: PageNo) -> Self {
        let store = Self::new(device);
        store.state.lock().next_page = first_page;
        store
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Acquires the state lock, recording a contention event in the device
    /// stats when another thread already holds it. The guard protects pure
    /// bookkeeping; callers must perform page I/O only after dropping it.
    fn lock_state(&self) -> MutexGuard<'_, StoreState> {
        if let Some(guard) = self.state.try_lock() {
            return guard;
        }
        let stats = self.device.stats();
        stats.record_lock_contention();
        let wait_t0 = stats.obs_now();
        let guard = self.state.lock();
        stats.record_lock_wait(
            crate::stats::LOCK_ID_FILE_STORE,
            stats.obs_now().saturating_sub(wait_t0),
        );
        guard
    }

    /// Creates a new, empty file and returns a handle to it.
    pub fn create(&self) -> VFile<'_> {
        let mut st = self.lock_state();
        let id = FileId(st.next_file);
        st.next_file += 1;
        st.files.insert(
            id,
            FileMeta {
                extents: Vec::new(),
                len_pages: 0,
                len_bytes: 0,
            },
        );
        VFile { store: self, id }
    }

    /// Sets aside `pages` device pages in **one contiguous extent** for a
    /// caller that writes them itself, by offset, through the returned
    /// [`ReservedExtent`] — the journal ring and the manifest log. The
    /// extent is an exactly-fitting-or-larger free extent if one exists,
    /// otherwise fresh pages from the bump pointer — never stitched together
    /// from free-list fragments: the manifest log's extent list must fit in
    /// the superblock page, and a single extent always does, no matter how
    /// fragmented the free list has become. The registered file is never
    /// appended to; it only keeps the pages out of the allocator until
    /// [`delete`](Self::delete) returns them.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfSpace`] if the device cannot provide
    /// `pages` contiguous fresh pages (and no free extent is big enough).
    pub fn reserve_extent(&self, pages: u64) -> Result<ReservedExtent> {
        let mut st = self.lock_state();
        // Best-fit single free extent, if any. Page-at-a-time allocations
        // nibble freed reservations into fragments, so a miss first merges
        // adjacent free extents back together and looks again — without
        // that, every reservation after the first few would take fresh
        // pages and the device footprint would grow forever.
        let best_fit = |free: &[(PageNo, u64)]| {
            free.iter()
                .enumerate()
                .filter(|(_, &(_, len))| len >= pages)
                .min_by_key(|(_, &(_, len))| len)
                .map(|(i, _)| i)
        };
        let fit = best_fit(&st.free).or_else(|| {
            coalesce(&mut st.free);
            best_fit(&st.free)
        });
        let start = match fit {
            Some(i) => {
                let (start, len) = st.free.swap_remove(i);
                if len > pages {
                    st.free.push((start + pages, len - pages));
                }
                start
            }
            None => {
                let start = st.next_page;
                if start + pages > self.device.capacity_pages() {
                    return Err(DeviceError::OutOfSpace { requested: pages });
                }
                st.next_page += pages;
                start
            }
        };
        let file = FileId(st.next_file);
        st.next_file += 1;
        st.files.insert(
            file,
            FileMeta {
                extents: vec![(start, pages)],
                len_pages: 0,
                len_bytes: 0,
            },
        );
        Ok(ReservedExtent { file, start, pages })
    }

    /// Opens an existing file.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NoSuchFile`] if `id` does not name a live file.
    pub fn open(&self, id: FileId) -> Result<VFile<'_>> {
        if self.lock_state().files.contains_key(&id) {
            Ok(VFile { store: self, id })
        } else {
            Err(DeviceError::NoSuchFile { file: id.0 })
        }
    }

    /// Deletes a file, returning its pages to the free list — or, when
    /// deferred frees are enabled, to the pending list that
    /// [`commit_frees`](Self::commit_frees) drains at the next durable
    /// consistency point.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NoSuchFile`] if `id` does not name a live file.
    pub fn delete(&self, id: FileId) -> Result<()> {
        let deferred = self.deferred_frees.load(Ordering::Relaxed);
        let mut st = self.lock_state();
        let meta = st
            .files
            .remove(&id)
            .ok_or(DeviceError::NoSuchFile { file: id.0 })?;
        if deferred {
            st.pending_free.extend(meta.extents);
        } else {
            st.free.extend(meta.extents);
        }
        Ok(())
    }

    /// Enables or disables deferred frees (see [`delete`](Self::delete)).
    /// Durable engines enable this before any file is deleted.
    pub fn set_deferred_frees(&self, enabled: bool) {
        self.deferred_frees.store(enabled, Ordering::Relaxed);
    }

    /// Moves every deferred-freed extent to the allocatable free list.
    /// Called immediately after a superblock flip: the pages freed during
    /// the previous CP interval are no longer reachable from any durable
    /// superblock, so reusing them can no longer corrupt recovery.
    pub fn commit_frees(&self) {
        let mut st = self.lock_state();
        let pending = std::mem::take(&mut st.pending_free);
        st.free.extend(pending);
    }

    /// Pages currently parked on the deferred-free list.
    pub fn pending_free_pages(&self) -> u64 {
        self.lock_state().pending_free.iter().map(|&(_, l)| l).sum()
    }

    /// The durable description of a live file (extents and lengths), as
    /// recorded in consistency-point manifests.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NoSuchFile`] if `id` does not name a live file.
    pub fn file_meta(&self, id: FileId) -> Result<PersistedFile> {
        let st = self.lock_state();
        let meta = st
            .files
            .get(&id)
            .ok_or(DeviceError::NoSuchFile { file: id.0 })?;
        Ok(PersistedFile {
            id,
            extents: meta.extents.clone(),
            len_pages: meta.len_pages,
            len_bytes: meta.len_bytes,
        })
    }

    /// The allocation cursor `(next_file, next_page)`. A superblock records
    /// this *after* the manifest file is written, so every file id and
    /// extent it references lies below the recorded cursor.
    pub fn alloc_cursor(&self) -> (u64, PageNo) {
        let st = self.lock_state();
        (st.next_file, st.next_page)
    }

    /// Rebuilds a file store from the durable state a consistency-point
    /// manifest recorded: the live files (with their extents), the
    /// allocation cursor, and the first allocatable page. Every page in
    /// `[base_page, next_page)` not covered by a restored file becomes free
    /// — an exact reconstruction is unnecessary because anything a durable
    /// superblock can reach is, by construction, covered by `files`.
    ///
    /// The restored store has deferred frees enabled (restore only ever
    /// happens on a durable device).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidRestore`] if two files claim the same
    /// page, an extent lies outside `[base_page, next_page)`, or a file id
    /// is duplicated or at/above `next_file` — all symptoms of a corrupt
    /// manifest.
    pub fn restore(
        device: Arc<dyn Device>,
        base_page: PageNo,
        next_file: u64,
        next_page: PageNo,
        files: Vec<PersistedFile>,
    ) -> Result<Self> {
        let mut map: HashMap<FileId, FileMeta> = HashMap::with_capacity(files.len());
        let mut claimed: Vec<(PageNo, u64)> = Vec::new();
        for f in files {
            let total: u64 = f.extents.iter().map(|&(_, len)| len).sum();
            if total != f.len_pages {
                return Err(DeviceError::InvalidRestore {
                    detail: format!(
                        "{} extents cover {total} pages, length says {}",
                        f.id, f.len_pages
                    ),
                });
            }
            for &(start, len) in &f.extents {
                if len == 0 || start < base_page || start.saturating_add(len) > next_page {
                    return Err(DeviceError::InvalidRestore {
                        detail: format!(
                            "{} extent [{start}, +{len}) escapes [{base_page}, {next_page})",
                            f.id
                        ),
                    });
                }
                claimed.push((start, len));
            }
            if f.id.0 >= next_file {
                return Err(DeviceError::InvalidRestore {
                    detail: format!("{} is at or above the next-file cursor {next_file}", f.id),
                });
            }
            let prev = map.insert(
                f.id,
                FileMeta {
                    extents: f.extents,
                    len_pages: f.len_pages,
                    len_bytes: f.len_bytes,
                },
            );
            if prev.is_some() {
                return Err(DeviceError::InvalidRestore {
                    detail: format!("duplicate file {}", f.id),
                });
            }
        }
        // Free space = the complement of the claimed extents within
        // [base_page, next_page). Overlapping claims are corruption.
        claimed.sort_unstable();
        let mut free = Vec::new();
        let mut cursor = base_page;
        for &(start, len) in &claimed {
            if start < cursor {
                return Err(DeviceError::InvalidRestore {
                    detail: format!("extents overlap at page {start}"),
                });
            }
            if start > cursor {
                free.push((cursor, start - cursor));
            }
            cursor = start + len;
        }
        if cursor < next_page {
            free.push((cursor, next_page - cursor));
        }
        Ok(FileStore {
            device,
            state: Mutex::new(StoreState {
                files: map,
                next_file,
                next_page,
                free,
                pending_free: Vec::new(),
            }),
            deferred_frees: AtomicBool::new(true),
        })
    }

    /// Takes an immutable extent-map snapshot of a file for lock-free page
    /// reads (see [`FileMap`]).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NoSuchFile`] if `id` does not name a live file.
    pub fn map_file(&self, id: FileId) -> Result<FileMap> {
        let meta = self
            .lock_state()
            .files
            .get(&id)
            .cloned()
            .ok_or(DeviceError::NoSuchFile { file: id.0 })?;
        Ok(FileMap {
            device: self.device.clone(),
            meta,
        })
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.lock_state().files.len()
    }

    /// Total pages currently allocated to live files.
    pub fn allocated_pages(&self) -> u64 {
        self.lock_state().files.values().map(|f| f.len_pages).sum()
    }

    /// Total logical bytes across live files (the "database size" that the
    /// paper's space-overhead figures report).
    pub fn allocated_bytes(&self) -> u64 {
        self.lock_state().files.values().map(|f| f.len_bytes).sum()
    }

    fn allocate(&self, st: &mut StoreState, pages: u64) -> Result<Vec<(PageNo, u64)>> {
        let mut out = Vec::new();
        let mut need = pages;
        while need > 0 {
            if let Some((start, len)) = st.free.pop() {
                let take = len.min(need);
                out.push((start, take));
                if take < len {
                    st.free.push((start + take, len - take));
                }
                need -= take;
            } else {
                let start = st.next_page;
                if start + need > self.device.capacity_pages() {
                    return Err(DeviceError::OutOfSpace { requested: pages });
                }
                st.next_page += need;
                out.push((start, need));
                need = 0;
            }
        }
        Ok(out)
    }
}

/// Sorts `free` by start page and merges extents that touch.
fn coalesce(free: &mut Vec<(PageNo, u64)>) {
    free.sort_unstable();
    let mut merged: Vec<(PageNo, u64)> = Vec::with_capacity(free.len());
    for &(start, len) in free.iter() {
        match merged.last_mut() {
            Some((prev_start, prev_len)) if *prev_start + *prev_len == start => *prev_len += len,
            _ => merged.push((start, len)),
        }
    }
    *free = merged;
}

/// One contiguous run of device pages that its owner addresses by offset
/// instead of appending to (see [`FileStore::reserve_extent`]). Every access
/// is checked against the extent's length, so a write or read can never
/// land outside the reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservedExtent {
    file: FileId,
    start: PageNo,
    pages: u64,
}

impl ReservedExtent {
    /// Rebuilds the handle from values read back from the device (a
    /// superblock's record of the extent), which are untrusted until
    /// checked here.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidRestore`] if the extent is empty or
    /// does not lie inside a device of `capacity_pages` pages.
    pub fn from_raw(file: FileId, start: PageNo, pages: u64, capacity_pages: u64) -> Result<Self> {
        match start.checked_add(pages) {
            Some(end) if pages > 0 && end <= capacity_pages => {
                Ok(ReservedExtent { file, start, pages })
            }
            _ => Err(DeviceError::InvalidRestore {
                detail: format!(
                    "{file} extent [{start}, +{pages}) escapes a {capacity_pages}-page device"
                ),
            }),
        }
    }

    /// The file registration that keeps the pages out of the allocator.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// First device page of the extent.
    pub fn start(&self) -> PageNo {
        self.start
    }

    /// Length of the extent in pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The extent as a [`PersistedFile`] covering all of its pages, for
    /// re-registering it with [`FileStore::restore`].
    pub fn persisted(&self, len_bytes: u64) -> PersistedFile {
        PersistedFile {
            id: self.file,
            extents: vec![(self.start, self.pages)],
            len_pages: self.pages,
            len_bytes,
        }
    }

    /// Submits a write of `data` (at most one page) to the page at `offset`
    /// within the extent.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::FileOffsetOutOfRange`] if `offset` is past the
    /// extent; device errors arrive on the completion.
    pub fn submit_write(
        &self,
        device: &dyn Device,
        offset: u64,
        data: &[u8],
    ) -> Result<Completion> {
        if offset >= self.pages {
            return Err(DeviceError::FileOffsetOutOfRange {
                offset,
                len: self.pages,
            });
        }
        Ok(device.submit_write(self.start + offset, data))
    }

    /// Reads the first `pages` pages of the extent into one buffer. Every
    /// read is submitted before any is waited on, so the device overlaps
    /// the whole batch at full queue depth.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::FileOffsetOutOfRange`] if `pages` exceeds the
    /// extent and propagates device read errors.
    pub fn read_prefix(&self, device: &dyn Device, pages: u64) -> Result<Vec<u8>> {
        if pages > self.pages {
            return Err(DeviceError::FileOffsetOutOfRange {
                offset: pages,
                len: self.pages,
            });
        }
        let in_flight: Vec<Completion> = (self.start..self.start + pages)
            .map(|page| device.submit_read(page))
            .collect();
        let mut bytes = Vec::with_capacity(in_flight.len() * PAGE_SIZE);
        for completion in in_flight {
            bytes.extend_from_slice(&completion.wait_read()?);
        }
        Ok(bytes)
    }
}

/// An owned, immutable snapshot of a file's extent map, resolving page reads
/// directly against the device without going back through the store.
///
/// Reading through a [`VFile`] handle takes the store lock and walks the
/// extent list on every call; a `FileMap` captures the extent list once, so
/// repeated random reads of a finished file (the LSM read-store access
/// pattern — run files are immutable once built) pay neither the lock nor
/// the hash-map lookup. The snapshot does *not* track later appends; take it
/// only once a file is fully written.
#[derive(Debug, Clone)]
pub struct FileMap {
    device: Arc<dyn Device>,
    meta: FileMeta,
}

impl FileMap {
    /// Length of the mapped file in pages.
    pub fn len_pages(&self) -> u64 {
        self.meta.len_pages
    }

    /// The mapped file's durable description under the identifier `id` —
    /// what [`FileStore::file_meta`] would report for a file that has not
    /// been appended to since the snapshot, without taking the store lock.
    pub fn persisted(&self, id: FileId) -> PersistedFile {
        PersistedFile {
            id,
            extents: self.meta.extents.clone(),
            len_pages: self.meta.len_pages,
            len_bytes: self.meta.len_bytes,
        }
    }

    /// Reads the page at file offset `offset` (in pages), translating through
    /// the cached extent map.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::FileOffsetOutOfRange`] when `offset` is past
    /// the end of the snapshot and propagates device errors.
    pub fn read_page(&self, offset: u64) -> Result<Vec<u8>> {
        let device_page = self
            .meta
            .page_at(offset)
            .ok_or(DeviceError::FileOffsetOutOfRange {
                offset,
                len: self.meta.len_pages,
            })?;
        self.device.read_page(device_page)
    }
}

/// A handle to one virtual file inside a [`FileStore`].
///
/// The handle borrows the store; it is cheap to recreate from a [`FileId`]
/// via [`FileStore::open`].
#[derive(Debug)]
pub struct VFile<'a> {
    store: &'a FileStore,
    id: FileId,
}

impl<'a> VFile<'a> {
    /// This file's identifier, stable across open/close.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Length of the file in pages.
    pub fn len_pages(&self) -> u64 {
        self.store
            .state
            .lock()
            .files
            .get(&self.id)
            .map(|f| f.len_pages)
            .unwrap_or(0)
    }

    /// Logical length of the file in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.store
            .state
            .lock()
            .files
            .get(&self.id)
            .map(|f| f.len_bytes)
            .unwrap_or(0)
    }

    /// Appends one page of data (at most [`PAGE_SIZE`] bytes, zero padded)
    /// and returns the page offset within the file at which it was written.
    ///
    /// # Errors
    ///
    /// Propagates allocation and device errors.
    pub fn append_page(&self, data: &[u8]) -> Result<u64> {
        let (offset, completion) = self.append_page_async(data)?;
        completion.wait()?;
        Ok(offset)
    }

    /// Like [`append_page`](VFile::append_page), but returns the offset
    /// together with the write's [`Completion`] instead of waiting for it:
    /// the allocation (and the file's length) advance immediately, the page
    /// write rides the device queue. Run builders pipeline their page-out
    /// through this. Allocation errors still surface here, at the submit —
    /// only device errors move to the completion.
    ///
    /// # Errors
    ///
    /// [`DeviceError::BadBufferLength`] for oversized buffers and
    /// allocation failures ([`DeviceError::OutOfSpace`],
    /// [`DeviceError::NoSuchFile`]).
    pub fn append_page_async(&self, data: &[u8]) -> Result<(u64, Completion)> {
        if data.len() > PAGE_SIZE {
            return Err(DeviceError::BadBufferLength { got: data.len() });
        }
        let (device_page, offset) = {
            let mut st = self.store.lock_state();
            if !st.files.contains_key(&self.id) {
                return Err(DeviceError::NoSuchFile { file: self.id.0 });
            }
            // Allocate one page, extending the last extent when contiguous.
            let (page, _) = self.store.allocate(&mut st, 1)?[0];
            let meta = st.files.get_mut(&self.id).expect("checked above");
            match meta.extents.last_mut() {
                Some((start, len)) if *start + *len == page => *len += 1,
                _ => meta.extents.push((page, 1)),
            }
            let offset = meta.len_pages;
            meta.len_pages += 1;
            meta.len_bytes += data.len() as u64;
            (page, offset)
        };
        Ok((offset, self.store.device.submit_write(device_page, data)))
    }

    /// Reads the page at file offset `offset` (in pages).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::FileOffsetOutOfRange`] when `offset` is past
    /// the end of the file.
    pub fn read_page(&self, offset: u64) -> Result<Vec<u8>> {
        let device_page = {
            let st = self.store.lock_state();
            let meta = st
                .files
                .get(&self.id)
                .ok_or(DeviceError::NoSuchFile { file: self.id.0 })?;
            meta.page_at(offset)
                .ok_or(DeviceError::FileOffsetOutOfRange {
                    offset,
                    len: meta.len_pages,
                })?
        };
        self.store.device.read_page(device_page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceConfig, SimDisk};

    fn store() -> FileStore {
        FileStore::new(SimDisk::new_shared(DeviceConfig::free_latency()))
    }

    #[test]
    fn append_and_read_back() {
        let fs = store();
        let f = fs.create();
        assert_eq!(f.append_page(b"hello").unwrap(), 0);
        assert_eq!(f.append_page(b"world").unwrap(), 1);
        assert_eq!(&f.read_page(0).unwrap()[..5], b"hello");
        assert_eq!(&f.read_page(1).unwrap()[..5], b"world");
        assert_eq!(f.len_pages(), 2);
        assert_eq!(f.len_bytes(), 10);
    }

    #[test]
    fn sequential_appends_are_contiguous_on_device() {
        let disk = SimDisk::new_shared(DeviceConfig::default());
        let fs = FileStore::new(disk.clone());
        let f = fs.create();
        for i in 0..64u8 {
            f.append_page(&[i]).unwrap();
        }
        // One seek for the first write, none for the rest.
        assert_eq!(disk.stats().snapshot().seeks, 1);
    }

    #[test]
    fn async_appends_pipeline_and_read_back() {
        let disk = SimDisk::new_shared(DeviceConfig::default().with_queue_depth(4));
        let fs = FileStore::new(disk.clone());
        let f = fs.create();
        let mut pending = Vec::new();
        for i in 0..16u8 {
            let (offset, completion) = f.append_page_async(&[i]).unwrap();
            assert_eq!(offset, u64::from(i), "offsets assigned at submit");
            pending.push(completion);
        }
        assert_eq!(f.len_pages(), 16, "length advanced before the waits");
        for c in &pending {
            c.wait().unwrap();
        }
        for i in 0..16u64 {
            assert_eq!(f.read_page(i).unwrap()[0], i as u8);
        }
        assert!(
            disk.stats().snapshot().max_in_flight > 1,
            "appends overlapped"
        );
    }

    #[test]
    fn read_past_end_errors() {
        let fs = store();
        let f = fs.create();
        f.append_page(&[1]).unwrap();
        assert!(matches!(
            f.read_page(3),
            Err(DeviceError::FileOffsetOutOfRange { offset: 3, len: 1 })
        ));
    }

    #[test]
    fn open_nonexistent_errors() {
        let fs = store();
        assert!(matches!(
            fs.open(FileId(99)),
            Err(DeviceError::NoSuchFile { file: 99 })
        ));
    }

    #[test]
    fn delete_frees_and_reuses_pages() {
        let fs = store();
        let f1 = fs.create();
        for _ in 0..10 {
            f1.append_page(&[1]).unwrap();
        }
        let id1 = f1.id();
        assert_eq!(fs.allocated_pages(), 10);
        fs.delete(id1).unwrap();
        assert_eq!(fs.allocated_pages(), 0);
        assert_eq!(fs.file_count(), 0);
        // A new file should reuse the freed pages rather than extend the device.
        let f2 = fs.create();
        for _ in 0..5 {
            f2.append_page(&[2]).unwrap();
        }
        let st = fs.state.lock();
        assert_eq!(st.next_page, 10, "bump pointer did not grow");
    }

    #[test]
    fn multiple_files_are_independent() {
        let fs = store();
        let a = fs.create();
        let b = fs.create();
        a.append_page(b"a").unwrap();
        b.append_page(b"b").unwrap();
        a.append_page(b"aa").unwrap();
        assert_eq!(&a.read_page(0).unwrap()[..1], b"a");
        assert_eq!(&b.read_page(0).unwrap()[..1], b"b");
        assert_eq!(a.len_pages(), 2);
        assert_eq!(b.len_pages(), 1);
        assert_eq!(fs.file_count(), 2);
        assert_eq!(fs.allocated_bytes(), 4);
    }

    #[test]
    fn with_base_page_respects_reserved_region() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = FileStore::with_base_page(disk, 1000);
        let f = fs.create();
        f.append_page(&[1]).unwrap();
        let st = fs.state.lock();
        assert_eq!(st.next_page, 1001);
    }

    #[test]
    fn out_of_space_is_reported() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency().with_capacity_pages(2));
        let fs = FileStore::new(disk);
        let f = fs.create();
        f.append_page(&[1]).unwrap();
        f.append_page(&[2]).unwrap();
        assert!(matches!(
            f.append_page(&[3]),
            Err(DeviceError::OutOfSpace { .. })
        ));
    }

    #[test]
    fn file_id_displays() {
        assert_eq!(FileId(7).to_string(), "vfile#7");
    }

    #[test]
    fn reserve_extent_yields_one_extent_despite_fragmentation() {
        let fs = store();
        // Fragment the free list: interleaved single-page files, odd ones
        // deleted.
        let mut ids = Vec::new();
        for i in 0..20u8 {
            let f = fs.create();
            f.append_page(&[i]).unwrap();
            ids.push(f.id());
        }
        for id in ids.iter().skip(1).step_by(2) {
            fs.delete(*id).unwrap();
        }
        // A 4-page reservation cannot be stitched from the 1-page holes: it
        // must be one fresh contiguous extent.
        let ext = fs.reserve_extent(4).unwrap();
        assert_eq!(fs.file_meta(ext.file()).unwrap().extents, vec![(20, 4)]);
        let disk = fs.device();
        for i in 0..4u8 {
            ext.submit_write(&**disk, u64::from(i), &[i])
                .unwrap()
                .wait()
                .unwrap();
        }
        let bytes = ext.read_prefix(&**disk, 4).unwrap();
        for i in 0..4 {
            assert_eq!(bytes[i * PAGE_SIZE], i as u8);
        }
        // A 1-page reservation best-fits into a freed hole instead.
        let hole = fs.reserve_extent(1).unwrap();
        assert!(hole.start() < 20, "reused a freed page");
        // Reservations larger than the device fail cleanly.
        let tiny = SimDisk::new_shared(DeviceConfig::free_latency().with_capacity_pages(8));
        let tfs = FileStore::new(tiny);
        assert!(matches!(
            tfs.reserve_extent(9),
            Err(DeviceError::OutOfSpace { .. })
        ));
    }

    #[test]
    fn reservation_miss_merges_fragments_before_taking_fresh_pages() {
        let fs = store();
        // A freed 8-page reservation, nibbled by single-page files...
        let first = fs.reserve_extent(8).unwrap().file();
        fs.delete(first).unwrap();
        let nibblers: Vec<FileId> = (0..8u8)
            .map(|i| {
                let f = fs.create();
                f.append_page(&[i]).unwrap();
                f.id()
            })
            .collect();
        assert_eq!(fs.alloc_cursor().1, 8, "the nibblers reused the extent");
        // ...comes back as eight one-page fragments. The next reservation
        // finds no single fit, merges them, and reuses the same eight pages.
        for id in nibblers {
            fs.delete(id).unwrap();
        }
        let again = fs.reserve_extent(8).unwrap().file();
        assert_eq!(fs.file_meta(again).unwrap().extents, vec![(0, 8)]);
        assert_eq!(fs.alloc_cursor().1, 8, "no fresh pages taken");
    }

    #[test]
    fn reserved_extent_confines_io_to_its_pages() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency().with_capacity_pages(64));
        let fs = FileStore::with_base_page(disk.clone(), 2);
        let ext = fs.reserve_extent(4).unwrap();
        assert_eq!((ext.start(), ext.pages()), (2, 4));
        for i in 0..4u8 {
            ext.submit_write(&*disk, u64::from(i), &[i + 1])
                .unwrap()
                .wait()
                .unwrap();
        }
        assert!(matches!(
            ext.submit_write(&*disk, 4, &[9]),
            Err(DeviceError::FileOffsetOutOfRange { offset: 4, len: 4 })
        ));
        let bytes = ext.read_prefix(&*disk, 3).unwrap();
        assert_eq!(bytes.len(), 3 * PAGE_SIZE);
        assert_eq!(
            (bytes[0], bytes[PAGE_SIZE], bytes[2 * PAGE_SIZE]),
            (1, 2, 3)
        );
        assert!(ext.read_prefix(&*disk, 5).is_err());
        // The registration keeps the pages out of the allocator...
        let f = fs.create();
        f.append_page(&[7]).unwrap();
        assert_eq!(fs.file_meta(f.id()).unwrap().extents, vec![(6, 1)]);
        // ...and describes the whole extent for a restore.
        assert_eq!(ext.persisted(10).extents, vec![(2, 4)]);
        assert_eq!(ext.persisted(10).len_pages, 4);
        // Values read back from a device are checked before use.
        assert_eq!(ReservedExtent::from_raw(ext.file(), 2, 4, 64).unwrap(), ext);
        for (start, pages) in [(2, 0), (62, 4), (u64::MAX, 2), (2, u64::MAX)] {
            assert!(matches!(
                ReservedExtent::from_raw(ext.file(), start, pages, 64),
                Err(DeviceError::InvalidRestore { .. })
            ));
        }
    }

    #[test]
    fn deferred_frees_park_pages_until_commit() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = FileStore::new(disk);
        fs.set_deferred_frees(true);
        let f = fs.create();
        for _ in 0..4 {
            f.append_page(&[1]).unwrap();
        }
        let id = f.id();
        fs.delete(id).unwrap();
        assert_eq!(fs.pending_free_pages(), 4);
        // A new allocation must NOT reuse the deferred pages: the previous
        // consistency point's metadata may still reference them.
        let g = fs.create();
        g.append_page(&[2]).unwrap();
        assert_eq!(fs.state.lock().next_page, 5, "bump past the parked pages");
        // After the superblock flip the pages become allocatable again.
        fs.commit_frees();
        assert_eq!(fs.pending_free_pages(), 0);
        let h = fs.create();
        h.append_page(&[3]).unwrap();
        assert_eq!(fs.state.lock().next_page, 5, "freed page reused");
    }

    #[test]
    fn file_meta_and_alloc_cursor_describe_live_state() {
        let fs = store();
        let f = fs.create();
        f.append_page(b"abc").unwrap();
        f.append_page(b"defg").unwrap();
        let meta = fs.file_meta(f.id()).unwrap();
        assert_eq!(meta.id, f.id());
        assert_eq!(meta.len_pages, 2);
        assert_eq!(meta.len_bytes, 7);
        assert_eq!(meta.extents.iter().map(|&(_, l)| l).sum::<u64>(), 2);
        assert_eq!(fs.alloc_cursor(), (1, 2));
        assert!(matches!(
            fs.file_meta(FileId(9)),
            Err(DeviceError::NoSuchFile { file: 9 })
        ));
    }

    #[test]
    fn restore_rebuilds_extent_map_and_free_space() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        // Original store: two files with a hole between them (file 1 deleted).
        let fs = FileStore::with_base_page(disk.clone(), 2);
        let keep = fs.create();
        for i in 0..3u8 {
            keep.append_page(&[i]).unwrap();
        }
        let dead = fs.create();
        for _ in 0..2 {
            dead.append_page(&[9]).unwrap();
        }
        let tail = fs.create();
        tail.append_page(b"tail").unwrap();
        let (keep_id, dead_id, tail_id) = (keep.id(), dead.id(), tail.id());
        fs.delete(dead_id).unwrap();
        let metas = vec![
            fs.file_meta(keep_id).unwrap(),
            fs.file_meta(tail_id).unwrap(),
        ];
        let (next_file, next_page) = fs.alloc_cursor();
        drop(fs);

        let restored = FileStore::restore(disk, 2, next_file, next_page, metas).unwrap();
        assert_eq!(restored.file_count(), 2);
        assert_eq!(
            &restored.open(keep_id).unwrap().read_page(2).unwrap()[..1],
            &[2]
        );
        assert_eq!(
            &restored.open(tail_id).unwrap().read_page(0).unwrap()[..4],
            b"tail"
        );
        // The hole left by the deleted file is allocatable again, and new
        // file ids continue past the restored cursor.
        let f = restored.create();
        assert_eq!(f.id(), FileId(next_file));
        f.append_page(&[1]).unwrap();
        f.append_page(&[2]).unwrap();
        let st = restored.state.lock();
        assert_eq!(st.next_page, next_page, "hole reused before bumping");
    }

    #[test]
    fn restore_rejects_corrupt_state() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let file = |id: u64, extents: Vec<(u64, u64)>| PersistedFile {
            id: FileId(id),
            len_pages: extents.iter().map(|&(_, l)| l).sum(),
            len_bytes: 0,
            extents,
        };
        // Overlapping extents.
        let r = FileStore::restore(
            disk.clone(),
            2,
            5,
            20,
            vec![file(0, vec![(2, 4)]), file(1, vec![(4, 2)])],
        );
        assert!(matches!(r, Err(DeviceError::InvalidRestore { .. })));
        // Extent past the allocation cursor.
        let r = FileStore::restore(disk.clone(), 2, 5, 10, vec![file(0, vec![(8, 4)])]);
        assert!(matches!(r, Err(DeviceError::InvalidRestore { .. })));
        // Extent below the base page (would overlap the superblock).
        let r = FileStore::restore(disk.clone(), 2, 5, 10, vec![file(0, vec![(1, 2)])]);
        assert!(matches!(r, Err(DeviceError::InvalidRestore { .. })));
        // Duplicate file id.
        let r = FileStore::restore(
            disk.clone(),
            2,
            5,
            20,
            vec![file(0, vec![(2, 1)]), file(0, vec![(3, 1)])],
        );
        assert!(matches!(r, Err(DeviceError::InvalidRestore { .. })));
        // File id at the cursor.
        let r = FileStore::restore(disk.clone(), 2, 1, 20, vec![file(1, vec![(2, 1)])]);
        assert!(matches!(r, Err(DeviceError::InvalidRestore { .. })));
        // Length mismatch.
        let mut bad = file(0, vec![(2, 2)]);
        bad.len_pages = 3;
        let r = FileStore::restore(disk, 2, 5, 20, vec![bad]);
        assert!(matches!(r, Err(DeviceError::InvalidRestore { .. })));
    }

    #[test]
    fn contended_state_lock_is_counted() {
        let disk = SimDisk::new_shared(DeviceConfig::free_latency());
        let fs = FileStore::new(disk.clone());
        assert_eq!(disk.stats().snapshot().lock_contentions, 0);
        // Uncontended accesses never count.
        fs.create().append_page(&[1]).unwrap();
        assert_eq!(disk.stats().snapshot().lock_contentions, 0);
        // Hold the state lock on this thread while another thread needs it:
        // that acquisition must be recorded as contended, then complete once
        // the lock is released.
        let guard = fs.state.lock();
        std::thread::scope(|s| {
            let t = s.spawn(|| fs.file_count());
            while disk.stats().snapshot().lock_contentions == 0 {
                std::thread::yield_now();
            }
            drop(guard);
            assert_eq!(t.join().unwrap(), 1);
        });
        assert!(disk.stats().snapshot().lock_contentions >= 1);
    }
}
