//! The manifest log: the durable description of everything volatile that the
//! run files cannot describe themselves, from which
//! [`BacklogEngine::open`] rebuilds a fully functional engine.
//!
//! # What it records
//!
//! * every table's per-partition run layout — run geometry, key bounds and
//!   Bloom filter contents ([`RunMeta`]) plus each backing file's extents
//!   ([`PersistedFile`]), which is what lets [`FileStore::restore`] rebuild
//!   the extent map without scanning the device;
//! * the deletion-vector contents of every partition;
//! * the serialized [`LineageTable`] (lines, snapshots, clones, zombies and
//!   the CP clock);
//! * the engine's cumulative counters;
//! * the *journal frontier*: per partition, the newest journal LSN whose
//!   effect is in the runs this frame describes (see [`crate::journal`]) —
//!   what reopen filters the recovered ring by.
//!
//! # On-device shape
//!
//! The log is **one** contiguous reserved extent of device pages. It holds a
//! *base frame* followed by zero or more *delta frames*, one appended per
//! durable consistency point, each starting on a page boundary:
//!
//! ```text
//! superblock ──► log extent (manifest_extents[0])
//!                ├─ base frame   generation g      ┐
//!                ├─ delta frame  generation g+1    │ valid prefix
//!                ├─ delta frame  generation g+2    ┘ (manifest_len_bytes)
//!                └─ reserved, unwritten or torn — never read
//! ```
//!
//! The superblock records the extent and the byte length of the *valid
//! prefix*: the end of the newest frame this CP's flip made durable. Pages
//! past the prefix are invisible to recovery, so a torn or unflushed frame
//! of a CP that died is simply not part of the log, and the superblock flip
//! stays the single commit point.
//!
//! | Frame field    | Bytes | Meaning                                          |
//! |----------------|-------|--------------------------------------------------|
//! | magic          | 8     | `BKLGMANI`                                       |
//! | version        | 4     | [`VERSION`]                                      |
//! | checksum       | 8     | FNV-1a of every frame byte after this field      |
//! | kind           | 4     | 0 = base, 1 = delta                              |
//! | generation     | 8     | superblock generation of the CP that wrote it    |
//! | payload length | 8     | bytes of payload that follow                     |
//! | payload        | n     | see below; the rest of the last page is padding  |
//!
//! Both kinds of frame carry the same payload — the counters, the journal
//! frontier (a count and one `u64` per partition) and the lineage table
//! written whole (they are small), then, per table, one entry for each
//! partition that *changed*: the file ids of runs removed, the runs added
//! (position in the partition's run list, [`RunMeta`], [`PersistedFile`]),
//! and the partition's deletion vector written whole if it changed. A base
//! frame additionally opens with the partitioning and describes its changes
//! against the empty database; there is no second format.
//!
//! # Invariants
//!
//! * **Beyond the valid prefix.** A frame is only ever written to pages past
//!   the prefix the previous superblock recorded — "a CP never overwrites a
//!   page the previous CP can still reach" holds inside the log extent too.
//! * **Generations chain.** Delta `k` of a log carries the base's generation
//!   plus `k`, and the newest frame carries the superblock's generation.
//! * **Rollover is derived, not configured.** A log is reserved at twice its
//!   base frame's pages (at least [`MIN_LOG_PAGES`]). When the next delta
//!   does not fit in what is left, the CP writes a fresh base into a new
//!   reservation and retires the old log after its flip. A log therefore
//!   never exceeds about twice its base, which bounds both what `open` reads
//!   and the amortised cost of the bases.
//! * **Failure starts over.** Any failed or indeterminate CP forgets the
//!   in-memory description of the log; the next CP writes a base into a new
//!   reservation. The same holds after `open`.
//!
//! Recovery is REDO-only: [`decode_log`] decodes the base and applies the
//! deltas in order. Every malformed input — a generation gap, a frame
//! crossing the valid prefix, a remove of an unknown run, a duplicate file
//! id, a partition index out of range, a count larger than the bytes that
//! could hold it, a frontier vector that is not one entry per partition — is
//! a [`BacklogError::Recovery`], never a panic.
//!
//! [`BacklogEngine::open`]: crate::BacklogEngine::open
//! [`FileStore::restore`]: blockdev::FileStore::restore

// Decode-surface module: recovery paths must return errors, never panic
// (enforced by `backlint` panic-free and audited by clippy here).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use blockdev::{fnv1a64, Device, FileId, PersistedFile, ReservedExtent, Superblock, PAGE_SIZE};
use lsm::{PartitionManifest, PartitionSnapshot, Partitioning, Record, Run, RunMeta};

use crate::error::{BacklogError, Result};
use crate::lineage::LineageTable;
use crate::record::{CombinedRecord, FromRecord, ToRecord};
use crate::stats::BacklogStats;

const MAGIC: &[u8; 8] = b"BKLGMANI";
/// 5: run leaves are delta-coded with restart points (leaf page kind 4); a
/// version 4 device's runs hold fixed-width leaves no reader decodes.
/// 4 put the journal frontier in the payload, which replay trusts instead
/// of looking entries up. 3 introduced the flat fence section.
const VERSION: u32 = 5;
/// magic(8) + version(4) + checksum(8) + kind(4) + generation(8) +
/// payload_len(8).
const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 8 + 8;
/// The checksum covers every frame byte from here on.
const CHECKSUMMED_FROM: usize = 8 + 4 + 8;
const KIND_BASE: u32 = 0;
const KIND_DELTA: u32 = 1;
/// The smallest log reservation, in pages: an almost-empty database still
/// gets room for a few deltas after its one-page base.
const MIN_LOG_PAGES: u64 = 8;

/// Smallest encodings, used to bound a decoded count by the bytes left.
const RUN_MIN_LEN: usize = 8 * 6 + 4 + 8 + 4 + 8 + 8 + 8 + 4;
const ADDED_RUN_MIN_LEN: usize = 4 + RUN_MIN_LEN;
const PARTITION_ENTRY_MIN_LEN: usize = 4 + 4 + 4 + 1;

/// The first page boundary at or after byte `at`: where the frame after one
/// ending at `at` starts.
fn page_align(at: usize) -> usize {
    at.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

/// Pages to reserve for a log whose base frame is `base_len` bytes.
pub(crate) fn reservation_pages(base_len: usize) -> u64 {
    (2 * base_len.div_ceil(PAGE_SIZE) as u64).max(MIN_LOG_PAGES)
}

/// The three tables' per-partition manifests, in engine order.
#[derive(Debug)]
pub(crate) struct ManifestTables {
    pub from: Vec<PartitionManifest<FromRecord>>,
    pub to: Vec<PartitionManifest<ToRecord>>,
    pub combined: Vec<PartitionManifest<CombinedRecord>>,
}

/// Everything a decoded log describes (see the module docs).
#[derive(Debug)]
pub(crate) struct DecodedManifest {
    pub stats: BacklogStats,
    pub lineage: LineageTable,
    /// Per partition, the newest journal LSN the newest frame's runs cover.
    pub journal_frontier: Vec<u64>,
    pub tables: ManifestTables,
    /// The durable description of every run file, for [`FileStore::restore`],
    /// ascending by file id.
    ///
    /// [`FileStore::restore`]: blockdev::FileStore::restore
    pub files: Vec<PersistedFile>,
    /// Pages of the base frame.
    pub base_pages: u64,
    /// Delta frames applied on top of the base.
    pub delta_frames: u64,
    /// Pages those delta frames occupy.
    pub delta_pages: u64,
}

fn corrupt(detail: impl Into<String>) -> BacklogError {
    BacklogError::Recovery {
        detail: detail.into(),
    }
}

// ----------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------

/// A point-in-time capture of every partition of the three tables.
#[derive(Debug)]
pub(crate) struct TableSnapshots {
    pub from: Vec<PartitionSnapshot<FromRecord>>,
    pub to: Vec<PartitionSnapshot<ToRecord>>,
    pub combined: Vec<PartitionSnapshot<CombinedRecord>>,
}

/// The runs a CP's flush has built but not installed, per table, as
/// `(partition, run)` ascending by partition, and the journal frontier they
/// cover (one LSN per partition; see [`crate::journal`]). A frame lists the
/// runs after the installed runs of their partition: it must describe the
/// tables as they will be once the flip commits the flush.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BuiltRuns<'a> {
    pub from: &'a [(u32, Run<FromRecord>)],
    pub to: &'a [(u32, Run<ToRecord>)],
    pub combined: &'a [(u32, Run<CombinedRecord>)],
    pub frontier: &'a [u64],
}

impl BuiltRuns<'_> {
    /// No flush: the engine's very first manifest. The caller still supplies
    /// the frontier (all zeros there) — a frame states one LSN per partition.
    pub(crate) const NONE: BuiltRuns<'static> = BuiltRuns {
        from: &[],
        to: &[],
        combined: &[],
        frontier: &[],
    };
}

/// What the log says about one partition of one table as of its newest
/// frame.
#[derive(Debug)]
struct LoggedPartition<R: Record> {
    /// The partition as captured by the CP that wrote that frame. Holding it
    /// is what makes [`PartitionSnapshot::same_runs`] a sound "unchanged"
    /// test at the next CP, and it pins the runs the log names against
    /// deletion for as long as the log is the recovery target.
    snap: PartitionSnapshot<R>,
    /// File ids of the runs the log lists, in order: `snap`'s runs followed
    /// by the runs that CP's flush installed after the flip.
    ids: Arc<[FileId]>,
}

/// What the log says about every partition of the three tables — the state
/// the next delta frame is a difference against.
#[derive(Debug)]
pub(crate) struct LogView {
    from: Vec<LoggedPartition<FromRecord>>,
    to: Vec<LoggedPartition<ToRecord>>,
    combined: Vec<LoggedPartition<CombinedRecord>>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn encode_run<R: Record>(out: &mut Vec<u8>, run: &Run<R>) {
    let meta = run.meta();
    put_u64(out, meta.file.0);
    put_u64(out, meta.records);
    put_u64(out, meta.leaf_pages);
    put_u64(out, meta.root_page);
    put_u64(out, meta.min_key);
    put_u64(out, meta.max_key);
    put_u32(out, meta.bloom_hashes);
    put_u64(out, meta.bloom_entries);
    put_u32(out, meta.bloom_words.len() as u32);
    for &w in &meta.bloom_words {
        put_u64(out, w);
    }
    let pf = run.persisted_file();
    put_u64(out, pf.len_pages);
    put_u64(out, pf.len_bytes);
    put_u32(out, pf.extents.len() as u32);
    for &(start, len) in &pf.extents {
        put_u64(out, start);
        put_u64(out, len);
    }
}

/// Appends one table's section of a frame — an entry per partition that
/// differs from `prev` (from the empty table when `prev` is `None`) — and
/// returns what the log says about the table once the frame is durable.
///
/// A partition whose run list is pointer-equal to the one `prev` holds, and
/// into which this CP flushed nothing, costs O(1); only changed partitions
/// have their runs walked, by file id.
fn encode_table<R: Record>(
    out: &mut Vec<u8>,
    snaps: &[PartitionSnapshot<R>],
    built: &[(u32, Run<R>)],
    prev: Option<&[LoggedPartition<R>]>,
) -> Vec<LoggedPartition<R>> {
    let count_at = out.len();
    put_u32(out, 0);
    let mut entries = 0u32;
    let mut next = Vec::with_capacity(snaps.len());
    for (pidx, snap) in snaps.iter().enumerate() {
        let prev_part = prev.and_then(|parts| parts.get(pidx));
        let flushed = || {
            built
                .iter()
                .filter(move |(p, _)| *p as usize == pidx)
                .map(|(_, run)| run)
        };
        // `ids` lists the previous CP's flushed runs after its snapshot's,
        // so equal lengths mean that CP flushed nothing here either.
        let runs_untouched = prev_part.is_some_and(|p| {
            snap.same_runs(&p.snap)
                && p.ids.len() == snap.runs().len()
                && flushed().next().is_none()
        });
        let mut removed: Vec<FileId> = Vec::new();
        let mut added: Vec<(u32, &Run<R>)> = Vec::new();
        let ids: Arc<[FileId]> = match prev_part {
            Some(p) if runs_untouched => p.ids.clone(),
            _ => {
                let runs: Vec<&Run<R>> = snap
                    .runs()
                    .iter()
                    .map(|run| &**run)
                    .chain(flushed())
                    .collect();
                let ids: Vec<FileId> = runs.iter().map(|run| run.file_id()).collect();
                let logged: &[FileId] = prev_part.map_or(&[], |p| &p.ids);
                if ids != logged {
                    let now: BTreeSet<FileId> = ids.iter().copied().collect();
                    let before: BTreeSet<FileId> = logged.iter().copied().collect();
                    removed.extend(logged.iter().filter(|id| !now.contains(id)));
                    added.extend(
                        runs.iter()
                            .enumerate()
                            .filter(|(_, run)| !before.contains(&run.file_id()))
                            .map(|(pos, run)| (pos as u32, *run)),
                    );
                }
                ids.into()
            }
        };
        let deletions = match prev_part {
            Some(p) if snap.same_deletions(&p.snap) => None,
            Some(_) => Some(snap.deletions()),
            None => Some(snap.deletions()).filter(|dv| !dv.is_empty()),
        };
        if !removed.is_empty() || !added.is_empty() || deletions.is_some() {
            entries += 1;
            put_u32(out, pidx as u32);
            put_u32(out, removed.len() as u32);
            for id in &removed {
                put_u64(out, id.0);
            }
            put_u32(out, added.len() as u32);
            for (pos, run) in &added {
                put_u32(out, *pos);
                encode_run(out, run);
            }
            match deletions {
                None => out.push(0),
                Some(dv) => {
                    out.push(1);
                    put_u32(out, dv.len() as u32);
                    for rec in dv.iter() {
                        let at = out.len();
                        out.resize(at + R::ENCODED_LEN, 0);
                        rec.encode(&mut out[at..]);
                    }
                }
            }
        }
        next.push(LoggedPartition {
            snap: snap.clone(),
            ids,
        });
    }
    out[count_at..count_at + 4].copy_from_slice(&entries.to_be_bytes());
    next
}

/// Serializes one frame: a delta against `prev`, or — when `prev` is `None`
/// — a base describing `snaps` + `built` in full. Returns the frame's bytes
/// (header, payload, no padding) and the [`LogView`] that holds once the
/// frame is durable; the caller keeps that view (its snapshots pin every run
/// the frame names) at least until the superblock flip is stable.
pub(crate) fn encode_frame(
    prev: Option<&LogView>,
    generation: u64,
    partitioning: Partitioning,
    stats: &BacklogStats,
    lineage: &LineageTable,
    snaps: &TableSnapshots,
    built: BuiltRuns<'_>,
) -> (Vec<u8>, LogView) {
    let mut out = vec![0u8; HEADER_LEN];
    if prev.is_none() {
        put_u32(&mut out, partitioning.partition_count());
        put_u64(&mut out, partitioning.width());
    }
    for v in [
        stats.refs_added,
        stats.refs_removed,
        stats.pruned_adds,
        stats.pruned_removes,
        stats.consistency_points,
        stats.maintenance_runs,
        stats.callback_ns,
        stats.cp_flush_ns,
        stats.maintenance_ns,
        stats.queries,
    ] {
        put_u64(&mut out, v);
    }
    put_u32(&mut out, built.frontier.len() as u32);
    for &lsn in built.frontier {
        put_u64(&mut out, lsn);
    }
    lineage.encode(&mut out);
    let view = LogView {
        from: encode_table(
            &mut out,
            &snaps.from,
            built.from,
            prev.map(|v| v.from.as_slice()),
        ),
        to: encode_table(&mut out, &snaps.to, built.to, prev.map(|v| v.to.as_slice())),
        combined: encode_table(
            &mut out,
            &snaps.combined,
            built.combined,
            prev.map(|v| v.combined.as_slice()),
        ),
    };
    let kind = if prev.is_none() {
        KIND_BASE
    } else {
        KIND_DELTA
    };
    seal_frame(&mut out, kind, generation);
    (out, view)
}

/// Fills in the header of a frame whose payload is complete.
fn seal_frame(frame: &mut [u8], kind: u32, generation: u64) {
    let payload_len = (frame.len() - HEADER_LEN) as u64;
    frame[0..8].copy_from_slice(MAGIC);
    frame[8..12].copy_from_slice(&VERSION.to_be_bytes());
    frame[20..24].copy_from_slice(&kind.to_be_bytes());
    frame[24..32].copy_from_slice(&generation.to_be_bytes());
    frame[32..40].copy_from_slice(&payload_len.to_be_bytes());
    let checksum = fnv1a64(&frame[CHECKSUMMED_FROM..]);
    frame[12..20].copy_from_slice(&checksum.to_be_bytes());
}

/// The engine's handle on the live log: where it is, how much of it the
/// newest durable superblock covers, and what it says.
#[derive(Debug)]
pub(crate) struct LogTail {
    pub extent: ReservedExtent,
    /// The valid prefix, in bytes: the end of the newest durable frame.
    pub len_bytes: u64,
    pub view: LogView,
}

impl LogTail {
    /// Page offset within the extent at which the next frame starts: the
    /// first page wholly beyond the valid prefix.
    pub(crate) fn next_page(&self) -> u64 {
        self.len_bytes.div_ceil(PAGE_SIZE as u64)
    }

    /// Whether a frame of `frame_len` bytes fits in what is left of the
    /// reservation.
    pub(crate) fn fits(&self, frame_len: usize) -> bool {
        self.next_page() + frame_len.div_ceil(PAGE_SIZE) as u64 <= self.extent.pages()
    }
}

// ----------------------------------------------------------------------
// Reading
// ----------------------------------------------------------------------

fn get_u8(bytes: &[u8], at: &mut usize) -> Result<u8> {
    let v = *bytes
        .get(*at)
        .ok_or_else(|| corrupt("manifest frame truncated"))?;
    *at += 1;
    Ok(v)
}

fn get_u32(bytes: &[u8], at: &mut usize) -> Result<u32> {
    let arr: [u8; 4] = bytes
        .get(*at..*at + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| corrupt("manifest frame truncated"))?;
    *at += 4;
    Ok(u32::from_be_bytes(arr))
}

fn get_u64(bytes: &[u8], at: &mut usize) -> Result<u64> {
    let arr: [u8; 8] = bytes
        .get(*at..*at + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| corrupt("manifest frame truncated"))?;
    *at += 8;
    Ok(u64::from_be_bytes(arr))
}

/// Reads a `u32` element count and checks that `count` elements of at least
/// `min_len` bytes each could still follow — so nothing is ever allocated
/// for a count the frame cannot back with bytes.
fn get_count(bytes: &[u8], at: &mut usize, min_len: usize, what: &str) -> Result<usize> {
    let count = get_u32(bytes, at)? as usize;
    let remaining = bytes.len().saturating_sub(*at);
    if count > remaining / min_len.max(1) {
        return Err(corrupt(format!(
            "{count} {what} cannot fit in the {remaining} bytes that follow"
        )));
    }
    Ok(count)
}

fn decode_run(bytes: &[u8], at: &mut usize) -> Result<(RunMeta, PersistedFile)> {
    let file = FileId(get_u64(bytes, at)?);
    let records = get_u64(bytes, at)?;
    let leaf_pages = get_u64(bytes, at)?;
    let root_page = get_u64(bytes, at)?;
    let min_key = get_u64(bytes, at)?;
    let max_key = get_u64(bytes, at)?;
    let bloom_hashes = get_u32(bytes, at)?;
    let bloom_entries = get_u64(bytes, at)?;
    let word_count = get_count(bytes, at, 8, "bloom words")?;
    if word_count == 0 || !word_count.is_power_of_two() {
        return Err(corrupt(format!("bloom filter of {word_count} words")));
    }
    let mut bloom_words = Vec::with_capacity(word_count);
    for _ in 0..word_count {
        bloom_words.push(get_u64(bytes, at)?);
    }
    let len_pages = get_u64(bytes, at)?;
    let len_bytes = get_u64(bytes, at)?;
    let extent_count = get_count(bytes, at, 16, "extents")?;
    let mut extents = Vec::with_capacity(extent_count);
    for _ in 0..extent_count {
        extents.push((get_u64(bytes, at)?, get_u64(bytes, at)?));
    }
    Ok((
        RunMeta {
            file,
            records,
            leaf_pages,
            root_page,
            min_key,
            max_key,
            bloom_hashes,
            bloom_entries,
            bloom_words,
        },
        PersistedFile {
            id: file,
            extents,
            len_pages,
            len_bytes,
        },
    ))
}

/// REDO-applies one table's section of a frame to `parts`, keeping `files`
/// (every run file the log currently names) in step.
fn decode_table_section<R: Record>(
    bytes: &[u8],
    at: &mut usize,
    parts: &mut [PartitionManifest<R>],
    files: &mut BTreeMap<FileId, PersistedFile>,
) -> Result<()> {
    let entries = get_count(bytes, at, PARTITION_ENTRY_MIN_LEN, "partition entries")?;
    let mut last: Option<u32> = None;
    for _ in 0..entries {
        let pidx = get_u32(bytes, at)?;
        if last.is_some_and(|l| pidx <= l) {
            return Err(corrupt(format!("partition {pidx} listed out of order")));
        }
        last = Some(pidx);
        let partitions = parts.len();
        let part = parts.get_mut(pidx as usize).ok_or_else(|| {
            corrupt(format!(
                "partition index {pidx} out of range ({partitions} partitions)"
            ))
        })?;
        let removed = get_count(bytes, at, 8, "removed runs")?;
        for _ in 0..removed {
            let id = FileId(get_u64(bytes, at)?);
            let pos = part
                .runs
                .iter()
                .position(|meta| meta.file == id)
                .ok_or_else(|| corrupt(format!("partition {pidx} removes unknown run {id}")))?;
            part.runs.remove(pos);
            files.remove(&id);
        }
        let added = get_count(bytes, at, ADDED_RUN_MIN_LEN, "added runs")?;
        for _ in 0..added {
            let pos = get_u32(bytes, at)? as usize;
            let (meta, file) = decode_run(bytes, at)?;
            if pos > part.runs.len() {
                return Err(corrupt(format!(
                    "run {} added at position {pos} of a {}-run partition",
                    meta.file,
                    part.runs.len()
                )));
            }
            let id = file.id;
            if files.insert(id, file).is_some() {
                return Err(corrupt(format!("duplicate file id {id}")));
            }
            part.runs.insert(pos, meta);
        }
        match get_u8(bytes, at)? {
            0 => {}
            1 => {
                let count = get_count(bytes, at, R::ENCODED_LEN, "deletion marks")?;
                let mut deletions = Vec::with_capacity(count);
                for _ in 0..count {
                    let slice = bytes
                        .get(*at..*at + R::ENCODED_LEN)
                        .ok_or_else(|| corrupt("manifest frame truncated in deletion vector"))?;
                    deletions.push(R::decode(slice));
                    *at += R::ENCODED_LEN;
                }
                part.deletions = deletions;
            }
            flag => return Err(corrupt(format!("deletion-vector flag {flag}"))),
        }
    }
    Ok(())
}

/// One frame located inside the log's valid prefix, checksum verified.
struct Frame<'a> {
    kind: u32,
    generation: u64,
    payload: &'a [u8],
    /// Offset one past the frame's last payload byte.
    end: usize,
}

fn decode_frame(bytes: &[u8], start: usize) -> Result<Frame<'_>> {
    let mut at = start;
    let magic = bytes.get(at..at + 8);
    if magic != Some(&MAGIC[..]) {
        return Err(corrupt(format!("no manifest frame at byte {start}")));
    }
    at += 8;
    let version = get_u32(bytes, &mut at)?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported manifest version {version}")));
    }
    let checksum = get_u64(bytes, &mut at)?;
    let kind = get_u32(bytes, &mut at)?;
    let generation = get_u64(bytes, &mut at)?;
    let payload_len = get_u64(bytes, &mut at)?;
    let end = usize::try_from(payload_len)
        .ok()
        .and_then(|len| at.checked_add(len))
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| {
            corrupt(format!(
                "frame at byte {start} extends past the log's valid prefix"
            ))
        })?;
    let covered = bytes
        .get(start + CHECKSUMMED_FROM..end)
        .ok_or_else(|| corrupt("manifest frame truncated"))?;
    if fnv1a64(covered) != checksum {
        return Err(corrupt(format!("frame at byte {start} fails its checksum")));
    }
    let payload = bytes
        .get(at..end)
        .ok_or_else(|| corrupt("manifest frame truncated"))?;
    Ok(Frame {
        kind,
        generation,
        payload,
        end,
    })
}

/// The database description being rebuilt while a log is decoded.
struct Redo {
    stats: BacklogStats,
    journal_frontier: Vec<u64>,
    lineage: LineageTable,
    tables: ManifestTables,
    files: BTreeMap<FileId, PersistedFile>,
}

/// Decodes the part of a payload both frame kinds share — counters, lineage,
/// the three table sections — applying it to `redo`.
fn decode_payload(payload: &[u8], mut at: usize, redo: &mut Redo) -> Result<()> {
    let mut vals = [0u64; 10];
    for v in &mut vals {
        *v = get_u64(payload, &mut at)?;
    }
    redo.stats = BacklogStats {
        block_ops: vals[0].saturating_add(vals[1]),
        refs_added: vals[0],
        refs_removed: vals[1],
        pruned_adds: vals[2],
        pruned_removes: vals[3],
        consistency_points: vals[4],
        maintenance_runs: vals[5],
        callback_ns: vals[6],
        cp_flush_ns: vals[7],
        maintenance_ns: vals[8],
        queries: vals[9],
    };
    // Each frame states the whole frontier, one entry per partition; a
    // count that disagrees would leave replay filtering by a vector it
    // cannot index.
    let count = get_count(payload, &mut at, 8, "journal frontier entries")?;
    if count != redo.tables.from.len() {
        return Err(corrupt(format!(
            "journal frontier of {count} entries for {} partitions",
            redo.tables.from.len()
        )));
    }
    redo.journal_frontier.clear();
    for _ in 0..count {
        redo.journal_frontier.push(get_u64(payload, &mut at)?);
    }
    redo.lineage = LineageTable::decode(payload, &mut at)
        .ok_or_else(|| corrupt("lineage table failed to decode"))?;
    decode_table_section(payload, &mut at, &mut redo.tables.from, &mut redo.files)?;
    decode_table_section(payload, &mut at, &mut redo.tables.to, &mut redo.files)?;
    decode_table_section(payload, &mut at, &mut redo.tables.combined, &mut redo.files)?;
    if at != payload.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after manifest payload",
            payload.len() - at
        )));
    }
    Ok(())
}

fn empty_parts<R: Record>(partitions: u32) -> Vec<PartitionManifest<R>> {
    (0..partitions)
        .map(|_| PartitionManifest {
            runs: Vec::new(),
            deletions: Vec::new(),
        })
        .collect()
}

/// Rebuilds the database description from a log's valid prefix: decodes the
/// base frame, then REDO-applies every delta in order.
///
/// `generation` is the generation of the superblock that pointed at the
/// log — the newest frame must carry it — and `expected` the partitioning
/// the engine is being opened with, checked before anything is sized by the
/// partition count the base records.
pub(crate) fn decode_log(
    bytes: &[u8],
    generation: u64,
    expected: Partitioning,
) -> Result<DecodedManifest> {
    let base = decode_frame(bytes, 0)?;
    if base.kind != KIND_BASE {
        return Err(corrupt("manifest log does not open with a base frame"));
    }
    let mut at = 0;
    let partitions = get_u32(base.payload, &mut at)?;
    let width = get_u64(base.payload, &mut at)?;
    if partitions != expected.partition_count() || width != expected.width() {
        return Err(corrupt(format!(
            "device holds {partitions} partitions of width {width}, config says {} of width {}",
            expected.partition_count(),
            expected.width()
        )));
    }
    let mut redo = Redo {
        stats: BacklogStats::default(),
        journal_frontier: Vec::new(),
        lineage: LineageTable::new(),
        tables: ManifestTables {
            from: empty_parts(partitions),
            to: empty_parts(partitions),
            combined: empty_parts(partitions),
        },
        files: BTreeMap::new(),
    };
    decode_payload(base.payload, at, &mut redo)?;

    let mut newest = base.generation;
    let mut delta_frames = 0u64;
    let mut next = page_align(base.end);
    let base_pages = (next / PAGE_SIZE) as u64;
    while next < bytes.len() {
        let frame = decode_frame(bytes, next)?;
        if frame.kind != KIND_DELTA {
            return Err(corrupt(format!(
                "frame at byte {next} has kind {}, expected a delta",
                frame.kind
            )));
        }
        if newest.checked_add(1) != Some(frame.generation) {
            return Err(corrupt(format!(
                "generation gap: frame {} follows frame {newest}",
                frame.generation
            )));
        }
        decode_payload(frame.payload, 0, &mut redo)?;
        newest = frame.generation;
        delta_frames += 1;
        next = page_align(frame.end);
    }
    if newest != generation {
        return Err(corrupt(format!(
            "manifest log ends at generation {newest}, superblock is generation {generation}"
        )));
    }
    Ok(DecodedManifest {
        stats: redo.stats,
        lineage: redo.lineage,
        journal_frontier: redo.journal_frontier,
        tables: redo.tables,
        files: redo.files.into_values().collect(),
        base_pages,
        delta_frames,
        delta_pages: (next / PAGE_SIZE) as u64 - base_pages,
    })
}

/// Checks the log extent a superblock records against the device and reads
/// its valid prefix, straight from device pages (the extent map that would
/// normally resolve the log's file lives inside the log itself). Everything
/// in `sb` came off the device and is untrusted: the log must be exactly one
/// extent inside the device, and the prefix must lie inside the extent.
pub(crate) fn read_log(device: &dyn Device, sb: &Superblock) -> Result<(ReservedExtent, Vec<u8>)> {
    let &[(start, pages)] = sb.manifest_extents.as_slice() else {
        return Err(corrupt(format!(
            "superblock records {} manifest extents, the log is always one",
            sb.manifest_extents.len()
        )));
    };
    let extent = ReservedExtent::from_raw(
        FileId(sb.manifest_file),
        start,
        pages,
        device.capacity_pages(),
    )
    .map_err(|e| corrupt(e.to_string()))?;
    let prefix_pages = sb.manifest_len_bytes.div_ceil(PAGE_SIZE as u64);
    if sb.manifest_len_bytes == 0 || prefix_pages > pages {
        return Err(corrupt(format!(
            "superblock records a {}-byte log prefix in a {pages}-page extent",
            sb.manifest_len_bytes
        )));
    }
    let mut bytes = extent.read_prefix(device, prefix_pages)?;
    bytes.truncate(sb.manifest_len_bytes as usize);
    Ok((extent, bytes))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::types::{LineId, Owner};
    use crate::RefIdentity;
    use blockdev::{DeviceConfig, FileStore, SimDisk};
    use lsm::{LsmTable, TableConfig};

    /// Three two-partition tables on one store, a lineage and counters —
    /// enough engine to write a log by hand.
    struct Fixture {
        from: LsmTable<FromRecord>,
        to: LsmTable<ToRecord>,
        combined: LsmTable<CombinedRecord>,
        lineage: LineageTable,
        stats: BacklogStats,
        /// The journal frontier every frame of this fixture records.
        frontier: [u64; 2],
    }

    /// Bytes the frontier adds to a two-partition frame: count + entries.
    const FRONTIER_LEN: usize = 4 + 2 * 8;

    fn partitioning() -> Partitioning {
        Partitioning::fixed_ranges(2, 1_000)
    }

    fn identity(b: u64) -> RefIdentity {
        RefIdentity::new(b, Owner::block(1, b, LineId::ROOT))
    }

    /// Merges partition `pidx` of `table` into one run, consuming its
    /// deletion marks, through the guard API a maintenance pass uses.
    fn rebuild<R: Record>(table: &LsmTable<R>, pidx: u32) {
        let snap = table.read_partition(pidx).snapshot();
        let mut builder = table.new_run_builder(snap.disk_records() as usize);
        for rec in snap.iter_disk().unwrap() {
            builder.push(&rec.unwrap()).unwrap();
        }
        let run = builder.finish_nonempty().unwrap();
        assert!(table.write_partition(pidx).commit_rebuild(run, &snap));
    }

    fn fixture() -> Fixture {
        let files = Arc::new(FileStore::new(SimDisk::new_shared(
            DeviceConfig::free_latency(),
        )));
        let table = |name: &str| TableConfig::named(name).with_partitioning(partitioning());
        let mut lineage = LineageTable::new();
        lineage.advance_cp();
        lineage.take_snapshot(LineId::ROOT);
        Fixture {
            from: LsmTable::new(files.clone(), table("From")),
            to: LsmTable::new(files.clone(), table("To")),
            combined: LsmTable::new(files, table("Combined")),
            lineage,
            stats: BacklogStats {
                block_ops: 110,
                refs_added: 100,
                refs_removed: 10,
                consistency_points: 2,
                ..Default::default()
            },
            frontier: [110, 97],
        }
    }

    impl Fixture {
        fn snaps(&self) -> TableSnapshots {
            TableSnapshots {
                from: (0..2)
                    .map(|p| self.from.read_partition(p).snapshot())
                    .collect(),
                to: (0..2)
                    .map(|p| self.to.read_partition(p).snapshot())
                    .collect(),
                combined: (0..2)
                    .map(|p| self.combined.read_partition(p).snapshot())
                    .collect(),
            }
        }

        fn frame(
            &self,
            prev: Option<&LogView>,
            generation: u64,
            built: BuiltRuns<'_>,
        ) -> (Vec<u8>, LogView) {
            encode_frame(
                prev,
                generation,
                partitioning(),
                &self.stats,
                &self.lineage,
                &self.snaps(),
                BuiltRuns {
                    frontier: &self.frontier,
                    ..built
                },
            )
        }

        /// Asserts a decoded log describes exactly the tables as they are
        /// installed now.
        fn assert_describes_installed(&self, m: &DecodedManifest) {
            fn check<R: Record + PartialEq + std::fmt::Debug>(
                table: &LsmTable<R>,
                parts: &[PartitionManifest<R>],
                files: &mut Vec<PersistedFile>,
            ) {
                assert_eq!(parts.len(), 2);
                for (p, part) in parts.iter().enumerate() {
                    let snap = table.read_partition(p as u32).snapshot();
                    let want = snap.manifest();
                    assert_eq!(part.runs, want.runs, "{} p{p} runs", table.config().name);
                    assert_eq!(part.deletions, want.deletions, "p{p} deletions");
                    files.extend(snap.runs().iter().map(|run| run.persisted_file()));
                }
            }
            let mut files = Vec::new();
            check(&self.from, &m.tables.from, &mut files);
            check(&self.to, &m.tables.to, &mut files);
            check(&self.combined, &m.tables.combined, &mut files);
            files.sort_by_key(|f| f.id);
            assert_eq!(m.files, files);
            assert_eq!(m.stats, self.stats);
            assert_eq!(m.journal_frontier, self.frontier);
            assert_eq!(m.lineage.current_cp(), self.lineage.current_cp());
        }
    }

    /// Lays frames out as the engine does: each starts on a page boundary;
    /// the valid prefix ends with the last frame's last byte.
    fn assemble(frames: &[&[u8]]) -> Vec<u8> {
        let mut log = Vec::new();
        for frame in frames {
            log.resize(page_align(log.len()), 0);
            log.extend_from_slice(frame);
        }
        log
    }

    fn is_recovery<T: std::fmt::Debug>(r: &Result<T>) -> bool {
        matches!(r, Err(BacklogError::Recovery { .. }))
    }

    /// A four-frame log exercising every kind of change: base (generation
    /// 5, one run + a deletion mark), delta 6 (runs added in another
    /// partition and another table), delta 7 (a flushed-but-uninstalled run),
    /// delta 8 (a compaction: runs removed, one added in front, deletion
    /// vector cleared). Returns the frames and, per frame, a check that the
    /// log up to it describes the tables as they were then.
    fn four_frame_log(fx: &Fixture) -> Vec<Vec<u8>> {
        for b in 0..100 {
            fx.from.insert(FromRecord::new(identity(b), 1));
        }
        fx.from.flush_cp().unwrap();
        fx.from.mark_deleted(FromRecord::new(identity(3), 1));
        let (base, view) = fx.frame(None, 5, BuiltRuns::NONE);
        let m = decode_log(&base, 5, partitioning()).unwrap();
        fx.assert_describes_installed(&m);
        assert_eq!(
            (m.base_pages, m.delta_frames, m.delta_pages),
            (base.len().div_ceil(PAGE_SIZE) as u64, 0, 0)
        );

        for b in 1_000..1_050 {
            fx.from.insert(FromRecord::new(identity(b), 2));
            fx.to.insert(ToRecord::new(identity(b), 3));
        }
        fx.from.flush_cp().unwrap();
        fx.to.flush_cp().unwrap();
        let (d6, view) = fx.frame(Some(&view), 6, BuiltRuns::NONE);
        let m = decode_log(&assemble(&[&base, &d6]), 6, partitioning()).unwrap();
        fx.assert_describes_installed(&m);

        // A CP's own flush: built, named by the frame, installed after it.
        for b in 200..260 {
            fx.from.insert(FromRecord::new(identity(b), 4));
        }
        let mut prep = fx.from.prepare_flush().unwrap();
        prep.wait_io().unwrap();
        let built = BuiltRuns {
            from: prep.built_runs(),
            ..BuiltRuns::NONE
        };
        let (d7, view) = fx.frame(Some(&view), 7, built);
        prep.commit();
        let m = decode_log(&assemble(&[&base, &d6, &d7]), 7, partitioning()).unwrap();
        fx.assert_describes_installed(&m);
        assert_eq!((m.delta_frames, m.delta_pages), (2, 2));

        rebuild(&fx.from, 0);
        let (d8, _) = fx.frame(Some(&view), 8, BuiltRuns::NONE);
        let m = decode_log(&assemble(&[&base, &d6, &d7, &d8]), 8, partitioning()).unwrap();
        fx.assert_describes_installed(&m);
        assert_eq!(m.tables.from[0].runs.len(), 1, "two runs merged into one");
        assert!(m.tables.from[0].deletions.is_empty(), "mark consumed");
        vec![base, d6, d7, d8]
    }

    #[test]
    fn log_roundtrips_at_every_chain_position() {
        four_frame_log(&fixture());
    }

    #[test]
    fn a_delta_lists_only_what_changed() {
        let fx = fixture();
        for b in 0..100 {
            fx.from.insert(FromRecord::new(identity(b), 1));
        }
        fx.from.flush_cp().unwrap();
        let (base, view) = fx.frame(None, 1, BuiltRuns::NONE);
        // Nothing changed: counters, lineage and three empty sections.
        let (idle, view) = fx.frame(Some(&view), 2, BuiltRuns::NONE);
        let mut lineage = Vec::new();
        fx.lineage.encode(&mut lineage);
        assert_eq!(
            idle.len(),
            HEADER_LEN + 80 + FRONTIER_LEN + lineage.len() + 3 * 4
        );
        // A run installed by the previous CP's flush is not added twice,
        // and a fresh deletion mark rewrites just that partition's vector.
        fx.from.mark_deleted(FromRecord::new(identity(7), 1));
        let (marked, _) = fx.frame(Some(&view), 3, BuiltRuns::NONE);
        assert_eq!(
            marked.len(),
            idle.len() + PARTITION_ENTRY_MIN_LEN + 4 + FromRecord::ENCODED_LEN
        );
        assert!(marked.len() < base.len());
        let m = decode_log(&assemble(&[&base, &idle, &marked]), 3, partitioning()).unwrap();
        fx.assert_describes_installed(&m);
    }

    #[test]
    fn corruption_and_truncation_are_detected() {
        let frames = four_frame_log(&fixture());
        let base = &frames[0];
        // Flip a payload byte: checksum mismatch.
        let mut bad = base.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        assert!(is_recovery(&decode_log(&bad, 5, partitioning())));
        // Truncate: the frame crosses the valid prefix.
        assert!(is_recovery(&decode_log(
            &base[..base.len() - 10],
            5,
            partitioning()
        )));
        // Wrong magic.
        let mut bad = base.clone();
        bad[0] = b'X';
        assert!(is_recovery(&decode_log(&bad, 5, partitioning())));
        // The engine was configured with another partitioning.
        assert!(is_recovery(&decode_log(
            base,
            5,
            Partitioning::fixed_ranges(4, 1_000)
        )));
    }

    #[test]
    fn every_truncation_and_bit_flip_is_an_error_not_a_panic() {
        let frames = four_frame_log(&fixture());
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        // Exhaustive sweep over the base alone, a base + delta, and the
        // whole log: no prefix may decode (a cut inside a frame crosses the
        // valid prefix; a cut between frames ends at the wrong generation)
        // and no single-bit corruption of a frame byte may go undetected
        // (header fields and payload are all under the frame checksum).
        for upto in [1, 2, refs.len()] {
            let log = assemble(&refs[..upto]);
            let generation = 4 + upto as u64;
            assert!(decode_log(&log, generation, partitioning()).is_ok());
            for len in 0..log.len() {
                assert!(
                    is_recovery(&decode_log(&log[..len], generation, partitioning())),
                    "{upto} frames: truncation to {len} bytes decoded"
                );
            }
            let mut start = 0;
            for frame in &refs[..upto] {
                for i in start..start + frame.len() {
                    let mut bad = log.clone();
                    bad[i] ^= 0x80;
                    assert!(
                        is_recovery(&decode_log(&bad, generation, partitioning())),
                        "{upto} frames: flip at byte {i} went undetected"
                    );
                }
                start = page_align(start + frame.len());
            }
        }
    }

    /// Recomputes the checksum of the frame starting at `start`, as a
    /// structure-aware attacker (or a buggy writer) would: FNV-1a is not a
    /// MAC, so the semantic validators are the last line of defence.
    fn reseal(log: &mut [u8], start: usize) {
        let len_at = start + 32;
        let payload_len = u64::from_be_bytes(log[len_at..len_at + 8].try_into().unwrap());
        let Some(end) = usize::try_from(payload_len)
            .ok()
            .and_then(|len| (start + HEADER_LEN).checked_add(len))
            .filter(|&end| end <= log.len())
        else {
            return;
        };
        let checksum = fnv1a64(&log[start + CHECKSUMMED_FROM..end]);
        log[start + 12..start + 20].copy_from_slice(&checksum.to_be_bytes());
    }

    #[test]
    fn resealed_field_mutations_are_rejected_by_the_validators() {
        let fx = fixture();
        let frames = four_frame_log(&fx);
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let log = assemble(&refs);
        let good = |log: &[u8]| decode_log(log, 8, partitioning());
        assert!(good(&log).is_ok());

        // Field offsets of the last frame (delta 8: From partition 0 loses
        // its two runs, gains the merged one at position 0, and has its
        // deletion vector cleared), by the layout in the module docs.
        let d8 = log.len() - refs[3].len();
        let mut lineage = Vec::new();
        fx.lineage.encode(&mut lineage);
        let merged = fx.from.read_partition(0).snapshot().runs()[0].clone();
        let survivor = fx.from.read_partition(1).snapshot().runs()[0].file_id();
        let words = merged.meta().bloom_words.len();
        let extents = merged.persisted_file().extents.len();
        let frontier_n = d8 + HEADER_LEN + 80;
        let entries = frontier_n + FRONTIER_LEN + lineage.len();
        let pidx = entries + 4;
        let removed_n = pidx + 4;
        let removed_id = removed_n + 4;
        let added_n = removed_id + 2 * 8;
        let added_pos = added_n + 4;
        let added_file = added_pos + 4;
        let word_count = added_file + 8 * 6 + 4 + 8;
        let extent_count = word_count + 4 + 8 * words + 8 + 8;
        let dv_flag = extent_count + 4 + 16 * extents;
        let dv_count = dv_flag + 1;
        assert_eq!(&log[removed_n..removed_n + 4], &2u32.to_be_bytes());
        assert_eq!(
            &log[added_file..added_file + 8],
            &merged.file_id().0.to_be_bytes()
        );
        assert_eq!(log[dv_flag], 1, "the layout walk landed on the flag");
        assert_eq!(&log[frontier_n..frontier_n + 4], &2u32.to_be_bytes());
        assert_eq!(
            &log[frontier_n + 12..frontier_n + 20],
            &fx.frontier[1].to_be_bytes()
        );

        let u32_at = |at: usize, v: u32| (at, v.to_be_bytes().to_vec());
        let u64_at = |at: usize, v: u64| (at, v.to_be_bytes().to_vec());
        let d6 = page_align(refs[0].len());
        // (what, start of the frame to reseal, (offset, bytes written there))
        type Patch = (usize, Vec<u8>);
        let cases: Vec<(&str, usize, Patch)> = vec![
            ("generation gap (+1)", d8, u64_at(d8 + 24, 9)),
            ("generation gap (repeat)", d8, u64_at(d8 + 24, 7)),
            ("generation gap mid-log", d6, u64_at(d6 + 24, 60)),
            ("second base frame", d8, u32_at(d8 + 20, KIND_BASE)),
            ("unknown frame kind", d8, u32_at(d8 + 20, 7)),
            ("log opens with a delta", 0, u32_at(20, KIND_DELTA)),
            ("partition count", 0, u32_at(HEADER_LEN, u32::MAX)),
            ("partition width", 0, u64_at(HEADER_LEN + 4, 999)),
            // The journal frontier: exactly one entry per partition, in the
            // base and in every delta, and all of it inside the payload.
            ("frontier short", d8, u32_at(frontier_n, 1)),
            ("frontier long", d8, u32_at(frontier_n, 3)),
            ("frontier count huge", d8, u32_at(frontier_n, u32::MAX)),
            ("frontier empty", d8, u32_at(frontier_n, 0)),
            ("base frontier short", 0, u32_at(HEADER_LEN + 12 + 80, 1)),
            (
                "frontier cut short by payload_len",
                d8,
                u64_at(d8 + 32, 80 + 4 + 8),
            ),
            ("entry count", d8, u32_at(entries, u32::MAX)),
            ("partition index out of range", d8, u32_at(pidx, 2)),
            ("partition index huge", d8, u32_at(pidx, u32::MAX)),
            ("removed count", d8, u32_at(removed_n, u32::MAX)),
            ("remove of an unknown run", d8, u64_at(removed_id, 0xdead)),
            ("added count", d8, u32_at(added_n, u32::MAX)),
            ("added position", d8, u32_at(added_pos, 1_000)),
            ("duplicate file id", d8, u64_at(added_file, survivor.0)),
            ("bloom word count huge", d8, u32_at(word_count, u32::MAX)),
            (
                "bloom word count not a power of two",
                d8,
                u32_at(word_count, 3),
            ),
            ("extent count", d8, u32_at(extent_count, u32::MAX)),
            ("deletion-vector flag", d8, (dv_flag, vec![2])),
            ("deletion count", d8, u32_at(dv_count, u32::MAX)),
        ];
        for (what, frame_start, (at, bytes)) in cases {
            let mut bad = log.clone();
            bad[at..at + bytes.len()].copy_from_slice(&bytes);
            reseal(&mut bad, frame_start);
            let got = good(&bad);
            assert!(is_recovery(&got), "{what}: {got:?}");
        }
        // The superblock's own fields: a generation the log does not end
        // at, and a valid prefix that cuts the last frame or runs on into a
        // page no frame was written to.
        assert!(is_recovery(&decode_log(&log, 9, partitioning())));
        assert!(is_recovery(&good(&log[..log.len() - 1])));
        let mut long = log.clone();
        long.resize(page_align(log.len()) + 64, 0);
        assert!(is_recovery(&good(&long)));
    }

    #[test]
    fn resealed_word_overwrites_never_panic() {
        // The blanket version of the test above: every position of every
        // frame overwritten with an all-ones and an all-zeroes word, the
        // checksum made good again. Many of these decode (a counter or a
        // Bloom word changed); none may panic or size an allocation by a
        // count the frame cannot back.
        let frames = four_frame_log(&fixture());
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let log = assemble(&refs);
        let mut start = 0;
        for frame in &refs {
            for at in start + CHECKSUMMED_FROM..start + frame.len() - 4 {
                for fill in [0xff, 0x00] {
                    let mut bad = log.clone();
                    bad[at..at + 4].fill(fill);
                    reseal(&mut bad, start);
                    if let Err(e) = decode_log(&bad, 8, partitioning()) {
                        assert!(matches!(e, BacklogError::Recovery { .. }), "{e}");
                    }
                }
            }
            start = page_align(start + frame.len());
        }
    }

    #[test]
    fn log_tail_places_frames_beyond_the_valid_prefix() {
        let fx = fixture();
        let (frame, view) = fx.frame(None, 1, BuiltRuns::NONE);
        assert_eq!(reservation_pages(frame.len()), MIN_LOG_PAGES);
        assert_eq!(reservation_pages(5 * PAGE_SIZE + 1), 12);
        let files = FileStore::new(SimDisk::new_shared(DeviceConfig::free_latency()));
        let mut tail = LogTail {
            extent: files.reserve_extent(MIN_LOG_PAGES).unwrap(),
            len_bytes: frame.len() as u64,
            view,
        };
        assert_eq!(tail.next_page(), 1, "never the base's own last page");
        assert!(tail.fits(7 * PAGE_SIZE));
        assert!(!tail.fits(7 * PAGE_SIZE + 1));
        tail.len_bytes = 7 * PAGE_SIZE as u64 + 1;
        assert_eq!(tail.next_page(), 8);
        assert!(!tail.fits(1), "a full log rolls over");
    }
}
