//! Crash recovery of the write stores (paper Section 5.4).
//!
//! Backlog's durability story leans entirely on the write-anywhere file
//! system: at every consistency point the write stores are written to new
//! read-store runs *before* the CP is declared complete, so after a crash the
//! on-disk database is exactly the state as of the last complete CP. Updates
//! that arrived after that CP live only in the in-memory write stores — and
//! in the journal, from which they are rebuilt by replaying the surviving
//! entries with [`replay`]. Recovery costs what the *journal* holds, not
//! what the database holds: replay reads no table.
//!
//! The journal is a [`JournalRing`]: an on-device ring in a reserved
//! single-extent file (BtrLog-style group commit), the single REDO source.
//! Callbacks append [`JournalEntry`]s to an in-memory segment;
//! [`JournalRing::sync`] coalesces the segment into page-aligned *groups*,
//! writes them through the submit/completion API and makes them durable with
//! **one** flush barrier, however many callbacks the group holds. Each group
//! carries a checksummed, sequence-stamped header, so recovery scans forward
//! from the superblock-recorded tail and stops at the first group that fails
//! validation — a torn tail can only ever cost entries that were never
//! acknowledged as durable, because an acknowledged group's barrier also
//! hardened every group before it.
//!
//! # The frontier
//!
//! Entries are numbered by LSN in append order, and a callback appends its
//! entry *inside* the critical section that mutates the write stores — the
//! touched partition's `From` and `To` shard guards, taken together. A
//! consistency point cuts each partition under those same two guards: it
//! stages both shards and reads `L_p`, the newest LSN appended so far,
//! before releasing them. No callback can land between the two stagings, so
//! the cut is atomic: every entry of partition `p` with an LSN at or below
//! `L_p` has its whole effect in the staged sets (or cancelled against
//! another such entry before reaching them), and every later entry has
//! none. The manifest frame that makes the staged sets durable records the
//! vector `[L_p]` — the *frontier* — so it becomes true atomically with the
//! superblock flip; a failed CP discards its frontier with its staged sets.
//!
//! * **Replay is a filter.** [`replay`] applies a recovered entry iff its
//!   LSN lies beyond the frontier of its block's partition, in LSN order,
//!   and does not journal it again — it is still in the ring under its
//!   original LSN, so crashing during or after recovery replays the same
//!   entries once more, never twice over.
//! * **Truncation is exact.** The tail a CP's superblock records is the
//!   first group holding an entry beyond `min_p L_p`; everything older is in
//!   runs and its pages are free the moment the flip is durable. After a
//!   quiescent CP the ring is empty.
//! * **LSNs never restart.** A scan that finds the ring empty still resumes
//!   numbering above the recorded frontier, so an LSN compares the same way
//!   against a frontier before and after any number of crashes.

// Decode-surface module: recovery paths must return errors, never panic
// (enforced by `backlint` panic-free and audited by clippy here).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use blockdev::{fnv1a64, Device, FileId, PageNo, PAGE_SIZE};
use lsm::Record;
use obs::{Clock, FlightRecorder, Histogram};
use parking_lot::Mutex;

use crate::batch::RefOp;
use crate::engine::BacklogEngine;
use crate::error::{BacklogError, Result};
use crate::record::RefIdentity;
use crate::types::{BlockNo, CpNumber, Owner};

/// One journaled reference operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JournalEntry {
    /// `owner` started referencing `block` during the CP interval `cp`.
    Add {
        /// The physical block.
        block: BlockNo,
        /// The owner of the new reference.
        owner: Owner,
        /// The CP interval in which the operation happened.
        cp: CpNumber,
    },
    /// `owner` stopped referencing `block` during the CP interval `cp`.
    Remove {
        /// The physical block.
        block: BlockNo,
        /// The owner of the removed reference.
        owner: Owner,
        /// The CP interval in which the operation happened.
        cp: CpNumber,
    },
}

impl JournalEntry {
    /// Encoded size of one entry in bytes (1 tag byte + a 48-byte record).
    pub const ENCODED_LEN: usize = 1 + 48;

    /// The reference operation this entry logged.
    pub fn op(&self) -> RefOp {
        match *self {
            JournalEntry::Add { block, owner, .. } => RefOp::Add { block, owner },
            JournalEntry::Remove { block, owner, .. } => RefOp::Remove { block, owner },
        }
    }

    /// Serializes the entry into `buf` (exactly [`ENCODED_LEN`](Self::ENCODED_LEN) bytes).
    pub fn encode(&self, buf: &mut [u8]) {
        let (tag, block, owner, cp) = match *self {
            JournalEntry::Add { block, owner, cp } => (1u8, block, owner, cp),
            JournalEntry::Remove { block, owner, cp } => (2u8, block, owner, cp),
        };
        buf[0] = tag;
        let rec = crate::record::CombinedRecord::new(RefIdentity::new(block, owner), cp, cp);
        rec.encode(&mut buf[1..1 + 48]);
    }

    /// Deserializes an entry previously written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`BacklogError::Recovery`] if `buf` is shorter than
    /// [`ENCODED_LEN`](Self::ENCODED_LEN) or the tag byte is not a valid
    /// entry kind — a corrupt journal must surface as an error the host can
    /// act on, not a panic in the middle of recovery.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let (Some(&tag), Some(body)) = (buf.first(), buf.get(1..Self::ENCODED_LEN)) else {
            return Err(BacklogError::Recovery {
                detail: format!(
                    "journal entry truncated: {} of {} bytes",
                    buf.len(),
                    Self::ENCODED_LEN
                ),
            });
        };
        let rec = crate::record::CombinedRecord::decode(body);
        let owner = rec.identity.owner();
        let block = rec.identity.block;
        match tag {
            1 => Ok(JournalEntry::Add {
                block,
                owner,
                cp: rec.from,
            }),
            2 => Ok(JournalEntry::Remove {
                block,
                owner,
                cp: rec.from,
            }),
            other => Err(BacklogError::Recovery {
                detail: format!("corrupt journal entry tag {other}"),
            }),
        }
    }
}

/// Drops the prefix of `entries` — consecutive LSNs from `first_lsn` — at or
/// below `through`.
fn drop_through(entries: &mut Vec<JournalEntry>, first_lsn: u64, through: u64) {
    let covered = (through + 1).saturating_sub(first_lsn);
    entries.drain(..(covered as usize).min(entries.len()));
}

/// Magic bytes opening every group header in the on-device ring.
const GROUP_MAGIC: &[u8; 8] = b"BKLGJGRP";

/// Byte length of a group header: magic(8) + checksum(8) + seq(8) +
/// first_lsn(8) + entry_count(4) + reserved(4).
pub const GROUP_HEADER_LEN: usize = 40;

/// Upper bound on one group's footprint; an oversized pending segment is
/// split into several sequence-consecutive groups under the same barrier.
pub const MAX_GROUP_PAGES: u64 = 16;

/// Most entries one group can carry.
const MAX_GROUP_ENTRIES: usize =
    (MAX_GROUP_PAGES as usize * PAGE_SIZE - GROUP_HEADER_LEN) / JournalEntry::ENCODED_LEN;

/// Pages one group of `n` entries occupies on the device.
fn group_pages(n: usize) -> u64 {
    ((GROUP_HEADER_LEN + n * JournalEntry::ENCODED_LEN) as u64).div_ceil(PAGE_SIZE as u64)
}

/// Serializes one group (header + entries), zero-padded to whole pages.
fn encode_group(seq: u64, first_lsn: u64, entries: &[JournalEntry]) -> Vec<u8> {
    let len = GROUP_HEADER_LEN + entries.len() * JournalEntry::ENCODED_LEN;
    let mut buf = vec![0u8; len.div_ceil(PAGE_SIZE) * PAGE_SIZE];
    buf[0..8].copy_from_slice(GROUP_MAGIC);
    // buf[8..16] is the checksum, filled below.
    buf[16..24].copy_from_slice(&seq.to_be_bytes());
    buf[24..32].copy_from_slice(&first_lsn.to_be_bytes());
    buf[32..36].copy_from_slice(&(entries.len() as u32).to_be_bytes());
    for (i, e) in entries.iter().enumerate() {
        let at = GROUP_HEADER_LEN + i * JournalEntry::ENCODED_LEN;
        e.encode(&mut buf[at..at + JournalEntry::ENCODED_LEN]);
    }
    let checksum = fnv1a64(&buf[16..len]);
    buf[8..16].copy_from_slice(&checksum.to_be_bytes());
    buf
}

/// One durable group still live in the ring (not yet truncated).
#[derive(Debug, Clone, Copy)]
struct GroupSpan {
    /// Ring-relative page offset of the group header.
    offset: u64,
    /// Pages the group occupies.
    pages: u64,
    /// The group's sequence number.
    seq: u64,
    /// LSN of the group's newest entry: a CP whose frontier covers it may
    /// truncate the group.
    last_lsn: u64,
}

#[derive(Debug)]
struct RingState {
    /// Ring-relative page offset where the next group will be written.
    head: u64,
    /// Sequence number the next group will carry.
    next_seq: u64,
    /// LSN the next appended entry will be assigned.
    next_lsn: u64,
    /// Highest LSN known durable on the device.
    durable_lsn: u64,
    /// Entries appended but not yet written to the ring, oldest first.
    pending: Vec<JournalEntry>,
    /// Durable groups from oldest (tail) to newest, for space accounting
    /// and truncation.
    live: VecDeque<GroupSpan>,
    /// `min_p L_p` of the newest durable CP: every entry at or below it is
    /// in runs.
    frontier_lsn: u64,
}

impl RingState {
    /// LSN of the oldest pending entry (`next_lsn` when none is pending).
    fn first_pending_lsn(&self) -> u64 {
        self.next_lsn - self.pending.len() as u64
    }

    /// Pages between the tail (oldest live group) and the head, including
    /// any wrap gap that was skipped because a group would not fit at the
    /// end of the ring.
    fn used_pages(&self, ring_pages: u64) -> u64 {
        match self.live.front() {
            None => 0,
            Some(front) => {
                let d = (self.head + ring_pages - front.offset) % ring_pages;
                if d == 0 {
                    ring_pages
                } else {
                    d
                }
            }
        }
    }
}

/// A point-in-time view of the ring's internals, for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRingStats {
    /// Ring capacity in pages.
    pub ring_pages: u64,
    /// Durable groups not yet truncated.
    pub live_groups: u64,
    /// Ring pages from the oldest live group to the head — what a scan at
    /// reopen would read, and what counts against the capacity.
    pub live_pages: u64,
    /// Sequence number the next group will carry (counts every group ever
    /// committed, so it keeps growing across wrap-arounds).
    pub next_seq: u64,
    /// Ring-relative page offset of the next group write.
    pub head: u64,
    /// Highest LSN known durable on the device.
    pub durable_lsn: u64,
    /// Highest LSN handed out to an appended entry.
    pub appended_lsn: u64,
    /// Entries appended but not yet committed to the device.
    pub pending_entries: usize,
    /// `min_p L_p` of the newest durable CP (see the module docs): every
    /// entry at or below it is in runs, and `appended_lsn - frontier_lsn`
    /// is at most what a crash right now would replay.
    pub frontier_lsn: u64,
}

/// What a ring scan found, returned by [`JournalRing::recover`].
#[derive(Debug)]
pub struct RecoveredRing {
    /// The ring, ready for new appends after the recovered groups.
    pub ring: JournalRing,
    /// Every entry in the surviving groups with its LSN, oldest first.
    pub entries: Vec<(u64, JournalEntry)>,
    /// The LSN the ring resumes after: the newest surviving entry's, or the
    /// recorded frontier if that is higher (the ring was truncated past
    /// everything it held). Because groups are written and validated as
    /// prefixes, every acknowledged entry — and possibly some
    /// never-acknowledged ones — with an LSN at or below this survived, in
    /// runs or in `entries`.
    pub last_lsn: u64,
}

/// An on-device journal ring with group commit; see the module docs for the
/// format and the recovery/truncation protocol.
#[derive(Debug)]
pub struct JournalRing {
    device: Arc<dyn Device>,
    file: FileId,
    start: PageNo,
    pages: u64,
    /// Pending entries that trigger an automatic commit (0 disables
    /// auto-commit; someone must call [`sync`](Self::sync)).
    group_size: usize,
    /// Serializes committers so groups reach the device in sequence order;
    /// held across the I/O, *not* while appending.
    commit_lock: Mutex<()>,
    state: Mutex<RingState>,
    /// Observability hooks the owning engine installs after construction
    /// (set at most once; absent for rings driven directly in tests).
    obs: OnceLock<RingObs>,
}

/// The engine-supplied observability hooks a ring records group commits
/// through: trace spans for coalesce/write/barrier/ack plus the shared
/// group-commit latency histogram.
#[derive(Debug)]
struct RingObs {
    recorder: Arc<FlightRecorder>,
    clock: Arc<dyn Clock>,
    commit_ns: Arc<Histogram>,
}

impl JournalRing {
    /// Wraps a freshly reserved, never-written ring extent.
    pub fn new(
        device: Arc<dyn Device>,
        file: FileId,
        start: PageNo,
        pages: u64,
        group_size: usize,
    ) -> Self {
        JournalRing {
            device,
            file,
            start,
            pages,
            group_size,
            commit_lock: Mutex::new(()),
            state: Mutex::new(RingState {
                head: 0,
                next_seq: 1,
                next_lsn: 1,
                durable_lsn: 0,
                pending: Vec::new(),
                live: VecDeque::new(),
                frontier_lsn: 0,
            }),
            obs: OnceLock::new(),
        }
    }

    /// Installs the engine's observability hooks: group commits record
    /// coalesce/write/barrier spans, an ack mark carrying the durable LSN,
    /// and a sample in the shared group-commit histogram. A second call is
    /// ignored (the first engine to adopt the ring wins).
    pub fn attach_obs(
        &self,
        recorder: Arc<FlightRecorder>,
        clock: Arc<dyn Clock>,
        commit_ns: Arc<Histogram>,
    ) {
        let _ = self.obs.set(RingObs {
            recorder,
            clock,
            commit_ns,
        });
    }

    /// The ring's virtual-file id (recorded in the superblock).
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// First device page of the ring extent.
    pub fn start_page(&self) -> PageNo {
        self.start
    }

    /// Ring capacity in pages.
    pub fn ring_pages(&self) -> u64 {
        self.pages
    }

    /// Appends one entry to the pending segment and assigns it an LSN.
    /// Returns the LSN and whether the segment has reached the group-size
    /// threshold (the caller should then [`sync`](Self::sync), outside any
    /// shard critical section).
    pub fn append(&self, entry: JournalEntry) -> (u64, bool) {
        let mut st = self.state.lock();
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        st.pending.push(entry);
        (
            lsn,
            self.group_size > 0 && st.pending.len() >= self.group_size,
        )
    }

    /// Highest LSN known durable on the device.
    pub fn durable_lsn(&self) -> u64 {
        self.state.lock().durable_lsn
    }

    /// Highest LSN handed out to an appended entry.
    pub fn appended_lsn(&self) -> u64 {
        self.state.lock().next_lsn - 1
    }

    /// A point-in-time view of the ring's internals.
    pub fn stats(&self) -> JournalRingStats {
        let st = self.state.lock();
        JournalRingStats {
            ring_pages: self.pages,
            live_groups: st.live.len() as u64,
            live_pages: st.used_pages(self.pages),
            next_seq: st.next_seq,
            head: st.head,
            durable_lsn: st.durable_lsn,
            appended_lsn: st.next_lsn - 1,
            pending_entries: st.pending.len(),
            frontier_lsn: st.frontier_lsn,
        }
    }

    /// Group-commits every pending entry: coalesces the segment into
    /// page-aligned groups, writes them through the submit/completion API
    /// and hardens them with a single flush barrier. Concurrent callers
    /// coalesce — a caller whose entries another committer already covered
    /// returns without issuing any I/O. Returns the durable LSN frontier.
    ///
    /// On failure nothing is acknowledged: the head and sequence counters
    /// do not advance, the entries no CP has covered meanwhile return to the
    /// pending segment in order, and a retry rewrites the same offsets with
    /// the same sequence numbers (recovery rejects any half-written garbage
    /// from the failed attempt by checksum or sequence mismatch).
    ///
    /// # Errors
    ///
    /// Returns [`BacklogError::JournalFull`] if the live region plus the
    /// pending segment would exceed the ring (take a CP to advance the
    /// tail), or the device error that failed the group write.
    pub fn sync(&self) -> Result<u64> {
        let _committer = self.commit_lock.lock();
        let obs = self.obs.get();
        let commit_t0 = obs.map_or(0, |o| o.clock.now_ns());
        // Lay out the chunks under the state lock, then release it for the
        // I/O so appenders are never blocked behind device writes. The
        // coalesce span closes when the guard drops — including on the
        // nothing-pending and ring-full early returns.
        let coalesce_span = obs.map(|o| o.recorder.span(obs::spans::GC_COALESCE, 0));
        let (mut batch, first_lsn, first_seq, chunks) = {
            let mut st = self.state.lock();
            if st.pending.is_empty() {
                return Ok(st.durable_lsn);
            }
            let first_lsn = st.first_pending_lsn();
            let mut chunks: Vec<(u64, usize, usize)> = Vec::new(); // (offset, from, to)
            let mut pos = st.head;
            let mut used = st.used_pages(self.pages);
            let total = st.pending.len();
            let mut i = 0;
            while i < total {
                let n = (total - i).min(MAX_GROUP_ENTRIES);
                let gp = group_pages(n);
                // Groups never straddle the ring end: skip the gap and wrap.
                let (off, gap) = if pos + gp <= self.pages {
                    (pos, 0)
                } else {
                    (0, self.pages - pos)
                };
                used += gap + gp;
                if used > self.pages {
                    return Err(BacklogError::JournalFull {
                        ring_pages: self.pages,
                        needed_pages: used - self.pages,
                    });
                }
                chunks.push((off, i, i + n));
                pos = off + gp;
                if pos == self.pages {
                    pos = 0;
                }
                i += n;
            }
            let batch = std::mem::take(&mut st.pending);
            (batch, first_lsn, st.next_seq, chunks)
        };
        drop(coalesce_span);

        let write_span = obs.map(|o| o.recorder.span(obs::spans::GC_WRITE, first_lsn));
        let mut completions = Vec::new();
        let mut spans = Vec::with_capacity(chunks.len());
        for (ci, &(off, from, to)) in chunks.iter().enumerate() {
            let chunk = &batch[from..to];
            let seq = first_seq + ci as u64;
            let buf = encode_group(seq, first_lsn + from as u64, chunk);
            let gp = buf.len() as u64 / PAGE_SIZE as u64;
            for p in 0..gp {
                let at = p as usize * PAGE_SIZE;
                completions.push(
                    self.device
                        .submit_write(self.start + off + p, &buf[at..at + PAGE_SIZE]),
                );
            }
            spans.push(GroupSpan {
                offset: off,
                pages: gp,
                seq,
                last_lsn: first_lsn + to as u64 - 1,
            });
        }
        drop(write_span);
        let barrier_span = obs.map(|o| o.recorder.span(obs::spans::GC_BARRIER, first_lsn));
        let outcome = completions
            .drain(..)
            .try_for_each(|c| c.wait())
            .and_then(|_| self.device.submit_flush().wait());
        drop(barrier_span);
        let mut st = self.state.lock();
        match outcome {
            Ok(()) => {
                if let Some(last) = spans.last() {
                    st.head = if last.offset + last.pages == self.pages {
                        0
                    } else {
                        last.offset + last.pages
                    };
                }
                st.next_seq = first_seq + spans.len() as u64;
                // `max`: a CP that covered this batch while it was in flight
                // may already have advanced the frontier past it.
                st.durable_lsn = st.durable_lsn.max(first_lsn + batch.len() as u64 - 1);
                st.live.extend(spans);
                if let Some(o) = obs {
                    o.recorder
                        .mark(obs::spans::GC_ACK, st.durable_lsn, batch.len() as u64);
                    o.commit_ns
                        .record(o.clock.now_ns().saturating_sub(commit_t0));
                }
                Ok(st.durable_lsn)
            }
            Err(e) => {
                // Put the batch back in front of anything appended since —
                // minus the prefix a CP covered (and `commit_truncate`
                // dropped from the pending side) while the write was in
                // flight, so the segment stays LSN-contiguous.
                drop_through(&mut batch, first_lsn, st.durable_lsn);
                let newer = std::mem::replace(&mut st.pending, batch);
                st.pending.extend(newer);
                Err(e.into())
            }
        }
    }

    /// Computes the ring tail a durable CP should record in its superblock,
    /// given `frontier = min_p L_p` of the cut it is about to make durable:
    /// the oldest group holding an entry beyond the frontier, or the head if
    /// there is none. Pure; the in-memory state advances only in
    /// [`commit_truncate`](Self::commit_truncate) once the CP's flip is
    /// durable, so an aborted CP leaves the journal intact.
    pub fn prepare_truncate(&self, frontier: u64) -> (u64, u64) {
        let st = self.state.lock();
        st.live
            .iter()
            .find(|g| g.last_lsn > frontier)
            .map(|g| (g.offset, g.seq))
            .unwrap_or((st.head, st.next_seq))
    }

    /// Applies the truncation computed by
    /// [`prepare_truncate`](Self::prepare_truncate) after the CP's
    /// superblock flip is durable: drops the groups before `tail_seq` — by
    /// sequence, so a group committed since the tail was computed stays as
    /// live in memory as it is on the device — and the pending entries at
    /// or below `frontier`, which the flush just made durable.
    pub fn commit_truncate(&self, tail_seq: u64, frontier: u64) {
        let mut st = self.state.lock();
        while st.live.front().is_some_and(|g| g.seq < tail_seq) {
            st.live.pop_front();
        }
        let first_pending = st.first_pending_lsn();
        drop_through(&mut st.pending, first_pending, frontier);
        st.durable_lsn = st.durable_lsn.max(frontier);
        st.frontier_lsn = frontier;
    }

    /// Scans a ring from its superblock-recorded tail `(page, seq)` — what
    /// [`prepare_truncate`](Self::prepare_truncate) computed — accepting groups
    /// while the header validates (magic, checksum, entry framing) and the
    /// sequence chain stays contiguous; the first failure ends the scan. A
    /// break in the chain at a non-zero offset is retried once at offset 0,
    /// because the writer wraps whenever a group would not fit before the
    /// ring end.
    ///
    /// Every acknowledged group survives this scan: the barrier that
    /// acknowledged it also hardened all earlier groups, so an invalid
    /// group can only be followed by unacknowledged ones.
    ///
    /// `floor_lsn` is the newest LSN the durable CP's frontier names; the
    /// recovered ring resumes numbering above both it and every surviving
    /// entry (exact truncation routinely leaves the ring empty).
    ///
    /// # Errors
    ///
    /// Propagates device read errors other than unwritten pages (an
    /// unwritten page is a valid end of the log), and returns
    /// [`BacklogError::Recovery`] for a `floor_lsn` within one ring capacity
    /// of `u64::MAX` — no engine wrote it, and LSN arithmetic above it
    /// could overflow.
    pub fn recover(
        device: Arc<dyn Device>,
        file: FileId,
        start: PageNo,
        pages: u64,
        group_size: usize,
        (tail_page, tail_seq): (u64, u64),
        floor_lsn: u64,
    ) -> Result<RecoveredRing> {
        if floor_lsn > lsn_ceiling(pages) {
            return Err(BacklogError::Recovery {
                detail: format!("journal frontier {floor_lsn} leaves no LSN space"),
            });
        }
        let mut off = tail_page;
        let mut seq = tail_seq;
        let mut consumed = 0u64;
        let mut wrapped = off == 0;
        let mut live = VecDeque::new();
        let mut entries = Vec::new();
        let mut last_lsn = floor_lsn;
        while consumed < pages {
            match read_group(device.as_ref(), start, pages, off, seq)? {
                Some((first_lsn, group, gp)) if gp <= pages - consumed => {
                    let group_last = first_lsn + group.len() as u64 - 1;
                    last_lsn = last_lsn.max(group_last);
                    live.push_back(GroupSpan {
                        offset: off,
                        pages: gp,
                        seq,
                        last_lsn: group_last,
                    });
                    entries.extend((first_lsn..).zip(group));
                    seq += 1;
                    consumed += gp;
                    off += gp;
                    if off == pages {
                        if wrapped {
                            break;
                        }
                        wrapped = true;
                        off = 0;
                    }
                }
                _ => {
                    if !wrapped && off != 0 {
                        // The writer may have wrapped early because the next
                        // group did not fit; try offset 0 once.
                        consumed += pages - off;
                        wrapped = true;
                        off = 0;
                        continue;
                    }
                    break;
                }
            }
        }
        let ring = JournalRing::new(device, file, start, pages, group_size);
        *ring.state.lock() = RingState {
            head: if off == pages { 0 } else { off },
            next_seq: seq,
            next_lsn: last_lsn + 1,
            durable_lsn: last_lsn,
            pending: Vec::new(),
            live,
            frontier_lsn: floor_lsn,
        };
        Ok(RecoveredRing {
            ring,
            entries,
            last_lsn,
        })
    }
}

/// The highest LSN a scan of a `pages`-page ring accepts — one ring's worth
/// of entries below `u64::MAX` — so `last_lsn + 1` and the LSNs of whatever
/// the ring can hold next never overflow on bytes no engine wrote.
fn lsn_ceiling(pages: u64) -> u64 {
    u64::MAX - pages.saturating_mul((PAGE_SIZE / JournalEntry::ENCODED_LEN) as u64)
}

/// Reads and validates one group at ring offset `off`, expecting sequence
/// `seq`. Returns `None` for anything that fails validation — unwritten
/// pages, bad magic, a stale or future sequence, an impossible entry count,
/// a checksum mismatch (torn or partially persisted group), LSNs beyond
/// [`lsn_ceiling`] or a corrupt entry — so the scan stops there.
fn read_group(
    device: &dyn Device,
    start: PageNo,
    pages: u64,
    off: u64,
    seq: u64,
) -> Result<Option<(u64, Vec<JournalEntry>, u64)>> {
    if off >= pages {
        return Ok(None);
    }
    let mut buf = match device.read_page(start + off) {
        Ok(b) => b,
        Err(blockdev::DeviceError::UnwrittenPage { .. }) => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if buf.get(0..8) != Some(&GROUP_MAGIC[..]) {
        return Ok(None);
    }
    if group_u64(&buf, 16) != Some(seq) {
        return Ok(None);
    }
    let count = match group_u32(&buf, 32) {
        Some(c) => c as usize,
        None => return Ok(None),
    };
    if count == 0 || count > MAX_GROUP_ENTRIES {
        return Ok(None);
    }
    let len = GROUP_HEADER_LEN + count * JournalEntry::ENCODED_LEN;
    let gp = (len as u64).div_ceil(PAGE_SIZE as u64);
    if off + gp > pages {
        return Ok(None);
    }
    for p in 1..gp {
        match device.read_page(start + off + p) {
            Ok(b) => buf.extend_from_slice(&b),
            Err(blockdev::DeviceError::UnwrittenPage { .. }) => return Ok(None),
            Err(e) => return Err(e.into()),
        }
    }
    let checksum = group_u64(&buf, 8);
    match buf.get(16..len) {
        Some(span) if checksum == Some(fnv1a64(span)) => {}
        _ => return Ok(None),
    }
    let first_lsn = match group_u64(&buf, 24) {
        Some(lsn) if lsn <= lsn_ceiling(pages).saturating_sub(count as u64) => lsn,
        _ => return Ok(None),
    };
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let at = GROUP_HEADER_LEN + i * JournalEntry::ENCODED_LEN;
        match buf
            .get(at..at + JournalEntry::ENCODED_LEN)
            .map(JournalEntry::decode)
        {
            Some(Ok(e)) => entries.push(e),
            _ => return Ok(None),
        }
    }
    Ok(Some((first_lsn, entries, gp)))
}

/// Bounds-checked big-endian u32 read from a group buffer; `None` means the
/// group is too short to be valid.
fn group_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_be_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

/// Bounds-checked big-endian u64 read from a group buffer.
fn group_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_be_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

/// Replays recovered journal entries into an engine whose on-disk state is
/// at the last complete consistency point, reconstructing the write-store
/// contents that were lost in the crash.
///
/// `frontier[p]` is the newest LSN that CP's flush covered in partition `p`
/// (see the module docs). The rule is a filter: an entry is applied iff its
/// LSN lies beyond the frontier of its block's partition — everything at or
/// below it is in runs, everything above it is in no run — in LSN order.
/// Nothing is looked up: replay reads no table, issues no device I/O and
/// cannot fail, and it journals nothing (the applied entries are still in
/// the ring under their original LSNs). A frontier ahead of every recovered
/// LSN is legal — the ring was truncated past it — and applies nothing.
///
/// Takes `&BacklogEngine`: the callbacks are `&self`, so REDO-only recovery
/// needs no exclusive access. Returns the number of entries applied.
pub fn replay(
    engine: &BacklogEngine,
    recovered: &[(u64, JournalEntry)],
    frontier: &[u64],
) -> usize {
    let partitioning = engine.config().partitioning;
    let beyond = |lsn: u64, op: &RefOp| {
        let pidx = partitioning.partition_of(op.block()) as usize;
        frontier.get(pidx).is_none_or(|&covered| lsn > covered)
    };
    let ops: Vec<RefOp> = recovered
        .iter()
        .map(|(lsn, entry)| (*lsn, entry.op()))
        .filter(|(lsn, op)| beyond(*lsn, op))
        .map(|(_, op)| op)
        .collect();
    engine.apply_ops(&ops, false);
    ops.len()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::BacklogConfig;
    use crate::types::LineId;
    use blockdev::{DeviceConfig, SimDisk};

    fn add(block: BlockNo, owner: Owner, cp: CpNumber) -> JournalEntry {
        JournalEntry::Add { block, owner, cp }
    }

    fn remove(block: BlockNo, owner: Owner, cp: CpNumber) -> JournalEntry {
        JournalEntry::Remove { block, owner, cp }
    }

    #[test]
    fn entry_roundtrip() {
        let add = JournalEntry::Add {
            block: 9,
            owner: Owner::block(2, 3, LineId(1)),
            cp: 7,
        };
        let rm = JournalEntry::Remove {
            block: 10,
            owner: Owner::extent(4, 5, LineId(0), 8),
            cp: 8,
        };
        for e in [add, rm] {
            let mut buf = vec![0u8; JournalEntry::ENCODED_LEN];
            e.encode(&mut buf);
            assert_eq!(JournalEntry::decode(&buf).unwrap(), e);
        }
        assert_eq!(
            rm.op(),
            RefOp::Remove {
                block: 10,
                owner: Owner::extent(4, 5, LineId(0), 8)
            }
        );
    }

    #[test]
    fn corrupt_tag_is_an_error_not_a_panic() {
        let short = [0u8; JournalEntry::ENCODED_LEN - 1];
        assert!(matches!(
            JournalEntry::decode(&short),
            Err(crate::BacklogError::Recovery { .. })
        ));
        let mut buf = vec![0u8; JournalEntry::ENCODED_LEN];
        JournalEntry::Add {
            block: 1,
            owner: Owner::block(1, 0, LineId::ROOT),
            cp: 3,
        }
        .encode(&mut buf);
        buf[0] = 7; // invalid tag
        let err = JournalEntry::decode(&buf).unwrap_err();
        assert!(err.to_string().contains("tag 7"), "{err}");
    }

    #[test]
    fn flipped_group_bytes_are_rejected_not_panicked_on() {
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let entries = vec![
            JournalEntry::Add {
                block: 1,
                owner: Owner::block(1, 0, LineId::ROOT),
                cp: 3,
            },
            JournalEntry::Remove {
                block: 2,
                owner: Owner::block(1, 1, LineId::ROOT),
                cp: 3,
            },
        ];
        let good = encode_group(7, 11, &entries);
        assert_eq!(good.len(), PAGE_SIZE);
        // Flip a bit in every checksummed byte in turn: recovery must treat
        // each corruption as end-of-ring, never panic or misdecode.
        let payload_len = GROUP_HEADER_LEN + entries.len() * JournalEntry::ENCODED_LEN;
        for i in 0..payload_len {
            let mut buf = good.clone();
            buf[i] ^= 0x80;
            disk.write_page(0, &buf).unwrap();
            let got = read_group(disk.as_ref(), 0, 1, 0, 7).unwrap();
            assert!(got.is_none(), "flip at byte {i} went undetected");
        }
        // The pristine group still reads back.
        disk.write_page(0, &good).unwrap();
        let (first_lsn, got, gp) = read_group(disk.as_ref(), 0, 1, 0, 7).unwrap().unwrap();
        assert_eq!((first_lsn, gp), (11, 1));
        assert_eq!(got, entries);
    }

    #[test]
    fn torn_multi_page_group_is_ignored() {
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let owner = Owner::block(1, 0, LineId::ROOT);
        let entries: Vec<JournalEntry> = (0..100)
            .map(|i| JournalEntry::Add {
                block: i,
                owner,
                cp: 3,
            })
            .collect();
        let buf = encode_group(7, 11, &entries);
        assert_eq!(buf.len(), 2 * PAGE_SIZE);
        // The crash tore the group: only its first page reached the device,
        // so the header advertises entries that live on an unwritten page.
        disk.write_page(0, &buf[..PAGE_SIZE]).unwrap();
        assert!(read_group(disk.as_ref(), 0, 2, 0, 7).unwrap().is_none());
    }

    /// Numbers `entries` 1, 2, 3 … as a fresh ring would.
    fn numbered(entries: &[JournalEntry]) -> Vec<(u64, JournalEntry)> {
        (1..).zip(entries.iter().copied()).collect()
    }

    #[test]
    fn replay_restores_unflushed_write_store_contents() {
        // "Crash" scenario: build two engines that share the same durable
        // history; the first sees extra operations that never reach a CP.
        let config = BacklogConfig::default().without_timing();
        let live = BacklogEngine::new_simulated(config.clone());

        let durable_owner = Owner::block(1, 0, LineId::ROOT);
        live.add_reference(100, durable_owner);
        live.consistency_point().unwrap();

        // Operations after the last CP: journaled but not durable.
        let lost_owner = Owner::block(2, 5, LineId::ROOT);
        live.add_reference(200, lost_owner);
        live.remove_reference(100, durable_owner);
        let cp = live.current_cp();
        // LSN 1 is the durable add; the frontier covers exactly it.
        let journal = numbered(&[
            add(100, durable_owner, cp - 1),
            add(200, lost_owner, cp),
            remove(100, durable_owner, cp),
        ]);

        // The "recovered" engine has only the durable state.
        let recovered = BacklogEngine::new_simulated(config);
        recovered.add_reference(100, durable_owner);
        recovered.consistency_point().unwrap();

        assert_eq!(replay(&recovered, &journal, &[1]), 2);

        // After replay the recovered engine answers queries exactly like the
        // engine that never crashed.
        for block in [100u64, 200] {
            assert_eq!(
                recovered.live_owners(block).unwrap(),
                live.live_owners(block).unwrap(),
                "block {block} diverged after recovery"
            );
        }
        assert_eq!(recovered.stats().refs_added, live.stats().refs_added);
        assert_eq!(recovered.stats().refs_removed, live.stats().refs_removed);
    }

    #[test]
    fn replay_applies_exactly_the_entries_beyond_their_partitions_frontier() {
        // Two partitions of 1 000 blocks; the frontier says partition 0's
        // cut covered LSNs up to 4 and partition 1's up to 2. Whether an
        // entry is applied is decided by its LSN alone — including an
        // add+remove pair that cancelled before the flush (nothing in any
        // table says it ever happened) and an entry whose effect is
        // *missing* from the durable state because it raced the cut.
        let engine =
            BacklogEngine::new_simulated(BacklogConfig::partitioned(2, 2_000).without_timing());
        let owner = Owner::block(1, 0, LineId::ROOT);
        let transient = Owner::block(2, 1, LineId::ROOT);
        let raced = Owner::block(3, 2, LineId::ROOT);
        engine.add_reference(1, owner);
        engine.add_reference(1_500, owner);
        engine.consistency_point().unwrap();
        let before = engine.stats();

        let journal = numbered(&[
            add(1, owner, 1),        // 1: p0, covered
            add(1_500, owner, 1),    // 2: p1, covered
            add(1_700, raced, 1),    // 3: p1, beyond its frontier
            add(2, transient, 1),    // 4: p0, covered …
            remove(2, transient, 1), // 5: p0, … but this half is not
        ]);
        assert_eq!(replay(&engine, &journal, &[4, 2]), 2);
        assert_eq!(engine.live_owners(1).unwrap(), vec![owner]);
        assert_eq!(engine.live_owners(1_500).unwrap(), vec![owner]);
        assert_eq!(engine.live_owners(1_700).unwrap(), vec![raced]);
        let after = engine.stats();
        assert_eq!(after.refs_added, before.refs_added + 1);
        assert_eq!(after.refs_removed, before.refs_removed + 1);

        // A frontier ahead of every recovered LSN is legal — the ring was
        // truncated past it — and applies nothing.
        assert_eq!(replay(&engine, &journal, &[9, 9]), 0);
        assert_eq!(engine.stats(), after);
    }

    #[test]
    fn replay_never_reapplies_a_covered_entry_whose_owner_was_since_masked() {
        // A durable add whose owner a *later* lineage operation masked dead
        // (a snapshot deleted between the flush and the crash) is invisible
        // to every query. Replay must still not re-apply it — and does not
        // need to find it: its LSN is at or below the frontier.
        let engine = BacklogEngine::new_simulated(BacklogConfig::default().without_timing());
        let snap = engine.take_snapshot(LineId::ROOT);
        let clone = engine.create_clone(snap);
        let masked = Owner::block(4, 0, clone);
        engine.add_reference(9, masked);
        engine.consistency_point().unwrap();
        // The clone line dies: the durable add is now masked from queries.
        engine.delete_line(clone);
        engine.delete_snapshot(snap);
        assert!(engine.live_owners(9).unwrap().is_empty(), "masked dead");
        let before = engine.stats();

        let journal = numbered(&[add(9, masked, 1)]);
        assert_eq!(replay(&engine, &journal, &[1]), 0, "covered, not missing");
        assert_eq!(engine.stats(), before);
        assert!(engine.live_owners(9).unwrap().is_empty());
        assert_eq!(engine.from_table().scan_all().unwrap().len(), 1);
    }

    fn ring_on(device: &Arc<SimDisk>, pages: u64, group_size: usize) -> JournalRing {
        let dev: Arc<dyn Device> = device.clone();
        JournalRing::new(dev, FileId(1), 10, pages, group_size)
    }

    fn entry(i: u64, cp: CpNumber) -> JournalEntry {
        add(i, Owner::block(1, i, LineId::ROOT), cp)
    }

    fn reopen(device: &Arc<SimDisk>, ring: &JournalRing, tail: (u64, u64)) -> RecoveredRing {
        reopen_above(device, ring, tail, 0)
    }

    fn reopen_above(
        device: &Arc<SimDisk>,
        ring: &JournalRing,
        tail: (u64, u64),
        floor_lsn: u64,
    ) -> RecoveredRing {
        let dev: Arc<dyn Device> = device.clone();
        JournalRing::recover(
            dev,
            ring.file_id(),
            ring.start_page(),
            ring.ring_pages(),
            8,
            tail,
            floor_lsn,
        )
        .unwrap()
    }

    /// The recovered entries without their LSNs.
    fn bare(rec: &RecoveredRing) -> Vec<JournalEntry> {
        rec.entries.iter().map(|&(_, e)| e).collect()
    }

    #[test]
    fn ring_commits_and_recovers_groups() {
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let ring = ring_on(&disk, 8, 3);
        let (lsn, commit) = ring.append(entry(1, 1));
        assert_eq!((lsn, commit), (1, false));
        ring.append(entry(2, 1));
        let (lsn, commit) = ring.append(entry(3, 1));
        assert_eq!((lsn, commit), (3, true));
        assert_eq!(ring.sync().unwrap(), 3);
        assert_eq!(ring.durable_lsn(), 3);
        // An empty sync is a no-op at the already-durable frontier.
        assert_eq!(ring.sync().unwrap(), 3);

        let rec = reopen(&disk, &ring, (0, 1));
        assert_eq!(rec.last_lsn, 3);
        assert_eq!(rec.entries.len(), 3);
        assert_eq!(rec.entries[0], (1, entry(1, 1)));
        assert_eq!(rec.entries[2].0, 3, "LSN = group first_lsn + index");
        let st = rec.ring.stats();
        assert_eq!((st.live_groups, st.live_pages), (1, 1));
        assert_eq!(st.next_seq, 2);
        assert_eq!(st.durable_lsn, 3);
    }

    #[test]
    fn ring_scan_stops_at_torn_tail_but_keeps_acked_groups() {
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let ring = ring_on(&disk, 8, 0);
        ring.append(entry(1, 1));
        ring.sync().unwrap();
        ring.append(entry(2, 1));
        ring.sync().unwrap();
        // Tear the second group's page as a power cut would: only the first
        // 17 bytes of a half-finished rewrite land, clobbering the header.
        let torn_page = ring.start_page() + 1;
        disk.tear_page(torn_page, &[0xAA; PAGE_SIZE], 17).unwrap();
        let rec = reopen(&disk, &ring, (0, 1));
        assert_eq!(bare(&rec), vec![entry(1, 1)], "acked first group survives");
        assert_eq!(rec.last_lsn, 1);
        // The recovered ring resumes writing over the torn group.
        assert_eq!(rec.ring.stats().head, 1);
        rec.ring.append(entry(3, 2));
        rec.ring.sync().unwrap();
        let rec2 = reopen(&disk, &rec.ring, (0, 1));
        assert_eq!(rec2.entries, vec![(1, entry(1, 1)), (2, entry(3, 2))]);
    }

    #[test]
    fn ring_scan_rejects_corrupt_header_and_stale_sequences() {
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let ring = ring_on(&disk, 8, 0);
        ring.append(entry(1, 1));
        ring.sync().unwrap();
        ring.append(entry(2, 1));
        ring.sync().unwrap();

        // Corrupt the first group's magic: the whole log is unreadable from
        // the recorded tail, even though group 2 is intact.
        let mut page = disk.read_page(ring.start_page()).unwrap();
        page[0] ^= 0xff;
        disk.write_page(ring.start_page(), &page).unwrap();
        let rec = reopen(&disk, &ring, (0, 1));
        assert!(rec.entries.is_empty());
        assert_eq!(rec.last_lsn, 0);

        // A tail pointing at the *second* group (as a later CP would record)
        // still recovers it, and a stale expected sequence recovers nothing.
        let rec = reopen(&disk, &ring, (1, 2));
        assert_eq!(rec.entries, vec![(2, entry(2, 1))]);
        let rec = reopen(&disk, &ring, (1, 7));
        assert!(rec.entries.is_empty());
    }

    #[test]
    fn ring_truncates_exactly_and_wraps() {
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let ring = ring_on(&disk, 4, 0);
        // Many CP rounds on a tiny ring force several wrap-arounds. Each
        // round commits one group for LSN `cp`; the CP's frontier lags one
        // entry behind on odd rounds and is exact on even ones.
        for cp in 1..=20u64 {
            ring.append(entry(cp, cp));
            assert_eq!(ring.sync().unwrap(), cp);
            let frontier = cp - cp % 2;
            let tail = ring.prepare_truncate(frontier);
            ring.commit_truncate(tail.1, frontier);
            let rec = reopen_above(&disk, &ring, tail, frontier);
            assert_eq!(rec.last_lsn, cp, "cp {cp}");
            let st = ring.stats();
            if frontier == cp {
                // Covered to the last entry: the ring is empty, the tail is
                // the head, and a reopen recovers nothing.
                assert!(rec.entries.is_empty(), "cp {cp}");
                assert_eq!((st.live_groups, st.live_pages), (0, 0), "cp {cp}");
            } else {
                // The group holding an entry beyond the frontier survives
                // its own CP — and only that group.
                assert_eq!(rec.entries, vec![(cp, entry(cp, cp))], "cp {cp}");
                assert_eq!((st.live_groups, st.live_pages), (1, 1), "cp {cp}");
            }
            assert_eq!(st.frontier_lsn, frontier);
        }
        assert!(ring.stats().next_seq > 20, "every round commits a group");
    }

    #[test]
    fn ring_full_fails_cleanly_and_drains_after_truncation() {
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let ring = ring_on(&disk, 2, 0);
        ring.append(entry(1, 1));
        ring.sync().unwrap();
        ring.append(entry(2, 1));
        ring.sync().unwrap();
        ring.append(entry(3, 2));
        let err = ring.sync().unwrap_err();
        assert!(matches!(err, BacklogError::JournalFull { .. }), "{err}");
        assert_eq!(ring.stats().pending_entries, 1, "pending entry survives");
        // A CP whose cut covered LSNs 1 and 2 frees the ring; the pending
        // entry (beyond the frontier) then commits.
        let tail = ring.prepare_truncate(2);
        ring.commit_truncate(tail.1, 2);
        assert_eq!(ring.stats().live_groups, 0);
        assert_eq!(ring.sync().unwrap(), 3);
        // Pending entries the CP itself made durable are dropped instead of
        // being group-committed later — and count as durable at once.
        ring.append(entry(4, 2));
        ring.append(entry(5, 2));
        let tail = ring.prepare_truncate(4);
        ring.commit_truncate(tail.1, 4);
        let st = ring.stats();
        assert_eq!((st.pending_entries, st.durable_lsn), (1, 4));
        // What is left keeps its LSN: the next group starts at 5.
        assert_eq!(ring.sync().unwrap(), 5);
        let rec = reopen_above(&disk, &ring, tail, 4);
        assert_eq!(rec.entries, vec![(5, entry(5, 2))]);
    }

    #[test]
    fn truncation_is_by_sequence_so_memory_never_runs_ahead_of_the_device() {
        // A group committed between `prepare_truncate` and
        // `commit_truncate` (a writer's group commit racing the CP's flip)
        // lies at the tail the superblock recorded. Even if every entry in
        // it is at or below the frontier, it must stay live in memory until
        // a later CP moves the durable tail past it — or the writer could
        // wrap onto the page recovery starts scanning from.
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let ring = ring_on(&disk, 4, 0);
        ring.append(entry(1, 1));
        let tail = ring.prepare_truncate(1); // the cut saw LSN 1 pending
        assert_eq!(tail, (0, 1));
        ring.sync().unwrap(); // … and then it was group-committed
        ring.commit_truncate(tail.1, 1);
        assert_eq!(ring.stats().live_groups, 1, "still reachable from the tail");
        let rec = reopen_above(&disk, &ring, tail, 1);
        assert_eq!(rec.entries, vec![(1, entry(1, 1))], "filtered at replay");
        assert_eq!(rec.last_lsn, 1);
        // The next CP's tail moves past it.
        let tail = ring.prepare_truncate(1);
        ring.commit_truncate(tail.1, 1);
        assert_eq!(ring.stats().live_groups, 0);
    }

    #[test]
    fn recovered_ring_never_reuses_an_lsn() {
        // Exact truncation routinely leaves the ring empty. A scan that
        // finds nothing must still resume numbering above the frontier the
        // manifest recorded, or new entries would be compared against
        // frontiers from the old LSN space.
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let ring = ring_on(&disk, 4, 0);
        for lsn in 1..=3u64 {
            ring.append(entry(lsn, 1));
        }
        ring.sync().unwrap();
        let tail = ring.prepare_truncate(3);
        ring.commit_truncate(tail.1, 3);
        let rec = reopen_above(&disk, &ring, tail, 3);
        assert!(rec.entries.is_empty());
        assert_eq!(rec.last_lsn, 3);
        let st = rec.ring.stats();
        assert_eq!(
            (st.durable_lsn, st.appended_lsn, st.frontier_lsn),
            (3, 3, 3)
        );
        assert_eq!(rec.ring.append(entry(4, 2)), (4, false));
        assert_eq!(rec.ring.sync().unwrap(), 4);
        // Surviving entries above the floor win over it.
        let rec = reopen_above(&disk, &rec.ring, tail, 3);
        assert_eq!(rec.entries, vec![(4, entry(4, 2))]);
        assert_eq!(rec.last_lsn, 4);
    }

    #[test]
    fn hostile_lsns_are_errors_or_end_of_log_never_overflow() {
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let ring = ring_on(&disk, 4, 0);
        // A frontier within one ring capacity of u64::MAX.
        for floor in [u64::MAX, lsn_ceiling(4) + 1] {
            let dev: Arc<dyn Device> = disk.clone();
            let err = JournalRing::recover(dev, FileId(1), 10, 4, 8, (0, 1), floor).unwrap_err();
            assert!(matches!(err, BacklogError::Recovery { .. }), "{err}");
        }
        assert_eq!(
            reopen_above(&disk, &ring, (0, 1), lsn_ceiling(4)).last_lsn,
            lsn_ceiling(4)
        );
        // A checksummed group claiming LSNs that would overflow is not a
        // group: the scan ends there.
        let entries = [entry(1, 1), entry(2, 1)];
        for first_lsn in [u64::MAX, u64::MAX - 1, lsn_ceiling(4)] {
            disk.write_page(10, &encode_group(1, first_lsn, &entries))
                .unwrap();
            let rec = reopen(&disk, &ring, (0, 1));
            assert!(rec.entries.is_empty(), "first_lsn {first_lsn}");
            assert_eq!(rec.last_lsn, 0);
        }
        disk.write_page(10, &encode_group(1, lsn_ceiling(4) - 2, &entries))
            .unwrap();
        let rec = reopen(&disk, &ring, (0, 1));
        assert_eq!(rec.last_lsn, lsn_ceiling(4) - 1);
    }

    #[test]
    fn ring_write_failure_keeps_entries_and_retry_succeeds() {
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let ring = ring_on(&disk, 8, 0);
        ring.append(entry(1, 1));
        ring.sync().unwrap();
        ring.append(entry(2, 1));
        disk.fail_writes_after(0);
        assert!(ring.sync().is_err());
        disk.fail_writes_after(u64::MAX);
        let st = ring.stats();
        assert_eq!((st.pending_entries, st.durable_lsn, st.next_seq), (1, 1, 2));
        // The retry rewrites the same offset and sequence.
        assert_eq!(ring.sync().unwrap(), 2);
        let rec = reopen(&disk, &ring, (0, 1));
        assert_eq!(bare(&rec), vec![entry(1, 1), entry(2, 1)]);
    }

    #[test]
    fn oversized_batch_splits_into_sequence_chained_groups() {
        let disk = Arc::new(SimDisk::new(DeviceConfig::free_latency()));
        let pages = 3 * MAX_GROUP_PAGES;
        let ring = ring_on(&disk, pages, 0);
        let n = MAX_GROUP_ENTRIES + 5;
        for i in 0..n {
            ring.append(entry(i as u64, 1));
        }
        assert_eq!(ring.sync().unwrap(), n as u64);
        let st = ring.stats();
        assert_eq!(st.live_groups, 2, "split into two chained groups");
        let rec = reopen(&disk, &ring, (0, 1));
        assert_eq!(rec.entries.len(), n);
        assert_eq!(rec.last_lsn, n as u64);
    }
}
