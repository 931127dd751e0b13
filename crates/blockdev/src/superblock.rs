//! The on-device superblock: the single fixed-location anchor of the
//! back-reference database.
//!
//! Everything else the database writes is *write-anywhere* — run files and
//! the manifest log live wherever the [`FileStore`] allocated them, and a
//! consistency point never overwrites a page that the previous consistency
//! point can still reach (inside the log's extent that means: a frame is
//! only ever written past the valid prefix the previous superblock
//! recorded). The superblock is the one exception: a
//! fixed pair of device pages ([`SUPERBLOCK_PAGES`]) written in *ping-pong*
//! fashion (generation `g` goes to page `g % 2`), so the previous
//! generation's superblock is intact until the new one is fully on the
//! device. Each copy is self-validating (magic + FNV-1a checksum);
//! [`Superblock::read_latest`] returns the valid copy with the highest
//! generation, which is exactly the last consistency point whose final write
//! completed.
//!
//! The superblock carries just enough to bootstrap recovery without any
//! other metadata: a pointer to the manifest log (its virtual-file id, the
//! raw device extent reserved for it — raw, because the extent map that
//! would normally resolve the file lives *inside* the log — and the byte
//! length of the log's *valid prefix*, which ends with the frame this
//! consistency point appended) and the file store's allocation cursor. The
//! recovery invariant the ping-pong scheme enforces: **the superblock never
//! covers a frame that is not fully on disk** — a frame's pages are written
//! and made stable first, the superblock flip is the last write of the
//! consistency point, and whatever a dead consistency point left past the
//! recorded prefix is never read.
//!
//! [`FileStore`]: crate::FileStore

// Decode-surface module: recovery paths must return errors, never panic
// (enforced by `backlint` panic-free and audited by clippy here).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use crate::device::Device;
use crate::error::{DeviceError, Result};
use crate::{PageNo, PAGE_SIZE};

/// The two device pages reserved for the ping-pong superblock copies.
pub const SUPERBLOCK_PAGES: [PageNo; 2] = [0, 1];

/// The first device page available to the file store when a superblock is in
/// use (pages below this are reserved).
pub const FIRST_DATA_PAGE: PageNo = 2;

const MAGIC: &[u8; 8] = b"BKLGSUPR";
const VERSION: u32 = 2;
/// magic(8) + checksum(8) + version(4) + generation(8) + manifest_file(8) +
/// manifest_len_bytes(8) + next_file(8) + next_page(8) + journal_file(8) +
/// journal_start(8) + journal_pages(8) + journal_tail_page(8) +
/// journal_tail_seq(8) + extent_count(4).
const HEADER_LEN: usize = 8 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 4;
/// How many manifest extents fit in one superblock page. (The engine's
/// manifest log is always exactly one.)
pub const MAX_MANIFEST_EXTENTS: usize = (PAGE_SIZE - HEADER_LEN) / 16;

/// FNV-1a 64-bit checksum, used by the superblock and by the manifest log to
/// detect torn or corrupt metadata after a crash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bounds-checked big-endian u32 read at `at`.
fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_be_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

/// Bounds-checked big-endian u64 read at `at`.
fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_be_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

/// One durable consistency point's root metadata (see the module docs for
/// the recovery protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// Monotonically increasing consistency-point generation (the first
    /// durable CP writes generation 1).
    pub generation: u64,
    /// The manifest log's virtual-file id inside the file store,
    /// re-registered on restore so the log's pages are not reallocated until
    /// a later CP retires it.
    pub manifest_file: u64,
    /// Length in bytes of the manifest log's *valid prefix*: the base frame
    /// and every delta frame up to and including the one this CP appended
    /// (the last page may be partially filled). Recovery reads
    /// `ceil(manifest_len_bytes / PAGE_SIZE)` pages of the extent and
    /// nothing beyond them.
    pub manifest_len_bytes: u64,
    /// The file store's next-file cursor as of this CP (taken after the
    /// log's reservation, so it is past every file the log references).
    pub next_file: u64,
    /// The file store's bump-allocation cursor as of this CP (taken after
    /// the log's reservation and the CP's run writes, so every referenced
    /// extent lies below it).
    pub next_page: PageNo,
    /// Virtual-file id of the on-device journal ring, re-registered on
    /// restore so its pages are never reallocated. Meaningful only when
    /// `journal_pages` is non-zero.
    pub journal_file: u64,
    /// First device page of the journal ring's single extent.
    pub journal_start: PageNo,
    /// Length of the journal ring in pages; zero means this database has no
    /// on-device journal.
    pub journal_pages: u64,
    /// Ring-relative page offset of the journal tail (the oldest live group)
    /// as of this CP. Recovery scans forward from here.
    pub journal_tail_page: u64,
    /// Sequence number the group at `journal_tail_page` must carry; the scan
    /// stops at the first group that breaks the contiguous sequence chain.
    pub journal_tail_seq: u64,
    /// Raw device extents reserved for the manifest log, in file order —
    /// the whole reservation, not just the valid prefix. The engine always
    /// records exactly one (the log is one contiguous extent) and rejects
    /// anything else on open.
    pub manifest_extents: Vec<(PageNo, u64)>,
}

impl Superblock {
    /// Serializes the superblock into one page-sized buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::SuperblockOverflow`] if the manifest is spread
    /// over more extents than fit in a page. Unreachable when the manifest
    /// log is reserved through
    /// [`FileStore::reserve_extent`](crate::FileStore::reserve_extent)
    /// (one contiguous extent by construction); the check is defensive.
    pub fn encode(&self) -> Result<Vec<u8>> {
        if self.manifest_extents.len() > MAX_MANIFEST_EXTENTS {
            return Err(DeviceError::SuperblockOverflow {
                extents: self.manifest_extents.len(),
            });
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0..8].copy_from_slice(MAGIC);
        // buf[8..16] is the checksum, filled below.
        buf[16..20].copy_from_slice(&VERSION.to_be_bytes());
        buf[20..28].copy_from_slice(&self.generation.to_be_bytes());
        buf[28..36].copy_from_slice(&self.manifest_file.to_be_bytes());
        buf[36..44].copy_from_slice(&self.manifest_len_bytes.to_be_bytes());
        buf[44..52].copy_from_slice(&self.next_file.to_be_bytes());
        buf[52..60].copy_from_slice(&self.next_page.to_be_bytes());
        buf[60..68].copy_from_slice(&self.journal_file.to_be_bytes());
        buf[68..76].copy_from_slice(&self.journal_start.to_be_bytes());
        buf[76..84].copy_from_slice(&self.journal_pages.to_be_bytes());
        buf[84..92].copy_from_slice(&self.journal_tail_page.to_be_bytes());
        buf[92..100].copy_from_slice(&self.journal_tail_seq.to_be_bytes());
        buf[100..104].copy_from_slice(&(self.manifest_extents.len() as u32).to_be_bytes());
        let mut at = HEADER_LEN;
        for &(start, len) in &self.manifest_extents {
            buf[at..at + 8].copy_from_slice(&start.to_be_bytes());
            buf[at + 8..at + 16].copy_from_slice(&len.to_be_bytes());
            at += 16;
        }
        let checksum = fnv1a64(&buf[16..]);
        buf[8..16].copy_from_slice(&checksum.to_be_bytes());
        Ok(buf)
    }

    /// Deserializes a superblock copy, returning `None` if the page does not
    /// hold a valid one (wrong magic, wrong version, bad checksum). All
    /// reads are bounds-checked: a short or torn page is invalid, never a
    /// panic.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < PAGE_SIZE || buf.get(0..8)? != MAGIC {
            return None;
        }
        let checksum = read_u64(buf, 8)?;
        if fnv1a64(buf.get(16..PAGE_SIZE)?) != checksum {
            return None;
        }
        if read_u32(buf, 16)? != VERSION {
            return None;
        }
        let extent_count = read_u32(buf, 100)? as usize;
        if extent_count > MAX_MANIFEST_EXTENTS {
            return None;
        }
        let mut extents = Vec::with_capacity(extent_count);
        for i in 0..extent_count {
            let at = HEADER_LEN + i * 16;
            extents.push((read_u64(buf, at)?, read_u64(buf, at + 8)?));
        }
        Some(Superblock {
            generation: read_u64(buf, 20)?,
            manifest_file: read_u64(buf, 28)?,
            manifest_len_bytes: read_u64(buf, 36)?,
            next_file: read_u64(buf, 44)?,
            next_page: read_u64(buf, 52)?,
            journal_file: read_u64(buf, 60)?,
            journal_start: read_u64(buf, 68)?,
            journal_pages: read_u64(buf, 76)?,
            journal_tail_page: read_u64(buf, 84)?,
            journal_tail_seq: read_u64(buf, 92)?,
            manifest_extents: extents,
        })
    }

    /// Writes this superblock to its ping-pong slot
    /// (`SUPERBLOCK_PAGES[generation % 2]`), leaving the previous
    /// generation's copy untouched. This must be the *last* write of a
    /// consistency point.
    ///
    /// # Errors
    ///
    /// Propagates device errors and [`DeviceError::SuperblockOverflow`].
    pub fn write_to(&self, device: &dyn Device) -> Result<()> {
        let page = SUPERBLOCK_PAGES[(self.generation % 2) as usize];
        device.write_page(page, &self.encode()?)
    }

    /// Reads both superblock copies and returns the valid one with the
    /// highest generation, or `None` if neither page holds a valid
    /// superblock (a device that never completed a consistency point).
    ///
    /// # Errors
    ///
    /// Propagates device errors other than
    /// [`DeviceError::UnwrittenPage`] (an unwritten slot is simply skipped).
    pub fn read_latest(device: &dyn Device) -> Result<Option<Self>> {
        let mut best: Option<Superblock> = None;
        for &page in &SUPERBLOCK_PAGES {
            let buf = match device.read_page(page) {
                Ok(buf) => buf,
                Err(DeviceError::UnwrittenPage { .. }) => continue,
                Err(e) => return Err(e),
            };
            if let Some(sb) = Superblock::decode(&buf) {
                match &best {
                    Some(b) if b.generation >= sb.generation => {}
                    _ => best = Some(sb),
                }
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::device::{DeviceConfig, SimDisk};

    fn sb(generation: u64) -> Superblock {
        Superblock {
            generation,
            manifest_file: 7,
            manifest_len_bytes: 12_345,
            next_file: 8,
            next_page: 99,
            journal_file: 3,
            journal_start: 40,
            journal_pages: 16,
            journal_tail_page: 5,
            journal_tail_seq: 11,
            manifest_extents: vec![(2, 3), (10, 1)],
        }
    }

    #[test]
    fn encode_decode_roundtrips() {
        let s = sb(5);
        let buf = s.encode().unwrap();
        assert_eq!(buf.len(), PAGE_SIZE);
        assert_eq!(Superblock::decode(&buf), Some(s));
    }

    #[test]
    fn corruption_is_detected() {
        let s = sb(5);
        let mut buf = s.encode().unwrap();
        buf[40] ^= 0xff;
        assert_eq!(Superblock::decode(&buf), None);
        let mut bad_magic = s.encode().unwrap();
        bad_magic[0] = b'X';
        assert_eq!(Superblock::decode(&bad_magic), None);
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let buf = sb(5).encode().unwrap();
        // The page checksum covers everything after the checksum field, and
        // a short buffer is rejected outright, so no prefix and no
        // single-bit corruption may decode — or panic.
        for len in 0..buf.len() {
            assert_eq!(
                Superblock::decode(&buf[..len]),
                None,
                "truncation to {len} bytes decoded"
            );
        }
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x80;
            assert_eq!(Superblock::decode(&bad), None, "flip at byte {i}");
        }
    }

    #[test]
    fn ping_pong_alternates_pages_and_latest_wins() {
        let d = SimDisk::new(DeviceConfig::free_latency());
        assert_eq!(Superblock::read_latest(&d).unwrap(), None);
        sb(1).write_to(&d).unwrap();
        assert_eq!(Superblock::read_latest(&d).unwrap(), Some(sb(1)));
        sb(2).write_to(&d).unwrap();
        assert_eq!(Superblock::read_latest(&d).unwrap(), Some(sb(2)));
        // Generation 1 lives at page 1, generation 2 at page 0.
        assert!(
            Superblock::decode(&d.read_page(1).unwrap())
                .unwrap()
                .generation
                == 1
        );
        assert!(
            Superblock::decode(&d.read_page(0).unwrap())
                .unwrap()
                .generation
                == 2
        );
    }

    #[test]
    fn torn_flip_falls_back_to_previous_generation() {
        let d = SimDisk::new(DeviceConfig::free_latency());
        sb(1).write_to(&d).unwrap();
        sb(2).write_to(&d).unwrap();
        // Generation 3 would overwrite generation 1's slot; corrupt it as a
        // torn write would.
        let mut torn = sb(3).encode().unwrap();
        torn[100] ^= 0x5a;
        d.write_page(SUPERBLOCK_PAGES[1], &torn).unwrap();
        assert_eq!(Superblock::read_latest(&d).unwrap(), Some(sb(2)));
    }

    #[test]
    fn torn_prefix_on_flip_slot_falls_back_to_previous_generation() {
        // A power cut mid-flip persists only a prefix of the new superblock
        // over the old content of slot g % 2. Generations 1 and 3 share that
        // slot and differ only in their generation (bytes 20..28) and
        // checksum (bytes 8..16) fields, so every prefix length that splits
        // the differing region must be rejected by the FNV checksum (or
        // decode as the old generation 1, for cuts before the checksum), and
        // read_latest must fall back to generation 2.
        for keep in [1usize, 8, 12, 16, 20, 24, 27] {
            let d = SimDisk::new(DeviceConfig::free_latency());
            sb(1).write_to(&d).unwrap();
            sb(2).write_to(&d).unwrap();
            let fresh = sb(3).encode().unwrap();
            d.tear_page(SUPERBLOCK_PAGES[1], &fresh, keep).unwrap();
            assert_eq!(
                Superblock::read_latest(&d).unwrap(),
                Some(sb(2)),
                "torn flip with {keep} persisted bytes must not advance the generation"
            );
            // A retried, complete flip wins again.
            d.write_page(SUPERBLOCK_PAGES[1], &fresh).unwrap();
            assert_eq!(Superblock::read_latest(&d).unwrap(), Some(sb(3)));
        }
        // Once every differing byte has persisted, the torn write is
        // indistinguishable from a completed one — and must validate.
        let d = SimDisk::new(DeviceConfig::free_latency());
        sb(1).write_to(&d).unwrap();
        sb(2).write_to(&d).unwrap();
        d.tear_page(SUPERBLOCK_PAGES[1], &sb(3).encode().unwrap(), 28)
            .unwrap();
        assert_eq!(Superblock::read_latest(&d).unwrap(), Some(sb(3)));
    }

    #[test]
    fn too_many_extents_overflow() {
        let mut s = sb(1);
        s.manifest_extents = (0..MAX_MANIFEST_EXTENTS as u64 + 1)
            .map(|i| (i * 2, 1))
            .collect();
        assert!(matches!(
            s.encode(),
            Err(DeviceError::SuperblockOverflow { .. })
        ));
        // Exactly the maximum fits.
        s.manifest_extents.pop();
        let buf = s.encode().unwrap();
        assert_eq!(Superblock::decode(&buf), Some(s));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
