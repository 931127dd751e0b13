//! On-disk record formats for the `From`, `To` and `Combined` tables.
//!
//! All fields are fixed-width big-endian integers so that byte-wise ordering
//! of the encoded form matches the record's `Ord`. The sizes match the
//! paper's btrfs port: `From` and `To` tuples are 40 bytes, `Combined`
//! tuples are 48 bytes. This fixed form is what journal entries and the
//! manifest's deletion marks carry, and what `disk_record_bytes` (the
//! paper's space figures) counts. Run leaves delta-code it column by column (see
//! [`lsm::Run`]): because the byte order matches `Ord`, neighbours in a
//! sorted run share their leading columns, and a leaf holds about six times
//! as many records as the fixed form would fit.

use lsm::Record;

use crate::types::{BlockNo, CpNumber, FileOffset, InodeNo, LineId, Owner, CP_INFINITY};

/// The identity of a back reference: which block, owned by whom.
///
/// Both `From` and `To` records share these first four conceptual columns
/// (block, inode, offset, line — plus the extent length added for the btrfs
/// port); a `From` and a `To` record with equal identity describe the same
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefIdentity {
    /// Physical block number.
    pub block: BlockNo,
    /// Referencing inode.
    pub inode: InodeNo,
    /// Block offset within the inode.
    pub offset: FileOffset,
    /// Snapshot line of the inode.
    pub line: LineId,
    /// Extent length in blocks.
    pub length: u32,
}

impl RefIdentity {
    /// Builds an identity from a block number and an [`Owner`].
    pub fn new(block: BlockNo, owner: Owner) -> Self {
        RefIdentity {
            block,
            inode: owner.inode,
            offset: owner.offset,
            line: owner.line,
            length: owner.length,
        }
    }

    /// The owner part of the identity.
    pub fn owner(&self) -> Owner {
        Owner {
            inode: self.inode,
            offset: self.offset,
            line: self.line,
            length: self.length,
        }
    }
}

/// The columns of a `From` or `To` record: block, inode, offset, line,
/// length and the CP number.
const IDENTITY_AND_CP: &[usize] = &[8, 8, 8, 4, 4, 8];

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_be_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(buf[at..at + 8].try_into().unwrap())
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(buf[at..at + 4].try_into().unwrap())
}

fn encode_identity(id: &RefIdentity, buf: &mut [u8]) {
    put_u64(buf, 0, id.block);
    put_u64(buf, 8, id.inode);
    put_u64(buf, 16, id.offset);
    put_u32(buf, 24, id.line.0);
    put_u32(buf, 28, id.length);
}

fn decode_identity(buf: &[u8]) -> RefIdentity {
    RefIdentity {
        block: get_u64(buf, 0),
        inode: get_u64(buf, 8),
        offset: get_u64(buf, 16),
        line: LineId(get_u32(buf, 24)),
        length: get_u32(buf, 28),
    }
}

/// A `From` table record: the reference `identity` became valid at global CP
/// number `from`.
///
/// Incomplete records (references that are still live) exist only in the
/// `From` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FromRecord {
    /// The reference identity.
    pub identity: RefIdentity,
    /// First CP number (inclusive) at which the reference is valid.
    pub from: CpNumber,
}

impl FromRecord {
    /// Creates a `From` record.
    pub fn new(identity: RefIdentity, from: CpNumber) -> Self {
        FromRecord { identity, from }
    }
}

impl Record for FromRecord {
    const ENCODED_LEN: usize = 40;
    const COLUMNS: &'static [usize] = IDENTITY_AND_CP;

    fn encode(&self, buf: &mut [u8]) {
        encode_identity(&self.identity, buf);
        put_u64(buf, 32, self.from);
    }

    fn decode(buf: &[u8]) -> Self {
        FromRecord {
            identity: decode_identity(buf),
            from: get_u64(buf, 32),
        }
    }

    fn partition_key(&self) -> u64 {
        self.identity.block
    }
}

/// A `To` table record: the reference `identity` stopped being valid at
/// global CP number `to` (exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ToRecord {
    /// The reference identity.
    pub identity: RefIdentity,
    /// First CP number at which the reference is no longer valid.
    pub to: CpNumber,
}

impl ToRecord {
    /// Creates a `To` record.
    pub fn new(identity: RefIdentity, to: CpNumber) -> Self {
        ToRecord { identity, to }
    }
}

impl Record for ToRecord {
    const ENCODED_LEN: usize = 40;
    const COLUMNS: &'static [usize] = IDENTITY_AND_CP;

    fn encode(&self, buf: &mut [u8]) {
        encode_identity(&self.identity, buf);
        put_u64(buf, 32, self.to);
    }

    fn decode(buf: &[u8]) -> Self {
        ToRecord {
            identity: decode_identity(buf),
            to: get_u64(buf, 32),
        }
    }

    fn partition_key(&self) -> u64 {
        self.identity.block
    }
}

/// A `Combined` table record: the outer join of a `From` and a `To` record —
/// the reference was valid for global CP numbers in `[from, to)`.
///
/// These records are materialized only by database maintenance; during normal
/// operation the conceptual Combined view is computed on the fly by the query
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CombinedRecord {
    /// The reference identity.
    pub identity: RefIdentity,
    /// First CP number (inclusive) at which the reference is valid.
    pub from: CpNumber,
    /// First CP number at which the reference is no longer valid
    /// ([`CP_INFINITY`] if still alive).
    pub to: CpNumber,
}

impl CombinedRecord {
    /// Creates a combined record.
    pub fn new(identity: RefIdentity, from: CpNumber, to: CpNumber) -> Self {
        CombinedRecord { identity, from, to }
    }

    /// A record describing a still-live reference.
    pub fn live(identity: RefIdentity, from: CpNumber) -> Self {
        CombinedRecord {
            identity,
            from,
            to: CP_INFINITY,
        }
    }

    /// Whether the reference is still alive (no `To` entry yet).
    pub fn is_live(&self) -> bool {
        self.to == CP_INFINITY
    }

    /// Whether the half-open validity interval `[from, to)` contains `cp`.
    pub fn covers(&self, cp: CpNumber) -> bool {
        self.from <= cp && cp < self.to
    }

    /// Whether the interval is empty (`from == to`), i.e. the reference was
    /// born and removed within a single CP interval and should never have
    /// been materialized.
    pub fn is_empty_interval(&self) -> bool {
        self.from >= self.to
    }
}

impl Record for CombinedRecord {
    const ENCODED_LEN: usize = 48;
    const COLUMNS: &'static [usize] = &[8, 8, 8, 4, 4, 8, 8];

    fn encode(&self, buf: &mut [u8]) {
        encode_identity(&self.identity, buf);
        put_u64(buf, 32, self.from);
        put_u64(buf, 40, self.to);
    }

    fn decode(buf: &[u8]) -> Self {
        CombinedRecord {
            identity: decode_identity(buf),
            from: get_u64(buf, 32),
            to: get_u64(buf, 40),
        }
    }

    fn partition_key(&self) -> u64 {
        self.identity.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LineId;

    fn identity() -> RefIdentity {
        RefIdentity::new(100, Owner::extent(2, 0, LineId(1), 4))
    }

    #[test]
    fn encoded_sizes_match_paper() {
        // Section 6.1: From/To tuples are 40 bytes, Combined tuples 48 bytes.
        assert_eq!(FromRecord::ENCODED_LEN, 40);
        assert_eq!(ToRecord::ENCODED_LEN, 40);
        assert_eq!(CombinedRecord::ENCODED_LEN, 48);
    }

    #[test]
    fn from_record_roundtrip() {
        let r = FromRecord::new(identity(), 42);
        let bytes = r.encode_to_vec();
        assert_eq!(bytes.len(), 40);
        assert_eq!(FromRecord::decode(&bytes), r);
        assert_eq!(r.partition_key(), 100);
    }

    #[test]
    fn to_record_roundtrip() {
        let r = ToRecord::new(identity(), 77);
        assert_eq!(ToRecord::decode(&r.encode_to_vec()), r);
    }

    #[test]
    fn combined_record_roundtrip_and_predicates() {
        let r = CombinedRecord::new(identity(), 4, 7);
        assert_eq!(CombinedRecord::decode(&r.encode_to_vec()), r);
        assert!(r.covers(4));
        assert!(r.covers(6));
        assert!(!r.covers(7));
        assert!(!r.is_live());
        assert!(!r.is_empty_interval());

        let live = CombinedRecord::live(identity(), 4);
        assert!(live.is_live());
        assert!(live.covers(1_000_000));

        let empty = CombinedRecord::new(identity(), 5, 5);
        assert!(empty.is_empty_interval());
    }

    #[test]
    fn ordering_sorts_by_block_first() {
        let a = FromRecord::new(RefIdentity::new(1, Owner::block(9, 9, LineId(9))), 9);
        let b = FromRecord::new(RefIdentity::new(2, Owner::block(0, 0, LineId(0))), 0);
        assert!(a < b);
    }

    #[test]
    fn identity_owner_roundtrip() {
        let owner = Owner::extent(2, 0, LineId(1), 4);
        let id = RefIdentity::new(100, owner);
        assert_eq!(id.owner(), owner);
    }

    #[test]
    fn byte_order_matches_record_order() {
        // Big-endian encoding means encoded bytes sort like the records.
        let lo = FromRecord::new(RefIdentity::new(5, Owner::block(1, 0, LineId(0))), 1);
        let hi = FromRecord::new(RefIdentity::new(6, Owner::block(0, 0, LineId(0))), 0);
        assert!(lo < hi);
        assert!(lo.encode_to_vec() < hi.encode_to_vec());
    }
}
