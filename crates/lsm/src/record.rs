/// A fixed-size, totally ordered record stored by the LSM engine.
///
/// Backlog's `From`, `To` and `Combined` tuples implement this trait; the
/// engine itself never inspects record fields beyond the
/// [`partition_key`](Record::partition_key).
///
/// # Contract
///
/// * `encode` must write exactly [`ENCODED_LEN`](Record::ENCODED_LEN) bytes
///   and `decode(encode(r)) == r` must hold for every record.
/// * The `Ord` implementation must order records by `partition_key()` first;
///   range queries and horizontal partitioning rely on this.
/// * [`COLUMNS`](Record::COLUMNS) must split the encoded form into at most
///   8 big-endian unsigned columns of 1 to 8 bytes each, summing to
///   `ENCODED_LEN` (checked at compile time when a run builder is
///   instantiated for the type).
///
/// # How runs store records
///
/// A run leaf delta-codes each record against its predecessor, column by
/// column: a flags byte names the columns that changed, followed by one
/// varint per changed column, the first carrying its growth and the rest
/// their raw values. Every 16th record is stored whole. The coding is exact
/// for any encoding; it is compact when the encoding's byte order matches
/// `Ord` (as with fixed-width big-endian fields in sort order), because then
/// neighbours in a sorted run share their leading columns and the first
/// column that changes grows.
pub trait Record: Clone + Ord + Send + Sync + 'static {
    /// Exact size of the encoded form in bytes.
    const ENCODED_LEN: usize;

    /// Widths in bytes of the encoded form's big-endian columns, in order.
    const COLUMNS: &'static [usize];

    /// Serializes the record into `buf`, which is exactly
    /// [`ENCODED_LEN`](Record::ENCODED_LEN) bytes long.
    fn encode(&self, buf: &mut [u8]);

    /// Deserializes a record from `buf`, which is exactly
    /// [`ENCODED_LEN`](Record::ENCODED_LEN) bytes long.
    fn decode(buf: &[u8]) -> Self;

    /// The key used for horizontal partitioning, Bloom-filter membership and
    /// range addressing. In Backlog this is the physical block number.
    fn partition_key(&self) -> u64;

    /// Encodes the record into a freshly allocated vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = vec![0u8; Self::ENCODED_LEN];
        self.encode(&mut buf);
        buf
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::Record;

    /// A small record used throughout the crate's unit tests:
    /// `(partition key, payload)`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct TestRec {
        pub key: u64,
        pub payload: u64,
    }

    impl TestRec {
        pub fn new(key: u64, payload: u64) -> Self {
            TestRec { key, payload }
        }
    }

    impl Record for TestRec {
        const ENCODED_LEN: usize = 16;
        const COLUMNS: &'static [usize] = &[8, 8];

        fn encode(&self, buf: &mut [u8]) {
            buf[..8].copy_from_slice(&self.key.to_be_bytes());
            buf[8..16].copy_from_slice(&self.payload.to_be_bytes());
        }

        fn decode(buf: &[u8]) -> Self {
            TestRec {
                key: u64::from_be_bytes(buf[..8].try_into().unwrap()),
                payload: u64::from_be_bytes(buf[8..16].try_into().unwrap()),
            }
        }

        fn partition_key(&self) -> u64 {
            self.key
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::TestRec;
    use super::*;

    #[test]
    fn roundtrip() {
        let r = TestRec::new(42, 7);
        let bytes = r.encode_to_vec();
        assert_eq!(bytes.len(), TestRec::ENCODED_LEN);
        assert_eq!(TestRec::decode(&bytes), r);
    }

    #[test]
    fn ordering_is_by_partition_key_first() {
        let a = TestRec::new(1, 100);
        let b = TestRec::new(2, 0);
        assert!(a < b);
        assert!(a.partition_key() < b.partition_key());
    }
}
