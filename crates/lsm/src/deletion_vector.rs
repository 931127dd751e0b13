use std::collections::BTreeSet;

use crate::record::Record;

/// A C-Store-style deletion vector: the set of records that should be hidden
/// from read-store results without rewriting the run files.
///
/// The paper uses this when maintenance operations relocate blocks (e.g.
/// defragmentation or volume shrinking): rather than modifying the immutable
/// RS, the affected back-reference records are added to the deletion vector
/// and filtered out of query results "in a manner that is completely opaque
/// to query processing logic". A partition's marks are consumed by its next
/// rebuild, which drops the deleted tuples in-stream
/// ([`PartitionSnapshot::iter_disk`](crate::PartitionSnapshot::iter_disk))
/// and clears the marks when it commits
/// ([`PartitionWriteGuard::commit_rebuild`](crate::PartitionWriteGuard::commit_rebuild)).
#[derive(Debug, Clone)]
pub struct DeletionVector<R: Record> {
    deleted: BTreeSet<R>,
}

impl<R: Record> Default for DeletionVector<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Record> DeletionVector<R> {
    /// Creates an empty deletion vector.
    pub fn new() -> Self {
        DeletionVector {
            deleted: BTreeSet::new(),
        }
    }

    /// Marks a record as deleted. Returns `true` if it was not already marked.
    pub fn insert(&mut self, record: R) -> bool {
        self.deleted.insert(record)
    }

    /// Whether the record is marked deleted.
    pub fn contains(&self, record: &R) -> bool {
        self.deleted.contains(record)
    }

    /// Number of records marked deleted.
    pub fn len(&self) -> usize {
        self.deleted.len()
    }

    /// Whether no records are marked deleted.
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty()
    }

    /// Removes every mark, typically after the table has been rewritten.
    pub fn clear(&mut self) {
        self.deleted.clear();
    }

    /// Drops the marks whose partition key falls in `min..=max`, keeping the
    /// rest. Partition-incremental rewrites use this: a rebuilt partition has
    /// consumed its deletion marks in-stream, but marks belonging to other
    /// partitions must survive until those partitions are rewritten too.
    pub fn clear_key_range(&mut self, min: u64, max: u64) {
        self.deleted
            .retain(|r| !(min..=max).contains(&r.partition_key()));
    }

    /// Returns a vector holding the marks of `self` that are not in
    /// `consumed`. Rebuild commits use this to drop exactly the marks the
    /// rebuild applied in-stream while keeping marks added concurrently.
    pub fn difference(&self, consumed: &DeletionVector<R>) -> DeletionVector<R> {
        DeletionVector {
            deleted: self
                .deleted
                .difference(&consumed.deleted)
                .cloned()
                .collect(),
        }
    }

    /// Iterates over the marked records in sorted order (for persisting the
    /// vector in a consistency-point manifest).
    pub fn iter(&self) -> impl Iterator<Item = &R> + '_ {
        self.deleted.iter()
    }

    /// Filters a sorted result set in place, removing marked records.
    pub fn filter(&self, records: &mut Vec<R>) {
        if self.deleted.is_empty() {
            return;
        }
        records.retain(|r| !self.deleted.contains(r));
    }

    /// Approximate memory footprint in bytes (the paper notes the vector is
    /// "usually small enough to be entirely cached in memory").
    pub fn approx_bytes(&self) -> usize {
        self.deleted.len() * (std::mem::size_of::<R>() + 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_support::TestRec;

    #[test]
    fn insert_and_contains() {
        let mut dv = DeletionVector::new();
        assert!(dv.insert(TestRec::new(1, 1)));
        assert!(!dv.insert(TestRec::new(1, 1)));
        assert!(dv.contains(&TestRec::new(1, 1)));
        assert!(!dv.contains(&TestRec::new(1, 2)));
        assert_eq!(dv.len(), 1);
    }

    #[test]
    fn filter_removes_only_marked() {
        let mut dv = DeletionVector::new();
        dv.insert(TestRec::new(2, 0));
        let mut results = vec![TestRec::new(1, 0), TestRec::new(2, 0), TestRec::new(3, 0)];
        dv.filter(&mut results);
        assert_eq!(results, vec![TestRec::new(1, 0), TestRec::new(3, 0)]);
    }

    #[test]
    fn empty_vector_filter_is_noop() {
        let dv: DeletionVector<TestRec> = DeletionVector::new();
        let mut results = vec![TestRec::new(1, 0)];
        dv.filter(&mut results);
        assert_eq!(results.len(), 1);
        assert!(dv.is_empty());
    }

    #[test]
    fn clear_key_range_is_partition_scoped() {
        let mut dv = DeletionVector::new();
        dv.insert(TestRec::new(5, 0));
        dv.insert(TestRec::new(15, 0));
        dv.insert(TestRec::new(25, 0));
        dv.clear_key_range(10, 19);
        assert_eq!(dv.len(), 2);
        assert!(dv.contains(&TestRec::new(5, 0)));
        assert!(!dv.contains(&TestRec::new(15, 0)));
        assert!(dv.contains(&TestRec::new(25, 0)));
    }

    #[test]
    fn clear_resets() {
        let mut dv = DeletionVector::new();
        dv.insert(TestRec::new(5, 5));
        assert!(dv.approx_bytes() > 0);
        dv.clear();
        assert!(dv.is_empty());
    }
}
