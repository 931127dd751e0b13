//! Property-based tests for the storage substrates: LSM runs, tables, Bloom
//! filters and the simulated device, checked against simple in-memory
//! models.

use std::sync::Arc;

use blockdev::{Device, DeviceConfig, FileStore, SimDisk};
use lsm::{BloomConfig, BloomFilter, LsmTable, Partitioning, Record, Run, TableConfig};
use proptest::prelude::*;

/// The simple record used by the property tests: sorts by `key` first as the
/// engine requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Rec {
    key: u64,
    payload: u64,
}

impl Record for Rec {
    const ENCODED_LEN: usize = 16;
    fn encode(&self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.key.to_be_bytes());
        buf[8..16].copy_from_slice(&self.payload.to_be_bytes());
    }
    fn decode(buf: &[u8]) -> Self {
        Rec {
            key: u64::from_be_bytes(buf[..8].try_into().unwrap()),
            payload: u64::from_be_bytes(buf[8..16].try_into().unwrap()),
        }
    }
    fn partition_key(&self) -> u64 {
        self.key
    }
}

fn files() -> Arc<FileStore> {
    Arc::new(FileStore::new(SimDisk::new_shared(
        DeviceConfig::free_latency(),
    )))
}

/// Merges every partition of `table` into one run through the guard API a
/// maintenance pass uses: snapshot under the read guard, stream with no lock
/// held, commit under the write guard.
fn compact_all(table: &LsmTable<Rec>) {
    for pidx in 0..table.partition_count() {
        let snap = table.read_partition(pidx).snapshot();
        let mut builder = table.new_run_builder(snap.disk_records() as usize);
        for rec in snap.iter_disk().unwrap() {
            builder.push(&rec.unwrap()).unwrap();
        }
        let run = builder.finish_nonempty().unwrap();
        assert!(table.write_partition(pidx).commit_rebuild(run, &snap));
    }
}

fn rec_strategy(max_key: u64) -> impl Strategy<Value = Rec> {
    (0..max_key, any::<u64>()).prop_map(|(key, payload)| Rec { key, payload })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A run built from any sorted set of records returns exactly those
    /// records for any range query, in order.
    #[test]
    fn run_range_queries_match_model(
        mut records in proptest::collection::btree_set(rec_strategy(2_000), 0..600)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
        ranges in proptest::collection::vec((0u64..2_100, 0u64..400), 1..8),
    ) {
        records.sort();
        let fs = files();
        let run = Run::build(&fs, &records, &BloomConfig::default()).unwrap();
        if let Some(run) = run {
            prop_assert_eq!(run.scan_all().unwrap(), records.clone());
            for (start, span) in ranges {
                let end = start.saturating_add(span);
                let expected: Vec<Rec> = records
                    .iter()
                    .copied()
                    .filter(|r| r.key >= start && r.key <= end)
                    .collect();
                prop_assert_eq!(run.scan_range(start, end).unwrap(), expected);
            }
        } else {
            prop_assert!(records.is_empty());
        }
    }

    /// Heavy duplicate keys (a key's records routinely fill whole leaves and
    /// straddle leaf boundaries): any range over the run equals the filtered
    /// input, on the freshly built run — fences from the builder — and on
    /// the same run reopened from its manifest entry — fences loaded from
    /// the on-disk section by the first lookup.
    #[test]
    fn run_ranges_match_model_with_duplicates_fresh_and_reopened(
        mut records in proptest::collection::btree_set(
            (0u64..12, 0u64..2_000).prop_map(|(key, payload)| Rec { key: key * 3, payload }),
            1..1_500,
        ).prop_map(|s| s.into_iter().collect::<Vec<_>>()),
        ranges in proptest::collection::vec((0u64..40, 0u64..12), 1..10),
    ) {
        records.sort();
        let fs = files();
        let run = Run::build(&fs, &records, &BloomConfig::default()).unwrap().unwrap();
        let reopened = Run::<Rec>::open_from_meta(&fs, &run.meta()).unwrap();
        for (start, span) in ranges {
            let end = start + span;
            let expected: Vec<Rec> = records
                .iter()
                .copied()
                .filter(|r| r.key >= start && r.key <= end)
                .collect();
            prop_assert_eq!(&run.scan_range(start, end).unwrap(), &expected);
            prop_assert_eq!(&reopened.scan_range(start, end).unwrap(), &expected);
        }
        prop_assert_eq!(reopened.scan_all().unwrap(), records);
    }

    /// An LsmTable behaves like a sorted multiset regardless of how the
    /// inserts are split across consistency points, whether the table is
    /// partitioned, and whether it is compacted.
    #[test]
    fn lsm_table_matches_multiset_model(
        batches in proptest::collection::vec(
            proptest::collection::vec(rec_strategy(1_000), 0..120),
            1..6
        ),
        partitions in 1u32..5,
        compact in any::<bool>(),
        query in (0u64..1_000, 0u64..300),
    ) {
        let config = TableConfig::named("prop")
            .with_partitioning(Partitioning::for_key_space(partitions, 1_000));
        let table = LsmTable::new(files(), config);
        let mut model: Vec<Rec> = Vec::new();
        for batch in &batches {
            for &r in batch {
                table.insert(r);
                model.push(r);
            }
            table.flush_cp().unwrap();
        }
        if compact {
            compact_all(&table);
        }
        // The model is a multiset, but the write store deduplicates exact
        // duplicates inserted within one CP; deduplicate the model the same
        // way (per batch).
        let mut expected: Vec<Rec> = Vec::new();
        for batch in &batches {
            let mut seen: std::collections::BTreeSet<Rec> = Default::default();
            for &r in batch {
                if seen.insert(r) {
                    expected.push(r);
                }
            }
        }
        expected.sort();
        prop_assert_eq!(table.scan_all().unwrap(), expected.clone());
        let (start, span) = query;
        let end = start.saturating_add(span);
        let want: Vec<Rec> =
            expected.iter().copied().filter(|r| r.key >= start && r.key <= end).collect();
        prop_assert_eq!(table.query_range(start, end).unwrap(), want);
    }

    /// Bloom filters never report false negatives, even after halving.
    #[test]
    fn bloom_has_no_false_negatives(
        keys in proptest::collection::hash_set(any::<u64>(), 1..500),
        halvings in 0usize..6,
    ) {
        let mut filter = BloomFilter::for_entries(keys.len(), &BloomConfig::default());
        for &k in &keys {
            filter.insert(k);
        }
        for _ in 0..halvings {
            filter.halve();
        }
        for &k in &keys {
            prop_assert!(filter.may_contain(k));
        }
    }

    /// The simulated device returns exactly what was last written to a page.
    #[test]
    fn device_reads_last_write(
        writes in proptest::collection::vec((0u64..64, any::<[u8; 8]>()), 1..100),
    ) {
        let disk = SimDisk::new(DeviceConfig::free_latency());
        let mut model: std::collections::HashMap<u64, [u8; 8]> = Default::default();
        for (page, data) in &writes {
            disk.write_page(*page, data).unwrap();
            model.insert(*page, *data);
        }
        for (page, data) in &model {
            let read = disk.read_page(*page).unwrap();
            prop_assert_eq!(&read[..8], &data[..]);
        }
        let stats = disk.stats().snapshot();
        prop_assert_eq!(stats.page_writes, writes.len() as u64);
        prop_assert_eq!(stats.page_reads, model.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential test pinning the PR-4 sharded write store to the seed's
    /// single-store semantics: any interleaving of inserts, removals and
    /// full flush cycles must return the same booleans, flush the same
    /// records and leave the same residual contents, regardless of the
    /// shard count. (Mid-flush staging semantics — records pinned by an
    /// in-flight flush — are new behavior with no single-store analogue and
    /// are covered by the `WriteShard` unit tests.)
    #[test]
    fn sharded_write_store_matches_single_store_seed_semantics(
        ops in proptest::collection::vec((0u8..4, rec_strategy(400)), 1..200),
        partitions in 1u32..6,
    ) {
        use lsm::{ShardedWriteStore, WriteStore};
        let sharded: ShardedWriteStore<Rec> = ShardedWriteStore::new(
            Partitioning::for_key_space(partitions, 400),
            SimDisk::new_shared(DeviceConfig::free_latency()),
        );
        let mut single: WriteStore<Rec> = WriteStore::new();
        for (op, rec) in ops {
            match op {
                0 => prop_assert_eq!(sharded.insert(rec), single.insert(rec)),
                1 => prop_assert_eq!(sharded.remove(&rec), single.remove(&rec)),
                2 => prop_assert_eq!(sharded.contains(&rec), single.contains(&rec)),
                _ => {
                    // A full flush cycle: stage + commit every shard is the
                    // sharded equivalent of the seed's `drain_sorted`.
                    let mut staged: Vec<Rec> = Vec::new();
                    for p in 0..sharded.shard_count() {
                        staged.extend(sharded.lock_shard(p).stage());
                    }
                    for p in 0..sharded.shard_count() {
                        sharded.lock_shard(p).commit_flush();
                    }
                    prop_assert_eq!(staged, single.drain_sorted());
                }
            }
            prop_assert_eq!(sharded.len(), single.len());
        }
        prop_assert_eq!(sharded.to_sorted_vec(), single.to_sorted_vec());
    }

    /// A flush cycle that fails and restores must leave the sharded store
    /// equivalent to a seed store whose failed `flush_cp` re-inserted the
    /// drained records.
    #[test]
    fn sharded_restore_matches_seed_error_path(
        before in proptest::collection::btree_set(rec_strategy(400), 0..80),
        during in proptest::collection::btree_set(rec_strategy(400), 0..40),
        partitions in 1u32..6,
    ) {
        use lsm::{ShardedWriteStore, WriteStore};
        let sharded: ShardedWriteStore<Rec> = ShardedWriteStore::new(
            Partitioning::for_key_space(partitions, 400),
            SimDisk::new_shared(DeviceConfig::free_latency()),
        );
        let mut single: WriteStore<Rec> = WriteStore::new();
        for &r in &before {
            sharded.insert(r);
            single.insert(r);
        }
        // Stage (the flush begins)...
        for p in 0..sharded.shard_count() {
            sharded.lock_shard(p).stage();
        }
        // ...writers keep inserting mid-flush...
        for &r in &during {
            sharded.insert(r);
            single.insert(r);
        }
        // ...the device fails, the staged records return.
        for p in 0..sharded.shard_count() {
            sharded.lock_shard(p).restore_flush();
        }
        prop_assert_eq!(sharded.to_sorted_vec(), single.to_sorted_vec());
    }
}
