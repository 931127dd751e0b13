//! Property-based tests for the Backlog engine: random operation sequences
//! are replayed against a trivial in-memory model of "who currently owns
//! which block", and the engine must agree after any number of consistency
//! points and maintenance passes.

use std::collections::BTreeSet;

use backlog::{
    maintenance, query::join_from_to, BacklogConfig, BacklogEngine, CombinedRecord, FromRecord,
    LineId, LineageTable, MaintenancePlan, Owner, RefIdentity, SnapshotId, ToRecord, CP_INFINITY,
};
use proptest::prelude::*;

/// One step of the random workload.
#[derive(Debug, Clone, Copy)]
enum Step {
    Add { block: u64, inode: u64, offset: u64 },
    Remove { block: u64, inode: u64, offset: u64 },
    ConsistencyPoint,
    Maintenance,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0u64..40, 1u64..6, 0u64..8).prop_map(|(block, inode, offset)| Step::Add { block, inode, offset }),
        3 => (0u64..40, 1u64..6, 0u64..8).prop_map(|(block, inode, offset)| Step::Remove { block, inode, offset }),
        2 => Just(Step::ConsistencyPoint),
        1 => Just(Step::Maintenance),
    ]
}

/// Which partitions each plan of [`maintain_covering`] selects.
#[derive(Debug, Clone, Copy)]
enum Selection {
    /// One plan selecting every partition.
    All,
    /// One plan for the partitions holding at least two runs, then the
    /// cleaner rest one at a time.
    MinRuns,
    /// One plan per partition.
    Single,
}

/// Rebuilds every partition exactly once through plans of the given shape,
/// each on `threads` workers, and returns the summed
/// `(combined, incomplete, purged)` record counts of their reports.
fn maintain_covering(e: &BacklogEngine, selection: Selection, threads: usize) -> (u64, u64, u64) {
    let partitions = e.config().partitioning.partition_count();
    let runs = |p| {
        e.from_table().partition_run_count(p)
            + e.to_table().partition_run_count(p)
            + e.combined_table().partition_run_count(p)
    };
    let base = MaintenancePlan::full().with_threads(threads);
    let single = |p| MaintenancePlan {
        partition: Some(p),
        ..base
    };
    let plans: Vec<MaintenancePlan> = match selection {
        Selection::All => vec![base],
        Selection::MinRuns => std::iter::once(MaintenancePlan {
            min_runs: 2,
            ..base
        })
        .chain((0..partitions).filter(|&p| runs(p) < 2).map(single))
        .collect(),
        Selection::Single => (0..partitions).map(single).collect(),
    };
    let mut totals = (0, 0, 0);
    for plan in plans {
        if let Some(report) = e.maintain(plan).unwrap() {
            totals.0 += report.combined_records;
            totals.1 += report.incomplete_records;
            totals.2 += report.purged_records;
        }
    }
    totals
}

/// One mutation of the random lineage (snapshot/clone/zombie state) that the
/// maintenance differential test purges against.
#[derive(Debug, Clone, Copy)]
enum LineageOp {
    Advance,
    Snapshot { line: usize },
    Clone { snap: usize },
    DeleteSnapshot { snap: usize },
}

fn lineage_op_strategy() -> impl Strategy<Value = LineageOp> {
    prop_oneof![
        4 => Just(LineageOp::Advance),
        2 => (0usize..8).prop_map(|line| LineageOp::Snapshot { line }),
        2 => (0usize..8).prop_map(|snap| LineageOp::Clone { snap }),
        1 => (0usize..8).prop_map(|snap| LineageOp::DeleteSnapshot { snap }),
    ]
}

/// Applies the ops, returning the lineage plus every line it ever created.
fn build_lineage(ops: &[LineageOp]) -> (LineageTable, Vec<LineId>) {
    let mut lineage = LineageTable::new();
    let mut lines = vec![LineId::ROOT];
    let mut snapshots: Vec<SnapshotId> = Vec::new();
    for op in ops {
        match *op {
            LineageOp::Advance => {
                lineage.advance_cp();
            }
            LineageOp::Snapshot { line } => {
                snapshots.push(lineage.take_snapshot(lines[line % lines.len()]));
            }
            LineageOp::Clone { snap } => {
                if !snapshots.is_empty() {
                    lines.push(lineage.create_clone(snapshots[snap % snapshots.len()]));
                }
            }
            LineageOp::DeleteSnapshot { snap } => {
                if !snapshots.is_empty() {
                    lineage.delete_snapshot(snapshots[snap % snapshots.len()]);
                }
            }
        }
    }
    (lineage, lines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's live owners always equal the model's, no matter how the
    /// operations are interleaved with CPs and maintenance.
    #[test]
    fn live_owners_match_reference_model(steps in proptest::collection::vec(step_strategy(), 1..120)) {
        let engine = BacklogEngine::new_simulated(BacklogConfig::default().without_timing());
        let mut model: BTreeSet<(u64, u64, u64)> = BTreeSet::new(); // (block, inode, offset)
        for step in &steps {
            match *step {
                Step::Add { block, inode, offset } => {
                    // The file system only adds a reference it does not
                    // already hold (a block map slot holds one block).
                    if model.insert((block, inode, offset)) {
                        engine.add_reference(block, Owner::block(inode, offset, LineId::ROOT));
                    }
                }
                Step::Remove { block, inode, offset } => {
                    if model.remove(&(block, inode, offset)) {
                        engine.remove_reference(block, Owner::block(inode, offset, LineId::ROOT));
                    }
                }
                Step::ConsistencyPoint => {
                    let report = engine.consistency_point().unwrap();
                    prop_assert_eq!(report.pages_read, 0, "CP flush must never read");
                }
                Step::Maintenance => {
                    engine.maintenance().unwrap();
                }
            }
        }
        engine.consistency_point().unwrap();
        // Compare the engine's live owners with the model, block by block.
        for block in 0..40u64 {
            let expected: Vec<Owner> = model
                .iter()
                .filter(|(b, _, _)| *b == block)
                .map(|&(_, inode, offset)| Owner::block(inode, offset, LineId::ROOT))
                .collect();
            let got = engine.live_owners(block).unwrap();
            prop_assert_eq!(got, expected, "block {} owners diverged", block);
        }
    }

    /// Joining From/To records reconstructs exactly the intervals they were
    /// generated from (the conceptual table of Section 4.1).
    #[test]
    fn join_reconstructs_intervals(
        interval_count in 1usize..6,
        gaps in proptest::collection::vec((1u64..20, 1u64..20), 6),
        still_live in any::<bool>(),
    ) {
        let identity = RefIdentity::new(7, Owner::block(3, 1, LineId::ROOT));
        // Build non-overlapping intervals [from, to) with gaps between them.
        let mut froms = Vec::new();
        let mut tos = Vec::new();
        let mut expected = Vec::new();
        let mut clock = 1u64;
        for (i, (gap, len)) in gaps.iter().take(interval_count).enumerate() {
            let from = clock + gap;
            let to = from + len;
            clock = to;
            froms.push(FromRecord::new(identity, from));
            let last = i == interval_count - 1;
            if last && still_live {
                expected.push(CombinedRecord::new(identity, from, CP_INFINITY));
            } else {
                tos.push(ToRecord::new(identity, to));
                expected.push(CombinedRecord::new(identity, from, to));
            }
        }
        expected.sort();
        let joined = join_from_to(&froms, &tos);
        prop_assert_eq!(joined, expected);
    }

    /// The streaming maintenance join/purge agrees with the retained
    /// materialized oracle on arbitrary `From`/`To`/`Combined` table states
    /// and arbitrary lineage (snapshots, clones, zombies).
    #[test]
    fn streaming_join_and_purge_matches_reference_oracle(
        ops in proptest::collection::vec(lineage_op_strategy(), 0..32),
        recs in proptest::collection::vec(
            (0u64..12, 1u64..4, 0u64..4, 0u32..3, 1u64..40, 0u64..12, 0usize..8),
            0..150,
        ),
    ) {
        let (lineage, lines) = build_lineage(&ops);
        let mut froms = Vec::new();
        let mut tos = Vec::new();
        let mut combined = Vec::new();
        for (block, inode, offset, kind, cp, span, line) in recs {
            let line = lines[line % lines.len()];
            let id = RefIdentity::new(block, Owner::block(inode, offset, line));
            match kind {
                0 => froms.push(FromRecord::new(id, cp)),
                1 => tos.push(ToRecord::new(id, cp)),
                _ => {
                    let to = if span == 0 { CP_INFINITY } else { cp + span };
                    combined.push(CombinedRecord::new(id, cp, to));
                }
            }
        }
        let streaming = maintenance::join_and_purge(&froms, &tos, &combined, &lineage);
        let oracle = maintenance::reference::join_and_purge(&froms, &tos, &combined, &lineage);
        prop_assert_eq!(streaming, oracle);
    }

    /// Full-engine oracle check: before every maintenance pass, the
    /// materialized reference join/purge runs over the disk state the pass
    /// will read; afterwards `From`, `To` and `Combined` hold exactly its
    /// incomplete records, nothing, and its complete records, and the
    /// report's counts are the oracle's.
    #[test]
    fn engine_maintenance_matches_reference_pass(
        steps in proptest::collection::vec(step_strategy(), 1..80),
        partitions in 1u32..5,
    ) {
        let engine = BacklogEngine::new_simulated(
            BacklogConfig::partitioned(partitions, 40).without_timing(),
        );
        let maintain_against_oracle = || {
            let oracle = maintenance::reference::join_and_purge(
                &engine.from_table().scan_disk().unwrap(),
                &engine.to_table().scan_disk().unwrap(),
                &engine.combined_table().scan_disk().unwrap(),
                &engine.lineage_snapshot(),
            );
            let report = engine.maintenance().unwrap();
            prop_assert_eq!(engine.from_table().scan_disk().unwrap(), oracle.incomplete_from);
            prop_assert_eq!(engine.to_table().scan_disk().unwrap(), Vec::new());
            prop_assert_eq!(engine.combined_table().scan_disk().unwrap(), oracle.combined);
            prop_assert_eq!(
                (report.combined_records, report.incomplete_records, report.purged_records),
                (oracle.combined.len() as u64, oracle.incomplete_from.len() as u64, oracle.purged)
            );
        };
        let mut owned: BTreeSet<(u64, u64, u64)> = BTreeSet::new();
        for step in &steps {
            match *step {
                Step::Add { block, inode, offset } => {
                    if owned.insert((block, inode, offset)) {
                        engine.add_reference(block, Owner::block(inode, offset, LineId::ROOT));
                    }
                }
                Step::Remove { block, inode, offset } => {
                    if owned.remove(&(block, inode, offset)) {
                        engine.remove_reference(block, Owner::block(inode, offset, LineId::ROOT));
                    }
                }
                Step::ConsistencyPoint => {
                    engine.consistency_point().unwrap();
                }
                Step::Maintenance => maintain_against_oracle(),
            }
        }
        engine.consistency_point().unwrap();
        maintain_against_oracle();
    }

    /// Maintenance-plan differential: however a plan fans the per-partition
    /// rebuilds across worker threads and however the plans carve up the
    /// partitions, once every partition has been covered the engine holds
    /// exactly the same tables, stats and report totals as after the serial
    /// full pass, for any workload and partition count.
    #[test]
    fn engine_maintenance_parallel_matches_serial(
        steps in proptest::collection::vec(step_strategy(), 1..80),
        partitions in 1u32..6,
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
        selection in prop_oneof![
            Just(Selection::All),
            Just(Selection::MinRuns),
            Just(Selection::Single),
        ],
    ) {
        let config = BacklogConfig::partitioned(partitions, 40).without_timing();
        let serial = BacklogEngine::new_simulated(config.clone());
        let parallel = BacklogEngine::new_simulated(config);
        let mut owned: BTreeSet<(u64, u64, u64)> = BTreeSet::new();
        for step in &steps {
            match *step {
                Step::Add { block, inode, offset } => {
                    if owned.insert((block, inode, offset)) {
                        let owner = Owner::block(inode, offset, LineId::ROOT);
                        serial.add_reference(block, owner);
                        parallel.add_reference(block, owner);
                    }
                }
                Step::Remove { block, inode, offset } => {
                    if owned.remove(&(block, inode, offset)) {
                        let owner = Owner::block(inode, offset, LineId::ROOT);
                        serial.remove_reference(block, owner);
                        parallel.remove_reference(block, owner);
                    }
                }
                Step::ConsistencyPoint => {
                    serial.consistency_point().unwrap();
                    parallel.consistency_point().unwrap();
                }
                Step::Maintenance => {
                    serial.maintenance().unwrap();
                    maintain_covering(&parallel, selection, threads);
                }
            }
        }
        serial.consistency_point().unwrap();
        parallel.consistency_point().unwrap();
        let a = serial.maintenance().unwrap();
        let b = maintain_covering(&parallel, selection, threads);
        prop_assert_eq!(
            (a.combined_records, a.incomplete_records, a.purged_records),
            b
        );
        prop_assert_eq!(
            serial.from_table().scan_disk().unwrap(),
            parallel.from_table().scan_disk().unwrap()
        );
        prop_assert_eq!(
            serial.to_table().scan_disk().unwrap(),
            parallel.to_table().scan_disk().unwrap()
        );
        prop_assert_eq!(
            serial.combined_table().scan_disk().unwrap(),
            parallel.combined_table().scan_disk().unwrap()
        );
        let (sf, st, sc) = serial.table_stats();
        let (pf, pt, pc) = parallel.table_stats();
        prop_assert_eq!(sf, pf);
        prop_assert_eq!(st, pt);
        prop_assert_eq!(sc, pc);
        // Both engines answer every query identically afterwards.
        for block in 0..40u64 {
            prop_assert_eq!(
                serial.query_block(block).unwrap().refs,
                parallel.query_block(block).unwrap().refs,
                "block {} diverged", block
            );
        }
    }

    /// Record encodings round-trip and preserve ordering.
    #[test]
    fn record_encoding_roundtrips(
        block in any::<u64>(),
        inode in any::<u64>(),
        offset in any::<u64>(),
        line in any::<u32>(),
        length in any::<u32>(),
        from in any::<u64>(),
        to in any::<u64>(),
    ) {
        use lsm::Record as _;
        let identity = RefIdentity::new(block, Owner::extent(inode, offset, LineId(line), length));
        let f = FromRecord::new(identity, from);
        let t = ToRecord::new(identity, to);
        let c = CombinedRecord::new(identity, from, to);
        prop_assert_eq!(FromRecord::decode(&f.encode_to_vec()), f);
        prop_assert_eq!(ToRecord::decode(&t.encode_to_vec()), t);
        prop_assert_eq!(CombinedRecord::decode(&c.encode_to_vec()), c);
        prop_assert_eq!(f.partition_key(), block);
    }
}
