//! Crash-recovery integration tests: durable engines are killed at every
//! possible device write, reopened from raw device contents, and pinned
//! against never-crashed reference engines.
//!
//! The recovery contract under test (paper §5.4 + the superblock design):
//!
//! * a clean reopen after a consistency point reproduces the engine exactly
//!   (tables, counters, lineage, queries);
//! * a crash at *any* write of a CP — run pages, manifest-log frame pages,
//!   the superblock itself — reopens to the previous durable CP, wherever
//!   in its log that CP sits (base, mid-chain delta, rollover);
//! * a failed CP is followed by a base frame in a new log, and then by
//!   deltas again;
//! * with journaling enabled, the on-device journal ring recovers every
//!   group-committed post-CP operation from raw device contents alone — no
//!   host NVRAM handoff — including crashes at any write of a group commit
//!   and power cuts that tear or discard the unflushed cache.

use std::collections::BTreeSet;
use std::sync::Arc;

use backlog::{
    BacklogConfig, BacklogEngine, BacklogError, ExpectedRef, LineId, ManifestKind, Owner,
};
use blockdev::{
    Device, DeviceConfig, FaultProfile, PowerCutProfile, SimDisk, Superblock, SUPERBLOCK_PAGES,
};

fn disk() -> Arc<SimDisk> {
    SimDisk::new_shared(DeviceConfig::free_latency())
}

fn config() -> BacklogConfig {
    BacklogConfig::partitioned(4, 4_000).without_timing()
}

fn owner(inode: u64, offset: u64) -> Owner {
    Owner::block(inode, offset, LineId::ROOT)
}

/// Compares every externally observable aspect of two engines: disk tables,
/// full query results, live owners, counters, lineage behavior and the CP
/// clock.
fn assert_engines_equivalent(a: &BacklogEngine, b: &BacklogEngine, blocks: u64, context: &str) {
    assert_eq!(a.current_cp(), b.current_cp(), "{context}: CP clock");
    assert_eq!(
        a.from_table().scan_disk().unwrap(),
        b.from_table().scan_disk().unwrap(),
        "{context}: From table"
    );
    assert_eq!(
        a.to_table().scan_disk().unwrap(),
        b.to_table().scan_disk().unwrap(),
        "{context}: To table"
    );
    assert_eq!(
        a.combined_table().scan_disk().unwrap(),
        b.combined_table().scan_disk().unwrap(),
        "{context}: Combined table"
    );
    assert_eq!(
        a.dump_all().unwrap().refs,
        b.dump_all().unwrap().refs,
        "{context}: full query dump"
    );
    for block in 0..blocks {
        assert_eq!(
            a.live_owners(block).unwrap(),
            b.live_owners(block).unwrap(),
            "{context}: block {block} owners"
        );
    }
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(sa.refs_added, sb.refs_added, "{context}: refs_added");
    assert_eq!(sa.refs_removed, sb.refs_removed, "{context}: refs_removed");
    assert_eq!(sa.pruned_adds, sb.pruned_adds, "{context}: pruned_adds");
    assert_eq!(
        sa.consistency_points, sb.consistency_points,
        "{context}: consistency_points"
    );
    let la = a.lineage_snapshot();
    let lb = b.lineage_snapshot();
    assert_eq!(la.zombies(), lb.zombies(), "{context}: zombies");
    assert_eq!(la.line_count(), lb.line_count(), "{context}: line count");
}

/// A deterministic workload with removals, pruning pairs, snapshots, clones
/// and a zombie, spread over several CPs and a maintenance pass.
fn rich_workload(engine: &BacklogEngine) {
    for block in 0..600u64 {
        engine.add_reference(block, owner(1 + block % 7, block));
    }
    engine.consistency_point().unwrap();
    let snap = engine.take_snapshot(LineId::ROOT);
    let clone = engine.create_clone(snap);
    for block in 0..200u64 {
        engine.remove_reference(block, owner(1 + block % 7, block));
    }
    // A same-interval add/remove pair: proactively pruned, never durable.
    engine.add_reference(3_999, owner(9, 9));
    engine.remove_reference(3_999, owner(9, 9));
    engine.consistency_point().unwrap();
    // Clone writes its own reference, then the cloned snapshot dies: zombie.
    engine.add_reference(700, Owner::block(3, 0, clone));
    engine.delete_snapshot(snap);
    engine.consistency_point().unwrap();
    engine.maintenance().unwrap();
    for block in 1_000..1_400u64 {
        engine.add_reference(block, owner(2, block));
    }
    engine.consistency_point().unwrap();
}

/// The operations of the interval the fault walk destroys: removals and
/// fresh adds spanning two partitions, so the final CP writes several run
/// pages before the manifest and superblock.
fn final_interval_ops(engine: &BacklogEngine) {
    for block in 500..600u64 {
        engine.remove_reference(block, owner(1 + block % 7, block));
    }
    for block in 1_000..1_100u64 {
        engine.remove_reference(block, owner(2, block));
    }
    for block in 2_000..2_050u64 {
        engine.add_reference(block, owner(6, block));
    }
}

#[test]
fn open_roundtrips_a_rich_workload() {
    let device = disk();
    let reference = BacklogEngine::new_simulated(config());
    let durable = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    assert!(durable.is_durable());
    assert!(!reference.is_durable());
    rich_workload(&reference);
    rich_workload(&durable);

    let generation = durable.superblock_generation();
    assert!(generation >= 5, "initial manifest + one per CP");
    drop(durable);

    let reopened = BacklogEngine::open(device.clone(), config()).unwrap();
    assert_eq!(reopened.superblock_generation(), generation);
    assert_engines_equivalent(&reopened, &reference, 1_500, "after clean reopen");

    // The reopened engine is fully functional: more callbacks, CPs,
    // maintenance, relocation — and a second reopen still matches.
    for e in [&reopened, &reference] {
        for block in 2_000..2_200u64 {
            e.add_reference(block, owner(4, block));
        }
        e.consistency_point().unwrap();
        e.relocate_block(2_000, 2_500).unwrap();
        e.maintenance().unwrap();
        e.consistency_point().unwrap();
    }
    assert_engines_equivalent(&reopened, &reference, 2_600, "after post-reopen work");
    drop(reopened);
    let again = BacklogEngine::open(device, config()).unwrap();
    assert_engines_equivalent(&again, &reference, 2_600, "after second reopen");
}

#[test]
fn verify_passes_after_reopen() {
    let device = disk();
    let durable = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    let mut expected = Vec::new();
    for block in 0..300u64 {
        let o = owner(1 + block % 5, block);
        durable.add_reference(block, o);
        expected.push(ExpectedRef::new(block, o));
    }
    durable.consistency_point().unwrap();
    drop(durable);
    let reopened = BacklogEngine::open(device, config()).unwrap();
    let report = backlog::verify(&reopened, &expected, &[3_000]).unwrap();
    assert!(
        report.is_consistent(),
        "missing={:?} spurious={:?}",
        report.missing,
        report.spurious
    );
}

#[test]
fn open_requires_a_superblock_and_matching_config() {
    // Empty device: nothing to open.
    let err = BacklogEngine::open(disk(), config()).unwrap_err();
    assert!(matches!(err, BacklogError::Recovery { .. }), "{err}");

    // Valid device, wrong partitioning.
    let device = disk();
    BacklogEngine::create_durable(device.clone(), config()).unwrap();
    let err = BacklogEngine::open(
        device,
        BacklogConfig::partitioned(8, 4_000).without_timing(),
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("partitions"),
        "mismatch must name the partitioning: {err}"
    );
}

#[test]
fn corrupt_newest_superblock_falls_back_to_previous_generation() {
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    for block in 0..100u64 {
        engine.add_reference(block, owner(1, block));
    }
    engine.consistency_point().unwrap(); // generation 2
    let gen2_slot = SUPERBLOCK_PAGES[0]; // generation 2 lives at page 0
    drop(engine);
    // Scribble over the newest superblock copy, as a torn flip would.
    let mut page = device.read_page(gen2_slot).unwrap();
    assert_eq!(Superblock::decode(&page).unwrap().generation, 2);
    page[77] ^= 0xff;
    device.write_page(gen2_slot, &page).unwrap();
    // Recovery falls back to generation 1: the empty database.
    let reopened = BacklogEngine::open(device, config()).unwrap();
    assert_eq!(reopened.superblock_generation(), 1);
    assert!(reopened.dump_all().unwrap().refs.is_empty());
}

/// The core acceptance walk: a durable CP is attempted with the device
/// failing at write `k`, for every `k` from 0 to "the CP succeeded". After
/// each crash the device must reopen to the *previous* durable CP, and with
/// journaling enabled, replaying the group-committed on-device journal ring
/// must reconstruct the lost interval exactly — from raw device contents,
/// with no help from the host.
#[test]
fn fault_walk_every_write_of_a_cp_recovers_to_previous_cp_plus_journal() {
    let journaled = config().with_journaling();
    // One full run without faults tells us how many writes the final CP
    // performs (runs for three tables + manifest frame pages + superblock).
    let probe = disk();
    let engine = BacklogEngine::create_durable(probe.clone(), journaled.clone()).unwrap();
    rich_workload(&engine);
    final_interval_ops(&engine);
    engine.journal_sync().unwrap();
    let writes_before = probe.stats().snapshot().page_writes;
    engine.consistency_point().unwrap();
    let cp_writes = probe.stats().snapshot().page_writes - writes_before;
    assert!(
        cp_writes >= 4,
        "the walk must cover run, frame and superblock writes, got {cp_writes}"
    );
    drop(engine);

    // The reference outcome for a crash mid-final-CP: the workload WITHOUT
    // the final CP (the interval's operations live in the write store).
    let reference = BacklogEngine::new_simulated(journaled.clone());
    rich_workload(&reference);
    final_interval_ops(&reference);

    for fail_after in 0..cp_writes {
        let device = disk();
        let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
        rich_workload(&engine);
        final_interval_ops(&engine);
        // The journal fence: group-commit the interval's entries into the
        // on-device ring before the doomed CP, as a host acknowledging the
        // operations as stable would.
        engine.journal_sync().unwrap();
        let generation_before = engine.superblock_generation();
        device.fail_writes_after(fail_after);
        let result = engine.consistency_point();
        assert!(
            result.is_err(),
            "CP at fault point {fail_after} must report the device error"
        );
        // Crash: drop the engine and heal the device. Recovery gets nothing
        // from the host — the ring in the reopened device is everything.
        drop(engine);
        device.clear_write_fault();

        let reopened = BacklogEngine::open(device.clone(), journaled.clone()).unwrap();
        assert_eq!(
            reopened.superblock_generation(),
            generation_before,
            "fault at write {fail_after}: must reopen to the previous durable CP"
        );
        // The ring scan recovered the lost interval; replay reconstructs it
        // and the recovered engine answers every query exactly like the
        // engine that never crashed.
        let rec = reopened.replay_recovered_journal().unwrap();
        assert_eq!(
            (rec.recovered, rec.applied),
            (250, 250),
            "fault at write {fail_after}: the ring holds exactly the lost interval"
        );
        assert_engines_equivalent(
            &reopened,
            &reference,
            1_500,
            &format!("fault at write {fail_after}"),
        );
        // And the recovered engine completes the interrupted CP cleanly.
        reopened.consistency_point().unwrap();
        assert_eq!(reopened.superblock_generation(), generation_before + 1);
    }

    // Past the last failure point the CP succeeds and the walk is complete.
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
    rich_workload(&engine);
    final_interval_ops(&engine);
    engine.journal_sync().unwrap();
    device.fail_writes_after(cp_writes);
    engine.consistency_point().unwrap();
    device.clear_write_fault();
    drop(engine);
    let reopened = BacklogEngine::open(device, journaled.clone()).unwrap();
    let reference_done = BacklogEngine::new_simulated(journaled);
    rich_workload(&reference_done);
    final_interval_ops(&reference_done);
    reference_done.consistency_point().unwrap();
    assert_engines_equivalent(&reopened, &reference_done, 1_500, "after the completed CP");
}

#[test]
fn crash_before_first_cp_recovers_to_empty_database() {
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    for block in 0..50u64 {
        engine.add_reference(block, owner(1, block));
    }
    // No CP taken: the adds were volatile.
    drop(engine);
    let reopened = BacklogEngine::open(device, config()).unwrap();
    assert!(reopened.dump_all().unwrap().refs.is_empty());
    assert_eq!(reopened.current_cp(), 1);
}

#[test]
fn maintenance_between_cps_never_invalidates_the_durable_cp() {
    // Maintenance rewrites runs and deletes the old ones *between* CPs. The
    // durable manifest still references the old runs — deferred frees must
    // keep their pages intact, so a crash before the next CP reopens to the
    // pre-maintenance (but logically identical) state.
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    for block in 0..500u64 {
        engine.add_reference(block, owner(1 + block % 3, block));
    }
    engine.consistency_point().unwrap();
    for block in 0..250u64 {
        engine.remove_reference(block, owner(1 + block % 3, block));
    }
    engine.consistency_point().unwrap();
    let reference_dump = engine.dump_all().unwrap().refs;
    let report = engine.maintenance().unwrap();
    assert!(report.runs_merged > 0);
    // More churn after maintenance — also lost in the crash.
    for block in 600..700u64 {
        engine.add_reference(block, owner(5, block));
    }
    drop(engine); // crash: maintenance results were never made durable
    let reopened = BacklogEngine::open(device.clone(), config()).unwrap();
    assert_eq!(
        reopened.dump_all().unwrap().refs,
        reference_dump,
        "reopen sees the last durable CP, not the un-checkpointed rebuild"
    );
    // A CP after maintenance *does* make the rebuild durable. (The dump is
    // re-captured here: live references report the *current* CP among their
    // live versions, so dumps are only comparable at equal CP clocks.)
    reopened.maintenance().unwrap();
    reopened.consistency_point().unwrap();
    let compacted_runs = reopened.run_count();
    let compacted_dump = reopened.dump_all().unwrap().refs;
    drop(reopened);
    let again = BacklogEngine::open(device, config()).unwrap();
    assert_eq!(again.run_count(), compacted_runs);
    assert_eq!(again.dump_all().unwrap().refs, compacted_dump);
}

#[test]
fn journal_replay_is_idempotent_when_crash_hits_after_the_flip() {
    // The ring's truncation tail and the journal frontier ride the same
    // superblock flip as the runs. A crash right after the flip of a
    // quiescent CP therefore finds the ring empty: every entry is at or
    // below the frontier, none is left to recover, none can be re-applied.
    let device = disk();
    let journaled = config().with_journaling();
    let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
    for block in 0..100u64 {
        engine.add_reference(block, owner(1, block));
    }
    engine.journal_sync().unwrap();
    engine.consistency_point().unwrap();
    let ring = engine.journal_ring_stats().unwrap();
    assert_eq!((ring.live_groups, ring.live_pages), (0, 0));
    assert_eq!((ring.pending_entries, ring.frontier_lsn), (0, 100));
    let want = engine.dump_all().unwrap().refs;
    drop(engine); // crash immediately after the flip
    let reopened = BacklogEngine::open(device.clone(), journaled.clone()).unwrap();
    let rec = reopened.replay_recovered_journal().unwrap();
    assert_eq!(
        (rec.recovered, rec.applied),
        (0, 0),
        "the CP covered it all"
    );
    assert_eq!(rec.last_lsn, 100, "the frontier, not an empty ring's zero");
    assert_eq!(reopened.dump_all().unwrap().refs, want);
    // The stash is consumed: a second replay call finds nothing.
    let again = reopened.replay_recovered_journal().unwrap();
    assert_eq!((again.recovered, again.applied), (0, 0));

    // The variant where callbacks follow the CP: exactly those come back,
    // under the LSNs they were acknowledged with.
    for block in 100..140u64 {
        reopened.add_reference(block, owner(2, block));
    }
    assert_eq!(reopened.journal_sync().unwrap(), 140);
    let want = reopened.dump_all().unwrap().refs;
    drop(reopened);
    let reopened = BacklogEngine::open(device, journaled).unwrap();
    let rec = reopened.replay_recovered_journal().unwrap();
    assert_eq!((rec.recovered, rec.applied, rec.last_lsn), (40, 40, 140));
    assert_eq!(reopened.dump_all().unwrap().refs, want);
}

/// Satellite (bug at the parent): replay went through the public callbacks,
/// so every applied entry was journaled *again* under a new LSN — a crash
/// loop doubled the tail each round until the ring filled. Replay now leaves
/// the ring alone: any number of crash/reopen rounds with no CP between
/// recover, apply and leave behind exactly the same thing.
#[test]
fn repeated_crash_before_any_cp_replays_exactly_once() {
    let device = disk();
    let journaled = config().with_journaling();
    let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
    for block in 0..100u64 {
        engine.add_reference(block, owner(1, block));
    }
    engine.consistency_point().unwrap();
    for block in 100..140u64 {
        engine.add_reference(block, owner(2, block));
    }
    assert_eq!(engine.journal_sync().unwrap(), 140);
    let want_dump = engine.dump_all().unwrap().refs;
    let want_stats = engine.stats();
    drop(engine);

    let mut rounds = Vec::new();
    for _ in 0..3 {
        let reopened = BacklogEngine::open(device.clone(), journaled.clone()).unwrap();
        let rec = reopened.replay_recovered_journal().unwrap();
        rounds.push((
            rec,
            reopened.stats(),
            reopened.dump_all().unwrap().refs,
            reopened.journal_ring_stats().unwrap(),
        ));
        // Crash again: no CP, nothing synced — nothing was appended.
    }
    let (rec, stats, dump, ring) = &rounds[0];
    assert_eq!((rec.recovered, rec.applied, rec.last_lsn), (40, 40, 140));
    assert_eq!(dump, &want_dump);
    assert_eq!(
        (stats.refs_added, stats.refs_removed, stats.block_ops),
        (
            want_stats.refs_added,
            want_stats.refs_removed,
            want_stats.block_ops
        ),
        "140 callbacks happened, 140 are counted"
    );
    assert_eq!((ring.live_groups, ring.appended_lsn), (1, 140));
    assert_eq!(ring.pending_entries, 0, "replay journals nothing");
    // `queries` counts the dumps this test itself issues; everything else
    // must repeat exactly.
    for (round, later) in rounds.iter().enumerate().skip(1) {
        assert_eq!(later, &rounds[0], "round {round} differs from round 0");
    }
}

/// Satellite (bug at the parent): a ring scan that found no group restarted
/// the LSN space at 1. With exact truncation an empty ring is the common
/// case, so the recovered ring resumes above the manifest's frontier:
/// `journal_sync` never returns less than an LSN acknowledged before the
/// crash — with the ring empty, partly truncated, or wrapped.
#[test]
fn acknowledged_lsns_never_regress_across_reopen() {
    let journaled = config()
        .with_journaling()
        .with_journal_group_size(0)
        .with_journal_ring_pages(4);
    let device = disk();
    let mut engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
    // One ring page of callbacks, acknowledged by a group commit; returns
    // the acknowledged LSN, which counts callbacks since creation.
    let mut next_block = 0u64;
    let mut ack_30 = |engine: &BacklogEngine| {
        for _ in 0..30 {
            engine.add_reference(next_block, owner(1, next_block));
            next_block += 1;
        }
        let acked = engine.journal_sync().unwrap();
        assert_eq!(acked, next_block, "LSNs count callbacks since creation");
        acked
    };
    let crash_and_reopen = |engine: BacklogEngine, recovered: usize, what: &str| {
        drop(engine);
        device.power_cut(&PowerCutProfile::lose_all(recovered as u64));
        let engine = BacklogEngine::open(device.clone(), journaled.clone()).unwrap();
        let rec = engine.replay_recovered_journal().unwrap();
        assert_eq!(
            (rec.recovered, rec.applied),
            (recovered, recovered),
            "{what}"
        );
        engine
    };

    // Empty ring: two quiescent CPs, nothing left to scan.
    ack_30(&engine);
    engine.consistency_point().unwrap();
    let acked = ack_30(&engine);
    engine.consistency_point().unwrap();
    assert_eq!(engine.journal_ring_stats().unwrap().live_groups, 0);
    engine = crash_and_reopen(engine, 0, "empty ring");
    let ring = engine.journal_ring_stats().unwrap();
    assert_eq!((ring.durable_lsn, ring.appended_lsn), (acked, acked));
    assert_eq!(engine.journal_sync().unwrap(), acked, "empty ring");

    // Partly truncated ring: a tail that is neither the start nor the head.
    let acked = ack_30(&engine);
    engine = crash_and_reopen(engine, 30, "partly truncated ring");
    assert_eq!(
        engine.journal_sync().unwrap(),
        acked,
        "partly truncated ring"
    );

    // Wrapped ring: CPs walk the (empty) ring's head to its last page, and
    // the next two groups straddle the ring end.
    engine.consistency_point().unwrap();
    ack_30(&engine);
    ack_30(&engine);
    engine.consistency_point().unwrap();
    assert_eq!(engine.journal_ring_stats().unwrap().head, 3);
    ack_30(&engine);
    let acked = ack_30(&engine);
    let ring = engine.journal_ring_stats().unwrap();
    assert_eq!((ring.live_groups, ring.head), (2, 1), "wrapped");
    engine = crash_and_reopen(engine, 60, "wrapped ring");
    assert_eq!(engine.journal_sync().unwrap(), acked, "wrapped ring");
    // New callbacks carry on above everything ever acknowledged.
    assert_eq!(ack_30(&engine), 240);
}

/// A host that reopens and goes straight to a consistency point — without
/// calling `replay_recovered_journal` — must not lose the recovered tail:
/// that CP's cut would truncate entries its flush does not contain. The CP
/// replays first.
#[test]
fn a_cp_before_replay_replays_first() {
    let device = disk();
    let journaled = config().with_journaling();
    let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
    let reference = BacklogEngine::new_simulated(journaled.clone());
    for e in [&engine, &reference] {
        for block in 0..50u64 {
            e.add_reference(block, owner(1, block));
        }
    }
    engine.journal_sync().unwrap();
    drop(engine);
    let reopened = BacklogEngine::open(device.clone(), journaled.clone()).unwrap();
    reopened.consistency_point().unwrap();
    reference.consistency_point().unwrap();
    assert_eq!(
        reopened.replay_recovered_journal().unwrap(),
        backlog::JournalRecovery::default(),
        "the CP consumed the stash"
    );
    drop(reopened);
    let again = BacklogEngine::open(device, journaled).unwrap();
    assert_eq!(again.replay_recovered_journal().unwrap().recovered, 0);
    assert_engines_equivalent(&again, &reference, 60, "after CP-before-replay");
}

/// Satellite: reads can fail mid-`open` too (latent sector errors, a dying
/// controller). Walk the read-fault counter across the entire recovery path:
/// every failure point must surface as `BacklogError::Recovery` — never a
/// panic — and must leave the durable CP intact, so a retry on a healed
/// device recovers everything.
#[test]
fn open_survives_a_read_fault_at_every_point() {
    let device = disk();
    let reference = BacklogEngine::new_simulated(config());
    let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    rich_workload(&reference);
    rich_workload(&engine);
    drop(engine);

    let mut failure_points = 0u64;
    loop {
        device.fail_reads_after(failure_points);
        match BacklogEngine::open(device.clone(), config()) {
            Ok(reopened) => {
                device.clear_read_fault();
                assert!(
                    failure_points > 0,
                    "open must issue at least one device read"
                );
                assert_engines_equivalent(
                    &reopened,
                    &reference,
                    1_500,
                    "after surviving the read-fault walk",
                );
                break;
            }
            Err(err) => {
                assert!(
                    matches!(err, BacklogError::Recovery { .. }),
                    "read fault at read {failure_points} must surface as Recovery, got: {err}"
                );
                device.clear_read_fault();
            }
        }
        failure_points += 1;
        assert!(failure_points < 100_000, "open cannot need this many reads");
    }
}

/// `open` reads no run page: a reopened run reads its fence section on the
/// first query that touches it. A read fault there fails that query only —
/// nothing half-loaded is kept — and the next query answers correctly.
#[test]
fn read_fault_in_the_first_query_after_open_fails_that_query_only() {
    let device = disk();
    let reference = BacklogEngine::new_simulated(config());
    let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    for e in [&reference, &engine] {
        // ~1000 records per partition: every run has several leaves, so
        // each has a fence section to load.
        for block in 0..4_000u64 {
            e.add_reference(block, owner(1 + block % 5, block));
        }
        e.consistency_point().unwrap();
    }
    drop(engine);

    let reopened = BacklogEngine::open(device.clone(), config()).unwrap();
    let (from, _, _) = reopened.table_stats();
    assert_eq!(from.index_bytes, 0, "open loaded no fence section");
    let reads_before = device.stats().snapshot().page_reads;
    device.fail_reads_after(0);
    for block in [10u64, 1_500, 3_999] {
        assert!(
            reopened.live_owners(block).is_err(),
            "block {block}: the faulted fence load is the query's error"
        );
    }
    device.clear_read_fault();
    assert_eq!(reopened.table_stats().0.index_bytes, 0);
    for block in [10u64, 1_500, 3_999, 2_047, 2_048] {
        assert_eq!(
            reopened.live_owners(block).unwrap(),
            reference.live_owners(block).unwrap(),
            "block {block} after the fault cleared"
        );
    }
    assert!(device.stats().snapshot().page_reads > reads_before);
    assert_engines_equivalent(
        &reopened,
        &reference,
        4_000,
        "after the faulted first query",
    );
    let (from, _, _) = reopened.table_stats();
    assert!(from.index_bytes > 0, "fences are resident once loaded");
}

/// Satellite: the superblock flip torn by a power cut. A prefix of the new
/// generation persists over the old slot content; the FNV checksum rejects
/// the hybrid page and recovery falls back to the previous generation's
/// database, which the flip protocol left fully intact.
#[test]
fn torn_superblock_flip_recovers_previous_generation() {
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    for block in 0..100u64 {
        engine.add_reference(block, owner(1, block));
    }
    engine.consistency_point().unwrap();
    let generation = engine.superblock_generation();
    let want = engine.dump_all().unwrap().refs;
    drop(engine);

    // Forge the flip the next CP would have performed — a plausible
    // generation+1 superblock pointing at pages that were never written —
    // and persist only its first 48 bytes onto the flip slot, the way a
    // power cut mid-sector-stream would.
    let forged = Superblock {
        generation: generation + 1,
        manifest_file: 9_999,
        manifest_len_bytes: 4_096,
        next_file: 10_000,
        next_page: 50_000,
        manifest_extents: vec![(49_000, 1)],
        journal_file: 0,
        journal_start: 0,
        journal_pages: 0,
        journal_tail_page: 0,
        journal_tail_seq: 0,
    };
    let slot = SUPERBLOCK_PAGES[((generation + 1) % 2) as usize];
    device
        .tear_page(slot, &forged.encode().unwrap(), 48)
        .unwrap();

    let reopened = BacklogEngine::open(device, config()).unwrap();
    assert_eq!(reopened.superblock_generation(), generation);
    assert_eq!(reopened.dump_all().unwrap().refs, want);
}

/// Satellite: journal-tail loss under the volatile-cache model. The crash
/// schedule the host-NVRAM harness could not express: an older ring group is
/// durable (its sync barrier flushed it) while the *younger* group's write
/// is torn mid-page by the power cut. Recovery must take the durable CP,
/// replay the surviving acked group, reject the torn group by checksum, and
/// re-apply nothing the CP already covers — all from the raw device.
#[test]
fn torn_journal_tail_replays_idempotently_over_durable_cp_pages() {
    // Manual group commit so the test controls exactly which entries share a
    // ring group — and therefore which entries the torn write destroys.
    let journaled = config().with_journaling().with_journal_group_size(0);
    let device = disk();
    device.set_write_cache(true);
    let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
    let reference = BacklogEngine::new_simulated(journaled.clone());

    // Interval A: made durable by a CP (whose barriers flush the cache).
    for block in 0..120u64 {
        engine.add_reference(block, owner(1 + block % 3, block));
        reference.add_reference(block, owner(1 + block % 3, block));
    }
    engine.consistency_point().unwrap();
    reference.consistency_point().unwrap();
    // Interval B: journaled only, then acked by a group commit. A's 120
    // entries were still pending at the CP, which covered and dropped them:
    // the group holds exactly B, under LSNs 121..=150.
    let interval_b: Vec<u64> = (200..230u64).collect();
    for &block in &interval_b {
        engine.add_reference(block, owner(7, block));
    }
    assert_eq!(engine.journal_sync().unwrap(), 150, "B's group is acked");
    // Interval C: a 90-entry (two-page) group whose commit write is torn.
    // Torn writes keep a 1..7-sector prefix, so a multi-page group is
    // guaranteed to lose at least its trailing page.
    for block in 300..390u64 {
        engine.add_reference(block, owner(9, block));
    }
    device.set_fault_profile(Some(FaultProfile {
        write_fault: 1.0,
        torn_write: 1.0,
        ..FaultProfile::quiet(42)
    }));
    assert!(
        engine.journal_sync().is_err(),
        "the torn group commit must not be acked"
    );
    device.set_fault_profile(None);
    drop(engine);

    // Power cut: every cached page vanishes. B's group survives because its
    // sync barrier flushed the cache; C's group is a torn fragment on media.
    device.power_cut(&PowerCutProfile::lose_all(7));

    let recovered = BacklogEngine::open(device.clone(), journaled.clone()).unwrap();
    let rec = recovered.replay_recovered_journal().unwrap();
    assert_eq!(rec.last_lsn, 150, "scan stops at the torn group");
    assert_eq!(
        (rec.recovered, rec.applied),
        (interval_b.len(), interval_b.len()),
        "exactly B is in the ring, exactly B replays"
    );
    for &block in &interval_b {
        reference.add_reference(block, owner(7, block));
    }
    assert_engines_equivalent(&recovered, &reference, 400, "after torn-tail replay");

    // Idempotency pin: after a CP covers the replayed entries, a crash and
    // re-scan finds the torn group still on media at the next sequence —
    // the checksum rejects it again and nothing re-applies.
    recovered.consistency_point().unwrap();
    reference.consistency_point().unwrap();
    drop(recovered);
    let reopened = BacklogEngine::open(device, journaled).unwrap();
    let again = reopened.replay_recovered_journal().unwrap();
    assert_eq!(
        (again.recovered, again.applied),
        (0, 0),
        "covered entries are truncated, the torn group is still no group"
    );
    assert_eq!(again.last_lsn, 150, "the frontier outlives the empty ring");
    assert_engines_equivalent(&reopened, &reference, 400, "after double replay");
}

/// Satellite: a mid-CP crash where the power cut also destroys the crashed
/// CP's own unflushed writes. The previous CP's pages were flushed by its
/// barriers, so losing the newer cached pages must not damage recovery.
#[test]
fn power_cut_discarding_the_crashed_cps_cache_recovers_cleanly() {
    let journaled = config().with_journaling();
    let device = disk();
    device.set_write_cache(true);
    let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
    let reference = BacklogEngine::new_simulated(journaled.clone());
    for e in [&engine, &reference] {
        for block in 0..150u64 {
            e.add_reference(block, owner(1 + block % 4, block));
        }
        e.consistency_point().unwrap();
        // The doomed interval spans all four partitions, so its CP flushes
        // several run pages before it reaches the manifest.
        for i in 0..80u64 {
            e.add_reference((i * 53) % 4_000, owner(5, i));
        }
    }
    // Ack the doomed interval's callbacks with a group commit — its barrier
    // makes the ring group stable even though the runs are not.
    engine.journal_sync().unwrap();
    let generation = engine.superblock_generation();
    // Kill the final CP after two writes, then cut the power: the CP's
    // partial writes were cached and now vanish outright.
    device.fail_writes_after(2);
    assert!(engine.consistency_point().is_err());
    device.clear_write_fault();
    drop(engine);
    let cut = device.power_cut(&PowerCutProfile::lose_all(17));
    assert!(cut.lost > 0, "the dead CP left unflushed pages behind");

    let recovered = BacklogEngine::open(device, journaled).unwrap();
    assert_eq!(recovered.superblock_generation(), generation);
    let rec = recovered.replay_recovered_journal().unwrap();
    assert!(rec.applied > 0, "the doomed interval replays from the ring");
    assert_engines_equivalent(&recovered, &reference, 300, "after lost-cache recovery");
}

/// Tentpole: fault-walk every device write a journal group commit submits.
/// A 100-entry group is acked first; then a 300-entry (multi-page) group
/// commit is killed at write 0, 1, 2, ... and the power cut randomly
/// persists, tears or discards whatever the dead commit left in the cache.
/// Whatever survives, the acked prefix must replay from the raw device.
#[test]
fn fault_walk_every_journal_ring_write_preserves_the_acked_prefix() {
    let journaled = config().with_journaling().with_journal_group_size(0);
    let mut walked = 0u64;
    for fail_after in 0u64.. {
        assert!(
            fail_after < 64,
            "group commit writes more pages than it can"
        );
        let device = disk();
        device.set_write_cache(true);
        let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
        for block in 0..100u64 {
            engine.add_reference(block, owner(1, block));
        }
        assert_eq!(engine.journal_sync().unwrap(), 100, "the prefix is acked");
        for block in 100..400u64 {
            engine.add_reference(block, owner(2, block));
        }
        device.fail_writes_after(fail_after);
        let attempt = engine.journal_sync();
        device.clear_write_fault();
        drop(engine);
        // Random power-cut fates over the dead commit's cached pages.
        device.power_cut(&PowerCutProfile {
            seed: 0x9e37_79b9 ^ fail_after,
            persist: 0.4,
            torn: 0.3,
        });

        let recovered = BacklogEngine::open(device, journaled.clone()).unwrap();
        let rec = recovered.replay_recovered_journal().unwrap();
        assert!(
            rec.last_lsn >= 100,
            "fault at write {fail_after}: the acked group must survive"
        );
        for block in 0..100u64 {
            assert!(
                recovered
                    .live_owners(block)
                    .unwrap()
                    .contains(&owner(1, block)),
                "fault at write {fail_after}: acked callback for block {block} lost"
            );
        }
        // The recovered engine stays fully usable.
        recovered.consistency_point().unwrap();
        if attempt.is_ok() {
            assert_eq!(rec.last_lsn, 400, "an acked commit is all-or-nothing");
            break;
        }
        walked += 1;
    }
    assert!(
        walked >= 3,
        "a multi-page group commit must expose several failure points, saw {walked}"
    );
}

/// Tentpole: the ring is a *ring* — a tiny 4-page ring survives many
/// CP cycles (the head wraps repeatedly, each CP frees everything its cut
/// covered), recovers cleanly mid-stream, exerts backpressure when no CP
/// truncates it, and drains at the CP that makes its groups redundant.
#[test]
fn journal_ring_wraps_across_many_cps_and_reopens() {
    let journaled = config()
        .with_journaling()
        .with_journal_group_size(0)
        .with_journal_ring_pages(4);
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
    let reference = BacklogEngine::new_simulated(journaled.clone());

    // Far more journaled bytes than the ring holds: 12 one-page groups
    // through a 4-page ring, each made redundant by the CP that follows it.
    for round in 0..12u64 {
        for i in 0..30u64 {
            let block = round * 30 + i;
            engine.add_reference(block, owner(1 + round, i));
            reference.add_reference(block, owner(1 + round, i));
        }
        engine.journal_sync().unwrap();
        engine.consistency_point().unwrap();
        reference.consistency_point().unwrap();
    }
    drop(engine);
    let engine = BacklogEngine::open(device, journaled).unwrap();
    let rec = engine.replay_recovered_journal().unwrap();
    assert_eq!(
        (rec.recovered, rec.applied, rec.last_lsn),
        (0, 0, 360),
        "every group was covered by a CP and truncated by it"
    );
    assert_engines_equivalent(&engine, &reference, 400, "after wrapped-ring reopen");

    // Backpressure: without CPs, truncation never advances and the ring
    // must refuse further group commits instead of overwriting its tail.
    let mut filled = None;
    for i in 0..20u64 {
        for j in 0..30u64 {
            let block = 400 + i * 30 + j;
            engine.add_reference(block, owner(20 + i, j));
            reference.add_reference(block, owner(20 + i, j));
        }
        match engine.journal_sync() {
            Ok(_) => {}
            Err(err) => {
                assert!(matches!(err, BacklogError::JournalFull { .. }), "{err}");
                filled = Some(i);
                break;
            }
        }
    }
    assert!(
        filled.is_some(),
        "a 4-page ring must fill without truncation"
    );
    assert_eq!(filled, Some(4), "four one-page groups fill four pages");
    // One CP drains it: its cut covers every group and the pending entries
    // the full ring refused, so none of them needs ring space any more.
    engine.consistency_point().unwrap();
    reference.consistency_point().unwrap();
    let ring = engine.journal_ring_stats().unwrap();
    assert_eq!((ring.live_groups, ring.pending_entries), (0, 0));
    assert_eq!(engine.journal_sync().unwrap(), ring.appended_lsn);
    assert_engines_equivalent(&engine, &reference, 1_000, "after ring backpressure drains");
}

/// Regression (found by the `crates/sim` seed matrix, seed 0xb11a8008): a CP
/// that dies *between* building its Level-0 runs and completing the
/// manifest/superblock must not leave any run installed. A half-committed
/// flush strands the interval's adds in runs where a same-interval remove
/// can no longer prune them; the add and the remove then carry the same CP
/// stamp into the tables, and the query join — whose contract says such
/// pairs never coexist — reads them back as a *live* reference instead of
/// an empty lifetime. The flush is prepare-then-commit now, so every
/// failure point of the CP must leave the pair prunable and the reference
/// dead, in memory and across reopen.
#[test]
fn failed_cp_keeps_same_interval_removes_prunable() {
    for fail_after in 0..24u64 {
        let device = disk();
        let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
        let reference = BacklogEngine::new_simulated(config());
        for e in [&engine, &reference] {
            // Spread adds over all four partitions so the dying CP builds
            // several runs before it reaches the manifest.
            for i in 0..40u64 {
                e.add_reference((i * 101) % 4_000, owner(1 + i % 3, i));
            }
        }
        device.fail_writes_after(fail_after);
        let attempt = engine.consistency_point();
        device.clear_write_fault();
        if attempt.is_ok() {
            // CP completed before the fault budget ran out; larger budgets
            // only succeed sooner.
            reference.consistency_point().unwrap();
        }
        // Remove everything that was just added. If the failed CP left any
        // add stranded in an installed run, the same-stamp remove cannot
        // prune it and the pair resurrects as a live reference.
        for e in [&engine, &reference] {
            for i in 0..40u64 {
                e.remove_reference((i * 101) % 4_000, owner(1 + i % 3, i));
            }
        }
        for block in [0u64, 101, 202, 1_010, 2_020, 3_030] {
            assert_eq!(
                engine.live_owners(block).unwrap(),
                reference.live_owners(block).unwrap(),
                "fail_after={fail_after}: block {block} diverged after same-interval removes"
            );
        }
        // The pair must stay dead across a successful CP and a reopen.
        engine.consistency_point().unwrap();
        reference.consistency_point().unwrap();
        drop(engine);
        let reopened = BacklogEngine::open(device, config()).unwrap();
        assert_engines_equivalent(
            &reopened,
            &reference,
            4_000,
            &format!("fail_after={fail_after}: reopen after failed-then-retried CP"),
        );
    }
}

#[test]
fn provider_reopen_roundtrips() {
    use fsim::{BacklogProvider, BackrefProvider};
    let device = disk();
    let provider = BacklogProvider::create_durable(device.clone(), config()).unwrap();
    let o = owner(3, 1);
    provider.add_reference(42, o);
    provider.consistency_point(1).unwrap();
    let snap = backlog::SnapshotId::new(LineId::ROOT, 2);
    provider.snapshot_created(snap);
    provider.clone_created(snap, LineId(5));
    provider.consistency_point(2).unwrap();
    let bytes = provider.metadata_bytes();
    drop(provider);

    let reopened = BacklogProvider::reopen(device.clone(), config()).unwrap();
    assert_eq!(reopened.engine().current_cp(), 3);
    assert_eq!(reopened.metadata_bytes(), bytes);
    let owners = reopened.query_owners(42).unwrap();
    assert!(owners.contains(&o));
    assert!(
        owners.iter().any(|q| q.line == LineId(5)),
        "clone inheritance survives recovery"
    );
    // And with a journal: post-CP callbacks are recovered from the on-device
    // ring — no host-side journal handoff.
    let journaled = config().with_journaling();
    let device2 = disk();
    let provider = BacklogProvider::create_durable(device2.clone(), journaled.clone()).unwrap();
    provider.add_reference(1, o);
    provider.consistency_point(1).unwrap();
    provider.add_reference(2, o);
    provider.journal_sync().unwrap();
    drop(provider);
    let recovered = BacklogProvider::reopen(device2, journaled).unwrap();
    let rec = recovered.replay_recovered_journal().unwrap();
    assert_eq!(rec.applied, 1);
    assert_eq!(recovered.query_owners(2).unwrap(), vec![o]);
}

#[test]
fn deferred_free_space_is_reclaimed_across_cps() {
    // Maintenance garbage must not leak forever: pages freed in one CP
    // interval become allocatable after the next flip, so repeated
    // churn + maintenance + CP cycles reach a steady-state device size.
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    let mut sizes = Vec::new();
    for round in 0..6u64 {
        for block in 0..400u64 {
            engine.add_reference(block, owner(1 + round, block));
        }
        engine.consistency_point().unwrap();
        for block in 0..400u64 {
            engine.remove_reference(block, owner(1 + round, block));
        }
        engine.consistency_point().unwrap();
        engine.maintenance().unwrap();
        engine.consistency_point().unwrap();
        sizes.push(device.pages_written());
    }
    // pages_written counts distinct pages ever touched: if deferred frees
    // were never committed, every round would claim fresh pages and the
    // footprint would grow by a constant amount per round forever.
    let early_growth = sizes[2] - sizes[1];
    let late_growth = sizes[5] - sizes[4];
    assert!(
        late_growth <= early_growth / 4,
        "device footprint must stabilize: growth per round {sizes:?}"
    );
}

#[test]
fn reference_and_durable_engines_agree_under_mixed_lineage_workload() {
    // A broader equivalence sweep including structural inheritance
    // overrides, zombies and relocation, reopened twice along the way.
    let device = disk();
    let cfg = config();
    let reference = BacklogEngine::new_simulated(cfg.clone());
    let mut durable = BacklogEngine::create_durable(device.clone(), cfg.clone()).unwrap();

    let mut blocks_touched: BTreeSet<u64> = BTreeSet::new();
    let phase1 = |e: &BacklogEngine| {
        for block in 0..300u64 {
            e.add_reference(block, owner(1 + block % 4, block));
        }
        e.consistency_point().unwrap();
        let snap = e.take_snapshot(LineId::ROOT);
        let clone = e.create_clone(snap);
        // Clone overrides an inherited reference.
        e.remove_reference(7, Owner::block(1 + 7 % 4, 7, clone));
        e.consistency_point().unwrap();
        e.delete_snapshot(snap);
        e.consistency_point().unwrap();
    };
    phase1(&reference);
    phase1(&durable);
    blocks_touched.extend(0..300u64);

    drop(durable);
    durable = BacklogEngine::open(device.clone(), cfg.clone()).unwrap();
    assert_engines_equivalent(&durable, &reference, 310, "mid-workload reopen");

    let phase2 = |e: &BacklogEngine| {
        e.maintenance().unwrap();
        e.relocate_block(10, 3_500).unwrap();
        for block in 400..500u64 {
            e.add_reference(block, owner(9, block));
        }
        e.consistency_point().unwrap();
    };
    phase2(&reference);
    phase2(&durable);
    blocks_touched.extend(400..500u64);
    blocks_touched.insert(3_500);

    drop(durable);
    let durable = BacklogEngine::open(device, cfg).unwrap();
    assert_engines_equivalent(&durable, &reference, 3_600, "final reopen");
}

// ---------------------------------------------------------------------
// The manifest log: recovery at every chain position
// ---------------------------------------------------------------------

/// One CP interval of the chain workload, in two parts. `unjournaled` is
/// work the callback journal does not carry — a relocation, a maintenance
/// pass — which a crash before the interval's CP legitimately loses;
/// `callbacks` are the interval's journaled reference operations.
fn chain_unjournaled(engine: &BacklogEngine, step: u64) {
    match step {
        // Leaves deletion marks behind for step 3's maintenance to consume.
        2 => {
            engine.relocate_block(150, 3_900).unwrap();
        }
        3 => {
            engine.maintenance().unwrap();
        }
        _ => {}
    }
}

fn chain_callbacks(engine: &BacklogEngine, step: u64) {
    match step {
        0 => {
            for block in 0..300u64 {
                engine.add_reference(block, owner(1 + block % 7, block));
            }
        }
        1 => {
            for block in 0..100u64 {
                engine.remove_reference(block, owner(1 + block % 7, block));
            }
            for block in 1_000..1_100u64 {
                engine.add_reference(block, owner(2, block));
            }
        }
        2 => {
            for block in 2_000..2_100u64 {
                engine.add_reference(block, owner(6, block));
            }
        }
        3 => {
            for block in 2_100..2_150u64 {
                engine.add_reference(block, owner(6, block));
            }
        }
        n => {
            for block in 3_000 + 10 * n..3_010 + 10 * n {
                engine.add_reference(block, owner(3, block));
            }
        }
    }
}

/// Runs chain steps `0..upto` to completion (CP included) and returns each
/// CP's manifest kind.
fn chain_run(engine: &BacklogEngine, upto: u64) -> Vec<Option<ManifestKind>> {
    (0..upto)
        .map(|step| {
            chain_unjournaled(engine, step);
            chain_callbacks(engine, step);
            engine.consistency_point().unwrap().manifest_kind
        })
        .collect()
}

/// The first chain step whose CP no longer fits its delta into the log and
/// rolls over to a new base.
fn chain_rollover_step() -> u64 {
    let engine = BacklogEngine::create_durable(disk(), config().with_journaling()).unwrap();
    let kinds = chain_run(&engine, 40);
    assert_eq!(
        &kinds[..4],
        &[Some(ManifestKind::Delta); 4],
        "the engine's base is written at creation; the first CPs append"
    );
    let step = kinds
        .iter()
        .position(|&k| k == Some(ManifestKind::Base))
        .expect("40 CPs must overflow an 8-page log") as u64;
    assert_eq!(
        kinds[step as usize + 1],
        Some(ManifestKind::Delta),
        "a rollover is followed by deltas"
    );
    step
}

/// Tentpole fault walk: every device write of a delta CP, of three
/// consecutive ones, of the delta that follows a maintenance pass (runs
/// removed and added, a deletion vector cleared) and of a rollover CP is
/// failed in turn. Each failure is followed by a power cut that discards,
/// partly persists, or tears what the dead CP left in the write cache — so
/// half-written frames land beyond the log's valid prefix — and the device
/// must reopen to *previous CP + journal* exactly. Independently, the live
/// engine must recover from the failure by writing a base frame into a new
/// log, and then append deltas to it again.
#[test]
fn fault_walk_over_the_manifest_chain_recovers_at_every_position() {
    let journaled = config().with_journaling();
    let rollover = chain_rollover_step();
    let cuts = |salt: u64| {
        [
            ("lose-all", PowerCutProfile::lose_all(salt)),
            (
                "persist-some",
                PowerCutProfile {
                    seed: salt,
                    persist: 0.5,
                    torn: 0.0,
                },
            ),
            (
                "torn",
                PowerCutProfile {
                    seed: salt,
                    persist: 0.3,
                    torn: 0.6,
                },
            ),
        ]
    };
    // Brings a fresh durable engine to the brink of `target`'s CP: earlier
    // steps durable, the target interval applied and its callbacks fenced
    // into the journal ring.
    let prepare = |target: u64| {
        let device = disk();
        device.set_write_cache(true);
        let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
        chain_run(&engine, target);
        chain_unjournaled(&engine, target);
        chain_callbacks(&engine, target);
        engine.journal_sync().unwrap();
        (device, engine)
    };
    for target in [1, 2, 3, rollover] {
        let want_kind = if target == rollover {
            ManifestKind::Base
        } else {
            ManifestKind::Delta
        };
        let (probe, engine) = prepare(target);
        let writes_before = probe.stats().snapshot().page_writes;
        let report = engine.consistency_point().unwrap();
        assert_eq!(report.manifest_kind, Some(want_kind), "step {target}");
        let cp_writes = probe.stats().snapshot().page_writes - writes_before;
        assert!(cp_writes >= 3, "step {target}: runs + frame + superblock");
        drop(engine);

        // Previous CP + journal: the target's unjournaled work is lost with
        // the crash, its callbacks come back from the ring.
        let crashed = BacklogEngine::new_simulated(journaled.clone());
        chain_run(&crashed, target);
        chain_callbacks(&crashed, target);
        // No crash: everything applied, the CP retried, one more interval.
        let retried = BacklogEngine::new_simulated(journaled.clone());
        chain_run(&retried, target + 2);

        for fail_after in 0..cp_writes {
            let context = format!("step {target}, fault at write {fail_after}");
            for (name, cut) in cuts(target * 1_000 + fail_after) {
                let (device, engine) = prepare(target);
                let generation = engine.superblock_generation();
                device.fail_writes_after(fail_after);
                assert!(engine.consistency_point().is_err(), "{context}");
                assert_eq!(engine.manifest_log().last_attempt, Some(want_kind));
                device.clear_write_fault();
                drop(engine);
                device.power_cut(&cut);
                let reopened = BacklogEngine::open(device, journaled.clone())
                    .unwrap_or_else(|e| panic!("{context}, {name} cut: {e}"));
                assert_eq!(
                    reopened.superblock_generation(),
                    generation,
                    "{context}, {name} cut: must reopen to the previous CP"
                );
                assert!(reopened.replay_recovered_journal().unwrap().applied > 0);
                assert_engines_equivalent(
                    &reopened,
                    &crashed,
                    4_000,
                    &format!("{context}, {name} cut"),
                );
                // The chain is not resumed across a reopen.
                let report = reopened.consistency_point().unwrap();
                assert_eq!(report.manifest_kind, Some(ManifestKind::Base), "{context}");
            }

            let (device, engine) = prepare(target);
            device.fail_writes_after(fail_after);
            assert!(engine.consistency_point().is_err(), "{context}");
            device.clear_write_fault();
            let report = engine.consistency_point().unwrap();
            assert_eq!(
                report.manifest_kind,
                Some(ManifestKind::Base),
                "{context}: the CP after a failed one starts a new log"
            );
            chain_unjournaled(&engine, target + 1);
            chain_callbacks(&engine, target + 1);
            let report = engine.consistency_point().unwrap();
            assert_eq!(
                report.manifest_kind,
                Some(ManifestKind::Delta),
                "{context}: and the one after that appends to it"
            );
            assert!(report.manifest_pages <= 2, "{context}");
            drop(engine);
            device.power_cut(&PowerCutProfile::lose_all(fail_after));
            let reopened = BacklogEngine::open(device, journaled.clone()).unwrap();
            reopened.replay_recovered_journal().unwrap();
            assert_engines_equivalent(&reopened, &retried, 4_000, &format!("{context}, retried"));
        }
    }
}

/// `open` → CP → CP → crash → `open`: the first CP of a reopened engine is
/// a base in a new log (the recovered log is never appended to), the next
/// one a delta, and both reopen exactly.
#[test]
fn first_cp_after_open_starts_a_new_log() {
    let device = disk();
    let reference = BacklogEngine::new_simulated(config());
    let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    chain_run(&reference, 4);
    chain_run(&engine, 4);
    let recovered_log = engine.manifest_log();
    assert_eq!(recovered_log.delta_frames, 4);
    drop(engine);

    let reopened = BacklogEngine::open(device.clone(), config()).unwrap();
    assert_eq!(
        reopened.manifest_log(),
        backlog::ManifestLogStats {
            last_attempt: None,
            ..recovered_log
        },
        "open reports the log it read"
    );
    for (step, want) in [(4, ManifestKind::Base), (5, ManifestKind::Delta)] {
        for e in [&reopened, &reference] {
            chain_callbacks(e, step);
        }
        let report = reopened.consistency_point().unwrap();
        reference.consistency_point().unwrap();
        assert_eq!(report.manifest_kind, Some(want), "step {step}");
        // A crash right here reopens to this very CP.
        let again = BacklogEngine::open(device.clone(), config()).unwrap();
        assert_engines_equivalent(&again, &reference, 4_000, &format!("after step {step}"));
    }
    assert_eq!(reopened.manifest_log().delta_frames, 1);
}

/// Satellite (decode surface): every field of the superblock came off the
/// device. FNV-1a is a checksum, not a MAC — a forged superblock with a
/// good checksum and hostile extents, lengths or ring geometry must make
/// `open` return `Recovery`, not overflow, abort on a giant allocation, or
/// walk off the device.
#[test]
fn forged_superblock_geometry_is_rejected_not_trusted() {
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), config().with_journaling()).unwrap();
    chain_run(&engine, 3);
    drop(engine);
    let good = Superblock::read_latest(&*device).unwrap().unwrap();
    let (start, pages) = good.manifest_extents[0];
    type Forge = Box<dyn Fn(&mut Superblock)>;
    let forgeries: Vec<(&str, Forge)> = vec![
        (
            "extent length u64::MAX",
            Box::new(|sb| sb.manifest_extents = vec![(5, u64::MAX)]),
        ),
        (
            "extent start u64::MAX",
            Box::new(|sb| sb.manifest_extents = vec![(u64::MAX, 2)]),
        ),
        (
            "extents whose lengths overflow when summed",
            Box::new(|sb| sb.manifest_extents = vec![(5, u64::MAX), (5, 2)]),
        ),
        (
            "overlapping extents",
            Box::new(move |sb| sb.manifest_extents = vec![(start, pages), (start, pages)]),
        ),
        (
            "no extent at all",
            Box::new(|sb| sb.manifest_extents.clear()),
        ),
        (
            "extent past the device",
            Box::new(|sb| sb.manifest_extents = vec![(u64::MAX - 8, 4)]),
        ),
        (
            "prefix length u64::MAX",
            Box::new(|sb| sb.manifest_len_bytes = u64::MAX),
        ),
        ("empty prefix", Box::new(|sb| sb.manifest_len_bytes = 0)),
        (
            "prefix longer than the extent",
            Box::new(move |sb| sb.manifest_len_bytes = (pages + 1) * 4_096),
        ),
        (
            "prefix cutting the last frame",
            Box::new(|sb| sb.manifest_len_bytes -= 1),
        ),
        (
            "prefix running into unwritten pages",
            Box::new(|sb| sb.manifest_len_bytes += 2 * 4_096),
        ),
        (
            "a generation the log does not end at",
            Box::new(|sb| sb.generation += 2),
        ),
        (
            "journal ring length u64::MAX",
            Box::new(|sb| sb.journal_pages = u64::MAX),
        ),
        (
            "journal ring start u64::MAX",
            Box::new(|sb| sb.journal_start = u64::MAX),
        ),
    ];
    for (what, forge) in forgeries {
        let mut sb = good.clone();
        // One generation up, into the slot the good copy does not occupy.
        sb.generation += 1;
        forge(&mut sb);
        sb.write_to(&*device).unwrap();
        let err = BacklogEngine::open(device.clone(), config().with_journaling()).unwrap_err();
        assert!(
            matches!(err, BacklogError::Recovery { .. }),
            "{what}: {err}"
        );
        // Scrub the forgery: the good copy is the newest again.
        device
            .write_page(SUPERBLOCK_PAGES[(sb.generation % 2) as usize], &[0u8; 64])
            .unwrap();
        BacklogEngine::open(device.clone(), config().with_journaling()).unwrap();
    }
}

/// Satellite (decode surface): the journal frontier in the manifest frame
/// is what replay trusts, and it came off the device. A structure-aware
/// forger (the frame checksum is FNV-1a, not a MAC) must get `Recovery` for
/// a vector that is not one entry per partition, is cut short by the
/// payload length, or names an LSN with no room above it — and a frontier
/// merely *ahead of* everything in the ring is legal: the ring was truncated
/// past it, replay applies nothing, and numbering resumes above it. The same
/// walk pins the version gate: a frame of the previous format is refused,
/// not misread.
#[test]
fn forged_journal_frontier_is_rejected_or_harmless() {
    let journaled = config().with_journaling();
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), journaled.clone()).unwrap();
    for block in 0..50u64 {
        engine.add_reference(block * 80, owner(1, block));
    }
    assert_eq!(engine.journal_sync().unwrap(), 50);
    drop(engine);

    // No CP since creation: the log is its base frame, at the start of the
    // extent. Header 40 B (magic 8, version 4, checksum 8 over everything
    // from byte 20 on, kind 4, generation 8, payload length 8), then the
    // partitioning (12 B), ten counters, the frontier count and entries.
    let sb = Superblock::read_latest(&*device).unwrap().unwrap();
    let log_page = sb.manifest_extents[0].0;
    assert!(sb.manifest_len_bytes <= 4_096, "one-page base frame");
    let good = device.read_page(log_page).unwrap();
    let (version_at, len_at, count_at) = (8, 32, 40 + 12 + 80);
    assert_eq!(&good[version_at..version_at + 4], &5u32.to_be_bytes());
    assert_eq!(&good[count_at..count_at + 4], &4u32.to_be_bytes());
    assert_eq!(
        &good[count_at + 4..count_at + 36],
        &[0u8; 32],
        "fresh engine"
    );
    let forge = |patches: &[(usize, &[u8])]| {
        let mut page = good.clone();
        for &(at, bytes) in patches {
            page[at..at + bytes.len()].copy_from_slice(bytes);
        }
        let payload_len = u64::from_be_bytes(page[len_at..len_at + 8].try_into().unwrap());
        let end = 40 + payload_len as usize;
        let checksum = blockdev::fnv1a64(&page[20..end]);
        page[12..20].copy_from_slice(&checksum.to_be_bytes());
        device.write_page(log_page, &page).unwrap();
        BacklogEngine::open(device.clone(), journaled.clone())
    };

    let huge = u64::MAX.to_be_bytes();
    let cut_short = (80u64 + 12 + 4 + 8).to_be_bytes();
    type Patches<'a> = Vec<(usize, &'a [u8])>;
    let rejected: [(&str, Patches); 6] = [
        ("three entries", vec![(count_at, &[0, 0, 0, 3])]),
        ("five entries", vec![(count_at, &[0, 0, 0, 5])]),
        ("count u32::MAX", vec![(count_at, &[0xff; 4])]),
        ("cut short by payload_len", vec![(len_at, &cut_short)]),
        ("frontier u64::MAX", vec![(count_at + 4 + 8, &huge)]),
        ("previous format version", vec![(version_at, &[0, 0, 0, 4])]),
    ];
    for (what, patches) in &rejected {
        let err = forge(patches).unwrap_err();
        assert!(
            matches!(err, BacklogError::Recovery { .. }),
            "{what}: {err}"
        );
    }

    // Ahead of every recovered LSN, in one partition: that partition's
    // entries are taken as covered, the others replay as usual.
    let ahead = (1u64 << 40).to_be_bytes();
    let reopened = forge(&[(count_at + 4, &ahead)]).unwrap();
    let rec = reopened.replay_recovered_journal().unwrap();
    let in_partition_0 = (0..50u64).filter(|b| b * 80 < 1_000).count();
    assert_eq!(rec.recovered, 50);
    assert_eq!(rec.applied, 50 - in_partition_0);
    assert_eq!(rec.last_lsn, 1 << 40);
    assert_eq!(
        reopened.journal_sync().unwrap(),
        1 << 40,
        "resumes above it"
    );
    drop(reopened);

    // And the genuine frame still opens and replays everything.
    let reopened = forge(&[]).unwrap();
    let rec = reopened.replay_recovered_journal().unwrap();
    assert_eq!((rec.recovered, rec.applied, rec.last_lsn), (50, 50, 50));
}

/// A device written by the version 4 format — fixed-width run leaves — is
/// refused at `open` with `Recovery`, not read as delta-coded leaves: every
/// manifest frame of its log names version 4.
#[test]
fn version_4_device_is_refused_at_open() {
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    for block in 0..2_000u64 {
        engine.add_reference(block * 7, owner(1, block));
    }
    engine.consistency_point().unwrap();
    assert!(engine.run_count() > 0);
    drop(engine);
    BacklogEngine::open(device.clone(), config()).expect("the genuine device opens");

    // Frames start on page boundaries: rewrite the version of each one in
    // the log's valid prefix (the version is not covered by the checksum).
    let sb = Superblock::read_latest(&*device).unwrap().unwrap();
    let pages = sb.manifest_len_bytes.div_ceil(blockdev::PAGE_SIZE as u64);
    let mut frames = 0;
    let log_pages = sb
        .manifest_extents
        .iter()
        .flat_map(|&(start, len)| start..start + len)
        .take(pages as usize);
    for page_no in log_pages {
        let mut page = device.read_page(page_no).unwrap();
        if &page[..8] == b"BKLGMANI" {
            assert_eq!(&page[8..12], &5u32.to_be_bytes());
            page[8..12].copy_from_slice(&4u32.to_be_bytes());
            device.write_page(page_no, &page).unwrap();
            frames += 1;
        }
    }
    assert!(frames >= 1);
    let err = BacklogEngine::open(device.clone(), config()).unwrap_err();
    assert!(matches!(err, BacklogError::Recovery { .. }), "{err}");
}

/// Acceptance: a delta CP's metadata work and write volume follow what
/// changed, not what is installed; and the log stays within its
/// reservation — twice its base — however long the chain of CPs.
#[test]
fn delta_cps_write_what_changed_and_the_log_stays_bounded() {
    let device = disk();
    let cfg = BacklogConfig::partitioned(8, 8_000).without_timing();
    let engine = BacklogEngine::create_durable(device, cfg).unwrap();
    // 130 CPs of one record per partition: 1 040 installed runs.
    for cp in 0..130u64 {
        for p in 0..8u64 {
            engine.add_reference(p * 1_000 + cp, owner(1, cp));
        }
        engine.consistency_point().unwrap();
    }
    assert!(engine.run_count() >= 1_000);
    // One record, one run, one page of metadata — with the 1 040 runs'
    // geometry and Bloom words left alone. (If this CP happens to be the
    // rollover, the next one is the delta.)
    let mut report = backlog::CpReport::default();
    for block in [7_500, 7_501] {
        engine.add_reference(block, owner(2, block));
        report = engine.consistency_point().unwrap();
        if report.manifest_kind == Some(ManifestKind::Delta) {
            break;
        }
    }
    assert_eq!(report.manifest_kind, Some(ManifestKind::Delta));
    assert_eq!(report.runs_created, 1);
    assert!(
        report.manifest_pages <= 2,
        "a one-record CP wrote {} manifest pages over {} installed runs",
        report.manifest_pages,
        engine.run_count()
    );
    assert!(
        engine.manifest_log().base_pages > 8,
        "the base is not small"
    );

    let mut rollovers = 0;
    for cp in 0..500u64 {
        engine.add_reference(cp % 8_000, owner(3, cp));
        if cp % 60 == 59 {
            engine.maintenance().unwrap();
        }
        let report = engine.consistency_point().unwrap();
        let log = engine.manifest_log();
        assert_eq!(log.reserved_pages, (2 * log.base_pages).max(8), "cp {cp}");
        assert!(
            log.log_pages() <= log.reserved_pages,
            "cp {cp}: log of {} pages outgrew its {}-page reservation",
            log.log_pages(),
            log.reserved_pages
        );
        rollovers += u64::from(report.manifest_kind == Some(ManifestKind::Base));
    }
    assert!(rollovers >= 2, "500 CPs roll the log over, saw {rollovers}");
    assert!(rollovers <= 100, "and mostly append, saw {rollovers} bases");
}

/// Retired logs and abandoned reservations go back to the allocator: over
/// a thousand CPs (hundreds of rollovers, periodic maintenance) the device
/// footprint stops growing.
#[test]
fn retired_logs_do_not_leak_across_a_thousand_cps() {
    let device = disk();
    let engine = BacklogEngine::create_durable(device.clone(), config()).unwrap();
    let mut footprint = Vec::new();
    for cp in 0..1_000u64 {
        let block = (cp * 37) % 4_000;
        engine.add_reference(block, owner(1 + cp % 5, cp));
        if cp % 25 == 24 {
            engine.maintenance().unwrap();
        }
        engine.consistency_point().unwrap();
        if cp % 100 == 99 {
            footprint.push(device.pages_written());
        }
    }
    let early = footprint[2] - footprint[0];
    let late = footprint[9] - footprint[7];
    assert!(
        late <= early / 4 + 8,
        "device footprint must stabilize: distinct pages touched {footprint:?}"
    );
}
