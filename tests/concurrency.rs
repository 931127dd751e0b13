//! Concurrency stress tests: reader threads query continuously while
//! maintenance rebuilds every partition on worker threads, and every observed
//! result must match either the pre- or the post-rebuild state. Maintenance
//! preserves query results by construction, so the two states are identical
//! and the assertion is exact: readers must never see a torn partition (a
//! rebuilt `From` joined against a stale `Combined`, a half-swapped run
//! list, or a purged record flickering back).
//!
//! Meaningful mostly under `--release` (CI runs it there); in debug builds
//! the race window still exists but the iteration counts are low.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use backlog::{
    BackRef, BacklogConfig, BacklogEngine, LineId, MaintenancePlan, MaintenanceReport, Owner,
};
use blockdev::{DeviceConfig, FileStore, SimDisk};

const BLOCKS: u64 = 2_000;
const PARTITIONS: u32 = 8;

/// A full maintenance pass with the partition rebuilds on `threads` workers.
fn maintain_full(e: &BacklogEngine, threads: usize) -> backlog::Result<MaintenanceReport> {
    let report = e.maintain(MaintenancePlan::full().with_threads(threads))?;
    Ok(report.expect("a full plan selects every partition"))
}

/// Builds an engine with live, snapshotted and dead references spread over
/// many Level-0 runs in every partition, so a full rebuild has real work to
/// do (joining, purging and retention) everywhere.
fn populated_engine() -> (Arc<SimDisk>, BacklogEngine) {
    let disk = SimDisk::new_shared(DeviceConfig::free_latency());
    let files = Arc::new(FileStore::new(disk.clone()));
    let e = BacklogEngine::new(
        files,
        BacklogConfig::partitioned(PARTITIONS, BLOCKS).without_timing(),
    );
    for block in 0..BLOCKS {
        e.add_reference(block, Owner::block(1 + block % 7, block, LineId::ROOT));
        if block % 100 == 0 {
            e.consistency_point().unwrap();
        }
    }
    e.consistency_point().unwrap();
    // Purgeable garbage: lifetimes closed before any snapshot exists.
    for block in (1..BLOCKS).step_by(5) {
        e.remove_reference(block, Owner::block(1 + block % 7, block, LineId::ROOT));
    }
    e.consistency_point().unwrap();
    e.take_snapshot(LineId::ROOT);
    e.consistency_point().unwrap();
    // Retained garbage: these removals survive via the snapshot.
    for block in (0..BLOCKS).step_by(3).filter(|b| b % 5 != 1) {
        e.remove_reference(block, Owner::block(1 + block % 7, block, LineId::ROOT));
    }
    e.consistency_point().unwrap();
    (disk, e)
}

/// Sets an [`AtomicBool`] when dropped — even if the owning thread panics —
/// so reader loops gated on the flag can never hang the test; the scope join
/// then surfaces the original panic.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn baseline(e: &BacklogEngine) -> BTreeMap<u64, Vec<BackRef>> {
    (0..BLOCKS)
        .step_by(37)
        .map(|b| (b, e.query_block(b).unwrap().refs))
        .collect()
}

/// Readers hammer point and range queries while `maintenance_parallel`
/// rebuilds all partitions; every result must equal the baseline.
#[test]
fn racing_readers_always_see_consistent_state() {
    let (_disk, e) = populated_engine();
    let expected = baseline(&e);
    assert!(e.run_count() > PARTITIONS, "rebuild must have work to do");

    let rebuilt = AtomicBool::new(false);
    let queries_run = AtomicU64::new(0);
    std::thread::scope(|s| {
        let engine = &e;
        let expected = &expected;
        let rebuilt = &rebuilt;
        let queries_run = &queries_run;
        // Two point-query readers with different strides plus one
        // range-query reader, all racing the rebuild.
        for r in 0..2u64 {
            s.spawn(move || {
                let mut i = r * 7;
                loop {
                    let done = rebuilt.load(Ordering::Acquire);
                    let block = (i * 13) % BLOCKS;
                    if let Some(want) = expected.get(&block) {
                        let got = engine.query_block(block).unwrap().refs;
                        assert_eq!(
                            &got, want,
                            "block {block} diverged during in-flight rebuild"
                        );
                        queries_run.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                    // Drain a final iteration after the rebuild finishes so
                    // the post-rebuild state is asserted too.
                    if done {
                        break;
                    }
                    // Let the rebuild make progress on small machines; the
                    // queries still overlap it for its whole duration.
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
            });
        }
        s.spawn(move || loop {
            let done = rebuilt.load(Ordering::Acquire);
            // A range query spanning several partitions: the per-partition
            // guards must hand it an un-torn multi-partition view.
            let refs = engine.query_range(1_000, 1_030).unwrap().refs;
            for want in expected
                .iter()
                .filter(|(b, _)| (1_000..=1_030).contains(*b))
            {
                let got: Vec<&BackRef> = refs.iter().filter(|r| r.block == *want.0).collect();
                let want_refs: Vec<&BackRef> = want.1.iter().collect();
                assert_eq!(got, want_refs, "range query tore at block {}", want.0);
            }
            queries_run.fetch_add(1, Ordering::Relaxed);
            if done {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        });
        s.spawn(move || {
            let _release_readers = SetOnDrop(rebuilt);
            let report = maintain_full(engine, 4).unwrap();
            assert!(report.purged_records > 0, "rebuild purged dead references");
        });
    });

    assert!(
        queries_run.load(Ordering::Relaxed) > 0,
        "readers must have completed queries during the rebuild"
    );
    // Post-rebuild: compacted to at most one run per table per partition,
    // same answers.
    assert!(e.run_count() <= 2 * PARTITIONS);
    assert_eq!(baseline(&e), expected);
}

/// Serial maintenance on one thread races readers on others — the same
/// invariant must hold without the parallel fan-out.
#[test]
fn racing_readers_during_serial_maintenance() {
    let (_disk, e) = populated_engine();
    let expected = baseline(&e);
    let rebuilt = AtomicBool::new(false);
    std::thread::scope(|s| {
        let engine = &e;
        let expected = &expected;
        let rebuilt = &rebuilt;
        s.spawn(move || loop {
            let done = rebuilt.load(Ordering::Acquire);
            for (&block, want) in expected.iter().take(16) {
                assert_eq!(&engine.query_block(block).unwrap().refs, want);
            }
            if done {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        });
        s.spawn(move || {
            let _release_readers = SetOnDrop(rebuilt);
            engine.maintenance().unwrap();
        });
    });
    assert_eq!(baseline(&e), expected);
}

/// Fault injection against a *parallel* rebuild: walk the failure point
/// across the writes of the rebuild while multiple workers are in flight.
/// Whatever subset of partitions committed, queries must be unchanged, and a
/// retry after recovery completes the pass.
#[test]
fn parallel_rebuild_fault_walk_keeps_database_consistent() {
    let (disk, e) = populated_engine();
    let expected = baseline(&e);
    // Sparse walk in debug builds, denser in release, to keep runtimes sane;
    // the engine-level serial walk covers every single write point.
    let mut fail_after = 0u64;
    let mut failures = 0u32;
    loop {
        disk.fail_writes_after(fail_after);
        let result = maintain_full(&e, 4);
        disk.clear_write_fault();
        if result.is_ok() {
            break;
        }
        failures += 1;
        assert_eq!(
            baseline(&e),
            expected,
            "query results changed after fault at write {fail_after}"
        );
        fail_after += 7;
    }
    assert!(failures >= 3, "only {failures} distinct fault points");
    assert_eq!(baseline(&e), expected);
    assert!(
        e.run_count() <= 2 * PARTITIONS,
        "retry finished the rebuild"
    );
}

// ---------------------------------------------------------------------------
// Racing writers: the PR-4 concurrent write path. N threads issue reference
// callbacks (scalar and batched) while queries and consistency points run
// concurrently; nothing may be lost, duplicated or torn.
// ---------------------------------------------------------------------------

/// Four writer threads add disjoint references (batched) while a reader
/// hammers already-durable blocks and the main thread takes consistency
/// points mid-stream. Every reference must be queryable exactly once at the
/// end, and the pre-populated baseline must never waver.
#[test]
fn racing_writers_with_queries_and_cp_flush() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 2_000;
    let total = WRITERS * PER_WRITER;
    let e = BacklogEngine::new_simulated(
        backlog::BacklogConfig::partitioned(PARTITIONS, total + BLOCKS)
            .without_timing()
            .with_cp_flush_threads(2),
    );
    // A durable baseline in a key range no writer touches: blocks
    // total..total+BLOCKS. Readers assert it never flickers while the
    // writers and CP flushes race.
    for b in 0..BLOCKS {
        e.add_reference(total + b, Owner::block(9, b, LineId::ROOT));
    }
    e.consistency_point().unwrap();

    let writers_done = AtomicBool::new(false);
    let queries_run = AtomicU64::new(0);
    std::thread::scope(|s| {
        let engine = &e;
        let done = &writers_done;
        let queries_run = &queries_run;
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    let mut batch = backlog::WriteBatch::with_capacity(128);
                    for i in 0..PER_WRITER {
                        let block = w * PER_WRITER + i;
                        batch.add_reference(block, Owner::block(1 + w, i, LineId::ROOT));
                        if batch.len() == 128 {
                            engine.apply(&batch);
                            batch.clear();
                        }
                    }
                    engine.apply(&batch);
                })
            })
            .collect();
        // Reader thread: the durable baseline must hold at every instant.
        s.spawn(move || {
            let mut i = 0u64;
            loop {
                let finished = done.load(Ordering::Acquire);
                let block = total + (i * 37) % BLOCKS;
                let refs = engine.query_block(block).unwrap().refs;
                assert_eq!(refs.len(), 1, "baseline block {block} flickered");
                queries_run.fetch_add(1, Ordering::Relaxed);
                i += 1;
                if finished {
                    break;
                }
            }
        });
        // CP flushes race the writers.
        while !handles.iter().all(|h| h.is_finished()) {
            engine.consistency_point().unwrap();
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        for h in handles {
            h.join().unwrap();
        }
        writers_done.store(true, Ordering::Release);
    });
    // Final CP drains whatever the last mid-stream flush missed.
    e.consistency_point().unwrap();
    assert!(queries_run.load(Ordering::Relaxed) > 0);
    assert_eq!(e.stats().refs_added, total + BLOCKS);
    for block in (0..total).step_by(97) {
        assert_eq!(
            e.query_block(block).unwrap().refs.len(),
            1,
            "block {block} lost or duplicated"
        );
    }
    assert_eq!(e.query_block(0).unwrap().refs.len(), 1);
    assert_eq!(e.query_block(total - 1).unwrap().refs.len(), 1);
}

/// Writers remove references while CP flushes race them; a record whose
/// remove races the flush must end up closed either way (proactively pruned,
/// or closed by a To record at the next CP), and maintenance then purges it.
#[test]
fn racing_removers_close_references_despite_cp_races() {
    const N: u64 = 4_000;
    let e = BacklogEngine::new_simulated(
        backlog::BacklogConfig::partitioned(PARTITIONS, N)
            .without_timing()
            .with_cp_flush_threads(2),
    );
    for b in 0..N {
        e.add_reference(b, Owner::block(1 + b % 3, b, LineId::ROOT));
    }
    e.consistency_point().unwrap();
    std::thread::scope(|s| {
        let engine = &e;
        let handles: Vec<_> = (0..4u64)
            .map(|w| {
                s.spawn(move || {
                    for i in 0..N / 4 {
                        let block = w * (N / 4) + i;
                        engine.remove_reference(
                            block,
                            Owner::block(1 + block % 3, block, LineId::ROOT),
                        );
                    }
                })
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            engine.consistency_point().unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    e.consistency_point().unwrap();
    // No snapshot retained anything: every reference is dead and every
    // queried block must come back empty (dead intervals are masked).
    for block in (0..N).step_by(61) {
        assert!(
            e.query_block(block).unwrap().refs.is_empty(),
            "block {block} still live after concurrent removal"
        );
    }
    let report = maintain_full(&e, 2).unwrap();
    assert!(report.purged_records > 0, "dead references must purge");
    for block in (0..N).step_by(61) {
        assert!(e.query_block(block).unwrap().refs.is_empty());
    }
}

/// The full collision: writers, readers, CP flushes and a parallel
/// maintenance rebuild all share the engine at once. The durable baseline
/// must hold throughout, and the final state must account for every
/// operation.
#[test]
fn writers_race_maintenance_and_cp() {
    let (_disk, e) = populated_engine();
    let expected = baseline(&e);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let engine = &e;
        let done_ref = &done;
        let expected_ref = &expected;
        // Writer adds fresh references beyond the populated key space.
        let writer = s.spawn(move || {
            for i in 0..2_000u64 {
                engine.add_reference(BLOCKS + i, Owner::block(42, i, LineId::ROOT));
            }
        });
        // The concurrent CPs advance the clock, so `live_versions` of
        // still-live references moves with it; compare the stable identity
        // and interval fields, which is exactly what tearing or flicker
        // would corrupt.
        let key = |r: &BackRef| (r.block, r.inode, r.offset, r.length, r.line, r.from, r.to);
        s.spawn(move || loop {
            let finished = done_ref.load(Ordering::Acquire);
            for (&block, want) in expected_ref.iter().take(8) {
                let got: Vec<_> = engine
                    .query_block(block)
                    .unwrap()
                    .refs
                    .iter()
                    .map(key)
                    .collect();
                let want: Vec<_> = want.iter().map(key).collect();
                assert_eq!(got, want, "block {block} flickered mid-race");
            }
            if finished {
                break;
            }
        });
        let maintainer = s.spawn(move || {
            let _release = SetOnDrop(done_ref);
            maintain_full(engine, 2).unwrap();
        });
        while !writer.is_finished() {
            engine.consistency_point().unwrap();
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        writer.join().unwrap();
        maintainer.join().unwrap();
    });
    e.consistency_point().unwrap();
    let key = |r: &BackRef| (r.block, r.inode, r.offset, r.length, r.line, r.from, r.to);
    let normalize = |m: &BTreeMap<u64, Vec<BackRef>>| -> Vec<Vec<_>> {
        m.values().map(|v| v.iter().map(key).collect()).collect()
    };
    assert_eq!(
        normalize(&baseline(&e)),
        normalize(&expected),
        "maintained state preserved"
    );
    for block in (BLOCKS..BLOCKS + 2_000).step_by(191) {
        assert_eq!(
            e.query_block(block).unwrap().refs.len(),
            1,
            "written-during-rebuild block {block}"
        );
    }
}
