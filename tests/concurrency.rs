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
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

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

/// Readers hammer point and range queries, with no pause, while
/// single-partition rebuilds commit one after another; every result must
/// equal the baseline. Each round first closes and reopens a reference on
/// every sampled block (remove, CP, re-add, CP), so every rebuild moves
/// records out of `To`: a query that captured a partition's `From` before a
/// rebuild commit and its `To` after it would join the old `From` record
/// with nothing and report a live reference that is not there.
#[test]
fn racing_readers_always_see_consistent_state() {
    let rounds = if cfg!(debug_assertions) { 6 } else { 300 };
    let (_disk, e) = populated_engine();
    assert!(e.run_count() > PARTITIONS, "rebuild must have work to do");
    let parts = e.config().partitioning;
    let sampled: Vec<u64> = baseline(&e).into_keys().collect();
    let owner = |b: u64| Owner::block(99, b, LineId::ROOT);
    for &b in &sampled {
        e.add_reference(b, owner(b));
    }
    e.consistency_point().unwrap();

    let mut queries_run = 0u64;
    let mut purged = 0u64;
    for round in 0..rounds {
        for &b in &sampled {
            e.remove_reference(b, owner(b));
        }
        e.consistency_point().unwrap();
        for &b in &sampled {
            e.add_reference(b, owner(b));
        }
        e.consistency_point().unwrap();
        let expected = baseline(&e);
        let mut by_partition = vec![Vec::new(); PARTITIONS as usize];
        for (&block, want) in &expected {
            by_partition[parts.partition_of(block) as usize].push((block, want));
        }

        // The partition being rebuilt: readers query only its blocks.
        let current = AtomicU32::new(0);
        let rebuilt = AtomicBool::new(false);
        let queries = AtomicU64::new(0);
        purged += std::thread::scope(|s| {
            let (engine, expected, by_partition, current, rebuilt, queries) =
                (&e, &expected, &by_partition, &current, &rebuilt, &queries);
            for r in 0..2usize {
                s.spawn(move || {
                    let mut i = r;
                    loop {
                        let done = rebuilt.load(Ordering::Acquire);
                        let blocks = &by_partition[current.load(Ordering::Acquire) as usize];
                        let (block, want) = blocks[i % blocks.len()];
                        let got = engine.query_block(block).unwrap().refs;
                        assert_eq!(&got, want, "round {round}: block {block} diverged");
                        queries.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                        // Drain a final iteration after the rebuild finishes
                        // so the post-rebuild state is asserted too.
                        if done {
                            break;
                        }
                    }
                });
            }
            // A range query over the whole partition being rebuilt.
            s.spawn(move || loop {
                let done = rebuilt.load(Ordering::Acquire);
                let (lo, hi) = parts.key_range(current.load(Ordering::Acquire));
                let refs = engine.query_range(lo, hi).unwrap().refs;
                for (&block, want) in expected.range(lo..=hi) {
                    let got: Vec<&BackRef> = refs.iter().filter(|r| r.block == block).collect();
                    let want: Vec<&BackRef> = want.iter().collect();
                    assert_eq!(
                        got, want,
                        "round {round}: range query tore at block {block}"
                    );
                }
                queries.fetch_add(1, Ordering::Relaxed);
                if done {
                    break;
                }
            });
            let rebuilder = s.spawn(move || {
                let _release_readers = SetOnDrop(rebuilt);
                let mut purged = 0;
                for p in 0..PARTITIONS {
                    current.store(p, Ordering::Release);
                    let report = engine.maintain(MaintenancePlan::partition(p)).unwrap();
                    purged += report.map_or(0, |r| r.purged_records);
                }
                purged
            });
            rebuilder.join().unwrap()
        });
        queries_run += queries.into_inner();
        // Post-rebuild: compacted to at most one run per table per
        // partition, same answers.
        assert!(e.run_count() <= 2 * PARTITIONS);
        assert_eq!(baseline(&e), expected, "round {round}");
    }
    assert!(purged > 0, "rebuilds purged the closed intervals");
    assert!(
        queries_run > 0,
        "readers must have completed queries during the rebuilds"
    );
}

/// Two threads start together on a barrier and rebuild the same partition,
/// round after round, with fresh CP runs added to it between rounds. Both
/// passes may snapshot the same runs; the commit lets only the first
/// install its output — the second finds its snapshot's runs gone and
/// deletes its own. Queries must stay on the baseline, and no table may
/// ever hold a record twice.
#[test]
fn racing_passes_over_one_partition_commit_once() {
    const P: u32 = 5;
    let rounds = if cfg!(debug_assertions) { 20 } else { 200 };
    let (_disk, e) = populated_engine();
    // The CPs between rounds move `live_versions` of live references;
    // compare the identity and interval fields, which a duplicated or lost
    // record would change.
    let stable = |e: &BacklogEngine| -> Vec<_> {
        baseline(e)
            .into_values()
            .flatten()
            .map(|r| (r.block, r.inode, r.offset, r.length, r.line, r.from, r.to))
            .collect()
    };
    let expected = stable(&e);
    let (lo, hi) = e.config().partitioning.key_range(P);
    // Blocks the baseline does not sample, so its answers never move.
    let fresh: Vec<u64> = (lo..=hi).filter(|b| b % 37 != 0).step_by(10).collect();
    let start = Barrier::new(2);
    let mut stale = 0;
    for round in 0..rounds {
        for &b in &fresh {
            e.add_reference(b, Owner::block(1_000 + round, b, LineId::ROOT));
        }
        e.consistency_point().unwrap();
        let reports: Vec<MaintenanceReport> = std::thread::scope(|s| {
            let passes: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        e.maintain(MaintenancePlan::partition(P)).unwrap().unwrap()
                    })
                })
                .collect();
            passes.into_iter().map(|h| h.join().unwrap()).collect()
        });
        stale += reports.iter().filter(|r| r.partitions == 0).count();
        assert_eq!(stable(&e), expected, "round {round}");
        let from = e.from_table().scan_disk().unwrap();
        let combined = e.combined_table().scan_disk().unwrap();
        assert!(
            from.windows(2).all(|w| w[0] != w[1]),
            "round {round}: a From record installed twice"
        );
        assert!(
            combined.windows(2).all(|w| w[0] != w[1]),
            "round {round}: a Combined record installed twice"
        );
        assert_eq!(
            from.iter().filter(|r| r.identity.inode >= 1_000).count(),
            fresh.len() * (round as usize + 1),
            "round {round}"
        );
    }
    // Not asserted non-zero: whether the two passes overlap is up to the
    // scheduler. In release they do, in most rounds.
    eprintln!("stale passes: {stale} in {rounds} rounds");
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

/// The same partition-disjoint batched workload, issued from one writer
/// thread with a serial CP flush and from four writers with a four-wide
/// flush, builds an identical `From` table: neither the callback routing nor
/// the per-partition flush fan-out may depend on the thread count.
#[test]
fn writer_and_flush_thread_counts_build_identical_from_table() {
    const PER_ROUND: u64 = 4_000;
    const ROUNDS: u64 = 2;
    let from_table = |threads: u64| {
        let e = BacklogEngine::new_simulated(
            BacklogConfig::partitioned(4, PER_ROUND)
                .without_timing()
                .with_cp_flush_threads(threads as usize),
        );
        let per_writer = PER_ROUND / threads;
        for round in 0..ROUNDS {
            std::thread::scope(|s| {
                for w in 0..threads {
                    let engine = &e;
                    s.spawn(move || {
                        let mut batch = backlog::WriteBatch::with_capacity(256);
                        for block in w * per_writer..(w + 1) * per_writer {
                            // The owner depends on the block and round alone,
                            // never on which thread writes it.
                            let offset = round * PER_ROUND + block;
                            batch.add_reference(
                                block,
                                Owner::block(1 + block % 7, offset, LineId::ROOT),
                            );
                            if batch.len() == 256 {
                                engine.apply(&batch);
                                batch.clear();
                            }
                        }
                        engine.apply(&batch);
                    });
                }
            });
            e.consistency_point().unwrap();
        }
        e.from_table().scan_disk().unwrap()
    };
    let serial = from_table(1);
    assert_eq!(serial.len() as u64, ROUNDS * PER_ROUND);
    assert_eq!(from_table(4), serial, "thread counts diverged");
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

// ---------------------------------------------------------------------------
// The consistency point's cut vs. racing journaled writers: the falsifier for
// "every CP records the exact per-partition journal frontier".
// ---------------------------------------------------------------------------

/// The journal frontier the newest durable CP recorded, parsed straight off
/// the device: walk the manifest log's frames (each starts on a page
/// boundary: 40-byte header ending in the payload length) to the last one
/// inside the superblock's valid prefix; its payload opens with the
/// partitioning (base frames only, 12 B) and ten counters, then the frontier
/// count and entries.
fn frontier_on_device(device: &SimDisk, sb: &blockdev::Superblock) -> Vec<u64> {
    use blockdev::Device;
    const PAGE: usize = 4_096;
    let (start, _) = sb.manifest_extents[0];
    let mut log = Vec::new();
    for p in 0..sb.manifest_len_bytes.div_ceil(PAGE as u64) {
        log.extend_from_slice(&device.read_page(start + p).unwrap());
    }
    let word = |at: usize| u64::from_be_bytes(log[at..at + 8].try_into().unwrap());
    let (mut at, mut newest) = (0usize, 0usize);
    while at < sb.manifest_len_bytes as usize {
        newest = at;
        at = (at + 40 + word(at + 32) as usize).div_ceil(PAGE) * PAGE;
    }
    let is_base = log[newest + 20..newest + 24] == [0, 0, 0, 0];
    let count_at = newest + 40 + if is_base { 12 } else { 0 } + 80;
    let count = u32::from_be_bytes(log[count_at..count_at + 4].try_into().unwrap());
    (0..count as usize)
        .map(|i| word(count_at + 4 + 8 * i))
        .collect()
}

/// Three writers on disjoint identities — two issuing scalar callbacks, one
/// `apply` batches — race a thread looping `consistency_point()` on a
/// durable journaled engine, for ten rounds of at least five CPs. Each
/// round ends with the writers stopped, a group commit acknowledging
/// everything, a power cut, and a reopen from the raw device:
///
/// * every identity's liveness equals its writer's last operation — an
///   operation split by a CP's cut (one half in the runs, the entry counted
///   as covered; or the reverse) would be lost or applied twice;
/// * `recovered − applied` equals the ring entries at or below their
///   partition's frontier, counted independently from the device image;
/// * a second reopen (crash during recovery, no CP) changes nothing.
///
/// A writer removes an identity only after seeing the CP clock move past
/// its add: an add and a remove carrying the *same* CP stamp in different
/// runs is the unfenced-host hazard `BacklogEngine` documents, not what
/// this test is about.
#[test]
fn racing_writers_vs_cp_cut_recover_exactly() {
    use backlog::{JournalRing, WriteBatch};
    use blockdev::{FileId, PowerCutProfile, Superblock};
    use std::sync::Barrier;

    const WRITERS: usize = 3;
    const IDENTITIES: usize = 400;
    const ROUNDS: u64 = 10;
    const CPS_PER_ROUND: u64 = 5;
    const OPS_PER_ROUND: u64 = 3_000;
    let config = BacklogConfig::partitioned(4, 4_000)
        .without_timing()
        .with_journaling()
        .with_journal_ring_pages(1_024);
    let place = |w: usize, k: usize| {
        let block = ((3 * k + w) * 3) as u64; // disjoint across writers, all 4 partitions
        (block, Owner::block(1 + w as u64, k as u64, LineId::ROOT))
    };
    let device = SimDisk::new_shared(DeviceConfig::free_latency());
    device.set_write_cache(true);
    let mut engine = BacklogEngine::create_durable(device.clone(), config.clone()).unwrap();
    // Per writer and identity: `Some(cp)` while referenced, where `cp` is a
    // CP number at or above the add's stamp.
    let mut model: Vec<Vec<Option<u64>>> = vec![vec![None; IDENTITIES]; WRITERS];
    let (mut cps, mut covered_total) = (0u64, 0usize);

    for round in 0..ROUNDS {
        let stop = AtomicBool::new(false);
        let ops = AtomicU64::new(0);
        let start = Barrier::new(WRITERS + 1);
        std::thread::scope(|s| {
            for (w, state) in model.iter_mut().enumerate() {
                let (engine, stop, ops, start) = (&engine, &stop, &ops, &start);
                s.spawn(move || {
                    start.wait();
                    let mut k = w * 7;
                    while !stop.load(Ordering::Acquire) {
                        // Writer 2 batches sixteen operations; 0 and 1 are scalar.
                        let mut batch = WriteBatch::new();
                        let mut added = Vec::new();
                        let now = engine.current_cp();
                        for _ in 0..if w == 2 { 16 } else { 1 } {
                            k = (k + 1) % IDENTITIES;
                            let (block, owner) = place(w, k);
                            match state[k] {
                                None => {
                                    batch.add_reference(block, owner);
                                    added.push(k);
                                }
                                Some(cp) if cp < now => {
                                    batch.remove_reference(block, owner);
                                    state[k] = None;
                                }
                                Some(_) => {} // clock has not passed its add yet
                            }
                        }
                        match (w, batch.ops()) {
                            (2, _) => engine.apply(&batch),
                            (_, [backlog::RefOp::Add { block, owner }]) => {
                                engine.add_reference(*block, *owner)
                            }
                            (_, [backlog::RefOp::Remove { block, owner }]) => {
                                engine.remove_reference(*block, *owner)
                            }
                            _ => {}
                        }
                        let after = engine.current_cp();
                        for k in added {
                            state[k] = Some(after);
                        }
                        ops.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    }
                });
            }
            let _stop_writers = SetOnDrop(&stop);
            start.wait();
            let mut taken = 0;
            while taken < CPS_PER_ROUND || ops.load(Ordering::Relaxed) < OPS_PER_ROUND {
                engine.consistency_point().unwrap();
                taken += 1;
            }
            cps += taken;
        });
        let acked = engine.journal_sync().unwrap();
        drop(engine);
        device.power_cut(&PowerCutProfile::lose_all(round));

        // The device image, read independently of `open`: the frontier the
        // last durable CP recorded and the ring entries still live.
        let sb = Superblock::read_latest(&*device).unwrap().unwrap();
        let frontier = frontier_on_device(&device, &sb);
        assert_eq!(frontier.len(), 4);
        let scan = JournalRing::recover(
            device.clone(),
            FileId(sb.journal_file),
            sb.journal_start,
            sb.journal_pages,
            0,
            (sb.journal_tail_page, sb.journal_tail_seq),
            frontier.iter().copied().max().unwrap(),
        )
        .unwrap();
        let covered = scan
            .entries
            .iter()
            .filter(|(lsn, entry)| {
                let p = config.partitioning.partition_of(entry.op().block());
                *lsn <= frontier[p as usize]
            })
            .count();
        covered_total += covered;

        let mut reopened = BacklogEngine::open(device.clone(), config.clone()).unwrap();
        let rec = reopened.replay_recovered_journal().unwrap();
        let context = format!("round {round}, frontier {frontier:?}");
        assert!(rec.last_lsn >= acked, "{context}: acknowledged LSN lost");
        assert_eq!(rec.recovered, scan.entries.len(), "{context}");
        assert_eq!(rec.recovered - rec.applied, covered, "{context}");
        let check = |engine: &BacklogEngine, what: &str| {
            for (w, state) in model.iter().enumerate() {
                for (k, present) in state.iter().enumerate() {
                    let (block, owner) = place(w, k);
                    let want: Vec<Owner> = present.iter().map(|_| owner).collect();
                    assert_eq!(
                        engine.live_owners(block).unwrap(),
                        want,
                        "{context}, {what}: writer {w} identity {k} (block {block})"
                    );
                }
            }
        };
        check(&reopened, "after replay");
        // Crash during recovery: nothing was written, so nothing changes.
        drop(reopened);
        reopened = BacklogEngine::open(device.clone(), config.clone()).unwrap();
        assert_eq!(
            reopened.replay_recovered_journal().unwrap(),
            rec,
            "{context}"
        );
        check(&reopened, "after a second reopen");
        // Replay restamps what it applies with the reopened clock.
        let now = reopened.current_cp();
        for present in model.iter_mut().flatten().flatten() {
            *present = now;
        }
        engine = reopened;
    }
    assert!(cps >= 50, "{cps} CPs raced the writers");
    // Not asserted non-zero: whether a group commit lands between two
    // partitions' cuts is up to the scheduler. In release it does, in most
    // rounds.
    eprintln!("entries recovered below their partition's frontier: {covered_total}");
}
