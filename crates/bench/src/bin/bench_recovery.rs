//! Measures crash-recovery reopen cost as the database grows and as the
//! manifest log fills, emitting JSON (captured in `BENCH_recovery.json` at
//! the repo root).
//!
//! Setup: a durable engine on a [`SimDisk`] ingests `records` references in
//! CP-sized batches (with one maintenance pass partway through, so the run
//! layout is realistic: merged runs plus Level-0 tails). The engine is then
//! brought to three positions in its manifest log, and at each one dropped
//! and rebuilt by [`BacklogEngine::open`] from raw device contents:
//!
//! * `fresh` — the log holds just a base frame (what every open read before
//!   the log existed: the full manifest);
//! * `mid` — deltas fill half of the room the reservation leaves them;
//! * `full` — the worst case: the reservation is full, the next CP would
//!   roll over. The log is at most twice its base, so this open reads at
//!   most about twice the pages of `base`.
//!
//! The interesting property is the *shape* of the reopen cost: recovery
//! reads the superblock and the log's valid prefix — run geometry, Bloom
//! filter bits and extent maps — but never a single run page, so reopen
//! wall-clock scales with the log (runs × Bloom bytes, plus the deltas),
//! not with the record count. The JSON reports base pages, delta frames and
//! delta pages per position so the relationship is visible.
//!
//! Every reopen is checked against the engine it replaces (run count, table
//! stats and a spot query), making the bench a cheap end-to-end recovery
//! smoke test for CI at all three chain positions.
//!
//! A fourth reopen per database size covers the *journaled* recovery: the
//! same ingest with journaling on, a tail of callbacks after the last CP
//! acknowledged by a group commit, a power cut, then `open` +
//! `replay_recovered_journal`. The bin asserts the whole recovery read the
//! superblock pair, the log's valid prefix and the ring pages holding live
//! groups (plus the one or two that end the scan) — **no run page** — that
//! replay itself read nothing, and that it
//! applied exactly the tail: recovery costs what the journal holds, not
//! what the database holds.
//!
//! Run with `cargo run --release --bin bench_recovery`; pass `--smoke` for
//! the tiny CI configuration.

use std::sync::Arc;
use std::time::Instant;

use backlog::{BacklogConfig, BacklogEngine, LineId, ManifestKind, Owner};
use blockdev::{Device, DeviceConfig, PowerCutProfile, SimDisk};
use obs::{validate_bench_report, BenchReport};

struct Config {
    partitions: u32,
    record_counts: &'static [u64],
    ops_per_cp: u64,
    opens: u32,
    /// Callbacks after the last CP of the journaled database.
    tail_ops: u64,
}

fn build_database(
    device: Arc<SimDisk>,
    config: BacklogConfig,
    cfg: &Config,
    records: u64,
) -> BacklogEngine {
    let engine = BacklogEngine::create_durable(device, config).expect("create_durable failed");
    let mut next_cp = cfg.ops_per_cp;
    for block in 0..records {
        engine.add_reference(block, Owner::block(1 + block % 13, block, LineId::ROOT));
        if block + 1 == next_cp {
            engine.consistency_point().expect("CP failed");
            next_cp += cfg.ops_per_cp;
        }
        if block == records / 2 {
            // Half-way maintenance: the reopened layout holds one merged run
            // per partition plus the Level-0 runs of later CPs.
            engine.maintenance().expect("maintenance failed");
        }
    }
    engine.consistency_point().expect("final CP failed");
    engine
}

/// The three tables' stats as a reopen must reproduce them: everything but
/// `index_bytes`, the fence keys *resident* right now — a reopened run loads
/// its own on its first lookup, `open` reads none.
fn durable_table_stats(engine: &BacklogEngine) -> [lsm::TableStats; 3] {
    let (from, to, combined) = engine.table_stats();
    [from, to, combined].map(|stats| lsm::TableStats {
        index_bytes: 0,
        ..stats
    })
}

/// The journaled reopen: ingest with journaling on, a synced tail after the
/// last CP, power cut, `open` + replay — measured, and bounded in-bin.
fn journaled_recovery(
    out: &mut BenchReport,
    cfg: &Config,
    config: BacklogConfig,
    records: u64,
    key: &str,
) {
    // Ring room for a whole CP interval's entries (49 B each), so the
    // ingest never leans on `JournalFull` backpressure.
    let config = config
        .with_journaling()
        .with_journal_ring_pages(cfg.ops_per_cp.div_ceil(64).max(64));
    let device = SimDisk::new_shared(DeviceConfig::free_latency());
    device.set_write_cache(true);
    let engine = build_database(device.clone(), config.clone(), cfg, records);
    assert_eq!(
        engine.journal_ring_stats().expect("journaling").live_groups,
        0,
        "a quiescent CP leaves the ring empty"
    );
    for i in 0..cfg.tail_ops {
        engine.add_reference((i * 7) % records, Owner::block(98, i, LineId::ROOT));
    }
    let acked = engine.journal_sync().expect("journal_sync failed");
    assert_eq!(acked, records + cfg.tail_ops, "LSNs count callbacks");
    let log_pages = engine.manifest_log().log_pages();
    let run_count = engine.run_count();
    drop(engine);
    device.power_cut(&PowerCutProfile::lose_all(records));

    let mut best_ns = u64::MAX;
    let (mut ring_pages_scanned, mut replay_pages_read, mut applied) = (0, 0, 0);
    for _ in 0..cfg.opens {
        // Replay writes nothing, so every iteration recovers the same image.
        let reads_before = device.stats().snapshot().page_reads;
        let start = Instant::now();
        let engine = BacklogEngine::open(device.clone(), config.clone()).expect("open failed");
        let reads_opened = device.stats().snapshot().page_reads;
        let rec = engine.replay_recovered_journal().expect("replay failed");
        best_ns = best_ns.min(start.elapsed().as_nanos() as u64);
        replay_pages_read = device.stats().snapshot().page_reads - reads_opened;
        let open_reads = reads_opened - reads_before;
        let ring = engine.journal_ring_stats().expect("journaling");
        // The superblock pair, the log's valid prefix, the ring's live
        // groups and the stale page that ends the scan (two when the scan
        // also retries at the ring start; none when the chain ends on a
        // never-written page) — nothing else, and in particular no run
        // page, however many runs there are.
        assert_eq!(replay_pages_read, 0, "replay is a filter: it reads no page");
        assert!(
            open_reads <= log_pages + ring.live_pages + 2 + 2,
            "open read {open_reads} pages: log {log_pages}, ring {}",
            ring.live_pages
        );
        assert_eq!(engine.run_count(), run_count);
        assert_eq!(
            (rec.recovered as u64, rec.applied as u64, rec.last_lsn),
            (cfg.tail_ops, cfg.tail_ops, acked),
            "exactly the tail"
        );
        ring_pages_scanned = open_reads - log_pages - 2;
        applied = rec.applied as u64;
    }
    let key = format!("{key}_journaled");
    out.metrics
        .counter(format!("{key}_runs"), u64::from(run_count));
    out.metrics.counter(format!("{key}_log_pages"), log_pages);
    out.metrics
        .counter(format!("{key}_ring_pages_scanned"), ring_pages_scanned);
    out.metrics
        .counter(format!("{key}_replay_pages_read"), replay_pages_read);
    out.metrics
        .counter(format!("{key}_replay_applied"), applied);
    out.metrics
        .gauge(format!("{key}_reopen_ms"), best_ns as f64 / 1e6);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        Config {
            partitions: 4,
            record_counts: &[5_000, 20_000],
            ops_per_cp: 4_000,
            opens: 2,
            tail_ops: 300,
        }
    } else {
        Config {
            partitions: 8,
            record_counts: &[50_000, 200_000, 800_000],
            ops_per_cp: 32_000,
            opens: 3,
            tail_ops: 3_000,
        }
    };

    let mut out = BenchReport::new("recovery");
    out.config_bool("smoke", smoke);
    out.config_u64("partitions", u64::from(cfg.partitions));
    out.config_u64("ops_per_cp", cfg.ops_per_cp);
    out.config_u64("opens", u64::from(cfg.opens));
    for &records in cfg.record_counts {
        let device = SimDisk::new_shared(DeviceConfig::free_latency());
        let config = BacklogConfig::partitioned(cfg.partitions, records).without_timing();
        let engine = build_database(device.clone(), config.clone(), &cfg, records);
        let db_bytes = engine.database_disk_bytes();
        let key = format!("recovery_{records}r_{}p", cfg.partitions);
        out.metrics.counter(format!("{key}_records"), records);
        out.metrics.counter(format!("{key}_db_bytes"), db_bytes);
        out.metrics
            .counter(format!("{key}_runs"), u64::from(engine.run_count()));
        drop(engine);

        // A reopened engine's first CP starts a new log with a base frame;
        // one-record CPs then append one-page deltas until the position's
        // share of the reservation is used.
        let mut engine = BacklogEngine::open(device.clone(), config.clone()).expect("open failed");
        let mut next_block = records;
        let mut tiny_cp = |engine: &BacklogEngine| {
            engine.add_reference(
                next_block % records,
                Owner::block(97, next_block, LineId::ROOT),
            );
            next_block += 1;
            engine.consistency_point().expect("CP failed")
        };
        let base = tiny_cp(&engine);
        assert_eq!(base.manifest_kind, Some(ManifestKind::Base));
        for position in ["fresh", "mid", "full"] {
            loop {
                let log = engine.manifest_log();
                let room = log.reserved_pages - log.base_pages;
                let want = match position {
                    "fresh" => 0,
                    "mid" => room / 2,
                    _ => room,
                };
                if log.delta_pages >= want {
                    break;
                }
                let report = tiny_cp(&engine);
                assert_eq!(
                    report.manifest_kind,
                    Some(ManifestKind::Delta),
                    "one-page deltas fill the reservation exactly"
                );
            }
            let log = engine.manifest_log();
            let run_count = engine.run_count();
            let want_stats = durable_table_stats(&engine);
            let spot_block = records / 3;
            let want_owners = engine.live_owners(spot_block).expect("query failed");
            drop(engine);

            // Reopen repeatedly; report the best wall-clock (the stable
            // floor — first iterations pay allocator warm-up) and the pages
            // recovery actually read.
            let mut best_ns = u64::MAX;
            let mut pages_read = 0u64;
            let mut reopened = None;
            for _ in 0..cfg.opens {
                let reads_before = device.stats().snapshot().page_reads;
                let start = Instant::now();
                let fresh =
                    BacklogEngine::open(device.clone(), config.clone()).expect("open failed");
                let elapsed = start.elapsed().as_nanos() as u64;
                pages_read = device.stats().snapshot().page_reads - reads_before;
                best_ns = best_ns.min(elapsed);
                // Recovery must be exact, every iteration, wherever in its
                // log the CP sits.
                assert_eq!(fresh.run_count(), run_count, "{position}: run count");
                assert_eq!(
                    durable_table_stats(&fresh),
                    want_stats,
                    "{position}: table stats"
                );
                assert_eq!(
                    fresh.live_owners(spot_block).expect("query failed"),
                    want_owners,
                    "{position}: spot query"
                );
                let read = fresh.manifest_log();
                assert_eq!(
                    (read.base_pages, read.delta_frames, read.delta_pages),
                    (log.base_pages, log.delta_frames, log.delta_pages),
                    "{position}: open decoded the log the engine wrote"
                );
                reopened = Some(fresh);
            }
            // The superblock pair, the log's valid prefix, nothing else.
            assert!(
                pages_read <= log.log_pages() + 2,
                "{position}: {pages_read}"
            );
            assert!(log.log_pages() <= 2 * log.base_pages.max(4));
            let key = format!("{key}_{position}");
            out.metrics
                .counter(format!("{key}_base_pages"), log.base_pages);
            out.metrics
                .counter(format!("{key}_delta_frames"), log.delta_frames);
            out.metrics
                .counter(format!("{key}_delta_pages"), log.delta_pages);
            out.metrics
                .counter(format!("{key}_runs"), u64::from(run_count));
            out.metrics.counter(format!("{key}_open_wall_ns"), best_ns);
            out.metrics
                .gauge(format!("{key}_open_ms"), best_ns as f64 / 1e6);
            // Carry on from the reopened engine. Its own first CP would be
            // a base again, so the chain is re-grown from the log it read:
            // the next position needs more deltas than this one had.
            engine = reopened.expect("at least one open");
            if position != "full" {
                let report = tiny_cp(&engine);
                assert_eq!(report.manifest_kind, Some(ManifestKind::Base));
            }
        }
        journaled_recovery(&mut out, &cfg, config, records, &key);
    }

    let json = out.to_json();
    validate_bench_report(&json).expect("schema-valid bench report");
    println!("{json}");
}
