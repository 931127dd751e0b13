//! `backscope` — pretty-print a live engine's unified metrics registry
//! and render a span-timeline from its flight recorder.
//!
//! The tool builds a durable journaled engine, drives a representative
//! workload through every instrumented path (reference callbacks, batch
//! applies, group commits, consistency points, queries, maintenance),
//! then reports what the observability layer captured:
//!
//! * the full metrics registry (`BacklogEngine::metrics`) — every engine
//!   counter, device counter and histogram, journal-ring gauge, and the
//!   latency histogram family — as aligned text, or as the registry JSON
//!   export with `--json`;
//! * with `--timeline`, the flight-recorder dump rendered as an indented
//!   span timeline (one line per event, `[tick lane] name`, nested spans
//!   indented under their parents).
//!
//! Flags: `--smoke` shrinks the workload for CI; `--json` emits the
//! registry JSON export on stdout (the CI smoke job parses it and checks
//! the required metric families are present); `--timeline` appends the
//! rendered trace; `--last <n>` limits the timeline to the final `n`
//! events (default 64).
//!
//! Run with `cargo run --release --bin backscope -- --smoke --json`.

use backlog::{BacklogConfig, BacklogEngine, LineId, Owner, WriteBatch};
use blockdev::{DeviceConfig, SimDisk};
use obs::Json;

/// Metric families the JSON export must always carry; the CI smoke job
/// re-checks the same list after parsing.
const REQUIRED_FAMILIES: &[&str] = &[
    "backlog_engine_block_ops_total",
    "backlog_engine_refs_added_total",
    "backlog_device_page_writes_total",
    "backlog_device_service_ns",
    "backlog_device_lock_wait_ns",
    "backlog_journal_pending_entries",
    "backlog_journal_ring_live_pages",
    "backlog_journal_frontier_lag",
    "backlog_manifest_base_pages_total",
    "backlog_manifest_delta_pages_total",
    "backlog_manifest_rollovers_total",
    "backlog_manifest_log_pages",
    "backlog_callback_ns",
    "backlog_cp_flush_ns",
    "backlog_cp_phase_prepare_ns",
    "backlog_cp_phase_flush_ns",
    "backlog_cp_phase_barrier_ns",
    "backlog_cp_phase_flip_ns",
    "backlog_cp_phase_retire_ns",
    "backlog_maintenance_ns",
    "backlog_query_ns",
    "backlog_group_commit_ns",
    "backlog_trace_events_dropped_total",
];

/// Builds a durable journaled engine and pushes a workload through every
/// instrumented path so the registry and the recorder have something to
/// show — including recovery: half-way through, the process "dies" with an
/// acknowledged journal tail behind the last CP, and the engine the rest of
/// the workload runs on (the one returned) is the one `open` +
/// `replay_recovered_journal` rebuilt, so its flight recorder covers open →
/// ring scan → replay → serve.
fn exercised_engine(ops: u64) -> BacklogEngine {
    let disk = SimDisk::new_shared(DeviceConfig::free_latency());
    let config = BacklogConfig::partitioned(4, ops.max(1))
        .with_journaling()
        .with_journal_group_size(32);
    let owner = |block: u64| Owner::block(1 + block % 7, block, LineId::ROOT);
    let drive = |engine: &BacklogEngine, blocks: std::ops::Range<u64>| {
        let mut batch = WriteBatch::with_capacity(64);
        for block in blocks {
            if block % 3 == 0 {
                engine.add_reference(block, owner(block));
            } else {
                batch.add_reference(block, owner(block));
                if batch.len() == 64 {
                    engine.apply(&batch);
                    batch.clear();
                }
            }
            if block > 0 && block % (ops / 4).max(1) == 0 {
                engine.consistency_point().expect("consistency point");
            }
        }
        engine.apply(&batch);
    };
    let engine = BacklogEngine::create_durable(disk.clone(), config.clone())
        .expect("durable create on a fresh device");
    // Whatever followed the first half's last CP is only in the journal.
    drive(&engine, 0..ops / 2);
    engine.journal_sync().expect("group commit");
    drop(engine);
    let engine = BacklogEngine::open(disk, config).expect("reopen from the raw device");
    let recovery = engine.replay_recovered_journal().expect("journal replay");
    assert_eq!(recovery.recovered, recovery.applied, "exact truncation");

    drive(&engine, ops / 2..ops);
    engine.journal_sync().expect("group commit");
    engine.consistency_point().expect("consistency point");
    for block in (0..ops).step_by(97) {
        engine.live_owners(block).expect("query");
    }
    engine.maintenance().expect("maintenance");
    // A few callbacks past the last CP, so the journal gauges read non-zero.
    drive(&engine, ops..ops + 40);
    engine.journal_sync().expect("group commit");
    engine
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let timeline = args.iter().any(|a| a == "--timeline");
    let last = args
        .iter()
        .position(|a| a == "--last")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(64);

    let ops = if smoke { 2_000 } else { 50_000 };
    let engine = exercised_engine(ops);
    let metrics = engine.metrics();

    if json {
        let export = metrics.to_json();
        let doc = Json::parse(&export).expect("registry JSON export parses");
        for family in REQUIRED_FAMILIES {
            assert!(
                doc.get(family).is_some(),
                "registry export is missing required family {family}"
            );
        }
        println!("{export}");
    } else {
        print!("{}", metrics.to_text());
    }

    if timeline {
        let dump = engine.obs().recorder().dump();
        let tail = dump.last_n(last);
        eprintln!(
            "# trace: {} events captured, {} dropped, digest 0x{:016x}; last {}:",
            dump.events.len(),
            dump.dropped,
            dump.digest(),
            tail.events.len(),
        );
        eprint!("{}", tail.render());
    }
}
