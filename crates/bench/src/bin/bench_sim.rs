//! Runs the deterministic simulation seed matrix and measures scenario
//! throughput, emitting JSON (captured in `BENCH_sim.json` at the repo
//! root). Doubles as the CI sim gate: any failing scenario prints its
//! one-line `seed=…` reproduction to stderr and the process exits non-zero,
//! and CI fails when the `trace_fingerprint` differs from `BENCH_sim.json`'s.
//!
//! Run with `cargo run --release --bin bench_sim` (the full 256-seed matrix
//! CI runs); pass `--smoke` for a 32-seed subset.

use std::time::Instant;

use backlog_sim::run_matrix;
use obs::{validate_bench_report, BenchReport};

/// Base of the fixed matrix. Arbitrary but frozen: CI runs the same
/// schedules on every PR, so a regression in any of them bisects cleanly.
const SEED_BASE: u64 = 0xB10C_0000;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seeds: Vec<u64> = (0..if smoke { 32u64 } else { 256 })
        .map(|i| SEED_BASE + i * 7_919)
        .collect();

    let start = Instant::now();
    let report = run_matrix(&seeds);
    let wall_ns = start.elapsed().as_nanos() as u64;

    let failures = report.failures();
    if !failures.is_empty() {
        eprintln!("{} failing scenario(s):", failures.len());
        for outcome in &failures {
            eprintln!("  {}", outcome.repro_line());
            // The flight-recorder tail: the last events on the live engine
            // before the crash, oldest first.
            let tail = outcome.trace_timeline();
            if !tail.is_empty() {
                eprintln!("{tail}");
            }
        }
        std::process::exit(1);
    }

    // The matrix is only a recovery gate for the manifest log if CPs die
    // at both of its chain positions.
    assert!(
        report.mid_delta_cp_crashes() > 0 && report.mid_base_cp_crashes() > 0,
        "the matrix must crash CPs writing delta frames ({}) and base frames ({})",
        report.mid_delta_cp_crashes(),
        report.mid_base_cp_crashes()
    );

    // Fingerprint of every scenario's trace-event stream: events are
    // stamped by the deterministic tick clock, so this value is a pure
    // function of the seed list — any cross-run difference means the
    // simulator lost determinism with the recorder armed.
    let trace_fingerprint = report
        .outcomes
        .iter()
        .fold(0u64, |acc, o| acc.rotate_left(1) ^ o.trace_digest);
    let trace_events: u64 = report.outcomes.iter().map(|o| o.trace_events).sum();

    let scenarios = report.outcomes.len() as u64;
    let mut out = BenchReport::new("sim");
    out.config_bool("smoke", smoke);
    out.config_u64("seeds", scenarios);
    out.metrics.counter("scenarios", scenarios);
    out.metrics.counter("steps", report.total_steps());
    out.metrics
        .counter("mid_cp_crashes", report.mid_cp_crashes() as u64);
    out.metrics
        .counter("mid_delta_cp_crashes", report.mid_delta_cp_crashes() as u64);
    out.metrics
        .counter("mid_base_cp_crashes", report.mid_base_cp_crashes() as u64);
    out.metrics
        .counter("mid_commit_crashes", report.mid_commit_crashes() as u64);
    out.metrics.counter("torn_pages", report.torn_pages());
    out.metrics.counter("lost_pages", report.lost_pages());
    out.metrics.counter("trace_events", trace_events);
    out.metrics.counter("trace_fingerprint", trace_fingerprint);
    out.metrics.counter("wall_ns", wall_ns);
    out.metrics
        .gauge("scenarios_per_sec", scenarios as f64 * 1e9 / wall_ns as f64);

    let json = out.to_json();
    validate_bench_report(&json).expect("schema-valid bench report");
    println!("{json}");
}
