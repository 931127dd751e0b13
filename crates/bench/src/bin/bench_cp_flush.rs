//! Emits consistency-point flush wall-clock vs. *device queue depth* as JSON
//! (captured in `BENCH_cp_flush.json` at the repo root).
//!
//! Setup: a durable partitioned engine on a [`SimDisk`] with uniform per-page
//! latency. The reference workload is loaded with latency emulation off; the
//! consistency point — three tables' per-partition run builds, the
//! manifest-log frame, the superblock flip — is timed with emulation *on*,
//! so every page write's modeled service time is real wall-clock time.
//!
//! This is the regime the async submit/completion device API targets: the CP
//! pipelines all of its writes through one in-flight queue and drains them
//! in a single wait before the pre-flip barrier, so its wall-clock is bounded
//! by `pages / queue_depth`, not `pages` — **queue depth ≈ speedup**, even
//! with a single flush thread. The bench pins that claim: at the same thread
//! count, depth 8 must beat depth 1 by at least 2× (the acceptance gate), and
//! the in-flight high-water mark must show the queue was actually used.
//!
//! Every configuration must also produce an identical `From` table — a cheap
//! determinism check for the async write path.
//!
//! Output is a `backscope-bench-v1` document (see `obs::report`): the
//! per-configuration wall clocks as counters, plus the engine's per-CP-phase
//! latency histograms (prepare/flush/barrier/flip/retire, p50/p99/max)
//! merged across every configuration.
//!
//! Run with `cargo run --release --bin bench_cp_flush`; pass `--smoke` for
//! the tiny CI configuration.

use std::sync::Arc;
use std::time::Instant;

use backlog::{BacklogConfig, BacklogEngine, LineId, Owner, WriteBatch};
use blockdev::{Device, DeviceConfig, LatencyModel, SimDisk, PAGE_SIZE};
use obs::{validate_bench_report, BenchReport, Histogram};

/// A uniform-latency device: every page access costs the same, no seek
/// penalty — the shape of a flash device where concurrent requests overlap
/// instead of fighting one head.
fn uniform_latency(ns_per_page: u64) -> LatencyModel {
    LatencyModel {
        seek_ns: 0,
        ns_per_byte: ns_per_page as f64 / PAGE_SIZE as f64,
        sequential_window: u64::MAX,
    }
}

struct Config {
    partitions: u32,
    /// Reference adds buffered before the timed CP.
    ops_per_round: u64,
    rounds: u64,
    ns_per_page: u64,
    depths: &'static [usize],
    thread_counts: &'static [usize],
    /// Required depth-max vs. depth-1 CP speedup at equal threads (0 = only
    /// report, don't gate — the smoke configuration).
    min_speedup: f64,
}

struct Measurement {
    cp_wall_ns: u64,
    cp_pages_written: u64,
    /// Of those, pages of manifest-log frames (delta frames here: each
    /// engine's base is written at creation).
    cp_manifest_pages: u64,
    max_in_flight: u64,
    completed_async_ops: u64,
    from_table: Vec<backlog::FromRecord>,
}

/// Per-CP-phase latency histograms merged across every configuration.
#[derive(Default)]
struct PhaseAgg {
    total: Histogram,
    prepare: Histogram,
    flush: Histogram,
    barrier: Histogram,
    flip: Histogram,
    retire: Histogram,
}

impl PhaseAgg {
    fn absorb(&self, engine: &BacklogEngine) {
        let o = engine.obs();
        self.total.merge_from(&o.cp_flush_ns);
        self.prepare.merge_from(&o.cp_phase_prepare);
        self.flush.merge_from(&o.cp_phase_flush);
        self.barrier.merge_from(&o.cp_phase_barrier);
        self.flip.merge_from(&o.cp_phase_flip);
        self.retire.merge_from(&o.cp_phase_retire);
    }
}

/// Loads the workload (emulation off), then times `rounds` durable CPs with
/// emulation on. Timing is left enabled so the engine's CP-phase histograms
/// capture real wall-clock nanoseconds; `agg` accumulates them.
fn run(cfg: &Config, depth: usize, threads: usize, agg: &PhaseAgg) -> Measurement {
    let block_space = cfg.ops_per_round * cfg.rounds;
    let disk = SimDisk::new_shared(
        DeviceConfig::free_latency()
            .with_latency(uniform_latency(cfg.ns_per_page))
            .with_queue_depth(depth),
    );
    let engine = BacklogEngine::create_durable(
        disk.clone() as Arc<dyn Device>,
        BacklogConfig::partitioned(cfg.partitions, block_space).with_cp_flush_threads(threads),
    )
    .expect("durable create");
    let mut cp_wall_ns = 0u64;
    let mut cp_pages = 0u64;
    let mut cp_manifest_pages = 0u64;
    for round in 0..cfg.rounds {
        let mut batch = WriteBatch::with_capacity(256);
        for i in 0..cfg.ops_per_round {
            let block = round * cfg.ops_per_round + i;
            // Owner derived from the block alone so every configuration
            // builds the identical table.
            batch.add_reference(block, Owner::block(1 + block % 7, block, LineId::ROOT));
            if batch.len() == 256 {
                engine.apply(&batch);
                batch.clear();
            }
        }
        engine.apply(&batch);
        disk.set_latency_emulation(true);
        let t = Instant::now();
        let report = engine.consistency_point().expect("CP flush failed");
        cp_wall_ns += t.elapsed().as_nanos() as u64;
        disk.set_latency_emulation(false);
        cp_pages += report.pages_written;
        cp_manifest_pages += report.manifest_pages;
    }
    let snap = disk.stats().snapshot();
    // Guard against the CP silently falling back to the sync submit-then-wait
    // shim: at depth > 1 the flush must actually overlap submits.
    if depth > 1 {
        assert!(
            snap.max_in_flight >= 2,
            "depth {depth}, {threads}t: CP never overlapped submits \
             (max_in_flight {})",
            snap.max_in_flight
        );
        assert!(
            snap.completed_async_ops > 0,
            "depth {depth}, {threads}t: no completion retired while another \
             was in flight"
        );
    }
    agg.absorb(&engine);
    Measurement {
        cp_wall_ns,
        cp_pages_written: cp_pages,
        cp_manifest_pages,
        max_in_flight: snap.max_in_flight,
        completed_async_ops: snap.completed_async_ops,
        from_table: engine.from_table().scan_disk().expect("scan failed"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        Config {
            partitions: 4,
            ops_per_round: 1_000,
            rounds: 1,
            ns_per_page: 200_000,
            depths: &[1, 4],
            thread_counts: &[1],
            min_speedup: 0.0,
        }
    } else {
        Config {
            partitions: 4,
            ops_per_round: 2_000,
            rounds: 2,
            ns_per_page: 400_000,
            depths: &[1, 4, 8],
            thread_counts: &[1, 2],
            min_speedup: 2.0,
        }
    };

    let mut report = BenchReport::new("cp_flush");
    report.config_bool("smoke", smoke);
    report.config_u64("partitions", u64::from(cfg.partitions));
    report.config_u64("ops_per_round", cfg.ops_per_round);
    report.config_u64("rounds", cfg.rounds);
    report.config_u64("ns_per_page", cfg.ns_per_page);
    report.config_f64("min_speedup", cfg.min_speedup);

    let agg = PhaseAgg::default();
    let mut reference: Option<Vec<backlog::FromRecord>> = None;
    for &threads in cfg.thread_counts {
        let mut depth1_ns = 0u64;
        let mut deepest: Option<(usize, u64)> = None;
        for &depth in cfg.depths {
            let m = run(&cfg, depth, threads, &agg);
            if depth == 1 {
                depth1_ns = m.cp_wall_ns;
            }
            deepest = Some((depth, m.cp_wall_ns));
            // Determinism check: every (depth, threads) pair produces the
            // same table.
            match &reference {
                None => reference = Some(m.from_table),
                Some(r) => assert_eq!(*r, m.from_table, "configurations diverged"),
            }
            let key = format!("cp_flush_d{depth}_{threads}t");
            report
                .metrics
                .counter(format!("{key}_wall_ns"), m.cp_wall_ns);
            report
                .metrics
                .counter(format!("{key}_pages_written"), m.cp_pages_written);
            report.metrics.gauge(
                format!("{key}_manifest_pages_per_cp"),
                m.cp_manifest_pages as f64 / cfg.rounds as f64,
            );
            report.metrics.gauge(
                format!("{key}_speedup_vs_d1"),
                depth1_ns as f64 / m.cp_wall_ns as f64,
            );
            report
                .metrics
                .gauge(format!("{key}_max_in_flight"), m.max_in_flight as f64);
            report
                .metrics
                .counter(format!("{key}_completed_async_ops"), m.completed_async_ops);
        }
        if cfg.min_speedup > 0.0 {
            let (depth, deep_ns) = deepest.expect("at least one depth ran");
            let speedup = depth1_ns as f64 / deep_ns as f64;
            assert!(
                speedup >= cfg.min_speedup,
                "{threads}t: depth {depth} CP speedup {speedup:.2}x is below \
                 the {:.1}x gate",
                cfg.min_speedup
            );
        }
    }

    // Per-CP-phase latency distributions, merged across configurations.
    report.metrics.histogram("backlog_cp_flush_ns", &agg.total);
    report
        .metrics
        .histogram("backlog_cp_phase_prepare_ns", &agg.prepare);
    report
        .metrics
        .histogram("backlog_cp_phase_flush_ns", &agg.flush);
    report
        .metrics
        .histogram("backlog_cp_phase_barrier_ns", &agg.barrier);
    report
        .metrics
        .histogram("backlog_cp_phase_flip_ns", &agg.flip);
    report
        .metrics
        .histogram("backlog_cp_phase_retire_ns", &agg.retire);

    let json = report.to_json();
    validate_bench_report(&json).expect("schema-valid bench report");
    println!("{json}");
}
