//! Emits wall-clock numbers for parallel partition maintenance as JSON
//! (captured in `BENCH_maintenance_parallel.json` at the repo root).
//!
//! Setup: the standard maintenance database ([`backlog_bench::maintenance_db`]
//! workload) on a [`SimDisk`] with *real-time latency emulation* — every page
//! access parks the calling thread for a uniform per-page cost, modeling a
//! device (SSD / NVMe / RAID) whose independent requests can overlap. This is
//! the regime parallel maintenance targets: the per-partition rebuilds are
//! I/O-latency-bound, so fanning them across worker threads overlaps their
//! device waits and the wall clock drops near-linearly until partitions run
//! out. (On a single seek-bound spindle the win is bounded by head
//! contention instead; the simulated clock experiments cover that regime.)
//!
//! Reported per thread count: maintenance wall time, speedup vs 1 thread, and
//! the file-store allocation-lock contention counter. A final phase measures
//! query throughput *while* a 4-thread rebuild is in flight: reader threads
//! hammer `query_block` against the pre-rebuild snapshots and the JSON
//! records how many queries completed mid-rebuild (must be non-zero — the
//! old read path would have blocked them until maintenance finished).
//!
//! Run with `cargo run --release --bin bench_maintenance_parallel`; pass
//! `--smoke` for the tiny CI configuration (2 partitions, 2 threads).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use backlog::{BacklogEngine, MaintenancePlan};
use backlog_bench::{maintenance_db_config, maintenance_db_on};
use blockdev::{Device, DeviceConfig, FileStore, LatencyModel, SimDisk, PAGE_SIZE};
use obs::{validate_bench_report, BenchReport};

/// A uniform-latency device: every page access costs the same, no seek
/// penalty — the shape of a flash device or striped array where concurrent
/// requests overlap instead of fighting one head.
fn uniform_latency(ns_per_page: u64) -> LatencyModel {
    LatencyModel {
        seek_ns: 0,
        ns_per_byte: ns_per_page as f64 / PAGE_SIZE as f64,
        sequential_window: u64::MAX,
    }
}

struct Setup {
    disk: Arc<SimDisk>,
    engine: BacklogEngine,
}

/// Builds the workload at memory speed, then arms latency emulation so only
/// the measured maintenance/query phases pay (and overlap) device waits.
fn setup(live: u64, dead: u64, partitions: u32, ns_per_page: u64) -> Setup {
    let disk = SimDisk::new_shared(
        DeviceConfig::free_latency().with_latency(uniform_latency(ns_per_page)),
    );
    let files = Arc::new(FileStore::new(disk.clone()));
    let engine = BacklogEngine::new(files, maintenance_db_config(live, dead, partitions));
    let engine = maintenance_db_on(engine, live, dead);
    disk.set_latency_emulation(true);
    Setup { disk, engine }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke mode keeps CI runs in the hundreds of milliseconds; the full run
    // uses 1 ms per page so maintenance is solidly latency-bound.
    let (live, dead, partitions, ns_per_page, thread_counts): (u64, u64, u32, u64, &[usize]) =
        if smoke {
            (2_000, 1_000, 2, 200_000, &[1, 2])
        } else {
            (20_000, 10_000, 8, 1_000_000, &[1, 2, 4])
        };

    let mut out = BenchReport::new("maintenance_parallel");
    out.config_bool("smoke", smoke);
    out.config_u64("live", live);
    out.config_u64("dead", dead);
    out.config_u64("partitions", u64::from(partitions));
    out.config_u64("ns_per_page", ns_per_page);

    let mut serial_ns = 0u64;
    let mut reference: Option<(Vec<_>, Vec<_>)> = None;
    for &threads in thread_counts {
        let Setup { disk, engine } = setup(live, dead, partitions, ns_per_page);
        let contention_before = disk.stats().snapshot().lock_contentions;
        let t = Instant::now();
        let report = engine
            .maintain(MaintenancePlan::full().with_threads(threads))
            .expect("maintenance failed")
            .expect("a full plan selects every partition");
        let wall_ns = t.elapsed().as_nanos() as u64;
        disk.set_latency_emulation(false);
        let contentions = disk.stats().snapshot().lock_contentions - contention_before;
        if threads == 1 {
            serial_ns = wall_ns;
        }
        // Every thread count must produce the identical database.
        let tables = (
            engine.from_table().scan_disk().expect("scan"),
            engine.combined_table().scan_disk().expect("scan"),
        );
        match &reference {
            None => reference = Some(tables),
            Some(r) => assert_eq!(*r, tables, "thread counts diverged"),
        }
        let key = format!("maintenance_{partitions}p_{threads}t");
        out.metrics
            .counter(format!("{key}_records_processed"), live + 2 * dead);
        out.metrics.counter(format!("{key}_wall_ns"), wall_ns);
        out.metrics.gauge(
            format!("{key}_speedup_vs_1t"),
            serial_ns as f64 / wall_ns as f64,
        );
        out.metrics
            .counter(format!("{key}_purged_records"), report.purged_records);
        out.metrics
            .counter(format!("{key}_combined_records"), report.combined_records);
        out.metrics
            .counter(format!("{key}_filestore_lock_contentions"), contentions);
        // The per-partition rebuild-pass distribution and the device's
        // contended-lock wait distribution, both stamped by the engine's
        // observability clock and named after its unit (`ticks` here: the
        // bench database is built `without_timing`).
        let unit = engine.obs().unit();
        out.metrics.histogram_snapshot(
            format!("backlog_maintenance_partition_{unit}_{threads}t"),
            engine.obs().maintenance_partition_ns.snapshot(),
        );
        out.metrics.histogram_snapshot(
            format!("backlog_device_lock_wait_{unit}_{threads}t"),
            disk.stats().lock_wait_ns(),
        );
    }

    // Query throughput while a rebuild is in flight: readers on their own
    // threads, maintenance fanned out on `max threads`, everyone paying
    // emulated device latency.
    let concurrent_threads = *thread_counts.last().expect("thread counts");
    let Setup { disk, engine } = setup(live, dead, partitions, ns_per_page);
    let in_flight = AtomicBool::new(true);
    let during = AtomicU64::new(0);
    let mut maintenance_ns = 0u64;
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let engine = &engine;
                let in_flight = &in_flight;
                let during = &during;
                s.spawn(move || {
                    let mut block = 17 + r * 991;
                    while in_flight.load(Ordering::Relaxed) {
                        let result = engine.query_block(block % (live + dead)).expect("query");
                        drop(result);
                        during.fetch_add(1, Ordering::Relaxed);
                        block += 6_151; // coprime stride over the block space
                    }
                })
            })
            .collect();
        let t = Instant::now();
        engine
            .maintain(MaintenancePlan::full().with_threads(concurrent_threads))
            .expect("maintenance failed");
        maintenance_ns = t.elapsed().as_nanos() as u64;
        in_flight.store(false, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
    });
    disk.set_latency_emulation(false);
    let queries_during = during.load(Ordering::Relaxed);
    assert!(
        queries_during > 0,
        "queries must proceed while the rebuild is in flight"
    );
    let key = format!("queries_during_{concurrent_threads}t_rebuild");
    out.metrics
        .counter(format!("{key}_queries_completed"), queries_during);
    out.metrics
        .counter(format!("{key}_rebuild_wall_ns"), maintenance_ns);
    out.metrics.gauge(
        format!("{key}_queries_per_sec"),
        queries_during as f64 * 1e9 / maintenance_ns as f64,
    );

    let json = out.to_json();
    validate_bench_report(&json).expect("schema-valid bench report");
    println!("{json}");
}
