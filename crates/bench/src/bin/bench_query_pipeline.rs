//! Emits the before/after numbers for the PR 1 query-pipeline rewrite as
//! JSON (captured in `BENCH_query_pipeline.json` at the repo root).
//!
//! "before" is the quadratic reference implementation preserved in
//! `backlog::query::reference`; "after" is the shipping implementation.
//! Sizes follow the acceptance criteria: 10k identities for the join,
//! 8-deep clone chains and 64-wide fan-out for inheritance, plus
//! `SimDisk` page-read counts demonstrating that narrow streaming queries
//! do not scan whole runs (asserted in-bin: a point query over a 500k-record
//! run reads exactly one page).
//!
//! Run with `cargo run --release --bin bench_query_pipeline`.

use std::sync::Arc;
use std::time::Instant;

use backlog::query::{self, reference};
use backlog::{
    CombinedRecord, FromRecord, LineId, LineageTable, Owner, RefIdentity, ToRecord, CP_INFINITY,
};
use blockdev::Device;
use lsm::{LsmTable, Record, TableConfig};
use obs::{validate_bench_report, BenchReport};

fn ident(block: u64, inode: u64, line: u32) -> RefIdentity {
    RefIdentity::new(block, Owner::block(inode, 0, LineId(line)))
}

/// Median wall-clock nanoseconds of `f` over `samples` runs.
fn median_ns<R>(samples: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn join_input(identities: u64, churn: u64) -> (Vec<FromRecord>, Vec<ToRecord>) {
    let mut froms = Vec::new();
    let mut tos = Vec::new();
    for i in 0..identities {
        let id = ident(i, i % 512, 0);
        for round in 0..churn {
            let cp = 1 + round * 3;
            froms.push(FromRecord::new(id, cp));
            if round + 1 < churn {
                tos.push(ToRecord::new(id, cp + 2));
            }
        }
    }
    froms.sort_unstable();
    tos.sort_unstable();
    (froms, tos)
}

fn inheritance_input(
    depth: u32,
    fan_out: u32,
    identities: u64,
) -> (Vec<CombinedRecord>, LineageTable) {
    let mut lineage = LineageTable::new();
    for _ in 0..9 {
        lineage.advance_cp();
    }
    let root_snap = lineage.take_snapshot(LineId::ROOT);
    let mut parent = root_snap;
    for _ in 0..depth {
        let clone = lineage.create_clone(parent);
        lineage.advance_cp();
        parent = lineage.take_snapshot(clone);
    }
    for _ in 0..fan_out {
        lineage.create_clone(root_snap);
    }
    let initial: Vec<CombinedRecord> = (0..identities)
        .map(|i| CombinedRecord::new(ident(i, i % 64, 0), 5, CP_INFINITY))
        .collect();
    (initial, lineage)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Rec(u64, u64);
impl Record for Rec {
    const ENCODED_LEN: usize = 16;
    fn encode(&self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.0.to_be_bytes());
        buf[8..16].copy_from_slice(&self.1.to_be_bytes());
    }
    fn decode(buf: &[u8]) -> Self {
        Rec(
            u64::from_be_bytes(buf[..8].try_into().unwrap()),
            u64::from_be_bytes(buf[8..16].try_into().unwrap()),
        )
    }
    fn partition_key(&self) -> u64 {
        self.0
    }
}

fn main() {
    let samples = 9;
    let mut out = BenchReport::new("query_pipeline");
    out.config_u64("samples", samples as u64);

    for (label, identities, churn) in [
        ("join_10k_identities_x8", 10_000u64, 8u64),
        ("join_1k_hot_blocks_x64", 1_000, 64),
    ] {
        let (froms, tos) = join_input(identities, churn);
        let after = median_ns(samples, || query::join_from_to(&froms, &tos));
        let before = median_ns(samples, || reference::join_from_to(&froms, &tos));
        assert_eq!(
            query::join_from_to(&froms, &tos),
            reference::join_from_to(&froms, &tos),
            "implementations must agree"
        );
        out.metrics
            .counter(format!("{label}_records"), (froms.len() + tos.len()) as u64);
        out.metrics.counter(format!("{label}_before_ns"), before);
        out.metrics.counter(format!("{label}_after_ns"), after);
        out.metrics
            .gauge(format!("{label}_speedup"), before as f64 / after as f64);
    }

    for (label, depth, fan_out, ids) in [
        ("inheritance_chain8_200ids", 8u32, 0u32, 200u64),
        ("inheritance_fanout64_200ids", 1, 64, 200),
    ] {
        let (initial, lineage) = inheritance_input(depth, fan_out, ids);
        let after = median_ns(samples, || {
            query::expand_inheritance(initial.clone(), &lineage)
        });
        let before = median_ns(samples, || {
            reference::expand_inheritance(initial.clone(), &lineage)
        });
        assert_eq!(
            query::expand_inheritance(initial.clone(), &lineage),
            reference::expand_inheritance(initial.clone(), &lineage),
            "implementations must agree"
        );
        out.metrics.counter(format!("{label}_initial_records"), ids);
        out.metrics.counter(format!("{label}_before_ns"), before);
        out.metrics.counter(format!("{label}_after_ns"), after);
        out.metrics
            .gauge(format!("{label}_speedup"), before as f64 / after as f64);
    }

    // Streaming query I/O: page reads for a point query against one large
    // run vs. the full scan (the quantity the old code's per-run
    // materialization hid behind `Vec` allocations is the same; the I/O
    // bound below is what the regression test in lsm::store locks in).
    {
        let disk = blockdev::SimDisk::new_shared(blockdev::DeviceConfig::free_latency());
        let files = Arc::new(blockdev::FileStore::new(disk.clone()));
        let table: LsmTable<Rec> = LsmTable::new(files, TableConfig::named("bench"));
        for i in 0..500_000u64 {
            table.insert(Rec(i, i));
        }
        table.flush_cp().expect("flush failed");
        let before_reads = disk.stats().snapshot().page_reads;
        table.query_range(250_000, 250_000).expect("query failed");
        let point_reads = disk.stats().snapshot().page_reads - before_reads;
        assert_eq!(
            point_reads, 1,
            "a point query reads the one leaf its run's resident fence keys name"
        );
        let before_reads = disk.stats().snapshot().page_reads;
        table.scan_all().expect("scan failed");
        let scan_reads = disk.stats().snapshot().page_reads - before_reads;
        let point_ns = median_ns(samples, || table.query_range(250_000, 250_000));
        out.metrics.counter(
            "streaming_point_query_500k_run_point_query_page_reads",
            point_reads,
        );
        out.metrics.counter(
            "streaming_point_query_500k_run_full_scan_page_reads",
            scan_reads,
        );
        out.metrics
            .counter("streaming_point_query_500k_run_point_query_ns", point_ns);
    }

    let json = out.to_json();
    validate_bench_report(&json).expect("schema-valid bench report");
    println!("{json}");
}
