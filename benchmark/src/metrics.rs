//! The named metrics: what `BENCHMARK.json` lists, computed from an
//! [`Outcome`].

use crate::queries::PROBE_EVERY;
use crate::stats::{median, percentile};
use crate::suite::Outcome;
use crate::trace::{totals, Kind};

/// How a metric behaves when the same seed runs twice on the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A count made by the program in a single-threaded phase: repeats to
    /// within 0.1 % (not 0: `fsim` flushes dirty lines in `HashMap` order,
    /// which moves a block number now and then).
    Exact,
    /// A count of page reads: repeats to within 1 % (the prototype saw
    /// 59 866–59 927 reads across identical single-threaded query phases).
    NearExact,
    /// A wall-clock time.
    Timing,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name in `BENCHMARK.json` and in the output.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median it may worsen by before a change is
    /// rejected (all are lower-is-better).
    pub bound: f64,
    /// Repeatability class (audited by `--check-repeat`).
    pub class: Class,
    /// Paper figure it reproduces, if any, and what it is.
    pub what: &'static str,
}

/// The end-to-end metrics, in output order.
pub const END_TO_END: [EndToEnd; 16] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        class: Class::Timing,
        what: "set-up before the timed section (median of 3 builds)",
    },
    EndToEnd {
        name: "write_us_per_op",
        unit: "us",
        bound: 0.25,
        class: Class::Timing,
        what: "Fig. 5/7 right: (callback replay + consistency_point time) / block ops",
    },
    EndToEnd {
        name: "write_pages_per_op",
        unit: "pages",
        bound: 0.08,
        class: Class::Exact,
        what: "Fig. 5/7 left: device page writes during replay + CP / block ops",
    },
    EndToEnd {
        name: "write_barriers_per_kop",
        unit: "count",
        bound: 0.08,
        class: Class::Exact,
        what: "write barriers (device flushes) during replay + CP per 1 000 block ops",
    },
    EndToEnd {
        name: "cp_ms_p50",
        unit: "ms",
        bound: 0.25,
        class: Class::Timing,
        what: "median consistency_point call",
    },
    EndToEnd {
        name: "cp_ms_p90",
        unit: "ms",
        bound: 0.25,
        class: Class::Timing,
        what: "p90 consistency_point call",
    },
    EndToEnd {
        name: "maint_s",
        unit: "s",
        bound: 0.25,
        class: Class::Timing,
        what: "total time in maintenance calls",
    },
    EndToEnd {
        name: "space_pct_peak",
        unit: "%",
        bound: 0.20,
        class: Class::Exact,
        what: "Fig. 6/8: max over samples of database bytes / physical data bytes",
    },
    EndToEnd {
        name: "space_pct_settled",
        unit: "%",
        bound: 0.10,
        class: Class::Exact,
        what: "Fig. 6/8: the same ratio after the last maintenance pass",
    },
    EndToEnd {
        name: "point_us_p50",
        unit: "us",
        bound: 0.25,
        class: Class::Timing,
        what: "Fig. 9/10: median point query, aged database (mixed_2t: under write load)",
    },
    EndToEnd {
        name: "point_us_p95",
        unit: "us",
        bound: 0.25,
        class: Class::Timing,
        what: "p95 of the same",
    },
    EndToEnd {
        name: "range_us_per_kblock",
        unit: "us",
        bound: 0.25,
        class: Class::Timing,
        what: "Fig. 9: median 1 024-block range query, aged database",
    },
    EndToEnd {
        name: "point_us_p50_compact",
        unit: "us",
        bound: 0.25,
        class: Class::Timing,
        what: "Fig. 9/10: median point query after the full maintenance pass",
    },
    EndToEnd {
        name: "range_us_per_kblock_compact",
        unit: "us",
        bound: 0.25,
        class: Class::Timing,
        what: "Fig. 9: median 1 024-block range query after the full maintenance pass",
    },
    EndToEnd {
        name: "point_pages_per_q",
        unit: "pages",
        bound: 0.08,
        class: Class::NearExact,
        what: "device page reads per point query, aged database",
    },
    EndToEnd {
        name: "reopen_ms",
        unit: "ms",
        bound: 0.25,
        class: Class::Timing,
        what: "open + replay_recovered_journal after the power cut",
    },
];

fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// The end-to-end metric values of one run, in [`END_TO_END`] order.
pub fn end_to_end(out: &Outcome) -> Vec<f64> {
    let w = &out.write;
    let ops = w.ops.max(1) as f64;
    let cp = sorted(&w.cp_ns);
    let cp_total: u64 = w.cp_ns.iter().sum();
    // Under write load where there is a query client, else on the aged
    // database at rest.
    let point = sorted(out.client.as_ref().unwrap_or(&out.aged).point_latencies());
    let aged_range = sorted(out.aged.range_latencies());
    let compact_range = sorted(out.compact.range_latencies());
    let compact_point = sorted(out.compact.point_latencies());
    vec![
        median(&mut out.setup_s.clone()),
        (w.callback_ns + cp_total) as f64 / 1e3 / ops,
        w.pages_written as f64 / ops,
        w.barriers as f64 * 1e3 / ops,
        percentile(&cp, 0.5) as f64 / 1e6,
        percentile(&cp, 0.9) as f64 / 1e6,
        out.maint.ns as f64 / 1e9,
        out.space_pct_peak,
        out.space_pct_settled,
        percentile(&point, 0.5) as f64 / 1e3,
        percentile(&point, 0.95) as f64 / 1e3,
        percentile(&aged_range, 0.5) as f64 / 1e3,
        percentile(&compact_point, 0.5) as f64 / 1e3,
        percentile(&compact_range, 0.5) as f64 / 1e3,
        out.aged.point_page_reads as f64 / out.aged.points_issued.max(1) as f64,
        (out.open_ns + out.replay_ns) as f64 / 1e6,
    ]
}

/// One per-layer metric: (name, unit, better).
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The per-layer metrics, in output order. The layer is the name's prefix.
pub const PER_LAYER: [PerLayer; 60] = [
    ("fsim.harness_s", "s", "lower"),
    ("fsim.block_ops", "count", "higher"),
    ("fsim.cps", "count", "higher"),
    ("core.callback_s", "s", "lower"),
    ("core.callback_ops", "count", "higher"),
    ("core.persistent_ratio", "ratio", "lower"),
    ("core.cp_s", "s", "lower"),
    ("core.cp_count", "count", "higher"),
    ("core.cp_phase_prepare_s", "s", "lower"),
    ("core.cp_phase_flush_s", "s", "lower"),
    ("core.cp_phase_barrier_s", "s", "lower"),
    ("core.cp_phase_flip_s", "s", "lower"),
    ("core.cp_phase_retire_s", "s", "lower"),
    ("core.group_commit_s", "s", "lower"),
    ("core.group_commit_count", "count", "lower"),
    ("core.maint_s", "s", "lower"),
    ("core.maint_passes", "count", "lower"),
    ("core.query_s", "s", "lower"),
    ("core.query_join_s", "s", "lower"),
    ("core.range_query_s", "s", "lower"),
    ("core.lock_contentions", "count", "lower"),
    ("core.lock_wait_s", "s", "lower"),
    ("core.open_s", "s", "lower"),
    ("core.replay_s", "s", "lower"),
    ("core.replayed_entries", "count", "lower"),
    ("lsm.query_s", "s", "lower"),
    ("lsm.runs_peak", "count", "lower"),
    ("lsm.bloom_bytes", "bytes", "lower"),
    ("lsm.runs_created", "count", "lower"),
    ("lsm.records_flushed", "count", "lower"),
    ("lsm.runs_merged", "count", "higher"),
    ("lsm.records_combined", "count", "higher"),
    ("lsm.records_purged", "count", "higher"),
    ("lsm.write_store_bytes_peak", "bytes", "lower"),
    ("blockdev.busy_s.callback", "s", "lower"),
    ("blockdev.busy_s.cp", "s", "lower"),
    ("blockdev.busy_s.maint", "s", "lower"),
    ("blockdev.busy_s.query", "s", "lower"),
    ("blockdev.busy_s.open", "s", "lower"),
    ("blockdev.pages_written.callback", "pages", "lower"),
    ("blockdev.pages_written.cp", "pages", "lower"),
    ("blockdev.pages_written.maint", "pages", "lower"),
    ("blockdev.flushes.callback", "count", "lower"),
    ("blockdev.flushes.cp", "count", "lower"),
    ("blockdev.seeks", "count", "lower"),
    ("blockdev.sim_busy_s", "s", "lower"),
    ("blockdev.sim_elapsed_s", "s", "lower"),
    ("blockdev.sim_write_s", "s", "lower"),
    ("blockdev.max_in_flight", "count", "higher"),
    ("blockdev.pages_read.query", "pages", "lower"),
    ("blockdev.pages_read.maint", "pages", "lower"),
    ("blockdev.pages_read.open", "pages", "lower"),
    ("blockdev.bytes_stored_peak", "bytes", "lower"),
    ("bench.check_s", "s", "lower"),
    ("bench.guard_s", "s", "lower"),
    ("bench.guard_disturbed_pct", "%", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.engine_timing_overhead_pct", "%", "lower"),
];

/// [`Outcome::engine_ns`] of the traced run's two reference passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceTimes {
    /// The same workload untraced.
    pub untraced_ns: u64,
    /// The same with the engine's own `track_timing` off as well.
    pub untimed_engine_ns: u64,
}

/// The per-layer metric values of one traced run, in [`PER_LAYER`] order.
pub fn per_layer(out: &Outcome, reference: ReferenceTimes) -> Vec<f64> {
    let all = totals(&out.spans, None);
    let main = totals(&out.spans, Some(Kind::Workload));
    let secs = |ns: u64| ns as f64 / 1e9;
    let self_s = |k: Kind| secs(all[k as usize].self_ns);
    let dev = |k: Kind| out.device[k as usize];
    let w = &out.write;

    // The probe re-reads one key in PROBE_EVERY straight from the lsm tables.
    let lsm_query_s = self_s(Kind::LsmProbe) * PROBE_EVERY as f64;
    let core_query_s = self_s(Kind::Query);
    // Main-thread time the ISSUE's three groups account for: provider span
    // self times, device time under them, and the harness (root self time).
    let accounted: u64 = [
        Kind::Workload,
        Kind::Callback,
        Kind::Cp,
        Kind::Maint,
        Kind::Query,
        Kind::RangeQuery,
        Kind::Open,
        Kind::JournalReplay,
    ]
    .iter()
    .map(|&k| main[k as usize].self_ns + main[k as usize].device_ns)
    .sum::<u64>()
    .saturating_sub(out.guard.busy_ns);
    // The benchmark's own output checks and the guard's readings and waits
    // (inside the root span's self time) are not the system's work.
    let wall = out
        .wall_ns
        .saturating_sub(main[Kind::Check as usize].total_ns + out.guard.busy_ns)
        .max(1) as f64;
    let overhead_pct =
        |slower: u64, faster: u64| (slower as f64 / faster.max(1) as f64 - 1.0) * 100.0;

    vec![
        // The writer's guard runs between sections, on the harness's time.
        self_s(Kind::Workload) - secs(out.guard.busy_ns),
        out.block_ops as f64,
        w.cp_ns.len() as f64,
        self_s(Kind::Callback),
        w.ops as f64,
        w.persistent_ops as f64 / w.cp_block_ops.max(1) as f64,
        self_s(Kind::Cp),
        w.cp_ns.len() as f64,
        secs(out.engine.cp_phase_ns[0]),
        secs(out.engine.cp_phase_ns[1]),
        secs(out.engine.cp_phase_ns[2]),
        secs(out.engine.cp_phase_ns[3]),
        secs(out.engine.cp_phase_ns[4]),
        secs(out.engine.group_commit_ns),
        out.engine.group_commits as f64,
        self_s(Kind::Maint),
        out.maint.passes as f64,
        core_query_s,
        (core_query_s - lsm_query_s).max(0.0),
        self_s(Kind::RangeQuery),
        out.io.lock_contentions as f64,
        secs(out.lock_wait_ns),
        self_s(Kind::Open),
        self_s(Kind::JournalReplay),
        out.replayed_entries as f64,
        lsm_query_s,
        out.runs_peak as f64,
        out.bloom_bytes as f64,
        w.runs_created as f64,
        w.records_flushed as f64,
        out.maint.runs_merged as f64,
        out.maint.records_combined as f64,
        out.maint.records_purged as f64,
        w.write_store_bytes_peak as f64,
        secs(dev(Kind::Callback).busy_ns),
        secs(dev(Kind::Cp).busy_ns),
        secs(dev(Kind::Maint).busy_ns),
        secs(dev(Kind::Query).busy_ns + dev(Kind::RangeQuery).busy_ns),
        secs(dev(Kind::Open).busy_ns + dev(Kind::JournalReplay).busy_ns),
        dev(Kind::Callback).pages_written as f64,
        dev(Kind::Cp).pages_written as f64,
        dev(Kind::Maint).pages_written as f64,
        dev(Kind::Callback).flushes as f64,
        dev(Kind::Cp).flushes as f64,
        out.io.seeks as f64,
        secs(out.io.device_ns),
        secs(out.sim_elapsed_ns),
        secs(w.device_clock_ns),
        out.io.max_in_flight as f64,
        (dev(Kind::Query).pages_read + dev(Kind::RangeQuery).pages_read) as f64,
        dev(Kind::Maint).pages_read as f64,
        (dev(Kind::Open).pages_read + dev(Kind::JournalReplay).pages_read) as f64,
        out.bytes_stored_peak as f64,
        secs(all[Kind::Check as usize].total_ns),
        secs(out.guard.busy_ns),
        out.guard.disturbed as f64 / out.guard.readings.max(1) as f64 * 100.0,
        secs(out.wall_ns),
        accounted as f64 / wall * 100.0,
        overhead_pct(out.engine_ns(), reference.untraced_ns),
        overhead_pct(reference.untraced_ns, reference.untimed_engine_ns),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SPECS;
    use obs::Json;

    #[test]
    fn benchmark_json_lists_exactly_what_the_code_measures() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = obs::Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .to_vec()
        };
        let text_of = |o: &Json, key: &str| o.get(key).and_then(Json::as_str).map(str::to_string);

        let workloads: Vec<_> = list("workloads")
            .iter()
            .map(|o| text_of(o, "name"))
            .collect();
        assert_eq!(workloads, SPECS.map(|s| Some(s.name.to_string())));

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (o, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text_of(o, "name").as_deref(), Some(m.name));
            assert_eq!(text_of(o, "unit").as_deref(), Some(m.unit));
            assert_eq!(text_of(o, "better").as_deref(), Some("lower"));
            assert_eq!(o.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (o, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text_of(o, "name").as_deref(), Some(name));
            assert_eq!(text_of(o, "unit").as_deref(), Some(unit));
            assert_eq!(text_of(o, "better").as_deref(), Some(better));
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(SPECS.iter().map(|s| s.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
