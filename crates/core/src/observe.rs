//! The engine's observability bundle and the metric adapters that feed
//! the unified registry.
//!
//! [`EngineObs`] owns the engine's flight recorder, its observability
//! clock, and the log-bucketed latency histograms. Every engine carries
//! one; `BacklogEngine::metrics` assembles the full registry from it
//! plus the existing counter surfaces.
//!
//! One clock: every timed scope in the engine reads this clock once at
//! entry and once at exit, and that one duration is both the histogram
//! sample and — on the wall clock — the `*_ns` field of the scope's
//! report, so the `*_ns` totals in `BacklogStats` *are* the histogram
//! sums. Engines created with timing enabled stamp from a wall clock;
//! engines created via `BacklogConfig::without_timing` (the simulator)
//! stamp from a deterministic tick counter, so a trace dump is a pure
//! function of the event sequence and byte-identical across runs of the
//! same seed. Tick durations count clock reads, not time: they are
//! exported under `_ticks` names and never reach a `*_ns` field.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blockdev::{IoStats, IoStatsSnapshot};
use obs::{Clock, FlightRecorder, Histogram, MetricSet, MonotonicClock, TickClock};

use crate::journal::{JournalRing, JournalRingStats};
use crate::stats::{BacklogStats, CpPhaseNs, ManifestKind};

/// Flight-recorder lanes (writer threads round-robin onto these).
const RECORDER_LANES: usize = 8;
/// Slots per lane; the recorder keeps the last `LANES * SLOTS` events.
const RECORDER_SLOTS_PER_LANE: usize = 1024;

/// Observability state attached to a `BacklogEngine`: the clock, the
/// flight recorder, and one histogram per instrumented path.
///
/// All histograms are lock-free and record durations in the clock's
/// unit (nanoseconds, or ticks under the simulator). The per-callback
/// histogram is the distribution-valued counterpart of the scalar
/// `BacklogStats::micros_per_block_op` mean.
#[derive(Debug)]
pub struct EngineObs {
    clock: Arc<dyn Clock>,
    /// Whether `clock` is wall time (nanoseconds) rather than ticks.
    wall_clock: bool,
    recorder: Arc<FlightRecorder>,
    /// One add/remove/apply callback, end to end.
    pub callback_ns: Histogram,
    /// One whole CP flush (all phases).
    pub cp_flush_ns: Histogram,
    /// CP phase: kicking off the per-table prepare flushes.
    pub cp_phase_prepare: Histogram,
    /// CP phase: pipelined table + manifest-frame writes and their drain.
    pub cp_phase_flush: Histogram,
    /// CP phase: the single pre-flip flush barrier.
    pub cp_phase_barrier: Histogram,
    /// CP phase: superblock flip + post-flip hardening.
    pub cp_phase_flip: Histogram,
    /// CP phase: old-log/freed-block/journal retirement.
    pub cp_phase_retire: Histogram,
    /// One whole maintenance run.
    pub maintenance_ns: Histogram,
    /// One partition's rebuild pass within a maintenance run.
    pub maintenance_partition_ns: Histogram,
    /// One back-reference query, end to end.
    pub query_ns: Histogram,
    /// One journal group commit (coalesce through ack). Shared with the
    /// journal ring, which records into it from `sync`.
    pub group_commit_ns: Arc<Histogram>,
    /// Pages written to the manifest log as base frames.
    manifest_base_pages: AtomicU64,
    /// Pages written to the manifest log as delta frames.
    manifest_delta_pages: AtomicU64,
    /// Base frames written because the next delta no longer fit its log.
    manifest_rollovers: AtomicU64,
    /// Pages of the durable log's valid prefix (base + deltas).
    manifest_log_pages: AtomicU64,
}

impl EngineObs {
    /// Creates the bundle. `track_timing` selects the wall-clock; sim
    /// engines pass `false` and get the deterministic tick clock.
    pub fn new(track_timing: bool) -> EngineObs {
        let clock: Arc<dyn Clock> = if track_timing {
            Arc::new(MonotonicClock::new())
        } else {
            Arc::new(TickClock::new())
        };
        let recorder = Arc::new(FlightRecorder::new(
            clock.clone(),
            RECORDER_LANES,
            RECORDER_SLOTS_PER_LANE,
        ));
        EngineObs {
            clock,
            wall_clock: track_timing,
            recorder,
            callback_ns: Histogram::new(),
            cp_flush_ns: Histogram::new(),
            cp_phase_prepare: Histogram::new(),
            cp_phase_flush: Histogram::new(),
            cp_phase_barrier: Histogram::new(),
            cp_phase_flip: Histogram::new(),
            cp_phase_retire: Histogram::new(),
            maintenance_ns: Histogram::new(),
            maintenance_partition_ns: Histogram::new(),
            query_ns: Histogram::new(),
            group_commit_ns: Arc::new(Histogram::new()),
            manifest_base_pages: AtomicU64::new(0),
            manifest_delta_pages: AtomicU64::new(0),
            manifest_rollovers: AtomicU64::new(0),
            manifest_log_pages: AtomicU64::new(0),
        }
    }

    /// Current observability-clock reading.
    pub fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The clock events are stamped with.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// The unit this bundle's clock — and so every histogram it fills —
    /// counts in: `"ns"` on the wall clock, `"ticks"` on the simulator's
    /// deterministic counter. Metric names carry it as their suffix.
    pub fn unit(&self) -> &'static str {
        if self.wall_clock {
            "ns"
        } else {
            "ticks"
        }
    }

    /// `elapsed` (a difference of two [`now`](Self::now) readings) as wall
    /// nanoseconds: itself on the wall clock, 0 on the tick clock, whose
    /// durations are not time. What the `*_ns` report fields are set from.
    pub fn wall_ns(&self, elapsed: u64) -> u64 {
        if self.wall_clock {
            elapsed
        } else {
            0
        }
    }

    /// Hooks `ring`'s group commits up to this bundle's recorder, clock and
    /// [`group_commit_ns`](Self::group_commit_ns) histogram.
    pub(crate) fn attach_ring(&self, ring: &JournalRing) {
        ring.attach_obs(
            self.recorder.clone(),
            self.clock(),
            self.group_commit_ns.clone(),
        );
    }

    /// The engine's flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Records one CP's total duration and its per-phase breakdown.
    pub fn record_cp(&self, total: u64, phases: &CpPhaseNs) {
        self.cp_flush_ns.record(total);
        self.cp_phase_prepare.record(phases.prepare);
        self.cp_phase_flush.record(phases.flush);
        self.cp_phase_barrier.record(phases.barrier);
        self.cp_phase_flip.record(phases.flip);
        self.cp_phase_retire.record(phases.retire);
    }

    /// Records one durable CP's manifest-log frame: its kind and size,
    /// whether it was a rollover, and the log's valid prefix afterwards.
    pub fn record_manifest_frame(
        &self,
        kind: ManifestKind,
        pages: u64,
        rollover: bool,
        log_pages: u64,
    ) {
        let total = match kind {
            ManifestKind::Base => &self.manifest_base_pages,
            ManifestKind::Delta => &self.manifest_delta_pages,
        };
        total.fetch_add(pages, Ordering::Relaxed);
        self.manifest_rollovers
            .fetch_add(u64::from(rollover), Ordering::Relaxed);
        self.set_manifest_log_pages(log_pages);
    }

    /// Sets the manifest-log length gauge (a reopened engine starts from
    /// the log it recovered).
    pub fn set_manifest_log_pages(&self, log_pages: u64) {
        self.manifest_log_pages.store(log_pages, Ordering::Relaxed);
    }

    /// The manifest log's write volume and current length — the CP's
    /// metadata cost as first-class numbers.
    pub fn manifest_metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.counter(
            "backlog_manifest_base_pages_total",
            self.manifest_base_pages.load(Ordering::Relaxed),
        );
        set.counter(
            "backlog_manifest_delta_pages_total",
            self.manifest_delta_pages.load(Ordering::Relaxed),
        );
        set.counter(
            "backlog_manifest_rollovers_total",
            self.manifest_rollovers.load(Ordering::Relaxed),
        );
        set.gauge(
            "backlog_manifest_log_pages",
            self.manifest_log_pages.load(Ordering::Relaxed) as f64,
        );
        set
    }

    /// The engine-layer histogram family as a metric set, each named
    /// `backlog_<what>_<unit>` with this bundle's [`unit`](Self::unit).
    pub fn histogram_metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        for (what, hist) in [
            ("callback", &self.callback_ns),
            ("cp_flush", &self.cp_flush_ns),
            ("cp_phase_prepare", &self.cp_phase_prepare),
            ("cp_phase_flush", &self.cp_phase_flush),
            ("cp_phase_barrier", &self.cp_phase_barrier),
            ("cp_phase_flip", &self.cp_phase_flip),
            ("cp_phase_retire", &self.cp_phase_retire),
            ("maintenance", &self.maintenance_ns),
            ("maintenance_partition", &self.maintenance_partition_ns),
            ("query", &self.query_ns),
            ("group_commit", &*self.group_commit_ns),
        ] {
            set.histogram(format!("backlog_{what}_{}", self.unit()), hist);
        }
        set
    }

    /// Assembles the engine's full registry: engine counters, device
    /// counters and latency histograms, journal ring state, and the
    /// engine histogram family.
    pub fn registry(
        &self,
        stats: &BacklogStats,
        io: &IoStats,
        journal: Option<&JournalRingStats>,
    ) -> MetricSet {
        let mut set = stats_metrics(stats);
        set.extend(io_metrics(&io.snapshot()));
        set.histogram_snapshot("backlog_device_service_ns", io.service_ns());
        // Lock waits are measured on this bundle's clock (the device's
        // service times are modelled nanoseconds either way).
        set.histogram_snapshot(
            format!("backlog_device_lock_wait_{}", self.unit()),
            io.lock_wait_ns(),
        );
        if let Some(j) = journal {
            set.extend(journal_metrics(j));
        }
        set.extend(self.manifest_metrics());
        set.extend(self.histogram_metrics());
        set.counter(
            "backlog_trace_events_dropped_total",
            self.recorder.dropped(),
        );
        set
    }
}

/// [`BacklogStats`] as registry metrics.
pub fn stats_metrics(s: &BacklogStats) -> MetricSet {
    let mut set = MetricSet::new();
    set.counter("backlog_engine_block_ops_total", s.block_ops);
    set.counter("backlog_engine_refs_added_total", s.refs_added);
    set.counter("backlog_engine_refs_removed_total", s.refs_removed);
    set.counter("backlog_engine_pruned_adds_total", s.pruned_adds);
    set.counter("backlog_engine_pruned_removes_total", s.pruned_removes);
    set.counter(
        "backlog_engine_consistency_points_total",
        s.consistency_points,
    );
    set.counter("backlog_engine_maintenance_runs_total", s.maintenance_runs);
    set.counter("backlog_engine_queries_total", s.queries);
    set.gauge(
        "backlog_engine_micros_per_block_op",
        s.micros_per_block_op(),
    );
    set
}

/// A device [`IoStatsSnapshot`] as registry metrics.
pub fn io_metrics(io: &IoStatsSnapshot) -> MetricSet {
    let mut set = MetricSet::new();
    set.counter("backlog_device_page_reads_total", io.page_reads);
    set.counter("backlog_device_page_writes_total", io.page_writes);
    set.counter("backlog_device_bytes_read_total", io.bytes_read);
    set.counter("backlog_device_bytes_written_total", io.bytes_written);
    set.counter("backlog_device_seeks_total", io.seeks);
    set.counter("backlog_device_flushes_total", io.flushes);
    set.counter("backlog_device_busy_ns_total", io.device_ns);
    set.counter("backlog_device_lock_contentions_total", io.lock_contentions);
    set.gauge("backlog_device_max_in_flight", io.max_in_flight as f64);
    set.counter(
        "backlog_device_completed_async_ops_total",
        io.completed_async_ops,
    );
    set
}

/// A [`JournalRingStats`] snapshot as registry metrics.
pub fn journal_metrics(j: &JournalRingStats) -> MetricSet {
    let mut set = MetricSet::new();
    set.gauge("backlog_journal_ring_pages", j.ring_pages as f64);
    set.gauge("backlog_journal_live_groups", j.live_groups as f64);
    set.counter("backlog_journal_groups_committed_total", j.next_seq);
    set.gauge("backlog_journal_head_page", j.head as f64);
    set.counter("backlog_journal_durable_lsn", j.durable_lsn);
    set.counter("backlog_journal_appended_lsn", j.appended_lsn);
    set.gauge("backlog_journal_pending_entries", j.pending_entries as f64);
    // Occupancy and replay exposure: the pages a reopen would scan, and the
    // entries appended since the newest durable CP's frontier — at most
    // what a crash right now would replay.
    set.gauge("backlog_journal_ring_live_pages", j.live_pages as f64);
    set.gauge(
        "backlog_journal_frontier_lag",
        j.appended_lsn.saturating_sub(j.frontier_lsn) as f64,
    );
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::MetricValue;

    #[test]
    fn sim_obs_uses_deterministic_ticks() {
        let obs = EngineObs::new(false);
        let a = obs.now();
        let b = obs.now();
        assert_eq!(b, a + 1, "tick clock advances by exactly one per read");
    }

    #[test]
    fn timing_obs_uses_wall_clock() {
        let obs = EngineObs::new(true);
        let a = obs.now();
        let b = obs.now();
        assert!(b >= a, "wall clock is monotone");
    }

    #[test]
    fn record_cp_populates_every_phase_histogram_under_the_clocks_unit() {
        // Wall clock: `_ns` names and durations that count as time. Tick
        // clock: the same families as `_ticks`, nothing named `_ns`, and
        // durations that never reach a `*_ns` field.
        for (track_timing, unit, other) in [(true, "ns", "ticks"), (false, "ticks", "ns")] {
            let obs = EngineObs::new(track_timing);
            assert_eq!(obs.unit(), unit);
            assert_eq!(obs.wall_ns(7), if track_timing { 7 } else { 0 });
            let phases = CpPhaseNs {
                prepare: 10,
                flush: 200,
                barrier: 30,
                flip: 40,
                retire: 5,
            };
            obs.record_cp(phases.total(), &phases);
            let set = obs.histogram_metrics();
            for what in [
                "cp_flush",
                "cp_phase_prepare",
                "cp_phase_flush",
                "cp_phase_barrier",
                "cp_phase_flip",
                "cp_phase_retire",
            ] {
                let name = format!("backlog_{what}_{unit}");
                match set.get(&name) {
                    Some(MetricValue::Hist(s)) => assert_eq!(s.count, 1, "{name}"),
                    other => panic!("{name}: {other:?}"),
                }
            }
            assert_eq!(set.len(), 11);
            let suffix = format!("_{other}");
            assert!(
                set.iter().all(|m| !m.name.ends_with(&suffix)),
                "a {unit} clock exported a _{other} histogram"
            );
        }
    }

    #[test]
    fn registry_spans_every_surface() {
        let obs = EngineObs::new(false);
        let stats = BacklogStats {
            block_ops: 7,
            ..Default::default()
        };
        let io = IoStats::new();
        io.record_write(4096);
        io.record_write(4096);
        io.record_write(4096);
        io.record_device_ns(1_000);
        let journal = JournalRingStats {
            ring_pages: 64,
            live_groups: 2,
            live_pages: 3,
            next_seq: 5,
            head: 9,
            durable_lsn: 100,
            appended_lsn: 110,
            pending_entries: 4,
            frontier_lsn: 90,
        };
        let set = obs.registry(&stats, &io, Some(&journal));
        assert_eq!(
            set.get("backlog_engine_block_ops_total"),
            Some(&MetricValue::Counter(7))
        );
        assert_eq!(
            set.get("backlog_device_page_writes_total"),
            Some(&MetricValue::Counter(3))
        );
        assert_eq!(
            set.get("backlog_journal_pending_entries"),
            Some(&MetricValue::Gauge(4.0))
        );
        assert_eq!(
            set.get("backlog_journal_ring_live_pages"),
            Some(&MetricValue::Gauge(3.0))
        );
        assert_eq!(
            set.get("backlog_journal_frontier_lag"),
            Some(&MetricValue::Gauge(20.0))
        );
        assert!(matches!(
            set.get("backlog_callback_ticks"),
            Some(MetricValue::Hist(_))
        ));
        match set.get("backlog_device_service_ns") {
            Some(MetricValue::Hist(s)) => assert_eq!(s.count, 1),
            other => panic!("backlog_device_service_ns: {other:?}"),
        }
        assert!(matches!(
            set.get("backlog_device_lock_wait_ticks"),
            Some(MetricValue::Hist(_))
        ));
        assert!(set.get("backlog_device_lock_wait_ns").is_none());
        assert!(set.get("backlog_trace_events_dropped_total").is_some());
        obs.record_manifest_frame(ManifestKind::Base, 5, false, 5);
        obs.record_manifest_frame(ManifestKind::Delta, 1, false, 6);
        obs.record_manifest_frame(ManifestKind::Base, 7, true, 7);
        let set = obs.registry(&stats, &io, Some(&journal));
        for (name, want) in [
            (
                "backlog_manifest_base_pages_total",
                MetricValue::Counter(12),
            ),
            (
                "backlog_manifest_delta_pages_total",
                MetricValue::Counter(1),
            ),
            ("backlog_manifest_rollovers_total", MetricValue::Counter(1)),
            ("backlog_manifest_log_pages", MetricValue::Gauge(7.0)),
        ] {
            assert_eq!(set.get(name), Some(&want), "{name}");
        }
        // The JSON export of a full registry must parse.
        assert!(obs::Json::parse(&set.to_json()).is_ok());
    }
}
