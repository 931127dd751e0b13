//! Scenario outcomes and the seed-matrix report.

use backlog::ManifestKind;
use blockdev::{IoStatsSnapshot, PowerCutReport};

/// Did the recovered engine match the never-crashed reference?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every oracle check passed.
    Pass,
    /// An oracle check failed; `detail` names the first mismatch.
    Fail {
        /// Human-readable description of the first failed check.
        detail: String,
    },
}

impl Verdict {
    /// Whether the scenario passed.
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass)
    }
}

/// The result of one scenario run — everything needed to reproduce and to
/// assert determinism (two runs of the same seed must produce equal
/// outcomes, including the device digest and I/O counters).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario's master seed.
    pub seed: u64,
    /// The oracle verdict.
    pub verdict: Verdict,
    /// Scheduler steps executed before the crash.
    pub steps: u32,
    /// Whether the final consistency point died mid-write (`false` means the
    /// fault point lay beyond the CP — or the crash targeted a group
    /// commit: a clean-shutdown schedule for the CP path).
    pub crashed_mid_cp: bool,
    /// The manifest-log frame the CP that died mid-write was writing: a
    /// delta appended to the live log, or a base opening a new one (after
    /// an earlier failed CP, or a rollover). `None` when no CP died, or it
    /// died before choosing.
    pub crashed_cp_frame: Option<ManifestKind>,
    /// Whether a final journal group commit died mid-write.
    pub crashed_mid_commit: bool,
    /// Page fates at the power cut.
    pub cut: PowerCutReport,
    /// Highest LSN the live engine had acknowledged durable at the crash
    /// (group-commit acks and CP-covered operations).
    pub acked_lsn: u64,
    /// Journal frontier the ring scan recovered from the raw device.
    pub recovered_lsn: u64,
    /// Journal entries replayed into the recovered engine.
    pub journal_replayed: u64,
    /// Digest of the complete device image at the end of the scenario.
    pub device_digest: u64,
    /// Device I/O counters at the end of the scenario.
    pub io: IoStatsSnapshot,
    /// Digest of the live engine's flight-recorder dump taken at the
    /// crash. Events are stamped by the deterministic tick clock, so the
    /// digest is a pure function of the seed — two runs of the same seed
    /// must agree byte for byte.
    pub trace_digest: u64,
    /// Events in the live engine's dump at the crash.
    pub trace_events: u64,
    /// Rendered tail of the live engine's trace timeline, captured only
    /// for failing seeds (the last events before the crash, oldest
    /// first).
    pub trace_tail: Option<String>,
}

impl ScenarioOutcome {
    /// Whether the scenario passed.
    pub fn passed(&self) -> bool {
        self.verdict.is_pass()
    }

    /// The one-line reproduction: paste the `seed=…` value into
    /// [`run_seed`](crate::run_seed) to replay the identical schedule —
    /// same crash point, same page fates, same verdict.
    pub fn repro_line(&self) -> String {
        let verdict = match &self.verdict {
            Verdict::Pass => "PASS".to_string(),
            Verdict::Fail { detail } => format!("FAIL [{detail}]"),
        };
        format!(
            "seed=0x{:016x} steps={} crashed_mid_cp={} cp_frame={:?} crashed_mid_commit={} \
             cut(persisted={},torn={},lost={}) acked_lsn={} recovered_lsn={} \
             journal_replayed={} digest=0x{:016x} trace=0x{:016x} {}",
            self.seed,
            self.steps,
            self.crashed_mid_cp,
            self.crashed_cp_frame,
            self.crashed_mid_commit,
            self.cut.persisted,
            self.cut.torn,
            self.cut.lost,
            self.acked_lsn,
            self.recovered_lsn,
            self.journal_replayed,
            self.device_digest,
            self.trace_digest,
            verdict
        )
    }

    /// The failing seed's trace-timeline tail (the last flight-recorder
    /// events before the crash), or an empty string for passing seeds.
    pub fn trace_timeline(&self) -> &str {
        self.trace_tail.as_deref().unwrap_or("")
    }
}

/// Aggregate over a matrix of seeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixReport {
    /// One outcome per seed, in input order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl MatrixReport {
    /// Whether every scenario passed.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(ScenarioOutcome::passed)
    }

    /// The failing outcomes, if any.
    pub fn failures(&self) -> Vec<&ScenarioOutcome> {
        self.outcomes.iter().filter(|o| !o.passed()).collect()
    }

    /// Scenarios that crashed mid-CP (the interesting schedules).
    pub fn mid_cp_crashes(&self) -> usize {
        self.outcomes.iter().filter(|o| o.crashed_mid_cp).count()
    }

    /// Scenarios whose mid-CP crash landed in a CP appending a delta frame.
    pub fn mid_delta_cp_crashes(&self) -> usize {
        self.crashes_writing(ManifestKind::Delta)
    }

    /// Scenarios whose mid-CP crash landed in a CP writing a base frame
    /// into a new log (the CP after a failed one, or a rollover).
    pub fn mid_base_cp_crashes(&self) -> usize {
        self.crashes_writing(ManifestKind::Base)
    }

    fn crashes_writing(&self, kind: ManifestKind) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.crashed_mid_cp && o.crashed_cp_frame == Some(kind))
            .count()
    }

    /// Scenarios that crashed mid-group-commit.
    pub fn mid_commit_crashes(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.crashed_mid_commit)
            .count()
    }

    /// Total torn pages across all power cuts.
    pub fn torn_pages(&self) -> u64 {
        self.outcomes.iter().map(|o| o.cut.torn).sum()
    }

    /// Total lost pages across all power cuts.
    pub fn lost_pages(&self) -> u64 {
        self.outcomes.iter().map(|o| o.cut.lost).sum()
    }

    /// Total scheduler steps across all scenarios.
    pub fn total_steps(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.steps)).sum()
    }
}
