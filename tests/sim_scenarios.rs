//! The crash-recovery property test, re-expressed as whole-system sim
//! scenarios (see `crates/sim`). Where `proptest_recovery.rs` explores one
//! fault point per run on a device that keeps every pre-fault write, these
//! scenarios run the same actor mix under schedules the old harness could
//! not generate: the final CP dies mid-write **and** the subsequent power
//! cut tears or discards the unflushed write-cache pages — including pages
//! earlier, successful writes of the same doomed CP left behind.
//!
//! Every failure is a one-line reproduction: the assert message carries
//! `seed=0x…`; `backlog_sim::run_seed(seed)` replays the identical schedule.

use backlog_sim::{run_matrix, run_scenario, ActorMix, CrashKind, CrashPlan, ScenarioConfig};
use proptest::prelude::*;

/// A fixed scenario with the harshest cut — every unflushed page is lost —
/// and a crash point early in the final CP, so the doomed CP's own run
/// pages are written, cached, and then destroyed.
#[test]
fn lost_write_cache_schedule_recovers() {
    let cfg = ScenarioConfig {
        seed: 0xBAD_CAFE,
        partitions: 4,
        block_range: 48,
        writers: 4,
        steps: 115,
        journal_group_size: 8,
        mix: ActorMix::default(),
        read_fault: 0.0,
        write_fault: 0.0,
        torn_write: 0.0,
        crash: CrashPlan {
            kind: CrashKind::ConsistencyPoint,
            fault_after_writes: 2,
            persist: 0.0,
            torn: 0.0,
        },
        jitter: None,
    };
    let outcome = run_scenario(&cfg);
    assert!(outcome.passed(), "{}", outcome.repro_line());
    assert!(outcome.crashed_mid_cp, "{}", outcome.repro_line());
    assert!(
        outcome.cut.lost > 0,
        "the schedule must destroy unflushed pages: {}",
        outcome.repro_line()
    );
}

/// A fixed scenario where the cut *tears* cached pages instead of dropping
/// them — partially-persisted debris the checksummed metadata must reject.
#[test]
fn torn_write_schedule_recovers() {
    let cfg = ScenarioConfig {
        seed: 0x7042_0042,
        partitions: 2,
        block_range: 40,
        writers: 3,
        steps: 105,
        journal_group_size: 6,
        mix: ActorMix::default(),
        read_fault: 0.0,
        write_fault: 0.02,
        torn_write: 1.0,
        crash: CrashPlan {
            kind: CrashKind::ConsistencyPoint,
            fault_after_writes: 2,
            persist: 0.2,
            torn: 0.8,
        },
        jitter: None,
    };
    let outcome = run_scenario(&cfg);
    assert!(outcome.passed(), "{}", outcome.repro_line());
    assert!(outcome.crashed_mid_cp, "{}", outcome.repro_line());
    assert!(
        outcome.cut.torn > 0,
        "the schedule must tear cached pages: {}",
        outcome.repro_line()
    );
}

/// A fixed scenario that kills a journal *group commit* mid-write and then
/// loses every unflushed cached page: each callback acknowledged durable
/// before the doomed commit must recover from the raw device alone.
#[test]
fn mid_group_commit_crash_recovers_acked_callbacks() {
    let cfg = ScenarioConfig {
        seed: 0x6C0_FF33,
        partitions: 2,
        block_range: 40,
        writers: 3,
        steps: 140,
        journal_group_size: 5,
        mix: ActorMix::default(),
        read_fault: 0.0,
        write_fault: 0.0,
        torn_write: 0.0,
        crash: CrashPlan {
            kind: CrashKind::GroupCommit,
            fault_after_writes: 0,
            persist: 0.0,
            torn: 0.0,
        },
        jitter: None,
    };
    let outcome = run_scenario(&cfg);
    assert!(outcome.passed(), "{}", outcome.repro_line());
    assert!(outcome.crashed_mid_commit, "{}", outcome.repro_line());
    assert!(
        outcome.acked_lsn > 0,
        "the schedule must ack callbacks before the crash: {}",
        outcome.repro_line()
    );
}

/// A fixed seed matrix covering both crash flavors, checked in bulk the way
/// the CI smoke job runs it.
#[test]
fn fixed_seed_matrix_passes() {
    let seeds: Vec<u64> = (0..64u64).map(|i| 0x51u64 * 1_000 + i).collect();
    let report = run_matrix(&seeds);
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "failing seeds:\n{}",
        failures
            .iter()
            .map(|o| o.repro_line())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.mid_cp_crashes() > 0, "matrix never crashed mid-CP");
    assert!(
        report.mid_delta_cp_crashes() > 0,
        "matrix never crashed a CP that was appending a delta frame"
    );
    assert!(
        report.mid_base_cp_crashes() > 0,
        "matrix never crashed a CP that was writing a base frame (rollover or retry)"
    );
    assert!(
        report.mid_commit_crashes() > 0,
        "matrix never crashed mid-group-commit"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The property itself, over arbitrary seeds: every derived scenario —
    /// whatever workload, fault scatter, crash point, and page fates the
    /// seed implies — recovers to the never-crashed reference engine.
    #[test]
    fn any_seed_recovers_to_reference(seed in 0u64..u64::MAX) {
        let outcome = backlog_sim::run_seed(seed);
        prop_assert!(outcome.passed(), "{}", outcome.repro_line());
    }
}
