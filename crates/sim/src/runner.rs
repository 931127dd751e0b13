//! The scenario runner: seeded actor scheduling, crash injection, and the
//! differential recovery oracle.

use backlog::{verify, BacklogConfig, BacklogEngine, ExpectedRef, LineId, Owner, SnapshotId};
use blockdev::{
    Device, DeviceConfig, FaultProfile, LatencyJitter, PowerCutProfile, SimDisk, Superblock,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{CrashKind, ScenarioConfig};
use crate::report::{MatrixReport, ScenarioOutcome, Verdict};

/// Salt for the workload/scheduler generator (distinct from the config
/// derivation, the device fault plane, and the power-cut fates, so the four
/// streams never alias).
const WORKLOAD_SALT: u64 = 0x0AC7_0000_5EED_0001;
/// Salt for the device fault plane.
const FAULT_SALT: u64 = 0xFA17_0000_5EED_0002;
/// Salt for the power-cut page fates.
const CUT_SALT: u64 = 0xC117_0000_5EED_0003;
/// Salt for the per-operation device latency jitter.
const JITTER_SALT: u64 = 0x717E_0000_5EED_0004;
/// Flight-recorder events rendered into a failing seed's timeline tail.
const TRACE_TAIL_EVENTS: usize = 64;

/// A lineage operation the host's metadata journal re-applies after a crash
/// (snapshot/clone metadata is file-system metadata, recovered by the file
/// system's own journal — the Backlog journal carries only reference ops).
#[derive(Debug, Clone, Copy)]
enum MetaOp {
    TakeSnapshot(LineId),
    RegisterClone(SnapshotId, LineId),
    DeleteSnapshot(SnapshotId),
}

fn apply_meta(engine: &BacklogEngine, op: MetaOp) {
    match op {
        MetaOp::TakeSnapshot(line) => {
            engine.take_snapshot(line);
        }
        MetaOp::RegisterClone(parent, line) => engine.register_clone(parent, line),
        MetaOp::DeleteSnapshot(snap) => engine.delete_snapshot(snap),
    }
}

/// One recorded workload event. After the crash, the *expected* engine is
/// re-simulated from this script: reference ops apply only up to the
/// recovered journal frontier (later ones were never acknowledged and are
/// legitimately lost), lineage ops always apply (host-journaled), and CPs
/// replay exactly where the live engine durably took them.
#[derive(Debug, Clone, Copy)]
enum ScriptOp {
    Ref {
        lsn: u64,
        block: u64,
        owner: Owner,
        add: bool,
    },
    Meta(MetaOp),
    Cp,
    Maintenance,
}

/// The actors the scheduler can pick each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Actor {
    Add,
    Remove,
    Query,
    ConsistencyPoint,
    Snapshot,
    Clone,
    DeleteSnapshot,
    Maintenance,
    JournalSync,
}

/// A CP that reported failure although its superblock flip reached the
/// device: the flip is one sector, so a write the device fails *after*
/// touching media lands whole. The engine treats such a CP as not taken —
/// safe whichever superblock survives — and if the power goes before the
/// next successful CP, recovery legitimately lands on it.
#[derive(Debug)]
struct LandedCp {
    /// The superblock the device held right after the failed attempt.
    superblock: Superblock,
    /// Where in the script, and in the host's metadata log, the CP sits.
    script_at: usize,
    meta_at: usize,
}

/// The newest valid superblock on the device (cache included), retried
/// through injected read faults.
fn superblock_on_device(device: &SimDisk) -> Option<Superblock> {
    (0..64).find_map(|_| Superblock::read_latest(device).ok().flatten())
}

/// Draws the next actor from the seeded scheduler, proportionally to the
/// configured weights.
fn schedule(cfg: &ScenarioConfig, rng: &mut StdRng) -> Actor {
    let mix = &cfg.mix;
    let mut draw = rng.gen_range(0..mix.total());
    for (weight, actor) in [
        (mix.add, Actor::Add),
        (mix.remove, Actor::Remove),
        (mix.query, Actor::Query),
        (mix.consistency_point, Actor::ConsistencyPoint),
        (mix.snapshot, Actor::Snapshot),
        (mix.clone, Actor::Clone),
        (mix.delete_snapshot, Actor::DeleteSnapshot),
        (mix.maintenance, Actor::Maintenance),
        (mix.journal_sync, Actor::JournalSync),
    ] {
        if draw < weight {
            return actor;
        }
        draw -= weight;
    }
    unreachable!("weights sum to mix.total()");
}

/// Runs the scenario derived from `seed`. See [`run_scenario`].
pub fn run_seed(seed: u64) -> ScenarioOutcome {
    run_scenario(&ScenarioConfig::from_seed(seed))
}

/// Runs every seed in order and collects the outcomes.
pub fn run_matrix(seeds: &[u64]) -> MatrixReport {
    MatrixReport {
        outcomes: seeds.iter().map(|&s| run_seed(s)).collect(),
    }
}

/// Runs one scenario to completion: workload, crash, recovery, oracle.
///
/// Never panics on an oracle mismatch — mismatches come back as
/// [`Verdict::Fail`] so a matrix run can report every failing seed.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioOutcome {
    let device = SimDisk::new_shared(DeviceConfig::free_latency());
    device.set_write_cache(true);
    // Seeded per-op latency jitter (when the scenario has it): shuffles
    // completion scheduling across the device queue without touching effect
    // order, so replay stays byte-identical.
    if let Some(jitter) = cfg.jitter {
        device.set_latency_jitter(Some(LatencyJitter {
            seed: cfg.seed ^ JITTER_SALT,
            min_ns: jitter.min_ns,
            max_ns: jitter.max_ns,
        }));
    }
    let config = BacklogConfig::partitioned(cfg.partitions, cfg.block_range)
        .without_timing()
        .with_journaling()
        .with_journal_group_size(cfg.journal_group_size);
    let live = BacklogEngine::create_durable(device.clone(), config.clone())
        .expect("durable create on a fresh, fault-free device");
    // In-memory mirror for *mid-workload* differential checks only; the
    // post-crash oracle re-simulates its expected engine from the script.
    let reference = BacklogEngine::new_simulated(config.clone());

    // The workload phase may scatter per-op faults over the live engine.
    device.set_fault_profile(Some(FaultProfile {
        seed: cfg.seed ^ FAULT_SALT,
        read_fault: cfg.read_fault,
        write_fault: cfg.write_fault,
        torn_write: cfg.torn_write,
    }));

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ WORKLOAD_SALT);
    let mut lines = vec![LineId::ROOT];
    let mut snapshots: Vec<SnapshotId> = Vec::new();
    // The host metadata journal: lineage ops since the last durable CP.
    let mut meta_log: Vec<MetaOp> = Vec::new();
    // The full workload script, and the LSN the journal assigns each
    // reference callback (one entry per add/remove, in issue order).
    let mut script: Vec<ScriptOp> = Vec::new();
    let mut lsn = 0u64;
    // Highest LSN covered by a durable CP (its flush persists every
    // callback issued before it, journal acks aside).
    let mut cp_acked_lsn = 0u64;
    // The failed CP whose flip is on the device, if any (see `LandedCp`).
    let mut landed_cp: Option<LandedCp> = None;
    let mut verdict = Verdict::Pass;

    macro_rules! check {
        ($cond:expr, $($fmt:tt)*) => {
            if verdict.is_pass() && !$cond {
                verdict = Verdict::Fail { detail: format!($($fmt)*) };
            }
        };
    }

    macro_rules! ref_op {
        ($block:expr, $owner:expr, $add:expr) => {{
            let (block, owner) = ($block, $owner);
            lsn += 1;
            if $add {
                live.add_reference(block, owner);
                reference.add_reference(block, owner);
            } else {
                live.remove_reference(block, owner);
                reference.remove_reference(block, owner);
            }
            script.push(ScriptOp::Ref {
                lsn,
                block,
                owner,
                add: $add,
            });
        }};
    }

    for _step in 0..cfg.steps {
        match schedule(cfg, &mut rng) {
            Actor::Add => {
                let block = rng.gen_range(0..cfg.block_range);
                let inode = rng.gen_range(0..cfg.writers) + 1;
                let offset = rng.gen_range(0u64..8);
                let line = lines[rng.gen_range(0..lines.len())];
                ref_op!(block, Owner::block(inode, offset, line), true);
            }
            Actor::Remove => {
                let block = rng.gen_range(0..cfg.block_range);
                let inode = rng.gen_range(0..cfg.writers) + 1;
                let offset = rng.gen_range(0u64..8);
                let line = lines[rng.gen_range(0..lines.len())];
                ref_op!(block, Owner::block(inode, offset, line), false);
            }
            Actor::Query => {
                let block = rng.gen_range(0..cfg.block_range);
                // An injected read fault fails the live query; the engine
                // must surface the error (not panic) and the comparison is
                // skipped — the device really did refuse to answer.
                if let Ok(live_owners) = live.live_owners(block) {
                    let ref_owners = reference.live_owners(block).expect("in-memory query");
                    check!(
                        live_owners == ref_owners,
                        "mid-workload query diverged on block {block}"
                    );
                }
            }
            Actor::ConsistencyPoint => {
                // A CP may die on an injected write fault; the reference
                // then skips its own CP so the two CP clocks stay aligned,
                // and the live engine keeps running on the previous durable
                // generation.
                if live.consistency_point().is_ok() {
                    reference.consistency_point().expect("in-memory CP");
                    script.push(ScriptOp::Cp);
                    cp_acked_lsn = lsn;
                    meta_log.clear(); // durable now
                    landed_cp = None; // overwritten by this flip
                } else if let Some(sb) = superblock_on_device(&device)
                    .filter(|sb| sb.generation > live.superblock_generation())
                {
                    // An earlier failed attempt's flip, unless this one
                    // replaced it.
                    if landed_cp.as_ref().is_none_or(|l| l.superblock != sb) {
                        landed_cp = Some(LandedCp {
                            superblock: sb,
                            script_at: script.len(),
                            meta_at: meta_log.len(),
                        });
                    }
                }
            }
            Actor::Snapshot => {
                let line = lines[rng.gen_range(0..lines.len())];
                let a = live.take_snapshot(line);
                let b = reference.take_snapshot(line);
                check!(a == b, "snapshot ids diverged ({a:?} vs {b:?})");
                snapshots.push(a);
                meta_log.push(MetaOp::TakeSnapshot(line));
                script.push(ScriptOp::Meta(MetaOp::TakeSnapshot(line)));
            }
            Actor::Clone => {
                if snapshots.is_empty() {
                    continue;
                }
                let parent = snapshots[rng.gen_range(0..snapshots.len())];
                let a = live.create_clone(parent);
                let b = reference.create_clone(parent);
                check!(a == b, "clone lines diverged ({a:?} vs {b:?})");
                lines.push(a);
                meta_log.push(MetaOp::RegisterClone(parent, a));
                script.push(ScriptOp::Meta(MetaOp::RegisterClone(parent, a)));
            }
            Actor::DeleteSnapshot => {
                if snapshots.is_empty() {
                    continue;
                }
                let snap = snapshots[rng.gen_range(0..snapshots.len())];
                live.delete_snapshot(snap);
                reference.delete_snapshot(snap);
                meta_log.push(MetaOp::DeleteSnapshot(snap));
                script.push(ScriptOp::Meta(MetaOp::DeleteSnapshot(snap)));
            }
            Actor::Maintenance => {
                // Maintenance on the live engine may die on an injected
                // fault; that must be invisible to queries either way.
                let _ = live.maintenance();
                reference.maintenance().expect("in-memory maintenance");
                script.push(ScriptOp::Maintenance);
            }
            Actor::JournalSync => {
                // A group commit may die on an injected fault; the entries
                // stay pending and no durability is acknowledged.
                let _ = live.journal_sync();
            }
        }
    }

    // Pre-crash sweep: the live engine's in-memory answers must already
    // match the reference before any crash is injected, so a later failure
    // pins the divergence to recovery rather than the workload. Blocks the
    // device refuses to read (injected read fault) are skipped — the fault
    // plane is still armed here.
    for block in 0..cfg.block_range {
        if let Ok(owners) = live.live_owners(block) {
            check!(
                owners == reference.live_owners(block).expect("in-memory query"),
                "block {block} owners diverged before the crash"
            );
        }
    }

    // ------------------------------------------------------------------
    // Crash: kill the final durability operation — a CP or a journal group
    // commit — at a scheduled device write, then cut the power: unflushed
    // cached pages persist, tear, or vanish per the plan.
    // ------------------------------------------------------------------
    device.set_fault_profile(None);
    let mut crashed_cp_frame = None;
    let (crashed_mid_cp, crashed_mid_commit) = match cfg.crash.kind {
        CrashKind::ConsistencyPoint => {
            device.fail_writes_after(cfg.crash.fault_after_writes);
            let attempt = live.consistency_point();
            device.clear_write_fault();
            if attempt.is_ok() {
                script.push(ScriptOp::Cp);
                cp_acked_lsn = lsn;
                meta_log.clear();
                landed_cp = None;
            } else {
                crashed_cp_frame = live.manifest_log().last_attempt;
            }
            (attempt.is_err(), false)
        }
        CrashKind::GroupCommit => {
            // Make sure the doomed commit has something to write: top up
            // the pending segment (adds may auto-commit at the threshold,
            // which drains it again, so loop on the observed count).
            for extra in 0..3u64 {
                let pending = live
                    .journal_ring_stats()
                    .expect("journaling is enabled")
                    .pending_entries;
                if pending > 0 {
                    break;
                }
                ref_op!(
                    extra % cfg.block_range,
                    Owner::block(1, extra, LineId::ROOT),
                    true
                );
            }
            device.fail_writes_after(cfg.crash.fault_after_writes);
            let attempt = live.journal_sync();
            device.clear_write_fault();
            (false, attempt.is_err())
        }
    };
    // Everything the live engine acknowledged durable before the cut: CP
    // coverage plus the ring's acked group commits.
    let acked_lsn = cp_acked_lsn.max(live.journal_durable_lsn());
    // Flight-recorder dump at the moment of the crash: stamped by the
    // deterministic tick clock, so its digest must replay byte-identically
    // for the same seed; its tail is the failing seed's timeline.
    let trace = live.obs().recorder().dump();
    let generation_at_crash = live.superblock_generation();
    drop(live);
    let cut = device.power_cut(&PowerCutProfile {
        seed: cfg.seed ^ CUT_SALT,
        persist: cfg.crash.persist,
        torn: cfg.crash.torn,
    });

    // ------------------------------------------------------------------
    // Recover from the raw device image alone: reopen, re-apply host
    // metadata, then scan and replay the on-device journal ring.
    // ------------------------------------------------------------------
    let mut journal_replayed = 0u64;
    let mut recovered_lsn = 0u64;
    let recovered = match BacklogEngine::open(device.clone(), config.clone()) {
        Ok(recovered) => {
            // Recovery landed on a CP the engine had reported as failed:
            // that CP happened — its frame holds the lineage up to it, and
            // the oracle's clock advances where it sits in the script.
            if let Some(cp) =
                landed_cp.filter(|_| recovered.superblock_generation() > generation_at_crash)
            {
                script.insert(cp.script_at, ScriptOp::Cp);
                meta_log.drain(..cp.meta_at);
            }
            for &op in &meta_log {
                apply_meta(&recovered, op);
            }
            match recovered.replay_recovered_journal() {
                Ok(rec) => {
                    journal_replayed = rec.applied as u64;
                    recovered_lsn = rec.last_lsn;
                }
                Err(e) => check!(false, "journal ring replay failed: {e}"),
            }
            Some(recovered)
        }
        Err(e) => {
            check!(false, "reopen after power cut failed: {e}");
            None
        }
    };
    // The journal frontier: every reference op at or below it survived the
    // crash (via the durable CP or the recovered ring); everything above it
    // was never acknowledged and is legitimately gone.
    let frontier = cp_acked_lsn.max(recovered_lsn);
    check!(
        frontier >= acked_lsn,
        "acknowledged-durable callbacks lost: recovered frontier {frontier} < acked {acked_lsn}"
    );

    // ------------------------------------------------------------------
    // Oracle: re-simulate the expected engine from the script up to the
    // frontier; the recovered engine must answer exactly like it.
    // ------------------------------------------------------------------
    let expected = BacklogEngine::new_simulated(config.clone());
    for op in &script {
        match *op {
            ScriptOp::Ref {
                lsn: op_lsn,
                block,
                owner,
                add,
            } => {
                if op_lsn <= frontier {
                    if add {
                        expected.add_reference(block, owner);
                    } else {
                        expected.remove_reference(block, owner);
                    }
                }
            }
            ScriptOp::Meta(m) => apply_meta(&expected, m),
            ScriptOp::Cp => {
                expected.consistency_point().expect("in-memory CP");
            }
            ScriptOp::Maintenance => {
                expected.maintenance().expect("in-memory maintenance");
            }
        }
    }

    if let Some(recovered) = recovered {
        check!(
            recovered.current_cp() == expected.current_cp(),
            "CP clock diverged: recovered {:?} vs expected {:?}",
            recovered.current_cp(),
            expected.current_cp()
        );
        let mut expected_refs = Vec::new();
        let mut all_blocks = Vec::new();
        for block in 0..cfg.block_range {
            all_blocks.push(block);
            let exp_owners = expected.live_owners(block).expect("in-memory query");
            match recovered.live_owners(block) {
                Ok(owners) => check!(
                    owners == exp_owners,
                    "block {block} owners diverged after recovery"
                ),
                Err(e) => check!(false, "post-recovery query on block {block} failed: {e}"),
            }
            expected_refs.extend(exp_owners.into_iter().map(|o| ExpectedRef::new(block, o)));
        }
        match verify(&recovered, &expected_refs, &all_blocks) {
            Ok(report) => check!(
                report.is_consistent(),
                "verify: {} missing, {} spurious of {} checked",
                report.missing.len(),
                report.spurious.len(),
                report.checked
            ),
            Err(e) => check!(false, "verify pass failed: {e}"),
        }
        let (sa, sb) = (recovered.stats(), expected.stats());
        check!(
            sa.refs_added == sb.refs_added && sa.refs_removed == sb.refs_removed,
            "cumulative counters diverged: {}+/{}- vs {}+/{}-",
            sa.refs_added,
            sa.refs_removed,
            sb.refs_added,
            sb.refs_removed
        );
        // Convergence: the recovered engine keeps working — another CP and
        // maintenance pass on both sides must leave queries aligned.
        match recovered
            .consistency_point()
            .and_then(|_| recovered.maintenance())
        {
            Ok(_) => {
                expected.consistency_point().expect("in-memory CP");
                expected.maintenance().expect("in-memory maintenance");
                for block in 0..cfg.block_range {
                    match recovered.live_owners(block) {
                        Ok(owners) => check!(
                            owners == expected.live_owners(block).expect("in-memory query"),
                            "block {block} owners diverged after post-recovery maintenance"
                        ),
                        Err(e) => {
                            check!(false, "post-maintenance query on block {block} failed: {e}")
                        }
                    }
                }
            }
            Err(e) => check!(false, "post-recovery CP/maintenance failed: {e}"),
        }
    }

    let trace_tail = (!verdict.is_pass()).then(|| trace.last_n(TRACE_TAIL_EVENTS).render());
    ScenarioOutcome {
        seed: cfg.seed,
        verdict,
        steps: cfg.steps,
        crashed_mid_cp,
        crashed_cp_frame,
        crashed_mid_commit,
        cut,
        acked_lsn,
        recovered_lsn,
        journal_replayed,
        device_digest: device.content_digest(),
        io: device.stats().snapshot(),
        trace_digest: trace.digest(),
        trace_events: trace.events.len() as u64,
        trace_tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_seed_matrix_passes() {
        // 64 seeds: few scenarios die mid-CP (a CP is a handful of writes,
        // the fault point is drawn from 0..48), and both kinds of dying CP
        // must show up.
        let report = run_matrix(&(0..64u64).collect::<Vec<_>>());
        for o in &report.outcomes {
            assert!(o.passed(), "{}", o.repro_line());
        }
        assert!(
            report.mid_cp_crashes() > 0,
            "at least one scenario must crash mid-CP"
        );
        assert!(
            report.mid_commit_crashes() > 0,
            "at least one scenario must crash mid-group-commit"
        );
        assert!(
            report.mid_delta_cp_crashes() > 0,
            "at least one mid-CP crash must land in a delta CP"
        );
        assert!(
            report.mid_base_cp_crashes() > 0,
            "at least one mid-CP crash must land in a base or rollover CP"
        );
    }

    #[test]
    fn scenario_shapes_vary_with_the_seed() {
        let a = ScenarioConfig::from_seed(1);
        let b = ScenarioConfig::from_seed(2);
        assert_ne!(a, b);
        assert_eq!(a, ScenarioConfig::from_seed(1));
    }

    #[test]
    fn trace_streams_replay_byte_identically() {
        for seed in [3u64, 7, 11] {
            let a = run_seed(seed);
            let b = run_seed(seed);
            assert!(a.trace_events > 0, "recorder was armed during the run");
            assert_eq!(
                a.trace_digest, b.trace_digest,
                "seed {seed}: trace event stream diverged across identical runs"
            );
            assert_eq!(a, b, "seed {seed}: outcomes diverged");
        }
    }

    #[test]
    fn failing_seed_carries_a_timeline_tail() {
        // Passing seeds carry no tail; force a failure by comparing a
        // run against itself is not possible here, so assert the
        // pass-side contract and the accessor's empty default.
        let outcome = run_seed(5);
        assert!(outcome.passed(), "{}", outcome.repro_line());
        assert!(outcome.trace_tail.is_none());
        assert_eq!(outcome.trace_timeline(), "");
    }

    #[test]
    fn jittered_scenarios_occur_and_replay_identically() {
        let jittered = (0..16u64)
            .map(ScenarioConfig::from_seed)
            .find(|cfg| cfg.jitter.is_some())
            .expect("about half of all seeds derive a jitter plan");
        let a = run_scenario(&jittered);
        let b = run_scenario(&jittered);
        assert!(a.passed(), "{}", a.repro_line());
        assert_eq!(a, b, "jittered completion order is a pure seed function");
    }
}
