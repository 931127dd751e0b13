//! Differential crash-recovery property test: a random workload (reference
//! churn, consistency points, snapshots, clones, maintenance) runs on a
//! durable journaled engine and on a never-crashed reference engine; the
//! durable engine is then crashed at a random device write of its final
//! consistency point, reopened from the device, and recovered — lineage
//! metadata from the host's metadata log (a write-anywhere file system
//! recovers snapshot metadata from its own journal), reference operations
//! from the on-device journal ring, group-committed before the crash and
//! scanned back from raw device contents. The recovered engine must answer
//! every query exactly like the engine that never crashed.
//!
//! A second property drops the "everything was acknowledged" assumption:
//! group commits land wherever the script puts them, the power cut discards
//! the device's write cache, and the recovered engine must equal the script
//! rolled forward to exactly the LSN recovery reports — having applied
//! exactly the recovered entries beyond the last durable CP's frontier.

use backlog::{BacklogConfig, BacklogEngine, LineId, Owner, SnapshotId};
use blockdev::{DeviceConfig, PowerCutProfile, SimDisk};
use proptest::prelude::*;

/// One step of the random workload.
#[derive(Debug, Clone, Copy)]
enum Step {
    Add {
        block: u64,
        inode: u64,
        offset: u64,
        line: usize,
    },
    Remove {
        block: u64,
        inode: u64,
        offset: u64,
        line: usize,
    },
    ConsistencyPoint,
    Snapshot {
        line: usize,
    },
    Clone {
        snap: usize,
    },
    DeleteSnapshot {
        snap: usize,
    },
    Maintenance,
    JournalSync,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0u64..40, 1u64..6, 0u64..8, 0usize..4)
            .prop_map(|(block, inode, offset, line)| Step::Add { block, inode, offset, line }),
        3 => (0u64..40, 1u64..6, 0u64..8, 0usize..4)
            .prop_map(|(block, inode, offset, line)| Step::Remove { block, inode, offset, line }),
        2 => Just(Step::ConsistencyPoint),
        1 => (0usize..4).prop_map(|line| Step::Snapshot { line }),
        1 => (0usize..4).prop_map(|snap| Step::Clone { snap }),
        1 => (0usize..4).prop_map(|snap| Step::DeleteSnapshot { snap }),
        1 => Just(Step::Maintenance),
        1 => Just(Step::JournalSync),
    ]
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Crash at write `fault` of the final CP, reopen, replay: queries pin
    /// to the never-crashed engine for any workload and fault point.
    #[test]
    fn crashed_engine_recovers_to_reference(
        steps in proptest::collection::vec(step_strategy(), 1..90),
        partitions in 1u32..4,
        fault in 0u64..60,
    ) {
        let config = BacklogConfig::partitioned(partitions, 40)
            .without_timing()
            .with_journaling();
        let device = SimDisk::new_shared(DeviceConfig::free_latency());
        let live = BacklogEngine::create_durable(device.clone(), config.clone()).unwrap();
        let reference = BacklogEngine::new_simulated(config.clone());

        // Host-side bookkeeping shared by both engines so their random
        // choices are identical.
        let mut lines = vec![LineId::ROOT];
        let mut snapshots: Vec<SnapshotId> = Vec::new();
        // The host metadata journal: lineage ops since the last durable CP.
        let mut meta_log: Vec<MetaOp> = Vec::new();

        for step in &steps {
            match *step {
                Step::Add { block, inode, offset, line } => {
                    let owner = Owner::block(inode, offset, lines[line % lines.len()]);
                    live.add_reference(block, owner);
                    reference.add_reference(block, owner);
                }
                Step::Remove { block, inode, offset, line } => {
                    let owner = Owner::block(inode, offset, lines[line % lines.len()]);
                    live.remove_reference(block, owner);
                    reference.remove_reference(block, owner);
                }
                Step::ConsistencyPoint => {
                    live.consistency_point().unwrap();
                    reference.consistency_point().unwrap();
                    meta_log.clear(); // durable now
                }
                Step::Snapshot { line } => {
                    let line = lines[line % lines.len()];
                    let a = live.take_snapshot(line);
                    let b = reference.take_snapshot(line);
                    prop_assert_eq!(a, b, "snapshot ids diverged");
                    snapshots.push(a);
                    meta_log.push(MetaOp::TakeSnapshot(line));
                }
                Step::Clone { snap } => {
                    if snapshots.is_empty() {
                        continue;
                    }
                    let parent = snapshots[snap % snapshots.len()];
                    let a = live.create_clone(parent);
                    let b = reference.create_clone(parent);
                    prop_assert_eq!(a, b, "clone lines diverged");
                    lines.push(a);
                    meta_log.push(MetaOp::RegisterClone(parent, a));
                }
                Step::DeleteSnapshot { snap } => {
                    if snapshots.is_empty() {
                        continue;
                    }
                    let snap = snapshots[snap % snapshots.len()];
                    live.delete_snapshot(snap);
                    reference.delete_snapshot(snap);
                    meta_log.push(MetaOp::DeleteSnapshot(snap));
                }
                Step::Maintenance => {
                    live.maintenance().unwrap();
                    reference.maintenance().unwrap();
                }
                Step::JournalSync => {
                    live.journal_sync().unwrap();
                }
            }
        }

        // Ack the whole workload with a group commit, then crash the final
        // consistency point at device write `fault`. If the fault point
        // lies beyond the CP's writes, the CP completes — a clean-shutdown
        // reopen, which must also pin to the reference.
        live.journal_sync().unwrap();
        device.fail_writes_after(fault);
        let attempt = live.consistency_point();
        device.clear_write_fault();
        drop(live);

        let recovered = match attempt {
            Ok(_) => {
                reference.consistency_point().unwrap();
                let recovered = BacklogEngine::open(device, config).unwrap();
                // Nothing to recover after a clean shutdown: the completed
                // CP covered every entry and truncated the ring behind it.
                let rec = recovered.replay_recovered_journal().unwrap();
                prop_assert_eq!((rec.recovered, rec.applied), (0, 0));
                recovered
            }
            Err(_) => {
                let recovered = BacklogEngine::open(device, config).unwrap();
                // Host recovery order: file-system metadata first (the
                // lineage ops), then the on-device journal ring.
                for &op in &meta_log {
                    apply_meta(&recovered, op);
                }
                recovered.replay_recovered_journal().unwrap();
                recovered
            }
        };

        prop_assert_eq!(
            recovered.current_cp(),
            reference.current_cp(),
            "CP clock diverged"
        );
        for block in 0..40u64 {
            prop_assert_eq!(
                recovered.live_owners(block).unwrap(),
                reference.live_owners(block).unwrap(),
                "block {} owners diverged after recovery (fault point {})",
                block,
                fault
            );
        }
        let (sa, sb) = (recovered.stats(), reference.stats());
        prop_assert_eq!(sa.refs_added, sb.refs_added, "refs_added diverged");
        prop_assert_eq!(sa.refs_removed, sb.refs_removed, "refs_removed diverged");

        // The recovered engine keeps working: another CP + maintenance pass,
        // applied to both, must leave queries aligned.
        recovered.consistency_point().unwrap();
        recovered.maintenance().unwrap();
        reference.consistency_point().unwrap();
        reference.maintenance().unwrap();
        for block in 0..40u64 {
            prop_assert_eq!(
                recovered.live_owners(block).unwrap(),
                reference.live_owners(block).unwrap(),
                "block {} owners diverged after post-recovery maintenance",
                block
            );
        }
    }

    /// Random ops / CPs / group commits, then a power cut that loses the
    /// write cache (optionally in the middle of a last CP). Recovery reports
    /// `last_lsn`; the recovered engine must equal the script rolled forward
    /// to exactly that LSN, and `applied` must be exactly the recovered
    /// entries beyond the last durable CP's frontier — single-threaded, that
    /// is every recovered entry, because truncation is exact too.
    #[test]
    fn recovery_rolls_forward_to_exactly_last_lsn(
        steps in proptest::collection::vec(step_strategy(), 1..90),
        partitions in 1u32..4,
        group_size in 0usize..6,
        // Device write at which a last CP dies; 40 and up: no last CP.
        final_cp_fault in 0u64..60,
    ) {
        let config = BacklogConfig::partitioned(partitions, 40)
            .without_timing()
            .with_journaling()
            .with_journal_group_size(group_size);
        let device = SimDisk::new_shared(DeviceConfig::free_latency());
        device.set_write_cache(true);
        let live = BacklogEngine::create_durable(device.clone(), config.clone()).unwrap();

        let mut lines = vec![LineId::ROOT];
        let mut snapshots: Vec<SnapshotId> = Vec::new();
        let mut meta_log: Vec<MetaOp> = Vec::new();
        // The script as the oracle replays it: reference ops carry the LSN
        // the journal gave them (callbacks count from 1).
        enum Scripted {
            Ref { lsn: u64, block: u64, owner: Owner, add: bool },
            Meta(MetaOp),
            Cp,
            Maintenance,
        }
        let mut script: Vec<Scripted> = Vec::new();
        let mut lsn = 0u64;
        // What the last durable CP covered, and what was acknowledged.
        let (mut cp_lsn, mut acked) = (0u64, 0u64);

        for step in &steps {
            match *step {
                Step::Add { block, inode, offset, line } | Step::Remove { block, inode, offset, line } => {
                    let owner = Owner::block(inode, offset, lines[line % lines.len()]);
                    let add = matches!(step, Step::Add { .. });
                    if add {
                        live.add_reference(block, owner);
                    } else {
                        live.remove_reference(block, owner);
                    }
                    lsn += 1;
                    script.push(Scripted::Ref { lsn, block, owner, add });
                }
                Step::ConsistencyPoint => {
                    live.consistency_point().unwrap();
                    script.push(Scripted::Cp);
                    cp_lsn = lsn;
                    meta_log.clear();
                }
                Step::Snapshot { line } => {
                    let line = lines[line % lines.len()];
                    snapshots.push(live.take_snapshot(line));
                    meta_log.push(MetaOp::TakeSnapshot(line));
                    script.push(Scripted::Meta(MetaOp::TakeSnapshot(line)));
                }
                Step::Clone { snap } => {
                    if snapshots.is_empty() {
                        continue;
                    }
                    let parent = snapshots[snap % snapshots.len()];
                    let line = live.create_clone(parent);
                    lines.push(line);
                    meta_log.push(MetaOp::RegisterClone(parent, line));
                    script.push(Scripted::Meta(MetaOp::RegisterClone(parent, line)));
                }
                Step::DeleteSnapshot { snap } => {
                    if snapshots.is_empty() {
                        continue;
                    }
                    let snap = snapshots[snap % snapshots.len()];
                    live.delete_snapshot(snap);
                    meta_log.push(MetaOp::DeleteSnapshot(snap));
                    script.push(Scripted::Meta(MetaOp::DeleteSnapshot(snap)));
                }
                Step::Maintenance => {
                    live.maintenance().unwrap();
                    script.push(Scripted::Maintenance);
                }
                Step::JournalSync => {
                    acked = acked.max(live.journal_sync().unwrap());
                }
            }
        }
        if final_cp_fault < 40 {
            device.fail_writes_after(final_cp_fault);
            if live.consistency_point().is_ok() {
                script.push(Scripted::Cp);
                cp_lsn = lsn;
                meta_log.clear();
            }
            device.clear_write_fault();
        }
        acked = acked.max(cp_lsn).max(live.journal_durable_lsn());
        drop(live);
        device.power_cut(&PowerCutProfile::lose_all(lsn ^ 0x5eed));

        let recovered = BacklogEngine::open(device, config.clone()).unwrap();
        for &op in &meta_log {
            apply_meta(&recovered, op);
        }
        let rec = recovered.replay_recovered_journal().unwrap();
        prop_assert!(rec.last_lsn >= acked, "acknowledged LSN {} lost, recovered to {}", acked, rec.last_lsn);
        prop_assert!(rec.last_lsn <= lsn);
        prop_assert_eq!(rec.applied as u64, rec.last_lsn - cp_lsn, "applied = entries beyond the frontier");
        prop_assert_eq!(rec.recovered, rec.applied, "nothing at or below the frontier is left in the ring");

        let expected = BacklogEngine::new_simulated(config);
        for op in &script {
            match *op {
                Scripted::Ref { lsn, block, owner, add } if lsn <= rec.last_lsn => {
                    if add {
                        expected.add_reference(block, owner);
                    } else {
                        expected.remove_reference(block, owner);
                    }
                }
                Scripted::Ref { .. } => {}
                Scripted::Meta(m) => apply_meta(&expected, m),
                Scripted::Cp => {
                    expected.consistency_point().unwrap();
                }
                Scripted::Maintenance => {
                    expected.maintenance().unwrap();
                }
            }
        }
        prop_assert_eq!(recovered.current_cp(), expected.current_cp(), "CP clock diverged");
        for block in 0..40u64 {
            prop_assert_eq!(
                recovered.live_owners(block).unwrap(),
                expected.live_owners(block).unwrap(),
                "block {} owners diverged after recovery to LSN {}",
                block,
                rec.last_lsn
            );
        }
        let (sa, sb) = (recovered.stats(), expected.stats());
        prop_assert_eq!(sa.refs_added, sb.refs_added, "refs_added diverged");
        prop_assert_eq!(sa.refs_removed, sb.refs_removed, "refs_removed diverged");
        // Numbering resumes right above what recovery reached.
        prop_assert_eq!(recovered.journal_sync().unwrap(), rec.last_lsn);
    }
}
