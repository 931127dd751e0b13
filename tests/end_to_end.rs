//! Cross-crate integration tests: full workloads driven through the
//! simulator, verified against the back-reference database, across
//! maintenance, snapshots, clones and provider implementations.

use backlog::{BacklogConfig, LineId, MaintenancePlan};
use baseline::{BtrfsLikeBackrefs, NaiveBackrefs};
use fsim::{BacklogProvider, BackrefProvider, DedupConfig, FileSystem, FsConfig, SnapshotPolicy};
use workloads::{
    run_app, run_create, run_delete, AppConfig, AppProfile, MicrobenchSpec, SyntheticConfig,
    SyntheticWorkload, TraceConfig, TraceGenerator, TracePlayer,
};

fn backlog_fs(config: FsConfig) -> FileSystem<BacklogProvider> {
    FileSystem::new(
        BacklogProvider::new(BacklogConfig::default().without_timing()),
        config,
    )
}

fn assert_consistent(fs: &mut FileSystem<BacklogProvider>) {
    let expected = fs.expected_refs();
    let report =
        backlog::verify(fs.provider().engine(), &expected, &[]).expect("verification query failed");
    assert!(
        report.is_consistent(),
        "database inconsistent: {} missing, {} spurious (checked {})",
        report.missing.len(),
        report.spurious.len(),
        report.checked
    );
}

#[test]
fn synthetic_workload_with_clones_verifies_across_maintenance() {
    let mut cfg = SyntheticConfig::small();
    cfg.ops_per_cp = 400;
    cfg.clones_per_100_cps = 40.0;
    let mut workload = SyntheticWorkload::new(cfg);
    let mut fs = backlog_fs(
        FsConfig::default()
            .with_snapshots(SnapshotPolicy::paper_default(3))
            .with_seed(77),
    );
    for round in 0..3 {
        workload
            .run(&mut fs, 6, |_, _| {})
            .expect("workload failed");
        assert_consistent(&mut fs);
        fs.provider().maintenance().expect("maintenance failed");
        assert_consistent(&mut fs);
        assert!(
            fs.provider().engine().run_count() <= 3,
            "round {round}: maintenance left extra runs"
        );
    }
    assert!(
        fs.stats().clones_created > 0,
        "workload should have exercised clones"
    );
}

#[test]
fn nfs_trace_replay_matches_tree_walk() {
    let mut cfg = TraceConfig::small();
    cfg.hours = 3;
    cfg.peak_ops_per_sec = 2.0;
    cfg.offpeak_ops_per_sec = 1.0;
    let records: Vec<_> = TraceGenerator::new(cfg).flatten().collect();
    let mut fs = backlog_fs(FsConfig::default().with_snapshots(SnapshotPolicy::paper_default(50)));
    let mut player = TracePlayer::new(30);
    player
        .play(&mut fs, &records, |_, _| {})
        .expect("replay failed");
    player.finish(&mut fs).expect("final CP failed");
    assert_consistent(&mut fs);
    fs.provider().maintenance().expect("maintenance failed");
    assert_consistent(&mut fs);
}

#[test]
fn microbenchmark_and_dedup_heavy_fs_verify() {
    let mut fs = backlog_fs(FsConfig {
        dedup: DedupConfig {
            probability: 0.25,
            pool_size: 128,
        },
        metadata_cow: true,
        snapshot_policy: SnapshotPolicy::none(),
        seed: 9,
    });
    let spec = MicrobenchSpec::small_files(500, 128);
    let (inodes, _) = run_create(&mut fs, spec).expect("create failed");
    assert_consistent(&mut fs);
    // Delete half, keep half; verify again.
    run_delete(&mut fs, spec, &inodes[..250]).expect("delete failed");
    assert_consistent(&mut fs);
    assert_eq!(fs.file_count(LineId::ROOT).unwrap(), 250);
}

#[test]
fn application_mixes_verify_and_report_throughput() {
    for profile in [
        AppProfile::Dbench,
        AppProfile::Varmail,
        AppProfile::Postmark,
    ] {
        let mut fs = backlog_fs(FsConfig::minimal());
        let mut config = AppConfig::new(profile, 400);
        config.ops_per_cp = 128;
        let result = run_app(&mut fs, config).expect("app run failed");
        assert_eq!(result.transactions, 400);
        assert!(result.ops_per_sec() > 0.0);
        assert_consistent(&mut fs);
    }
}

#[test]
fn all_providers_agree_after_a_mixed_workload() {
    fn owners_snapshot<P: BackrefProvider>(provider: P, blocks: u64) -> Vec<Vec<backlog::Owner>> {
        let mut fs = FileSystem::new(provider, FsConfig::minimal().with_seed(3));
        let mut inodes = Vec::new();
        for i in 0..40u64 {
            inodes.push(fs.create_file(LineId::ROOT, 1 + i % 5).unwrap());
        }
        fs.take_consistency_point().unwrap();
        for &inode in inodes.iter().step_by(3) {
            fs.delete_file(LineId::ROOT, inode).unwrap();
        }
        for &inode in inodes.iter().skip(1).step_by(3) {
            fs.overwrite(LineId::ROOT, inode, 0, 1).unwrap();
        }
        fs.take_consistency_point().unwrap();
        (1..=blocks)
            .map(|b| fs.provider().query_owners(b).unwrap())
            .collect()
    }
    let reference = owners_snapshot(
        BacklogProvider::new(BacklogConfig::default().without_timing()),
        150,
    );
    assert_eq!(reference, owners_snapshot(NaiveBackrefs::default(), 150));
    assert_eq!(reference, owners_snapshot(BtrfsLikeBackrefs::new(), 150));
}

#[test]
fn partitioned_engine_behaves_like_single_partition() {
    let single = BacklogConfig::default().without_timing();
    let partitioned = BacklogConfig::partitioned(8, 100_000).without_timing();
    let mut answers = Vec::new();
    for config in [single, partitioned] {
        let mut fs = FileSystem::new(
            BacklogProvider::new(config),
            FsConfig::minimal().with_seed(5),
        );
        for _ in 0..50 {
            fs.create_file(LineId::ROOT, 4).unwrap();
        }
        fs.take_consistency_point().unwrap();
        fs.provider().maintenance().unwrap();
        let owners: Vec<_> = (1..=200u64)
            .map(|b| fs.provider().query_owners(b).unwrap())
            .collect();
        answers.push(owners);
    }
    assert_eq!(
        answers[0], answers[1],
        "partitioning must not change query results"
    );
}

#[test]
fn relocation_during_live_workload_stays_consistent() {
    let mut fs = backlog_fs(FsConfig::minimal().with_seed(11));
    let mut inodes = Vec::new();
    for _ in 0..30 {
        inodes.push(fs.create_file(LineId::ROOT, 8).unwrap());
    }
    fs.take_consistency_point().unwrap();
    // Defragment: move every block of the first ten files to a new region,
    // then fix up the simulator's own tables to match (as a real
    // defragmenter updating block pointers would).
    let mut target = 1_000_000u64;
    for &inode in &inodes[..10] {
        let blocks = fs.file_blocks(LineId::ROOT, inode).unwrap();
        for block in blocks.iter() {
            fs.provider()
                .engine()
                .relocate_block(*block, target)
                .unwrap();
            target += 1;
        }
    }
    fs.take_consistency_point().unwrap();
    // The moved blocks answer queries at their new location.
    let owners = fs.provider().query_owners(1_000_000).unwrap();
    assert_eq!(owners.len(), 1);
    assert_eq!(owners[0].inode, inodes[0]);
    // And the vacated region is unreferenced.
    let first_old_block = fs.file_blocks(LineId::ROOT, inodes[0]).unwrap()[0];
    assert!(fs
        .provider()
        .engine()
        .query_block(first_old_block)
        .unwrap()
        .refs
        .is_empty());
}

#[test]
fn maintenance_fault_mid_workload_keeps_database_consistent() {
    use blockdev::{DeviceConfig, FileStore, SimDisk};
    use std::sync::Arc;

    let disk = SimDisk::new_shared(DeviceConfig::free_latency());
    let files = Arc::new(FileStore::new(disk.clone()));
    let engine = backlog::BacklogEngine::new(
        files,
        BacklogConfig::partitioned(4, 100_000).without_timing(),
    );
    let mut fs = FileSystem::new(
        BacklogProvider::with_engine(engine),
        FsConfig::default()
            .with_snapshots(SnapshotPolicy::paper_default(4))
            .with_seed(23),
    );
    // Enough operations that the rebuild writes over a dozen delta-coded
    // leaf and fence pages, so every fault point below lands mid-pass.
    let mut cfg = SyntheticConfig::small();
    cfg.ops_per_cp = 5_000;
    let mut workload = SyntheticWorkload::new(cfg);
    workload
        .run(&mut fs, 8, |_, _| {})
        .expect("workload failed");
    assert_consistent(&mut fs);
    // A device fault mid-maintenance must leave the database exactly as
    // consistent as before: old runs intact wherever the swap did not
    // complete, equivalent rebuilt runs where it did.
    for fail_after in [0u64, 2, 6, 11] {
        disk.fail_writes_after(fail_after);
        assert!(
            fs.provider().maintenance().is_err(),
            "fault at write {fail_after} must surface"
        );
        disk.clear_write_fault();
        assert_consistent(&mut fs);
    }
    // The retry completes and the workload can continue.
    fs.provider().maintenance().expect("retry failed");
    assert_consistent(&mut fs);
    workload
        .run(&mut fs, 2, |_, _| {})
        .expect("post-recovery workload");
    assert_consistent(&mut fs);
}

#[test]
fn incremental_partition_maintenance_interleaves_with_workload() {
    let mut fs = FileSystem::new(
        BacklogProvider::new(BacklogConfig::partitioned(4, 100_000).without_timing()),
        FsConfig::default()
            .with_snapshots(SnapshotPolicy::paper_default(4))
            .with_seed(31),
    );
    let mut cfg = SyntheticConfig::small();
    cfg.ops_per_cp = 250;
    let mut workload = SyntheticWorkload::new(cfg);
    // Spread targeted maintenance over workload rounds — one partition per
    // round, the way a file system amortizes maintenance into idle windows.
    let partitions = 4;
    for round in 0..8u32 {
        workload
            .run(&mut fs, 2, |_, _| {})
            .expect("workload failed");
        fs.provider()
            .engine()
            .maintain(MaintenancePlan::partition(round % partitions))
            .expect("targeted maintenance failed");
        assert_consistent(&mut fs);
    }
}

#[test]
fn maintenance_is_idempotent_and_preserves_queries() {
    let mut cfg = SyntheticConfig::small();
    cfg.ops_per_cp = 300;
    let mut workload = SyntheticWorkload::new(cfg);
    let mut fs = backlog_fs(FsConfig::default().with_snapshots(SnapshotPolicy::paper_default(4)));
    workload
        .run(&mut fs, 10, |_, _| {})
        .expect("workload failed");
    let blocks: Vec<u64> = (1..=500).collect();
    let before: Vec<_> = blocks
        .iter()
        .map(|&b| fs.provider().query_owners(b).unwrap())
        .collect();
    fs.provider().maintenance().unwrap();
    let after_one: Vec<_> = blocks
        .iter()
        .map(|&b| fs.provider().query_owners(b).unwrap())
        .collect();
    fs.provider().maintenance().unwrap();
    let after_two: Vec<_> = blocks
        .iter()
        .map(|&b| fs.provider().query_owners(b).unwrap())
        .collect();
    assert_eq!(before, after_one, "maintenance changed live query answers");
    assert_eq!(after_one, after_two, "second maintenance changed answers");
}
