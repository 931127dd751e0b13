//! Criterion bench: parallel partition maintenance at several thread counts,
//! on the same pre-built database ([`backlog_bench::maintenance_db`], shared
//! with the `bench_maintenance_parallel` JSON binary so the two report
//! comparable numbers).
//!
//! `BacklogEngine::maintain` with `MaintenancePlan::full().with_threads(t)`
//! fans the independent per-partition rebuilds onto `t` scoped worker
//! threads (dirtiest partition first) while queries can keep running against
//! pre-rebuild snapshots; `threads = 1` is the serial baseline on the
//! calling thread.

use backlog::MaintenancePlan;
use backlog_bench::maintenance_db;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

fn bench_parallel_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintenance_parallel");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let (live, dead, partitions) = (20_000u64, 10_000u64, 8u32);
    for &threads in &[1usize, 2, 4] {
        group.throughput(Throughput::Elements(live + 2 * dead));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{partitions}p_{threads}t")),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    || maintenance_db(live, dead, partitions),
                    |e| {
                        e.maintain(MaintenancePlan::full().with_threads(threads))
                            .expect("maintenance failed")
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_maintenance);
criterion_main!(benches);
