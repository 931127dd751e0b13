//! The four workloads and the one life cycle they all run through.
//!
//! Every workload is the same sequence — set-up, write phase, queries on the
//! aged database, power cut + reopen, one full maintenance pass, the same
//! queries on the compacted database, tree-walk verification — so every
//! end-to-end metric is measured on every workload. What differs is where
//! the time goes: the shape of the write phase (large CPs, thousands of tiny
//! CPs, a short one after a long set-up, or one racing a query client) and
//! the number of queries.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use backlog::{BacklogEngine, BlockNo, ExpectedRef, InodeNo, LineId, Owner};
use blockdev::{Device, IoStatsSnapshot, PowerCutProfile, PAGE_SIZE};
use fsim::{DedupConfig, FileSystem, FsConfig, FsError, SnapshotPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{SyntheticConfig, SyntheticWorkload, TraceConfig, TraceGenerator, TracePlayer};

use crate::device::DeviceCounts;
use crate::guard::{Guard, GuardSummary};
use crate::harness::{
    apply_lineage, engine_config, engine_device, record_maintenance, Bench, Event, MaintStats,
    Maintenance, Replay, StagingProvider, WriteStats,
};
use crate::queries::{point_queries, range_queries, Expected, QueryStats, RANGE_BLOCKS};
use crate::trace::{Kind, Span, Tracer, KINDS};

/// `--seconds` value the sizes below are stated for; other values scale
/// every count in proportion.
pub const NOMINAL_SECONDS: f64 = 10.0;
/// Times the set-up is built in a run that reports `setup_s` (the median).
pub const SETUP_REPS: usize = 3;
/// CPs between space samples and spot checks in a synthetic write phase
/// (a trace samples once per trace hour).
const SAMPLE_EVERY_CPS: u64 = 10;
/// References looked up per spot check.
const SPOT_CHECK_REFS: usize = 32;
/// Live blocks handed to the `mixed_2t` query client at each sample.
const CLIENT_KEYS: usize = 1024;
/// One op in this many of the `mixed_2t` query client is a range query.
const CLIENT_RANGE_EVERY: u64 = 64;
/// A writable clone is created every this many synthetic CPs (the paper's
/// ~7 per 100 CPs) ...
const CLONE_EVERY_CPS: u64 = 14;
/// ... and the oldest is deleted once more than this many are live.
const MAX_LIVE_CLONES: usize = 4;
/// Block operations per CP for each overwrite directed at a clone (the
/// paper's 5 % of updates comes to about one file operation in 640 block
/// operations).
const OPS_PER_CLONE_WRITE: u64 = 640;

/// What drives the write phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Paper §6.2.1 synthetic mix: `setup_cps` untimed then `cps` timed
    /// consistency points of `ops_per_cp` block operations each.
    Synthetic {
        /// CPs run as set-up, without maintenance.
        setup_cps: u64,
        /// CPs in the timed write phase.
        cps: u64,
        /// Block operations per CP.
        ops_per_cp: u64,
    },
    /// Paper §6.2.2 NFS-shaped trace, a CP every 10 s of trace time:
    /// `setup_hours` untimed then `hours` timed.
    Trace {
        /// Trace hours replayed as set-up.
        setup_hours: u64,
        /// Trace hours in the timed write phase.
        hours: u64,
    },
}

/// One workload: a name, the reason it exists, and fixed sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// The write phase.
    pub load: Load,
    /// Maintenance during the write phase: every this many CPs (synthetic)
    /// or trace hours (trace); 0 = never.
    pub maintain_every: u64,
    /// Entry point those calls use.
    pub maintain_how: Maintenance,
    /// How staged callbacks reach the engine.
    pub replay: Replay,
    /// Whether a query client thread runs beside the write phase.
    pub concurrent_client: bool,
    /// Point queries per quiescent query phase.
    pub point_queries: u64,
    /// Range queries per quiescent query phase.
    pub range_queries: u64,
    /// Block-number space the 8 engine partitions divide, at nominal size
    /// (about the highest block number the workload allocates).
    pub key_space: u64,
    /// Heap the process touches before the first set-up, MiB at nominal
    /// size: a little above the workload's peak resident size.
    pub heap_mib: u64,
}

/// The workloads, at their `--seconds 10` sizes.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "ingest",
        why: "Large CPs (32 000 block ops each, paper Fig. 5/6): per-op callback CPU, journal \
              group commit and run building dominate; per-CP fixed cost is amortised away.",
        load: Load::Synthetic {
            setup_cps: 4,
            cps: 120,
            ops_per_cp: 32_000,
        },
        maintain_every: 50,
        maintain_how: Maintenance::Full,
        replay: Replay::Scalar,
        concurrent_client: false,
        point_queries: 40_000,
        range_queries: 1_000,
        key_space: 2_400_000,
        heap_mib: 520,
    },
    Spec {
        name: "trickle",
        why: "NFS-shaped trace, CP every 10 s (paper Fig. 7/8): thousands of small and empty CPs, \
              so per-CP fixed cost (manifest, barriers, superblock flip) dominates, not callbacks.",
        load: Load::Trace {
            setup_hours: 1,
            hours: 9,
        },
        maintain_every: 1,
        maintain_how: Maintenance::IfDirty(16),
        replay: Replay::Scalar,
        concurrent_client: false,
        point_queries: 40_000,
        range_queries: 500,
        key_space: 1_600_000,
        heap_mib: 1_150,
    },
    Spec {
        name: "query_aged",
        why:
            "Read path (paper Fig. 9/10): queries over hundreds of unmaintained Level-0 runs are \
              lsm-bound (Bloom, cursors, merge); the same queries after maintenance are join-bound.",
        load: Load::Synthetic {
            setup_cps: 60,
            cps: 60,
            ops_per_cp: 8_000,
        },
        maintain_every: 0,
        maintain_how: Maintenance::Full,
        replay: Replay::Scalar,
        concurrent_client: false,
        point_queries: 300_000,
        range_queries: 3_000,
        key_space: 640_000,
        heap_mib: 260,
    },
    Spec {
        name: "mixed_2t",
        why: "Writer (apply batches of 256, maintenance_if_dirty) beside a closed-loop query \
              client: the only workload where partition, rebuild, CP and shard locks contend.",
        load: Load::Synthetic {
            setup_cps: 4,
            cps: 300,
            ops_per_cp: 8_000,
        },
        maintain_every: 10,
        maintain_how: Maintenance::IfDirty(16),
        replay: Replay::Batched,
        concurrent_client: true,
        point_queries: 40_000,
        range_queries: 1_000,
        key_space: 1_600_000,
        heap_mib: 480,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Per-run knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Every generator, query-key and power-cut RNG derives from this.
    pub seed: u64,
    /// Size multiplier: `--seconds / 10` (or 1/20 under `--smoke`).
    pub scale: f64,
    /// Record spans and time device calls.
    pub trace: bool,
    /// The engine's own `track_timing` (on except in the traced run's pass
    /// that measures its cost).
    pub engine_timing: bool,
    /// Times the set-up is built; the last build is the one measured.
    pub setup_reps: usize,
}

fn scaled(base: u64, scale: f64, min: u64) -> u64 {
    ((base as f64 * scale).round() as u64).max(min)
}

/// Derives an independent RNG seed for one purpose (splitmix64 finaliser).
fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SALT_GENERATOR: u64 = 1;
const SALT_DEDUP: u64 = 2;
const SALT_KEYS: u64 = 3;
const SALT_CLIENT: u64 = 4;
const SALT_TAIL: u64 = 5;
const SALT_POWER_CUT: u64 = 6;
const SALT_SPOT: u64 = 7;
const SALT_CLONES: u64 = 8;

/// Sums of the engine's own histograms the per-layer table passes through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineSums {
    /// `cp_phase_{prepare,flush,barrier,flip,retire}` sums, ns.
    pub cp_phase_ns: [u64; 5],
    /// Journal group commits.
    pub group_commits: u64,
    /// Time in journal group commits, ns.
    pub group_commit_ns: u64,
}

impl EngineSums {
    fn read(engine: &BacklogEngine) -> Self {
        let o = engine.obs();
        EngineSums {
            cp_phase_ns: [
                o.cp_phase_prepare.sum(),
                o.cp_phase_flush.sum(),
                o.cp_phase_barrier.sum(),
                o.cp_phase_flip.sum(),
                o.cp_phase_retire.sum(),
            ],
            group_commits: o.group_commit_ns.count(),
            group_commit_ns: o.group_commit_ns.sum(),
        }
    }

    /// Field-wise `self + sign * other`.
    fn combine(mut self, other: &EngineSums, sign: i64) -> Self {
        let add = |a: &mut u64, b: u64| *a = a.wrapping_add_signed(sign * b as i64);
        for (a, b) in self.cp_phase_ns.iter_mut().zip(other.cp_phase_ns) {
            add(a, b);
        }
        add(&mut self.group_commits, other.group_commits);
        add(&mut self.group_commit_ns, other.group_commit_ns);
        self
    }
}

/// Everything one run measured; [`crate::metrics`] turns it into the named
/// metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed section (the root span).
    pub wall_ns: u64,
    /// Block operations `fsim` issued in the timed section.
    pub block_ops: u64,
    /// Write-path accounting.
    pub write: WriteStats,
    /// Maintenance accounting (write phase + the full pass after reopen).
    pub maint: MaintStats,
    /// Quiescent queries on the aged database.
    pub aged: QueryStats,
    /// The same queries after the full maintenance pass.
    pub compact: QueryStats,
    /// The query client that ran beside the write phase, if any.
    pub client: Option<QueryStats>,
    /// Max over samples of database bytes / physical data bytes, %.
    pub space_pct_peak: f64,
    /// The same ratio after the last maintenance pass, %.
    pub space_pct_settled: f64,
    /// `BacklogEngine::open` after the power cut.
    pub open_ns: u64,
    /// `replay_recovered_journal` after the power cut.
    pub replay_ns: u64,
    /// Journal entries recovery re-applied.
    pub replayed_entries: u64,
    /// Output checks made (spot checks, sampled answers, verified refs).
    pub checked: u64,
    /// Operations that failed (see README "What counts as failed").
    pub failed: u64,
    /// One line per kind of failure seen.
    pub failures: Vec<String>,
    /// Engine histogram sums over the timed section.
    pub engine: EngineSums,
    /// `IoStats` delta over the timed section.
    pub io: IoStatsSnapshot,
    /// `SimClock` advance over the timed section.
    pub sim_elapsed_ns: u64,
    /// Time threads waited for contended engine locks.
    pub lock_wait_ns: u64,
    /// Most bytes allocated on the device at any sample.
    pub bytes_stored_peak: u64,
    /// Most Level-0 runs on disk at any sample.
    pub runs_peak: u64,
    /// Bloom filter memory when the aged queries ran.
    pub bloom_bytes: u64,
    /// Whether the [`Guard`] saw a neighbour disturb the machine during
    /// `open` or the journal replay.
    pub reopen_disturbed: bool,
    /// What the writer thread's guard saw.
    pub guard: GuardSummary,
    /// Spans of the timed section (traced runs).
    pub spans: Vec<Span>,
    /// Device wrapper counters per span kind (traced runs).
    pub device: [DeviceCounts; KINDS],
}

impl Outcome {
    /// Operations attempted: callbacks, CPs, maintenance calls, queries,
    /// reopen steps and output checks.
    pub fn attempted(&self) -> u64 {
        let queries =
            self.aged.issued + self.compact.issued + self.client.as_ref().map_or(0, |c| c.issued);
        self.write.ops
            + self.write.cp_ns.len() as u64
            + self.maint.passes
            + queries
            + 2
            + self.checked
    }

    /// Time spent inside the engine's public functions on the main thread:
    /// callback replay, CPs, maintenance, the quiescent queries, open and
    /// journal replay. Comparable between passes of one workload (the query
    /// client is left out: it issues as many queries as the writer's pace
    /// allows).
    pub fn engine_ns(&self) -> u64 {
        self.write.callback_ns
            + self.write.cp_ns.iter().sum::<u64>()
            + self.maint.ns
            + self.aged.issued_ns
            + self.compact.issued_ns
            + self.open_ns
            + self.replay_ns
    }

    /// How much of the run a neighbour disturbed (see [`crate::guard`]), as
    /// two shares, each the largest over its kinds of sample. First, of what
    /// stays in the statistics all the same: CP intervals, maintenance
    /// passes, the one reopen. Second, of what is dropped from them: each
    /// query phase's point and range queries.
    pub fn disturbance(&self) -> (f64, f64) {
        let share = |disturbed: u64, all: u64| disturbed as f64 / all.max(1) as f64;
        let dropped_of = |q: &QueryStats| {
            let ranges = q.ranges_issued();
            share(q.points_issued - q.point_ns.len() as u64, q.points_issued)
                .max(share(ranges - q.range_ns.len() as u64, ranges))
        };
        let counted = share(self.write.disturbed_cps, self.write.cp_ns.len() as u64)
            .max(share(self.maint.disturbed_passes, self.maint.passes))
            .max(share(u64::from(self.reopen_disturbed), 1));
        let dropped = dropped_of(&self.aged)
            .max(dropped_of(&self.compact))
            .max(self.client.as_ref().map_or(0.0, dropped_of));
        (counted, dropped)
    }

    fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        if count > 0 {
            self.failed += count;
            self.failures.push(what());
        }
    }
}

/// The synthetic mix's clone churn, on a fixed schedule. The stock generator
/// draws clone creations from its RNG — about eight in a whole run — and
/// query cost, space and purging all follow the number of live clones, so
/// two seeds would measure two different systems. Here every seed has the
/// same clones at the same CPs; the seed still picks the files and offsets.
struct CloneChurn {
    rng: StdRng,
    writes_per_cp: u64,
    cps: u64,
    clones: Vec<(LineId, Vec<InodeNo>)>,
}

impl CloneChurn {
    fn new(seed: u64, ops_per_cp: u64) -> Self {
        CloneChurn {
            rng: StdRng::seed_from_u64(seed),
            writes_per_cp: ops_per_cp / OPS_PER_CLONE_WRITE,
            cps: 0,
            clones: Vec::new(),
        }
    }

    /// Runs between two CP intervals of the stock generator.
    fn after_cp(&mut self, fs: &mut FileSystem<StagingProvider>) -> Result<(), FsError> {
        self.cps += 1;
        if self.cps.is_multiple_of(CLONE_EVERY_CPS) {
            let snapshot = match fs.retained_snapshots().into_iter().last() {
                Some(s) => s,
                None => fs.take_snapshot(LineId::ROOT)?,
            };
            let line = fs.create_clone(snapshot)?;
            self.clones.push((line, fs.files(line)?));
            if self.clones.len() > MAX_LIVE_CLONES {
                fs.delete_clone(self.clones.remove(0).0)?;
            }
        }
        if self.clones.is_empty() {
            return Ok(());
        }
        for _ in 0..self.writes_per_cp {
            let (line, files) = &self.clones[self.rng.gen_range(0..self.clones.len())];
            if files.is_empty() {
                continue;
            }
            let inode = files[self.rng.gen_range(0..files.len())];
            let len = fs.file_len(*line, inode)?;
            if len == 0 {
                continue;
            }
            let offset = self.rng.gen_range(0..len);
            let span = self.rng.gen_range(1..=4.min(len - offset));
            fs.overwrite(*line, inode, offset, span)?;
        }
        Ok(())
    }
}

enum Generator {
    Synthetic {
        workload: SyntheticWorkload,
        churn: CloneChurn,
        cps_left: u64,
    },
    Trace {
        generator: TraceGenerator,
        player: TracePlayer,
    },
}

/// A file system driving a freshly set-up engine.
struct Live {
    bench: Arc<Bench>,
    fs: FileSystem<StagingProvider>,
    generator: Generator,
}

impl Live {
    /// Runs the next step of the timed load — one CP interval (synthetic) or
    /// one trace hour — and says whether there was one.
    fn step(&mut self) -> Result<bool, String> {
        match &mut self.generator {
            Generator::Synthetic { cps_left: 0, .. } => Ok(false),
            Generator::Synthetic {
                workload,
                churn,
                cps_left,
            } => {
                workload
                    .run_cp(&mut self.fs)
                    .map_err(|e| err("CP interval", e))?;
                churn
                    .after_cp(&mut self.fs)
                    .map_err(|e| err("clone churn", e))?;
                *cps_left -= 1;
                Ok(true)
            }
            Generator::Trace { generator, player } => match generator.next_hour() {
                Some(records) => {
                    player
                        .play(&mut self.fs, &records, |_, _| {})
                        .map_err(|e| err("trace hour", e))?;
                    Ok(true)
                }
                None => {
                    player
                        .finish(&mut self.fs)
                        .map_err(|e| err("final trace CP", e))?;
                    Ok(false)
                }
            },
        }
    }
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Builds the engine, the simulator and the generator and runs the
/// workload's set-up load.
fn set_up(spec: &Spec, p: &Params, tracer: &Arc<Tracer>) -> Result<Live, String> {
    let key_space = scaled(spec.key_space, p.scale, 1024);
    let bench = Bench::create(
        tracer.clone(),
        engine_config(key_space, p.engine_timing),
        spec.replay,
    )
    .map_err(|e| err("create_durable", e))?;
    let cps_per_hour = match spec.load {
        Load::Synthetic { .. } => 10,
        Load::Trace { .. } => 360,
    };
    let fs_config = FsConfig {
        dedup: DedupConfig {
            probability: 0.10,
            pool_size: 1024,
        },
        metadata_cow: true,
        snapshot_policy: SnapshotPolicy::paper_default(cps_per_hour),
        seed: sub_seed(p.seed, SALT_DEDUP),
    };
    let mut fs = FileSystem::new(StagingProvider(bench.clone()), fs_config);
    let generator_seed = sub_seed(p.seed, SALT_GENERATOR);
    let generator = match spec.load {
        Load::Synthetic {
            setup_cps,
            cps,
            ops_per_cp,
        } => {
            let mut wl = SyntheticWorkload::new(SyntheticConfig {
                ops_per_cp,
                clones_per_100_cps: 0.0, // CloneChurn's schedule instead
                seed: generator_seed,
                ..SyntheticConfig::default()
            });
            let mut churn = CloneChurn::new(sub_seed(p.seed, SALT_CLONES), ops_per_cp);
            let setup_cps = scaled(setup_cps, p.scale, 2);
            for _ in 0..setup_cps {
                wl.run_cp(&mut fs).map_err(|e| err("set-up CP", e))?;
                churn
                    .after_cp(&mut fs)
                    .map_err(|e| err("set-up clone churn", e))?;
            }
            Generator::Synthetic {
                workload: wl,
                churn,
                cps_left: scaled(cps, p.scale, 2),
            }
        }
        Load::Trace { setup_hours, hours } => {
            let hours = setup_hours + scaled(hours, p.scale, 1);
            let mut generator = TraceGenerator::new(TraceConfig {
                hours,
                peak_ops_per_sec: 30.0,
                offpeak_ops_per_sec: 3.0,
                truncate_burst_hours: (hours / 2, hours / 2 + 1),
                seed: generator_seed,
                ..TraceConfig::default()
            });
            let mut player = TracePlayer::new(10);
            for _ in 0..setup_hours {
                let records = generator.next_hour().unwrap_or_default();
                player
                    .play(&mut fs, &records, |_, _| {})
                    .map_err(|e| err("set-up trace hour", e))?;
            }
            Generator::Trace { generator, player }
        }
    };
    Ok(Live {
        bench,
        fs,
        generator,
    })
}

/// Database bytes per physical data byte, in percent (paper Fig. 6/8).
fn space_pct(live: &Live) -> f64 {
    let data = live.fs.physical_data_bytes().max(PAGE_SIZE as u64);
    live.bench.engine.database_disk_bytes() as f64 / data as f64 * 100.0
}

/// Taken between CP intervals of the write phase: a spot check that
/// references the file system holds right now are reported live, fresh keys
/// for the query client if there is one, and — once the file population has
/// levelled off (`steady`) — the space ratio and device footprint.
fn sample(
    spec: &Spec,
    live: &Live,
    rng: &mut StdRng,
    steady: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let bench = &live.bench;
    bench.drain();
    bench
        .tracer
        .timed(Kind::Check, || {
            if steady {
                out.space_pct_peak = out.space_pct_peak.max(space_pct(live));
                out.bytes_stored_peak = out
                    .bytes_stored_peak
                    .max(bench.engine.files().allocated_bytes());
            }
            let files = live.fs.files(LineId::ROOT).map_err(|e| err("files", e))?;
            let picks = if spec.concurrent_client {
                CLIENT_KEYS
            } else {
                SPOT_CHECK_REFS
            };
            let mut live_blocks = Vec::with_capacity(picks);
            let mut wrong = 0;
            for _ in 0..picks.min(files.len()) {
                let inode = files[rng.gen_range(0..files.len())];
                let blocks = live
                    .fs
                    .file_blocks(LineId::ROOT, inode)
                    .map_err(|e| err("file_blocks", e))?;
                if blocks.is_empty() {
                    continue;
                }
                let offset = rng.gen_range(0..blocks.len());
                live_blocks.push(blocks[offset]);
                if live_blocks.len() <= SPOT_CHECK_REFS {
                    let owners = bench
                        .engine
                        .live_owners(blocks[offset])
                        .map_err(|e| err("spot-check query", e))?;
                    let owner = Owner::block(inode, offset as u64, LineId::ROOT);
                    out.checked += 1;
                    wrong += u64::from(!owners.contains(&owner));
                }
            }
            out.fail(wrong, || {
                format!("{wrong} live references missing from spot-check answers")
            });
            if spec.concurrent_client {
                bench.publish_client_keys(live_blocks);
            }
            Ok(())
        })
        .0
}

fn write_phase(
    spec: &Spec,
    p: &Params,
    live: &mut Live,
    rng: &mut StdRng,
    out: &mut Outcome,
) -> Result<(), String> {
    let (sample_every, steps) = match spec.load {
        Load::Synthetic { cps, .. } => (SAMPLE_EVERY_CPS, scaled(cps, p.scale, 2)),
        Load::Trace { hours, .. } => (1, scaled(hours, p.scale, 1)),
    };
    let mut step = 0;
    while live.step()? {
        step += 1;
        // No maintenance after the last step: the queries that follow are to
        // see the database aged by one whole maintenance interval, not one
        // that a run-count threshold did or did not just let through.
        let maintain = spec.maintain_every > 0 && step % spec.maintain_every == 0 && step < steps;
        // Just before maintenance is where the space ratio peaks. The first
        // half of the phase is left out of the peak: the file population is
        // still growing from a handful of large files, and the ratio there
        // says more about the seed than about the engine.
        if maintain || step % sample_every == 0 {
            sample(spec, live, rng, step > steps / 2, out)?;
        }
        if maintain {
            live.bench
                .maintenance(spec.maintain_how)
                .map_err(|e| err("maintenance", e))?;
        }
    }
    sample(spec, live, rng, true, out)
}

/// The `mixed_2t` query client: closed-loop point queries for blocks the
/// writer last reported live, and one range query in [`CLIENT_RANGE_EVERY`]
/// operations over blocks already written, until told to stop.
fn query_client(bench: &Bench, stop: &AtomicBool, seed: u64) -> QueryStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = QueryStats::default();
    // This thread's own: it runs on another core than the writer's.
    let guard = Guard::new();
    let root = bench.tracer.enter(Kind::QueryClient);
    let mut keys = Vec::with_capacity(CLIENT_RANGE_EVERY as usize);
    // SeqCst: `stop` orders the writer's last CP before the client's exit.
    while !stop.load(Ordering::SeqCst) {
        let live_blocks = bench.client_keys();
        let max_block = bench.max_block.load(Ordering::Relaxed);
        if live_blocks.is_empty() || max_block < RANGE_BLOCKS {
            std::thread::yield_now();
            continue;
        }
        // While the writer waits for a neighbour to go away there is no
        // write load to query under: what ran into the wait does not count.
        if bench.guard.is_waiting() {
            stats.settle(false);
            std::thread::yield_now();
            continue;
        }
        keys.clear();
        keys.extend(
            (1..CLIENT_RANGE_EVERY).map(|_| live_blocks[rng.gen_range(0..live_blocks.len())]),
        );
        point_queries(
            &bench.tracer,
            &guard,
            &bench.engine,
            &bench.disk,
            &keys,
            None,
            &mut stats,
        );
        let start = rng.gen_range(1..=max_block - RANGE_BLOCKS + 1);
        range_queries(
            &bench.tracer,
            &guard,
            &bench.engine,
            &[start],
            None,
            &mut stats,
        );
    }
    stats.settle(guard.check());
    bench.tracer.exit(root);
    stats
}

/// A few hundred file operations issued after the last CP, so that the
/// journal alone carries them across the power cut.
fn tail_ops(
    fs: &mut FileSystem<StagingProvider>,
    rng: &mut StdRng,
    files: usize,
) -> Result<(), String> {
    let mut created = Vec::with_capacity(files);
    for _ in 0..files {
        let blocks = rng.gen_range(1..=8);
        created.push(fs.create_file(LineId::ROOT, blocks));
    }
    let created: Vec<_> = created
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| err("tail create", e))?;
    for &inode in created.iter().step_by(2) {
        fs.overwrite(LineId::ROOT, inode, 0, 1)
            .map_err(|e| err("tail overwrite", e))?;
    }
    for &inode in created.iter().step_by(4) {
        fs.delete_file(LineId::ROOT, inode)
            .map_err(|e| err("tail delete", e))?;
    }
    Ok(())
}

/// Ground truth after replaying the reference `events` numbered from
/// `first_lsn` up to and including `frontier` on top of `base`; also returns
/// the blocks named by events beyond the frontier (legitimately lost).
fn truth_at_frontier(
    base: &Expected,
    events: &[Event],
    first_lsn: u64,
    frontier: u64,
) -> (Expected, Vec<BlockNo>) {
    let mut added = BTreeSet::new();
    let mut removed = BTreeSet::new();
    let mut lost_blocks = Vec::new();
    let refs = events.iter().filter_map(|e| match *e {
        Event::Add(block, owner) => Some((true, ExpectedRef::new(block, owner))),
        Event::Remove(block, owner) => Some((false, ExpectedRef::new(block, owner))),
        _ => None,
    });
    for (lsn, (add, r)) in (first_lsn..).zip(refs) {
        if lsn > frontier {
            lost_blocks.push(r.block);
        } else if add {
            removed.remove(&r);
            added.insert(r);
        } else if !added.remove(&r) {
            removed.insert(r);
        }
    }
    let mut refs: Vec<ExpectedRef> = base
        .refs()
        .iter()
        .filter(|r| !removed.contains(r))
        .copied()
        .collect();
    refs.extend(added);
    (Expected::new(refs), lost_blocks)
}

fn uniform_keys(rng: &mut StdRng, count: u64, max: BlockNo) -> Vec<BlockNo> {
    (0..count).map(|_| rng.gen_range(1..=max.max(1))).collect()
}

/// Heap chunk the pre-touch allocates: below glibc's 128 KiB `mmap`
/// threshold, so that it comes from the main heap.
const HEAP_CHUNK: usize = 64 << 10;

/// Touches `mib` MiB of fresh heap and frees it again, so that the
/// allocator hands out pages the kernel has already mapped. A first touch of
/// a page costs this virtual machine 3 µs in a good minute and 9 µs in a bad
/// one, and the simulated disk alone — every device page is a heap
/// allocation — touches a quarter of a million of them per run: identical
/// runs differed by 30 % on that account. A real device does not page-fault,
/// and a real engine's heap is warm.
fn pre_touch_heap(mib: u64) {
    let mut chunks: Vec<Vec<u8>> = (0..mib * (1 << 20) / HEAP_CHUNK as u64)
        .map(|_| {
            let mut chunk = vec![0u8; HEAP_CHUNK];
            for page in chunk.chunks_mut(4096) {
                page[0] = 1;
            }
            std::hint::black_box(chunk)
        })
        .collect();
    // The chunk allocated last sits at the top of the heap; as long as it is
    // in use the allocator cannot give what lies below back to the kernel.
    std::mem::forget(chunks.pop());
}

/// Runs one workload once.
///
/// # Errors
///
/// An engine, simulator or generator call that returns an error aborts the
/// run; wrong answers and lost acknowledged writes are counted in
/// [`Outcome::failed`] instead.
pub fn run(spec: &Spec, p: &Params) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::new(p.trace));
    let mut out = Outcome::default();
    // Later runs in the process find the heap warm, unless they need more.
    static HEAP_TOUCHED_MIB: AtomicU64 = AtomicU64::new(0);
    let heap_mib = scaled(spec.heap_mib, p.scale, 16);
    if HEAP_TOUCHED_MIB.fetch_max(heap_mib, Ordering::Relaxed) < heap_mib {
        pre_touch_heap(heap_mib);
    }

    // Set-up, several times over; the last instance is the one measured.
    let mut live = None;
    let setup_guard = Guard::new();
    for _ in 0..p.setup_reps.max(1) {
        setup_guard.check();
        let start = Instant::now();
        let built = set_up(spec, p, &tracer)?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        live = Some(built);
    }
    let mut live = live.expect("the set-up was built at least once");
    let bench = live.bench.clone();
    let disk = bench.disk.clone();
    let traced = bench.traced.clone();
    let config = bench.engine.config().clone();
    bench.drain();
    bench.start_measuring();
    tracer.reset();
    if let Some(t) = &traced {
        t.reset();
    }
    let io_before = disk.stats().snapshot();
    let clock_before = disk.clock().now_ns();
    let lock_wait_before = disk.stats().lock_wait_ns().sum;
    let engine_before = EngineSums::read(&bench.engine);
    let ops_before = live.fs.stats().block_ops;

    let root = tracer.enter(Kind::Workload);
    let guard = bench.guard.clone();
    bench.gate();

    // Write phase, beside the query client if the workload has one.
    let mut spot_rng = StdRng::seed_from_u64(sub_seed(p.seed, SALT_SPOT));
    if spec.concurrent_client {
        // The client needs keys before the first CP interval ends.
        sample(spec, &live, &mut spot_rng, false, &mut out)?;
        let stop = AtomicBool::new(false);
        let client_seed = sub_seed(p.seed, SALT_CLIENT);
        let (written, client) = std::thread::scope(|s| {
            let client = s.spawn(|| query_client(&bench, &stop, client_seed));
            let written = write_phase(spec, p, &mut live, &mut spot_rng, &mut out);
            stop.store(true, Ordering::SeqCst);
            (written, client.join().expect("query client panicked"))
        });
        written?;
        out.client = Some(client);
    } else {
        write_phase(spec, p, &mut live, &mut spot_rng, &mut out)?;
    }
    out.block_ops = live.fs.stats().block_ops - ops_before;

    // Queries on the database as the write phase left it.
    let mut key_rng = StdRng::seed_from_u64(sub_seed(p.seed, SALT_KEYS));
    let max_block = bench.max_block.load(Ordering::Relaxed).max(RANGE_BLOCKS);
    let range_starts = uniform_keys(
        &mut key_rng,
        scaled(spec.range_queries, p.scale, 16),
        max_block - RANGE_BLOCKS + 1,
    );
    let truth = tracer
        .timed(Kind::Check, || Expected::new(live.fs.expected_refs()))
        .0;
    // Point queries ask for the owners of allocated blocks (what a
    // defragmenter or a volume shrink asks), picked uniformly among the live
    // references. About half of all block numbers ever handed out are free
    // again, and with keys drawn from those the median would flip between
    // "found nothing" and "found an owner" from one seed to the next.
    let point_keys: Vec<BlockNo> = (0..scaled(spec.point_queries, p.scale, 64))
        .map(|_| match truth.refs() {
            [] => 1,
            refs => refs[key_rng.gen_range(0..refs.len())].block,
        })
        .collect();
    out.bloom_bytes = bench.engine.bloom_bytes();
    out.runs_peak = u64::from(bench.engine.run_count());
    bench.gate();
    point_queries(
        &tracer,
        &guard,
        &bench.engine,
        &disk,
        &point_keys,
        Some(&truth),
        &mut out.aged,
    );
    range_queries(
        &tracer,
        &guard,
        &bench.engine,
        &range_starts,
        Some(&truth),
        &mut out.aged,
    );
    out.aged.settle(guard.check());

    // Durability: callbacks after the last CP, a journal fence, a few more
    // callbacks nobody acknowledged, then the power goes.
    let mut tail_rng = StdRng::seed_from_u64(sub_seed(p.seed, SALT_TAIL));
    let before_tail = bench.write_stats();
    let (cp_acked, tail_first_lsn) = (before_tail.acked_lsn, before_tail.lsn + 1);
    tail_ops(&mut live.fs, &mut tail_rng, 400)?;
    let mut tail = bench.drain();
    bench.journal_sync().map_err(|e| err("journal_sync", e))?;
    tail_ops(&mut live.fs, &mut tail_rng, 40)?;
    tail.extend(bench.drain());
    let physical_bytes = live.fs.physical_data_bytes().max(PAGE_SIZE as u64);
    out.write = bench.write_stats();
    out.maint = bench.maint_stats();
    out.runs_peak = out.runs_peak.max(out.write.runs_peak);
    out.engine = EngineSums::read(&bench.engine).combine(&engine_before, -1);
    let stalls = out.write.journal_stalls;
    out.fail(stalls, || {
        format!("{stalls} intervals ended with a failed journal group commit (JournalFull?)")
    });
    drop(live);
    drop(bench);
    disk.power_cut(&PowerCutProfile::lose_all(sub_seed(p.seed, SALT_POWER_CUT)));

    guard.check();
    let (engine, open_ns) = tracer.timed(Kind::Open, || {
        BacklogEngine::open(engine_device(&disk, &traced), config)
    });
    let engine = engine.map_err(|e| err("open after power cut", e))?;
    // The host's part of recovery: lineage is persisted at CPs only.
    for &event in &out.write.lineage_since_cp {
        apply_lineage(&engine, event);
    }
    let (recovery, replay_ns) =
        tracer.timed(Kind::JournalReplay, || engine.replay_recovered_journal());
    let recovery = recovery.map_err(|e| err("journal replay", e))?;
    out.reopen_disturbed = !guard.check();
    out.open_ns = open_ns;
    out.replay_ns = replay_ns;
    out.replayed_entries = recovery.applied as u64;
    // Every callback at or below the frontier survived (in a CP's runs or in
    // the recovered ring); it must cover everything acknowledged.
    let frontier = cp_acked.max(recovery.last_lsn);
    let acked = out.write.acked_lsn;
    out.fail(acked.saturating_sub(frontier), || {
        format!("acknowledged callbacks lost: durable LSN {acked}, recovered frontier {frontier}")
    });
    let (truth, lost_blocks) = tracer
        .timed(Kind::Check, || {
            truth_at_frontier(&truth, &tail, tail_first_lsn, frontier)
        })
        .0;

    // One full maintenance pass on the recovered engine, then the same
    // queries again.
    let (report, ns) = tracer.timed(Kind::Maint, || engine.maintenance());
    let report = report.map_err(|e| err("maintenance after reopen", e))?;
    out.maint.disturbed_passes += u64::from(!guard.check());
    out.maint.ns += ns;
    record_maintenance(&mut out.maint, &report);
    out.space_pct_settled = engine.database_disk_bytes() as f64 / physical_bytes as f64 * 100.0;
    out.bytes_stored_peak = out.bytes_stored_peak.max(engine.files().allocated_bytes());
    point_queries(
        &tracer,
        &guard,
        &engine,
        &disk,
        &point_keys,
        Some(&truth),
        &mut out.compact,
    );
    range_queries(
        &tracer,
        &guard,
        &engine,
        &range_starts,
        Some(&truth),
        &mut out.compact,
    );
    out.compact.settle(guard.check());

    out.wall_ns = tracer.exit(root);
    out.guard = guard.summary();
    // A reopened engine's histograms start empty.
    out.engine = out.engine.combine(&EngineSums::read(&engine), 1);
    out.io = disk.stats().snapshot().delta_since(&io_before);
    out.sim_elapsed_ns = disk.clock().now_ns() - clock_before;
    out.lock_wait_ns = disk.stats().lock_wait_ns().sum - lock_wait_before;
    out.spans = tracer.spans();
    if let Some(t) = &traced {
        out.device = t.all_counts();
    }

    // The paper's utility program: walk the tree, compare both ways.
    let report = backlog::verify(&engine, truth.refs(), &lost_blocks)
        .map_err(|e| err("verification walk", e))?;
    out.checked += report.checked;
    let (missing, spurious) = (report.missing.len(), report.spurious.len());
    out.fail(report.mismatches(), || {
        format!("verification: {missing} references missing, {spurious} spurious")
    });
    let tallies = [
        ("aged", Some(&out.aged)),
        ("compact", Some(&out.compact)),
        ("client", out.client.as_ref()),
    ]
    .map(|(name, q)| {
        (
            name,
            q.map_or((0, 0, 0), |q| (q.checked, q.errors, q.mismatches)),
        )
    });
    for (name, (checked, errors, mismatches)) in tallies {
        out.checked += checked;
        out.fail(errors + mismatches, || {
            format!(
                "{name} queries: {errors} errors, {mismatches} answers differ from the tree walk"
            )
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_follows_the_events_up_to_the_frontier() {
        let owner = |i| Owner::block(7, i, LineId::ROOT);
        let base = Expected::new(vec![
            ExpectedRef::new(1, owner(0)),
            ExpectedRef::new(2, owner(1)),
        ]);
        let events = [
            Event::Add(3, owner(2)),                                           // lsn 10
            Event::SnapshotCreated(backlog::SnapshotId::new(LineId::ROOT, 4)), // no lsn
            Event::Remove(1, owner(0)),                                        // lsn 11
            Event::Remove(3, owner(2)),                                        // lsn 12
            Event::Add(1, owner(0)),                                           // lsn 13
            Event::Add(9, owner(9)),                                           // lsn 14: lost
        ];
        let (truth, lost) = truth_at_frontier(&base, &events, 10, 13);
        assert_eq!(
            truth.refs(),
            [ExpectedRef::new(1, owner(0)), ExpectedRef::new(2, owner(1))]
        );
        assert_eq!(lost, vec![9]);
        let (truth, lost) = truth_at_frontier(&base, &events, 10, 11);
        assert_eq!(
            truth.refs(),
            [ExpectedRef::new(2, owner(1)), ExpectedRef::new(3, owner(2))]
        );
        assert_eq!(lost, vec![3, 1, 9]);
    }

    #[test]
    fn sub_seeds_differ_by_salt_and_repeat_by_seed() {
        assert_eq!(sub_seed(42, SALT_KEYS), sub_seed(42, SALT_KEYS));
        assert_ne!(sub_seed(42, SALT_KEYS), sub_seed(42, SALT_TAIL));
        assert_ne!(sub_seed(42, SALT_KEYS), sub_seed(43, SALT_KEYS));
    }

    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        for spec in &SPECS {
            for trace in [false, true] {
                let p = Params {
                    seed: 9,
                    scale: 0.02,
                    trace,
                    engine_timing: true,
                    setup_reps: 1,
                };
                let out = run(spec, &p).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert_eq!(out.failed, 0, "{}: {:?}", spec.name, out.failures);
                assert!(out.write.ops > 0 && !out.write.cp_ns.is_empty());
                assert!(out.checked > 0 && out.replayed_entries > 0);
                assert_eq!(out.spans.is_empty(), !trace);
                assert_eq!(out.client.is_some(), spec.concurrent_client);
            }
        }
    }
}
