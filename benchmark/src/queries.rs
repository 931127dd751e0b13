//! The query clients: closed-loop point (`live_owners`) and range
//! (`query_range`) queries through `core`'s public functions, each timed on
//! its own, with a sample of the answers compared against the file system's
//! ground truth.

use std::hint::black_box;

use backlog::{BacklogEngine, BlockNo, ExpectedRef, Owner};
use blockdev::{Device, SimDisk};

use crate::guard::Guard;
use crate::trace::{Kind, Tracer};

/// Blocks one range query covers.
pub const RANGE_BLOCKS: u64 = 1024;
/// Queries per `query` span.
const BATCH: usize = 1000;
/// One point answer in this many is compared with the ground truth.
const CHECK_EVERY: usize = 64;
/// One range answer in this many is compared with the ground truth.
const RANGE_CHECK_EVERY: usize = 16;
/// In a traced run, one point key in this many is also looked up directly in
/// the three `lsm` tables to time `lsm` without `core`'s join.
pub const PROBE_EVERY: usize = 16;

/// The references the file system tree walk says are live, sorted by block.
#[derive(Debug, Clone, Default)]
pub struct Expected(Vec<ExpectedRef>);

impl Expected {
    /// Wraps a tree-walk result (any order).
    pub fn new(mut refs: Vec<ExpectedRef>) -> Self {
        refs.sort_unstable();
        refs.dedup();
        Expected(refs)
    }

    /// Every expected reference, sorted.
    pub fn refs(&self) -> &[ExpectedRef] {
        &self.0
    }

    /// The expected references to blocks in `min..=max`.
    pub fn in_range(&self, min: BlockNo, max: BlockNo) -> &[ExpectedRef] {
        let lo = self.0.partition_point(|r| r.block < min);
        let hi = self.0.partition_point(|r| r.block <= max);
        &self.0[lo..hi]
    }
}

/// What a query client measured.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Latency of each point query the [`Guard`] found undisturbed.
    pub point_ns: Vec<u64>,
    /// Latency of each range query the guard found undisturbed.
    pub range_ns: Vec<u64>,
    /// Queries issued, disturbed ones included.
    pub issued: u64,
    /// Time inside all of them, ns.
    pub issued_ns: u64,
    /// Point queries issued, disturbed ones included.
    pub points_issued: u64,
    /// The same of the queries the guard found disturbed.
    disturbed_point_ns: Vec<u64>,
    disturbed_range_ns: Vec<u64>,
    /// The same of the queries the guard has not ruled on yet.
    pending_point_ns: Vec<u64>,
    pending_range_ns: Vec<u64>,
    /// Device page reads while point queries ran (whole client, probes
    /// included in a traced run).
    pub point_page_reads: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Answers compared with the ground truth.
    pub checked: u64,
    /// Compared answers that differed.
    pub mismatches: u64,
}

impl QueryStats {
    /// The guard's verdict on the queries issued since its last one. The
    /// caller passes [`Guard::check`] once its last query is done.
    pub fn settle(&mut self, undisturbed: bool) {
        let (points, ranges) = if undisturbed {
            (&mut self.point_ns, &mut self.range_ns)
        } else {
            (&mut self.disturbed_point_ns, &mut self.disturbed_range_ns)
        };
        points.append(&mut self.pending_point_ns);
        ranges.append(&mut self.pending_range_ns);
    }

    /// Range queries issued, disturbed ones included.
    pub fn ranges_issued(&self) -> u64 {
        self.issued - self.points_issued
    }

    /// The point-query latencies to take statistics over: the undisturbed
    /// ones or, should a neighbour have left none, the others.
    pub fn point_latencies(&self) -> &[u64] {
        if self.point_ns.is_empty() {
            &self.disturbed_point_ns
        } else {
            &self.point_ns
        }
    }

    /// The range-query latencies to take statistics over, chosen like
    /// [`point_latencies`](Self::point_latencies).
    pub fn range_latencies(&self) -> &[u64] {
        if self.range_ns.is_empty() {
            &self.disturbed_range_ns
        } else {
            &self.range_ns
        }
    }
}

/// Reads `block`'s records straight from the three `lsm` tables.
fn probe_lsm(tracer: &Tracer, engine: &BacklogEngine, block: BlockNo) {
    tracer.timed(Kind::LsmProbe, || {
        black_box(engine.from_table().query_range(block, block).ok());
        black_box(engine.to_table().query_range(block, block).ok());
        black_box(engine.combined_table().query_range(block, block).ok());
    });
}

/// Issues one point query per key on a thread whose interference guard is
/// `guard`. With `expected`, every [`CHECK_EVERY`]-th answer must equal the
/// ground truth.
pub fn point_queries(
    tracer: &Tracer,
    guard: &Guard,
    engine: &BacklogEngine,
    disk: &SimDisk,
    keys: &[BlockNo],
    expected: Option<&Expected>,
    stats: &mut QueryStats,
) {
    let reads_before = disk.stats().snapshot().page_reads;
    stats.point_ns.reserve(keys.len());
    stats.issued += keys.len() as u64;
    stats.points_issued += keys.len() as u64;
    for (b, batch) in keys.chunks(BATCH).enumerate() {
        let open = tracer.enter(Kind::Query);
        for (i, &block) in batch.iter().enumerate() {
            let i = b * BATCH + i;
            let t0 = tracer.now_ns();
            let answer = engine.live_owners(black_box(block));
            let ns = tracer.now_ns() - t0;
            stats.issued_ns += ns;
            stats.pending_point_ns.push(ns);
            match (answer, expected) {
                (Err(_), _) => stats.errors += 1,
                (Ok(owners), Some(expected)) if i.is_multiple_of(CHECK_EVERY) => {
                    tracer.timed(Kind::Check, || {
                        let want: Vec<Owner> = expected
                            .in_range(block, block)
                            .iter()
                            .map(|r| r.owner)
                            .collect();
                        stats.checked += 1;
                        stats.mismatches += u64::from(owners != want);
                    });
                }
                (Ok(owners), _) => {
                    black_box(owners);
                }
            }
            if tracer.recording() && i.is_multiple_of(PROBE_EVERY) {
                probe_lsm(tracer, engine, block);
            }
        }
        tracer.exit(open);
        if let Some(undisturbed) = guard.check_if_due() {
            stats.settle(undisturbed);
        }
    }
    stats.point_page_reads += disk.stats().snapshot().page_reads - reads_before;
}

/// Issues one [`RANGE_BLOCKS`]-block range query per start key. With
/// `expected`, every [`RANGE_CHECK_EVERY`]-th answer's live references must
/// equal the ground truth for the range.
pub fn range_queries(
    tracer: &Tracer,
    guard: &Guard,
    engine: &BacklogEngine,
    starts: &[BlockNo],
    expected: Option<&Expected>,
    stats: &mut QueryStats,
) {
    stats.range_ns.reserve(starts.len());
    stats.issued += starts.len() as u64;
    for (i, &min) in starts.iter().enumerate() {
        let max = min + RANGE_BLOCKS - 1;
        let (answer, ns) = tracer.timed(Kind::RangeQuery, || engine.query_range(min, max));
        stats.issued_ns += ns;
        stats.pending_range_ns.push(ns);
        if let Some(undisturbed) = guard.check_if_due() {
            stats.settle(undisturbed);
        }
        match (answer, expected) {
            (Err(_), _) => stats.errors += 1,
            (Ok(result), Some(expected)) if i.is_multiple_of(RANGE_CHECK_EVERY) => {
                tracer.timed(Kind::Check, || {
                    let mut got: Vec<ExpectedRef> = result
                        .refs
                        .iter()
                        .filter(|r| r.is_live())
                        .map(|r| ExpectedRef::new(r.block, r.owner()))
                        .collect();
                    got.sort_unstable();
                    got.dedup();
                    stats.checked += 1;
                    stats.mismatches += u64::from(got != expected.in_range(min, max));
                });
            }
            (Ok(result), _) => {
                black_box(result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backlog::{BacklogConfig, LineId};
    use blockdev::DeviceConfig;

    #[test]
    fn expected_range_lookup() {
        let owner = |i| Owner::block(2, i, LineId::ROOT);
        let e = Expected::new(vec![
            ExpectedRef::new(9, owner(1)),
            ExpectedRef::new(3, owner(0)),
            ExpectedRef::new(9, owner(0)),
            ExpectedRef::new(3, owner(0)),
        ]);
        assert_eq!(e.refs().len(), 3);
        assert_eq!(e.in_range(3, 3).len(), 1);
        assert_eq!(e.in_range(4, 8).len(), 0);
        assert_eq!(e.in_range(0, 100).len(), 3);
        assert_eq!(e.in_range(9, 9)[1].owner, owner(1));
    }

    #[test]
    fn a_verdict_keeps_or_drops_what_is_pending() {
        let mut stats = QueryStats::default();
        stats.pending_point_ns.extend([5, 6]);
        stats.pending_range_ns.push(70);
        stats.settle(true);
        stats.pending_point_ns.push(9);
        stats.pending_range_ns.push(90);
        stats.settle(false);
        assert_eq!(stats.point_latencies(), [5, 6]);
        assert_eq!(stats.range_latencies(), [70]);
        // With nothing undisturbed, the disturbed samples have to do.
        stats.point_ns.clear();
        assert_eq!(stats.point_latencies(), [9]);
    }

    #[test]
    fn checks_catch_a_wrong_ground_truth_and_pass_a_right_one() {
        let disk = SimDisk::new_shared(DeviceConfig::default());
        let engine = BacklogEngine::create_durable(disk.clone(), BacklogConfig::default()).unwrap();
        let mut truth = Vec::new();
        for block in 1..=200u64 {
            let owner = Owner::block(2, block, LineId::ROOT);
            engine.add_reference(block, owner);
            truth.push(ExpectedRef::new(block, owner));
        }
        engine.consistency_point().unwrap();
        let tracer = Tracer::new(true);
        let guard = Guard::new();
        let keys: Vec<BlockNo> = (1..=200).collect();

        let right = Expected::new(truth.clone());
        let mut stats = QueryStats::default();
        point_queries(
            &tracer,
            &guard,
            &engine,
            &disk,
            &keys,
            Some(&right),
            &mut stats,
        );
        range_queries(
            &tracer,
            &guard,
            &engine,
            &[1, 150],
            Some(&right),
            &mut stats,
        );
        assert_eq!((stats.issued, stats.points_issued), (202, 200));
        // Whatever the guard made of the machine meanwhile, every latency is
        // either kept or dropped once the last verdict is in.
        stats.settle(true);
        assert!(stats.point_ns.len() <= 200 && stats.range_ns.len() <= 2);
        assert!(stats.pending_point_ns.is_empty() && stats.pending_range_ns.is_empty());
        assert_eq!(stats.checked, 4 + 1);
        assert_eq!(stats.errors + stats.mismatches, 0);
        assert!(stats.point_page_reads > 0);

        truth[0].owner.inode = 99; // block 1, the first checked key
        let wrong = Expected::new(truth);
        let mut stats = QueryStats::default();
        point_queries(
            &tracer,
            &guard,
            &engine,
            &disk,
            &keys,
            Some(&wrong),
            &mut stats,
        );
        range_queries(&tracer, &guard, &engine, &[1], Some(&wrong), &mut stats);
        assert_eq!(stats.mismatches, 2);
    }
}
