//! Database maintenance (compaction): merge the Level-0 runs, precompute the
//! `Combined` table by joining `From` and `To`, and purge records that
//! reference only deleted checkpoints (Section 5.2 of the paper).
//!
//! The join/purge logic lives here so it can be tested in isolation;
//! [`BacklogEngine::maintenance`](crate::BacklogEngine::maintenance) wires it
//! to the on-disk tables.
//!
//! The shipping implementation is [`join_and_purge_streaming`]: an
//! identity-grouped sweep over three sorted record streams that emits its
//! output record by record, so maintenance never materializes a table — peak
//! memory is one identity's history plus the consumers' output pages. The
//! previous materialized implementation is preserved verbatim in
//! [`mod@reference`] as a differential-testing oracle.

use crate::lineage::LineageTable;
use crate::query::{join_from_to, join_identity_group, sorted_cow};
use crate::record::{CombinedRecord, FromRecord, RefIdentity, ToRecord};
use crate::types::CP_INFINITY;

/// What one [`BacklogEngine::maintain`](crate::BacklogEngine::maintain) call
/// rebuilds, and on how many workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenancePlan {
    /// Worker threads the selected partitions' rebuilds fan out across
    /// (clamped to `1..=selected partitions`; 1 runs inline on the caller).
    pub threads: usize,
    /// Rebuild only partitions holding at least this many Level-0 runs,
    /// summed across the three tables (0 selects regardless of run count).
    pub min_runs: u32,
    /// Rebuild only this partition (`None` considers every partition).
    pub partition: Option<u32>,
}

impl MaintenancePlan {
    /// Every partition, on the calling thread — a full pass, the only kind
    /// that prunes zombie snapshots.
    pub fn full() -> Self {
        MaintenancePlan {
            threads: 1,
            min_runs: 0,
            partition: None,
        }
    }

    /// Only the partitions that have accumulated `min_runs` runs.
    pub fn if_dirty(min_runs: u32) -> Self {
        MaintenancePlan {
            min_runs,
            ..Self::full()
        }
    }

    /// Only `partition`, so a host can spread maintenance over idle windows.
    pub fn partition(partition: u32) -> Self {
        MaintenancePlan {
            partition: Some(partition),
            ..Self::full()
        }
    }

    /// The same selection on `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Whether the plan selects every partition unconditionally.
    pub fn is_full(&self) -> bool {
        self.min_runs == 0 && self.partition.is_none()
    }
}

/// The output of the join-and-purge computation: what the three tables should
/// contain after maintenance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceOutput {
    /// Complete records (with both endpoints) for the Combined table.
    pub combined: Vec<CombinedRecord>,
    /// Incomplete records (still-live references) for the From table.
    pub incomplete_from: Vec<FromRecord>,
    /// Number of records dropped because they refer only to deleted
    /// snapshots.
    pub purged: u64,
}

/// Counters returned by [`join_and_purge_streaming`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinPurgeStats {
    /// Records emitted to the Combined consumer.
    pub combined: u64,
    /// Incomplete records emitted to the From consumer.
    pub incomplete: u64,
    /// Records dropped because they refer only to deleted snapshots.
    pub purged: u64,
    /// Largest number of records resident at once (the biggest single
    /// identity's From + To + Combined history). This — not the table size —
    /// bounds the pipeline's memory; the engine surfaces it as
    /// [`MaintenanceReport::peak_resident_records`](crate::MaintenanceReport::peak_resident_records).
    pub peak_group_records: u64,
}

/// Streaming join-and-purge: consumes three sorted record streams (`From`,
/// `To`, previously-combined), joins and purges them one reference identity
/// at a time, and emits each surviving record to the appropriate consumer —
/// complete records to `emit_combined`, still-live ones to
/// `emit_incomplete`. Emission order is sorted for both consumers, so they
/// can feed [`RunBuilder`](lsm::RunBuilder)s directly.
///
/// Records of one identity are contiguous in each sorted stream, so the
/// sweep buffers exactly one identity's history at a time (typically a
/// handful of records); everything else flows straight through. The output
/// is identical to [`reference::join_and_purge`] over the same records.
///
/// # Errors
///
/// The first error produced by any input stream or consumer aborts the sweep
/// and is returned.
pub fn join_and_purge_streaming<E>(
    froms: impl Iterator<Item = Result<FromRecord, E>>,
    tos: impl Iterator<Item = Result<ToRecord, E>>,
    combined: impl Iterator<Item = Result<CombinedRecord, E>>,
    lineage: &LineageTable,
    mut emit_combined: impl FnMut(CombinedRecord) -> Result<(), E>,
    mut emit_incomplete: impl FnMut(FromRecord) -> Result<(), E>,
) -> Result<JoinPurgeStats, E> {
    let mut froms = froms.peekable();
    let mut tos = tos.peekable();
    let mut combined = combined.peekable();
    let mut stats = JoinPurgeStats::default();
    // Group buffers, reused across identities.
    let mut group_froms: Vec<FromRecord> = Vec::new();
    let mut group_tos: Vec<ToRecord> = Vec::new();
    let mut group_all: Vec<CombinedRecord> = Vec::new();

    // The identity at the head of a stream (`None` when exhausted),
    // propagating a head error out of the enclosing function.
    macro_rules! head_identity {
        ($stream:expr) => {
            match $stream.peek() {
                Some(Ok(rec)) => Some(rec.identity),
                Some(Err(_)) => {
                    return Err($stream
                        .next()
                        .expect("peeked item exists")
                        .expect_err("peeked item is an error"))
                }
                None => None,
            }
        };
    }
    // Drains the head records equal to `$identity` into `$buf`.
    macro_rules! drain_group {
        ($stream:expr, $identity:expr, $buf:expr) => {
            loop {
                match $stream.peek() {
                    Some(Ok(rec)) if rec.identity == $identity => match $stream.next() {
                        Some(Ok(rec)) => $buf.push(rec),
                        _ => unreachable!("peeked item was Ok"),
                    },
                    Some(Err(_)) => {
                        return Err($stream
                            .next()
                            .expect("peeked item exists")
                            .expect_err("peeked item is an error"))
                    }
                    _ => break,
                }
            }
        };
    }

    loop {
        // The smallest identity still present on any input.
        let heads = [
            head_identity!(froms),
            head_identity!(tos),
            head_identity!(combined),
        ];
        let Some(identity) = heads.into_iter().flatten().min() else {
            break;
        };
        group_froms.clear();
        group_tos.clear();
        group_all.clear();
        drain_group!(froms, identity, group_froms);
        drain_group!(tos, identity, group_tos);
        drain_group!(combined, identity, group_all);
        process_group(
            identity,
            &group_froms,
            &group_tos,
            &mut group_all,
            lineage,
            &mut stats,
            &mut emit_combined,
            &mut emit_incomplete,
        )?;
    }
    Ok(stats)
}

/// Joins and purges one identity's records, emitting the survivors. The
/// per-group logic is exactly the materialized algorithm restricted to a
/// single identity: join From/To, merge with the existing combined records,
/// dedup, then split by liveness.
#[allow(clippy::too_many_arguments)]
fn process_group<E>(
    identity: RefIdentity,
    group_froms: &[FromRecord],
    group_tos: &[ToRecord],
    group_all: &mut Vec<CombinedRecord>,
    lineage: &LineageTable,
    stats: &mut JoinPurgeStats,
    emit_combined: &mut impl FnMut(CombinedRecord) -> Result<(), E>,
    emit_incomplete: &mut impl FnMut(FromRecord) -> Result<(), E>,
) -> Result<(), E> {
    join_identity_group(identity, group_froms, group_tos, &mut |id, from, to| {
        let rec = CombinedRecord::new(id, from, to);
        if !rec.is_empty_interval() {
            group_all.push(rec);
        }
    });
    group_all.sort_unstable();
    group_all.dedup();
    let resident = group_froms.len() + group_tos.len() + group_all.len();
    stats.peak_group_records = stats.peak_group_records.max(resident as u64);
    for rec in group_all.iter() {
        if lineage.is_purgeable(rec.identity.line, rec.from, rec.to) {
            stats.purged += 1;
        } else if rec.to == CP_INFINITY {
            emit_incomplete(FromRecord::new(rec.identity, rec.from))?;
            stats.incomplete += 1;
        } else {
            emit_combined(*rec)?;
            stats.combined += 1;
        }
    }
    Ok(())
}

/// Joins the disk-resident `From`, `To` and previously-combined records and
/// splits the result into complete records (destined for the Combined table)
/// and incomplete records (which stay in the From table), purging records
/// whose validity interval no longer covers any live or zombie snapshot.
///
/// This is the slice-based convenience form of
/// [`join_and_purge_streaming`], used by tests and small callers; the engine
/// streams instead of materializing.
pub fn join_and_purge(
    froms: &[FromRecord],
    tos: &[ToRecord],
    existing_combined: &[CombinedRecord],
    lineage: &LineageTable,
) -> MaintenanceOutput {
    // The streaming sweep needs sorted inputs; LSM scans arrive sorted and
    // are used in place, anything else is copied and sorted first.
    let froms = sorted_cow(froms);
    let tos = sorted_cow(tos);
    let existing = sorted_cow(existing_combined);
    let mut out = MaintenanceOutput::default();
    let stats = join_and_purge_streaming::<std::convert::Infallible>(
        froms.iter().copied().map(Ok),
        tos.iter().copied().map(Ok),
        existing.iter().copied().map(Ok),
        lineage,
        |rec| {
            out.combined.push(rec);
            Ok(())
        },
        |rec| {
            out.incomplete_from.push(rec);
            Ok(())
        },
    )
    .unwrap_or_else(|e| match e {});
    out.purged = stats.purged;
    out
}

/// The materialized join-and-purge, kept verbatim from before the streaming
/// rewrite.
///
/// This implementation collects every record of all three inputs into RAM
/// before splitting them — O(database) peak memory — and exists only as the
/// differential-testing oracle (mirroring `backlog::query::reference`). Do
/// not call it from production paths.
pub mod reference {
    use super::*;

    /// Materialized join-and-purge (the pre-streaming implementation).
    pub fn join_and_purge(
        froms: &[FromRecord],
        tos: &[ToRecord],
        existing_combined: &[CombinedRecord],
        lineage: &LineageTable,
    ) -> MaintenanceOutput {
        let mut all: Vec<CombinedRecord> = join_from_to(froms, tos);
        all.extend(existing_combined.iter().copied());
        all.sort();
        all.dedup();

        let mut out = MaintenanceOutput::default();
        for rec in all {
            if lineage.is_purgeable(rec.identity.line, rec.from, rec.to) {
                out.purged += 1;
                continue;
            }
            if rec.to == CP_INFINITY {
                out.incomplete_from
                    .push(FromRecord::new(rec.identity, rec.from));
            } else {
                out.combined.push(rec);
            }
        }
        out.combined.sort();
        out.incomplete_from.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RefIdentity;
    use crate::types::{LineId, Owner, SnapshotId};

    fn ident(block: u64, inode: u64, line: u32) -> RefIdentity {
        RefIdentity::new(block, Owner::block(inode, 0, LineId(line)))
    }

    fn lineage_at(cp: u64) -> LineageTable {
        let mut l = LineageTable::new();
        while l.current_cp() < cp {
            l.advance_cp();
        }
        l
    }

    #[test]
    fn complete_and_incomplete_records_are_split() {
        let lineage = lineage_at(100);
        let froms = vec![
            FromRecord::new(ident(1, 10, 0), 50), // still live -> incomplete
            FromRecord::new(ident(2, 11, 0), 40), // completed below
        ];
        let tos = vec![ToRecord::new(ident(2, 11, 0), 95)];
        // Keep interval [40,95) alive through a snapshot.
        let mut lineage = lineage;
        lineage.register_snapshot(SnapshotId::new(LineId::ROOT, 60));
        let out = join_and_purge(&froms, &tos, &[], &lineage);
        assert_eq!(
            out.incomplete_from,
            vec![FromRecord::new(ident(1, 10, 0), 50)]
        );
        assert_eq!(
            out.combined,
            vec![CombinedRecord::new(ident(2, 11, 0), 40, 95)]
        );
        assert_eq!(out.purged, 0);
    }

    #[test]
    fn dead_intervals_are_purged() {
        let lineage = lineage_at(100);
        // No snapshots retained: a reference that lived only over [10, 20)
        // refers to nothing reachable and is purged.
        let froms = vec![FromRecord::new(ident(5, 1, 0), 10)];
        let tos = vec![ToRecord::new(ident(5, 1, 0), 20)];
        let out = join_and_purge(&froms, &tos, &[], &lineage);
        assert!(out.combined.is_empty());
        assert!(out.incomplete_from.is_empty());
        assert_eq!(out.purged, 1);
    }

    #[test]
    fn zombie_snapshot_blocks_purge() {
        let mut lineage = lineage_at(100);
        let snap = SnapshotId::new(LineId::ROOT, 15);
        lineage.register_snapshot(snap);
        let _clone = lineage.create_clone(snap);
        lineage.delete_snapshot(snap);
        let froms = vec![FromRecord::new(ident(5, 1, 0), 10)];
        let tos = vec![ToRecord::new(ident(5, 1, 0), 20)];
        let out = join_and_purge(&froms, &tos, &[], &lineage);
        assert_eq!(out.purged, 0, "records of a zombie snapshot must survive");
        assert_eq!(out.combined.len(), 1);
    }

    #[test]
    fn existing_combined_records_are_recompacted_and_purged() {
        let mut lineage = lineage_at(200);
        lineage.register_snapshot(SnapshotId::new(LineId::ROOT, 150));
        let existing = vec![
            CombinedRecord::new(ident(7, 2, 0), 140, 160), // covers snapshot 150
            CombinedRecord::new(ident(8, 3, 0), 10, 20),   // dead
        ];
        let out = join_and_purge(&[], &[], &existing, &lineage);
        assert_eq!(
            out.combined,
            vec![CombinedRecord::new(ident(7, 2, 0), 140, 160)]
        );
        assert_eq!(out.purged, 1);
    }

    #[test]
    fn duplicate_records_across_sources_are_deduplicated() {
        let lineage = lineage_at(50);
        let froms = vec![FromRecord::new(ident(1, 1, 0), 10)];
        let existing = vec![CombinedRecord::new(ident(1, 1, 0), 10, CP_INFINITY)];
        let out = join_and_purge(&froms, &[], &existing, &lineage);
        // The live reference appears exactly once, as an incomplete From.
        assert_eq!(out.incomplete_from.len(), 1);
        assert!(out.combined.is_empty());
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let lineage = lineage_at(10);
        let out = join_and_purge(&[], &[], &[], &lineage);
        assert_eq!(out, MaintenanceOutput::default());
    }

    /// A tiny LCG so the differential test is deterministic without
    /// depending on an RNG crate.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn streaming_matches_reference_on_dense_random_histories() {
        let mut seed = 0xba5eba11;
        for round in 0..8 {
            let mut lineage = lineage_at(40);
            lineage.register_snapshot(SnapshotId::new(LineId::ROOT, 10 + round));
            let mut froms = Vec::new();
            let mut tos = Vec::new();
            let mut existing = Vec::new();
            for _ in 0..250 {
                let id = ident(lcg(&mut seed) % 16, lcg(&mut seed) % 4, 0);
                let cp = 1 + lcg(&mut seed) % 35;
                match lcg(&mut seed) % 3 {
                    0 => froms.push(FromRecord::new(id, cp)),
                    1 => tos.push(ToRecord::new(id, cp)),
                    _ => {
                        let to = if lcg(&mut seed).is_multiple_of(4) {
                            CP_INFINITY
                        } else {
                            cp + 1 + lcg(&mut seed) % 10
                        };
                        existing.push(CombinedRecord::new(id, cp, to));
                    }
                }
            }
            assert_eq!(
                join_and_purge(&froms, &tos, &existing, &lineage),
                reference::join_and_purge(&froms, &tos, &existing, &lineage),
                "streaming join/purge diverged from the oracle in round {round}"
            );
        }
    }

    #[test]
    fn streaming_peak_is_one_identity_group() {
        let lineage = lineage_at(100);
        // 1000 distinct identities, one record each: the sweep should never
        // buffer more than a couple of records at once.
        let froms: Vec<FromRecord> = (0..1000u64)
            .map(|b| FromRecord::new(ident(b, 1, 0), 5))
            .collect();
        let mut sink = Vec::new();
        let stats = join_and_purge_streaming::<std::convert::Infallible>(
            froms.iter().copied().map(Ok),
            std::iter::empty(),
            std::iter::empty(),
            &lineage,
            |_| Ok(()),
            |rec| {
                sink.push(rec);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(sink.len(), 1000);
        assert!(
            stats.peak_group_records <= 2,
            "peak group was {} records for single-record identities",
            stats.peak_group_records
        );
    }

    #[test]
    fn streaming_surfaces_input_stream_errors() {
        let lineage = lineage_at(10);
        let froms = vec![Ok(FromRecord::new(ident(1, 1, 0), 2)), Err("device died")];
        let result = join_and_purge_streaming(
            froms.into_iter(),
            std::iter::empty(),
            std::iter::empty(),
            &lineage,
            |_| Ok(()),
            |_| Ok(()),
        );
        assert_eq!(result.unwrap_err(), "device died");
    }

    #[test]
    fn streaming_surfaces_consumer_errors() {
        let lineage = lineage_at(10);
        let froms = vec![Ok::<_, &str>(FromRecord::new(ident(1, 1, 0), 2))];
        let result = join_and_purge_streaming(
            froms.into_iter(),
            std::iter::empty(),
            std::iter::empty(),
            &lineage,
            |_| Ok(()),
            |_| Err("builder full"),
        );
        assert_eq!(result.unwrap_err(), "builder full");
    }
}
