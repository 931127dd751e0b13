//! Snapshot lines, writable clones, zombie snapshots and version masking.
//!
//! The paper models the set of snapshots and consistency points as *lines*
//! (Figure 3): taking a CP creates a new version of the latest snapshot
//! within each line, while cloning a snapshot starts a new line. The
//! [`LineageTable`] tracks that structure plus which versions are still live,
//! which is everything the query engine needs for structural-inheritance
//! expansion and for masking deleted snapshots out of query results, and
//! everything maintenance needs to decide which records can be purged.

// Decode-surface module: recovery paths must return errors, never panic
// (enforced by `backlint` panic-free and audited by clippy here).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use parking_lot::Mutex;

use crate::types::{CpNumber, LineId, SnapshotId, CP_INFINITY};

/// Information about one snapshot line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineInfo {
    /// The line identifier.
    pub id: LineId,
    /// The snapshot this line was cloned from, or `None` for the root line.
    pub parent: Option<SnapshotId>,
    /// The global CP number at which the line was created.
    pub created_at: CpNumber,
    /// Whether the line (the writable clone / live file system it represents)
    /// has been deleted.
    pub deleted: bool,
}

/// Tracks lines, snapshots, clones, zombies and the global CP counter.
///
/// The table performs no I/O: creating or deleting snapshots and clones only
/// mutates in-memory state, which is how Backlog achieves "no additional I/O
/// overhead" for snapshot and clone management.
///
/// Concurrency: everything except the zombie set is mutated only through
/// `&mut self` (the engine's host-callback path). The zombie set alone is
/// pruned *during* maintenance — which runs against `&self` so queries can
/// proceed concurrently — so it lives behind a small mutex.
#[derive(Debug)]
pub struct LineageTable {
    lines: HashMap<LineId, LineInfo>,
    next_line: u32,
    current_cp: CpNumber,
    /// Retained (live) snapshot versions per line.
    live_versions: HashMap<LineId, BTreeSet<CpNumber>>,
    /// Snapshots that were deleted while having clones; their back references
    /// must not be purged by maintenance while descendants remain. Behind a
    /// mutex so [`prune_zombies`](Self::prune_zombies) can run from a shared
    /// maintenance pass.
    zombies: Mutex<HashSet<SnapshotId>>,
    /// Clone lines created from each snapshot.
    clones_of: HashMap<SnapshotId, Vec<LineId>>,
    /// The same association indexed for interval lookup: parent line →
    /// (parent version → clone lines). Inheritance expansion asks "which
    /// clones hang off line `l` inside `[from, to)`" once per visited record,
    /// so this must be a range scan, not a sweep over every clone parent.
    clones_by_line: HashMap<LineId, BTreeMap<CpNumber, Vec<LineId>>>,
}

impl Clone for LineageTable {
    fn clone(&self) -> Self {
        LineageTable {
            lines: self.lines.clone(),
            next_line: self.next_line,
            current_cp: self.current_cp,
            live_versions: self.live_versions.clone(),
            zombies: Mutex::new(self.zombies.lock().clone()),
            clones_of: self.clones_of.clone(),
            clones_by_line: self.clones_by_line.clone(),
        }
    }
}

impl Default for LineageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LineageTable {
    /// Creates a lineage table containing only the root line, with the global
    /// CP counter at 1 (CP number 0 is reserved for the implicit `from = 0`
    /// of structural-inheritance override records).
    pub fn new() -> Self {
        let mut lines = HashMap::new();
        lines.insert(
            LineId::ROOT,
            LineInfo {
                id: LineId::ROOT,
                parent: None,
                created_at: 0,
                deleted: false,
            },
        );
        LineageTable {
            lines,
            next_line: 1,
            current_cp: 1,
            live_versions: HashMap::new(),
            zombies: Mutex::new(HashSet::new()),
            clones_of: HashMap::new(),
            clones_by_line: HashMap::new(),
        }
    }

    /// The current global CP number.
    pub fn current_cp(&self) -> CpNumber {
        self.current_cp
    }

    /// Advances the global CP counter (called by the engine at every
    /// consistency point) and returns the new value.
    pub fn advance_cp(&mut self) -> CpNumber {
        self.current_cp += 1;
        self.current_cp
    }

    /// Number of lines ever created (including deleted ones).
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Information about a line, if it exists.
    pub fn line(&self, id: LineId) -> Option<&LineInfo> {
        self.lines.get(&id)
    }

    /// Whether the line exists and has not been deleted.
    pub fn is_line_active(&self, id: LineId) -> bool {
        self.lines.get(&id).map(|l| !l.deleted).unwrap_or(false)
    }

    /// The snapshot a line was cloned from.
    pub fn parent_of(&self, id: LineId) -> Option<SnapshotId> {
        self.lines.get(&id).and_then(|l| l.parent)
    }

    /// Creates a writable clone of `parent`, returning the new line.
    ///
    /// The parent snapshot is implicitly registered as live if it was not
    /// already (cloning an unregistered CP is how the synthetic workload
    /// creates clones of the running file system).
    pub fn create_clone(&mut self, parent: SnapshotId) -> LineId {
        let id = LineId(self.next_line);
        self.next_line += 1;
        self.lines.insert(
            id,
            LineInfo {
                id,
                parent: Some(parent),
                created_at: self.current_cp,
                deleted: false,
            },
        );
        self.clones_of.entry(parent).or_default().push(id);
        self.clones_by_line
            .entry(parent.line)
            .or_default()
            .entry(parent.version)
            .or_default()
            .push(id);
        self.live_versions
            .entry(parent.line)
            .or_default()
            .insert(parent.version);
        id
    }

    /// Registers a writable clone of `parent` under an externally assigned
    /// line identifier (used when the host file system owns line-ID
    /// assignment). Subsequent [`create_clone`](Self::create_clone) calls
    /// will allocate identifiers above `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` already exists.
    pub fn register_clone(&mut self, parent: SnapshotId, line: LineId) {
        assert!(
            !self.lines.contains_key(&line),
            "line {line} already exists"
        );
        self.lines.insert(
            line,
            LineInfo {
                id: line,
                parent: Some(parent),
                created_at: self.current_cp,
                deleted: false,
            },
        );
        self.next_line = self.next_line.max(line.0 + 1);
        self.clones_of.entry(parent).or_default().push(line);
        self.clones_by_line
            .entry(parent.line)
            .or_default()
            .entry(parent.version)
            .or_default()
            .push(line);
        self.live_versions
            .entry(parent.line)
            .or_default()
            .insert(parent.version);
    }

    /// Registers a snapshot (a retained consistency point) of `line` at the
    /// current CP number and returns its identifier.
    pub fn take_snapshot(&mut self, line: LineId) -> SnapshotId {
        let snap = SnapshotId::new(line, self.current_cp);
        self.register_snapshot(snap);
        snap
    }

    /// Registers an explicit snapshot identifier as live.
    pub fn register_snapshot(&mut self, snap: SnapshotId) {
        self.live_versions
            .entry(snap.line)
            .or_default()
            .insert(snap.version);
    }

    /// Deletes a snapshot. If the snapshot has been cloned it becomes a
    /// *zombie*: its back references survive maintenance until all of its
    /// clone descendants are gone.
    pub fn delete_snapshot(&mut self, snap: SnapshotId) {
        if let Some(set) = self.live_versions.get_mut(&snap.line) {
            set.remove(&snap.version);
        }
        if self
            .clones_of
            .get(&snap)
            .map(|c| !c.is_empty())
            .unwrap_or(false)
        {
            self.zombies.lock().insert(snap);
        }
    }

    /// Deletes an entire line (a writable clone or the live file system of a
    /// branch): all of its snapshots are deleted and the line becomes
    /// inactive.
    pub fn delete_line(&mut self, line: LineId) {
        let snaps: Vec<SnapshotId> = self
            .live_versions
            .get(&line)
            .map(|s| s.iter().map(|&v| SnapshotId::new(line, v)).collect())
            .unwrap_or_default();
        for s in snaps {
            self.delete_snapshot(s);
        }
        if let Some(info) = self.lines.get_mut(&line) {
            info.deleted = true;
        }
    }

    /// The retained snapshot versions of a line, in ascending order.
    pub fn snapshots_of(&self, line: LineId) -> Vec<CpNumber> {
        self.live_versions
            .get(&line)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The clone lines created from snapshot `snap`.
    pub fn clones_of(&self, snap: SnapshotId) -> &[LineId] {
        self.clones_of.get(&snap).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All clones whose parent snapshot lies on `line` with a version in the
    /// half-open interval `[from, to)`. These are the clones that implicitly
    /// inherit a back reference valid over that interval.
    ///
    /// Answered by a range scan over the per-line version index, so the cost
    /// scales with the clones actually inside the interval rather than with
    /// every clone parent in the system.
    pub fn clones_within(
        &self,
        line: LineId,
        from: CpNumber,
        to: CpNumber,
    ) -> Vec<(SnapshotId, LineId)> {
        let Some(by_version) = self.clones_by_line.get(&line) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (&version, clones) in by_version.range(from..to) {
            let snap = SnapshotId::new(line, version);
            for &c in clones {
                out.push((snap, c));
            }
        }
        // Versions arrive ascending from the range scan; only the clone ids
        // within one version may be out of creation order vs. `Ord`.
        out.sort();
        out
    }

    /// The live versions of `line` that fall inside `[from, to)`. The current
    /// CP counts as a live version of every active line (it is the live file
    /// system state).
    pub fn live_versions_in(&self, line: LineId, from: CpNumber, to: CpNumber) -> Vec<CpNumber> {
        let mut out: Vec<CpNumber> = self
            .live_versions
            .get(&line)
            .map(|s| s.range(from..to).copied().collect())
            .unwrap_or_default();
        if self.is_line_active(line)
            && from <= self.current_cp
            && self.current_cp < to
            && !out.contains(&self.current_cp)
        {
            out.push(self.current_cp);
        }
        // A still-live reference (to == ∞) on an active line is always
        // reachable through the live file system even between CPs.
        if self.is_line_active(line) && to == CP_INFINITY && out.is_empty() {
            out.push(self.current_cp);
        }
        out.sort_unstable();
        out
    }

    /// Whether any live version of `line` falls inside `[from, to)`.
    pub fn is_interval_live(&self, line: LineId, from: CpNumber, to: CpNumber) -> bool {
        !self.live_versions_in(line, from, to).is_empty()
    }

    /// Whether a back reference valid over `[from, to)` on `line` may be
    /// purged by maintenance: no live version falls inside the interval and
    /// no zombie snapshot (a deleted-but-cloned snapshot whose descendants
    /// still need the record for structural inheritance) does either.
    ///
    /// Structural-inheritance *override* records (those with `from == 0`,
    /// created when a clone stops referencing an inherited block) are never
    /// purged while their line is still active: they carry no reachable
    /// version themselves, but deleting them would resurrect the inherited
    /// reference during query expansion.
    pub fn is_purgeable(&self, line: LineId, from: CpNumber, to: CpNumber) -> bool {
        if from == 0 && self.is_line_active(line) {
            return false;
        }
        if self.is_interval_live(line, from, to) {
            return false;
        }
        !self
            .zombies
            .lock()
            .iter()
            .any(|z| z.line == line && z.version >= from && z.version < to)
    }

    /// The current zombie snapshots.
    pub fn zombies(&self) -> Vec<SnapshotId> {
        let mut v: Vec<SnapshotId> = self.zombies.lock().iter().copied().collect();
        v.sort();
        v
    }

    /// Drops zombie snapshot IDs that no longer have live descendants
    /// ("periodically we examine the list of zombies and drop snapshot IDs
    /// that have no remaining descendants"). Returns how many were dropped.
    ///
    /// Takes `&self`: pruning runs at the end of (possibly parallel)
    /// maintenance while readers may still be assembling queries, and only
    /// the mutex-guarded zombie set is touched. Queries never consult
    /// zombies — they matter solely to maintenance purge decisions.
    pub fn prune_zombies(&self) -> usize {
        // Candidate order does not matter: the filter below is a pure
        // predicate and removal from the set is order-insensitive.
        let candidates: Vec<SnapshotId> = self.zombies.lock().iter().copied().collect();
        let dead: Vec<SnapshotId> = candidates
            .into_iter()
            .filter(|z| {
                !self
                    .clones_of
                    .get(z)
                    .map(|clones| clones.iter().any(|&c| self.has_live_descendants(c)))
                    .unwrap_or(false)
            })
            .collect();
        let mut set = self.zombies.lock();
        let before = set.len();
        for z in dead {
            set.remove(&z);
        }
        before - set.len()
    }

    /// Serializes the whole table — lines, live versions, zombies, clone
    /// associations, the CP counter — into `out`, for embedding in a
    /// consistency-point manifest. The encoding is deterministic (every map
    /// is walked in sorted order) so two identical tables encode to
    /// identical bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let put_u32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_be_bytes());
        let put_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_be_bytes());
        put_u32(out, self.next_line);
        put_u64(out, self.current_cp);
        // backlint: allow(determinism) — sorted by line id immediately below
        let mut sorted_lines: Vec<&LineInfo> = self.lines.values().collect();
        sorted_lines.sort_by_key(|l| l.id);
        put_u32(out, sorted_lines.len() as u32);
        for l in sorted_lines {
            put_u32(out, l.id.0);
            match l.parent {
                Some(p) => {
                    out.push(1);
                    put_u32(out, p.line.0);
                    put_u64(out, p.version);
                }
                None => out.push(0),
            }
            put_u64(out, l.created_at);
            out.push(l.deleted as u8);
        }
        // backlint: allow(determinism) — sorted by line id immediately below
        let mut versions: Vec<(&LineId, &BTreeSet<CpNumber>)> = self.live_versions.iter().collect();
        versions.sort_by_key(|(l, _)| **l);
        put_u32(out, versions.len() as u32);
        for (line, set) in versions {
            put_u32(out, line.0);
            put_u32(out, set.len() as u32);
            for &v in set {
                put_u64(out, v);
            }
        }
        let sorted_zombies = self.zombies();
        put_u32(out, sorted_zombies.len() as u32);
        for z in sorted_zombies {
            put_u32(out, z.line.0);
            put_u64(out, z.version);
        }
        // Clone associations, preserving each parent's creation order (the
        // order `clones_of` reports).
        // backlint: allow(determinism) — sorted by snapshot id immediately below
        let mut clones: Vec<(&SnapshotId, &Vec<LineId>)> = self.clones_of.iter().collect();
        clones.sort_by_key(|(s, _)| **s);
        put_u32(out, clones.len() as u32);
        for (snap, clone_lines) in clones {
            put_u32(out, snap.line.0);
            put_u64(out, snap.version);
            put_u32(out, clone_lines.len() as u32);
            for l in clone_lines {
                put_u32(out, l.0);
            }
        }
    }

    /// Reconstructs a table from bytes produced by [`encode`](Self::encode),
    /// advancing `at` past the consumed bytes. The per-line clone index is
    /// rebuilt from the persisted associations.
    ///
    /// Returns `None` if the bytes are truncated or structurally invalid.
    pub fn decode(bytes: &[u8], at: &mut usize) -> Option<Self> {
        fn get_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
            let v = u32::from_be_bytes(bytes.get(*at..*at + 4)?.try_into().ok()?);
            *at += 4;
            Some(v)
        }
        fn get_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
            let v = u64::from_be_bytes(bytes.get(*at..*at + 8)?.try_into().ok()?);
            *at += 8;
            Some(v)
        }
        fn get_u8(bytes: &[u8], at: &mut usize) -> Option<u8> {
            let v = *bytes.get(*at)?;
            *at += 1;
            Some(v)
        }
        let next_line = get_u32(bytes, at)?;
        let current_cp = get_u64(bytes, at)?;
        // The counts below come straight off the device: nothing is sized
        // by them, every loop ends at the first missing byte.
        let line_count = get_u32(bytes, at)?;
        let mut lines = HashMap::new();
        for _ in 0..line_count {
            let id = LineId(get_u32(bytes, at)?);
            let parent = match get_u8(bytes, at)? {
                0 => None,
                1 => Some(SnapshotId::new(
                    LineId(get_u32(bytes, at)?),
                    get_u64(bytes, at)?,
                )),
                _ => return None,
            };
            let created_at = get_u64(bytes, at)?;
            let deleted = match get_u8(bytes, at)? {
                0 => false,
                1 => true,
                _ => return None,
            };
            lines.insert(
                id,
                LineInfo {
                    id,
                    parent,
                    created_at,
                    deleted,
                },
            );
        }
        let version_lines = get_u32(bytes, at)?;
        let mut live_versions: HashMap<LineId, BTreeSet<CpNumber>> = HashMap::new();
        for _ in 0..version_lines {
            let line = LineId(get_u32(bytes, at)?);
            let count = get_u32(bytes, at)?;
            let mut set = BTreeSet::new();
            for _ in 0..count {
                set.insert(get_u64(bytes, at)?);
            }
            live_versions.insert(line, set);
        }
        let zombie_count = get_u32(bytes, at)?;
        let mut zombies = HashSet::new();
        for _ in 0..zombie_count {
            zombies.insert(SnapshotId::new(
                LineId(get_u32(bytes, at)?),
                get_u64(bytes, at)?,
            ));
        }
        let clone_parents = get_u32(bytes, at)?;
        let mut clones_of: HashMap<SnapshotId, Vec<LineId>> = HashMap::new();
        let mut clones_by_line: HashMap<LineId, BTreeMap<CpNumber, Vec<LineId>>> = HashMap::new();
        for _ in 0..clone_parents {
            let snap = SnapshotId::new(LineId(get_u32(bytes, at)?), get_u64(bytes, at)?);
            let count = get_u32(bytes, at)?;
            let mut list = Vec::new();
            for _ in 0..count {
                list.push(LineId(get_u32(bytes, at)?));
            }
            clones_by_line
                .entry(snap.line)
                .or_default()
                .entry(snap.version)
                .or_default()
                .extend(list.iter().copied());
            clones_of.insert(snap, list);
        }
        Some(LineageTable {
            lines,
            next_line,
            current_cp,
            live_versions,
            zombies: Mutex::new(zombies),
            clones_of,
            clones_by_line,
        })
    }

    fn has_live_descendants(&self, line: LineId) -> bool {
        if self.is_line_active(line) {
            return true;
        }
        // A deleted clone may itself have been cloned.
        // backlint: allow(determinism) — existence check; iteration order cannot change the result
        self.clones_of.iter().any(|(snap, clones)| {
            snap.line == line && clones.iter().any(|&c| self.has_live_descendants(c))
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn root_line_exists_and_cp_starts_at_one() {
        let l = LineageTable::new();
        assert!(l.is_line_active(LineId::ROOT));
        assert_eq!(l.current_cp(), 1);
        assert_eq!(l.line_count(), 1);
        assert!(l.parent_of(LineId::ROOT).is_none());
    }

    #[test]
    fn advance_cp_is_monotonic() {
        let mut l = LineageTable::new();
        assert_eq!(l.advance_cp(), 2);
        assert_eq!(l.advance_cp(), 3);
        assert_eq!(l.current_cp(), 3);
    }

    #[test]
    fn clone_creates_new_line_with_parent() {
        let mut l = LineageTable::new();
        for _ in 0..5 {
            l.advance_cp();
        }
        let parent = SnapshotId::new(LineId::ROOT, 4);
        let clone = l.create_clone(parent);
        assert_eq!(clone, LineId(1));
        assert!(l.is_line_active(clone));
        assert_eq!(l.parent_of(clone), Some(parent));
        assert_eq!(l.clones_of(parent), &[clone]);
        // Cloning registers the parent version as live.
        assert!(l.is_interval_live(LineId::ROOT, 4, 5));
    }

    #[test]
    fn live_interval_includes_current_cp_for_active_lines() {
        let mut l = LineageTable::new();
        for _ in 0..9 {
            l.advance_cp();
        }
        assert_eq!(l.current_cp(), 10);
        assert!(l.is_interval_live(LineId::ROOT, 5, CP_INFINITY));
        assert!(l.is_interval_live(LineId::ROOT, 10, 11));
        assert!(
            !l.is_interval_live(LineId::ROOT, 3, 7),
            "no snapshots retained in [3,7)"
        );
        // Snapshot at 6 makes the interval live.
        l.register_snapshot(SnapshotId::new(LineId::ROOT, 6));
        assert!(l.is_interval_live(LineId::ROOT, 3, 7));
        assert_eq!(l.live_versions_in(LineId::ROOT, 3, 7), vec![6]);
    }

    #[test]
    fn deleted_snapshot_is_not_live() {
        let mut l = LineageTable::new();
        for _ in 0..9 {
            l.advance_cp();
        }
        let s = SnapshotId::new(LineId::ROOT, 5);
        l.register_snapshot(s);
        assert!(l.is_interval_live(LineId::ROOT, 5, 6));
        l.delete_snapshot(s);
        assert!(!l.is_interval_live(LineId::ROOT, 5, 6));
        assert!(l.is_purgeable(LineId::ROOT, 5, 6));
        assert!(
            l.zombies().is_empty(),
            "uncloned snapshot deletion makes no zombie"
        );
    }

    #[test]
    fn cloned_snapshot_becomes_zombie_and_blocks_purge() {
        let mut l = LineageTable::new();
        for _ in 0..9 {
            l.advance_cp();
        }
        let s = SnapshotId::new(LineId::ROOT, 5);
        l.register_snapshot(s);
        let clone = l.create_clone(s);
        l.delete_snapshot(s);
        assert_eq!(l.zombies(), vec![s]);
        assert!(
            !l.is_purgeable(LineId::ROOT, 5, 6),
            "zombie keeps records alive"
        );
        // While the clone is alive pruning keeps the zombie.
        assert_eq!(l.prune_zombies(), 0);
        l.delete_line(clone);
        assert_eq!(l.prune_zombies(), 1);
        assert!(l.zombies().is_empty());
        assert!(l.is_purgeable(LineId::ROOT, 5, 6));
    }

    #[test]
    fn delete_line_removes_its_snapshots() {
        let mut l = LineageTable::new();
        for _ in 0..9 {
            l.advance_cp();
        }
        let clone = l.create_clone(SnapshotId::new(LineId::ROOT, 3));
        l.register_snapshot(SnapshotId::new(clone, 8));
        assert_eq!(l.snapshots_of(clone), vec![8]);
        l.delete_line(clone);
        assert!(!l.is_line_active(clone));
        assert!(!l.is_interval_live(clone, 0, CP_INFINITY));
        assert!(
            l.snapshots_of(clone).iter().all(|_| false)
                || l.live_versions_in(clone, 0, CP_INFINITY).is_empty()
        );
    }

    #[test]
    fn clones_within_finds_inheriting_clones() {
        let mut l = LineageTable::new();
        for _ in 0..19 {
            l.advance_cp();
        }
        let s1 = SnapshotId::new(LineId::ROOT, 5);
        let s2 = SnapshotId::new(LineId::ROOT, 15);
        let c1 = l.create_clone(s1);
        let c2 = l.create_clone(s2);
        let within = l.clones_within(LineId::ROOT, 0, 10);
        assert_eq!(within, vec![(s1, c1)]);
        let all = l.clones_within(LineId::ROOT, 0, CP_INFINITY);
        assert_eq!(all.len(), 2);
        assert!(all.contains(&(s2, c2)));
        assert!(l.clones_within(LineId(5), 0, CP_INFINITY).is_empty());
    }

    #[test]
    fn register_clone_uses_external_line_ids() {
        let mut l = LineageTable::new();
        for _ in 0..9 {
            l.advance_cp();
        }
        let parent = SnapshotId::new(LineId::ROOT, 4);
        l.register_clone(parent, LineId(17));
        assert!(l.is_line_active(LineId(17)));
        assert_eq!(l.parent_of(LineId(17)), Some(parent));
        assert_eq!(l.clones_of(parent), &[LineId(17)]);
        // Internally allocated line identifiers skip past the external one.
        let next = l.create_clone(parent);
        assert_eq!(next, LineId(18));
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn register_clone_rejects_duplicate_lines() {
        let mut l = LineageTable::new();
        let parent = SnapshotId::new(LineId::ROOT, 1);
        l.register_clone(parent, LineId(3));
        l.register_clone(parent, LineId(3));
    }

    #[test]
    fn override_records_on_active_lines_are_not_purgeable() {
        let mut l = LineageTable::new();
        for _ in 0..9 {
            l.advance_cp();
        }
        let parent = SnapshotId::new(LineId::ROOT, 4);
        let clone = l.create_clone(parent);
        // An override record [0, 6) on the active clone has no live version
        // of its own but must survive maintenance.
        assert!(!l.is_interval_live(clone, 0, 6));
        assert!(!l.is_purgeable(clone, 0, 6));
        // Once the clone is deleted it may be purged.
        l.delete_line(clone);
        assert!(l.is_purgeable(clone, 0, 6));
    }

    #[test]
    fn encode_decode_roundtrips_behavior() {
        let mut l = LineageTable::new();
        for _ in 0..9 {
            l.advance_cp();
        }
        let s5 = SnapshotId::new(LineId::ROOT, 5);
        l.register_snapshot(s5);
        let c1 = l.create_clone(s5);
        l.register_snapshot(SnapshotId::new(c1, 8));
        l.register_clone(s5, LineId(17));
        l.delete_snapshot(s5); // cloned: becomes a zombie
        l.delete_line(LineId(17));
        let mut bytes = Vec::new();
        l.encode(&mut bytes);
        let mut at = 0;
        let back = LineageTable::decode(&bytes, &mut at).expect("decodes");
        assert_eq!(at, bytes.len(), "every byte consumed");
        assert_eq!(back.current_cp(), l.current_cp());
        assert_eq!(back.line_count(), l.line_count());
        assert_eq!(back.zombies(), l.zombies());
        for line in [LineId::ROOT, c1, LineId(17)] {
            assert_eq!(back.line(line), l.line(line), "{line} info");
            assert_eq!(back.snapshots_of(line), l.snapshots_of(line));
            assert_eq!(
                back.clones_within(line, 0, CP_INFINITY),
                l.clones_within(line, 0, CP_INFINITY)
            );
            assert_eq!(
                back.live_versions_in(line, 0, CP_INFINITY),
                l.live_versions_in(line, 0, CP_INFINITY)
            );
        }
        assert_eq!(back.clones_of(s5), l.clones_of(s5));
        // Encoding is deterministic, and line allocation continues correctly.
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, bytes);
        let mut back = back;
        assert_eq!(back.create_clone(s5), LineId(18));
    }

    #[test]
    fn decode_rejects_truncated_or_garbage_bytes() {
        let mut l = LineageTable::new();
        l.advance_cp();
        l.take_snapshot(LineId::ROOT);
        let mut bytes = Vec::new();
        l.encode(&mut bytes);
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            let mut at = 0;
            assert!(
                LineageTable::decode(&bytes[..cut], &mut at).is_none(),
                "truncation at {cut} must be detected"
            );
        }
        // A bad parent tag is rejected rather than misparsed: the header is
        // next_line(4) + current_cp(8) + line_count(4), then the first
        // line's id(4), so the parent tag sits at byte 20.
        let mut bad = bytes.clone();
        bad[20] = 9;
        let mut at = 0;
        assert!(LineageTable::decode(&bad, &mut at).is_none());
    }

    #[test]
    fn nested_clone_keeps_zombie_alive() {
        let mut l = LineageTable::new();
        for _ in 0..9 {
            l.advance_cp();
        }
        let s = SnapshotId::new(LineId::ROOT, 5);
        l.register_snapshot(s);
        let c1 = l.create_clone(s);
        // Clone of the clone.
        let s2 = SnapshotId::new(c1, 8);
        l.register_snapshot(s2);
        let _c2 = l.create_clone(s2);
        l.delete_snapshot(s);
        // Deleting the intermediate clone line still leaves a live descendant.
        l.delete_line(c1);
        assert_eq!(l.prune_zombies(), 0, "grandchild clone keeps the zombie");
    }
}
