//! Stable span identities for the flight recorder.
//!
//! Ids are assigned centrally here (not per-crate) so an encoded trace
//! is stable across builds — the sim's byte-identical-trace test and
//! any cross-run diffing depend on these numbers never being reused.

/// A small stable identifier naming what a trace event is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u16);

/// The registered spans. Grouped by subsystem with gaps left for
/// additions; never renumber an existing constant.
pub mod spans {
    use super::SpanId;

    /// CP: prepare-flush of the three tables (begin/end).
    pub const CP_PREPARE: SpanId = SpanId(1);
    /// CP: draining the pipelined table + manifest-frame writes (begin/end).
    pub const CP_FLUSH: SpanId = SpanId(2);
    /// CP: the single pre-flip flush barrier (begin/end).
    pub const CP_BARRIER: SpanId = SpanId(3);
    /// CP: superblock flip + post-flip hardening (begin/end).
    pub const CP_FLIP: SpanId = SpanId(4);
    /// CP: retiring a rolled-over log, freed blocks, journal tail (begin/end).
    pub const CP_RETIRE: SpanId = SpanId(5);
    /// CP: the whole consistency point (begin/end; a = CP number).
    pub const CP_TOTAL: SpanId = SpanId(6);

    /// Group commit: laying pending entries out into groups (begin/end).
    pub const GC_COALESCE: SpanId = SpanId(10);
    /// Group commit: submitting the group pages (begin/end).
    pub const GC_WRITE: SpanId = SpanId(11);
    /// Group commit: wait-all + the single flush barrier (begin/end).
    pub const GC_BARRIER: SpanId = SpanId(12);
    /// Group commit: acknowledgement (mark; a = durable LSN).
    pub const GC_ACK: SpanId = SpanId(13);

    /// Maintenance: one partition's rebuild pass (begin/end; a = partition).
    pub const MAINT_PARTITION: SpanId = SpanId(20);
    /// Maintenance: a whole maintenance run (begin/end).
    pub const MAINT_TOTAL: SpanId = SpanId(21);

    /// Query: the three-table range scans (begin/end; a = identity).
    pub const QUERY_TABLES: SpanId = SpanId(30);
    /// Query: inheritance expansion + result assembly (begin/end).
    pub const QUERY_ASSEMBLE: SpanId = SpanId(31);
    /// Query: the whole lookup (begin/end; a = identity).
    pub const QUERY_TOTAL: SpanId = SpanId(32);

    /// Device: a submitted read's modeled service gap (mark; a = ns).
    pub const DEV_READ: SpanId = SpanId(40);
    /// Device: a submitted write's modeled service gap (mark; a = ns).
    pub const DEV_WRITE: SpanId = SpanId(41);
    /// Device: a flush barrier's modeled service gap (mark; a = ns).
    pub const DEV_FLUSH: SpanId = SpanId(42);

    /// A contended lock acquisition (mark; a = wait ns).
    pub const LOCK_WAIT: SpanId = SpanId(50);
    /// A journaled callback append (mark; a = LSN).
    pub const JOURNAL_APPEND: SpanId = SpanId(51);
    /// One engine callback — add/remove reference (mark; a = identity).
    pub const CALLBACK: SpanId = SpanId(52);

    /// Recovery: the whole `open` — superblock, manifest log, file store,
    /// tables, ring scan (begin/end).
    pub const OPEN: SpanId = SpanId(60);
    /// Recovery: the journal ring scan inside `open` (begin/end; a = tail
    /// sequence, b = entries recovered).
    pub const RING_SCAN: SpanId = SpanId(61);
    /// Recovery: journal replay (begin/end; a = entries recovered, b =
    /// entries applied).
    pub const JOURNAL_REPLAY: SpanId = SpanId(62);
}

/// Human-readable name for a span id (`"?"` for unregistered ids).
pub fn span_name(s: SpanId) -> &'static str {
    match s.0 {
        1 => "cp.prepare",
        2 => "cp.flush",
        3 => "cp.barrier",
        4 => "cp.flip",
        5 => "cp.retire",
        6 => "cp.total",
        10 => "gc.coalesce",
        11 => "gc.write",
        12 => "gc.barrier",
        13 => "gc.ack",
        20 => "maint.partition",
        21 => "maint.total",
        30 => "query.tables",
        31 => "query.assemble",
        32 => "query.total",
        40 => "dev.read",
        41 => "dev.write",
        42 => "dev.flush",
        50 => "lock.wait",
        51 => "journal.append",
        52 => "callback",
        60 => "open",
        61 => "open.ring_scan",
        62 => "journal.replay",
        _ => "?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_span_has_a_name() {
        for id in [
            spans::CP_PREPARE,
            spans::CP_FLUSH,
            spans::CP_BARRIER,
            spans::CP_FLIP,
            spans::CP_RETIRE,
            spans::CP_TOTAL,
            spans::GC_COALESCE,
            spans::GC_WRITE,
            spans::GC_BARRIER,
            spans::GC_ACK,
            spans::MAINT_PARTITION,
            spans::MAINT_TOTAL,
            spans::QUERY_TABLES,
            spans::QUERY_ASSEMBLE,
            spans::QUERY_TOTAL,
            spans::DEV_READ,
            spans::DEV_WRITE,
            spans::DEV_FLUSH,
            spans::LOCK_WAIT,
            spans::JOURNAL_APPEND,
            spans::CALLBACK,
            spans::OPEN,
            spans::RING_SCAN,
            spans::JOURNAL_REPLAY,
        ] {
            assert_ne!(span_name(id), "?", "{id:?}");
        }
        assert_eq!(span_name(SpanId(999)), "?");
    }
}
