use lsm::{BloomConfig, Partitioning};

/// Configuration for a [`BacklogEngine`](crate::BacklogEngine).
#[derive(Debug, Clone)]
pub struct BacklogConfig {
    /// Bloom filter sizing for the `From` and `To` tables' runs. The default
    /// matches the paper: sized for 32,000 operations per CP (32 KB).
    pub bloom: BloomConfig,
    /// Bloom filter sizing for the `Combined` table, which the paper allows
    /// to grow up to 1 MB.
    pub combined_bloom: BloomConfig,
    /// Horizontal partitioning of the read-store files by block number.
    pub partitioning: Partitioning,
    /// Whether to measure wall-clock time spent in callbacks and CP flushes.
    /// Disable for pure I/O-count experiments to avoid timer overhead.
    pub track_timing: bool,
    /// Worker threads each table's consistency-point flush fans its
    /// per-partition run builds onto (1 = flush partitions inline on the
    /// calling thread, the deterministic default).
    pub cp_flush_threads: usize,
    /// Whether a durable engine journals every reference callback: each
    /// `add_reference` / `remove_reference` appends a
    /// [`JournalEntry`](crate::JournalEntry) to an on-device ring (group
    /// commit), and after a crash the surviving entries reconstruct the
    /// write-store contents the crash destroyed (`BacklogEngine::open` +
    /// `replay_recovered_journal`, with no host assistance). Off by
    /// default, and without effect on a non-durable engine: one that cannot
    /// be reopened has nothing to replay a journal into.
    ///
    /// Entries are appended inside the shard critical section that
    /// publishes their records — the same one a consistency point holds
    /// while it stages that partition — so every CP knows, and records in
    /// its manifest frame, the exact LSN its flush covered per partition.
    /// Replay applies precisely the entries beyond that frontier (it reads
    /// no table) and the ring is truncated up to it, even for unfenced
    /// callbacks in flight across the CP boundary — an entry can never be
    /// truncated while its record is still volatile, nor replayed once it
    /// is durable.
    pub journaling: bool,
    /// Pending journal entries that trigger an automatic group commit of
    /// the on-device ring — the staleness/throughput knob: each commit
    /// coalesces the pending segment into page-aligned group writes behind
    /// **one** flush barrier, so larger groups amortize the barrier over
    /// more callbacks at the cost of more acknowledged-but-volatile
    /// entries between commits. 0 disables auto-commit (the ring then
    /// commits only on explicit `journal_sync` calls and rides CP flushes).
    pub journal_group_size: usize,
    /// Capacity of the on-device journal ring in pages, reserved as one
    /// contiguous extent at `create_durable`. The ring must hold the groups
    /// committed since the last consistency point — a CP truncates
    /// everything its flush covered, so a quiescent CP leaves the ring
    /// empty; a full ring fails `journal_sync` with `JournalFull` until a
    /// consistency point advances the tail.
    pub journal_ring_pages: u64,
}

impl Default for BacklogConfig {
    fn default() -> Self {
        BacklogConfig {
            bloom: BloomConfig::default(),
            combined_bloom: BloomConfig {
                // The Combined RS participates in nearly every query, so the
                // paper lets its filter grow to 1 MB.
                max_bits: 1024 * 1024 * 8,
                ..BloomConfig::default()
            },
            partitioning: Partitioning::single(),
            track_timing: true,
            cp_flush_threads: 1,
            journaling: false,
            journal_group_size: 64,
            journal_ring_pages: 256,
        }
    }
}

impl BacklogConfig {
    /// A configuration with `partitions` fixed-range partitions over a key
    /// space of `total_blocks` physical blocks.
    pub fn partitioned(partitions: u32, total_blocks: u64) -> Self {
        BacklogConfig {
            partitioning: Partitioning::for_key_space(partitions, total_blocks),
            ..Default::default()
        }
    }

    /// Disables wall-clock timing of callbacks.
    pub fn without_timing(mut self) -> Self {
        self.track_timing = false;
        self
    }

    /// Sets how many worker threads each consistency-point flush fans its
    /// per-partition run builds onto (clamped to at least 1).
    pub fn with_cp_flush_threads(mut self, threads: usize) -> Self {
        self.cp_flush_threads = threads.max(1);
        self
    }

    /// Enables journaling of reference callbacks (see
    /// [`journaling`](Self::journaling)).
    pub fn with_journaling(mut self) -> Self {
        self.journaling = true;
        self
    }

    /// Sets the auto-group-commit threshold of the on-device journal ring
    /// (see [`journal_group_size`](Self::journal_group_size); 0 disables
    /// auto-commit).
    pub fn with_journal_group_size(mut self, entries: usize) -> Self {
        self.journal_group_size = entries;
        self
    }

    /// Sets the on-device journal ring's capacity in pages (clamped to at
    /// least 1; see [`journal_ring_pages`](Self::journal_ring_pages)).
    pub fn with_journal_ring_pages(mut self, pages: u64) -> Self {
        self.journal_ring_pages = pages.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_sizing() {
        let c = BacklogConfig::default();
        assert_eq!(c.bloom.hashes, 4);
        assert_eq!(c.combined_bloom.max_bits, 8 * 1024 * 1024);
        assert_eq!(c.partitioning.partition_count(), 1);
        assert!(c.track_timing);
        assert_eq!(c.cp_flush_threads, 1);
        assert!(!c.journaling);
        assert_eq!(c.journal_group_size, 64);
        assert_eq!(c.journal_ring_pages, 256);
        assert!(BacklogConfig::default().with_journaling().journaling);
    }

    #[test]
    fn journal_builders() {
        let c = BacklogConfig::default()
            .with_journal_group_size(0)
            .with_journal_ring_pages(0);
        assert_eq!(c.journal_group_size, 0);
        assert_eq!(c.journal_ring_pages, 1);
        assert_eq!(
            BacklogConfig::default()
                .with_journal_ring_pages(512)
                .journal_ring_pages,
            512
        );
    }

    #[test]
    fn cp_flush_threads_builder_clamps_to_one() {
        assert_eq!(
            BacklogConfig::default()
                .with_cp_flush_threads(4)
                .cp_flush_threads,
            4
        );
        assert_eq!(
            BacklogConfig::default()
                .with_cp_flush_threads(0)
                .cp_flush_threads,
            1
        );
    }

    #[test]
    fn partitioned_builder() {
        let c = BacklogConfig::partitioned(8, 80_000);
        assert_eq!(c.partitioning.partition_count(), 8);
        assert!(!c.without_timing().track_timing);
    }
}
