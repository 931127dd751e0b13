//! A Stepped-Merge / LSM-tree storage engine for fixed-size sorted records.
//!
//! This crate implements the storage machinery that Backlog (the FAST'10
//! paper "Tracking Back References in a Write-Anywhere File System") layers
//! its back-reference tables on:
//!
//! * [`WriteStore`] — the in-memory balanced tree (*WS*, the LSM-tree's C0
//!   component) in which updates accumulate between consistency points.
//! * [`Run`] — an on-disk read store (*RS*) run: densely packed sorted leaf
//!   pages followed by one flat section of fence keys (each leaf's first
//!   key). Writing a run performs no disk reads; the fence keys stay
//!   resident, so a lookup reads exactly the one leaf that can hold its key.
//! * [`BloomFilter`] — a 4-hash-function filter per run so queries skip runs
//!   that cannot contain a block, with support for halving the filter when a
//!   run holds fewer records than the default sizing assumes.
//! * [`LsmTable`] — one logical table (`From`, `To` or `Combined` in the
//!   paper): a write store plus the set of Level-0 runs accumulated since the
//!   last maintenance pass, horizontally partitioned by block number, with a
//!   C-Store-style [`DeletionVector`] masking relocated records.
//! * [`merge`] — k-way merge of sorted record streams, used both by queries
//!   (merging the WS with every relevant run) and by database maintenance.
//!
//! The engine is deliberately generic over the record type (see [`Record`]);
//! the `backlog` crate instantiates it three times, once per table.
//!
//! # Ordering requirement
//!
//! Range queries and partitioning address records by their
//! [`partition_key`](Record::partition_key) (the physical block number in
//! Backlog). The engine requires that the record's `Ord` implementation sorts
//! by `partition_key()` first; [`LsmTable`] checks this invariant in debug
//! builds when records are inserted.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use blockdev::{DeviceConfig, FileStore, SimDisk};
//! use lsm::{LsmTable, Record, TableConfig};
//!
//! #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
//! struct Pair(u64, u64);
//!
//! impl Record for Pair {
//!     const ENCODED_LEN: usize = 16;
//!     fn encode(&self, buf: &mut [u8]) {
//!         buf[..8].copy_from_slice(&self.0.to_be_bytes());
//!         buf[8..16].copy_from_slice(&self.1.to_be_bytes());
//!     }
//!     fn decode(buf: &[u8]) -> Self {
//!         Pair(
//!             u64::from_be_bytes(buf[..8].try_into().unwrap()),
//!             u64::from_be_bytes(buf[8..16].try_into().unwrap()),
//!         )
//!     }
//!     fn partition_key(&self) -> u64 {
//!         self.0
//!     }
//! }
//!
//! # fn main() -> Result<(), lsm::LsmError> {
//! let disk = SimDisk::new_shared(DeviceConfig::free_latency());
//! let files = Arc::new(FileStore::new(disk));
//! let mut table = LsmTable::new(files, TableConfig::default());
//! table.insert(Pair(10, 1));
//! table.insert(Pair(20, 2));
//! table.flush_cp()?; // consistency point: write store becomes a Level-0 run
//! let hits = table.query_range(10, 10)?;
//! assert_eq!(hits, vec![Pair(10, 1)]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod bloom;
mod deletion_vector;
mod error;
pub mod merge;
mod partition;
mod record;
mod run;
mod store;
mod write_store;

pub use bloom::{BloomConfig, BloomFilter};
pub use deletion_vector::DeletionVector;
pub use error::{LsmError, Result};
pub use partition::Partitioning;
pub use record::Record;
pub use run::{Run, RunBuilder, RunMeta, RunRangeIter, RunStats};
pub use store::{
    FlushStats, LsmTable, PartitionManifest, PartitionReadGuard, PartitionSnapshot,
    PartitionWriteGuard, PreparedFlush, RangeCapture, TableConfig, TableStats,
};
pub use write_store::{ShardedWriteStore, WriteShard, WriteStore};
