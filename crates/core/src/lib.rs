//! **Backlog** — log-structured back references for write-anywhere file
//! systems.
//!
//! This crate reproduces the system described in *"Tracking Back References
//! in a Write-Anywhere File System"* (Macko, Seltzer, Smith — FAST 2010).
//! Back references are file-system metadata that map a physical block number
//! to the set of objects (inode, file offset, snapshot line, version range)
//! that reference it — the inverted index of the usual file-offset →
//! physical-block map. They make block-relocation operations such as
//! defragmentation, volume shrinking and data migration practical in the
//! presence of snapshots, writable clones and deduplication, where a single
//! block can have dozens of owners.
//!
//! # Design (paper §4–§5)
//!
//! Updates are buffered in in-memory *write stores* and written to disk only
//! at file-system consistency points, as densely packed sorted *runs* with
//! a resident fence-key index (an LSM-tree / Stepped-Merge organization
//! provided by the [`lsm`] crate). Two tables are maintained during normal operation:
//!
//! * **From** — a record is inserted when a reference is created
//!   (allocation, deduplication hit, clone override), carrying the CP number
//!   from which it is valid.
//! * **To** — a record is inserted when a reference is removed, carrying the
//!   CP number at which it stops being valid.
//!
//! No read-modify-write ever happens on the hot path. The conceptual
//! per-reference validity interval is the outer join of the two tables,
//! materialized into a third table (**Combined**) only during periodic
//! [`maintenance`](BacklogEngine::maintenance), which also purges records
//! that refer only to deleted snapshots. Writable clones are represented by
//! *structural inheritance*: a clone implicitly inherits its parent
//! snapshot's back references unless an override record exists, so cloning
//! copies nothing.
//!
//! # Quick start
//!
//! ```
//! use backlog::{BacklogConfig, BacklogEngine, LineId, Owner};
//!
//! # fn main() -> Result<(), backlog::BacklogError> {
//! let mut engine = BacklogEngine::new_simulated(BacklogConfig::default());
//!
//! // The file system reports every reference change...
//! engine.add_reference(4096, Owner::block(12, 0, LineId::ROOT));
//! engine.add_reference(4097, Owner::block(12, 1, LineId::ROOT));
//! // ...and tells the engine when a consistency point is taken.
//! engine.consistency_point()?;
//!
//! // Later, a defragmenter asks: who owns block 4096?
//! let owners = engine.live_owners(4096)?;
//! assert_eq!(owners.len(), 1);
//! assert_eq!(owners[0].inode, 12);
//! # Ok(())
//! # }
//! ```
//!
//! The [`fsim`](https://docs.rs/fsim) crate in this workspace drives the
//! engine from a simulated write-anywhere file system with snapshots,
//! writable clones and deduplication, and the `backlog-bench` crate
//! regenerates every figure and table of the paper's evaluation.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod batch;
mod config;
mod engine;
mod error;
pub mod journal;
pub mod lineage;
pub mod maintenance;
mod manifest;
pub mod observe;
pub mod query;
mod record;
mod stats;
mod types;
mod verify;

pub use batch::{RefOp, WriteBatch};
pub use config::BacklogConfig;
pub use engine::{BacklogEngine, JournalRecovery};
pub use error::{BacklogError, Result};
pub use journal::{
    replay as replay_journal, JournalEntry, JournalRing, JournalRingStats, RecoveredRing,
};
pub use lineage::{LineInfo, LineageTable};
pub use maintenance::MaintenancePlan;
pub use observe::EngineObs;
pub use query::{BackRef, QueryResult};
pub use record::{CombinedRecord, FromRecord, RefIdentity, ToRecord};
pub use stats::{
    BacklogStats, CpPhaseNs, CpReport, IoDelta, MaintenanceReport, ManifestKind, ManifestLogStats,
};
pub use types::{BlockNo, CpNumber, FileOffset, InodeNo, LineId, Owner, SnapshotId, CP_INFINITY};
pub use verify::{verify, ExpectedRef, VerifyReport};
