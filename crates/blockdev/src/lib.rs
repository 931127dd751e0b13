//! Simulated block storage for the Backlog (FAST'10) reproduction.
//!
//! The paper's evaluation reports costs in *device-level units* — 4 KB page
//! writes per block operation, page reads per query — plus a time overhead
//! measured on a 15K RPM SAS drive. This crate provides the substrate that
//! makes those units measurable in a deterministic, hardware-independent way:
//!
//! * [`SimDisk`] — a page-addressable in-memory device that stores real page
//!   contents, counts every read and write, and charges a configurable
//!   [`LatencyModel`] (seek + rotation + transfer) to a simulated clock.
//! * [`FileStore`] / [`VFile`] — a minimal extent-allocating file layer used
//!   by the LSM read-store runs; files are written append-only and read
//!   randomly, exactly the access pattern of Stepped-Merge run files.
//! * [`Completion`] — the handle returned by the submit-side device API
//!   ([`Device::submit_read`] / [`Device::submit_write`] /
//!   [`Device::submit_flush`]). Submitted operations are scheduled onto
//!   `queue_depth` parallel service slots, so pipelined callers overlap
//!   device latency instead of summing it; the sync `read_page`/`write_page`
//!   API is a submit-then-wait shim over the same path.
//! * [`IoStats`] — cheap atomic counters with snapshot/delta support so
//!   experiments can attribute I/O to phases (normal operation, consistency
//!   points, maintenance, queries).
//!
//! Everything here is deterministic: no wall-clock time, no OS file system,
//! no background threads. Two runs of the same workload produce identical
//! counter values, so I/O counts repeat exactly for a seed. (Concurrency
//! benchmarks may opt into
//! [`SimDisk::set_latency_emulation`], which additionally parks the calling
//! thread for each access's modeled latency so wall-clock overlap between
//! threads becomes measurable; counters stay deterministic either way.)
//!
//! Every type here is `Send + Sync`: devices and the file store are
//! internally synchronized so LSM tables can be read and rebuilt from
//! multiple threads at once.
//!
//! # Example
//!
//! ```
//! use blockdev::{Device, DeviceConfig, SimDisk, PAGE_SIZE};
//!
//! let disk = SimDisk::new(DeviceConfig::default());
//! let page = vec![7u8; PAGE_SIZE];
//! disk.write_page(42, &page).unwrap();
//! let back = disk.read_page(42).unwrap();
//! assert_eq!(back[0], 7);
//! assert_eq!(disk.stats().snapshot().page_writes, 1);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod completion;
mod device;
mod error;
mod latency;
/// I/O counters, latency histograms, and engine-installable trace hooks.
pub mod stats;
mod superblock;
mod vfile;

pub use completion::{Completer, Completion};
pub use device::{
    Device, DeviceConfig, FaultProfile, LatencyJitter, PowerCutProfile, PowerCutReport, SimDisk,
    SECTOR_SIZE,
};
pub use error::{DeviceError, Result};
pub use latency::{LatencyModel, SimClock};
pub use stats::{IoStats, IoStatsSnapshot};
pub use superblock::{
    fnv1a64, Superblock, FIRST_DATA_PAGE, MAX_MANIFEST_EXTENTS, SUPERBLOCK_PAGES,
};
pub use vfile::{FileId, FileMap, FileStore, PersistedFile, ReservedExtent, VFile};

/// Size of a device page in bytes (the paper's 4 KB block size).
pub const PAGE_SIZE: usize = 4096;

/// A physical page number on a simulated device.
pub type PageNo = u64;

// Compile-time `Send + Sync` guarantees (static_assertions-style): the whole
// concurrency model — shared runs, parallel partition maintenance, concurrent
// readers — rests on these types being safely shareable across threads.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<SimDisk>();
    assert::<FileStore>();
    assert::<FileMap>();
    assert::<IoStats>();
    assert::<SimClock>();
    assert::<Completion>();
    assert::<std::sync::Arc<dyn Device>>();
}
