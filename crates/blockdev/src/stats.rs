use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use obs::{spans, Clock, FlightRecorder, Histogram, HistogramSnapshot};

/// Lock id tagging [`LOCK_WAIT`](spans::LOCK_WAIT) marks from the file
/// store's allocation lock.
pub const LOCK_ID_FILE_STORE: u64 = 1;
/// Lock id tagging [`LOCK_WAIT`](spans::LOCK_WAIT) marks from LSM write
/// buffer shards.
pub const LOCK_ID_WRITE_SHARD: u64 = 2;

/// Observability hooks an engine installs on a device's stats (at most
/// once): contended lock acquisitions are marked in the flight recorder
/// and their waits measured on the engine's observability clock.
#[derive(Debug)]
struct StatsObs {
    recorder: Arc<FlightRecorder>,
    clock: Arc<dyn Clock>,
}

/// Atomic I/O counters attached to a device.
///
/// Counters are monotonically increasing; experiments take a
/// [`snapshot`](IoStats::snapshot) before and after a phase and subtract the
/// two with [`IoStatsSnapshot::delta_since`] to attribute cost to that phase.
/// Alongside the scalar counters the stats keep two lock-free latency
/// histograms: per-operation modeled device service time (the
/// submit-to-complete gap the scalar `device_ns` only sums) and
/// contended-lock wait time.
#[derive(Debug, Default)]
pub struct IoStats {
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    seeks: AtomicU64,
    /// Write barriers ([`Device::flush`](crate::Device::flush)) issued.
    flushes: AtomicU64,
    /// Simulated device busy time, nanoseconds.
    device_ns: AtomicU64,
    /// Times a thread found the owning layer's state lock already held and
    /// had to wait (e.g. concurrent rebuilds contending on the file store's
    /// allocation lock).
    lock_contentions: AtomicU64,
    /// High-water mark of simultaneously outstanding submitted operations
    /// (submitted but not yet waited). Stays at 1 when every caller uses the
    /// sync shims; benchmarks assert it exceeds 1 to prove the async paths
    /// really pipelined.
    max_in_flight: AtomicU64,
    /// Operations that completed while at least one other operation was in
    /// flight — i.e. the I/O that actually overlapped.
    completed_async_ops: AtomicU64,
    /// Distribution of per-operation modeled service times (every sample
    /// also lands in the `device_ns` sum).
    service_ns_hist: Histogram,
    /// Distribution of contended-lock wait times, in observability-clock
    /// units (empty until [`attach_obs`](IoStats::attach_obs) supplies a
    /// clock).
    lock_wait_ns_hist: Histogram,
    /// Engine-installed trace hooks (absent for bare devices in tests).
    obs: OnceLock<StatsObs>,
}

impl IoStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a page read of `bytes` bytes.
    pub fn record_read(&self, bytes: u64) {
        self.page_reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a page write of `bytes` bytes.
    pub fn record_write(&self, bytes: u64) {
        self.page_writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a head seek (non-sequential access).
    pub fn record_seek(&self) {
        self.seeks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a write barrier (flush).
    pub fn record_flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.recorder.mark(spans::DEV_FLUSH, 0, 0);
        }
    }

    /// Adds simulated device busy time in nanoseconds. The sample also
    /// lands in the per-operation service-time histogram.
    pub fn record_device_ns(&self, ns: u64) {
        self.device_ns.fetch_add(ns, Ordering::Relaxed);
        self.service_ns_hist.record(ns);
    }

    /// Records one contended acquisition of a state lock (the acquiring
    /// thread found the lock held and blocked).
    pub fn record_lock_contention(&self) {
        self.lock_contentions.fetch_add(1, Ordering::Relaxed);
    }

    /// Installs trace hooks; first caller wins when several engines share
    /// the same device.
    pub fn attach_obs(&self, recorder: Arc<FlightRecorder>, clock: Arc<dyn Clock>) {
        let _ = self.obs.set(StatsObs { recorder, clock });
    }

    /// Reads the attached observability clock, or 0 when no engine has
    /// attached hooks yet (bare devices in tests).
    pub fn obs_now(&self) -> u64 {
        self.obs.get().map_or(0, |o| o.clock.now_ns())
    }

    /// Records a contended-lock wait of `ns` observability-clock units,
    /// tagged with a caller-chosen lock id in the flight recorder.
    pub fn record_lock_wait(&self, lock_id: u64, ns: u64) {
        self.lock_wait_ns_hist.record(ns);
        if let Some(o) = self.obs.get() {
            o.recorder.mark(spans::LOCK_WAIT, lock_id, ns);
        }
    }

    /// Snapshot of the per-operation device service-time histogram.
    pub fn service_ns(&self) -> HistogramSnapshot {
        self.service_ns_hist.snapshot()
    }

    /// Snapshot of the contended-lock wait-time histogram.
    pub fn lock_wait_ns(&self) -> HistogramSnapshot {
        self.lock_wait_ns_hist.snapshot()
    }

    /// Raises the in-flight high-water mark to at least `in_flight`.
    pub fn record_in_flight(&self, in_flight: u64) {
        self.max_in_flight.fetch_max(in_flight, Ordering::Relaxed);
    }

    /// Records the completion of an operation that overlapped with at least
    /// one other in-flight operation.
    pub fn record_async_complete(&self) {
        self.completed_async_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a point-in-time copy of all counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            page_reads: self.page_reads.load(Ordering::Relaxed),
            page_writes: self.page_writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            device_ns: self.device_ns.load(Ordering::Relaxed),
            lock_contentions: self.lock_contentions.load(Ordering::Relaxed),
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed),
            completed_async_ops: self.completed_async_ops.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    ///
    /// Prefer snapshot/delta over reset when multiple observers share the
    /// same device; reset is provided for single-owner tests.
    pub fn reset(&self) {
        self.page_reads.store(0, Ordering::Relaxed);
        self.page_writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.flushes.store(0, Ordering::Relaxed);
        self.device_ns.store(0, Ordering::Relaxed);
        self.lock_contentions.store(0, Ordering::Relaxed);
        self.max_in_flight.store(0, Ordering::Relaxed);
        self.completed_async_ops.store(0, Ordering::Relaxed);
        self.service_ns_hist.clear();
        self.lock_wait_ns_hist.clear();
    }
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Number of page reads issued to the device.
    pub page_reads: u64,
    /// Number of page writes issued to the device.
    pub page_writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of non-sequential accesses (head seeks).
    pub seeks: u64,
    /// Number of write barriers (flushes) issued.
    pub flushes: u64,
    /// Simulated device busy time in nanoseconds.
    pub device_ns: u64,
    /// Contended state-lock acquisitions (see
    /// [`IoStats::record_lock_contention`]).
    pub lock_contentions: u64,
    /// High-water mark of simultaneously in-flight submitted operations.
    /// A high-water mark, not a monotone count: compare snapshots directly
    /// rather than through [`delta_since`](IoStatsSnapshot::delta_since).
    pub max_in_flight: u64,
    /// Operations that completed while other operations were in flight.
    pub completed_async_ops: u64,
}

impl IoStatsSnapshot {
    /// Returns the difference `self - earlier`, saturating at zero.
    ///
    /// Counters are monotone, so a saturating subtraction only matters if the
    /// caller mixes snapshots from different devices.
    pub fn delta_since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            device_ns: self.device_ns.saturating_sub(earlier.device_ns),
            lock_contentions: self
                .lock_contentions
                .saturating_sub(earlier.lock_contentions),
            // The high-water mark is not a monotone counter; the delta keeps
            // the later snapshot's value so phase reports still show the peak.
            max_in_flight: self.max_in_flight,
            completed_async_ops: self
                .completed_async_ops
                .saturating_sub(earlier.completed_async_ops),
        }
    }

    /// Total number of page I/Os (reads plus writes).
    pub fn total_ios(&self) -> u64 {
        self.page_reads + self.page_writes
    }

    /// Simulated device busy time in microseconds.
    pub fn device_micros(&self) -> f64 {
        self.device_ns as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let stats = IoStats::new();
        stats.record_read(4096);
        stats.record_write(4096);
        stats.record_write(4096);
        stats.record_seek();
        stats.record_device_ns(1500);
        stats.record_lock_contention();
        let s = stats.snapshot();
        assert_eq!(s.page_reads, 1);
        assert_eq!(s.page_writes, 2);
        assert_eq!(s.bytes_read, 4096);
        assert_eq!(s.bytes_written, 8192);
        assert_eq!(s.seeks, 1);
        assert_eq!(s.device_ns, 1500);
        assert_eq!(s.lock_contentions, 1);
        assert_eq!(s.total_ios(), 3);
    }

    #[test]
    fn delta_subtracts() {
        let stats = IoStats::new();
        stats.record_write(4096);
        let before = stats.snapshot();
        stats.record_write(4096);
        stats.record_read(4096);
        let after = stats.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.page_writes, 1);
        assert_eq!(d.page_reads, 1);
    }

    #[test]
    fn delta_saturates() {
        let a = IoStatsSnapshot {
            page_reads: 1,
            ..Default::default()
        };
        let b = IoStatsSnapshot {
            page_reads: 5,
            ..Default::default()
        };
        assert_eq!(a.delta_since(&b).page_reads, 0);
    }

    #[test]
    fn reset_zeroes() {
        let stats = IoStats::new();
        stats.record_read(4096);
        stats.reset();
        assert_eq!(stats.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn async_counters_accumulate_and_reset() {
        let stats = IoStats::new();
        stats.record_in_flight(3);
        stats.record_in_flight(7);
        stats.record_in_flight(2);
        stats.record_async_complete();
        stats.record_async_complete();
        let s = stats.snapshot();
        assert_eq!(s.max_in_flight, 7, "high-water mark keeps the peak");
        assert_eq!(s.completed_async_ops, 2);
        let later = stats.snapshot();
        assert_eq!(later.delta_since(&s).max_in_flight, 7);
        assert_eq!(later.delta_since(&s).completed_async_ops, 0);
        stats.reset();
        assert_eq!(stats.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn micros_conversion() {
        let s = IoStatsSnapshot {
            device_ns: 2_500,
            ..Default::default()
        };
        assert!((s.device_micros() - 2.5).abs() < 1e-9);
    }
}
