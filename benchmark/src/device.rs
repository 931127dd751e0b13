//! The traced run's view of the device: a [`Device`] that delegates to the
//! [`SimDisk`] and, per call, reads the clock twice and bumps one counter.
//!
//! Time and counts are bucketed by the [`Kind`] of the section the calling
//! thread is in (callback replay, CP, maintenance, query, open), and the time
//! is also charged to that section's span so span self times exclude it.
//! Only the six I/O methods are timed; `queue_depth`, `stats`, `clock` and
//! `capacity_pages` return a stored value and are forwarded as they are.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use blockdev::{Completion, Device, IoStats, PageNo, SimClock, SimDisk};

use crate::trace::{charge_device_ns, current_kind, Kind, KINDS};

/// What the wrapper saw in sections of one [`Kind`].
#[derive(Debug, Default)]
struct Bucket {
    busy_ns: AtomicU64,
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    flushes: AtomicU64,
}

/// A copy of one bucket's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    /// Wall time spent inside device calls.
    pub busy_ns: u64,
    /// `read_page` + `submit_read` calls.
    pub pages_read: u64,
    /// `write_page` + `submit_write` calls.
    pub pages_written: u64,
    /// `flush` + `submit_flush` calls.
    pub flushes: u64,
}

/// Timing/counting [`Device`] wrapper around the benchmark's [`SimDisk`].
#[derive(Debug)]
pub struct TracedDevice {
    inner: Arc<SimDisk>,
    buckets: [Bucket; KINDS],
}

impl TracedDevice {
    /// Wraps `inner`.
    pub fn new(inner: Arc<SimDisk>) -> Self {
        TracedDevice {
            inner,
            buckets: Default::default(),
        }
    }

    /// The counters accumulated in sections of `kind`.
    pub fn counts(&self, kind: Kind) -> DeviceCounts {
        let b = &self.buckets[kind as usize];
        DeviceCounts {
            busy_ns: b.busy_ns.load(Ordering::Relaxed),
            pages_read: b.pages_read.load(Ordering::Relaxed),
            pages_written: b.pages_written.load(Ordering::Relaxed),
            flushes: b.flushes.load(Ordering::Relaxed),
        }
    }

    /// The counters of every kind, indexed by `Kind as usize`.
    pub fn all_counts(&self) -> [DeviceCounts; KINDS] {
        Kind::ALL.map(|k| self.counts(k))
    }

    /// Zeroes every counter (set-up work ends here).
    pub fn reset(&self) {
        for b in &self.buckets {
            for counter in [&b.busy_ns, &b.pages_read, &b.pages_written, &b.flushes] {
                counter.store(0, Ordering::Relaxed);
            }
        }
    }

    fn call<T>(&self, counter: fn(&Bucket) -> &AtomicU64, f: impl FnOnce(&SimDisk) -> T) -> T {
        let bucket = &self.buckets[current_kind() as usize];
        let start = Instant::now();
        let out = f(&self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        // Relaxed: statistics only, read after the threads are joined.
        bucket.busy_ns.fetch_add(ns, Ordering::Relaxed);
        counter(bucket).fetch_add(1, Ordering::Relaxed);
        charge_device_ns(ns);
        out
    }
}

impl Device for TracedDevice {
    fn read_page(&self, page: PageNo) -> blockdev::Result<Vec<u8>> {
        self.call(|b| &b.pages_read, |d| d.read_page(page))
    }

    fn write_page(&self, page: PageNo, data: &[u8]) -> blockdev::Result<()> {
        self.call(|b| &b.pages_written, |d| d.write_page(page, data))
    }

    fn flush(&self) -> blockdev::Result<()> {
        self.call(|b| &b.flushes, |d| d.flush())
    }

    fn submit_read(&self, page: PageNo) -> Completion {
        self.call(|b| &b.pages_read, |d| d.submit_read(page))
    }

    fn submit_write(&self, page: PageNo, data: &[u8]) -> Completion {
        self.call(|b| &b.pages_written, |d| d.submit_write(page, data))
    }

    fn submit_flush(&self) -> Completion {
        self.call(|b| &b.flushes, |d| d.submit_flush())
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use blockdev::{DeviceConfig, PAGE_SIZE};

    #[test]
    fn forwards_all_ten_methods_and_counts_like_iostats() {
        let disk = SimDisk::new_shared(DeviceConfig::default().with_capacity_pages(1 << 20));
        disk.set_write_cache(true);
        let traced = TracedDevice::new(disk.clone());
        let before = disk.stats().snapshot();
        let clock_before = disk.clock().now_ns();
        let page = vec![0xAB; PAGE_SIZE];

        // The four accessors answer exactly like the wrapped disk.
        assert_eq!(traced.queue_depth(), disk.queue_depth());
        assert_eq!(traced.capacity_pages(), 1 << 20);
        assert!(std::ptr::eq(traced.stats(), disk.stats()));
        assert!(std::ptr::eq(traced.clock(), disk.clock()));

        let tracer = Tracer::new(true);
        tracer.timed(Kind::Cp, || {
            traced.write_page(10, &page).unwrap();
            // Two submits in flight at once: only the disk's own submit path
            // overlaps them (the trait's default would wait inside submit).
            let first = traced.submit_write(11, &page);
            let second = traced.submit_write(12, &page);
            first.wait().unwrap();
            second.wait().unwrap();
            // All three writes sit in the volatile cache until a barrier.
            assert_eq!(disk.cached_pages(), 3);
            traced.flush().unwrap();
            assert_eq!(disk.cached_pages(), 0);
            traced.submit_write(13, &page).wait().unwrap();
            traced.submit_flush().wait().unwrap();
            assert_eq!(disk.cached_pages(), 0);
        });
        tracer.timed(Kind::Query, || {
            assert_eq!(traced.read_page(10).unwrap(), page);
            let first = traced.submit_read(12);
            let second = traced.submit_read(13);
            assert_eq!(first.wait_read().unwrap(), page);
            assert_eq!(second.wait_read().unwrap(), page);
        });

        let delta = disk.stats().snapshot().delta_since(&before);
        let cp = traced.counts(Kind::Cp);
        let query = traced.counts(Kind::Query);
        assert_eq!((cp.pages_written, cp.flushes, cp.pages_read), (4, 2, 0));
        assert_eq!(
            (query.pages_written, query.flushes, query.pages_read),
            (0, 0, 3)
        );
        let all = traced.all_counts();
        let sum = |f: fn(&DeviceCounts) -> u64| all.iter().map(f).sum::<u64>();
        assert_eq!(sum(|c| c.pages_written), delta.page_writes);
        assert_eq!(sum(|c| c.pages_read), delta.page_reads);
        assert_eq!(sum(|c| c.flushes), delta.flushes);
        assert_eq!(delta.max_in_flight, 2);
        assert_eq!(
            delta.completed_async_ops, 2,
            "one overlapped write, one read"
        );
        assert!(disk.clock().now_ns() > clock_before);
        // Every call's time landed in its section's span.
        let spans = tracer.spans();
        assert_eq!(spans[0].device_ns, cp.busy_ns);
        assert_eq!(spans[1].device_ns, query.busy_ns);
        assert!(cp.busy_ns > 0 && query.busy_ns > 0);
        traced.reset();
        assert_eq!(traced.counts(Kind::Cp), DeviceCounts::default());
    }
}
