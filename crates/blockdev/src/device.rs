use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
// backlint: allow(determinism) — wall-clock time is used for latency emulation only; it never reaches encoded bytes
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::completion::Completion;
use crate::error::{DeviceError, Result};
use crate::latency::{LatencyModel, SimClock};
use crate::stats::IoStats;
use crate::{PageNo, PAGE_SIZE};

/// The sector size used by the torn-write model: a torn page persists a
/// whole number of sectors, never a partial one.
pub const SECTOR_SIZE: usize = 512;

/// Configuration for a [`SimDisk`].
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Device capacity in 4 KB pages. Defaults to 64 Gi pages (effectively
    /// unbounded for simulation purposes).
    pub capacity_pages: u64,
    /// Latency model charged for every access.
    pub latency: LatencyModel,
    /// If false, page payloads are not retained (only counters are kept).
    /// The LSM layer requires payload storage; pure overhead experiments that
    /// never read data back may disable it to save host memory.
    pub store_payloads: bool,
    /// Number of operations the device services concurrently: submitted
    /// operations are scheduled onto this many parallel service slots, so up
    /// to `queue_depth` latencies overlap instead of summing. Callers using
    /// only the sync API never observe the depth (each operation waits
    /// before the next submits); pipelined callers see wall-clock and
    /// simulated time shrink toward `total / queue_depth`.
    pub queue_depth: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            capacity_pages: 64 * 1024 * 1024 * 1024 / PAGE_SIZE as u64 * 1024,
            latency: LatencyModel::default(),
            store_payloads: true,
            queue_depth: 16,
        }
    }
}

impl DeviceConfig {
    /// A config with zero-latency accesses, convenient in unit tests.
    pub fn free_latency() -> Self {
        DeviceConfig {
            latency: LatencyModel::free(),
            ..Default::default()
        }
    }

    /// Sets the capacity in pages.
    pub fn with_capacity_pages(mut self, pages: u64) -> Self {
        self.capacity_pages = pages;
        self
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Enables or disables payload retention.
    pub fn with_payloads(mut self, store: bool) -> Self {
        self.store_payloads = store;
        self
    }

    /// Sets the queue depth (clamped to at least 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }
}

/// Seeded per-operation latency jitter: every dispatched operation draws an
/// extra service time uniformly from `[min_ns, max_ns]` using a generator
/// seeded with `seed`. Draws happen at submit, in submission order, so a
/// jitter schedule — like a [`FaultProfile`] schedule — replays bit-for-bit
/// from its seed. The simulator uses this to perturb completion timing (and
/// therefore the overlap the pipelined paths see) without breaking
/// determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyJitter {
    /// Seed for the jitter generator.
    pub seed: u64,
    /// Minimum extra service time per operation, nanoseconds.
    pub min_ns: u64,
    /// Maximum extra service time per operation, nanoseconds.
    pub max_ns: u64,
}

#[derive(Debug)]
struct JitterState {
    jitter: LatencyJitter,
    rng: StdRng,
}

/// Per-operation probabilistic fault injection, seeded for reproducibility.
///
/// Unlike the counter-based [`SimDisk::fail_writes_after`] /
/// [`SimDisk::fail_reads_after`] injections (which kill exactly one scheduled
/// operation), a profile makes *every* I/O a biased coin flip drawn from a
/// seeded generator, so a whole workload sees a realistic scatter of failures
/// that replays bit-for-bit from the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Seed for the fault generator.
    pub seed: u64,
    /// Probability that a read fails with [`DeviceError::InjectedFault`].
    pub read_fault: f64,
    /// Probability that a write fails with [`DeviceError::InjectedFault`].
    pub write_fault: f64,
    /// Given a write fault, the probability that the failed write still tears
    /// the target page: a sector-aligned prefix of the new content persists
    /// over the old content before the error is reported. Zero means failed
    /// writes have no effect on media, matching the counter-based injection.
    pub torn_write: f64,
}

impl FaultProfile {
    /// A profile that never fires; useful as a base for struct update syntax.
    pub fn quiet(seed: u64) -> Self {
        FaultProfile {
            seed,
            read_fault: 0.0,
            write_fault: 0.0,
            torn_write: 0.0,
        }
    }
}

/// The fate distribution for unflushed cached writes at a simulated power
/// cut: each cached page independently persists whole, persists torn
/// (sector-aligned prefix), or is lost entirely.
///
/// Probabilities are evaluated in order: a draw below `persist` persists the
/// page, a draw below `persist + torn` tears it, anything else loses it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCutProfile {
    /// Seed for the per-page fate draws (independent of the fault profile,
    /// so a cut is reproducible regardless of how many I/Os preceded it).
    pub seed: u64,
    /// Probability that a cached page persists in full.
    pub persist: f64,
    /// Probability that a cached page persists a torn prefix.
    pub torn: f64,
}

impl PowerCutProfile {
    /// Every unflushed write is discarded — the harshest (and simplest) cut.
    pub fn lose_all(seed: u64) -> Self {
        PowerCutProfile {
            seed,
            persist: 0.0,
            torn: 0.0,
        }
    }
}

/// What a [`SimDisk::power_cut`] did to the unflushed write cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerCutReport {
    /// Cached pages that persisted in full.
    pub persisted: u64,
    /// Cached pages that persisted a sector-aligned prefix over their
    /// previous stable content.
    pub torn: u64,
    /// Cached pages that were discarded entirely.
    pub lost: u64,
}

impl PowerCutReport {
    /// Total cached pages affected by the cut.
    pub fn total(&self) -> u64 {
        self.persisted + self.torn + self.lost
    }
}

/// The interface higher layers drive a device through.
///
/// `Device` is object-safe; higher layers hold `Arc<dyn Device>` so that the
/// LSM store can run against a [`SimDisk`] or any wrapper around one (e.g. a
/// tracing decorator).
pub trait Device: Send + Sync + std::fmt::Debug {
    /// Reads page `page` into a freshly allocated buffer of [`PAGE_SIZE`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnwrittenPage`] if the page has never been
    /// written and [`DeviceError::OutOfRange`] if it is beyond the capacity.
    fn read_page(&self, page: PageNo) -> Result<Vec<u8>>;

    /// Writes one page. `data` must be at most [`PAGE_SIZE`] bytes; shorter
    /// buffers are implicitly zero-padded to a full page.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadBufferLength`] if `data` exceeds one page
    /// and [`DeviceError::OutOfRange`] if the page is beyond the capacity.
    fn write_page(&self, page: PageNo, data: &[u8]) -> Result<()>;

    /// Write barrier: every write issued before this call is durable when it
    /// returns. On a device without a volatile write cache this is a no-op;
    /// on a [`SimDisk`] with [`SimDisk::set_write_cache`] enabled it commits
    /// the cache to stable storage, so a later
    /// [`power_cut`](SimDisk::power_cut) cannot touch those pages.
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceError`] if the device cannot make the outstanding
    /// writes durable. The in-memory simulators never fail a flush.
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Submits a read of page `page` and returns a [`Completion`] that
    /// yields the payload (or error) on
    /// [`wait_read`](Completion::wait_read). Errors surface at the
    /// completion, never at the submit.
    ///
    /// The default implementation services the read synchronously and
    /// returns it pre-resolved, so every `Device` supports the submit API
    /// even if it cannot overlap anything.
    fn submit_read(&self, page: PageNo) -> Completion {
        Completion::ready_data(self.read_page(page))
    }

    /// Submits a write and returns a [`Completion`] for it. See
    /// [`submit_read`](Device::submit_read) for the error and default
    /// semantics; buffer rules match [`write_page`](Device::write_page).
    fn submit_write(&self, page: PageNo, data: &[u8]) -> Completion {
        Completion::ready(self.write_page(page, data))
    }

    /// Submits a write barrier covering every operation submitted before it
    /// and returns a [`Completion`] for it.
    fn submit_flush(&self) -> Completion {
        Completion::ready(self.flush())
    }

    /// How many operations this device can usefully keep in flight at once.
    /// Pipelined writers bound their outstanding completions by a small
    /// multiple of this. The default (1) describes a device whose submit
    /// methods are the synchronous fallbacks.
    fn queue_depth(&self) -> usize {
        1
    }

    /// The I/O counters for this device.
    fn stats(&self) -> &IoStats;

    /// The simulated clock advanced by this device's accesses.
    fn clock(&self) -> &SimClock;

    /// Device capacity in pages.
    fn capacity_pages(&self) -> u64;
}

/// Page payloads split by durability: `stable` survives a power cut, `cache`
/// holds writes accepted but not yet flushed. `BTreeMap` (not `HashMap`) so
/// every iteration — power-cut fate draws, content digests — visits pages in
/// sorted order and stays deterministic across runs and across processes.
#[derive(Debug, Default)]
struct PageStore {
    stable: BTreeMap<PageNo, Box<[u8]>>,
    cache: BTreeMap<PageNo, Box<[u8]>>,
    cache_enabled: bool,
    /// Pages that ever accepted a write, kept across power cuts so
    /// [`SimDisk::pages_written`] still measures write-footprint, not
    /// post-crash survivorship.
    ever_written: HashSet<PageNo>,
}

impl PageStore {
    /// The content a read observes right now (the device always serves the
    /// freshest accepted write, cached or not), or `None` if never written.
    fn visible(&self, page: PageNo) -> Option<&[u8]> {
        self.cache
            .get(&page)
            .or_else(|| self.stable.get(&page))
            .map(|b| &**b)
    }
}

#[derive(Debug)]
struct FaultState {
    profile: FaultProfile,
    rng: StdRng,
}

/// One of the device's parallel service slots. An operation dispatched to a
/// slot starts when the slot's previous operation ends (or now, whichever is
/// later), so at most `queue_depth` latencies overlap.
#[derive(Debug, Clone, Default)]
struct IoSlot {
    /// When this slot's last operation ends on the simulated clock.
    sim_end_ns: u64,
    /// When it ends on the wall clock (latency emulation only).
    // backlint: allow(determinism) — wall-clock deadline drives sleep-based latency emulation only
    wall_end: Option<Instant>,
}

/// The submit-side scheduler: seek tracking, jitter draws and slot
/// assignment all happen under one lock, in submission order, which is what
/// keeps single-threaded schedules (and therefore the deterministic
/// simulator) bit-for-bit reproducible.
#[derive(Debug)]
struct IoSched {
    last_page: Option<PageNo>,
    slots: Vec<IoSlot>,
    jitter: Option<JitterState>,
}

/// An in-memory simulated disk with I/O accounting, a latency model, and a
/// fault plane for crash simulation (injected read/write faults, torn
/// writes, and a volatile write cache discarded at power cuts).
///
/// All methods take `&self`; the disk is internally synchronized and can be
/// shared between components through an [`Arc`].
#[derive(Debug)]
pub struct SimDisk {
    config: DeviceConfig,
    store: Mutex<PageStore>,
    sched: Mutex<IoSched>,
    /// Submitted-but-not-yet-waited operations (shared with completion
    /// tickets, which decrement it when the operation retires).
    in_flight: Arc<AtomicU64>,
    /// `Some(n)`: the next `n` writes succeed and every write after them
    /// fails with [`DeviceError::InjectedFault`] until the injection is
    /// cleared. `None`: no injection.
    write_fault_after: Mutex<Option<u64>>,
    /// The read-side twin of `write_fault_after`.
    read_fault_after: Mutex<Option<u64>>,
    /// Probabilistic per-op faults; `None` disables them entirely.
    faults: Mutex<Option<FaultState>>,
    /// When set, waiting on a completion parks the calling thread until the
    /// operation's modeled finish time, so wall-clock concurrency
    /// experiments see a device that really blocks — and pipelined
    /// submitters see their waits overlap.
    emulate_latency: AtomicBool,
    stats: Arc<IoStats>,
    clock: Arc<SimClock>,
}

impl SimDisk {
    /// Creates a new empty disk.
    pub fn new(config: DeviceConfig) -> Self {
        let slots = config.queue_depth.max(1);
        SimDisk {
            config,
            store: Mutex::new(PageStore::default()),
            sched: Mutex::new(IoSched {
                last_page: None,
                slots: vec![IoSlot::default(); slots],
                jitter: None,
            }),
            in_flight: Arc::new(AtomicU64::new(0)),
            write_fault_after: Mutex::new(None),
            read_fault_after: Mutex::new(None),
            faults: Mutex::new(None),
            emulate_latency: AtomicBool::new(false),
            stats: Arc::new(IoStats::new()),
            clock: Arc::new(SimClock::new()),
        }
    }

    /// Creates a disk wrapped in an [`Arc`], the common usage pattern.
    pub fn new_shared(config: DeviceConfig) -> Arc<Self> {
        Arc::new(Self::new(config))
    }

    /// Number of distinct pages that have ever been written (torn and
    /// power-cut-lost pages included: the counter measures write footprint,
    /// not what survived).
    pub fn pages_written(&self) -> u64 {
        self.store.lock().ever_written.len() as u64
    }

    /// Returns the configuration this disk was created with.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Arms write-fault injection: the next `successful` writes complete
    /// normally, then every subsequent write fails with
    /// [`DeviceError::InjectedFault`] until
    /// [`clear_write_fault`](Self::clear_write_fault) is called. Used by
    /// tests that exercise error-recovery paths (e.g. a consistency-point
    /// flush dying mid-run).
    pub fn fail_writes_after(&self, successful: u64) {
        *self.write_fault_after.lock() = Some(successful);
    }

    /// Disarms write-fault injection.
    pub fn clear_write_fault(&self) {
        *self.write_fault_after.lock() = None;
    }

    /// Arms read-fault injection: the next `successful` reads complete
    /// normally, then every subsequent read fails with
    /// [`DeviceError::InjectedFault`] until
    /// [`clear_read_fault`](Self::clear_read_fault) is called. Recovery
    /// tests walk this counter across an entire `open` to prove no read
    /// failure point can panic the engine or damage the durable state.
    pub fn fail_reads_after(&self, successful: u64) {
        *self.read_fault_after.lock() = Some(successful);
    }

    /// Disarms read-fault injection.
    pub fn clear_read_fault(&self) {
        *self.read_fault_after.lock() = None;
    }

    /// Installs (or with `None`, removes) a probabilistic fault profile.
    /// Replacing the profile reseeds the fault generator from
    /// `profile.seed`, so a schedule replays exactly.
    pub fn set_fault_profile(&self, profile: Option<FaultProfile>) {
        *self.faults.lock() = profile.map(|profile| FaultState {
            profile,
            rng: StdRng::seed_from_u64(profile.seed),
        });
    }

    /// Enables or disables the volatile write cache. While enabled, writes
    /// land in a cache that only [`flush`](Device::flush) commits to stable
    /// storage; a [`power_cut`](Self::power_cut) discards or tears whatever
    /// is still cached. Disabling the cache flushes it first, so no accepted
    /// write is silently dropped by the mode switch.
    pub fn set_write_cache(&self, enabled: bool) {
        let mut store = self.store.lock();
        if !enabled {
            let cache = std::mem::take(&mut store.cache);
            store.stable.extend(cache);
        }
        store.cache_enabled = enabled;
    }

    /// Number of pages currently sitting in the volatile write cache.
    pub fn cached_pages(&self) -> u64 {
        self.store.lock().cache.len() as u64
    }

    /// Simulates a power cut: every page still in the volatile write cache
    /// independently persists, tears (a sector-aligned prefix of the new
    /// content lands over the previous stable content), or vanishes,
    /// according to `profile`. Flushed pages are untouched. The cache is
    /// empty afterwards; the disk remains usable (the caller typically
    /// reopens the engine from it next).
    ///
    /// Fate draws iterate the cache in page order from a generator seeded by
    /// `profile.seed`, so the post-cut image is a pure function of (writes
    /// accepted, flush points, profile).
    pub fn power_cut(&self, profile: &PowerCutProfile) -> PowerCutReport {
        let mut store = self.store.lock();
        let cache = std::mem::take(&mut store.cache);
        let mut rng = StdRng::seed_from_u64(profile.seed);
        let mut report = PowerCutReport::default();
        for (page, data) in cache {
            let draw: f64 = rng.gen();
            if draw < profile.persist {
                store.stable.insert(page, data);
                report.persisted += 1;
            } else if draw < profile.persist + profile.torn {
                let keep = rng.gen_range(1..PAGE_SIZE / SECTOR_SIZE) * SECTOR_SIZE;
                let merged = tear(&data, keep, store.stable.get(&page).map(|b| &**b));
                store.stable.insert(page, merged);
                report.torn += 1;
            } else {
                report.lost += 1;
            }
        }
        report
    }

    /// Directly installs a torn write on stable storage: the first `keep`
    /// bytes of `data` (zero-padded to a full page) persist, the remainder
    /// of the page keeps its previous stable content (zeros if the page was
    /// never written). A test/simulation primitive — no faults, stats, or
    /// cache involved.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`] / [`DeviceError::BadBufferLength`]
    /// under the same conditions as [`write_page`](Device::write_page).
    pub fn tear_page(&self, page: PageNo, data: &[u8], keep: usize) -> Result<()> {
        self.check_range(page)?;
        if data.len() > PAGE_SIZE {
            return Err(DeviceError::BadBufferLength { got: data.len() });
        }
        let mut store = self.store.lock();
        store.ever_written.insert(page);
        if self.config.store_payloads {
            let full = full_page(data);
            let merged = tear(
                &full,
                keep.min(PAGE_SIZE),
                store.stable.get(&page).map(|b| &**b),
            );
            store.stable.insert(page, merged);
        } else {
            store.stable.insert(page, Box::from([] as [u8; 0]));
        }
        Ok(())
    }

    /// An order-independent digest of the complete device image (stable and
    /// cached content separately tagged), for determinism assertions: two
    /// runs of the same seeded scenario must produce equal digests.
    pub fn content_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let fold = |mut h: u64, bytes: &[u8]| -> u64 {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            h
        };
        let store = self.store.lock();
        let mut h = OFFSET;
        for (tag, map) in [(1u8, &store.stable), (2u8, &store.cache)] {
            for (page, data) in map.iter() {
                h = fold(h, &[tag]);
                h = fold(h, &page.to_le_bytes());
                h = fold(h, &(data.len() as u64).to_le_bytes());
                h = fold(h, data);
            }
        }
        h
    }

    /// Switches real-time latency emulation on or off. While enabled, every
    /// access blocks the calling thread for the latency the model charges
    /// (in addition to advancing the simulated clock), which is how the
    /// concurrency benchmarks measure wall-clock overlap: parallel
    /// maintenance workers and readers genuinely wait on "the device" and
    /// their waits genuinely overlap. Off by default so tests and
    /// simulated-time experiments run at memory speed.
    pub fn set_latency_emulation(&self, enabled: bool) {
        self.emulate_latency.store(enabled, Ordering::Relaxed);
    }

    /// Installs (or with `None`, removes) seeded per-operation latency
    /// jitter. Replacing the jitter reseeds its generator from
    /// `jitter.seed`, so a schedule replays exactly.
    pub fn set_latency_jitter(&self, jitter: Option<LatencyJitter>) {
        self.sched.lock().jitter = jitter.map(|jitter| JitterState {
            jitter,
            rng: StdRng::seed_from_u64(jitter.seed),
        });
    }

    /// Schedules one operation onto a service slot and returns its wall
    /// deadline (latency emulation only) plus the accounting ticket the
    /// returned completion retires it with.
    ///
    /// All device effects other than retiring — seek detection, jitter
    /// draws, counter updates — happen here, at submit, in submission order.
    /// "In flight" is purely a timing fiction on top of that: the ticket
    /// advances the simulated clock to the operation's finish time and drops
    /// it from the in-flight count, nothing else.
    // backlint: allow(determinism) — the returned deadline only delays completion delivery on the wall clock
    fn dispatch(&self, page: PageNo, bytes: usize) -> (Option<Instant>, Box<dyn FnOnce() + Send>) {
        let mut sched = self.sched.lock();
        let mut ns = self.config.latency.access_ns(sched.last_page, page, bytes);
        if self.config.latency.is_seek(sched.last_page, page) {
            self.stats.record_seek();
        }
        sched.last_page = Some(page);
        if let Some(state) = sched.jitter.as_mut() {
            if state.jitter.max_ns > 0 {
                ns += state
                    .rng
                    .gen_range(state.jitter.min_ns..=state.jitter.max_ns);
            }
        }
        // Earliest-free slot: the operation starts when the slot's previous
        // operation ends, so at most `queue_depth` service times overlap.
        let slot = sched
            .slots
            .iter_mut()
            .min_by_key(|slot| slot.sim_end_ns)
            .expect("at least one slot");
        let start_sim = self.clock.now_ns().max(slot.sim_end_ns);
        let end_sim = start_sim + ns;
        slot.sim_end_ns = end_sim;
        let wall_deadline = if ns > 0 && self.emulate_latency.load(Ordering::Relaxed) {
            // backlint: allow(determinism) — wall-clock read feeds latency emulation, not simulated state
            let now = Instant::now();
            let start = match slot.wall_end {
                Some(prev) if prev > now => prev,
                _ => now,
            };
            let end = start + Duration::from_nanos(ns);
            slot.wall_end = Some(end);
            Some(end)
        } else {
            None
        };
        drop(sched);
        self.stats.record_device_ns(ns);
        let now_in_flight = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.record_in_flight(now_in_flight);
        let overlapped = now_in_flight > 1;
        let clock = self.clock.clone();
        let stats = self.stats.clone();
        let in_flight = self.in_flight.clone();
        let ticket = Box::new(move || {
            clock.advance_to(end_sim);
            in_flight.fetch_sub(1, Ordering::Relaxed);
            if overlapped {
                stats.record_async_complete();
            }
        });
        (wall_deadline, ticket)
    }

    fn check_range(&self, page: PageNo) -> Result<()> {
        if page >= self.config.capacity_pages {
            Err(DeviceError::OutOfRange {
                page,
                capacity: self.config.capacity_pages,
            })
        } else {
            Ok(())
        }
    }
}

/// Zero-pads `data` to a full page.
fn full_page(data: &[u8]) -> Box<[u8]> {
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[..data.len()].copy_from_slice(data);
    buf.into_boxed_slice()
}

/// A torn page: the first `keep` bytes of `fresh`, the rest from the
/// previous stable content (zeros if none). Empty payloads (payload storage
/// disabled) stay empty — the content is conceptually all-zero either way.
fn tear(fresh: &[u8], keep: usize, previous: Option<&[u8]>) -> Box<[u8]> {
    if fresh.is_empty() {
        return Box::from([] as [u8; 0]);
    }
    let mut buf = vec![0u8; PAGE_SIZE];
    match previous {
        Some(prev) if !prev.is_empty() => buf[..prev.len()].copy_from_slice(prev),
        _ => {}
    }
    let keep = keep.min(fresh.len());
    buf[..keep].copy_from_slice(&fresh[..keep]);
    buf.into_boxed_slice()
}

impl Device for SimDisk {
    fn read_page(&self, page: PageNo) -> Result<Vec<u8>> {
        self.submit_read(page).wait_read()
    }

    fn write_page(&self, page: PageNo, data: &[u8]) -> Result<()> {
        self.submit_write(page, data).wait()
    }

    fn flush(&self) -> Result<()> {
        self.submit_flush().wait()
    }

    /// All device effects happen here at submit, in submission order —
    /// validation, fault draws, counters, payload snapshot, latency
    /// scheduling. The completion only carries the outcome (errors included)
    /// and the operation's finish time; waiting on it never touches device
    /// state. That split is what lets pipelined callers overlap operations
    /// without perturbing the deterministic schedules single-threaded
    /// callers (the simulator) rely on.
    fn submit_read(&self, page: PageNo) -> Completion {
        if let Err(e) = self.check_range(page) {
            return Completion::ready_data(Err(e));
        }
        let content = {
            let store = self.store.lock();
            match store.visible(page) {
                Some(data) if !data.is_empty() => Some(data.to_vec()),
                // Payload storage disabled: serve a zero page.
                Some(_) => None,
                // Never written — or written only to the volatile cache and
                // then lost at a power cut, which reads the same way.
                None => {
                    return Completion::ready_data(Err(DeviceError::UnwrittenPage { page }));
                }
            }
        };
        {
            let mut fault = self.read_fault_after.lock();
            if let Some(remaining) = fault.as_mut() {
                if *remaining == 0 {
                    return Completion::ready_data(Err(DeviceError::InjectedFault { page }));
                }
                *remaining -= 1;
            }
        }
        {
            let mut faults = self.faults.lock();
            if let Some(state) = faults.as_mut() {
                if state.profile.read_fault > 0.0 && state.rng.gen_bool(state.profile.read_fault) {
                    return Completion::ready_data(Err(DeviceError::InjectedFault { page }));
                }
            }
        }
        let (deadline, ticket) = self.dispatch(page, PAGE_SIZE);
        self.stats.record_read(PAGE_SIZE as u64);
        let payload = content.unwrap_or_else(|| vec![0u8; PAGE_SIZE]);
        Completion::scheduled(Ok(Some(payload)), deadline, ticket)
    }

    fn submit_write(&self, page: PageNo, data: &[u8]) -> Completion {
        if let Err(e) = self.check_range(page) {
            return Completion::ready(Err(e));
        }
        if data.len() > PAGE_SIZE {
            return Completion::ready(Err(DeviceError::BadBufferLength { got: data.len() }));
        }
        {
            let mut fault = self.write_fault_after.lock();
            if let Some(remaining) = fault.as_mut() {
                if *remaining == 0 {
                    return Completion::ready(Err(DeviceError::InjectedFault { page }));
                }
                *remaining -= 1;
            }
        }
        {
            let mut faults = self.faults.lock();
            if let Some(state) = faults.as_mut() {
                if state.profile.write_fault > 0.0 && state.rng.gen_bool(state.profile.write_fault)
                {
                    // A failed write may still have touched media: with
                    // probability `torn_write` a sector prefix lands before
                    // the error surfaces. Write-anywhere allocation makes
                    // this safe for the engine (the target page holds no
                    // live data), but recovery must tolerate the debris.
                    if state.profile.torn_write > 0.0
                        && state.rng.gen_bool(state.profile.torn_write)
                    {
                        let keep = state.rng.gen_range(1..PAGE_SIZE / SECTOR_SIZE) * SECTOR_SIZE;
                        drop(faults);
                        let mut store = self.store.lock();
                        store.ever_written.insert(page);
                        if self.config.store_payloads {
                            let full = full_page(data);
                            let previous = store.visible(page).map(<[u8]>::to_vec);
                            let merged = tear(&full, keep, previous.as_deref());
                            if store.cache_enabled {
                                store.cache.insert(page, merged);
                            } else {
                                store.stable.insert(page, merged);
                            }
                        }
                    }
                    return Completion::ready(Err(DeviceError::InjectedFault { page }));
                }
            }
        }
        let (deadline, ticket) = self.dispatch(page, PAGE_SIZE);
        self.stats.record_write(PAGE_SIZE as u64);
        let mut store = self.store.lock();
        store.ever_written.insert(page);
        let payload = if self.config.store_payloads {
            full_page(data)
        } else {
            Box::from([] as [u8; 0])
        };
        if store.cache_enabled {
            store.cache.insert(page, payload);
        } else {
            store.stable.insert(page, payload);
        }
        drop(store);
        Completion::scheduled(Ok(None), deadline, ticket)
    }

    /// The barrier commits the volatile cache at submit (covering exactly
    /// the writes submitted before it, which have all mutated the store by
    /// then) and completes when every service slot drains, so waiting on it
    /// observes all prior operations' latency.
    fn submit_flush(&self) -> Completion {
        let mut store = self.store.lock();
        let cache = std::mem::take(&mut store.cache);
        store.stable.extend(cache);
        drop(store);
        self.stats.record_flush();
        let sched = self.sched.lock();
        let end_sim = sched
            .slots
            .iter()
            .map(|slot| slot.sim_end_ns)
            .max()
            .unwrap_or(0);
        let deadline = if self.emulate_latency.load(Ordering::Relaxed) {
            sched.slots.iter().filter_map(|slot| slot.wall_end).max()
        } else {
            None
        };
        drop(sched);
        let clock = self.clock.clone();
        Completion::scheduled(
            Ok(None),
            deadline,
            Box::new(move || {
                clock.advance_to(end_sim);
            }),
        )
    }

    fn queue_depth(&self) -> usize {
        self.config.queue_depth.max(1)
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn capacity_pages(&self) -> u64 {
        self.config.capacity_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DeviceConfig::free_latency())
    }

    #[test]
    fn write_then_read_roundtrips() {
        let d = disk();
        let mut data = vec![0u8; PAGE_SIZE];
        data[0] = 0xAB;
        data[PAGE_SIZE - 1] = 0xCD;
        d.write_page(5, &data).unwrap();
        let back = d.read_page(5).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn short_writes_are_zero_padded() {
        let d = disk();
        d.write_page(1, &[1, 2, 3]).unwrap();
        let back = d.read_page(1).unwrap();
        assert_eq!(&back[..3], &[1, 2, 3]);
        assert!(back[3..].iter().all(|&b| b == 0));
        assert_eq!(back.len(), PAGE_SIZE);
    }

    #[test]
    fn reading_unwritten_page_errors() {
        let d = disk();
        assert_eq!(
            d.read_page(9).unwrap_err(),
            DeviceError::UnwrittenPage { page: 9 }
        );
    }

    #[test]
    fn oversized_write_errors() {
        let d = disk();
        let big = vec![0u8; PAGE_SIZE + 1];
        assert_eq!(
            d.write_page(0, &big).unwrap_err(),
            DeviceError::BadBufferLength { got: PAGE_SIZE + 1 }
        );
    }

    #[test]
    fn out_of_range_errors() {
        let d = SimDisk::new(DeviceConfig::free_latency().with_capacity_pages(10));
        assert!(matches!(
            d.write_page(10, &[0]),
            Err(DeviceError::OutOfRange { .. })
        ));
        assert!(matches!(
            d.read_page(11),
            Err(DeviceError::OutOfRange { .. })
        ));
    }

    #[test]
    fn counters_track_io() {
        let d = disk();
        d.write_page(0, &[0]).unwrap();
        d.write_page(1, &[0]).unwrap();
        d.read_page(0).unwrap();
        let s = d.stats().snapshot();
        assert_eq!(s.page_writes, 2);
        assert_eq!(s.page_reads, 1);
        assert_eq!(s.bytes_written, 2 * PAGE_SIZE as u64);
        assert_eq!(d.pages_written(), 2);
    }

    #[test]
    fn latency_advances_clock_and_counts_seeks() {
        let d = SimDisk::new(DeviceConfig::default());
        d.write_page(0, &[0]).unwrap();
        d.write_page(1, &[0]).unwrap(); // sequential: no seek
        d.write_page(1000, &[0]).unwrap(); // seek
        let s = d.stats().snapshot();
        assert_eq!(s.seeks, 2, "first access and the jump both seek");
        assert!(d.clock().now_ns() > 0);
        assert!(s.device_ns > 0);
    }

    #[test]
    fn payloads_can_be_disabled() {
        let d = SimDisk::new(DeviceConfig::free_latency().with_payloads(false));
        d.write_page(3, &[9, 9, 9]).unwrap();
        let back = d.read_page(3).unwrap();
        assert!(back.iter().all(|&b| b == 0));
        assert_eq!(d.stats().snapshot().page_writes, 1);
    }

    #[test]
    fn latency_emulation_blocks_the_calling_thread() {
        // 2 ms per random access is far above the scheduler's sleep
        // granularity, so the wall-clock difference is unambiguous.
        let model = LatencyModel {
            seek_ns: 2_000_000,
            ns_per_byte: 0.0,
            sequential_window: 1,
        };
        let d = SimDisk::new(DeviceConfig::free_latency().with_latency(model));
        let start = std::time::Instant::now();
        d.write_page(0, &[0]).unwrap();
        d.write_page(10_000, &[0]).unwrap();
        // Generous upper bound: two in-memory writes take microseconds, but
        // a loaded CI runner can preempt the thread mid-test.
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "without emulation the clock is simulated only"
        );
        d.set_latency_emulation(true);
        let start = std::time::Instant::now();
        d.write_page(20_000, &[0]).unwrap();
        d.write_page(40_000, &[0]).unwrap();
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(4),
            "two emulated random accesses must park for ~2 ms each"
        );
        d.set_latency_emulation(false);
    }

    #[test]
    fn overwrite_replaces_content() {
        let d = disk();
        d.write_page(2, &[1; 16]).unwrap();
        d.write_page(2, &[2; 16]).unwrap();
        assert_eq!(&d.read_page(2).unwrap()[..16], &[2; 16]);
        assert_eq!(d.pages_written(), 1);
    }

    #[test]
    fn read_fault_counter_fires_after_n_reads() {
        let d = disk();
        d.write_page(0, &[1]).unwrap();
        d.write_page(1, &[2]).unwrap();
        d.fail_reads_after(1);
        d.read_page(0).unwrap();
        assert_eq!(
            d.read_page(1).unwrap_err(),
            DeviceError::InjectedFault { page: 1 }
        );
        assert_eq!(
            d.read_page(0).unwrap_err(),
            DeviceError::InjectedFault { page: 0 }
        );
        d.clear_read_fault();
        assert_eq!(d.read_page(1).unwrap()[0], 2);
    }

    #[test]
    fn cached_writes_are_readable_but_lost_without_flush() {
        let d = disk();
        d.set_write_cache(true);
        d.write_page(7, &[7; 8]).unwrap();
        assert_eq!(&d.read_page(7).unwrap()[..8], &[7; 8]);
        assert_eq!(d.cached_pages(), 1);
        d.power_cut(&PowerCutProfile::lose_all(0));
        assert_eq!(d.cached_pages(), 0);
        assert!(matches!(
            d.read_page(7),
            Err(DeviceError::UnwrittenPage { .. })
        ));
        // The write still counts toward the footprint.
        assert_eq!(d.pages_written(), 1);
    }

    #[test]
    fn flush_commits_cache_across_power_cut() {
        let d = disk();
        d.set_write_cache(true);
        d.write_page(3, &[3; 4]).unwrap();
        d.flush().unwrap();
        d.write_page(4, &[4; 4]).unwrap();
        d.power_cut(&PowerCutProfile::lose_all(0));
        assert_eq!(&d.read_page(3).unwrap()[..4], &[3; 4]);
        assert!(d.read_page(4).is_err());
        assert_eq!(d.stats().snapshot().flushes, 1);
    }

    #[test]
    fn power_cut_loses_only_the_cached_version_of_an_overwritten_page() {
        let d = disk();
        d.set_write_cache(true);
        d.write_page(9, &[1; 4]).unwrap();
        d.flush().unwrap();
        d.write_page(9, &[2; 4]).unwrap();
        assert_eq!(&d.read_page(9).unwrap()[..4], &[2; 4], "cache is freshest");
        d.power_cut(&PowerCutProfile::lose_all(0));
        assert_eq!(
            &d.read_page(9).unwrap()[..4],
            &[1; 4],
            "page reverts to its last flushed content"
        );
    }

    #[test]
    fn torn_power_cut_persists_a_sector_prefix() {
        let d = disk();
        d.write_page(5, &[0xAA; PAGE_SIZE]).unwrap();
        d.flush().unwrap();
        d.set_write_cache(true);
        d.write_page(5, &[0xBB; PAGE_SIZE]).unwrap();
        let report = d.power_cut(&PowerCutProfile {
            seed: 1,
            persist: 0.0,
            torn: 1.0,
        });
        assert_eq!(
            report,
            PowerCutReport {
                persisted: 0,
                torn: 1,
                lost: 0
            }
        );
        let back = d.read_page(5).unwrap();
        let boundary = back.iter().position(|&b| b == 0xAA).unwrap();
        assert_eq!(boundary % SECTOR_SIZE, 0, "tear is sector-aligned");
        assert!(boundary > 0, "at least one sector of the new write landed");
        assert!(back[..boundary].iter().all(|&b| b == 0xBB));
        assert!(back[boundary..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn power_cut_fates_are_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let d = disk();
            d.set_write_cache(true);
            for page in 0..64u64 {
                d.write_page(page, &[page as u8; 32]).unwrap();
            }
            let report = d.power_cut(&PowerCutProfile {
                seed,
                persist: 0.4,
                torn: 0.3,
            });
            (report, d.content_digest())
        };
        assert_eq!(run(11), run(11));
        let (report, _) = run(11);
        assert_eq!(report.total(), 64);
        assert!(report.persisted > 0 && report.torn > 0 && report.lost > 0);
        assert_ne!(run(11).1, run(12).1, "different seeds cut differently");
    }

    #[test]
    fn tear_page_merges_prefix_over_previous_stable_content() {
        let d = disk();
        d.write_page(2, &[0x11; PAGE_SIZE]).unwrap();
        d.tear_page(2, &[0x22; PAGE_SIZE], 100).unwrap();
        let back = d.read_page(2).unwrap();
        assert!(back[..100].iter().all(|&b| b == 0x22));
        assert!(back[100..].iter().all(|&b| b == 0x11));
        // Tearing an unwritten page leaves zeros past the prefix.
        d.tear_page(40, &[0x33; 64], 16).unwrap();
        let back = d.read_page(40).unwrap();
        assert!(back[..16].iter().all(|&b| b == 0x33));
        assert!(back[16..].iter().all(|&b| b == 0));
    }

    #[test]
    fn fault_profile_schedule_replays_from_its_seed() {
        let run = || {
            let d = disk();
            d.set_fault_profile(Some(FaultProfile {
                seed: 99,
                read_fault: 0.1,
                write_fault: 0.2,
                torn_write: 0.5,
            }));
            let mut writes = Vec::new();
            let mut reads = Vec::new();
            for i in 0..200u64 {
                writes.push(d.write_page(i % 32, &[i as u8; 16]).is_ok());
                reads.push(d.read_page(i % 32).map(|p| p[0]).ok());
            }
            (writes, reads, d.content_digest(), d.stats().snapshot())
        };
        let (a_w, a_r, a_digest, a_stats) = run();
        let (b_w, b_r, b_digest, b_stats) = run();
        assert_eq!(a_w, b_w);
        assert_eq!(a_r, b_r);
        assert_eq!(a_digest, b_digest);
        assert_eq!(a_stats, b_stats);
        assert!(a_w.iter().any(|&ok| !ok), "write faults fired");
        assert!(a_r.iter().any(Option::is_none), "read faults fired");
    }

    #[test]
    fn pipelined_submits_overlap_simulated_time() {
        // Four random 4 ms accesses: serialized they cost ~16 ms of
        // simulated time, pipelined at depth 4 they cost ~4 ms.
        let submit_four = |depth: usize| {
            let d = SimDisk::new(DeviceConfig::default().with_queue_depth(depth));
            let completions: Vec<_> = (0..4).map(|i| d.submit_write(i * 100_000, &[1])).collect();
            for c in &completions {
                c.wait().unwrap();
            }
            (d.clock().now_ns(), d.stats().snapshot())
        };
        let (serial_ns, serial_stats) = submit_four(1);
        let (deep_ns, deep_stats) = submit_four(4);
        assert_eq!(
            serial_stats.device_ns, deep_stats.device_ns,
            "busy time is depth-independent"
        );
        assert!(
            deep_ns * 3 < serial_ns,
            "depth 4 must overlap: {deep_ns} ns vs {serial_ns} ns at depth 1"
        );
        assert_eq!(deep_stats.max_in_flight, 4);
        assert!(deep_stats.completed_async_ops >= 3);
        assert_eq!(
            serial_stats.max_in_flight, 4,
            "depth 1 still queues submits"
        );
        assert_eq!(serial_stats.page_writes, deep_stats.page_writes);
    }

    #[test]
    fn sync_shims_never_report_overlap() {
        let d = SimDisk::new(DeviceConfig::default());
        for i in 0..8u64 {
            d.write_page(i * 50_000, &[1]).unwrap();
        }
        d.read_page(0).unwrap();
        let s = d.stats().snapshot();
        assert_eq!(s.max_in_flight, 1, "submit-then-wait keeps depth at 1");
        assert_eq!(s.completed_async_ops, 0);
    }

    #[test]
    fn emulated_latency_overlaps_across_the_queue() {
        // 2 ms per random access, depth 8: eight pipelined accesses must
        // finish in well under the 16 ms a serial device would take.
        let model = LatencyModel {
            seek_ns: 2_000_000,
            ns_per_byte: 0.0,
            sequential_window: 1,
        };
        let d = SimDisk::new(
            DeviceConfig::free_latency()
                .with_latency(model)
                .with_queue_depth(8),
        );
        d.set_latency_emulation(true);
        let start = std::time::Instant::now();
        let completions: Vec<_> = (0..8).map(|i| d.submit_write(i * 100_000, &[1])).collect();
        for c in &completions {
            c.wait().unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= std::time::Duration::from_millis(2),
            "the slowest operation's latency is still paid"
        );
        assert!(
            elapsed < std::time::Duration::from_millis(12),
            "waits overlap: {elapsed:?} for 8 × 2 ms at depth 8"
        );
    }

    #[test]
    fn submit_error_is_delivered_at_the_completion() {
        let d = disk();
        d.fail_writes_after(1);
        let ok = d.submit_write(0, &[1]);
        let bad = d.submit_write(1, &[2]);
        // Both submits returned handles; only the wait reveals the fault.
        ok.wait().unwrap();
        assert_eq!(
            bad.wait().unwrap_err(),
            DeviceError::InjectedFault { page: 1 }
        );
        d.clear_write_fault();
        // The failed write never touched media or counters.
        assert!(matches!(
            d.read_page(1),
            Err(DeviceError::UnwrittenPage { .. })
        ));
        assert_eq!(d.stats().snapshot().page_writes, 1);
    }

    #[test]
    fn abandoned_completions_retire_their_accounting() {
        let d = SimDisk::new(DeviceConfig::default().with_queue_depth(4));
        let completions: Vec<_> = (0..4).map(|i| d.submit_write(i * 100_000, &[1])).collect();
        drop(completions); // an aborted pipeline waits on nothing
        assert_eq!(d.in_flight.load(Ordering::Relaxed), 0);
        assert!(d.clock().now_ns() > 0, "dropped tickets still advance time");
        d.write_page(0, &[2]).unwrap();
        assert_eq!(d.read_page(0).unwrap()[0], 2);
    }

    #[test]
    fn latency_jitter_replays_from_its_seed() {
        let run = |seed: u64| {
            let d = disk();
            d.set_latency_jitter(Some(LatencyJitter {
                seed,
                min_ns: 1_000,
                max_ns: 50_000,
            }));
            for i in 0..64u64 {
                d.write_page(i * 13 % 40, &[i as u8]).unwrap();
            }
            (d.stats().snapshot(), d.clock().now_ns())
        };
        assert_eq!(run(5), run(5), "same seed, same schedule");
        let ((a_stats, _), (b_stats, _)) = (run(5), run(6));
        assert_ne!(
            a_stats.device_ns, b_stats.device_ns,
            "different seeds draw different schedules"
        );
        assert!(
            a_stats.device_ns >= 64_000,
            "jitter charges at least min_ns"
        );
    }

    #[test]
    fn flush_completion_drains_the_queue() {
        let d = SimDisk::new(DeviceConfig::default().with_queue_depth(4));
        d.set_write_cache(true);
        let writes: Vec<_> = (0..4).map(|i| d.submit_write(i * 100_000, &[1])).collect();
        let barrier = d.submit_flush();
        assert_eq!(d.cached_pages(), 0, "barrier covers prior submits");
        barrier.wait().unwrap();
        let drained = d.clock().now_ns();
        assert!(drained > 0, "barrier waits out every service slot");
        for w in &writes {
            w.wait().unwrap();
        }
        assert_eq!(
            d.clock().now_ns(),
            drained,
            "writes ended under the barrier"
        );
    }

    #[test]
    fn disabling_write_cache_flushes_it() {
        let d = disk();
        d.set_write_cache(true);
        d.write_page(1, &[1]).unwrap();
        d.set_write_cache(false);
        assert_eq!(d.cached_pages(), 0);
        d.power_cut(&PowerCutProfile::lose_all(0));
        assert_eq!(d.read_page(1).unwrap()[0], 1);
    }
}
