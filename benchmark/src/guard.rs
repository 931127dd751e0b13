//! The interference guard: keeps timings taken while a neighbour of this
//! virtual machine slows the engine down out of the statistics.
//!
//! On the 2-vCPU sandbox identical runs agree to ±2 % for minutes on end;
//! then, in bursts of a fraction of a second up to minutes, the engine runs
//! 1.3 to 2 times slower. Two kinds of burst were seen: one in which a pure
//! ALU loop slows down by as much, and one in which the ALU loop keeps its
//! pace but a pointer chase through 64 KiB of warm memory does not (a
//! hyperthread sibling after the core's ports, or after its L1/L2 caches). No
//! timing taken inside a burst is worth reporting, so a measuring thread
//! times both kernels (a *reading*, ~0.2 ms) between its timed sections:
//!
//! * the sections between two readings count only if both readings were at
//!   the machine's quiet pace ([`Guard::check`] returns that verdict);
//! * after a disturbed reading the thread waits, within a time budget, until
//!   the readings are quiet again, so a burst costs time, not samples.
//!
//! A kernel's quiet pace is the lowest median any [`PACE_GROUP`] consecutive
//! readings have had in this process, those taken while waiting left out (a
//! group then spans at least 0.6 s, which no lucky moment lasts).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A reading within this factor of the quiet pace (both kernels) is quiet.
const QUIET_BAND: f64 = 1.08;
/// The kernels: a dependent xorshift chain, and a pointer chase through a
/// table the size of an L1 + a slice of L2 that the run before it warmed.
const KERNELS: usize = 2;
/// Xorshift steps per run of the ALU kernel (~40 µs).
const ALU_STEPS: u32 = 20_000;
/// Entries (`u32`) of the chase table: 64 KiB.
const CHASE_ENTRIES: usize = 16 << 10;
/// Steps per run of the chase kernel (~20 µs when quiet).
const CHASE_STEPS: u32 = 8_192;
/// Runs per kernel and reading; the fastest counts, which drops a run that
/// a timer tick landed in and the chase's cold first run.
const RUNS_PER_READING: usize = 3;
/// Consecutive readings whose median counts towards the quiet pace.
const PACE_GROUP: usize = 64;
/// Consecutive quiet readings, [`WAIT_PAUSE`] apart, that end a wait.
const QUIET_STREAK: usize = 5;
/// Pause between two readings while waiting.
const WAIT_PAUSE: Duration = Duration::from_millis(1);
/// Least time between two readings [`Guard::check_if_due`] takes.
const DUE_EVERY: Duration = Duration::from_millis(10);
/// Time one process may spend waiting for quiet, all threads and runs
/// together.
const WAIT_BUDGET: Duration = Duration::from_secs(20);

/// One timing of each kernel, ns.
type Reading = [u64; KERNELS];

/// Each kernel's quiet pace, ns per reading (see the module docs).
static QUIET_NS: [AtomicU64; KERNELS] = [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)];
/// Time spent waiting for quiet so far, ns.
static WAITED_NS: AtomicU64 = AtomicU64::new(0);

fn xorshift(mut v: u64) -> u64 {
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
    v
}

fn fastest_of_runs(mut run: impl FnMut()) -> u64 {
    (0..RUNS_PER_READING)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

fn is_quiet(reading: &Reading) -> bool {
    // Relaxed: the pace is a statistic; nothing is published through it.
    (0..KERNELS)
        .all(|k| reading[k] as f64 <= QUIET_NS[k].load(Ordering::Relaxed) as f64 * QUIET_BAND)
}

/// The kernels' quiet pace so far, µs per reading.
pub fn quiet_pace_us() -> [f64; KERNELS] {
    [0, 1].map(|k| QUIET_NS[k].load(Ordering::Relaxed) as f64 / 1e3)
}

/// What a guard saw over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardSummary {
    /// Readings taken.
    pub readings: u64,
    /// Those of them that were not quiet.
    pub disturbed: u64,
    /// Time spent waiting for quiet, ns.
    pub waited_ns: u64,
    /// Time spent in checks, waits included, ns.
    pub busy_ns: u64,
}

#[derive(Debug)]
struct State {
    x: u64,
    /// One cycle through all of `0..CHASE_ENTRIES`.
    chase: Vec<u32>,
    /// The last [`PACE_GROUP`] readings, oldest first.
    recent: Vec<Reading>,
    last_at: Instant,
    last_quiet: bool,
    summary: GuardSummary,
}

impl State {
    /// Times both kernels.
    fn reading(&mut self) -> Reading {
        let alu = fastest_of_runs(|| {
            for _ in 0..ALU_STEPS {
                self.x = black_box(xorshift(self.x));
            }
        });
        let chase = fastest_of_runs(|| {
            let mut at = 0;
            for _ in 0..CHASE_STEPS {
                at = self.chase[at as usize];
            }
            black_box(at);
        });
        [alu, chase]
    }

    /// A reading that counts: towards the summary and the quiet pace.
    fn counted_reading(&mut self) -> Reading {
        let reading = self.reading();
        self.summary.readings += 1;
        if self.recent.len() == PACE_GROUP {
            self.recent.remove(0);
        }
        self.recent.push(reading);
        if self.recent.len() == PACE_GROUP {
            for (k, quiet) in QUIET_NS.iter().enumerate() {
                let mut column: Vec<u64> = self.recent.iter().map(|r| r[k]).collect();
                column.sort_unstable();
                quiet.fetch_min(column[PACE_GROUP / 2], Ordering::Relaxed);
            }
        }
        reading
    }
}

/// See the module docs. One per measuring thread: a reading says how the
/// core it ran on is doing.
#[derive(Debug)]
pub struct Guard {
    state: Mutex<State>,
    waiting: AtomicBool,
}

impl Guard {
    /// Creates a guard and takes [`PACE_GROUP`] readings, so that there is a
    /// quiet pace before the first check.
    pub fn new() -> Self {
        // Sattolo's shuffle: a permutation that is one cycle.
        let mut x = 0x2545_F491_4F6C_DD1D;
        let mut chase: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        for i in (1..CHASE_ENTRIES).rev() {
            x = xorshift(x);
            chase.swap(i, (x % i as u64) as usize);
        }
        let mut state = State {
            x,
            chase,
            recent: Vec::with_capacity(PACE_GROUP),
            last_at: Instant::now(),
            last_quiet: false,
            summary: GuardSummary::default(),
        };
        for _ in 0..PACE_GROUP {
            state.counted_reading();
        }
        Guard {
            state: Mutex::new(state),
            waiting: AtomicBool::new(false),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a benchmark thread panicked holding the guard")
    }

    /// Takes a reading and says whether the sections timed since the reading
    /// before it were undisturbed: both readings quiet. After a disturbed
    /// reading, waits until the machine is quiet again or the process's wait
    /// budget is used up.
    pub fn check(&self) -> bool {
        let mut s = self.state();
        let entered = Instant::now();
        let quiet_before = s.last_quiet;
        let mut quiet_now = is_quiet(&s.counted_reading());
        let undisturbed = quiet_before && quiet_now;
        if !quiet_now {
            s.summary.disturbed += 1;
            // SeqCst: whoever sees the flag cleared also sees what was timed
            // before the wait.
            self.waiting.store(true, Ordering::SeqCst);
            let start = Instant::now();
            let mut streak = 0;
            while streak < QUIET_STREAK
                && WAITED_NS.load(Ordering::Relaxed) < WAIT_BUDGET.as_nanos() as u64
            {
                std::thread::sleep(WAIT_PAUSE);
                WAITED_NS.fetch_add(WAIT_PAUSE.as_nanos() as u64, Ordering::Relaxed);
                streak = if is_quiet(&s.reading()) {
                    streak + 1
                } else {
                    0
                };
            }
            quiet_now = streak == QUIET_STREAK;
            s.summary.waited_ns += start.elapsed().as_nanos() as u64;
            self.waiting.store(false, Ordering::SeqCst);
        }
        s.last_quiet = quiet_now;
        s.last_at = Instant::now();
        s.summary.busy_ns += entered.elapsed().as_nanos() as u64;
        undisturbed
    }

    /// [`check`](Self::check), unless the last reading was taken a moment
    /// ago.
    pub fn check_if_due(&self) -> Option<bool> {
        let due = self.state().last_at.elapsed() >= DUE_EVERY;
        due.then(|| self.check())
    }

    /// Whether the guard's thread is waiting for quiet right now.
    pub fn is_waiting(&self) -> bool {
        self.waiting.load(Ordering::SeqCst)
    }

    /// What the guard has seen so far.
    pub fn summary(&self) -> GuardSummary {
        self.state().summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_verdict_needs_a_quiet_reading_on_both_sides() {
        let guard = Guard::new();
        for quiet in &QUIET_NS {
            let quiet = quiet.load(Ordering::Relaxed);
            assert!(quiet > 0 && quiet < u64::MAX);
        }
        // Nothing vouches for what came before the first check.
        assert!(!guard.check());
        assert_eq!(guard.check_if_due(), None, "a reading was just taken");
        std::thread::sleep(DUE_EVERY);
        assert!(guard.check_if_due().is_some());
        // Pretend the last reading was disturbed.
        guard.state().last_quiet = false;
        assert!(!guard.check());
        let summary = guard.summary();
        assert!(summary.readings >= PACE_GROUP as u64 + 3);
        assert!(summary.disturbed <= summary.readings);
        assert!(!guard.is_waiting());
    }

    #[test]
    fn the_kernels_do_their_work() {
        let guard = Guard::new();
        let mut s = guard.state();
        // The chase visits every entry once per cycle.
        let mut seen = vec![false; CHASE_ENTRIES];
        let mut at = 0;
        for _ in 0..CHASE_ENTRIES {
            assert!(!std::mem::replace(&mut seen[at as usize], true));
            at = s.chase[at as usize];
        }
        assert_eq!(at, 0);
        // Neither loop was optimised away.
        let [alu, chase] = s.reading();
        assert!(alu > 5_000, "{alu} ns for {ALU_STEPS} dependent steps");
        assert!(
            chase > 2_000,
            "{chase} ns for {CHASE_STEPS} dependent loads"
        );
    }
}
