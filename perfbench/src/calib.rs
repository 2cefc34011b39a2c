//! Host speed calibration.
//!
//! The benchmark's hosts are shared virtual machines. Between runs taken
//! minutes apart the same work can take a third longer or more, for two
//! reasons. The host withholds this machine's CPUs while it runs other
//! tenants on them (steal, which `/proc/stat` counts), and other tenants
//! on sibling hyperthreads and shared caches slow every instruction
//! (which no counter shows). A whole run is slow, so a median over its
//! samples does not remove either.
//!
//! So a run calibrates before its first sample and after every sample: a
//! fixed piece of work (an event-queue and count-table loop, the
//! program's own kind of work) run once on each of the machine's cores at
//! the same time, a few times over, timed in CPU time. The run's speed
//! factor is the reference CPU time over the mean of the run's: how much
//! faster per instruction the host the benchmark was defined on was. The
//! mean, not the median: a run adds up its slow stretches, and the
//! calibrations that land in bursts of contention stand for the share of
//! the run those bursts took.
//!
//! A compute time is reported at the reference host's speed: multiplied
//! by the factor and by the share of the sample's span the host did not
//! withhold, `1 - steal` (see [`compute_scale`]). CPU time is only
//! multiplied by the factor, since the host's withheld time is not
//! charged to the process. The correction is linear, so where the
//! program slows down more than linearly under steal (threads that wait
//! at a barrier for a preempted one), that excess stays in the figures.
//! The raw figures and the factor stay in the stderr log.
//!
//! The calibration work is the benchmark's own code, so no change to the
//! program can move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Barrier;

/// Calibration CPU time per core on the reference host, ms: the mean over
/// the calibrations of benchmark runs on the 2-core host the benchmark
/// was defined on, so that figures there read about as measured.
pub const REFERENCE_CPU_MS: f64 = 29.5;

/// Event-queue operations per core in one calibration.
const STEPS: u64 = 600_000;
/// Timings per calibration.
const ROUNDS: usize = 3;
/// Events kept pending, as in a busy simulation window.
const PENDING: usize = 4096;
/// Distinct keys of the count table: a few MB, so the work reaches past
/// the private caches as the program's world tables do.
const KEYS: u64 = 1 << 18;

/// Every calibration of one run: CPU time of one core's share of the
/// work, ms, per timing.
#[derive(Debug, Default)]
pub struct Calibrations(Vec<f64>);

impl Calibrations {
    /// Calibrate now: [`ROUNDS`] timings of [`once`].
    pub fn take(&mut self) {
        self.0.extend((0..ROUNDS).map(|_| once()));
    }

    /// The run's speed factor: the reference CPU time over the mean of
    /// the run's.
    pub fn speed(&self) -> f64 {
        REFERENCE_CPU_MS / (self.0.iter().sum::<f64>() / self.0.len() as f64)
    }
}

/// What a compute time measured over a span with host steal share
/// `steal` is multiplied by to give it at the reference host's speed,
/// on a run with speed factor `speed`.
pub fn compute_scale(speed: f64, steal: f64) -> f64 {
    speed * (1.0 - steal)
}

/// The memory one core's work uses, allocated and touched before the
/// clock starts: page faults and the allocator's state would otherwise
/// make the first calibration of a process slower than the later ones.
pub struct Scratch {
    queue: BinaryHeap<Reverse<u64>>,
    counts: Vec<u32>,
}

impl Scratch {
    pub fn new() -> Scratch {
        let mut queue = BinaryHeap::with_capacity(PENDING + 1);
        for t in 0..=PENDING as u64 {
            queue.push(Reverse(t));
        }
        Scratch {
            queue,
            counts: vec![1; KEYS as usize],
        }
    }
}

/// The fixed work of one core: a priority queue of pending events with a
/// table of per-key counts, driven by a fixed generator. Returns a
/// checksum, the same on every host.
pub fn work(scratch: &mut Scratch) -> u64 {
    let Scratch { queue, counts } = scratch;
    queue.clear();
    counts.fill(0);
    let mut state: u64 = 0x5eed_ca11_b4a7_e000;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut sum = 0u64;
    for _ in 0..STEPS {
        let x = next();
        queue.push(Reverse(x >> 20));
        if queue.len() > PENDING {
            let Reverse(t) = queue.pop().expect("a pending event");
            let c = &mut counts[(t % KEYS) as usize];
            *c += 1;
            sum = sum.wrapping_add(t ^ u64::from(*c));
        }
    }
    sum
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut [i64; 2]) -> i32;
}

/// CPU time of the calling thread so far, ns.
fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut now = [0i64; 2];
    // SAFETY: `now` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); clock_gettime writes only within it.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) } != 0 {
        return 0;
    }
    now[0] as u64 * 1_000_000_000 + now[1] as u64
}

/// Run [`work`] once on every core at the same time; the CPU time of one
/// core's share, mean over cores, ms.
pub fn once() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ready = Barrier::new(cores);
    let cpu_ns: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cores)
            .map(|_| {
                s.spawn(|| {
                    let mut scratch = Scratch::new();
                    ready.wait();
                    let t = thread_cpu_ns();
                    std::hint::black_box(work(&mut scratch));
                    thread_cpu_ns().saturating_sub(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .sum()
    });
    cpu_ns as f64 / cores as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_the_same_on_every_call() {
        let mut scratch = Scratch::new();
        let first = work(&mut scratch);
        assert_eq!(first, work(&mut scratch));
        assert_eq!(first, work(&mut Scratch::new()));
    }

    #[test]
    fn a_slower_host_gets_a_smaller_factor() {
        let same = Calibrations(vec![REFERENCE_CPU_MS; 3]).speed();
        assert_eq!(same, 1.0);
        let slow = Calibrations(vec![REFERENCE_CPU_MS * 1.25; 3]).speed();
        assert!((slow - 0.8).abs() < 1e-12);
    }

    #[test]
    fn a_burst_counts_by_its_share_of_the_calibrations() {
        let mut run = vec![REFERENCE_CPU_MS; 3];
        run.push(REFERENCE_CPU_MS * 3.0);
        assert!((Calibrations(run).speed() - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn withheld_time_is_taken_out_linearly() {
        assert_eq!(compute_scale(1.0, 0.0), 1.0);
        assert_eq!(compute_scale(0.8, 0.0), 0.8);
        assert_eq!(compute_scale(1.0, 0.25), 0.75);
        assert_eq!(compute_scale(0.8, 0.5), 0.4);
    }

    #[test]
    fn a_calibration_takes_time() {
        let mut run = Calibrations::default();
        run.take();
        assert_eq!(run.0.len(), ROUNDS);
        assert!(run.0.iter().all(|&ms| ms > 0.0));
        assert!(run.speed() > 0.0);
    }
}
