//! Host-speed calibration.
//!
//! On a shared host the same binary on the same input runs up to 40%
//! slower for minutes at a time, and 15% slower or faster from one
//! tenth of a second to the next, with almost no CPU steal reported:
//! neighbours slow the cores, caches and memory the benchmark runs on. A
//! fixed piece of reference work that does not call the simulator, run
//! for about 30 ms between the slices of every timed pass, measures that
//! host speed, and each slice's host seconds are scaled by the speed over
//! it. A change to the simulator moves the scaled rate as it moves the raw
//! one; a change of host speed moves both the slice and the reference work
//! and cancels out.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::run::THREADS;

/// Host seconds the reference work takes on the reference host, a
/// 2-vCPU Intel Xeon virtual machine at 2.0 GHz. Only sets the unit of the
/// scaled figures: on that host they read like unscaled ones.
pub const REFERENCE_S: f64 = 0.03;

/// Words in each thread's random-access buffer (4 MiB, past the private
/// caches, like the simulator's working set).
const WORDS: usize = 1 << 19;

/// Random read-modify-writes into the buffer per round.
const TOUCHES: usize = 1 << 14;

/// Ordered-map inserts and lookups per round.
const MAP_OPS: usize = 1 << 11;

/// Elements sorted per round.
const SORT_LEN: usize = 1 << 11;

/// Rounds per thread in one measurement.
const ROUNDS: usize = 50;

/// Host speed over a run, relative to the reference host: below 1 when
/// this host is slower.
#[derive(Debug)]
pub struct HostSpeed {
    /// One random-access buffer per worker thread, allocated once and
    /// reused so a measurement times no page faults.
    buffers: Vec<Vec<u64>>,
    /// The speed measured at the end of the last interval.
    last: f64,
    intervals: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    /// Allocates the buffers, warms them with one run of the reference
    /// work, and measures the speed the first interval starts at.
    pub fn new() -> HostSpeed {
        let mut host = HostSpeed {
            buffers: (0..THREADS)
                .map(|t| (0..WORDS as u64).map(|i| i ^ t as u64).collect())
                .collect(),
            last: 0.0,
            intervals: Vec::new(),
        };
        host.measure();
        host.last = host.measure();
        host
    }

    /// Ends the interval that began at the previous call (or at
    /// [`HostSpeed::new`]) and returns its speed: the mean of the speeds
    /// measured at its two ends.
    pub fn interval(&mut self) -> f64 {
        let now = self.measure();
        let speed = (self.last + now) / 2.0;
        self.last = now;
        self.intervals.push(speed);
        speed
    }

    /// The speed of every interval ended so far.
    pub fn intervals(&self) -> &[f64] {
        &self.intervals
    }

    /// Runs the reference work on [`THREADS`] threads at once (the
    /// benchmark's own worker count) and returns the speed: [`REFERENCE_S`]
    /// over the mean of the host seconds each thread took.
    fn measure(&mut self) -> f64 {
        let secs: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .buffers
                .iter_mut()
                .enumerate()
                .map(|(t, buf)| {
                    s.spawn(move || {
                        let start = Instant::now();
                        std::hint::black_box(reference_work(buf, t as u64));
                        start.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference work does not panic"))
                .collect()
        });
        REFERENCE_S * secs.len() as f64 / secs.iter().sum::<f64>()
    }
}

/// A mix of the host work the simulator does: random accesses into a
/// buffer larger than the private caches, ordered-map traffic with
/// allocation, and a branchy sort.
fn reference_work(buf: &mut [u64], seed: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        for _ in 0..TOUCHES {
            let i = (next() as usize) & (WORDS - 1);
            buf[i] = buf[i].wrapping_mul(31).wrapping_add(acc);
            acc = acc.wrapping_add(buf[i]);
        }
        let mut map = BTreeMap::new();
        for _ in 0..MAP_OPS {
            let k = next() & 0x3FF;
            *map.entry(k).or_insert(0u64) += 1;
            acc = acc.wrapping_add(map.get(&(k ^ 1)).copied().unwrap_or(0));
        }
        let mut v: Vec<u64> = (0..SORT_LEN).map(|_| next() >> 40).collect();
        v.sort_unstable();
        acc = acc.wrapping_add(v[SORT_LEN / 2]);
    }
    acc
}
