//! A fixed calibration kernel that reads the host's current speed.
//!
//! The host this benchmark runs on is a share of a machine whose other
//! tenants slow it down by up to a factor of two, in phases that last
//! from seconds to minutes (see README.md, *Noise*). The probe runs the
//! kind of code the simulator is made of — a small set-associative cache
//! model with LRU replacement, then an unstable sort of a small array,
//! both branchy and cache-resident — so a phase slows it about as much
//! as it slows the simulator. It runs none of the simulator's code, and
//! does the same work on every sample, so a change to the simulator never
//! changes what it measures. Dividing a host time by the probe's time
//! taken around it cancels the phase.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The host time of one probe sample that scaled times are scaled to:
/// about the median sample on the 2-vCPU virtual machine the benchmark
/// was written on, in its faster spells.
pub const REFERENCE_NS: f64 = 50_000.0;
/// Samples on each side of a stretch of host time whose median scales
/// it (see [`Probe::scaled_s`]).
pub const WINDOW: usize = 3;

/// Sets of the probe's cache model (4 ways each).
const SETS: usize = 1024;
/// Accesses per sample to the probe's cache model.
const ACCESSES: usize = 3000;
/// Elements sorted per sample.
const SORTED: usize = 2048;

/// The probe's state and the samples it took. A default probe holds
/// nothing until its first sample.
#[derive(Default)]
pub struct Probe {
    tags: Vec<u64>,
    unsorted: Vec<u32>,
    sorted: Vec<u32>,
    /// Host time of each sample, in order.
    pub samples: Vec<u64>,
    /// When each sample started.
    taken: Vec<Instant>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    /// Runs the kernel once from the same starting state, records its host
    /// time as a sample, and returns it.
    pub fn sample(&mut self) -> u64 {
        if self.unsorted.is_empty() {
            let mut x = 0x9e37_79b9_7f4a_7c15_u64;
            self.unsorted = (0..SORTED).map(|_| xorshift(&mut x) as u32).collect();
            self.sorted = vec![0; SORTED];
            self.tags = vec![0; SETS * 4];
        }
        let start = Instant::now();
        self.taken.push(start);
        self.tags.fill(0);
        let (mut x, mut next, mut hits) = (12_345_u64, 0_u64, 0_u64);
        for _ in 0..ACCESSES {
            // Three accesses in four walk through memory; the fourth
            // lands anywhere in 4 MiB.
            let addr = if xorshift(&mut x).is_multiple_of(4) {
                x
            } else {
                next += 64;
                next
            } & ((4 << 20) - 1);
            let line = (addr >> 6) + 1;
            let set = (line as usize % SETS) * 4;
            let ways = &mut self.tags[set..set + 4];
            match ways.iter().position(|&t| t == line) {
                Some(w) => {
                    hits += 1;
                    ways[..=w].rotate_right(1);
                }
                None => {
                    ways.rotate_right(1);
                    ways[0] = line;
                }
            }
        }
        black_box(hits);
        self.sorted.copy_from_slice(&self.unsorted);
        self.sorted.sort_unstable();
        black_box(&self.sorted);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.samples.push(ns);
        ns
    }

    /// Takes `n` samples.
    pub fn samples(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// The host time from `from` to `to`, less the samples taken in it,
    /// scaled to the reference host speed, in seconds. The samples cut
    /// the stretch into pieces; each piece is scaled by the median of the
    /// [`WINDOW`] samples before it and the [`WINDOW`] after it, so that
    /// a phase that begins or ends inside the stretch scales only the
    /// pieces it covers. The stretch must have a sample within
    /// [`WINDOW`] of each end, or it reads NaN.
    pub fn scaled_s(&self, from: Instant, to: Instant) -> f64 {
        let mut total = 0.0;
        let mut piece_start = from;
        for (i, &at) in self.taken.iter().enumerate().skip_while(|&(_, &at)| at < from) {
            if at >= to {
                return (total + self.piece(i, piece_start, to)) / 1e9 * REFERENCE_NS;
            }
            total += self.piece(i, piece_start, at);
            piece_start = at + Duration::from_nanos(self.samples[i]);
        }
        (total + self.piece(self.samples.len(), piece_start, to)) / 1e9 * REFERENCE_NS
    }

    /// Nanoseconds from `start` to `end`, a piece that ends where sample
    /// `next` begins, over the median of the samples around it.
    fn piece(&self, next: usize, start: Instant, end: Instant) -> f64 {
        let window = next.saturating_sub(WINDOW)..(next + WINDOW).min(self.samples.len());
        let around: Vec<f64> = self.samples[window].iter().map(|&s| s as f64).collect();
        end.saturating_duration_since(start).as_nanos() as f64 / crate::median(&around)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe whose samples were taken `at` milliseconds after `t0` and
    /// took `ns` each.
    fn probe(t0: Instant, taken: &[(u64, u64)]) -> Probe {
        let mut probe = Probe::default();
        for &(at, ns) in taken {
            probe.taken.push(t0 + Duration::from_millis(at));
            probe.samples.push(ns);
        }
        probe
    }

    #[test]
    fn each_piece_is_scaled_by_the_samples_around_it() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        // A slow phase (samples at twice the reference) until 30 ms, then
        // the reference speed.
        let slow = 2 * REFERENCE_NS as u64;
        let fast = REFERENCE_NS as u64;
        let p =
            probe(t0, &[(10, slow), (20, slow), (30, slow), (40, fast), (50, fast), (60, fast)]);
        let close = |got: f64, want_ms: f64| assert!((got - want_ms / 1e3).abs() < 1e-9, "{got}");
        // Inside the slow phase the host time halves; inside the fast one
        // it stands.
        close(p.scaled_s(ms(0), ms(10)), 5.0);
        close(p.scaled_s(ms(61), ms(70)), 9.0);
        // Across the change, each piece takes the median of the three
        // samples on each side; the samples' own time is left out.
        let pieces = [10.0 / 2.0, 9.9 / 2.0, 9.9 / 2.0, 9.9 * 2.0 / 3.0, 9.95, 9.95, 9.95];
        close(p.scaled_s(ms(0), ms(70)), pieces.iter().sum());
    }

    #[test]
    fn a_set_up_between_samples_takes_the_samples_on_either_side() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let r = REFERENCE_NS as u64;
        let p =
            probe(t0, &[(1, 4 * r), (2, 4 * r), (3, 4 * r), (20, 4 * r), (21, 4 * r), (22, 4 * r)]);
        let got = p.scaled_s(ms(4), ms(20));
        assert!((got - 0.004).abs() < 1e-9, "{got}");
        assert!(Probe::default().scaled_s(ms(0), ms(1)).is_nan());
    }
}
