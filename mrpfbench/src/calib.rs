//! Host-speed calibration. The shared two-core host this benchmark was
//! tuned on changes speed by 20–40 % over tens of seconds (neighbours
//! contending for caches and memory bandwidth), which no statistic within
//! one run removes. A fixed kernel of the benchmark's own — allocation,
//! SipHash map inserts, nested-vector pushes, a sort, a scan — does the
//! same kinds of work as the synthesizer's hot paths (and an ordered-map
//! pass like the exact search's successor sets) and never changes
//! with the program. Timed between operations, it gives the host's speed
//! at that moment; each operation's time is scaled by `NOMINAL_MS /
//! kernel time` into milliseconds of a host on which the kernel takes
//! `NOMINAL_MS`.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Kernel time that defines the reference host, ms: about what the kernel
/// takes on the two-vCPU 2.0 GHz Xeon guest the benchmark was tuned on.
pub const NOMINAL_MS: f64 = 8.0;
/// Least run time between two kernel samples.
const EVERY: Duration = Duration::from_millis(150);
/// Fewest samples a scale is the median of.
const WINDOW: usize = 3;
/// How far around a measurement its samples may lie, seconds.
pub const MARGIN: f64 = 0.45;

/// The kernel: fixed inputs, [`NOMINAL_MS`] on the reference host.
fn kernel() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); 512];
    let mut index: HashMap<u64, usize> = HashMap::new();
    for i in 0..60_000u32 {
        let v = next();
        let n = index.len();
        let slot = *index.entry(v % 20_000).or_insert(n);
        rows[slot % 512].push((i, v));
    }
    let mut flat: Vec<u64> = rows.iter().flatten().map(|&(i, v)| v ^ i as u64).collect();
    flat.sort_unstable();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    for &v in flat.iter().step_by(3) {
        *ordered.entry(v % 50_000).or_default() += v >> 40;
    }
    ordered.values().fold(0u64, |a, &v| a.wrapping_add(v))
}

fn kernel_ms() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel samples taken through a run, with when each was taken.
pub struct Calibration {
    epoch: Instant,
    /// (seconds since `epoch` at the sample's end, kernel ms), in time order.
    samples: Vec<(f64, f64)>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            epoch: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Seconds since the calibration started: the clock operations are
    /// placed on for [`Calibration::scale_between`].
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let ms = kernel_ms();
        self.samples.push((self.now(), ms));
    }

    /// Times the kernel unless it ran within the last [`EVERY`].
    pub fn tick(&mut self) {
        let fresh = self
            .samples
            .last()
            .is_some_and(|&(at, _)| self.now() - at < EVERY.as_secs_f64());
        if !fresh {
            self.sample();
        }
    }

    /// Times the kernel a few times in a row: around a measurement that
    /// `tick` does not interleave with.
    pub fn burst(&mut self) {
        for _ in 0..WINDOW {
            self.sample();
        }
    }

    /// Scale for a measurement made from `start` to `end` (seconds on
    /// [`Calibration::now`]'s clock): reference-host milliseconds per host
    /// millisecond, from the median of the samples taken within
    /// [`MARGIN`] of it, or of the `WINDOW` nearest if fewer were.
    pub fn scale_between(&self, start: f64, end: f64) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(at, _)| at >= start - MARGIN && at <= end + MARGIN)
            .map(|&(_, ms)| ms)
            .collect();
        let near = if near.len() >= WINDOW {
            near
        } else {
            let mut by_distance: Vec<(f64, f64)> = self
                .samples
                .iter()
                .map(|&(at, ms)| ((at - (start + end) / 2.0).abs(), ms))
                .collect();
            by_distance.sort_by(|a, b| a.0.total_cmp(&b.0));
            by_distance.iter().take(WINDOW).map(|&(_, ms)| ms).collect()
        };
        if near.is_empty() {
            1.0
        } else {
            NOMINAL_MS / median(&near)
        }
    }

    /// Scale over every sample taken so far.
    pub fn run_scale(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        if all.is_empty() {
            1.0
        } else {
            NOMINAL_MS / median(&all)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scales_track_it() {
        assert_eq!(kernel(), kernel());
        let mut cal = Calibration::new();
        assert_eq!(cal.scale_between(0.0, 1.0), 1.0);
        cal.burst();
        assert_eq!(cal.samples.len(), WINDOW);
        cal.tick();
        assert_eq!(
            cal.samples.len(),
            WINDOW,
            "ticks within EVERY do not sample"
        );
        let t = cal.now();
        assert!(cal.scale_between(t, t) > 0.0 && cal.run_scale() > 0.0);
    }

    #[test]
    fn scales_use_the_samples_around_a_measurement() {
        let cal = Calibration {
            epoch: Instant::now(),
            samples: vec![
                (0.0, 12.0),
                (0.1, 12.0),
                (0.2, 12.0),
                (5.0, 3.0),
                (5.1, 3.0),
                (5.2, 3.0),
            ],
        };
        assert_eq!(cal.scale_between(0.05, 0.15), NOMINAL_MS / 12.0);
        assert_eq!(cal.scale_between(5.1, 5.1), NOMINAL_MS / 3.0);
        // Nothing within the margin: the three nearest.
        assert_eq!(cal.scale_between(9.0, 9.5), NOMINAL_MS / 3.0);
    }
}
