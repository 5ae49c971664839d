//! The workloads' inputs: the paper's example filters, seeded variants of
//! them, and the serve catalogue. Designing and quantizing is set-up work,
//! timed in `filters.design` and `numrep.quantize` spans.

use mrp_filters::{example_filters, ExampleFilter, FilterKind};
use mrp_numrep::{quantize, Scaling};

use crate::rng::Rng;
use crate::trace::Recorder;

/// Wordlengths of the paper's Figures 6–8.
pub const WORDLENGTHS: [u32; 4] = [8, 12, 16, 20];

/// One coefficient vector a workload synthesizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    pub label: String,
    pub coeffs: Vec<i64>,
    /// Part of the fixed, seed-independent input set whose adder and
    /// depth totals the run reports.
    pub fixed: bool,
}

pub fn design(rec: &mut Recorder, filter: &ExampleFilter) -> Result<Vec<f64>, String> {
    rec.time("filters.design", || filter.design())
        .0
        .map_err(|e| format!("example {} failed to design: {e}", filter.index))
}

pub fn quantized(
    rec: &mut Recorder,
    taps: &[f64],
    wordlength: u32,
    scaling: Scaling,
) -> Result<Vec<i64>, String> {
    rec.time("numrep.quantize", || quantize(taps, wordlength, scaling))
        .0
        .map(|q| q.values)
        .map_err(|e| format!("quantize at W={wordlength}: {e}"))
}

/// Designs the twelve example filters of the paper's Table 1.
pub fn design_suite(rec: &mut Recorder) -> Result<Vec<(ExampleFilter, Vec<f64>)>, String> {
    example_filters()
        .into_iter()
        .map(|f| design(rec, &f).map(|taps| (f, taps)))
        .collect()
}

/// The filter with every band edge moved by up to ±2 % (same method,
/// order and ripple targets): a different input with the same statistics.
fn perturbed(filter: &ExampleFilter, rng: &mut Rng) -> ExampleFilter {
    let mut f = filter.clone();
    let mut nudge = |v: &mut f64| *v *= 1.0 + rng.uniform(-0.02, 0.02);
    match &mut f.spec.kind {
        FilterKind::Lowpass { fp, fs } | FilterKind::Highpass { fs, fp } => {
            nudge(fp);
            nudge(fs);
        }
        FilterKind::Bandpass { fs1, fp1, fp2, fs2 }
        | FilterKind::Bandstop { fp1, fs1, fs2, fp2 } => {
            nudge(fs1);
            nudge(fp1);
            nudge(fp2);
            nudge(fs2);
        }
    }
    f
}

/// Seeded variants of each example filter in the grid.
pub const GRID_VARIANTS: usize = 3;

/// The 96 cells of the paper's grid (12 filters × 4 wordlengths × 2
/// scalings), then [`GRID_VARIANTS`] seeded variants of each filter at the
/// 4 wordlengths with uniform scaling (144 cells).
pub fn grid_inputs(rec: &mut Recorder, seed: u64) -> Result<Vec<Input>, String> {
    let suite = design_suite(rec)?;
    let mut inputs = Vec::with_capacity(96 + 48 * GRID_VARIANTS);
    for &w in &WORDLENGTHS {
        for scaling in [Scaling::Uniform, Scaling::Maximal] {
            for (f, taps) in &suite {
                inputs.push(Input {
                    label: format!("f{} W={w} {scaling}", f.index),
                    coeffs: quantized(rec, taps, w, scaling)?,
                    fixed: true,
                });
            }
        }
    }
    let mut rng = Rng::new(seed, 1);
    for v in 1..=GRID_VARIANTS {
        for (f, _) in &suite {
            // A draw whose edges the designer rejects is redrawn: the
            // result still depends on the seed alone.
            let taps = (0..32)
                .find_map(|_| design(rec, &perturbed(f, &mut rng)).ok())
                .ok_or_else(|| format!("no variant of example {} designs", f.index))?;
            for &w in &WORDLENGTHS {
                inputs.push(Input {
                    label: format!("f{} variant {v} W={w} uniform", f.index),
                    coeffs: quantized(rec, &taps, w, Scaling::Uniform)?,
                    fixed: false,
                });
            }
        }
    }
    Ok(inputs)
}

/// Filters signed off at W=20: the ones whose capped exact search ends
/// within about a second.
pub const SIGNOFF_W20: [usize; 3] = [1, 2, 6];

/// The twelve filters at W=16, then filters 1, 2 and 6 at W=20, uniform.
pub fn signoff_inputs(rec: &mut Recorder) -> Result<Vec<Input>, String> {
    let suite = design_suite(rec)?;
    let mut inputs = Vec::with_capacity(15);
    for (f, taps) in &suite {
        inputs.push(Input {
            label: format!("f{} W=16", f.index),
            coeffs: quantized(rec, taps, 16, Scaling::Uniform)?,
            fixed: true,
        });
    }
    for (f, taps) in suite.iter().filter(|(f, _)| SIGNOFF_W20.contains(&f.index)) {
        inputs.push(Input {
            label: format!("f{} W=20", f.index),
            coeffs: quantized(rec, taps, 20, Scaling::Uniform)?,
            fixed: true,
        });
    }
    Ok(inputs)
}

/// The cache key a shift- and sign-normalizing cache would use: common
/// factors of two removed, first nonzero coefficient positive.
pub fn normal_form(coeffs: &[i64]) -> Vec<i64> {
    let shift = coeffs
        .iter()
        .filter(|&&c| c != 0)
        .map(|c| c.trailing_zeros())
        .min()
        .unwrap_or(0);
    let sign = match coeffs.iter().find(|&&c| c != 0) {
        Some(&c) if c < 0 => -1,
        _ => 1,
    };
    coeffs.iter().map(|&c| sign * (c >> shift)).collect()
}

/// One entry of the serve catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub name: String,
    pub coeffs: Vec<i64>,
    pub fixed: bool,
}

/// Entries of the catalogue that are fixed: the twelve filters at W=12
/// under both scalings.
pub const SERVE_FIXED: usize = 24;

/// Example filter and wordlength of the seeded serve entries: filter 9
/// (order 90) at W=16 synthesizes in about 6 ms on the reference host,
/// four times a cache hit's whole round trip.
const MISS_FILTER: usize = 9;
const MISS_WORDLENGTH: u32 = 16;

/// The serve catalogue in Zipf rank order (rank 0 hottest): the 24 fixed
/// entries, then `size − 24` seeded entries. A seeded entry is a variant
/// of [`MISS_FILTER`] — taps scaled by up to ±1 % symmetrically, then
/// quantized at [`MISS_WORDLENGTH`] — distinct from every earlier entry
/// after normalization; every 16th is instead a shifted or negated alias
/// of a hotter entry, which normalizes to that entry's cache key.
pub fn serve_catalogue(rec: &mut Recorder, seed: u64, size: usize) -> Result<Vec<Entry>, String> {
    let suite = design_suite(rec)?;
    let mut entries = Vec::with_capacity(size);
    let mut keys = std::collections::HashSet::new();
    for scaling in [Scaling::Uniform, Scaling::Maximal] {
        for (f, taps) in &suite {
            let coeffs = quantized(rec, taps, 12, scaling)?;
            keys.insert(normal_form(&coeffs));
            entries.push(Entry {
                name: format!("f{}-w12-{scaling}", f.index),
                coeffs,
                fixed: true,
            });
        }
    }
    let mut rng = Rng::new(seed, 2);
    while entries.len() < size {
        let rank = entries.len();
        if rank % 16 == 15 {
            let base = entries[rng.below(rank / 2)].clone();
            let coeffs: Vec<i64> = if rng.below(2) == 0 {
                base.coeffs.iter().map(|&c| -c).collect()
            } else {
                base.coeffs.iter().map(|&c| c << 1).collect()
            };
            entries.push(Entry {
                name: format!("{}-alias{rank}", base.name),
                coeffs,
                fixed: false,
            });
            continue;
        }
        // One filter at one wordlength: every miss costs about the same
        // synthesis, so the requests that miss form one cluster of
        // latencies, clearly apart from the hits, and the 90th percentile
        // falls inside it rather than on a slope between mixed costs.
        let (f, taps) = suite
            .iter()
            .find(|(f, _)| f.index == MISS_FILTER)
            .expect("the miss filter is an example filter");
        let w = MISS_WORDLENGTH;
        let n = taps.len();
        let scale: Vec<f64> = (0..n.div_ceil(2))
            .map(|_| 1.0 + rng.uniform(-0.01, 0.01))
            .collect();
        let varied: Vec<f64> = taps
            .iter()
            .enumerate()
            .map(|(k, t)| t * scale[k.min(n - 1 - k)])
            .collect();
        let coeffs = quantized(rec, &varied, w, Scaling::Uniform)?;
        if keys.insert(normal_form(&coeffs)) {
            entries.push(Entry {
                name: format!("f{}-w{w}-v{rank}", f.index),
                coeffs,
                fixed: false,
            });
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_variants_and_catalogues() {
        let mut rec = Recorder::new(false);
        let a = grid_inputs(&mut rec, 5).unwrap();
        let b = grid_inputs(&mut rec, 5).unwrap();
        let c = grid_inputs(&mut rec, 6).unwrap();
        assert_eq!(a.len(), 96 + 48 * GRID_VARIANTS);
        assert_eq!(a, b);
        assert_eq!(
            a[..96],
            c[..96],
            "the paper cells do not depend on the seed"
        );
        assert_ne!(a[96..], c[96..]);
        for (x, y) in a[96..].iter().zip(&c[96..]) {
            assert_eq!(
                x.coeffs.len(),
                y.coeffs.len(),
                "variants keep the filter order"
            );
        }
        let ka = serve_catalogue(&mut rec, 5, 200).unwrap();
        let kb = serve_catalogue(&mut rec, 5, 200).unwrap();
        let kc = serve_catalogue(&mut rec, 6, 200).unwrap();
        assert_eq!(ka, kb);
        assert_ne!(ka, kc);
        assert_eq!(ka[..SERVE_FIXED], kc[..SERVE_FIXED]);
    }

    #[test]
    fn catalogue_keys_are_distinct_except_aliases() {
        let mut rec = Recorder::new(false);
        let cat = serve_catalogue(&mut rec, 9, 300).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (rank, e) in cat.iter().enumerate() {
            let fresh = seen.insert(normal_form(&e.coeffs));
            assert_eq!(fresh, rank % 16 != 15 || rank < SERVE_FIXED, "rank {rank}");
        }
    }

    #[test]
    fn normal_form_removes_shift_and_sign() {
        assert_eq!(normal_form(&[-4, 8, 0, -12]), vec![1, -2, 0, 3]);
        assert_eq!(normal_form(&[3, 5]), normal_form(&[-6, -10]));
    }
}
