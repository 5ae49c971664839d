//! Greedy weighted-minimum-set-cover color selection (Steps 4-5).
//!
//! Each round selects the color class maximizing the benefit function
//! (Eq. 1 of the paper)
//!
//! ```text
//! f = β·frequency − (1−β)·cost        0 ≤ β ≤ 1
//! ```
//!
//! where `frequency` is the number of still-uncovered vertices the class
//! can reach and `cost` is the nonzero-digit count of the primary color.
//! Frequencies are recomputed after every selection (Step 5c).
//!
//! A class's frequency is `popcount(mask & !covered)` over its coverage
//! mask. Covering more vertices can only lower a frequency, and `f` rises
//! with frequency, so a benefit computed earlier bounds the current one
//! from above. The selection is therefore a lazy greedy: classes sit on a
//! max-heap under their last computed benefit, and the top is recomputed
//! when popped — if its benefit held, nothing below can beat it, so it
//! wins; otherwise it goes back under the lower value. Each round picks
//! the same class as a full rescan would, ties included.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::color::ColorGraph;

/// Result of the color-cover pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverSolution {
    /// Selected primary colors, in selection order.
    pub colors: Vec<i64>,
    /// Selected class indices into the [`ColorGraph`].
    pub class_indices: Vec<usize>,
    /// Vertices that equal a selected color up to shift (Step 6): they need
    /// no predecessor and no overhead add.
    pub free_vertices: Vec<usize>,
}

/// Runs the greedy WMSC selection over `graph` with benefit parameter
/// `beta` (0.5 ⇒ interconnect-neutral, per §3.3).
///
/// `primaries` must be the vertex values the graph was built from (used by
/// the Step 6 free-vertex check).
///
/// # Panics
///
/// Panics if `beta` is outside `[0, 1]` or `primaries.len()` disagrees with
/// the graph.
///
/// # Examples
///
/// ```
/// use mrp_core::{select_colors, CoeffSet, ColorGraph};
/// use mrp_numrep::Repr;
///
/// let set = CoeffSet::new(&[70, 66, 17, 9, 27, 41, 56, 11])?;
/// let graph = ColorGraph::build(set.primaries(), 8, Repr::Spt);
/// let cover = select_colors(&graph, set.primaries(), 0.5);
/// assert!(!cover.colors.is_empty());
/// # Ok::<(), mrp_core::MrpError>(())
/// ```
pub fn select_colors(graph: &ColorGraph, primaries: &[i64], beta: f64) -> CoverSolution {
    let _span = mrp_obs::span("core.wmsc");
    assert!((0.0..=1.0).contains(&beta), "beta must be within [0, 1]");
    assert_eq!(
        primaries.len(),
        graph.vertex_count(),
        "primaries/graph mismatch"
    );
    let n = graph.vertex_count();
    let mut covered = vec![0u64; n.div_ceil(64)];
    let mut remaining = n;
    let frequency = |ci: usize, covered: &[u64]| -> u32 {
        graph
            .mask(ci)
            .iter()
            .zip(covered)
            .map(|(m, c)| (m & !c).count_ones())
            .sum()
    };
    let benefit = |ci: usize, freq: u32| -> f64 {
        beta * f64::from(freq) - (1.0 - beta) * f64::from(graph.cost(ci))
    };
    // Most classes reach a single vertex. Such a class can only win while
    // its vertex is uncovered, and then every class on that vertex has
    // frequency at least 1 — so a single-vertex class ranking below another
    // on the same vertex at frequency 1 never wins, and only the best of
    // each vertex's single-vertex classes goes on the heap.
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut best_single: Vec<Option<Candidate>> = vec![None; n];
    for ci in 0..graph.color_count() {
        let freq = frequency(ci, &covered);
        let candidate = Candidate {
            benefit: benefit(ci, freq),
            color: graph.colors()[ci],
            class: ci,
        };
        if freq > 1 {
            candidates.push(candidate);
            continue;
        }
        let (word, bits) = (0..)
            .zip(graph.mask(ci))
            .find(|&(_, &bits)| bits != 0)
            .expect("a class covers some vertex");
        let best = &mut best_single[word * 64 + bits.trailing_zeros() as usize];
        if best.is_none_or(|b| candidate > b) {
            *best = Some(candidate);
        }
    }
    candidates.extend(best_single.into_iter().flatten());
    let mut heap = BinaryHeap::from(candidates);
    let mut selected_classes: Vec<usize> = Vec::new();
    let mut selected_colors: Vec<i64> = Vec::new();
    while remaining > 0 {
        let Some(top) = heap.pop() else { break };
        let freq = frequency(top.class, &covered);
        if freq == 0 {
            continue;
        }
        let f = benefit(top.class, freq);
        if f < top.benefit {
            heap.push(Candidate { benefit: f, ..top });
            continue;
        }
        // One greedy round = one selected class; the winning benefit `f`
        // (Eq. 1) is the quantity the search literature tabulates.
        mrp_obs::counter_add("core.wmsc.iterations", 1);
        mrp_obs::histogram_record("core.wmsc.benefit_f", f);
        selected_classes.push(top.class);
        selected_colors.push(top.color);
        for (c, m) in covered.iter_mut().zip(graph.mask(top.class)) {
            *c |= m;
        }
        remaining -= freq as usize;
    }
    // Step 6: vertices whose value equals a selected color (primaries are
    // odd, colors are odd, so equality is exact).
    let free_vertices: Vec<usize> = (0..n)
        .filter(|&v| selected_colors.contains(&primaries[v]))
        .collect();
    CoverSolution {
        colors: selected_colors,
        class_indices: selected_classes,
        free_vertices,
    }
}

/// A class on the lazy greedy's heap under its last computed benefit.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    benefit: f64,
    color: i64,
    class: usize,
}

impl Ord for Candidate {
    /// Larger benefit first; of equal benefits, the smaller color. Colors
    /// are distinct, so no two candidates compare equal.
    fn cmp(&self, other: &Self) -> Ordering {
        self.benefit
            .total_cmp(&other.benefit)
            .then_with(|| other.color.cmp(&self.color))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoeffSet;
    use mrp_numrep::Repr;

    const PAPER: [i64; 8] = [70, 66, 17, 9, 27, 41, 56, 11];

    fn cover_for(coeffs: &[i64], beta: f64) -> (Vec<i64>, ColorGraph, CoverSolution) {
        let set = CoeffSet::new(coeffs).unwrap();
        let primaries = set.primaries().to_vec();
        let graph = ColorGraph::build(&primaries, 8, Repr::Spt);
        let cover = select_colors(&graph, &primaries, beta);
        (primaries, graph, cover)
    }

    #[test]
    fn cover_reaches_every_vertex() {
        let (primaries, graph, cover) = cover_for(&PAPER, 0.5);
        let mut covered = vec![false; primaries.len()];
        for &ci in &cover.class_indices {
            for v in graph.color_set(ci) {
                covered[v] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn paper_example_selects_small_colors() {
        // The paper's Fig. 2 solution is {3, 5}; the greedy must find a
        // similarly small, low-cost cover (exact set depends on
        // tie-breaking).
        let (_, _, cover) = cover_for(&PAPER, 0.5);
        assert!(
            cover.colors.len() <= 4,
            "cover {:?} is too large",
            cover.colors
        );
        let max_cost = cover
            .colors
            .iter()
            .map(|&c| mrp_numrep::nonzero_digits(c, Repr::Spt))
            .max()
            .unwrap();
        assert!(max_cost <= 2, "colors {:?} too expensive", cover.colors);
    }

    #[test]
    fn low_beta_prefers_cheaper_colors() {
        let coeffs: Vec<i64> = vec![89, 107, 173, 211, 251, 303, 355, 405];
        let (_, _, cheap) = cover_for(&coeffs, 0.1);
        let (_, _, share) = cover_for(&coeffs, 0.9);
        let avg_cost = |c: &CoverSolution| {
            c.colors
                .iter()
                .map(|&v| mrp_numrep::nonzero_digits(v, Repr::Spt) as f64)
                .sum::<f64>()
                / c.colors.len() as f64
        };
        assert!(
            avg_cost(&cheap) <= avg_cost(&share) + 1e-9,
            "beta=0.1 should not pick costlier colors on average"
        );
    }

    #[test]
    fn free_vertices_match_colors() {
        // Force a coefficient equal to a likely color: 3.
        let (primaries, _, cover) = cover_for(&[3, 7, 11, 19], 0.5);
        for &v in &cover.free_vertices {
            assert!(cover.colors.contains(&primaries[v]));
        }
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn rejects_bad_beta() {
        let set = CoeffSet::new(&PAPER).unwrap();
        let graph = ColorGraph::build(set.primaries(), 8, Repr::Spt);
        select_colors(&graph, set.primaries(), 1.5);
    }

    #[test]
    fn single_vertex_needs_no_colors() {
        let (_, _, cover) = cover_for(&[7, 14], 0.5);
        // One primary, no edges, nothing to cover beyond the root.
        assert!(cover.colors.is_empty());
    }
}
