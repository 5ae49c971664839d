//! Property tests: the MRP optimizer always produces a bit-exact network
//! that never loses to the per-coefficient baseline (deterministic
//! harness).

use std::collections::{BTreeMap, BTreeSet};

use mrp_core::{
    select_colors, CoeffSet, ColorGraph, MrpConfig, MrpOptimizer, SeedOptimizer, SidEdge,
};
use mrp_cse::simple_adder_count;
use mrp_numrep::{nonzero_digits, Repr};
use mrp_ptest::{run_cases, Rng};

fn coeff_vec(rng: &mut Rng) -> Vec<i64> {
    rng.vec_i64(1, 28, -(1 << 16), 1 << 16)
}

#[test]
fn mrp_network_is_bit_exact() {
    run_cases("mrp_network_is_bit_exact", 48, |rng| {
        let coeffs = coeff_vec(rng);
        let r = MrpOptimizer::new(MrpConfig::default())
            .optimize(&coeffs)
            .unwrap();
        assert_eq!(
            r.graph.verify_outputs(&[-13, -1, 0, 1, 3, 255, 10007]),
            None
        );
        for (i, &c) in coeffs.iter().enumerate() {
            if c != 0 {
                assert_eq!(r.graph.evaluate_term(r.outputs[i], 11).unwrap(), c * 11);
            }
        }
    });
}

#[test]
fn mrp_not_worse_than_simple() {
    run_cases("mrp_not_worse_than_simple", 48, |rng| {
        let coeffs = coeff_vec(rng);
        let cfg = MrpConfig::default();
        let r = MrpOptimizer::new(cfg).optimize(&coeffs).unwrap();
        let simple = simple_adder_count(&coeffs, cfg.repr);
        assert!(
            r.total_adders() <= simple.max(1),
            "MRP {} vs simple {}",
            r.total_adders(),
            simple
        );
    });
}

#[test]
fn depth_constraint_always_respected() {
    run_cases("depth_constraint_always_respected", 48, |rng| {
        let coeffs = coeff_vec(rng);
        let depth = rng.u32_in(1, 5);
        let cfg = MrpConfig {
            max_depth: Some(depth),
            ..MrpConfig::default()
        };
        let r = MrpOptimizer::new(cfg).optimize(&coeffs).unwrap();
        assert!(r.stats.tree_height <= depth);
        assert_eq!(r.graph.verify_outputs(&[1, -7]), None);
    });
}

#[test]
fn seed_members_are_positive_odd() {
    run_cases("seed_members_are_positive_odd", 48, |rng| {
        let coeffs = coeff_vec(rng);
        let r = MrpOptimizer::new(MrpConfig::default())
            .optimize(&coeffs)
            .unwrap();
        for &v in r.seed_roots.iter().chain(&r.seed_colors) {
            assert!(v > 0 && v % 2 == 1, "SEED member {v} not positive odd");
        }
    });
}

#[test]
fn cse_seed_is_bit_exact() {
    run_cases("cse_seed_is_bit_exact", 48, |rng| {
        let coeffs = coeff_vec(rng);
        let cfg = MrpConfig {
            seed_optimizer: SeedOptimizer::Cse,
            ..MrpConfig::default()
        };
        let r = MrpOptimizer::new(cfg).optimize(&coeffs).unwrap();
        assert_eq!(r.graph.verify_outputs(&[-2, 0, 5, 999]), None);
    });
}

#[test]
fn recursive_seed_is_bit_exact() {
    run_cases("recursive_seed_is_bit_exact", 48, |rng| {
        let coeffs = coeff_vec(rng);
        let cfg = MrpConfig {
            seed_optimizer: SeedOptimizer::Recursive { levels: 1 },
            ..MrpConfig::default()
        };
        let r = MrpOptimizer::new(cfg).optimize(&coeffs).unwrap();
        assert_eq!(r.graph.verify_outputs(&[-2, 0, 5, 999]), None);
    });
}

#[test]
fn beta_sweep_stays_exact() {
    run_cases("beta_sweep_stays_exact", 48, |rng| {
        let coeffs = coeff_vec(rng);
        let beta = rng.f64_unit();
        let cfg = MrpConfig {
            beta,
            ..MrpConfig::default()
        };
        let r = MrpOptimizer::new(cfg).optimize(&coeffs).unwrap();
        assert_eq!(r.graph.verify_outputs(&[1, 42]), None);
    });
}

#[test]
fn stats_decompose_total() {
    run_cases("stats_decompose_total", 48, |rng| {
        let coeffs = coeff_vec(rng);
        let r = MrpOptimizer::new(MrpConfig::default())
            .optimize(&coeffs)
            .unwrap();
        assert_eq!(
            r.stats.seed_adders + r.stats.overhead_adders,
            r.total_adders()
        );
    });
}

/// Every SID edge `(i, j, L, sign)` of §3.1, in that order, straight from
/// the definition `ξ = c_j − s·2^L·c_i`.
fn brute_force_edges(primaries: &[i64], max_shift: u32) -> Vec<SidEdge> {
    let mut edges = Vec::new();
    for (i, &ci) in primaries.iter().enumerate() {
        for (j, &cj) in primaries.iter().enumerate() {
            if i == j {
                continue;
            }
            for l in 0..=max_shift {
                for base_negate in [false, true] {
                    let base = if base_negate { -(ci << l) } else { ci << l };
                    let xi = cj - base;
                    if xi == 0 {
                        continue;
                    }
                    let shift = xi.trailing_zeros();
                    edges.push(SidEdge {
                        from: i,
                        to: j,
                        base_shift: l,
                        base_negate,
                        color: (xi.unsigned_abs() >> shift) as i64,
                        color_shift: shift,
                        color_negate: xi < 0,
                    });
                }
            }
        }
    }
    edges
}

/// The eager greedy WMSC: every round rescans every class's uncovered
/// frequency and takes the largest Eq. 1 benefit, the smaller color on a
/// tie. Returns the selected colors in order and the Step 6 free vertices.
fn eager_select(graph: &ColorGraph, primaries: &[i64], beta: f64) -> (Vec<i64>, Vec<usize>) {
    let n = graph.vertex_count();
    let color_sets: Vec<Vec<usize>> = (0..graph.color_count())
        .map(|ci| graph.color_set(ci))
        .collect();
    let mut covered = vec![false; n];
    let mut remaining = n;
    let mut used = vec![false; graph.color_count()];
    let mut colors: Vec<i64> = Vec::new();
    while remaining > 0 {
        let mut best: Option<(usize, f64)> = None;
        for ci in (0..graph.color_count()).filter(|&ci| !used[ci]) {
            let freq = color_sets[ci].iter().filter(|&&v| !covered[v]).count();
            if freq == 0 {
                continue;
            }
            let f = beta * freq as f64 - (1.0 - beta) * graph.cost(ci) as f64;
            let better = match best {
                None => true,
                Some((bci, bf)) => f > bf || (f == bf && graph.colors()[ci] < graph.colors()[bci]),
            };
            if better {
                best = Some((ci, f));
            }
        }
        let Some((ci, _)) = best else { break };
        used[ci] = true;
        colors.push(graph.colors()[ci]);
        for &v in &color_sets[ci] {
            if !covered[v] {
                covered[v] = true;
                remaining -= 1;
            }
        }
    }
    let free = (0..n).filter(|&v| colors.contains(&primaries[v])).collect();
    (colors, free)
}

#[test]
fn lazy_cover_and_regenerated_edges_match_the_eager_reference() {
    run_cases("lazy_cover_matches_eager_reference", 40, |rng| {
        // Mostly small vectors; one case in eight spans two mask words.
        let (len, max_shift) = if rng.u64_below(8) == 0 {
            (rng.usize_in(65, 90), rng.u32_in(2, 5))
        } else {
            (rng.usize_in(1, 40), rng.u32_in(2, 15))
        };
        let coeffs: Vec<i64> = (0..len).map(|_| rng.i64_in(-(1 << 12), 1 << 12)).collect();
        let Ok(set) = CoeffSet::new(&coeffs) else {
            return;
        };
        let primaries = set.primaries();
        let brute = brute_force_edges(primaries, max_shift);
        for repr in [Repr::Spt, Repr::SignMagnitude] {
            let graph = ColorGraph::build(primaries, max_shift, repr);
            // Classes: each brute-force color once, with its cost and the
            // vertices its edges reach.
            let mut heads: BTreeMap<i64, BTreeSet<usize>> = BTreeMap::new();
            for e in &brute {
                heads.entry(e.color).or_default().insert(e.to);
            }
            assert_eq!(graph.color_count(), heads.len());
            for (&color, reached) in &heads {
                let ci = graph.color_index(color).expect("every color has a class");
                assert_eq!(graph.cost(ci), nonzero_digits(color, repr));
                let reached: Vec<usize> = reached.iter().copied().collect();
                assert_eq!(graph.color_set(ci), reached, "color {color}");
            }
            for beta in [0.0, 0.1, 0.5, 0.9, 1.0] {
                let cover = select_colors(&graph, primaries, beta);
                let (colors, free) = eager_select(&graph, primaries, beta);
                assert_eq!(cover.colors, colors, "{repr} beta {beta}");
                assert_eq!(cover.free_vertices, free, "{repr} beta {beta}");
                let expected: Vec<SidEdge> = cover
                    .colors
                    .iter()
                    .flat_map(|&c| brute.iter().filter(move |e| e.color == c))
                    .copied()
                    .collect();
                assert_eq!(
                    graph.cover_edges(&cover.class_indices),
                    expected,
                    "{repr} beta {beta}"
                );
            }
        }
    });
}
