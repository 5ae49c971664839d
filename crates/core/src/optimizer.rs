//! The end-to-end MRP optimizer: cover → forest → SEED network → overhead
//! network → verified adder graph.

use std::collections::{HashMap, HashSet};

use mrp_arch::{AdderGraph, Term};
use mrp_cse::hartley_cse;
use mrp_numrep::{nonzero_digits, Repr};

use crate::coeff::CoeffSet;
use crate::color::ColorGraph;
use crate::cover::select_colors;
use crate::error::MrpError;
use crate::tree::build_forest;

/// How the SEED multiplication network is realized (§4: MRPI is an
/// architectural transformation whose SEED block can itself be optimized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedOptimizer {
    /// Each SEED value as an independent digit-recoded chain (plain MRPF).
    #[default]
    Direct,
    /// Hartley common subexpression elimination over the SEED values
    /// (the paper's MRPI+CSE combination, Fig. 5).
    Cse,
    /// Recursive MRP on the SEED vector, `levels` deep, with `Direct` at
    /// the bottom.
    Recursive {
        /// Remaining recursion levels (1 = one extra MRP pass).
        levels: u32,
    },
}

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrpConfig {
    /// Number representation for cost metrics and digit recoding
    /// (the paper evaluates [`Repr::Spt`] and [`Repr::SignMagnitude`]).
    pub repr: Repr,
    /// Benefit-function weight β (Eq. 1). `0.5` = interconnect-neutral.
    pub beta: f64,
    /// Maximum SID shift `L` (the paper's `W`); `None` derives it from the
    /// coefficient magnitudes.
    pub max_shift: Option<u32>,
    /// Spanning-tree depth constraint; `None` = unconstrained. Table 1
    /// uses `Some(3)`.
    pub max_depth: Option<u32>,
    /// SEED network realization.
    pub seed_optimizer: SeedOptimizer,
}

impl Default for MrpConfig {
    fn default() -> Self {
        MrpConfig {
            repr: Repr::Spt,
            beta: 0.5,
            max_shift: None,
            max_depth: None,
            seed_optimizer: SeedOptimizer::Direct,
        }
    }
}

/// Adder accounting of one optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrpStats {
    /// Adders inside the SEED multiplication network.
    pub seed_adders: usize,
    /// Overhead-network adders (one per non-root, non-free primary).
    pub overhead_adders: usize,
    /// Number of SEED roots (tree roots).
    pub roots: usize,
    /// Number of selected colors.
    pub colors: usize,
    /// Tallest spanning tree.
    pub tree_height: u32,
    /// Adder depth of the deepest node in the realized block (the
    /// critical path of the multiplier network). Filled in by
    /// [`MrpOptimizer::optimize`]; intermediate builders leave it 0.
    pub critical_path: u32,
}

/// Output of [`MrpOptimizer::optimize`].
#[derive(Debug, Clone)]
pub struct MrpResult {
    /// The multiplier block; outputs are registered per original
    /// coefficient, labeled `c0, c1, …`, and verified bit-exact.
    pub graph: AdderGraph,
    /// One producing term per original coefficient.
    pub outputs: Vec<Term>,
    /// Coefficient values of the tree roots (SEED members).
    pub seed_roots: Vec<i64>,
    /// Selected colors (SEED members).
    pub seed_colors: Vec<i64>,
    /// Accounting.
    pub stats: MrpStats,
}

impl MrpResult {
    /// Total adders in the multiplier block.
    pub fn total_adders(&self) -> usize {
        self.graph.adder_count()
    }

    /// SEED size as Table 1 reports it: `(roots, solution set)`.
    pub fn seed_size(&self) -> (usize, usize) {
        (self.seed_roots.len(), self.seed_colors.len())
    }
}

/// The MRP optimizer.
///
/// # Examples
///
/// The paper's worked 8-tap example, end to end: optimize the
/// coefficient vector with the Table 1 settings (depth ≤ 3, CSE over the
/// SEED network), wrap the resulting multiplier block in the
/// transposed-direct-form filter, and check that a unit impulse through
/// the realized hardware model replays the coefficients exactly.
///
/// ```
/// use mrp_arch::FirFilter;
/// use mrp_core::{MrpConfig, MrpOptimizer, SeedOptimizer};
///
/// let coeffs = [70i64, 66, 17, 9, 27, 41, 56, 11];
/// let mut cfg = MrpConfig::default();
/// cfg.max_depth = Some(3);
/// cfg.seed_optimizer = SeedOptimizer::Cse;
/// let result = MrpOptimizer::new(cfg).optimize(&coeffs)?;
/// assert!(result.total_adders() > 0);
///
/// let filter = FirFilter::new(result.graph);
/// let mut impulse = vec![0i64; coeffs.len()];
/// impulse[0] = 1;
/// assert_eq!(filter.filter(&impulse), coeffs);
/// # Ok::<(), mrp_core::MrpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MrpOptimizer {
    config: MrpConfig,
}

impl MrpOptimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: MrpConfig) -> Self {
        MrpOptimizer { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &MrpConfig {
        &self.config
    }

    /// Optimizes a coefficient vector into a verified multiplier block.
    ///
    /// # Errors
    ///
    /// * [`MrpError::Empty`] / [`MrpError::CoefficientTooLarge`] from
    ///   normalization;
    /// * [`MrpError::BadConfig`] for β outside `[0, 1]`;
    /// * [`MrpError::Arch`] on (practically unreachable) overflow.
    pub fn optimize(&self, coeffs: &[i64]) -> Result<MrpResult, MrpError> {
        let _span = mrp_obs::span("core.optimize");
        if !(0.0..=1.0).contains(&self.config.beta) {
            return Err(MrpError::BadConfig(format!(
                "beta {} outside [0, 1]",
                self.config.beta
            )));
        }
        let set = CoeffSet::new(coeffs)?;
        let mut graph = AdderGraph::new();
        let recursion = match self.config.seed_optimizer {
            SeedOptimizer::Recursive { levels } => levels.min(4),
            _ => 0,
        };
        let built = realize_vector(&mut graph, set.primaries(), &self.config, recursion)?;
        // Map original coefficients onto the primary terms.
        let outputs = crate::flat::attach_outputs(&mut graph, &set, &built.terms);
        debug_assert_eq!(
            graph.verify_outputs(&[-3, -1, 0, 1, 2, 7, 100]),
            None,
            "generated MRP network is not bit-exact"
        );
        // Debug builds run the full static analyzer over every netlist the
        // optimizer emits. Errors (broken structure, wrong coefficients,
        // stale depth caches) are optimizer bugs; warnings (missed sharing
        // on adversarial inputs) are quality hints and stay non-fatal.
        #[cfg(debug_assertions)]
        {
            let report = mrp_lint::lint_graph(&graph, &mrp_lint::LintConfig::default());
            debug_assert!(
                !report.has_errors(),
                "optimizer produced a netlist that fails lint:\n{}",
                report.render_pretty()
            );
        }
        let mut stats = built.stats;
        stats.critical_path = graph.max_depth();
        mrp_obs::counter_add("core.adders", graph.adder_count() as u64);
        mrp_obs::gauge_set("core.seed.roots", stats.roots as f64);
        mrp_obs::gauge_set("core.seed.colors", stats.colors as f64);
        mrp_obs::gauge_set("core.critical_path", stats.critical_path as f64);
        Ok(MrpResult {
            graph,
            outputs,
            seed_roots: built.seed_roots,
            seed_colors: built.seed_colors,
            stats,
        })
    }
}

struct BuiltVector {
    terms: Vec<Term>,
    seed_roots: Vec<i64>,
    seed_colors: Vec<i64>,
    stats: MrpStats,
}

/// Realizes every value of `values` (positive odd, distinct) in `graph`,
/// returning one producing term per value. `recursion` counts remaining
/// recursive-MRP levels for the SEED network.
fn realize_vector(
    graph: &mut AdderGraph,
    values: &[i64],
    config: &MrpConfig,
    recursion: u32,
) -> Result<BuiltVector, MrpError> {
    debug_assert!(values.iter().all(|&v| v > 0 && v % 2 == 1));
    // Degenerate/small vectors: MRP needs at least two vertices to share.
    if values.len() < 2 {
        let before = graph.adder_count();
        let terms = realize_direct(graph, values, config)?;
        let adders = graph.adder_count() - before;
        return Ok(BuiltVector {
            terms,
            seed_roots: values.to_vec(),
            seed_colors: Vec::new(),
            stats: MrpStats {
                seed_adders: adders,
                overhead_adders: 0,
                roots: values.len(),
                colors: 0,
                tree_height: 0,
                critical_path: 0,
            },
        });
    }

    let max_shift = config.max_shift.unwrap_or_else(|| {
        let max = values.iter().copied().max().unwrap_or(1);
        (64 - (max as u64).leading_zeros() + 1).clamp(4, 26)
    });
    let (cover, cover_edges) = {
        let color_graph = {
            let _span = mrp_obs::span("core.graph");
            ColorGraph::build(values, max_shift, config.repr)
        };
        let cover = select_colors(&color_graph, values, config.beta);
        let _span = mrp_obs::span("core.graph");
        let cover_edges = color_graph.cover_edges(&cover.class_indices);
        (cover, cover_edges)
    };
    let max_depth = config.max_depth.unwrap_or(u32::MAX);
    let forest = build_forest(values.len(), &cover_edges, &cover, max_depth, |v| {
        nonzero_digits(values[v], config.repr)
    });

    // SEED vector: root coefficients ∪ colors actually used by tree edges
    // or free vertices (a selected color that no surviving edge uses is
    // dropped — promoting roots can orphan colors).
    let used_colors: Vec<i64> = {
        let mut used: Vec<i64> = forest.edges.iter().map(|te| te.edge.color).collect();
        used.extend(
            cover
                .free_vertices
                .iter()
                .map(|&v| values[v])
                .filter(|c| cover.colors.contains(c)),
        );
        used.sort_unstable();
        used.dedup();
        used
    };
    let seed_root_values: Vec<i64> = forest.roots.iter().map(|&v| values[v]).collect();
    let mut seed_values: Vec<i64> = seed_root_values.clone();
    seed_values.extend(used_colors.iter().copied());
    seed_values.sort_unstable();
    seed_values.dedup();

    // Profitability guard: on small or adversarial vectors the MRP
    // decomposition can cost more than realizing the whole vector flat —
    // directly, or via CSE when CSE is the configured SEED compressor.
    // MRPI is a transformation to apply when profitable (§4), so compare
    // analytic costs and fall back to the flat realization when it wins.
    // Each CSE result prices its vector and then builds it.
    let cse_of = |v: &[i64]| (config.seed_optimizer == SeedOptimizer::Cse).then(|| hartley_cse(v));
    let seed_cse = cse_of(&seed_values);
    let flat_cse = cse_of(values);
    let seed_cost_estimate = match &seed_cse {
        Some(cse) => cse.adders(),
        None => graph_cost(&seed_values, config.repr),
    };
    let mrp_estimate = seed_cost_estimate + forest.edges.len();
    let flat_estimate = match &flat_cse {
        Some(cse) => cse.adders(),
        None => graph_cost(values, config.repr),
    };
    if flat_estimate <= mrp_estimate {
        let before = graph.adder_count();
        let terms = match &flat_cse {
            Some(cse) => cse.build_into(graph).map_err(MrpError::from)?,
            None => realize_direct(graph, values, config)?,
        };
        return Ok(BuiltVector {
            terms,
            seed_roots: values.to_vec(),
            seed_colors: Vec::new(),
            stats: MrpStats {
                seed_adders: graph.adder_count() - before,
                overhead_adders: 0,
                roots: values.len(),
                colors: 0,
                tree_height: 0,
                critical_path: 0,
            },
        });
    }

    // Realize the SEED multiplication network.
    let before_seed = graph.adder_count();
    let seed_span = mrp_obs::span("core.realize.seed");
    let seed_terms: Vec<Term> = match (&seed_cse, config.seed_optimizer, recursion) {
        (Some(cse), _, _) => cse.build_into(graph).map_err(MrpError::from)?,
        (None, SeedOptimizer::Recursive { .. }, r) if r > 0 => {
            let inner = realize_vector(graph, &seed_values, config, r - 1)?;
            inner.terms
        }
        _ => realize_direct(graph, &seed_values, config)?,
    };
    drop(seed_span);
    let seed_adders = graph.adder_count() - before_seed;
    let seed_term_of = |value: i64| -> Result<Term, MrpError> {
        let idx = seed_values
            .iter()
            .position(|&v| v == value)
            .ok_or_else(|| {
                MrpError::MalformedCover(format!(
                    "SEED value {value} missing from the realized SEED vector {seed_values:?}"
                ))
            })?;
        Ok(seed_terms[idx])
    };

    // Overhead add network, in topological (BFS) order.
    let overhead_span = mrp_obs::span("core.realize.overhead");
    let before_overhead = graph.adder_count();
    let mut vertex_terms: Vec<Option<Term>> = vec![None; values.len()];
    for &r in &forest.roots {
        vertex_terms[r] = Some(seed_term_of(values[r])?);
    }
    // An edge's vertex value can already exist in the graph (as a SEED
    // chain partial, or a shift of another realized value); reusing the
    // node drops the overhead adder. The guard: skipping an edge must not
    // orphan its realized color node — a color stays live if its term is
    // the input (free shifts), some free vertex consumes it, another edge
    // has already consumed it, or other edges still want it.
    let mut color_pending: HashMap<i64, usize> = HashMap::new();
    for te in &forest.edges {
        *color_pending.entry(te.edge.color).or_default() += 1;
    }
    let mut color_live: HashSet<i64> = HashSet::new();
    for &v in &forest.free_vertices {
        if vertex_terms[v].is_none() {
            // values[v] equals a used color (odd = odd), shift 0.
            vertex_terms[v] = Some(seed_term_of(values[v])?);
            color_live.insert(values[v]);
        }
    }
    let input = graph.input();
    for te in &forest.edges {
        let e = te.edge;
        let color_term = seed_term_of(e.color)?;
        let pending = color_pending.get_mut(&e.color).ok_or_else(|| {
            MrpError::MalformedCover(format!(
                "tree edge uses color {} that was never counted in the cover",
                e.color
            ))
        })?;
        *pending -= 1;
        let color_safe = color_term.node == input
            || color_live.contains(&e.color)
            || color_pending[&e.color] > 0;
        if color_safe {
            if let Some(t) = graph.find_shift_of(values[te.vertex]) {
                vertex_terms[te.vertex] = Some(t);
                continue;
            }
        }
        color_live.insert(e.color);
        let parent = vertex_terms[e.from].ok_or_else(|| {
            MrpError::MalformedCover(format!(
                "tree edge {} -> {} visited before its parent was realized \
                 (forest not in topological order)",
                e.from, te.vertex
            ))
        })?;
        let lhs = Term {
            node: parent.node,
            shift: parent.shift + e.base_shift,
            negate: parent.negate != e.base_negate,
        };
        let rhs = Term {
            node: color_term.node,
            shift: color_term.shift + e.color_shift,
            negate: color_term.negate != e.color_negate,
        };
        let node = graph.add(lhs, rhs)?;
        debug_assert_eq!(graph.value(node), values[te.vertex], "tree edge mismatch");
        vertex_terms[te.vertex] = Some(Term::of(node));
    }
    let overhead_adders = graph.adder_count() - before_overhead;
    drop(overhead_span);

    Ok(BuiltVector {
        terms: vertex_terms
            .into_iter()
            .enumerate()
            .map(|(v, t)| {
                t.ok_or_else(|| {
                    MrpError::MalformedCover(format!(
                        "primary vertex {v} (value {}) was never realized by the forest",
                        values[v]
                    ))
                })
            })
            .collect::<Result<Vec<Term>, MrpError>>()?,
        seed_roots: seed_root_values,
        seed_colors: used_colors.clone(),
        stats: MrpStats {
            seed_adders,
            overhead_adders,
            roots: forest.roots.len(),
            colors: used_colors.len(),
            tree_height: forest.height,
            critical_path: 0,
        },
    })
}

/// Realizes each value independently — digit recoding plus the exact
/// two-adder SCM plans, with free reuse of shifts already in the graph.
fn realize_direct(
    graph: &mut AdderGraph,
    values: &[i64],
    config: &MrpConfig,
) -> Result<Vec<Term>, MrpError> {
    values
        .iter()
        .map(|&v| {
            graph
                .build_constant_optimal(v, config.repr)
                .map_err(MrpError::from)
        })
        .collect()
}

/// Analytic adder cost of realizing `values` independently.
fn graph_cost(values: &[i64], repr: Repr) -> usize {
    values
        .iter()
        .map(|&v| nonzero_digits(v, repr).saturating_sub(1) as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_cse::simple_adder_count;

    const PAPER: [i64; 8] = [70, 66, 17, 9, 27, 41, 56, 11];

    fn optimize(coeffs: &[i64], cfg: MrpConfig) -> MrpResult {
        let r = MrpOptimizer::new(cfg).optimize(coeffs).unwrap();
        // Verify bit-exactness on a spread of inputs (release builds skip
        // the internal debug_assert).
        assert_eq!(r.graph.verify_outputs(&[-9, -1, 0, 1, 5, 333, 4096]), None);
        r
    }

    #[test]
    fn paper_example_beats_simple() {
        let r = optimize(&PAPER, MrpConfig::default());
        let simple = simple_adder_count(&PAPER, Repr::Spt);
        assert!(
            r.total_adders() < simple,
            "MRP {} >= simple {simple}",
            r.total_adders()
        );
    }

    #[test]
    fn paper_example_seed_regime() {
        // Paper: SEED = {70, 66, 3, 5} — 2 roots, 2 colors, height 2.
        let r = optimize(&PAPER, MrpConfig::default());
        let (roots, colors) = r.seed_size();
        assert!(roots <= 3, "roots {:?}", r.seed_roots);
        assert!(colors <= 3, "colors {:?}", r.seed_colors);
        assert!(r.stats.tree_height <= 4);
    }

    #[test]
    fn outputs_cover_all_original_coefficients() {
        let coeffs = [0i64, 8, -70, 66, 17, 34, 9, -9];
        let r = optimize(&coeffs, MrpConfig::default());
        assert_eq!(r.outputs.len(), coeffs.len());
        for (i, &c) in coeffs.iter().enumerate() {
            if c != 0 {
                assert_eq!(
                    r.graph.evaluate_term(r.outputs[i], 7).unwrap(),
                    c * 7,
                    "c[{i}]"
                );
            }
        }
    }

    #[test]
    fn depth_constraint_limits_height() {
        let coeffs: Vec<i64> = (1..40).map(|k| 2 * k + 1).collect();
        for d in [1u32, 2, 3] {
            let cfg = MrpConfig {
                max_depth: Some(d),
                ..MrpConfig::default()
            };
            let r = optimize(&coeffs, cfg);
            assert!(r.stats.tree_height <= d);
        }
    }

    #[test]
    fn tighter_depth_grows_seed() {
        let coeffs: Vec<i64> = (1..60).map(|k| (3 * k * k + 7 * k + 1) | 1).collect();
        let tight_cfg = MrpConfig {
            max_depth: Some(1),
            ..MrpConfig::default()
        };
        let loose_cfg = MrpConfig {
            max_depth: Some(8),
            ..MrpConfig::default()
        };
        let tight = optimize(&coeffs, tight_cfg);
        let loose = optimize(&coeffs, loose_cfg);
        assert!(tight.seed_roots.len() >= loose.seed_roots.len());
    }

    #[test]
    fn cse_on_seed_never_hurts_much() {
        let coeffs: Vec<i64> = (1..50).map(|k| (k * k * 13 + k * 5 + 3) | 1).collect();
        let direct = optimize(&coeffs, MrpConfig::default());
        let cse_cfg = MrpConfig {
            seed_optimizer: SeedOptimizer::Cse,
            ..MrpConfig::default()
        };
        let with_cse = optimize(&coeffs, cse_cfg);
        assert!(
            with_cse.total_adders() <= direct.total_adders(),
            "MRP+CSE {} vs MRP {}",
            with_cse.total_adders(),
            direct.total_adders()
        );
    }

    #[test]
    fn recursive_seed_works() {
        let coeffs: Vec<i64> = (1..64).map(|k| (k * 37 + 11) | 1).collect();
        let cfg = MrpConfig {
            seed_optimizer: SeedOptimizer::Recursive { levels: 2 },
            ..MrpConfig::default()
        };
        let r = optimize(&coeffs, cfg);
        assert!(r.total_adders() > 0);
    }

    #[test]
    fn handles_trivial_vectors() {
        for coeffs in [vec![1i64], vec![0, 2, 4], vec![7], vec![7, 14, 28]] {
            let r = optimize(&coeffs, MrpConfig::default());
            assert_eq!(r.outputs.len(), coeffs.len());
        }
    }

    #[test]
    fn rejects_bad_beta() {
        let cfg = MrpConfig {
            beta: 2.0,
            ..MrpConfig::default()
        };
        assert!(matches!(
            MrpOptimizer::new(cfg).optimize(&PAPER),
            Err(MrpError::BadConfig(_))
        ));
    }

    #[test]
    fn sm_representation_also_works() {
        let cfg = MrpConfig {
            repr: Repr::SignMagnitude,
            ..MrpConfig::default()
        };
        let r = optimize(&PAPER, cfg);
        assert!(r.total_adders() < 20);
    }

    #[test]
    fn stats_sum_to_total() {
        let r = optimize(&PAPER, MrpConfig::default());
        assert_eq!(
            r.stats.seed_adders + r.stats.overhead_adders,
            r.total_adders()
        );
    }
}
