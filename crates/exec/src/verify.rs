//! Compiled-path equivalence checks — the drop-in counterparts of the
//! tree-walk gates [`mrp_arch::AdderGraph::verify_outputs`] and
//! [`mrp_arch::PipelinedNetlist::verify_outputs_latency_adjusted`].
//!
//! These run the *compiled* program and compare against the exact
//! constant-multiple reference in `i128`, so a wrap in the interpreter
//! (or a lowering bug) reads as a mismatch. Accept gates run both the
//! tree-walk and the compiled check: the tree-walk evaluator stays the
//! differential oracle, and the compiled path is what production
//! re-simulation uses at scale.

use crate::{compile_block, compile_pipelined, Machine};
use mrp_arch::{AdderGraph, PipelinedNetlist};

/// Checks every nonzero output of the compiled multiplier block equals
/// `expected · x` for each sample. Returns the first failing
/// `(label, x)`, or `None` when every output matches.
///
/// # Examples
///
/// ```
/// use mrp_arch::{AdderGraph, Term};
/// use mrp_exec::verify_block_compiled;
///
/// let mut g = AdderGraph::new();
/// let x = g.input();
/// let three = g.add(Term::shifted(x, 1), Term::of(x))?;
/// g.push_output("c0", Term::of(three), 3);
/// assert_eq!(verify_block_compiled(&g, &[-3, 0, 7, 100]), None);
///
/// g.push_output("bad", Term::of(three), 5); // claims 5x, computes 3x
/// assert_eq!(
///     verify_block_compiled(&g, &[-3, 0, 7, 100]),
///     Some(("bad".to_string(), -3)),
/// );
/// # Ok::<(), mrp_arch::ArchError>(())
/// ```
pub fn verify_block_compiled(graph: &AdderGraph, samples: &[i64]) -> Option<(String, i64)> {
    let mut machine = Machine::new(compile_block(graph));
    let outs = machine.run(samples);
    for (o, got) in graph.outputs().iter().zip(&outs) {
        if o.expected == 0 {
            continue;
        }
        for (&x, &y) in samples.iter().zip(got) {
            if y as i128 != o.expected as i128 * x as i128 {
                return Some((o.label.clone(), x));
            }
        }
    }
    None
}

/// Latency-adjusted compiled check for a pipelined netlist: streams
/// `samples` (plus `latency` zeros to drain the pipe) through the
/// compiled program and requires every nonzero output at cycle `t` to
/// equal `expected · x(t − latency)` (zero while the pipe fills).
/// Returns the first failing `(label, x)`, or `None`.
pub fn verify_pipelined_compiled(net: &PipelinedNetlist, samples: &[i64]) -> Option<(String, i64)> {
    let l = net.latency as usize;
    let mut machine = Machine::new(compile_pipelined(net));
    let mut input = samples.to_vec();
    input.resize(samples.len() + l, 0);
    let outs = machine.run(&input);
    let feed = |t: usize| samples.get(t).copied().unwrap_or(0);
    for (o, got) in net.graph.outputs().iter().zip(&outs) {
        if o.expected == 0 {
            continue;
        }
        for (t, &y) in got.iter().enumerate() {
            let x_ref = if t >= l { feed(t - l) } else { 0 };
            if y as i128 != o.expected as i128 * x_ref as i128 {
                return Some((o.label.clone(), x_ref));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_arch::Term;

    fn chain() -> AdderGraph {
        let mut g = AdderGraph::new();
        let x = g.input();
        let a = g.add(Term::shifted(x, 3), Term::negated(x)).unwrap();
        let b = g.add(Term::shifted(a, 2), Term::of(x)).unwrap();
        g.push_output("c0", Term::of(a), 7);
        g.push_output("c1", Term::of(b), 29);
        g
    }

    #[test]
    fn clean_block_passes_both_paths() {
        let g = chain();
        let samples = [-3i64, -1, 0, 1, 2, 7, 100];
        assert_eq!(g.verify_outputs(&samples), None);
        assert_eq!(verify_block_compiled(&g, &samples), None);
    }

    fn pipeline(g: &AdderGraph) -> PipelinedNetlist {
        let az = mrp_analysis::Analyzer::new(g, mrp_analysis::AnalysisContext::default());
        mrp_analysis::pipeline_and_retime(&az, 1).0
    }

    #[test]
    fn pipelined_check_agrees_with_tree_walk() {
        let g = chain();
        let net = pipeline(&g);
        let samples = [-3i64, -1, 0, 1, 2, 7, 100];
        assert_eq!(net.verify_outputs_latency_adjusted(&samples), None);
        assert_eq!(verify_pipelined_compiled(&net, &samples), None);
    }

    #[test]
    fn broken_register_placement_is_caught() {
        let g = chain();
        let mut net = pipeline(&g);
        // Drop one real register: the wire-through skews the timing and
        // both the tree-walk and the compiled check must notice.
        let dropped =
            (0..net.graph.len()).any(|n| (1..=net.latency).any(|b| net.drop_register(n, b)));
        assert!(dropped, "expected at least one register to drop");
        let samples = [-3i64, -1, 0, 1, 2, 7, 100];
        let tree = net.verify_outputs_latency_adjusted(&samples);
        let compiled = verify_pipelined_compiled(&net, &samples);
        assert_eq!(tree.is_some(), compiled.is_some());
        assert!(compiled.is_some(), "dropped register must not verify");
    }

    #[test]
    fn empty_samples_trivially_pass() {
        let g = chain();
        assert_eq!(verify_block_compiled(&g, &[]), None);
    }
}
