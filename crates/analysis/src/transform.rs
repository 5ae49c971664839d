//! Structural transforms: automatic pipelining and register retiming.
//!
//! Both transforms preserve the combinational structure (they never move
//! an adder, only the stage boundaries around it), so coefficient
//! correctness reduces to the latency-adjusted equivalence check on the
//! resulting [`PipelinedNetlist`]. Both are deterministic: node order and
//! candidate order are fixed, and ties never move a register.

use mrp_arch::PipelinedNetlist;

use crate::analyses::Depth;
use crate::manager::Analyzer;

/// Before/after summary a transform reports alongside its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformDelta {
    /// Combinational critical path of the input graph (adder stages).
    pub combinational_depth: u32,
    /// Deepest within-stage adder chain after the transform.
    pub stage_depth: u32,
    /// Pipeline latency in cycles.
    pub latency: u32,
    /// Pipeline registers before retiming (straight depth slicing).
    pub registers_before: usize,
    /// Pipeline registers after retiming.
    pub registers_after: usize,
    /// Accepted retiming moves.
    pub retime_moves: usize,
}

/// Slices the graph into pipeline stages of at most `max_stage_depth`
/// adders: an adder at recomputed depth `d` lands in stage
/// `(d - 1) / max_stage_depth`, the input in stage 0. The result is
/// legal by construction and has latency
/// `ceil(combinational_depth / max_stage_depth) - 1` boundaries.
///
/// # Panics
///
/// Panics if `max_stage_depth` is 0.
pub fn pipeline_by_depth(az: &Analyzer<'_>, max_stage_depth: u32) -> PipelinedNetlist {
    assert!(max_stage_depth >= 1, "stage depth must be at least 1");
    let _span = mrp_obs::span("transform.pipeline");
    let depth = az.get_analysis::<Depth>();
    let stages = depth
        .depths
        .iter()
        .map(|&d| if d == 0 { 0 } else { (d - 1) / max_stage_depth })
        .collect();
    PipelinedNetlist::new(az.graph().clone(), stages)
}

/// Greedy register retiming: repeatedly tries moving each adder one
/// stage earlier or later (in node index order, earlier first) and keeps
/// the move iff the assignment stays legal — including the
/// `max_stage_depth` bound — and the total register count strictly
/// drops. Runs to a fixpoint; latency is preserved. Returns the number
/// of accepted moves.
pub fn retime(net: &mut PipelinedNetlist, max_stage_depth: u32) -> usize {
    let _span = mrp_obs::span("transform.retime");
    let mut moves = 0usize;
    loop {
        let mut improved = false;
        for n in 1..net.stages.len() {
            for delta in [-1i64, 1] {
                let old = net.stages[n];
                let cand = old as i64 + delta;
                if cand < 0 || cand > net.latency as i64 {
                    continue;
                }
                let before = net.register_count();
                net.stages[n] = cand as u32;
                net.recompute_registers();
                if net.is_legal(Some(max_stage_depth)) && net.register_count() < before {
                    moves += 1;
                    improved = true;
                } else {
                    net.stages[n] = old;
                    net.recompute_registers();
                }
            }
        }
        if !improved {
            return moves;
        }
    }
}

/// The full transform: depth-slice into stages of at most
/// `max_stage_depth` adders, then retime registers away. Returns the
/// netlist plus its [`TransformDelta`].
///
/// The caller owns acceptance: run the pipelined lint and the
/// latency-adjusted equivalence check before using the result.
///
/// # Panics
///
/// Panics if `max_stage_depth` is 0.
pub fn pipeline_and_retime(
    az: &Analyzer<'_>,
    max_stage_depth: u32,
) -> (PipelinedNetlist, TransformDelta) {
    let combinational_depth = az.get_analysis::<Depth>().max;
    let mut net = pipeline_by_depth(az, max_stage_depth);
    let registers_before = net.register_count();
    let retime_moves = retime(&mut net, max_stage_depth);
    let delta = TransformDelta {
        combinational_depth,
        stage_depth: net.critical_stage_depth(),
        latency: net.latency,
        registers_before,
        registers_after: net.register_count(),
        retime_moves,
    };
    (net, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::AnalysisContext;
    use mrp_arch::{AdderGraph, Term};

    /// A deep chain plus a shallow side node with high fanout.
    fn deep() -> AdderGraph {
        let mut g = AdderGraph::new();
        let x = g.input();
        let mut prev = x;
        for _ in 0..6 {
            prev = g.add(Term::shifted(prev, 1), Term::of(x)).unwrap();
        }
        g.push_output("c0", Term::of(prev), g.value(prev));
        g
    }

    #[test]
    fn depth_slicing_is_legal_and_bounds_stage_depth() {
        let g = deep();
        let az = Analyzer::new(&g, AnalysisContext::default());
        for m in 1..=6 {
            let net = pipeline_by_depth(&az, m);
            assert!(net.is_legal(Some(m)), "m={m}");
            assert_eq!(net.latency, 6_u32.div_ceil(m) - 1, "m={m}");
            assert_eq!(
                net.verify_outputs_latency_adjusted(&[-3, -1, 0, 1, 2, 7, 100]),
                None,
                "m={m}"
            );
        }
    }

    #[test]
    fn retime_never_increases_registers_and_stays_equivalent() {
        let g = deep();
        let az = Analyzer::new(&g, AnalysisContext::default());
        let mut net = pipeline_by_depth(&az, 2);
        let before = net.register_count();
        let latency = net.latency;
        retime(&mut net, 2);
        assert!(net.register_count() <= before);
        assert_eq!(net.latency, latency);
        assert!(net.is_legal(Some(2)));
        assert_eq!(
            net.verify_outputs_latency_adjusted(&[-3, -1, 0, 1, 2, 7, 100]),
            None
        );
    }

    #[test]
    fn retime_finds_an_obvious_win() {
        // x -> a (stage 0), consumed only in stage 1 by b and c: placing
        // a in stage 1 saves its boundary register (x is registered
        // anyway). Build the bad assignment by hand.
        let mut g = AdderGraph::new();
        let x = g.input();
        let a = g.add(Term::shifted(x, 1), Term::of(x)).unwrap(); // 3
        let b = g.add(Term::shifted(a, 2), Term::of(x)).unwrap(); // 13
        let c = g.add(Term::shifted(a, 3), Term::negated(x)).unwrap(); // 23
        g.push_output("c0", Term::of(b), 13);
        g.push_output("c1", Term::of(c), 23);
        let mut net = PipelinedNetlist::new(g, vec![0, 0, 1, 1]);
        assert_eq!(net.register_count(), 2); // x and a cross boundary 1
        let moves = retime(&mut net, 2);
        assert_eq!(moves, 1);
        assert_eq!(net.stages, vec![0, 1, 1, 1]);
        assert_eq!(net.register_count(), 1); // only x crosses
        assert_eq!(
            net.verify_outputs_latency_adjusted(&[-3, -1, 0, 1, 2, 7, 100]),
            None
        );
    }

    #[test]
    fn pipeline_and_retime_reports_the_delta() {
        let g = deep();
        let az = Analyzer::new(&g, AnalysisContext::default());
        let (net, delta) = pipeline_and_retime(&az, 3);
        assert_eq!(delta.combinational_depth, 6);
        assert!(delta.stage_depth <= 3);
        assert_eq!(delta.latency, net.latency);
        assert!(delta.registers_after <= delta.registers_before);
        assert_eq!(delta.registers_after, net.register_count());
    }
}
