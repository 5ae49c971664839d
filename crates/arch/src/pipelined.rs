//! Pipelined netlists: an adder graph plus a stage assignment.
//!
//! Every node is assigned a pipeline stage, and every signal that crosses
//! a stage boundary owns a register per boundary crossed. The structure
//! is cycle-accurate — [`PipelinedNetlist::step`] evaluates one clock
//! edge, and [`PipelinedNetlist::verify_outputs_latency_adjusted`]
//! replays the combinational verification samples against a
//! latency-shifted reference, which is the equivalence gate retiming and
//! pipelining transforms must pass. [`crate::emit_verilog_pipelined`]
//! writes the same netlist as clocked RTL.
//!
//! Register bookkeeping is deliberately explicit (and mutable): a
//! *missing* register wires the signal through combinationally, exactly
//! like the hardware bug it models, so a mis-registered netlist fails the
//! latency-adjusted equivalence check instead of being unrepresentable.

use crate::netlist::{AdderGraph, Node, Term};

/// An adder graph with a pipeline stage per node and explicit registers.
///
/// Node `n` is computed combinationally in stage `stages[n]`. Boundary
/// `b` (for `b` in `1..=latency`) sits between stages `b - 1` and `b`;
/// a consumer in stage `t` reading a producer in stage `s` needs the
/// producer registered at every boundary `s+1..=t`. Outputs are sampled
/// after the last stage, i.e. at boundary `latency`, so the block
/// computes `y[t] = c · x[t - latency]`.
#[derive(Debug, Clone)]
pub struct PipelinedNetlist {
    /// The combinational structure.
    pub graph: AdderGraph,
    /// Pipeline stage per node, index = node index.
    pub stages: Vec<u32>,
    /// Number of pipeline boundaries (output latency in cycles).
    pub latency: u32,
    /// Boundary indices at which each node owns a register, sorted.
    pub registered: Vec<Vec<u32>>,
}

impl PipelinedNetlist {
    /// Builds a pipelined netlist from a graph and a stage assignment,
    /// deriving the latency (deepest stage) and the full register set.
    ///
    /// # Panics
    ///
    /// Panics if `stages` does not have one entry per node.
    pub fn new(graph: AdderGraph, stages: Vec<u32>) -> Self {
        assert_eq!(stages.len(), graph.len(), "one stage per node");
        let latency = stages.iter().copied().max().unwrap_or(0);
        let mut net = PipelinedNetlist {
            graph,
            stages,
            latency,
            registered: Vec::new(),
        };
        net.recompute_registers();
        net
    }

    /// Recomputes the register set from the current stage assignment,
    /// keeping `latency` as-is (retiming preserves latency; use
    /// [`PipelinedNetlist::new`] to re-derive it).
    pub fn recompute_registers(&mut self) {
        let n = self.graph.len();
        let words = self.latency as usize + 1;
        let mut need = vec![false; n * words];
        let mut cross = |src: usize, from: u32, to: u32| {
            for b in (from + 1)..=to {
                need[src * words + b as usize] = true;
            }
        };
        for (i, node) in self.graph.nodes().iter().enumerate() {
            if let Node::Add { lhs, rhs } = node {
                for t in [lhs, rhs] {
                    let j = t.node.index();
                    if j < i && self.stages[j] <= self.stages[i] {
                        cross(j, self.stages[j], self.stages[i]);
                    }
                }
            }
        }
        for o in self.graph.outputs() {
            let j = o.term.node.index();
            if o.expected != 0 && j < n && self.stages[j] <= self.latency {
                cross(j, self.stages[j], self.latency);
            }
        }
        self.registered = (0..n)
            .map(|i| {
                (1..=self.latency)
                    .filter(|&b| need[i * words + b as usize])
                    .collect()
            })
            .collect();
    }

    /// Total number of pipeline registers (fanout shares them: one
    /// register per signal per boundary, however many consumers).
    pub fn register_count(&self) -> usize {
        self.registered.iter().map(Vec::len).sum()
    }

    /// Combinational adder depth of every node *within its stage*.
    pub fn stage_depths(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.graph.len()];
        for (i, node) in self.graph.nodes().iter().enumerate() {
            if let Node::Add { lhs, rhs } = node {
                let of = |t: &Term| {
                    let j = t.node.index();
                    if j < i && self.stages[j] == self.stages[i] {
                        d[j]
                    } else {
                        0
                    }
                };
                d[i] = 1 + of(lhs).max(of(rhs));
            }
        }
        d
    }

    /// The deepest within-stage adder chain — the pipelined critical path.
    pub fn critical_stage_depth(&self) -> u32 {
        self.stage_depths().iter().copied().max().unwrap_or(0)
    }

    /// Structural legality of the stage assignment: the input sits in
    /// stage 0, no stage exceeds the latency, and no adder consumes a
    /// value from a *later* stage (which would need a value before it is
    /// produced — an illegal retiming cycle). When `max_stage_depth` is
    /// given, every stage's combinational depth must also stay within it.
    pub fn is_legal(&self, max_stage_depth: Option<u32>) -> bool {
        if self.stages.len() != self.graph.len() {
            return false;
        }
        if let Some(&s0) = self.stages.first() {
            if s0 != 0 {
                return false;
            }
        }
        if self.stages.iter().any(|&s| s > self.latency) {
            return false;
        }
        for (i, node) in self.graph.nodes().iter().enumerate() {
            if let Node::Add { lhs, rhs } = node {
                for t in [lhs, rhs] {
                    let j = t.node.index();
                    if j >= i || self.stages[j] > self.stages[i] {
                        return false;
                    }
                }
            }
        }
        match max_stage_depth {
            Some(m) => m >= 1 && self.critical_stage_depth() <= m,
            None => true,
        }
    }

    /// Removes one register (for fault-injection in tests and for the
    /// `MRP040` unregistered-crossing lint to have something to catch).
    /// Returns whether the register existed.
    pub fn drop_register(&mut self, node: usize, boundary: u32) -> bool {
        let Some(regs) = self.registered.get_mut(node) else {
            return false;
        };
        match regs.iter().position(|&b| b == boundary) {
            Some(k) => {
                regs.remove(k);
                true
            }
            None => false,
        }
    }

    /// Fresh all-zero register state for [`PipelinedNetlist::step`].
    pub fn new_state(&self) -> Vec<i64> {
        vec![0; self.graph.len() * (self.latency as usize + 1)]
    }

    /// Evaluates one clock edge: feeds `x` into stage 0 and returns the
    /// output values sampled after the last stage (one per registered
    /// output, `0` for `expected = 0` placeholders).
    ///
    /// `state` holds, per node, its value at each pipeline position
    /// `0..=latency`; registers sample the *previous* cycle's value one
    /// boundary earlier, while a position without a register wires the
    /// *current* value through — a missing register therefore skews the
    /// timing exactly as it would in hardware. Arithmetic wraps on `i64`
    /// overflow; the equivalence check compares against an exact `i128`
    /// reference, so overflow reads as a mismatch, never a false pass.
    pub fn step(&self, state: &mut Vec<i64>, x: i64) -> Vec<i64> {
        let w = self.latency as usize + 1;
        debug_assert_eq!(state.len(), self.graph.len() * w);
        let prev = std::mem::take(state);
        let mut cur = vec![0i64; prev.len()];
        for (i, node) in self.graph.nodes().iter().enumerate() {
            let s = self.stages[i] as usize;
            cur[i * w + s] = match node {
                Node::Input => x,
                Node::Add { lhs, rhs } => {
                    let term = |t: &Term| {
                        let j = t.node.index();
                        let v = if j < i { cur[j * w + s] as i128 } else { 0 };
                        let v = v << t.shift;
                        if t.negate {
                            -v
                        } else {
                            v
                        }
                    };
                    (term(lhs) + term(rhs)) as i64
                }
            };
            for b in (s + 1)..w {
                cur[i * w + b] = if self.registered[i].contains(&(b as u32)) {
                    prev[i * w + b - 1]
                } else {
                    cur[i * w + b - 1]
                };
            }
        }
        let outs = self
            .graph
            .outputs()
            .iter()
            .map(|o| {
                if o.expected == 0 {
                    return 0;
                }
                let j = o.term.node.index();
                let v = if j < self.graph.len() {
                    cur[j * w + (w - 1)] as i128
                } else {
                    0
                };
                let v = v << o.term.shift;
                (if o.term.negate { -v } else { v }) as i64
            })
            .collect();
        *state = cur;
        outs
    }

    /// Latency-adjusted coefficient equivalence: streams `samples` (then
    /// `latency` zeros to drain the pipe) and checks every nonzero output
    /// at cycle `t` equals `expected · x[t - latency]` (zero while the
    /// pipe fills). Returns the first failing `(label, x)`, or `None`.
    ///
    /// This is the pipelined counterpart of
    /// [`AdderGraph::verify_outputs`] and the gate every
    /// pipelining/retiming transform must pass before acceptance.
    pub fn verify_outputs_latency_adjusted(&self, samples: &[i64]) -> Option<(String, i64)> {
        let l = self.latency as usize;
        let feed = |t: usize| samples.get(t).copied().unwrap_or(0);
        let mut state = self.new_state();
        for t in 0..samples.len() + l {
            let outs = self.step(&mut state, feed(t));
            let x_ref = if t >= l { feed(t - l) } else { 0 };
            for (o, &got) in self.graph.outputs().iter().zip(&outs) {
                if o.expected == 0 {
                    continue;
                }
                if got as i128 != o.expected as i128 * x_ref as i128 {
                    return Some((o.label.clone(), x_ref));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NodeId;

    /// x -> a(7x, d1) -> b(29x, d2) -> c(117x, d3); outputs on a and c.
    fn chain() -> AdderGraph {
        let mut g = AdderGraph::new();
        let x = g.input();
        let a = g.add(Term::shifted(x, 3), Term::negated(x)).unwrap();
        let b = g.add(Term::shifted(a, 2), Term::of(x)).unwrap();
        let c = g.add(Term::shifted(b, 2), Term::of(x)).unwrap();
        g.push_output("c0", Term::of(a), 7);
        g.push_output("c1", Term::of(c), 117);
        g
    }

    #[test]
    fn register_set_covers_every_crossing() {
        // Stages 0,0 | 1,1: x crosses into stage 1 (boundary 1), b and c
        // are in stage 1, a feeds b across boundary 1 and the "c0" output
        // across boundary 1; outputs sampled at boundary 1.
        let net = PipelinedNetlist::new(chain(), vec![0, 0, 1, 1]);
        assert_eq!(net.latency, 1);
        assert_eq!(net.registered, vec![vec![1], vec![1], vec![], vec![]]);
        assert_eq!(net.register_count(), 2);
        assert!(net.is_legal(Some(2)));
        assert_eq!(net.critical_stage_depth(), 2);
    }

    #[test]
    fn single_stage_matches_combinational() {
        let net = PipelinedNetlist::new(chain(), vec![0, 0, 0, 0]);
        assert_eq!(net.latency, 0);
        assert_eq!(net.register_count(), 0);
        let mut state = net.new_state();
        let outs = net.step(&mut state, 5);
        assert_eq!(outs, vec![35, 585]);
    }

    #[test]
    fn latency_adjusted_verification_passes_on_a_legal_pipeline() {
        for stages in [vec![0, 0, 1, 1], vec![0, 1, 1, 2], vec![0, 1, 2, 3]] {
            let net = PipelinedNetlist::new(chain(), stages.clone());
            assert!(net.is_legal(None), "stages {stages:?}");
            assert_eq!(
                net.verify_outputs_latency_adjusted(&[-3, -1, 0, 1, 2, 7, 100]),
                None,
                "stages {stages:?}"
            );
        }
    }

    #[test]
    fn missing_register_fails_equivalence() {
        let mut net = PipelinedNetlist::new(chain(), vec![0, 0, 1, 1]);
        assert!(net.drop_register(0, 1)); // x now wires through the boundary
        assert!(net
            .verify_outputs_latency_adjusted(&[-3, -1, 0, 1, 2])
            .is_some());
    }

    #[test]
    fn illegal_assignments_are_rejected() {
        // Operand in a later stage than its consumer.
        let net = PipelinedNetlist::new(chain(), vec![0, 1, 0, 1]);
        assert!(!net.is_legal(None));
        // Input off stage 0.
        let net = PipelinedNetlist::new(chain(), vec![1, 1, 1, 1]);
        assert!(!net.is_legal(None));
        // Stage depth bound.
        let net = PipelinedNetlist::new(chain(), vec![0, 0, 0, 1]);
        assert!(net.is_legal(Some(2)));
        assert!(!net.is_legal(Some(1)));
    }

    #[test]
    fn outputs_at_early_stages_are_delayed_to_the_end() {
        // a sits in stage 0 but "c0" must appear latency cycles later.
        let net = PipelinedNetlist::new(chain(), vec![0, 0, 1, 2]);
        assert_eq!(net.latency, 2);
        // a needs registers at boundaries 1 (feeds b? no — b is stage 1,
        // a is stage 0 → boundary 1) and 2 (output sampling).
        assert_eq!(net.registered[1], vec![1, 2]);
        assert_eq!(net.verify_outputs_latency_adjusted(&[1, 2, 3, -5]), None);
    }

    /// The two-stage netlist with one boundary after adder depth `cut`:
    /// a single pipeline cut is the special case of a stage assignment.
    fn single_cut(graph: AdderGraph, cut: u32) -> PipelinedNetlist {
        let stages = (0..graph.len())
            .map(|i| u32::from(graph.depth(NodeId::from_index(i)) > cut))
            .collect();
        PipelinedNetlist::new(graph, stages)
    }

    #[test]
    fn chain_cut_counts() {
        // Cut after depth 1: `a` (into b and "c0") and `x` (into b, c).
        assert_eq!(single_cut(chain(), 1).register_count(), 2);
        // Cut after depth 2: `b` and `x` feed c; "c0" carries `a` across.
        assert_eq!(single_cut(chain(), 2).register_count(), 3);
        // A cut at or past the deepest adder leaves one stage.
        assert_eq!(single_cut(chain(), 3).latency, 0);
        assert_eq!(single_cut(chain(), 3).register_count(), 0);
    }

    #[test]
    fn output_at_shallow_depth_crosses() {
        // Cutting mid-graph must carry the shallow output's signal across.
        let mut g = AdderGraph::new();
        let x = g.input();
        let a = g.add(Term::shifted(x, 1), Term::of(x)).unwrap(); // depth 1
        let b = g.add(Term::shifted(a, 2), Term::of(a)).unwrap(); // depth 2
        g.push_output("shallow", Term::of(a), g.value(a));
        g.push_output("deep", Term::of(b), g.value(b));
        let net = single_cut(g, 1);
        // `a` crosses once, however many consumers it has beyond the cut.
        assert_eq!(net.registered, vec![vec![], vec![1], vec![]]);
        assert_eq!(net.verify_outputs_latency_adjusted(&[-3, 0, 1, 7]), None);
    }

    #[test]
    fn fanout_shares_registers() {
        // One node feeding three consumers beyond the cut costs 1 register.
        let mut g = AdderGraph::new();
        let x = g.input();
        let a = g.add(Term::shifted(x, 1), Term::of(x)).unwrap();
        for k in 0..3 {
            let n = g.add(Term::shifted(a, k + 1), Term::of(a)).unwrap();
            g.push_output(format!("o{k}"), Term::of(n), g.value(n));
        }
        // Only `a` crosses (x feeds nothing deeper).
        assert_eq!(single_cut(g, 1).register_count(), 1);
    }

    #[test]
    fn wide_simple_block_has_wide_cuts() {
        let constants: Vec<i64> = (0..12).map(|k| 2 * k * k + 4 * k + 3).collect();
        let (mut g, outs) =
            crate::simple_multiplier_block(&constants, mrp_numrep::Repr::Csd).unwrap();
        for (i, (&t, &c)) in outs.iter().zip(&constants).enumerate() {
            g.push_output(format!("c{i}"), t, c);
        }
        let max = g.max_depth();
        assert!(max >= 2);
        // Independent chains: every chain crosses any full cut.
        for cut in 1..max {
            let net = single_cut(g.clone(), cut);
            assert!(net.register_count() >= 2, "cut {cut}");
            assert_eq!(net.verify_outputs_latency_adjusted(&[-5, 1, 9]), None);
        }
    }
}
