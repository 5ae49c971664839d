//! Lowering from `mrp-arch` netlists to the linear IR.
//!
//! Three entry points, one per simulation shape:
//!
//! * [`compile_block`] — a multiplier block alone: one output per tap
//!   product, combinational (latency 0).
//! * [`compile_fir`] — the full transposed-direct-form filter: the block
//!   plus the tap-summation delay/adder chain, one `y` output.
//! * [`compile_pipelined`] — a [`PipelinedNetlist`] with its register
//!   placement: every register becomes a [`Inst::Delay`], every missing
//!   register a wire-through alias, reproducing
//!   [`PipelinedNetlist::step`] bit for bit (including its wrapping
//!   arithmetic and its timing skew for dropped registers).
//!
//! Wire-throughs, shifts, and negations never cost an instruction: the
//! lowering tracks every netlist value as a symbolic slot (zero, or a
//! register with a pending shift/negate) and only materializes real
//! adders and real registers.

use crate::ir::{Inst, Operand, Program, ProgramOutput, VReg};
use mrp_arch::{AdderGraph, FirFilter, Node, PipelinedNetlist, Term};

/// A symbolic value during lowering: the constant zero (placeholder taps,
/// unwritten pipeline positions) or a register with free shift/negate.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Zero,
    Ref(Operand),
}

impl Slot {
    /// Applies a netlist edge (shift + negate) to the slot.
    fn via(self, shift: u32, negate: bool) -> Slot {
        match self {
            Slot::Zero => Slot::Zero,
            Slot::Ref(op) => Slot::Ref(Operand {
                reg: op.reg,
                shift: op.shift + shift,
                negate: op.negate ^ negate,
            }),
        }
    }

    fn via_term(self, t: &Term) -> Slot {
        self.via(t.shift, t.negate)
    }

    fn operand(self) -> Option<Operand> {
        match self {
            Slot::Zero => None,
            Slot::Ref(op) => Some(op),
        }
    }
}

/// Emits instructions, allocating dense registers and carry slots.
struct Builder {
    insts: Vec<Inst>,
    next_reg: VReg,
    next_carry: u32,
}

impl Builder {
    fn new() -> Self {
        Builder {
            insts: Vec::new(),
            next_reg: 1, // register 0 is the input lane
            next_carry: 0,
        }
    }

    /// `lhs + rhs`, folding away zero operands (an add with a zero side
    /// is just wiring).
    fn add(&mut self, lhs: Slot, rhs: Slot) -> Slot {
        match (lhs.operand(), rhs.operand()) {
            (None, None) => Slot::Zero,
            (Some(_), None) => lhs,
            (None, Some(_)) => rhs,
            (Some(l), Some(r)) => {
                let dst = self.next_reg;
                self.next_reg += 1;
                self.insts.push(Inst::Add {
                    dst,
                    lhs: l,
                    rhs: r,
                });
                Slot::Ref(Operand::reg(dst))
            }
        }
    }

    /// A unit delay of `src` (a delayed zero stays zero).
    fn delay(&mut self, src: Slot) -> Slot {
        match src.operand() {
            None => Slot::Zero,
            Some(op) => {
                let dst = self.next_reg;
                self.next_reg += 1;
                let carry = self.next_carry;
                self.next_carry += 1;
                self.insts.push(Inst::Delay {
                    dst,
                    src: op,
                    carry,
                });
                Slot::Ref(Operand::reg(dst))
            }
        }
    }

    fn finish(self, outputs: Vec<ProgramOutput>, latency: u32) -> Program {
        let program = Program {
            regs: self.next_reg,
            carries: self.next_carry,
            insts: self.insts,
            outputs,
            latency,
        };
        debug_assert_eq!(program.validate(), Ok(()));
        mrp_obs::counter_add("exec.lower.insts", program.insts.len() as u64);
        program
    }
}

/// Lowers the combinational adder graph itself: one slot per node, adders
/// in node (topological) order.
fn lower_nodes(b: &mut Builder, graph: &AdderGraph) -> Vec<Slot> {
    let mut slots: Vec<Slot> = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        let slot = match node {
            Node::Input => Slot::Ref(Operand::reg(0)),
            Node::Add { lhs, rhs } => {
                let l = slots[lhs.node.index()].via_term(lhs);
                let r = slots[rhs.node.index()].via_term(rhs);
                b.add(l, r)
            }
        };
        slots.push(slot);
    }
    slots
}

/// Maps netlist outputs onto slots; `expected = 0` placeholders become
/// constant-zero outputs, matching every tree-walk evaluator.
fn lower_outputs(graph: &AdderGraph, value_of: impl Fn(&Term) -> Slot) -> Vec<ProgramOutput> {
    graph
        .outputs()
        .iter()
        .map(|o| ProgramOutput {
            label: o.label.clone(),
            term: if o.expected == 0 {
                None
            } else {
                value_of(&o.term).operand()
            },
            expected: o.expected,
        })
        .collect()
}

/// Compiles a multiplier block to a combinational program with one output
/// per registered netlist output (tap products `c_i · x`).
///
/// # Examples
///
/// ```
/// use mrp_arch::{AdderGraph, Term};
/// use mrp_exec::{compile_block, Machine};
///
/// let mut g = AdderGraph::new();
/// let x = g.input();
/// let three = g.add(Term::shifted(x, 1), Term::of(x))?; // 2x + x
/// g.push_output("c0", Term::shifted(three, 2), 12);     // 3x << 2
/// let mut m = Machine::new(compile_block(&g));
/// assert_eq!(m.run(&[1, -5, 7])[0], vec![12, -60, 84]);
/// # Ok::<(), mrp_arch::ArchError>(())
/// ```
pub fn compile_block(graph: &AdderGraph) -> Program {
    let _span = mrp_obs::span("exec.lower");
    let mut b = Builder::new();
    let slots = lower_nodes(&mut b, graph);
    let outputs = lower_outputs(graph, |t| slots[t.node.index()].via_term(t));
    b.finish(outputs, 0)
}

/// Compiles the full transposed-direct-form filter: the multiplier block
/// feeding the tap-summation register/adder chain
/// `s_k(n) = c_k·x(n) + s_{k+1}(n − 1)`, with the single output
/// `y(n) = s_0(n)`. The compiled program matches
/// [`mrp_arch::FirFilter::filter`] sample for sample (zero initial state).
///
/// # Examples
///
/// ```
/// use mrp_arch::{direct_fir, simple_multiplier_block, FirFilter};
/// use mrp_exec::{compile_fir, Machine};
/// use mrp_numrep::Repr;
///
/// let coeffs = [3i64, -1, 4];
/// let (mut g, outs) = simple_multiplier_block(&coeffs, Repr::Csd)?;
/// for (i, (&t, &c)) in outs.iter().zip(&coeffs).enumerate() {
///     g.push_output(format!("c{i}"), t, c);
/// }
/// let mut m = Machine::new(compile_fir(&FirFilter::new(g)));
/// let x = [1i64, 0, 0, 2, -9];
/// assert_eq!(m.run_single(&x), direct_fir(&coeffs, &x));
/// # Ok::<(), mrp_arch::ArchError>(())
/// ```
pub fn compile_fir(filter: &FirFilter) -> Program {
    let _span = mrp_obs::span("exec.lower");
    let graph = filter.block();
    let mut b = Builder::new();
    let slots = lower_nodes(&mut b, graph);
    let products: Vec<Slot> = graph
        .outputs()
        .iter()
        .map(|o| {
            if o.expected == 0 {
                Slot::Zero
            } else {
                slots[o.term.node.index()].via_term(&o.term)
            }
        })
        .collect();
    // s_{taps−1} = p_{taps−1}; s_k = p_k + z⁻¹ s_{k+1}; y = s_0.
    let taps = products.len();
    let mut s = products[taps - 1];
    for k in (0..taps - 1).rev() {
        let delayed = b.delay(s);
        s = b.add(products[k], delayed);
    }
    let outputs = vec![ProgramOutput {
        label: "y".to_string(),
        term: s.operand(),
        expected: 0,
    }];
    b.finish(outputs, 0)
}

/// Compiles a pipelined netlist, reproducing its register placement: per
/// node, one slot per pipeline position `stage..=latency`; a registered
/// boundary becomes a [`Inst::Delay`], an unregistered one a free alias
/// (the same wire-through timing skew [`PipelinedNetlist::step`] models).
/// Outputs sample position `latency` and the program's
/// [`Program::latency`] records the pipeline depth.
///
/// The lowering is bit-exact against `step` — including its wrapping
/// `i64` arithmetic and its "operands read the producer at the
/// *consumer's* stage position" rule — so a compiled run over a stream
/// equals repeated `step` calls from reset state.
pub fn compile_pipelined(net: &PipelinedNetlist) -> Program {
    let _span = mrp_obs::span("exec.lower");
    let graph = &net.graph;
    let w = net.latency as usize + 1;
    let mut b = Builder::new();
    // positions[i][p] = node i's value at pipeline position p (Zero for
    // positions before the node's stage, which `step` never writes).
    let mut positions: Vec<Vec<Slot>> = Vec::with_capacity(graph.len());
    for (i, node) in graph.nodes().iter().enumerate() {
        let s = net.stages[i] as usize;
        let mut pos = vec![Slot::Zero; w];
        pos[s] = match node {
            Node::Input => Slot::Ref(Operand::reg(0)),
            Node::Add { lhs, rhs } => {
                let at = |t: &Term| {
                    let j = t.node.index();
                    debug_assert!(j < i, "netlist must be topological");
                    positions[j][s].via_term(t)
                };
                let (l, r) = (at(lhs), at(rhs));
                b.add(l, r)
            }
        };
        for p in (s + 1)..w {
            pos[p] = if net.registered[i].contains(&(p as u32)) {
                b.delay(pos[p - 1])
            } else {
                pos[p - 1]
            };
        }
        positions.push(pos);
    }
    let outputs = lower_outputs(graph, |t| positions[t.node.index()][w - 1].via_term(t));
    b.finish(outputs, net.latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    /// x -> 7x -> 29x -> 117x, outputs on 7x and 117x (the pipeline.rs
    /// worked example).
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
    fn block_matches_structural_evaluation() {
        let g = chain();
        let mut m = Machine::new(compile_block(&g));
        let input = [-3i64, -1, 0, 1, 2, 7, 100];
        let outs = m.run(&input);
        for (k, &x) in input.iter().enumerate() {
            assert_eq!(outs[0][k], 7 * x);
            assert_eq!(outs[1][k], 117 * x);
        }
    }

    #[test]
    fn block_has_no_carries() {
        let p = compile_block(&chain());
        assert_eq!(p.carries, 0);
        assert_eq!(p.latency, 0);
        assert_eq!(p.adds(), 3);
    }

    #[test]
    fn zero_expected_outputs_are_constant_zero() {
        let mut g = chain();
        let a = mrp_arch::NodeId::from_index(1);
        g.push_output("z", Term::of(a), 0);
        let p = compile_block(&g);
        assert!(p.outputs[2].term.is_none());
        let mut m = Machine::new(p);
        assert_eq!(m.run(&[5, 9])[2], vec![0, 0]);
    }

    #[test]
    fn shift_only_chain_lowered_without_instructions() {
        // A "multiplier" by a power of two is pure wiring: no adders, so
        // the program body must be empty and the output a shifted alias
        // of the input register.
        let mut g = AdderGraph::new();
        let x = g.input();
        g.push_output("c0", Term::shifted(x, 4), 16);
        let p = compile_block(&g);
        assert!(p.insts.is_empty());
        assert_eq!(
            p.outputs[0].term,
            Some(Operand {
                reg: 0,
                shift: 4,
                negate: false
            })
        );
        let mut m = Machine::new(p);
        assert_eq!(m.run(&[3, -2])[0], vec![48, -32]);
    }

    #[test]
    fn negated_shift_output_folds_onto_operand() {
        let mut g = AdderGraph::new();
        let x = g.input();
        g.push_output("c0", Term::negated_shifted(x, 2), -4);
        let mut m = Machine::new(compile_block(&g));
        assert_eq!(m.run(&[3])[0], vec![-12]);
    }

    #[test]
    fn fir_single_tap_has_no_delays() {
        let mut g = AdderGraph::new();
        let x = g.input();
        let five = g.add(Term::shifted(x, 2), Term::of(x)).unwrap();
        g.push_output("c0", Term::of(five), 5);
        let p = compile_fir(&FirFilter::new(g));
        assert_eq!(p.delays(), 0);
        let mut m = Machine::new(p);
        assert_eq!(m.run_single(&[1, 2, 3]), vec![5, 10, 15]);
    }

    #[test]
    fn fir_all_zero_coefficients_is_constant_zero() {
        let mut g = AdderGraph::new();
        let x = g.input();
        for k in 0..3 {
            g.push_output(format!("c{k}"), Term::of(x), 0);
        }
        let p = compile_fir(&FirFilter::new(g));
        assert!(p.insts.is_empty());
        assert!(p.outputs[0].term.is_none());
        let mut m = Machine::new(p);
        assert_eq!(m.run_single(&[9, -4, 17, 1]), vec![0; 4]);
    }

    #[test]
    fn fir_zero_taps_skip_their_structural_adder() {
        // taps [0, 3, 0]: only one real product, so the TDF chain needs
        // delays but no adds beyond the multiplier block.
        let mut g = AdderGraph::new();
        let x = g.input();
        let three = g.add(Term::shifted(x, 1), Term::of(x)).unwrap();
        g.push_output("c0", Term::of(x), 0);
        g.push_output("c1", Term::of(three), 3);
        g.push_output("c2", Term::of(x), 0);
        let f = FirFilter::new(g);
        let p = compile_fir(&f);
        assert_eq!(p.adds(), 1, "only the 3x adder:\n{p}");
        assert_eq!(p.delays(), 1, "one tap register survives:\n{p}");
        let mut m = Machine::new(p);
        let input = [1i64, 1, 1, 1, 1];
        assert_eq!(m.run_single(&input), f.filter(&input));
    }

    #[test]
    fn pipelined_chain_matches_step() {
        let g = chain();
        let az = mrp_analysis::Analyzer::new(&g, mrp_analysis::AnalysisContext::default());
        let (net, _) = mrp_analysis::pipeline_and_retime(&az, 1);
        let p = compile_pipelined(&net);
        assert_eq!(p.latency, net.latency);
        let mut m = Machine::new(p);
        let input = [-3i64, -1, 0, 1, 2, 7, 100, 0, 0, 0, 0];
        let outs = m.run(&input);
        let mut state = net.new_state();
        for (t, &x) in input.iter().enumerate() {
            let want = net.step(&mut state, x);
            for (o, w) in want.iter().enumerate() {
                assert_eq!(outs[o][t], *w, "output {o} at cycle {t}");
            }
        }
    }

    #[test]
    fn listing_is_stable_for_the_worked_chain() {
        let p = compile_block(&chain());
        let text = p.to_string();
        assert!(text.contains("r1 = r0<<3 + -r0"), "{text}");
        assert!(text.contains("out c1 = r3 ; expected 117"), "{text}");
    }
}
