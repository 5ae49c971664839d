//! Structural Verilog emission for adder-graph multiplier blocks.
//!
//! The generated module has one signed input `x` and one signed output per
//! registered graph output. Shifts become `<<<` on signed wires, negations
//! become unary minus; every adder node becomes one wire. The module is
//! plain synthesizable Verilog-2001 so the MRPF architectures can be pushed
//! through any synthesis flow, mirroring the paper's DesignWare evaluation.
//!
//! One writer serves every netlist: [`emit_verilog`] is the latency-0 case
//! of [`emit_verilog_pipelined`]. A pipelined module adds a clock and one
//! `reg` per entry of [`PipelinedNetlist::registered`] — `n{i}_q{b}` for
//! node `i` at boundary `b`, `x_ext_q{b}` for the input — loaded in one
//! `always @(posedge clk)` block.

use std::fmt::Write as _;

use crate::netlist::{AdderGraph, Node, NodeId, Term};
use crate::pipelined::PipelinedNetlist;

/// Emits a synthesizable Verilog module for the multiplier block.
///
/// `width` is the input wordlength; internal wires are sized
/// `width + growth` where `growth` covers the worst-case constant (log2 of
/// the largest absolute node value, plus one sign bit).
///
/// # Panics
///
/// Panics if the graph has no outputs or `width == 0`.
///
/// # Examples
///
/// ```
/// use mrp_arch::{emit_verilog, simple_multiplier_block};
/// use mrp_numrep::Repr;
///
/// let (mut g, outs) = simple_multiplier_block(&[7], Repr::Csd)?;
/// g.push_output("c0", outs[0], 7);
/// let v = emit_verilog(&g, "mult_block", 16);
/// assert!(v.contains("module mult_block"));
/// assert!(v.contains("output signed"));
/// # Ok::<(), mrp_arch::ArchError>(())
/// ```
pub fn emit_verilog(graph: &AdderGraph, name: &str, width: u32) -> String {
    let n = graph.len();
    write_module(graph, &vec![0; n], &vec![Vec::new(); n], 0, name, width)
}

/// Emits a clocked module for a pipelined netlist: node `i` is computed
/// in stage `net.stages[i]`, every entry of `net.registered` becomes one
/// register, and every output is `net.latency` cycles late.
///
/// Each operand is read at its consumer's pipeline position, as
/// [`PipelinedNetlist::step`] reads it, so a register missing from
/// `net.registered` is a wire-through here too. At latency 0 the module
/// equals [`emit_verilog`] of `net.graph`, byte for byte.
///
/// # Panics
///
/// Panics if the graph has no outputs or `width == 0`.
///
/// # Examples
///
/// ```
/// use mrp_arch::{emit_verilog_pipelined, AdderGraph, PipelinedNetlist, Term};
///
/// let mut g = AdderGraph::new();
/// let x = g.input();
/// let a = g.add(Term::shifted(x, 3), Term::negated(x))?;   // 7x, depth 1
/// let b = g.add(Term::shifted(a, 2), Term::of(x))?;        // 29x, depth 2
/// g.push_output("c0", Term::of(b), 29);
/// let net = PipelinedNetlist::new(g, vec![0, 0, 1]);
/// let v = emit_verilog_pipelined(&net, "pipe", 12);
/// assert!(v.contains("always @(posedge clk)"));
/// assert!(v.contains("n1_q1 <= n1;"));
/// # Ok::<(), mrp_arch::ArchError>(())
/// ```
pub fn emit_verilog_pipelined(net: &PipelinedNetlist, name: &str, width: u32) -> String {
    write_module(
        &net.graph,
        &net.stages,
        &net.registered,
        net.latency,
        name,
        width,
    )
}

/// The one Verilog writer: `stages`, `registered` and `latency` are a
/// [`PipelinedNetlist`]'s, all zero and empty for a combinational module.
fn write_module(
    graph: &AdderGraph,
    stages: &[u32],
    registered: &[Vec<u32>],
    latency: u32,
    name: &str,
    width: u32,
) -> String {
    assert!(width > 0, "input width must be positive");
    assert!(
        !graph.outputs().is_empty(),
        "Verilog emission needs at least one output"
    );
    // Wordlength growth: ceil(log2(max |constant|)) + 1 (sign).
    let max_const = graph
        .outputs()
        .iter()
        .map(|o| o.expected.unsigned_abs())
        .chain(
            graph
                .nodes()
                .iter()
                .enumerate()
                .map(|(i, _)| graph.value(NodeId(i)).unsigned_abs()),
        )
        .max()
        .unwrap_or(1)
        .max(1);
    let growth = 64 - max_const.leading_zeros() + 1;
    let w = width + growth;
    let msb = w - 1;
    let zero = format!("{{{w}{{1'b0}}}}");

    let base = |j: usize| {
        if j == 0 {
            "x_ext".to_string()
        } else {
            format!("n{j}")
        }
    };
    // The signal holding node `j` at pipeline position `p`, as `step`
    // reads it: zero before the node's stage, else the register at the
    // latest boundary it owns up to `p`, else its own wire.
    let signal = |j: usize, p: u32| {
        let Some(&s) = stages.get(j) else {
            return base(j);
        };
        if p < s {
            return zero.clone();
        }
        match registered[j].iter().rev().find(|&&b| s < b && b <= p) {
            Some(b) => format!("{}_q{b}", base(j)),
            None => base(j),
        }
    };
    let term_expr = |t: &Term, p: u32| {
        let base = signal(t.node.index(), p);
        let shifted = if t.shift > 0 {
            format!("({base} <<< {})", t.shift)
        } else {
            base
        };
        if t.negate {
            format!("(-{shifted})")
        } else {
            shifted
        }
    };

    let registers: usize = registered.iter().map(Vec::len).sum();
    let mut v = String::new();
    let _ = writeln!(v, "// Auto-generated multiplierless constant block.");
    let _ = write!(
        v,
        "// {} adders, depth {}, internal width {w}",
        graph.adder_count(),
        graph.max_depth()
    );
    let late = if latency > 0 {
        let _ = write!(v, ", latency {latency}, {registers} register(s)");
        format!(", latency {latency}")
    } else {
        String::new()
    };
    let _ = writeln!(v, ".");
    let _ = writeln!(v, "module {name} (");
    if latency > 0 {
        let _ = writeln!(v, "    input clk,");
    }
    let _ = writeln!(v, "    input  signed [{}:0] x,", width - 1);
    let outs = graph.outputs();
    for (i, o) in outs.iter().enumerate() {
        let comma = if i + 1 == outs.len() { "" } else { "," };
        let _ = writeln!(
            v,
            "    output signed [{msb}:0] {}{comma} // {} * x{late}",
            sanitize(&o.label),
            o.expected
        );
    }
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "    wire signed [{msb}:0] x_ext = x;");
    for (i, regs) in registered.iter().enumerate() {
        for b in regs {
            let _ = writeln!(v, "    reg signed [{msb}:0] {}_q{b};", base(i));
        }
    }
    for (i, node) in graph.nodes().iter().enumerate() {
        if let Node::Add { lhs, rhs } = node {
            let _ = writeln!(
                v,
                "    wire signed [{msb}:0] n{i} = {} + {}; // {} * x",
                term_expr(lhs, stages[i]),
                term_expr(rhs, stages[i]),
                graph.value(NodeId(i))
            );
        }
    }
    if registers > 0 {
        let _ = writeln!(v, "    always @(posedge clk) begin");
        for (i, regs) in registered.iter().enumerate() {
            for &b in regs {
                let _ = writeln!(v, "        {}_q{b} <= {};", base(i), signal(i, b - 1));
            }
        }
        let _ = writeln!(v, "    end");
    }
    for o in outs {
        let expr = if o.expected == 0 {
            zero.clone()
        } else {
            term_expr(&o.term, latency)
        };
        let _ = writeln!(v, "    assign {} = {expr};", sanitize(&o.label));
    }
    let _ = writeln!(v, "endmodule");
    v
}

/// Makes a label a legal Verilog identifier.
fn sanitize(label: &str) -> String {
    let mut s: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, 'o');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_multiplier_block;
    use mrp_numrep::Repr;

    fn block(constants: &[i64]) -> AdderGraph {
        let (mut g, outs) = simple_multiplier_block(constants, Repr::Csd).unwrap();
        for (i, (&t, &c)) in outs.iter().zip(constants).enumerate() {
            g.push_output(format!("c{i}"), t, c);
        }
        g
    }

    /// 7x at depth 1 and 29x at depth 2, both outputs, cut after depth 1.
    fn two_stage() -> PipelinedNetlist {
        let mut g = AdderGraph::new();
        let x = g.input();
        let a = g.add(Term::shifted(x, 3), Term::negated(x)).unwrap(); // 7
        let b = g.add(Term::shifted(a, 2), Term::of(x)).unwrap(); // 29
        g.push_output("deep", Term::of(b), 29);
        g.push_output("shallow", Term::of(a), 7);
        PipelinedNetlist::new(g, vec![0, 0, 1])
    }

    fn line<'a>(v: &'a str, needle: &str) -> &'a str {
        v.lines()
            .find(|l| l.contains(needle))
            .unwrap_or_else(|| panic!("no `{needle}` line in\n{v}"))
    }

    #[test]
    fn emits_module_skeleton() {
        let v = emit_verilog(&block(&[7, 12]), "mb", 12);
        assert!(v.starts_with("// Auto-generated"));
        assert!(v.contains("module mb ("));
        assert!(v.contains("endmodule"));
        assert!(v.contains("input  signed [11:0] x"));
        assert!(!v.contains("clk"));
    }

    #[test]
    fn every_adder_becomes_a_wire() {
        let g = block(&[45, 23]);
        let v = emit_verilog(&g, "mb", 16);
        let wires = v.matches("wire signed").count();
        // One x_ext wire plus one per adder.
        assert_eq!(wires, 1 + g.adder_count());
    }

    #[test]
    fn zero_output_is_tied_low() {
        let g = block(&[0, 3]);
        let v = emit_verilog(&g, "mb", 8);
        assert!(v.contains("{1'b0}"));
    }

    #[test]
    fn labels_are_sanitized() {
        let mut g = AdderGraph::new();
        let x = g.input();
        g.push_output("tap[3]", crate::netlist::Term::of(x), 1);
        let v = emit_verilog(&g, "mb", 8);
        assert!(v.contains("tap_3_"));
        assert!(!v.contains("tap[3]"));
    }

    #[test]
    fn negative_constants_use_negation() {
        let g = block(&[-7]);
        let v = emit_verilog(&g, "mb", 8);
        assert!(v.contains("(-"));
    }

    #[test]
    #[should_panic(expected = "at least one output")]
    fn rejects_outputless_graph() {
        emit_verilog(&AdderGraph::new(), "mb", 8);
    }

    #[test]
    fn emits_clocked_skeleton() {
        let v = emit_verilog_pipelined(&two_stage(), "pipe", 10);
        assert!(v.contains("input clk,"));
        assert!(v.contains("latency 1, 2 register(s)."));
        assert!(v.contains("always @(posedge clk) begin"));
        assert!(v.contains("n1_q1 <= n1;"));
        assert!(v.contains("x_ext_q1 <= x_ext;"));
        assert_eq!(v.matches("reg signed").count(), 2);
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn deep_nodes_read_registered_sources() {
        let v = emit_verilog_pipelined(&two_stage(), "pipe", 10);
        // n2 (stage 1) reads n1 and x through their boundary-1 registers.
        let n2 = line(&v, "n2 =");
        assert!(n2.contains("(n1_q1 <<< 2) + x_ext_q1"), "{n2}");
        // n1 (stage 0) reads the input wire itself.
        assert!(line(&v, "n1 =").contains("(x_ext <<< 3) + (-x_ext)"));
    }

    #[test]
    fn shallow_output_uses_register() {
        let v = emit_verilog_pipelined(&two_stage(), "pipe", 10);
        assert!(line(&v, "assign shallow").contains("n1_q1"));
        assert!(line(&v, "assign deep").contains("n2;"));
    }

    #[test]
    fn dropped_register_is_a_wire_through() {
        let mut net = two_stage();
        assert!(net.drop_register(0, 1));
        let v = emit_verilog_pipelined(&net, "pipe", 10);
        assert!(!v.contains("x_ext_q1"), "{v}");
        assert!(line(&v, "n2 =").contains("(n1_q1 <<< 2) + x_ext;"));
        assert!(v.contains("latency 1, 1 register(s)."));
    }

    #[test]
    fn latency_zero_is_the_combinational_module() {
        let g = block(&[45, 23, 0, -7]);
        let net = PipelinedNetlist::new(g.clone(), vec![0; g.len()]);
        assert_eq!(
            emit_verilog_pipelined(&net, "mb", 12),
            emit_verilog(&g, "mb", 12)
        );
    }
}
