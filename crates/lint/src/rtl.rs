//! RTL cross-checks: declared widths and simulated values of emitted
//! Verilog against the netlist the Verilog was generated from.
//!
//! The emitted module follows the `mrp-arch` naming convention: input `x`
//! extended into `x_ext`, one `n{i}` wire per adder node `i`, registers
//! `n{i}_q{b}` / `x_ext_q{b}` carrying node `i` / the input across pipeline
//! boundary `b`, one output port per registered graph output in
//! declaration order.

use std::collections::HashMap;

use mrp_analysis::{Analyzer, Pass};
use mrp_arch::{AdderGraph, Node, NodeId};
use mrp_vsim::Module;

use crate::diag::{Diagnostic, LintCode, LintReport};
use crate::width::{node_widths, product_width};
use crate::LintConfig;

/// The RTL cross-check pass. Borrows the Verilog source being checked;
/// width requirements are recomputed at the RTL-declared input width (not
/// the analyzer context width), so this pass reads no cached analyses.
pub(crate) struct RtlPass<'a> {
    pub source: &'a str,
}

impl Pass<LintConfig, LintReport> for RtlPass<'_> {
    fn name(&self) -> &'static str {
        "rtl"
    }

    fn run(&self, az: &Analyzer<'_>, config: &LintConfig, report: &mut LintReport) {
        run(az.graph(), self.source, config, report);
    }
}

pub(crate) fn run(graph: &AdderGraph, source: &str, config: &LintConfig, report: &mut LintReport) {
    let module = match Module::parse(source) {
        Ok(m) => m,
        Err(e) => {
            report.push(Diagnostic::new(
                LintCode::RtlShapeMismatch,
                format!("Verilog does not parse: {e}"),
            ));
            return;
        }
    };

    let width = module.input.width;
    if width != config.input_width {
        report.push(
            Diagnostic::new(
                LintCode::InputWidthMismatch,
                format!(
                    "RTL input is {width} bit(s) but the netlist was analyzed at {}",
                    config.input_width
                ),
            )
            .at_signal(module.input.name.clone()),
        );
    }
    if width == 0 || width > 63 {
        report.push(
            Diagnostic::new(
                LintCode::WidthOverflow,
                format!("input width {width} is outside the 1..=63 analysis range"),
            )
            .at_signal(module.input.name.clone()),
        );
        return;
    }

    // Requirements are computed at the width the RTL actually declares —
    // that is what the hardware will see.
    let required = node_widths(graph, width);

    let mut declared: HashMap<&str, u32> = HashMap::new();
    for (name, w, _) in &module.wires {
        declared.insert(name.as_str(), *w);
    }

    for (i, node) in graph.nodes().iter().enumerate() {
        if !matches!(node, Node::Add { .. }) {
            continue;
        }
        let name = format!("n{i}");
        match declared.get(name.as_str()) {
            None => {
                report.push(
                    Diagnostic::new(
                        LintCode::RtlShapeMismatch,
                        format!("adder node {i} has no `{name}` wire in the RTL"),
                    )
                    .at_node(i)
                    .at_signal(name),
                );
            }
            Some(&w) if w < required[i] => {
                report.push(
                    Diagnostic::new(
                        LintCode::WidthTruncation,
                        format!(
                            "wire is {w} bit(s) but {}·x needs {} at input width {width}",
                            graph.value(NodeId::from_index(i)),
                            required[i]
                        ),
                    )
                    .at_node(i)
                    .at_signal(name),
                );
            }
            Some(_) => {}
        }
    }
    // A pipeline register needs the width of the node it carries.
    for reg in &module.regs {
        let Some(i) = register_node(&reg.name).filter(|&i| i < graph.len()) else {
            continue;
        };
        if reg.width < required[i] {
            report.push(
                Diagnostic::new(
                    LintCode::WidthTruncation,
                    format!(
                        "register is {} bit(s) but {}·x needs {} at input width {width}",
                        reg.width,
                        graph.value(NodeId::from_index(i)),
                        required[i]
                    ),
                )
                .at_node(i)
                .at_signal(reg.name.clone()),
            );
        }
    }

    // Output ports: positional match against the graph's registered outputs.
    let graph_outputs = graph.outputs();
    if module.outputs.len() != graph_outputs.len() {
        report.push(Diagnostic::new(
            LintCode::RtlShapeMismatch,
            format!(
                "RTL declares {} output(s), the netlist registers {}",
                module.outputs.len(),
                graph_outputs.len()
            ),
        ));
        return;
    }
    for (port, o) in module.outputs.iter().zip(graph_outputs) {
        if o.expected == 0 {
            continue;
        }
        let need = product_width(o.expected, width);
        if port.width < need {
            report.push(
                Diagnostic::new(
                    LintCode::WidthTruncation,
                    format!(
                        "output port is {} bit(s) but {}·x needs {need} at input width {width}",
                        port.width, o.expected
                    ),
                )
                .at_signal(port.name.clone()),
            );
        }
    }

    // Simulation cross-check on boundary and spot inputs. Widths proven
    // adequate above make an i64 comparison exact; if a width diagnostic
    // already fired, the truncated simulation will usually fail here too,
    // which is the desired signal.
    let x_min = -(1i64 << (width - 1));
    let x_max = (1i64 << (width - 1)) - 1;
    let mut probes = vec![x_min, -1, 0, 1, x_max];
    probes.retain(|x| (x_min..=x_max).contains(x));
    probes.sort_unstable();
    probes.dedup();
    for &x in &probes {
        let simulated = if module.is_sequential() {
            // Constant input for one cycle per register plus one reaches
            // steady state regardless of how many cut boundaries the
            // emitter placed; sample the last cycle.
            module.settle(x, module.regs.len() as u32 + 1)
        } else {
            module.evaluate(x)
        };
        let values = match simulated {
            Ok(v) => v,
            Err(e) => {
                report.push(Diagnostic::new(
                    LintCode::RtlShapeMismatch,
                    format!("RTL simulation failed: {e}"),
                ));
                return;
            }
        };
        let mut mismatched = false;
        for ((port, o), &got) in module.outputs.iter().zip(graph_outputs).zip(&values) {
            let want = if o.expected == 0 {
                0i128
            } else {
                o.expected as i128 * x as i128
            };
            if got as i128 != want {
                mismatched = true;
                report.push(
                    Diagnostic::new(
                        LintCode::RtlValueMismatch,
                        format!(
                            "simulating x = {x} gives {got}, expected {} = {}·{x}",
                            want, o.expected
                        ),
                    )
                    .at_signal(port.name.clone()),
                );
            }
        }
        if mismatched {
            // One failing input pinpoints the broken outputs; further
            // probes would repeat the same findings.
            break;
        }
    }
}

/// The node a writer register carries: `n{i}_q{b}` carries node `i`,
/// `x_ext_q{b}` the input (node 0).
fn register_node(name: &str) -> Option<usize> {
    let (base, boundary) = name.rsplit_once("_q")?;
    boundary.parse::<u32>().ok()?;
    match base {
        "x_ext" => Some(0),
        _ => base.strip_prefix('n')?.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_arch::{emit_verilog, emit_verilog_pipelined, PipelinedNetlist, Term};

    fn example() -> AdderGraph {
        let mut g = AdderGraph::new();
        let x = g.input();
        let a = g.add(Term::shifted(x, 3), Term::negated(x)).unwrap(); // 7
        let b = g.add(Term::shifted(a, 2), Term::of(x)).unwrap(); // 29
        g.push_output("c0", Term::of(b), 29);
        g.push_output("c1", Term::negated(a), -7);
        g
    }

    fn lint(graph: &AdderGraph, src: &str, width: u32) -> LintReport {
        let mut r = LintReport::default();
        let cfg = LintConfig {
            input_width: width,
            ..LintConfig::default()
        };
        run(graph, src, &cfg, &mut r);
        r
    }

    #[test]
    fn emitted_verilog_is_clean() {
        let g = example();
        let v = emit_verilog(&g, "mb", 12);
        let r = lint(&g, &v, 12);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }

    /// `example()` cut after depth 1: `x_ext_q1` and `n1_q1` cross.
    fn pipelined_example() -> String {
        let net = PipelinedNetlist::new(example(), vec![0, 0, 1]);
        emit_verilog_pipelined(&net, "pipe", 12)
    }

    #[test]
    fn pipelined_verilog_is_clean() {
        let v = pipelined_example();
        let r = lint(&example(), &v, 12);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }

    #[test]
    fn narrowed_registers_are_flagged() {
        // At input width 12, 7·x needs 15 bits and x itself 12.
        for (reg, node) in [("n1_q1", 1), ("x_ext_q1", 0)] {
            let decl = format!("reg signed [17:0] {reg};");
            let v = pipelined_example();
            assert!(v.contains(&decl), "{v}");
            let v = v.replace(&decl, &format!("reg signed [8:0] {reg};"));
            let r = lint(&example(), &v, 12);
            let trunc = r.with_code(LintCode::WidthTruncation);
            assert_eq!(trunc.len(), 1, "{reg}: {}", r.render_pretty());
            assert_eq!(trunc[0].signal.as_deref(), Some(reg));
            assert_eq!(trunc[0].node, Some(node));
        }
    }

    #[test]
    fn narrowed_wire_is_flagged_and_missimulates() {
        let g = example();
        // 29·x at width 12 needs 17 bits; declare n2 with 9.
        let v = emit_verilog(&g, "mb", 12).replace("wire signed [17:0] n2", "wire signed [8:0] n2");
        let r = lint(&g, &v, 12);
        let trunc = r.with_code(LintCode::WidthTruncation);
        assert_eq!(trunc.len(), 1, "{}", r.render_pretty());
        assert_eq!(trunc[0].signal.as_deref(), Some("n2"));
        assert!(!r.with_code(LintCode::RtlValueMismatch).is_empty());
    }

    #[test]
    fn parse_failure_is_reported() {
        let g = example();
        let r = lint(&g, "module broken (", 12);
        assert_eq!(r.with_code(LintCode::RtlShapeMismatch).len(), 1);
    }

    #[test]
    fn input_width_mismatch_is_reported() {
        let g = example();
        let v = emit_verilog(&g, "mb", 10);
        let r = lint(&g, &v, 12);
        assert_eq!(r.with_code(LintCode::InputWidthMismatch).len(), 1);
    }

    #[test]
    fn missing_node_wire_is_reported() {
        let g = example();
        let v = emit_verilog(&g, "mb", 12)
            .lines()
            .filter(|l| !l.contains("n1 ="))
            .collect::<Vec<_>>()
            .join("\n");
        let r = lint(&g, &v, 12);
        assert!(!r.with_code(LintCode::RtlShapeMismatch).is_empty());
    }
}
