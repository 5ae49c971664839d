//! Pipeline-structure lints over a [`PipelinedNetlist`].
//!
//! Two failure modes matter once registers enter the picture:
//!
//! * **`MRP041`** — the stage assignment itself is illegal: the input is
//!   off stage 0, a stage exceeds the latency, or an adder consumes a
//!   value from a *later* stage (the value would be needed before it is
//!   produced — the signature of a broken retiming move);
//! * **`MRP040`** — the stage assignment is fine but a signal crosses a
//!   pipeline boundary without owning a register there, so the hardware
//!   would wire a stale/skewed value through combinationally. This is
//!   exactly the fault [`PipelinedNetlist::drop_register`] injects, and
//!   the latency-adjusted equivalence check catches dynamically; the lint
//!   catches it statically.

use mrp_arch::{Node, NodeId, PipelinedNetlist};

use crate::diag::{Diagnostic, LintCode, LintReport};
use crate::LintConfig;

pub(crate) fn run(net: &PipelinedNetlist, _config: &LintConfig, report: &mut LintReport) {
    let graph = &net.graph;
    let n = graph.len();
    report.stats.nodes = n;
    report.stats.adders = graph.adder_count();
    report.stats.outputs = graph.outputs().iter().filter(|o| o.expected != 0).count();
    report.stats.max_depth = net.critical_stage_depth();

    // Stage-assignment legality (MRP041). A broken assignment makes the
    // register bookkeeping below meaningless, so report and stop.
    let mut legal = true;
    if net.stages.len() != n {
        report.push(Diagnostic::new(
            LintCode::RetimingIllegal,
            format!(
                "stage assignment covers {} node(s) but the graph has {n}",
                net.stages.len()
            ),
        ));
        return;
    }
    if let Some(&s0) = net.stages.first() {
        if s0 != 0 {
            legal = false;
            report.push(
                Diagnostic::new(
                    LintCode::RetimingIllegal,
                    format!("input must sit in stage 0 but is assigned stage {s0}"),
                )
                .at_node(0),
            );
        }
    }
    for (i, &s) in net.stages.iter().enumerate() {
        if s > net.latency {
            legal = false;
            report.push(
                Diagnostic::new(
                    LintCode::RetimingIllegal,
                    format!("stage {s} exceeds the pipeline latency {}", net.latency),
                )
                .at_node(i),
            );
        }
    }
    for (i, node) in graph.nodes().iter().enumerate() {
        if let Node::Add { lhs, rhs } = node {
            for t in [lhs, rhs] {
                let j = t.node.index();
                if j >= i {
                    // Reference/topology breakage is the graph lint's
                    // MRP001/MRP002 territory; skip it here.
                    continue;
                }
                if net.stages[j] > net.stages[i] {
                    legal = false;
                    report.push(
                        Diagnostic::new(
                            LintCode::RetimingIllegal,
                            format!(
                                "adder in stage {} reads node {j} from later stage {} — \
                                 the value is needed before it is produced",
                                net.stages[i], net.stages[j]
                            ),
                        )
                        .at_node(i),
                    );
                }
            }
        }
    }
    if !legal {
        return;
    }

    // Register coverage (MRP040): every boundary a signal crosses must
    // hold a register for it, adder edges and output sampling alike.
    let covered = |src: usize, b: u32| {
        net.registered
            .get(src)
            .is_some_and(|regs| regs.contains(&b))
    };
    for (i, node) in graph.nodes().iter().enumerate() {
        if let Node::Add { lhs, rhs } = node {
            for t in [lhs, rhs] {
                let j = t.node.index();
                if j >= i {
                    continue;
                }
                for b in (net.stages[j] + 1)..=net.stages[i] {
                    if !covered(j, b) {
                        report.push(
                            Diagnostic::new(
                                LintCode::UnregisteredCrossing,
                                format!(
                                    "{}·x crosses boundary {b} into the stage-{} adder at \
                                     node {i} without a register",
                                    graph.value(NodeId::from_index(j)),
                                    net.stages[i]
                                ),
                            )
                            .at_node(j),
                        );
                    }
                }
            }
        }
    }
    for o in graph.outputs() {
        let j = o.term.node.index();
        if o.expected == 0 || j >= n {
            continue;
        }
        for b in (net.stages[j] + 1)..=net.latency {
            if !covered(j, b) {
                report.push(
                    Diagnostic::new(
                        LintCode::UnregisteredCrossing,
                        format!(
                            "output `{}` samples {}·x across boundary {b} without a register",
                            o.label,
                            graph.value(NodeId::from_index(j)),
                        ),
                    )
                    .at_node(j)
                    .at_signal(o.label.clone()),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_arch::{AdderGraph, Term};

    /// x -> a(7x) -> b(29x) -> c(117x); outputs on a and c.
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

    fn lint(net: &PipelinedNetlist) -> LintReport {
        let mut r = LintReport::default();
        run(net, &LintConfig::default(), &mut r);
        r
    }

    #[test]
    fn legal_fully_registered_pipeline_is_clean() {
        let net = PipelinedNetlist::new(chain(), vec![0, 0, 1, 1]);
        let r = lint(&net);
        assert!(r.is_clean(), "{}", r.render_pretty());
        assert_eq!(r.stats.max_depth, 2);
    }

    #[test]
    fn dropped_register_raises_unregistered_crossing() {
        let mut net = PipelinedNetlist::new(chain(), vec![0, 0, 1, 1]);
        assert!(net.drop_register(0, 1));
        let r = lint(&net);
        // Both stage-1 adders read x, so the missing register is reported
        // once per consuming edge.
        let hits = r.with_code(LintCode::UnregisteredCrossing);
        assert_eq!(hits.len(), 2, "{}", r.render_pretty());
        assert!(hits.iter().all(|d| d.node == Some(0)));
        // The dynamic gate agrees with the static finding.
        assert!(net.verify_outputs_latency_adjusted(&[1, 2, 3]).is_some());
    }

    #[test]
    fn dropped_output_register_names_the_signal() {
        let mut net = PipelinedNetlist::new(chain(), vec![0, 0, 1, 2]);
        assert!(net.drop_register(1, 2)); // a's boundary-2 register (output path)
        let r = lint(&net);
        let hits = r.with_code(LintCode::UnregisteredCrossing);
        assert_eq!(hits.len(), 1, "{}", r.render_pretty());
        assert_eq!(hits[0].signal.as_deref(), Some("c0"));
    }

    #[test]
    fn backward_edge_raises_retiming_illegal() {
        let net = PipelinedNetlist::new(chain(), vec![0, 1, 0, 1]);
        let r = lint(&net);
        assert!(!r.with_code(LintCode::RetimingIllegal).is_empty());
    }

    #[test]
    fn input_off_stage_zero_raises_retiming_illegal() {
        let net = PipelinedNetlist::new(chain(), vec![1, 1, 1, 1]);
        let r = lint(&net);
        let hits = r.with_code(LintCode::RetimingIllegal);
        assert_eq!(hits.len(), 1, "{}", r.render_pretty());
        assert_eq!(hits[0].node, Some(0));
    }
}
