//! Pipelined acceptance sweep over the paper's 12-filter example suite.
//!
//! Every netlist the default MRP pipeline produces must survive the full
//! pipeline story with zero spurious diagnostics: `pipeline_by_depth` +
//! `retime` produce a netlist that passes both the static `MRP04x` lints
//! and the dynamic latency-adjusted equivalence gate, the RTL written from
//! that netlist lints clean against the graph, and the `MRP042` growth
//! bound stays silent at the width the analysis itself reports as safe.

use mrp_analysis::{pipeline_and_retime, AnalysisContext, Analyzer};
use mrp_arch::{emit_verilog, emit_verilog_pipelined, PipelinedNetlist};
use mrp_core::{MrpConfig, MrpOptimizer};
use mrp_filters::example_filters;
use mrp_lint::{lint_graph, lint_pipelined, lint_verilog, width::min_safe_width, LintConfig};
use mrp_numrep::{quantize, Scaling};

const VERIFY_SAMPLES: [i64; 7] = [-3, -1, 0, 1, 2, 7, 100];

fn suite_graphs() -> Vec<(String, mrp_arch::AdderGraph)> {
    example_filters()
        .iter()
        .map(|ex| {
            let taps = ex.design().expect("design");
            let coeffs = quantize(&taps, 12, Scaling::Uniform)
                .expect("quantize")
                .values;
            let r = MrpOptimizer::new(MrpConfig::default())
                .optimize(&coeffs)
                .expect("optimize");
            (ex.label(), r.graph)
        })
        .collect()
}

#[test]
fn latency_zero_rtl_is_the_combinational_rtl_on_the_suite() {
    for (label, graph) in suite_graphs() {
        let net = PipelinedNetlist::new(graph.clone(), vec![0; graph.len()]);
        assert_eq!(
            emit_verilog_pipelined(&net, "dut", 16),
            emit_verilog(&graph, "dut", 16),
            "{label}"
        );
    }
}

#[test]
fn pipelined_verilog_lints_clean_on_the_suite() {
    let width = 16u32;
    let config = LintConfig {
        input_width: width,
        ..LintConfig::default()
    };
    for (label, graph) in suite_graphs() {
        let az = Analyzer::new(&graph, AnalysisContext::default());
        for stage_depth in [1, 2] {
            let (net, _) = pipeline_and_retime(&az, stage_depth);
            let src = emit_verilog_pipelined(&net, "pipe_dut", width);
            let report = lint_verilog(&graph, &src, &config);
            assert!(
                report.is_clean(),
                "{label} at stage depth {stage_depth}: pipelined RTL lint not clean\n{}",
                report.render_pretty()
            );
        }
    }
}

#[test]
fn pipelined_and_retimed_netlists_pass_both_gates_on_the_suite() {
    let config = LintConfig::default();
    for (label, graph) in suite_graphs() {
        if graph.max_depth() == 0 {
            continue;
        }
        let az = Analyzer::new(&graph, AnalysisContext::default());
        let (net, delta) = pipeline_and_retime(&az, 1);
        assert!(
            delta.stage_depth <= 1,
            "{label}: stage depth {} after pipelining to 1",
            delta.stage_depth
        );
        let report = lint_pipelined(&net, &config);
        assert!(
            report.is_clean(),
            "{label}: pipelined lint not clean\n{}",
            report.render_pretty()
        );
        assert_eq!(
            net.verify_outputs_latency_adjusted(&VERIFY_SAMPLES),
            None,
            "{label}: latency-adjusted equivalence failed"
        );
    }
}

#[test]
fn growth_bound_is_silent_at_the_reported_safe_width() {
    for (label, graph) in suite_graphs() {
        let safe = min_safe_width(&graph, 16);
        let config = LintConfig {
            width_growth_bound: Some(safe),
            ..LintConfig::default()
        };
        let report = lint_graph(&graph, &config);
        assert!(
            report.is_clean(),
            "{label}: spurious diagnostics at the safe bound {safe}\n{}",
            report.render_pretty()
        );
    }
}
