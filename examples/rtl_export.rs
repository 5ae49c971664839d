//! RTL export: generate synthesizable Verilog for an MRPF multiplier block
//! (the structure the paper pushed through Synopsys DesignWare) and print
//! the cost model's synthesized-style summary.
//!
//! Run with `cargo run --example rtl_export [output.v]`.

use mrpf::analysis::{pipeline_and_retime, AnalysisContext, Analyzer};
use mrpf::arch::emit_verilog_pipelined;
use mrpf::core::{MrpConfig, MrpOptimizer, SeedOptimizer};
use mrpf::hwcost::{block_cost, AdderKind, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let coeffs = [70i64, 66, 17, 9, 27, 41, 56, 11];
    let cfg = MrpConfig {
        seed_optimizer: SeedOptimizer::Cse,
        ..MrpConfig::default()
    };
    let result = MrpOptimizer::new(cfg).optimize(&coeffs)?;
    let width = 16;
    let verilog = mrpf::arch::emit_verilog(&result.graph, "mrpf_mult_block", width);

    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &verilog)?;
            println!("wrote {} bytes of Verilog to {path}", verilog.len());
        }
        None => println!("{verilog}"),
    }

    // A pipelined variant of the same block (§4): stages of at most half
    // the depth, retimed, then checked against the delayed coefficients.
    let stage_depth = result.graph.max_depth().div_ceil(2).max(1);
    let az = Analyzer::new(&result.graph, AnalysisContext::default());
    let (net, delta) = pipeline_and_retime(&az, stage_depth);
    assert_eq!(net.verify_outputs_latency_adjusted(&[-7, 0, 1, 100]), None);
    let pipelined = emit_verilog_pipelined(&net, "mrpf_mult_block_pipe", width);
    eprintln!(
        "// pipelined variant: stage depth {}, latency {}, {} registers, {} lines of Verilog",
        delta.stage_depth,
        delta.latency,
        net.register_count(),
        pipelined.lines().count()
    );

    let tech = Technology::cmos025();
    let cost = block_cost(
        result.total_adders(),
        result.graph.max_depth(),
        AdderKind::CarryLookahead,
        width + 8,
        0.25,
        100.0,
        &tech,
    );
    eprintln!(
        "// cost model ({}): {} adders, {:.0} um^2, {:.2} ns critical path, {:.3} mW @ 100 MHz",
        tech.name, cost.adders, cost.area_um2, cost.critical_path_ns, cost.dynamic_mw
    );
    Ok(())
}
