//! Ablation studies of the MRP design knobs, quantifying claims the paper
//! makes qualitatively:
//!
//! 1. **Pipelining (§4)** — registers needed for the cheapest balanced
//!    pipeline cut, MRPF vs CSE: the MRP structure's SEED/overhead boundary
//!    should cut far cheaper than the irregular CSE network.
//! 2. **Depth constraint (Table 1 footnote)** — SEED size and adders vs
//!    the spanning-tree depth bound.
//! 3. **Maximum SID shift `W` (§3.1)** — solution quality vs the shift
//!    range explored.
//! 4. **β (Eq. 1, §3.3)** — adders and sharing (fanout) vs the benefit
//!    weight.

use mrp_arch::{AdderGraph, NodeId, PipelinedNetlist};
use mrp_bench::{print_header, quantized_example};
use mrp_core::{MrpConfig, MrpOptimizer};
use mrp_cse::hartley_cse;
use mrp_filters::example_filters;
use mrp_numrep::Scaling;

/// The cheapest balanced single cut `(depth, registers)`: one pipeline
/// boundary after adder depth `d`, with neither stage more than
/// `ceil(D / 2)` adders deep, costed as the registers of that two-stage
/// netlist (ties go to the shallower cut). `None` when the graph is too
/// shallow to split.
fn balanced_cut(graph: &AdderGraph) -> Option<(u32, usize)> {
    let max = graph.max_depth();
    let half = max.div_ceil(2);
    (1..max)
        .filter(|&d| d <= half && max - d <= half)
        .map(|d| {
            let stages = (0..graph.len())
                .map(|i| u32::from(graph.depth(NodeId::from_index(i)) > d))
                .collect();
            let net = PipelinedNetlist::new(graph.clone(), stages);
            (d, net.register_count())
        })
        .min_by_key(|&(d, regs)| (regs, d))
}

fn main() {
    let suite = example_filters();
    let ex = &suite[8]; // 90th-order LS band-stop
    let coeffs = quantized_example(ex, 16, Scaling::Uniform);
    println!(
        "workload: example {} ({}), {} taps, W = 16, uniform scaling",
        ex.index,
        ex.label(),
        coeffs.len()
    );
    println!();

    // 1. Pipelining.
    print_header(
        "Ablation 1 — pipeline cut cost (registers), MRPF vs CSE",
        "cheapest balanced single cut of the multiplier block (§4)",
    );
    let mrp = MrpOptimizer::new(MrpConfig::default())
        .optimize(&coeffs)
        .expect("mrp");
    let primaries: Vec<i64> = {
        let set = mrp_core::CoeffSet::new(&coeffs).expect("coeffs");
        set.primaries().to_vec()
    };
    let cse = hartley_cse(&primaries);
    let (mut cse_graph, outs) = cse.build_graph().expect("cse graph");
    for (i, (&t, &c)) in outs.iter().zip(&primaries).enumerate() {
        cse_graph.push_output(format!("c{i}"), t, c);
    }
    for (name, graph) in [("MRPF", &mrp.graph), ("CSE", &cse_graph)] {
        match balanced_cut(graph) {
            Some((depth, regs)) => println!(
                "{name:<6} depth {:>2}, balanced cut at {depth}: {regs} registers ({} adders)",
                graph.max_depth(),
                graph.adder_count()
            ),
            None => println!("{name:<6} too shallow to pipeline"),
        }
    }
    println!();

    // 2. Depth constraint.
    print_header(
        "Ablation 2 — depth constraint vs SEED size and adders",
        "Table 1 uses depth 3; unconstrained trees trade delay for SEED",
    );
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8}",
        "depth", "adders", "roots", "colors", "height"
    );
    for depth in [1u32, 2, 3, 4, 6, u32::MAX] {
        let cfg = MrpConfig {
            max_depth: Some(depth),
            ..MrpConfig::default()
        };
        let r = MrpOptimizer::new(cfg).optimize(&coeffs).expect("mrp");
        let label = if depth == u32::MAX {
            "inf".to_string()
        } else {
            depth.to_string()
        };
        let (roots, colors) = r.seed_size();
        println!(
            "{label:>6} {:>8} {roots:>8} {colors:>8} {:>8}",
            r.total_adders(),
            r.stats.tree_height
        );
    }
    println!();

    // 3. Max SID shift.
    print_header(
        "Ablation 3 — maximum SID shift W vs solution quality",
        "larger W widens the edge space (and the search cost)",
    );
    println!("{:>6} {:>8} {:>8}", "W", "adders", "colors");
    for w in [2u32, 4, 8, 12, 17, 22] {
        let cfg = MrpConfig {
            max_shift: Some(w),
            ..MrpConfig::default()
        };
        let r = MrpOptimizer::new(cfg).optimize(&coeffs).expect("mrp");
        println!("{w:>6} {:>8} {:>8}", r.total_adders(), r.seed_colors.len());
    }
    println!();

    // 4. Beta.
    print_header(
        "Ablation 4 — benefit weight beta vs adders and SEED",
        "beta < 0.5 de-emphasizes sharing (interconnect-averse, §3.3)",
    );
    println!(
        "{:>6} {:>8} {:>8} {:>8}",
        "beta", "adders", "roots", "colors"
    );
    for i in 0..=10 {
        let beta = i as f64 / 10.0;
        let cfg = MrpConfig {
            beta,
            ..MrpConfig::default()
        };
        let r = MrpOptimizer::new(cfg).optimize(&coeffs).expect("mrp");
        let (roots, colors) = r.seed_size();
        println!("{beta:>6.1} {:>8} {roots:>8} {colors:>8}", r.total_adders());
    }
}
