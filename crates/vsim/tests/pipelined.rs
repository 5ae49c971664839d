//! Clocked round-trip: Verilog that `mrp-arch` writes for a pipelined
//! netlist simulates cycle-accurately with the netlist's latency.

use mrp_arch::{emit_verilog_pipelined, AdderGraph, Node, NodeId, PipelinedNetlist, Term};
use mrp_core::{MrpConfig, MrpOptimizer};
use mrp_vsim::Module;

fn drive(module: &Module, inputs: &[i64]) -> Vec<Vec<i64>> {
    let mut state = module.new_state();
    inputs
        .iter()
        .map(|&x| module.step(&mut state, x).expect("step"))
        .collect()
}

/// Stage of every node when each run of `per_stage` adder levels is one
/// pipeline stage (the input and the first levels in stage 0).
fn sliced(graph: &AdderGraph, per_stage: u32) -> PipelinedNetlist {
    let stages = (0..graph.len())
        .map(|i| graph.depth(NodeId::from_index(i)).saturating_sub(1) / per_stage)
        .collect();
    PipelinedNetlist::new(graph.clone(), stages)
}

#[test]
fn hand_built_two_stage_pipeline() {
    let mut g = AdderGraph::new();
    let x = g.input();
    let a = g.add(Term::shifted(x, 3), Term::negated(x)).unwrap(); // 7
    let b = g.add(Term::shifted(a, 2), Term::of(x)).unwrap(); // 29
    g.push_output("deep", Term::of(b), 29);
    g.push_output("shallow", Term::of(a), 7);
    let net = PipelinedNetlist::new(g, vec![0, 0, 1]);
    let src = emit_verilog_pipelined(&net, "pipe", 12);
    let module = Module::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    assert!(module.is_sequential());

    let inputs = [5i64, -3, 0, 100, 7];
    let outs = drive(&module, &inputs);
    // Cycle 0 output reflects zeroed registers: both stage-2 operands of
    // the deep node and the shallow output's register are still zero.
    assert_eq!(outs[0], vec![0, 0]);
    // From cycle 1 on, outputs are exactly the products of x(t-1).
    for t in 1..inputs.len() {
        assert_eq!(outs[t][0], 29 * inputs[t - 1], "deep output at cycle {t}");
        assert_eq!(outs[t][1], 7 * inputs[t - 1], "shallow output at cycle {t}");
    }
}

#[test]
fn mrpf_block_pipelines_and_simulates() {
    let coeffs = [70i64, 66, 17, 9, 27, 41, 56, 11];
    let r = MrpOptimizer::new(MrpConfig::default())
        .optimize(&coeffs)
        .unwrap();
    assert!(r.graph.max_depth() >= 3, "example too shallow to pipeline");
    // One stage per adder level: the deepest pipeline of the block.
    let net = sliced(&r.graph, 1);
    let latency = net.latency as usize;
    assert!(latency >= 2);
    let src = emit_verilog_pipelined(&net, "mrpf_pipe", 14);
    let module = Module::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    assert_eq!(module.regs.len(), net.register_count());

    let inputs = [0i64, 3, -7, 12, 100, -100, 1, 5, -9];
    let outs = drive(&module, &inputs);
    for t in latency..inputs.len() {
        for (k, &c) in coeffs.iter().enumerate() {
            assert_eq!(
                outs[t][k],
                c * inputs[t - latency],
                "tap {k} at cycle {t}\n{src}"
            );
        }
    }
}

/// Registers a single pipeline cut after adder depth `cut` needs: one per
/// distinct signal at depth ≤ `cut` that an adder deeper than `cut` reads,
/// or that a nonzero output reads (outputs sit after the deepest logic).
fn cut_registers(graph: &AdderGraph, cut: u32) -> usize {
    let mut crosses = vec![false; graph.len()];
    for (i, node) in graph.nodes().iter().enumerate() {
        if let Node::Add { lhs, rhs } = node {
            if graph.depth(NodeId::from_index(i)) > cut {
                for src in [lhs.node, rhs.node] {
                    if graph.depth(src) <= cut {
                        crosses[src.index()] = true;
                    }
                }
            }
        }
    }
    for o in graph.outputs() {
        if o.expected != 0 && graph.depth(o.term.node) <= cut {
            crosses[o.term.node.index()] = true;
        }
    }
    crosses.iter().filter(|&&c| c).count()
}

#[test]
fn register_count_matches_cut_registers() {
    let coeffs = [173i64, 219, 85, 341];
    let r = MrpOptimizer::new(MrpConfig::default())
        .optimize(&coeffs)
        .unwrap();
    let depth = r.graph.max_depth();
    assert!(depth >= 2, "example too shallow to cut");
    for cut in 1..depth {
        // A single cut is the two-stage netlist: stage 1 past depth `cut`.
        let stages = (0..r.graph.len())
            .map(|i| u32::from(r.graph.depth(NodeId::from_index(i)) > cut))
            .collect();
        let net = PipelinedNetlist::new(r.graph.clone(), stages);
        let want = cut_registers(&r.graph, cut);
        assert_eq!(net.register_count(), want, "cut {cut}");
        let src = emit_verilog_pipelined(&net, "p", 12);
        let module = Module::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert_eq!(module.regs.len(), want, "cut {cut}\n{src}");
    }
}

#[test]
fn combinational_module_rejects_step_free_evaluate() {
    let coeffs = [45i64];
    let r = MrpOptimizer::new(MrpConfig::default())
        .optimize(&coeffs)
        .unwrap();
    let src = mrp_arch::emit_verilog(&r.graph, "comb", 12);
    let module = Module::parse(&src).unwrap();
    assert!(!module.is_sequential());
    assert!(module.evaluate(3).is_ok());
}

#[test]
fn random_blocks_pipeline_cycle_accurately() {
    mrp_ptest::run_cases("random_blocks_pipeline_cycle_accurately", 16, |rng| {
        let coeffs = rng.vec_i64(2, 10, 2, 1 << 12);
        let inputs = rng.vec_i64(2, 8, -500, 500);
        let r = MrpOptimizer::new(MrpConfig::default())
            .optimize(&coeffs)
            .unwrap();
        let depth = r.graph.max_depth();
        if depth < 2 {
            return;
        }
        // Two stages, split at half depth.
        let net = sliced(&r.graph, depth.div_ceil(2));
        assert_eq!(net.latency, 1);
        let src = emit_verilog_pipelined(&net, "p", 14);
        let module = Module::parse(&src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
        let outs = drive(&module, &inputs);
        for t in 1..inputs.len() {
            for (k, &c) in coeffs.iter().enumerate() {
                assert_eq!(outs[t][k], c * inputs[t - 1], "tap {k} cycle {t}");
            }
        }
    });
}
