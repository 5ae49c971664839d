//! Differential fuzzing of the compiled path against the tree-walk
//! oracle and the Verilog simulator.
//!
//! Policy (see `docs/sim.md`): the tree-walk evaluators
//! (`FirFilter::filter`, `evaluate_structural`, `PipelinedNetlist::step`)
//! are the oracle; the compiled [`mrp_exec::Machine`] is the production
//! path; `mrp_vsim` re-simulates the *emitted RTL text* as a third,
//! independent leg. Any divergence on seeded random filter specs fails.
//!
//! The pipelined legs agree cycle by cycle: `PipelinedNetlist::step`,
//! the `compile_pipelined` machine, and `mrp_vsim` stepping the RTL that
//! `emit_verilog_pipelined` writes for the same netlist.
//!
//! The CI `sim-differential` job runs this suite in release with
//! `MRP_EXEC_FUZZ_CASES` raised; locally the defaults keep it quick.

use mrp_arch::{
    direct_fir, emit_verilog, emit_verilog_pipelined, simple_multiplier_block, AdderGraph,
    FirFilter,
};
use mrp_exec::{
    compile_block, compile_fir, compile_pipelined, verify_block_compiled,
    verify_pipelined_compiled, Machine,
};
use mrp_numrep::Repr;
use mrp_ptest::{run_cases, Rng};
use mrp_vsim::Module;

/// Case count, overridable so CI can fuzz harder than a local run.
fn cases(default: u64) -> u64 {
    std::env::var("MRP_EXEC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A random nonempty coefficient set small enough that no path can
/// overflow (the tree-walk oracle panics on overflow rather than wrap).
fn random_coeffs(rng: &mut Rng) -> Vec<i64> {
    let mut coeffs = rng.vec_i64(1, 12, -4096, 4096);
    // Keep at least one nonzero tap so FirFilter sees a real block.
    if coeffs.iter().all(|&c| c == 0) {
        coeffs[0] = rng.i64_in(1, 4096);
    }
    coeffs
}

fn block_with_outputs(coeffs: &[i64], repr: Repr) -> AdderGraph {
    let (mut g, outs) = simple_multiplier_block(coeffs, repr).expect("block builds");
    for (i, (&t, &c)) in outs.iter().zip(coeffs).enumerate() {
        g.push_output(format!("c{i}"), t, c);
    }
    g
}

#[test]
fn compiled_fir_matches_tree_walk_and_direct_form() {
    run_cases("compiled_fir_vs_tree_walk", cases(48), |rng| {
        let coeffs = random_coeffs(rng);
        let repr = if rng.i64_in(0, 2) == 0 {
            Repr::Csd
        } else {
            Repr::Spt
        };
        let filter = FirFilter::new(block_with_outputs(&coeffs, repr));
        let input = rng.vec_i64(0, 200, -100_000, 100_000);
        let lanes = rng.i64_in(8, 64) as usize;
        let mut machine = Machine::with_lanes(compile_fir(&filter), lanes);
        let got = machine.run_single(&input);
        assert_eq!(
            got,
            filter.filter(&input),
            "coeffs {coeffs:?} lanes {lanes}"
        );
        assert_eq!(got, direct_fir(&coeffs, &input), "coeffs {coeffs:?}");
        // Streamed in blocks, the tap delays carry across `run` calls.
        let block = rng.usize_in(1, 50);
        machine.reset();
        let streamed: Vec<i64> = input
            .chunks(block)
            .flat_map(|b| machine.run_single(b))
            .collect();
        assert_eq!(streamed, got, "coeffs {coeffs:?} blocks of {block}");
    });
}

#[test]
fn compiled_block_matches_structural_evaluation_and_vsim() {
    run_cases("compiled_block_vs_vsim", cases(24), |rng| {
        let coeffs = random_coeffs(rng);
        let graph = block_with_outputs(&coeffs, Repr::Csd);
        let samples = rng.vec_i64(1, 32, -2048, 2048);
        // Tree-walk oracle and compiled path over the same samples.
        assert_eq!(graph.verify_outputs(&samples), None, "coeffs {coeffs:?}");
        assert_eq!(
            verify_block_compiled(&graph, &samples),
            None,
            "coeffs {coeffs:?}"
        );
        // Third leg: re-simulate the emitted RTL. Width 40 comfortably
        // holds |c| ≤ 4096 times |x| ≤ 2048.
        let module = Module::parse(&emit_verilog(&graph, "mb", 40)).expect("rtl parses");
        let mut machine = Machine::new(compile_block(&graph));
        let compiled = machine.run(&samples);
        for (t, &x) in samples.iter().enumerate() {
            let rtl = module.evaluate(x).expect("rtl evaluates");
            for (k, (o, outs)) in graph.outputs().iter().zip(&compiled).enumerate() {
                if o.expected != 0 {
                    assert_eq!(
                        outs[t], rtl[k],
                        "coeffs {coeffs:?} output {} at x={x}",
                        o.label
                    );
                }
            }
        }
    });
}

#[test]
fn compiled_pipelined_matches_step_and_settled_rtl() {
    run_cases("compiled_pipelined_vs_step", cases(24), |rng| {
        let coeffs = random_coeffs(rng);
        let graph = block_with_outputs(&coeffs, Repr::Csd);
        let az = mrp_analysis::Analyzer::new(&graph, mrp_analysis::AnalysisContext::default());
        let depth = rng.i64_in(1, 3) as u32;
        let (net, _) = mrp_analysis::pipeline_and_retime(&az, depth);
        let samples = rng.vec_i64(1, 24, -2048, 2048);
        // Latency cross-check: tree-walk and compiled must agree.
        assert_eq!(
            net.verify_outputs_latency_adjusted(&samples),
            None,
            "coeffs {coeffs:?} depth {depth}"
        );
        assert_eq!(
            verify_pipelined_compiled(&net, &samples),
            None,
            "coeffs {coeffs:?} depth {depth}"
        );
        // Cycle-exact against step() on the raw stream (wrap semantics).
        let mut machine = Machine::with_lanes(compile_pipelined(&net), 8);
        let outs = machine.run(&samples);
        let mut state = net.new_state();
        for (t, &x) in samples.iter().enumerate() {
            let want = net.step(&mut state, x);
            for (o, w) in want.iter().enumerate() {
                assert_eq!(outs[o][t], *w, "coeffs {coeffs:?} output {o} cycle {t}");
            }
        }
        // Third leg: the emitted pipelined RTL settles to c·x under a
        // constant drive, as must the compiled program's steady state.
        let x = rng.i64_in(-1024, 1024);
        let rtl = emit_verilog(&graph, "mb", 40);
        let module = Module::parse(&rtl).expect("rtl parses");
        let flat = module.evaluate(x).expect("rtl evaluates");
        machine.reset();
        let steady_in = vec![x; net.latency as usize + 4];
        let steady = machine.run(&steady_in);
        for (k, (o, outs)) in graph.outputs().iter().zip(&steady).enumerate() {
            if o.expected != 0 {
                assert_eq!(
                    *outs.last().expect("nonempty"),
                    flat[k],
                    "coeffs {coeffs:?} output {} steady state",
                    o.label
                );
            }
        }
    });
}

/// `v` as a `bits`-wide two's-complement port reads it.
fn wrap(v: i64, bits: u32) -> i64 {
    let s = 64 - bits;
    (v << s) >> s
}

#[test]
fn pipelined_netlist_machine_and_rtl_agree_cycle_by_cycle() {
    run_cases("pipelined_three_way", cases(32), |rng| {
        let coeffs = random_coeffs(rng);
        let graph = block_with_outputs(&coeffs, Repr::Csd);
        let az = mrp_analysis::Analyzer::new(&graph, mrp_analysis::AnalysisContext::default());
        let stage_depth = rng.i64_in(1, i64::from(graph.max_depth().max(1)) + 1) as u32;
        let (mut net, _) = mrp_analysis::pipeline_and_retime(&az, stage_depth);
        // One case in four drops a register: every leg must model the
        // same wire-through.
        let owned: Vec<(usize, u32)> = net
            .registered
            .iter()
            .enumerate()
            .flat_map(|(i, regs)| regs.iter().map(move |&b| (i, b)))
            .collect();
        let dropped = (rng.i64_in(0, 4) == 0 && !owned.is_empty())
            .then(|| owned[rng.usize_in(0, owned.len())]);
        if let Some((node, boundary)) = dropped {
            assert!(net.drop_register(node, boundary));
        }
        let case = format!("coeffs {coeffs:?} stage depth {stage_depth} dropped {dropped:?}");

        let width = 12;
        let rtl = emit_verilog_pipelined(&net, "mbp", width);
        let module = Module::parse(&rtl).expect("pipelined rtl parses");
        assert_eq!(module.regs.len(), net.register_count(), "{case}");

        let samples = rng.vec_i64(1, 64, -(1 << (width - 1)), 1 << (width - 1));
        let compiled = Machine::with_lanes(compile_pipelined(&net), 8).run(&samples);
        let mut state = net.new_state();
        let mut regs = module.new_state();
        for (t, &x) in samples.iter().enumerate() {
            let want = net.step(&mut state, x);
            let got = module.step(&mut regs, x).expect("rtl steps");
            for (k, (&w, port)) in want.iter().zip(&module.outputs).enumerate() {
                assert_eq!(compiled[k][t], w, "{case}: machine output {k} cycle {t}");
                assert_eq!(
                    got[k],
                    wrap(w, port.width),
                    "{case}: rtl output {k} cycle {t}\n{rtl}"
                );
            }
        }
    });
}
