//! `signoff`: per filter, the exact rung under a pipeline stage depth,
//! retiming, RTL emission and lint, compiled long-stream simulation and
//! tree-walk / RTL re-simulation prefixes. Closed loop, one caller.

use std::time::{Duration, Instant};

use mrp_analysis::{pipeline_and_retime, AnalysisContext, Analyzer};
use mrp_arch::{emit_verilog, FirFilter};
use mrp_exec::{compile_fir, compile_pipelined, Machine};
use mrp_lint::{lint_verilog, LintConfig};
use mrp_resilience::{synthesize, Rung, SynthConfig};
use mrp_vsim::Module;

use crate::calib::Calibration;
use crate::inputs::{signoff_inputs, Input};
use crate::reference::{check_floors, check_netlist, compare_streams, convolve, fold_products};
use crate::rng::Rng;
use crate::stats::{per_input_latency, Metrics};
use crate::trace::{program_spans, Recorder};
use crate::{timed_setup, Run, Tally, CHECK_XS};

/// Adders per pipeline stage.
const STAGE_DEPTH: u32 = 2;
/// Input wordlength of the emitted RTL and of the stimulus.
const INPUT_WIDTH: u32 = 16;
/// Samples through the compiled filter.
const LONG: usize = 1 << 16;
/// Samples through the compiled pipelined block.
const PIPE: usize = 4096;
/// Samples through the tree-walk filter.
const TREE: usize = 1024;
/// Cycles of the tree-walk pipelined block and of the RTL simulation.
const STEP: usize = 256;
/// Whole rounds until at least this many operations have run.
const MIN_OPS: u64 = 100;

/// What the benchmark computes for one filter before the timed phase.
struct Reference {
    stimulus: Vec<i64>,
    /// Direct-form convolution of the coefficients with the stimulus.
    output: Vec<i64>,
    /// Adders of the greedy `mrp+cse` result the exact rung must not exceed.
    greedy_adders: usize,
}

#[derive(Default)]
struct Counts {
    exact_ms: u64,
    exact_attempts: u64,
    exact_nodes: u64,
    exact_exhausted: u64,
    exact_improved: u64,
    attempts: u64,
    registers: u64,
    retime_moves: u64,
    verilog_bytes: u64,
    insts: u64,
    exec_samples: u64,
    tree_samples: u64,
    vsim_samples: u64,
}

pub fn run(
    run: &Run,
    rec: &mut Recorder,
    cal: &mut Calibration,
    m: &mut Metrics,
) -> Result<Tally, String> {
    let inputs = timed_setup(rec, cal, m, 5, signoff_inputs)?;
    let mut rng = Rng::new(run.seed, 4);
    let half = 1i64 << (INPUT_WIDTH - 1);
    let references: Vec<Reference> = inputs
        .iter()
        .map(|input| {
            let stimulus: Vec<i64> = (0..LONG).map(|_| rng.i64_in(-half, half - 1)).collect();
            let greedy = synthesize(&input.coeffs, &SynthConfig::default())
                .map_err(|e| format!("{}: greedy reference: {e}", input.label))?;
            Ok(Reference {
                output: convolve(&input.coeffs, &stimulus),
                stimulus,
                greedy_adders: greedy.adders(),
            })
        })
        .collect::<Result<_, String>>()?;

    let mut tally = Tally::default();
    let mut counts = Counts::default();
    let mut quality: Vec<Option<(usize, u32, usize)>> = vec![None; inputs.len()];
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    if rec.tracing() {
        mrp_obs::enable();
        mrp_obs::reset();
    }
    cal.burst();
    // Per completed operation: input, (start, end) on the calibration
    // clock, and its time in ms.
    let mut timed: Vec<(usize, f64, f64, f64)> = Vec::new();
    let start = Instant::now();
    let mut rounds = 0u64;
    while tally.attempted < MIN_OPS || start.elapsed() < Duration::from_secs_f64(run.seconds) {
        rng.shuffle(&mut order);
        for &i in &order {
            cal.tick();
            rec.set_op(tally.attempted);
            tally.attempted += 1;
            let at = cal.now();
            let op = rec.begin("op");
            let result = sign_off(rec, &inputs[i], &references[i], &mut counts);
            let _ = rec.end(op);
            let end = cal.now();
            match result {
                Err(Failure::Program(why)) => tally.fail(&inputs[i].label, &why),
                Err(Failure::Mismatch(why)) => tally.mismatch(&inputs[i].label, &why),
                Ok((ms, got)) => {
                    timed.push((i, at, end, ms));
                    match quality[i] {
                        Some(first) if first != got => tally.mismatch(
                            &inputs[i].label,
                            &format!("{got:?} differs from the earlier visit's {first:?}"),
                        ),
                        _ => quality[i] = Some(got),
                    }
                }
            }
        }
        rounds += 1;
    }
    cal.burst();
    let mut visits = vec![Vec::new(); inputs.len()];
    for &(i, a, b, ms) in &timed {
        visits[i].push(ms * cal.scale_between(a, b));
    }
    per_input_latency(&visits, m);
    let (adders, depth, registers) = quality
        .iter()
        .flatten()
        .fold((0, 0, 0), |t, q| (t.0 + q.0, t.1 + q.1 as usize, t.2 + q.2));
    m.set("adders_total", adders as f64, "count");
    m.set("depth_total", depth as f64, "count");
    m.set("registers_total", registers as f64, "count");

    if rec.tracing() {
        let trace = mrp_obs::export_chrome_trace();
        mrp_obs::disable();
        mrp_obs::reset();
        let program = program_spans(&trace)?;
        crate::write_program_trace(&trace)?;
        let c = &counts;
        let scale = cal.run_scale();
        // Per round: counts as counted, times scaled by the host scale.
        let n = |count: u64| count as f64 / rounds as f64;
        let t = |ms: f64| ms * scale / rounds as f64;
        let synth = rec.total_ms("resilience.synth");
        m.set("resilience.synth_ms", t(synth), "ms");
        m.set(
            "resilience.self_ms",
            t(synth - program.inside_synth_foreign_ms),
            "ms",
        );
        m.set("resilience.attempts", n(c.attempts), "count");
        for (name, span) in [
            ("core.graph_ms", "core.graph"),
            ("core.wmsc_ms", "core.wmsc"),
            ("core.forest_ms", "core.forest"),
            ("cse.hartley_ms", "cse.hartley"),
        ] {
            m.set(name, t(program.self_time(span)), "ms");
        }
        m.set("lint.graph_ms", t(program.total("lint.graph")), "ms");
        m.set(
            "exec.verify_ms",
            t(program.total("gate.equiv.compiled")),
            "ms",
        );
        m.set("exact.rung_ms", t(c.exact_ms as f64), "ms");
        m.set("exact.nodes", n(c.exact_nodes), "count");
        m.set("exact.exhausted", n(c.exact_exhausted), "count");
        m.set(
            "exact.improved_ratio",
            c.exact_improved as f64 / c.exact_attempts.max(1) as f64,
            "ratio",
        );
        m.set(
            "analysis.pipeline_ms",
            t(rec.total_ms("analysis.pipeline")),
            "ms",
        );
        m.set("analysis.retime_moves", n(c.retime_moves), "count");
        m.set("arch.emit_ms", t(rec.total_ms("arch.emit")), "ms");
        m.set("arch.verilog_kb", n(c.verilog_bytes) / 1024.0, "KB");
        m.set("lint.verilog_ms", t(rec.total_ms("lint.verilog")), "ms");
        m.set("exec.compile_ms", t(rec.total_ms("exec.compile")), "ms");
        m.set("exec.insts", n(c.insts), "count");
        let rate = |samples: u64, ms: f64| samples as f64 / (ms * scale * 1e3).max(1e-9);
        m.set(
            "exec.msamples_per_s",
            rate(c.exec_samples, rec.total_ms("exec.run")),
            "M/s",
        );
        m.set(
            "sim.tree_msamples_per_s",
            rate(c.tree_samples, rec.total_ms("sim.tree")),
            "M/s",
        );
        m.set("vsim.parse_ms", t(rec.total_ms("vsim.parse")), "ms");
        m.set(
            "vsim.ksamples_per_s",
            1e3 * rate(c.vsim_samples, rec.total_ms("vsim.eval")),
            "K/s",
        );
    }
    Ok(tally)
}

enum Failure {
    /// The program returned an error.
    Program(String),
    /// The program returned an output that fails a check.
    Mismatch(String),
}

fn mismatch<T>(r: Result<T, String>) -> Result<T, Failure> {
    r.map_err(Failure::Mismatch)
}

/// Signs off one filter; returns the time spent in the program's calls
/// and the netlist's (adders, depth, registers after retiming).
fn sign_off(
    rec: &mut Recorder,
    input: &Input,
    reference: &Reference,
    c: &mut Counts,
) -> Result<(f64, (usize, u32, usize)), Failure> {
    let coeffs = &input.coeffs;
    let x = &reference.stimulus;
    let y = &reference.output;
    let mut ms = 0.0;
    let config = SynthConfig {
        start_rung: Rung::Exact,
        pipeline_depth: Some(STAGE_DEPTH),
        ..SynthConfig::default()
    };
    let (result, t) = rec.time("resilience.synth", || synthesize(coeffs, &config));
    ms += t;
    let out = result.map_err(|e| Failure::Program(e.to_string()))?;
    c.attempts += out.attempts.len() as u64;
    if out.rung != Rung::Exact || out.degraded() {
        return Err(Failure::Mismatch(format!(
            "landed on {} below the start rung",
            out.rung
        )));
    }
    if let Some(e) = out.attempts.iter().find(|a| a.rung == Rung::Exact) {
        c.exact_ms += e.elapsed_ms;
        c.exact_attempts += 1;
        if let Some(s) = e.exact {
            c.exact_nodes += s.nodes as u64;
            c.exact_exhausted += s.budget_exhausted as u64;
            c.exact_improved += s.improved as u64;
        }
    }
    let graph = &out.graph;
    mismatch(check_netlist(graph, coeffs, &CHECK_XS))?;
    mismatch(check_floors(graph, coeffs))?;
    if out.adders() > reference.greedy_adders {
        return Err(Failure::Mismatch(format!(
            "exact rung gave {} adders, greedy mrp+cse {}",
            out.adders(),
            reference.greedy_adders
        )));
    }

    let ctx = AnalysisContext {
        input_width: INPUT_WIDTH,
    };
    let ((net, delta), t) = rec.time("analysis.pipeline", || {
        pipeline_and_retime(&Analyzer::new(graph, ctx), STAGE_DEPTH)
    });
    ms += t;
    c.registers += delta.registers_after as u64;
    c.retime_moves += delta.retime_moves as u64;
    let latency = net.latency as usize;

    let (rtl, t) = rec.time("arch.emit", || {
        emit_verilog(graph, "fir_block", INPUT_WIDTH)
    });
    ms += t;
    c.verilog_bytes += rtl.len() as u64;
    let lint = LintConfig {
        input_width: INPUT_WIDTH,
        ..LintConfig::default()
    };
    let (report, t) = rec.time("lint.verilog", || lint_verilog(graph, &rtl, &lint));
    ms += t;
    if report.has_errors() {
        return Err(Failure::Mismatch(format!(
            "RTL lint: {}",
            report.render_pretty()
        )));
    }

    let (fir, t) = rec.time("exec.compile", || {
        compile_fir(&FirFilter::new(graph.clone()))
    });
    ms += t;
    let (pipe, t) = rec.time("exec.compile", || compile_pipelined(&net));
    ms += t;
    c.insts += (fir.insts.len() + pipe.insts.len()) as u64;
    let (long, t) = rec.time("exec.run", || Machine::new(fir).run_single(x));
    ms += t;
    mismatch(compare_streams("compiled filter", &long, y))?;
    let mut fed: Vec<i64> = x[..PIPE].to_vec();
    fed.resize(PIPE + latency, 0);
    let (products, t) = rec.time("exec.run", || Machine::new(pipe).run(&fed));
    ms += t;
    c.exec_samples += (LONG + fed.len()) as u64;
    let folded = fold_products(coeffs, &products, latency, PIPE);
    mismatch(compare_streams(
        "compiled pipelined block",
        &folded,
        &y[..PIPE],
    ))?;

    let (tree, t) = rec.time("sim.tree", || {
        FirFilter::new(graph.clone()).filter(&x[..TREE])
    });
    ms += t;
    mismatch(compare_streams("tree-walk filter", &tree, &y[..TREE]))?;
    let (cycles, t) = rec.time("sim.tree", || {
        let mut state = net.new_state();
        (0..STEP + latency)
            .map(|t| {
                net.step(
                    &mut state,
                    x.get(t).copied().filter(|_| t < STEP).unwrap_or(0),
                )
            })
            .collect::<Vec<_>>()
    });
    ms += t;
    c.tree_samples += (TREE + STEP + latency) as u64;
    let stepped = fold_products(coeffs, &per_tap(&cycles), latency, STEP);
    mismatch(compare_streams(
        "tree-walk pipelined block",
        &stepped,
        &y[..STEP],
    ))?;

    let (module, t) = rec.time("vsim.parse", || Module::parse(&rtl));
    ms += t;
    let module = module.map_err(|e| Failure::Program(format!("RTL parse: {e}")))?;
    let (evaluated, t) = rec.time("vsim.eval", || {
        x[..STEP]
            .iter()
            .map(|&v| module.evaluate(v))
            .collect::<Result<Vec<_>, _>>()
    });
    ms += t;
    c.vsim_samples += STEP as u64;
    let evaluated = evaluated.map_err(|e| Failure::Program(format!("RTL simulation: {e}")))?;
    let simulated = fold_products(coeffs, &per_tap(&evaluated), 0, STEP);
    mismatch(compare_streams("RTL simulation", &simulated, &y[..STEP]))?;
    Ok((ms, (out.adders(), graph.max_depth(), delta.registers_after)))
}

/// Cycle-major output rows to one stream per tap.
fn per_tap(rows: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let taps = rows.first().map_or(0, Vec::len);
    (0..taps)
        .map(|k| rows.iter().map(|r| r[k]).collect())
        .collect()
}
