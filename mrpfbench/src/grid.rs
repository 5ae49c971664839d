//! `grid`: the paper's 96 cells plus seeded variants, each through
//! `synthesize` with the default ladder, closed loop, one caller.

use std::time::{Duration, Instant};

use mrp_core::{MrpConfig, MrpOptimizer, SeedOptimizer};
use mrp_resilience::{synthesize, Rung, SynthConfig};

use crate::alloc::allocated_during;
use crate::calib::Calibration;
use crate::inputs::{grid_inputs, Input};
use crate::reference::{check_floors, check_netlist};
use crate::rng::Rng;
use crate::stats::{per_input_latency, Metrics};
use crate::trace::{program_spans, Recorder};
use crate::{timed_setup, Run, Tally, CHECK_XS};

pub fn run(
    run: &Run,
    rec: &mut Recorder,
    cal: &mut Calibration,
    m: &mut Metrics,
) -> Result<Tally, String> {
    let inputs = timed_setup(rec, cal, m, 5, |rec| grid_inputs(rec, run.seed))?;
    let config = SynthConfig::default();
    let mut tally = Tally::default();
    // Per input: (adders, depth) of its first accepted netlist.
    let mut quality: Vec<Option<(usize, u32)>> = vec![None; inputs.len()];
    let mut attempts = 0usize;
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut rng = Rng::new(run.seed, 3);

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
    while rounds == 0 || start.elapsed() < Duration::from_secs_f64(run.seconds) {
        rng.shuffle(&mut order);
        for &i in &order {
            cal.tick();
            let input = &inputs[i];
            rec.set_op(tally.attempted);
            tally.attempted += 1;
            let at = cal.now();
            let (result, ms) = rec.time("resilience.synth", || synthesize(&input.coeffs, &config));
            let out = match result {
                Ok(out) => out,
                Err(e) => {
                    tally.fail(&input.label, &e.to_string());
                    continue;
                }
            };
            timed.push((i, at, at + ms / 1e3, ms));
            attempts += out.attempts.len();
            let checked = if out.rung != Rung::MrpCse || out.degraded() {
                Err(format!("landed on {} below the start rung", out.rung))
            } else {
                check_netlist(&out.graph, &input.coeffs, &CHECK_XS)
                    .and_then(|()| check_floors(&out.graph, &input.coeffs))
            }
            .and_then(|()| {
                let got = (out.adders(), out.graph.max_depth());
                match quality[i] {
                    Some(first) if first != got => Err(format!(
                        "{got:?} differs from the earlier visit's {first:?}"
                    )),
                    _ => {
                        quality[i] = Some(got);
                        Ok(())
                    }
                }
            });
            if let Err(why) = checked {
                tally.mismatch(&input.label, &why);
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
    let fixed = inputs.iter().zip(&quality).filter(|(input, _)| input.fixed);
    let (adders, depth) = fixed.fold((0, 0), |(a, d), (_, q)| {
        let (qa, qd) = q.unwrap_or((0, 0));
        (a + qa, d + qd as usize)
    });
    m.set("adders_total", adders as f64, "count");
    m.set("depth_total", depth as f64, "count");

    if rec.tracing() {
        layer_metrics(rec, m, &inputs, rounds, cal.run_scale(), attempts)?;
    }
    Ok(tally)
}

/// Per-layer totals of the traced run, per round (each input once), times
/// scaled by the run's host scale.
fn layer_metrics(
    rec: &mut Recorder,
    m: &mut Metrics,
    inputs: &[Input],
    rounds: u64,
    scale: f64,
    attempts: usize,
) -> Result<(), String> {
    let trace = mrp_obs::export_chrome_trace();
    mrp_obs::disable();
    mrp_obs::reset();
    let program = program_spans(&trace)?;
    crate::write_program_trace(&trace)?;
    let per_round = |ms: f64| ms * scale / rounds as f64;
    let synth = rec.total_ms("resilience.synth");
    m.set("resilience.synth_ms", per_round(synth), "ms");
    m.set(
        "resilience.self_ms",
        per_round(synth - program.inside_synth_foreign_ms),
        "ms",
    );
    m.set(
        "resilience.attempts",
        attempts as f64 / rounds as f64,
        "count",
    );
    for (name, span) in [
        ("core.graph_ms", "core.graph"),
        ("core.wmsc_ms", "core.wmsc"),
        ("core.forest_ms", "core.forest"),
        ("cse.hartley_ms", "cse.hartley"),
    ] {
        m.set(name, per_round(program.self_time(span)), "ms");
    }
    m.set(
        "lint.graph_ms",
        per_round(program.total("lint.graph")),
        "ms",
    );
    m.set(
        "exec.verify_ms",
        per_round(program.total("gate.equiv.compiled")),
        "ms",
    );

    // The MRP+CSE optimizer alone, once per input (one round's worth),
    // after the timed rounds: timed and its allocations counted here.
    let config = MrpConfig {
        seed_optimizer: SeedOptimizer::Cse,
        ..MrpConfig::default()
    };
    let mut bytes = 0u64;
    for input in inputs {
        let ((result, b), _) = rec.time("core.optimize", || {
            allocated_during(|| MrpOptimizer::new(config).optimize(&input.coeffs))
        });
        result.map_err(|e| format!("{}: optimize: {e}", input.label))?;
        bytes += b;
    }
    m.set(
        "core.optimize_ms",
        rec.total_ms("core.optimize") * scale,
        "ms",
    );
    m.set(
        "core.optimize_alloc_mb",
        bytes as f64 / (1024.0 * 1024.0),
        "MB",
    );
    Ok(())
}
