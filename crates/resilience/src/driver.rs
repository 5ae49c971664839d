//! The supervised synthesis driver.
//!
//! [`synthesize`] walks the fallback ladder from the configured start rung
//! downward. Each rung attempt is isolated: it runs under
//! [`catch_unwind`] (a panic degrades the ladder instead of crashing the
//! caller), under the shared wall-clock [`Deadline`] (a rung that cannot
//! start before the deadline is skipped; a rung that runs past it is
//! abandoned on a worker thread), and with the exact rung's node cap from
//! the [`StageBudget`]. Whatever a rung produces must pass the `mrp-lint`
//! gate and a coefficient-equivalence check before it is accepted; a
//! netlist that fails either is treated exactly like a rung failure.
//!
//! The terminal `spt` rung runs with no deadline: per-coefficient SPT
//! recoding is always constructible, so a supervised run ends with *some*
//! valid multiplier block unless the input itself is out of range or the
//! caller set a quality floor above the rungs that survived.
//!
//! In debug builds the MRP optimizer additionally lint-checks its own
//! output and panics on internal errors (`debug_assert`); under this
//! driver such a panic is caught at the rung boundary and degrades the
//! ladder like any other fault — the debug hook and the supervisor
//! compose.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use mrp_analysis::{pipeline_and_retime, AnalysisContext, Analyzer, TransformDelta};
use mrp_arch::{AdderGraph, Term};
use mrp_core::{realize_cse, realize_simple, MrpConfig, MrpOptimizer, SeedOptimizer};
use mrp_exact::{realize_recipes, solve_mcm, McmConfig, McmProblem};
use mrp_lint::{lint_graph, lint_pipelined, LintConfig, Severity};
use mrp_numrep::Repr;
use mrp_obs::json;

use crate::budget::{Deadline, StageBudget};
use crate::error::{Degradation, PipelineError};
use crate::fault::{FaultKind, FaultPlan};
use crate::ladder::Rung;

/// Input samples used for the coefficient-equivalence gate.
const VERIFY_SAMPLES: [i64; 7] = [-3, -1, 0, 1, 2, 7, 100];

/// Extended stream for the compiled-path re-simulation: the tree-walk
/// witness samples followed by deterministic pseudorandom samples, long
/// enough to exercise lane batching and chunk-boundary delay carries in
/// `mrp-exec` while staying far from `i64` overflow for any coefficient
/// the width gate admits.
fn verify_stream() -> Vec<i64> {
    let mut stream = VERIFY_SAMPLES.to_vec();
    let mut rng = mrp_ptest::Rng::new(0x5EED_51D0);
    while stream.len() < 256 {
        stream.push(rng.i64_in(-1000, 1000));
    }
    stream
}

/// Configuration of one supervised synthesis run.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Base MRP configuration shared by the MRP rungs.
    pub base: MrpConfig,
    /// Wall-clock and node budgets.
    pub budget: StageBudget,
    /// Rung to start from (default: the best, `mrp+cse`).
    pub start_rung: Rung,
    /// Quality floor: the driver refuses to degrade below this rung and
    /// reports [`PipelineError::LadderExhausted`] instead (default: `spt`,
    /// i.e. no floor).
    pub min_rung: Rung,
    /// Lint gate configuration.
    pub lint: LintConfig,
    /// Deterministic faults to inject (default: none).
    pub faults: FaultPlan,
    /// When set, every accepted netlist is additionally pipelined into
    /// stages of at most this many adders (then retimed), and must pass
    /// the pipelined lint plus the latency-adjusted equivalence gate; a
    /// gate failure degrades the ladder like any other rung fault.
    /// `None` keeps the driver purely combinational (default).
    pub pipeline_depth: Option<u32>,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            base: MrpConfig::default(),
            budget: StageBudget::default(),
            start_rung: Rung::MrpCse,
            min_rung: Rung::Spt,
            lint: LintConfig::default(),
            faults: FaultPlan::none(),
            pipeline_depth: None,
        }
    }
}

/// What the pipeline gate measured on the accepted netlist, reported
/// alongside the combinational outcome when
/// [`SynthConfig::pipeline_depth`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineSummary {
    /// Combinational critical path before pipelining (adder stages).
    pub combinational_depth: u32,
    /// Deepest within-stage adder chain after pipelining + retiming.
    pub stage_depth: u32,
    /// Pipeline latency in cycles.
    pub latency: u32,
    /// Pipeline registers after retiming.
    pub registers: usize,
    /// Retiming moves that were accepted.
    pub retime_moves: usize,
}

impl From<&TransformDelta> for PipelineSummary {
    fn from(delta: &TransformDelta) -> Self {
        PipelineSummary {
            combinational_depth: delta.combinational_depth,
            stage_depth: delta.stage_depth,
            latency: delta.latency,
            registers: delta.registers_after,
            retime_moves: delta.retime_moves,
        }
    }
}

impl PipelineSummary {
    /// The `pipeline` object of `mrpf synth --json` and
    /// `mrpf analyze --json`.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"latency\":{},\"stage_depth\":{},\"combinational_depth\":{},\
             \"registers\":{},\"retime_moves\":{}}}",
            self.latency,
            self.stage_depth,
            self.combinational_depth,
            self.registers,
            self.retime_moves
        )
    }

    /// Critical-path reduction the pipeline bought, in percent.
    pub fn reduction_pct(&self) -> f64 {
        if self.combinational_depth == 0 {
            return 0.0;
        }
        100.0 * (self.combinational_depth - self.stage_depth) as f64
            / self.combinational_depth as f64
    }
}

/// What the exact branch-and-bound MCM search did inside an `exact` rung
/// attempt, reported alongside the attempt's timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactStats {
    /// Nodes the branch-and-bound expanded (root included).
    pub nodes: usize,
    /// Whether the node budget (or deadline) clipped the search.
    pub budget_exhausted: bool,
    /// Whether the reported adder count is proved minimal over the
    /// bounded search space.
    pub proven_optimal: bool,
    /// Admissible lower bound on the optimal adder count.
    pub lower_bound: usize,
    /// Whether the search beat the greedy MRP+CSE incumbent (when it
    /// did not, the rung delivers the incumbent's verified netlist).
    pub improved: bool,
}

/// Wall-clock accounting of one attempted rung, whether it was accepted
/// or degraded past. Mirrors the per-rung trace spans (`rung[<name>]`)
/// the driver emits through `mrp-obs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungAttempt {
    /// The rung that was attempted.
    pub rung: Rung,
    /// Wall-clock time the attempt took, milliseconds.
    pub elapsed_ms: u64,
    /// Whether this attempt produced the accepted netlist.
    pub accepted: bool,
    /// Branch-and-bound accounting, for `exact` rung attempts that ran
    /// the search (`None` on every other rung, and on attempts that
    /// failed before the search finished).
    pub exact: Option<ExactStats>,
}

/// The result of a supervised synthesis run.
#[derive(Debug, Clone)]
pub struct SynthOutcome {
    /// The accepted multiplier block (lint-clean, coefficient-equivalent).
    pub graph: AdderGraph,
    /// The rung that produced it.
    pub rung: Rung,
    /// Every rung failure recorded on the way down, best rung first.
    pub degradations: Vec<Degradation>,
    /// Per-rung wall-clock accounting, in attempt order (the last entry
    /// is the accepted rung).
    pub attempts: Vec<RungAttempt>,
    /// Warning-severity lint findings on the accepted netlist.
    pub lint_warnings: usize,
    /// Wall-clock time of the whole run, milliseconds.
    pub elapsed_ms: u64,
    /// Pipeline gate measurements, when a pipeline depth was requested.
    pub pipeline: Option<PipelineSummary>,
}

impl SynthOutcome {
    /// Whether the run landed below its starting rung.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// Adders in the accepted block.
    pub fn adders(&self) -> usize {
        self.graph.adder_count()
    }

    /// Human-readable report: rung, size, and each degradation reason.
    pub fn render_pretty(&self) -> String {
        let mut out = format!(
            "rung used: {}{}\nadders: {}\ncritical path: {}\nlint: clean ({} warning(s))\nelapsed: {} ms\n",
            self.rung,
            if self.degraded() { " (degraded)" } else { "" },
            self.adders(),
            self.graph.max_depth(),
            self.lint_warnings,
            self.elapsed_ms,
        );
        if let Some(p) = &self.pipeline {
            out.push_str(&format!(
                "pipeline: latency {} cycle(s), stage depth {} (from {}), \
                 {} register(s), {} retime move(s)\n",
                p.latency, p.stage_depth, p.combinational_depth, p.registers, p.retime_moves,
            ));
        }
        if !self.attempts.is_empty() {
            out.push_str("attempts:\n");
            for a in &self.attempts {
                let exact = match &a.exact {
                    None => String::new(),
                    Some(e) => format!(
                        "; search: {} node(s), lower bound {}{}{}",
                        e.nodes,
                        e.lower_bound,
                        if e.budget_exhausted {
                            ", budget exhausted"
                        } else {
                            ""
                        },
                        if e.proven_optimal {
                            ", proven optimal"
                        } else {
                            ""
                        },
                    ),
                };
                out.push_str(&format!(
                    "  - {}: {} ms ({}{})\n",
                    a.rung,
                    a.elapsed_ms,
                    if a.accepted { "accepted" } else { "failed" },
                    exact
                ));
            }
        }
        if self.degraded() {
            out.push_str("degradations:\n");
            for d in &self.degradations {
                out.push_str(&format!("  - {d}\n"));
            }
        }
        out
    }

    /// Machine-readable report mirroring [`SynthOutcome::render_pretty`].
    pub fn render_json(&self) -> String {
        let degradations: Vec<String> = self
            .degradations
            .iter()
            .map(|d| {
                format!(
                    "{{\"rung\":{},\"kind\":{},\"reason\":{}}}",
                    json::string(d.rung.name()),
                    json::string(d.error.kind()),
                    json::string(&d.error.to_string())
                )
            })
            .collect();
        let attempts: Vec<String> = self
            .attempts
            .iter()
            .map(|a| {
                let exact = match &a.exact {
                    None => String::new(),
                    Some(e) => format!(
                        ",\"nodes\":{},\"budget_exhausted\":{},\"proven_optimal\":{},\
                         \"lower_bound\":{},\"improved\":{}",
                        e.nodes, e.budget_exhausted, e.proven_optimal, e.lower_bound, e.improved
                    ),
                };
                format!(
                    "{{\"rung\":{},\"elapsed_ms\":{},\"accepted\":{}{}}}",
                    json::string(a.rung.name()),
                    a.elapsed_ms,
                    a.accepted,
                    exact
                )
            })
            .collect();
        let pipeline = match &self.pipeline {
            None => String::new(),
            Some(p) => format!(",\"pipeline\":{}", p.render_json()),
        };
        format!(
            "{{\"rung\":{},\"degraded\":{},\"adders\":{},\"critical_path\":{},\"lint_warnings\":{},\"elapsed_ms\":{}{},\"attempts\":[{}],\"degradations\":[{}]}}",
            json::string(self.rung.name()),
            self.degraded(),
            self.adders(),
            self.graph.max_depth(),
            self.lint_warnings,
            self.elapsed_ms,
            pipeline,
            attempts.join(","),
            degradations.join(",")
        )
    }
}

/// Synthesizes `coeffs` under supervision, degrading down the fallback
/// ladder until a rung produces a lint-clean, coefficient-equivalent
/// netlist.
///
/// # Errors
///
/// * [`PipelineError::BadConfig`] when `start_rung < min_rung`;
/// * [`PipelineError::LadderExhausted`] when every admissible rung failed
///   (out-of-range coefficients, a quality floor above the surviving
///   rungs, or faults injected into the terminal rung).
///
/// # Examples
///
/// ```
/// use mrp_resilience::{synthesize, Rung, SynthConfig};
///
/// let out = synthesize(&[70, 66, 17, 9, 27, 41, 56, 11], &SynthConfig::default())?;
/// assert_eq!(out.rung, Rung::MrpCse);
/// assert!(!out.degraded());
/// # Ok::<(), mrp_resilience::PipelineError>(())
/// ```
pub fn synthesize(coeffs: &[i64], config: &SynthConfig) -> Result<SynthOutcome, PipelineError> {
    synthesize_under(coeffs, config, Deadline::start(config.budget.deadline_ms))
}

/// [`synthesize`] with a caller-owned [`Deadline`].
///
/// The plain driver starts its clock when it is called; a long-running
/// front end (e.g. `mrpf serve`) instead starts the deadline the moment
/// a request is *admitted*, so time spent queued behind other work counts
/// against the request's budget rather than silently extending it. The
/// outcome's `elapsed_ms` is measured on the same clock, so it includes
/// any such queue wait.
///
/// # Errors
///
/// Same taxonomy as [`synthesize`].
pub fn synthesize_under(
    coeffs: &[i64],
    config: &SynthConfig,
    deadline: Deadline,
) -> Result<SynthOutcome, PipelineError> {
    if config.start_rung < config.min_rung {
        return Err(PipelineError::BadConfig(format!(
            "start rung `{}` is below the quality floor `{}`",
            config.start_rung, config.min_rung
        )));
    }
    if config.pipeline_depth == Some(0) {
        return Err(PipelineError::BadConfig(
            "pipeline depth must be at least 1 adder per stage".to_string(),
        ));
    }
    let _span = mrp_obs::span("synth");
    let mut degradations = Vec::new();
    let mut attempts: Vec<RungAttempt> = Vec::new();
    let mut rung = config.start_rung;
    loop {
        // The rung span brackets the attempt on the supervisor thread;
        // stage spans from an isolated worker land on that worker's
        // track but share the same trace clock.
        let rung_span = mrp_obs::span_dyn(format!("rung[{rung}]"));
        let attempt_start = Instant::now();
        let result = attempt_rung(coeffs, rung, config, &deadline);
        let elapsed_ms = rung_span
            .elapsed_ns()
            .map(|ns| ns / 1_000_000)
            .unwrap_or_else(|| attempt_start.elapsed().as_millis() as u64);
        drop(rung_span);
        match result {
            Ok((graph, lint_warnings, pipeline, exact)) => {
                attempts.push(RungAttempt {
                    rung,
                    elapsed_ms,
                    accepted: true,
                    exact,
                });
                return Ok(SynthOutcome {
                    graph,
                    rung,
                    degradations,
                    attempts,
                    lint_warnings,
                    elapsed_ms: deadline.elapsed_ms(),
                    pipeline,
                });
            }
            Err(error) => {
                attempts.push(RungAttempt {
                    rung,
                    elapsed_ms,
                    accepted: false,
                    exact: None,
                });
                mrp_obs::instant_dyn(format!("degrade[{rung}]: {}", error.kind()));
                degradations.push(Degradation { rung, error });
            }
        }
        match rung.next_lower() {
            Some(lower) if lower >= config.min_rung => rung = lower,
            _ => return Err(PipelineError::LadderExhausted(degradations)),
        }
    }
}

/// Result of one successful rung attempt made through [`try_rung`].
#[derive(Debug, Clone)]
pub struct RungOutcome {
    /// The lint-clean, coefficient-equivalent netlist the rung produced.
    pub graph: AdderGraph,
    /// Warning-severity lint findings on the accepted netlist.
    pub lint_warnings: usize,
    /// Pipeline gate measurements, when a pipeline depth was requested.
    pub pipeline: Option<PipelineSummary>,
    /// Branch-and-bound accounting when the rung was `exact`.
    pub exact: Option<ExactStats>,
}

/// Attempts a single rung of the fallback ladder end to end — budgeted,
/// panic-isolated build, then the lint and coefficient-equivalence gates
/// — without walking the ladder on failure. This is the building block
/// concurrent drivers (e.g. `mrp-batch`'s racing mode) use to run
/// independent rung attempts in parallel under the same per-stage
/// budgets the sequential [`synthesize`] driver enforces.
///
/// # Errors
///
/// Returns the same [`PipelineError`] taxonomy as [`synthesize`]; the
/// caller decides whether to degrade, retry, or fail.
pub fn try_rung(
    coeffs: &[i64],
    rung: Rung,
    config: &SynthConfig,
    deadline: &Deadline,
) -> Result<RungOutcome, PipelineError> {
    attempt_rung(coeffs, rung, config, deadline).map(|(graph, lint_warnings, pipeline, exact)| {
        RungOutcome {
            graph,
            lint_warnings,
            pipeline,
            exact,
        }
    })
}

/// Attempts one rung end to end: fault checks, budgeted + isolated build,
/// injected corruption, lint gate, equivalence gate.
fn attempt_rung(
    coeffs: &[i64],
    rung: Rung,
    config: &SynthConfig,
    deadline: &Deadline,
) -> Result<
    (
        AdderGraph,
        usize,
        Option<PipelineSummary>,
        Option<ExactStats>,
    ),
    PipelineError,
> {
    let stage = format!("synth[{rung}]");
    if config.faults.armed(FaultKind::Timeout, rung) {
        return Err(PipelineError::Timeout {
            stage,
            budget_ms: deadline.limit_ms().unwrap_or(0),
            injected: true,
        });
    }
    // The terminal rung ignores the deadline: it is the guaranteed floor,
    // and SPT recoding is cheap enough that running it late beats
    // returning nothing.
    let remaining = if rung == Rung::Spt {
        None
    } else {
        deadline.remaining()
    };
    if remaining == Some(Duration::ZERO) {
        return Err(PipelineError::Timeout {
            stage,
            budget_ms: deadline.limit_ms().unwrap_or(0),
            injected: false,
        });
    }
    let mut rung_cfg = config.base;
    rung_cfg.seed_optimizer = match rung {
        // The exact rung seeds its incumbent from the best greedy
        // combination, so it shares the MRP+CSE configuration.
        Rung::Exact | Rung::MrpCse => SeedOptimizer::Cse,
        _ => SeedOptimizer::Direct,
    };
    let mcm_nodes = config.budget.mcm_nodes;
    let mcm_deadline = remaining.map(|d| Instant::now() + d);
    let inject_panic = config.faults.armed(FaultKind::Panic, rung);
    let inject_overflow = config.faults.armed(FaultKind::Overflow, rung);
    let owned = coeffs.to_vec();
    let build = move || -> Result<(AdderGraph, Option<ExactStats>), PipelineError> {
        if inject_panic {
            panic!("injected fault: panic at rung {}", rung.name());
        }
        let mut exact_stats = None;
        let mut graph = match rung {
            Rung::Exact => {
                let (graph, stats) = build_exact(&owned, rung_cfg, mcm_nodes, mcm_deadline)?;
                exact_stats = Some(stats);
                graph
            }
            Rung::MrpCse | Rung::Mrp => MrpOptimizer::new(rung_cfg).optimize(&owned)?.graph,
            Rung::CseOnly => realize_cse(&owned)?,
            Rung::Spt => realize_simple(&owned, Repr::Spt)?,
        };
        if inject_overflow {
            // A real overflow path: 2^62·x + 2^62·x exceeds the i64 value
            // tracking range, so `add` reports `ArchError::ValueOverflow`.
            let x = graph.input();
            graph
                .add(Term::shifted(x, 62), Term::shifted(x, 62))
                .map_err(PipelineError::Arch)?;
        }
        Ok((graph, exact_stats))
    };
    let (mut graph, exact_stats) = run_isolated(&stage, remaining, deadline.limit_ms(), build)??;
    if config.faults.armed(FaultKind::Corrupt, rung) {
        config.faults.corrupt_netlist(&mut graph, rung);
    }
    accept(&stage, &graph, config)
        .map(|(graph, lint_warnings, pipeline)| (graph, lint_warnings, pipeline, exact_stats))
}

/// The `exact` rung build: run the greedy MRP+CSE pipeline for an
/// incumbent, then the `mrp-exact` branch-and-bound seeded with its adder
/// count. A strictly better solution is replayed into a netlist; on a
/// standing incumbent (including every budget-exhausted search that found
/// nothing better) the greedy graph itself is delivered, so the rung
/// never fails for budget reasons — only for the same faults that would
/// fail `mrp+cse`.
fn build_exact(
    coeffs: &[i64],
    rung_cfg: MrpConfig,
    mcm_nodes: usize,
    mcm_deadline: Option<Instant>,
) -> Result<(AdderGraph, ExactStats), PipelineError> {
    let greedy = MrpOptimizer::new(rung_cfg).optimize(coeffs)?.graph;
    let incumbent = greedy.adder_count();
    let problem = McmProblem::from_coeffs(coeffs)?;
    let mcm_cfg = McmConfig {
        node_cap: mcm_nodes,
        incumbent: Some(incumbent),
        depth_limit: rung_cfg.max_depth,
        deadline: mcm_deadline,
    };
    let out = solve_mcm(&problem, &mcm_cfg);
    let stats = ExactStats {
        nodes: out.nodes_expanded,
        budget_exhausted: out.budget_exhausted,
        proven_optimal: out.proven_optimal,
        lower_bound: out.lower_bound,
        improved: out.solution.is_some(),
    };
    let graph = match out.solution {
        Some(sol) => realize_recipes(coeffs, &sol.recipes)?,
        None => greedy,
    };
    Ok((graph, stats))
}

/// Runs `f` with panic isolation, and — when a deadline remains — on a
/// worker thread so a stage that overruns can be abandoned. An abandoned
/// worker keeps running detached until it finishes on its own; its result
/// is discarded.
fn run_isolated<T: Send + 'static>(
    stage: &str,
    remaining: Option<Duration>,
    budget_ms: Option<u64>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, PipelineError> {
    let Some(remaining) = remaining else {
        // No deadline: isolate panics in-thread.
        return catch_unwind(AssertUnwindSafe(f)).map_err(|payload| PipelineError::Panic {
            stage: stage.to_string(),
            message: panic_message(payload.as_ref()),
        });
    };
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()));
        // The receiver may have given up; a dead channel is fine.
        let _ = tx.send(result);
    });
    match rx.recv_timeout(remaining) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(message)) => Err(PipelineError::Panic {
            stage: stage.to_string(),
            message,
        }),
        Err(_) => Err(PipelineError::Timeout {
            stage: stage.to_string(),
            budget_ms: budget_ms.unwrap_or(0),
            injected: false,
        }),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The lint configuration actually used for `graph`: the configured one,
/// with `input_width` clamped so that the widest constant in the graph
/// still fits the linter's 63-bit analysis range. Without the clamp a
/// maximum-magnitude coefficient set (|c| near 2^48) would be rejected as
/// unanalyzable at the default 16-bit input width even though the netlist
/// is perfectly valid at a narrower one.
fn effective_lint(graph: &AdderGraph, lint: &LintConfig) -> LintConfig {
    let mut widest: u32 = 0;
    for idx in 0..graph.len() {
        let v = graph.value(mrp_arch::NodeId::from_index(idx));
        widest = widest.max(64 - v.unsigned_abs().leading_zeros());
    }
    for o in graph.outputs() {
        widest = widest.max(64 - o.expected.unsigned_abs().leading_zeros());
    }
    let available = 63u32.saturating_sub(widest).max(1);
    LintConfig {
        input_width: lint.input_width.min(available),
        ..*lint
    }
}

/// The acceptance gate: the netlist must be lint-error-free and
/// coefficient-equivalent on the verification samples; with a pipeline
/// depth configured it must additionally survive the pipeline gate.
fn accept(
    stage: &str,
    graph: &AdderGraph,
    config: &SynthConfig,
) -> Result<(AdderGraph, usize, Option<PipelineSummary>), PipelineError> {
    let lint_span = mrp_obs::span("gate.lint");
    let report = lint_graph(graph, &effective_lint(graph, &config.lint));
    drop(lint_span);
    if report.has_errors() {
        let first = report
            .diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map(|d| d.to_string())
            .unwrap_or_default();
        return Err(PipelineError::LintRejected {
            stage: stage.to_string(),
            errors: report.error_count(),
            first,
        });
    }
    let equiv_span = mrp_obs::span("gate.equiv");
    let verdict = graph.verify_outputs(&VERIFY_SAMPLES);
    drop(equiv_span);
    if let Some((label, input)) = verdict {
        return Err(PipelineError::NotEquivalent { label, input });
    }
    // Compiled-path re-simulation over a longer stream: the tree walk
    // above stays the differential oracle; the lowered program is what
    // production verification runs at scale, so it must agree too.
    let compiled_span = mrp_obs::span("gate.equiv.compiled");
    let stream = verify_stream();
    let verdict = mrp_exec::verify_block_compiled(graph, &stream);
    mrp_obs::counter_add("gate.equiv.compiled_samples", stream.len() as u64);
    drop(compiled_span);
    if let Some((label, input)) = verdict {
        return Err(PipelineError::NotEquivalent { label, input });
    }
    let pipeline = match config.pipeline_depth {
        None => None,
        Some(m) => Some(pipeline_gate(stage, graph, config, m)?),
    };
    mrp_obs::counter_add("synth.adders", graph.adder_count() as u64);
    Ok((graph.clone(), report.warning_count(), pipeline))
}

/// The pipeline gate: slice the accepted netlist into stages of at most
/// `max_stage_depth` adders, retime, and require the result to pass both
/// the static `MRP04x` lint and the dynamic latency-adjusted equivalence
/// check. A failure is reported like a rung fault so the ladder degrades.
fn pipeline_gate(
    stage: &str,
    graph: &AdderGraph,
    config: &SynthConfig,
    max_stage_depth: u32,
) -> Result<PipelineSummary, PipelineError> {
    let _span = mrp_obs::span("gate.pipeline");
    let lint_cfg = effective_lint(graph, &config.lint);
    let az = Analyzer::new(
        graph,
        AnalysisContext {
            input_width: lint_cfg.input_width,
        },
    );
    let (net, delta) = pipeline_and_retime(&az, max_stage_depth);
    let report = lint_pipelined(&net, &lint_cfg);
    if report.has_errors() {
        let first = report
            .diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map(|d| d.to_string())
            .unwrap_or_default();
        return Err(PipelineError::LintRejected {
            stage: format!("{stage}/pipeline"),
            errors: report.error_count(),
            first,
        });
    }
    if let Some((label, input)) = net.verify_outputs_latency_adjusted(&VERIFY_SAMPLES) {
        return Err(PipelineError::NotEquivalent { label, input });
    }
    // Latency-adjusted re-simulation through the compiled pipelined
    // program (the tree-walk `step` above remains the oracle).
    let compiled_span = mrp_obs::span("gate.equiv.compiled");
    let stream = verify_stream();
    let verdict = mrp_exec::verify_pipelined_compiled(&net, &stream);
    mrp_obs::counter_add("gate.equiv.compiled_samples", stream.len() as u64);
    drop(compiled_span);
    if let Some((label, input)) = verdict {
        return Err(PipelineError::NotEquivalent { label, input });
    }
    Ok(PipelineSummary::from(&delta))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: [i64; 8] = [70, 66, 17, 9, 27, 41, 56, 11];

    #[test]
    fn accept_gate_runs_the_compiled_resimulation() {
        mrp_obs::enable();
        let before = mrp_obs::counter_value("gate.equiv.compiled_samples").unwrap_or(0);
        let out = synthesize(&PAPER, &SynthConfig::default()).unwrap();
        assert!(!out.degraded());
        let after = mrp_obs::counter_value("gate.equiv.compiled_samples").unwrap_or(0);
        assert!(
            after >= before + 256,
            "compiled re-simulation should stream >= 256 samples ({before} -> {after})"
        );
    }

    #[test]
    fn healthy_run_uses_best_rung() {
        let out = synthesize(&PAPER, &SynthConfig::default()).unwrap();
        assert_eq!(out.rung, Rung::MrpCse);
        assert!(!out.degraded());
        assert!(out.adders() > 0);
        assert_eq!(out.graph.verify_outputs(&VERIFY_SAMPLES), None);
        assert_eq!(out.attempts.len(), 1);
        assert!(out.attempts[0].accepted);
        assert_eq!(out.attempts[0].rung, Rung::MrpCse);
    }

    #[test]
    fn exact_rung_is_never_worse_than_greedy() {
        let greedy = synthesize(&PAPER, &SynthConfig::default()).unwrap();
        let cfg = SynthConfig {
            start_rung: Rung::Exact,
            ..SynthConfig::default()
        };
        let out = synthesize(&PAPER, &cfg).unwrap();
        assert_eq!(out.rung, Rung::Exact);
        assert!(!out.degraded());
        assert!(
            out.adders() <= greedy.adders(),
            "{} > {}",
            out.adders(),
            greedy.adders()
        );
        assert_eq!(out.graph.verify_outputs(&VERIFY_SAMPLES), None);
        let stats = out.attempts[0].exact.expect("exact attempt carries stats");
        assert!(stats.lower_bound <= out.adders());
        let json = out.render_json();
        assert!(json.contains("\"rung\":\"exact\""), "{json}");
        assert!(json.contains("\"nodes\":"), "{json}");
        assert!(json.contains("\"budget_exhausted\":"), "{json}");
    }

    #[test]
    fn exhausted_mcm_budget_still_accepts_the_incumbent() {
        let cfg = SynthConfig {
            start_rung: Rung::Exact,
            budget: StageBudget {
                mcm_nodes: 1,
                ..StageBudget::default()
            },
            ..SynthConfig::default()
        };
        let out = synthesize(&PAPER, &cfg).unwrap();
        assert_eq!(out.rung, Rung::Exact, "budget exhaustion must not degrade");
        assert!(!out.degraded());
        assert_eq!(out.graph.verify_outputs(&VERIFY_SAMPLES), None);
        let stats = out.attempts[0].exact.expect("stats present");
        assert!(stats.nodes <= 1);
    }

    #[test]
    fn panic_at_exact_degrades_to_mrp_cse() {
        let cfg = SynthConfig {
            start_rung: Rung::Exact,
            faults: FaultPlan::parse("panic@exact").unwrap(),
            ..SynthConfig::default()
        };
        let out = synthesize(&PAPER, &cfg).unwrap();
        assert_eq!(out.rung, Rung::MrpCse);
        assert_eq!(out.degradations.len(), 1);
        assert_eq!(out.degradations[0].rung, Rung::Exact);
        assert!(
            out.attempts[0].exact.is_none(),
            "failed attempt carries no stats"
        );
    }

    #[test]
    fn attempts_record_every_rung_tried() {
        let cfg = SynthConfig {
            faults: FaultPlan::parse("panic@mrp+cse,panic@mrp").unwrap(),
            ..SynthConfig::default()
        };
        let out = synthesize(&PAPER, &cfg).unwrap();
        assert_eq!(out.rung, Rung::CseOnly);
        let rungs: Vec<Rung> = out.attempts.iter().map(|a| a.rung).collect();
        assert_eq!(rungs, vec![Rung::MrpCse, Rung::Mrp, Rung::CseOnly]);
        assert_eq!(
            out.attempts.iter().filter(|a| a.accepted).count(),
            1,
            "exactly the last attempt is accepted"
        );
        assert!(out.attempts.last().unwrap().accepted);
        // Per-attempt elapsed never exceeds the whole run.
        for a in &out.attempts {
            assert!(a.elapsed_ms <= out.elapsed_ms + 1, "{a:?}");
        }
        let json = out.render_json();
        assert!(
            json.contains("\"attempts\":[{\"rung\":\"mrp+cse\""),
            "{json}"
        );
        assert!(json.contains("\"accepted\":true"), "{json}");
        let pretty = out.render_pretty();
        assert!(pretty.contains("attempts:"), "{pretty}");
        assert!(pretty.contains("(accepted)"), "{pretty}");
    }

    #[test]
    fn caller_owned_deadline_counts_queue_wait() {
        // A deadline that expired before the driver even starts models a
        // request that burned its whole budget waiting in a queue: every
        // deadline-bound rung is skipped and the spt floor still delivers.
        let cfg = SynthConfig {
            budget: StageBudget {
                deadline_ms: Some(0),
                ..StageBudget::default()
            },
            ..SynthConfig::default()
        };
        let out = synthesize_under(&PAPER, &cfg, Deadline::start(Some(0))).unwrap();
        assert_eq!(out.rung, Rung::Spt);
        assert!(out.degraded());
        assert!(out
            .degradations
            .iter()
            .all(|d| matches!(d.error, PipelineError::Timeout { .. })));
    }

    #[test]
    fn quality_floor_above_start_is_rejected() {
        let cfg = SynthConfig {
            start_rung: Rung::CseOnly,
            min_rung: Rung::MrpCse,
            ..SynthConfig::default()
        };
        assert!(matches!(
            synthesize(&PAPER, &cfg),
            Err(PipelineError::BadConfig(_))
        ));
    }

    #[test]
    fn injected_panic_degrades_one_rung() {
        let cfg = SynthConfig {
            faults: FaultPlan::parse("panic@mrp+cse").unwrap(),
            ..SynthConfig::default()
        };
        let out = synthesize(&PAPER, &cfg).unwrap();
        assert_eq!(out.rung, Rung::Mrp);
        assert_eq!(out.degradations.len(), 1);
        assert!(matches!(
            out.degradations[0].error,
            PipelineError::Panic { .. }
        ));
    }

    #[test]
    fn floor_turns_degradation_into_exhaustion() {
        let cfg = SynthConfig {
            faults: FaultPlan::parse("panic@mrp+cse").unwrap(),
            min_rung: Rung::MrpCse,
            ..SynthConfig::default()
        };
        match synthesize(&PAPER, &cfg) {
            Err(PipelineError::LadderExhausted(ds)) => {
                assert_eq!(ds.len(), 1);
                assert_eq!(ds[0].rung, Rung::MrpCse);
            }
            other => panic!("expected LadderExhausted, got {other:?}"),
        }
    }

    #[test]
    fn renders_are_well_formed() {
        let cfg = SynthConfig {
            faults: FaultPlan::parse("corrupt@mrp+cse").unwrap(),
            ..SynthConfig::default()
        };
        let out = synthesize(&PAPER, &cfg).unwrap();
        let pretty = out.render_pretty();
        assert!(pretty.contains("rung used: mrp (degraded)"), "{pretty}");
        assert!(
            pretty.contains("lint-rejected") || pretty.contains("lint gate"),
            "{pretty}"
        );
        let json = out.render_json();
        assert!(json.contains("\"rung\":\"mrp\""), "{json}");
        assert!(json.contains("\"kind\":\"lint-rejected\""), "{json}");
    }

    #[test]
    fn json_escape_handles_quotes_and_newlines() {
        let cfg = SynthConfig {
            faults: FaultPlan::parse("panic@mrp+cse").unwrap(),
            ..SynthConfig::default()
        };
        let mut out = synthesize(&PAPER, &cfg).unwrap();
        out.degradations[0].error = PipelineError::Panic {
            stage: "synth".into(),
            message: "a\"b\\c\nd".into(),
        };
        let json = out.render_json();
        assert!(
            json.contains(r#""reason":"synth: panicked: a\"b\\c\nd""#),
            "{json}"
        );
        assert!(!json.contains('\n'), "{json}");
    }

    #[test]
    fn pipeline_gate_reports_a_summary_and_reduces_the_path() {
        let cfg = SynthConfig {
            pipeline_depth: Some(1),
            ..SynthConfig::default()
        };
        let out = synthesize(&PAPER, &cfg).unwrap();
        assert!(!out.degraded());
        let p = out.pipeline.expect("pipeline summary");
        assert_eq!(p.combinational_depth, out.graph.max_depth());
        assert!(p.stage_depth <= 1);
        assert_eq!(p.latency, p.combinational_depth.saturating_sub(1));
        assert!(p.reduction_pct() > 0.0);
        let pretty = out.render_pretty();
        assert!(pretty.contains("pipeline: latency"), "{pretty}");
        let json = out.render_json();
        assert!(json.contains("\"pipeline\":{\"latency\":"), "{json}");
    }

    #[test]
    fn unpipelined_reports_are_unchanged() {
        let out = synthesize(&PAPER, &SynthConfig::default()).unwrap();
        assert!(out.pipeline.is_none());
        assert!(!out.render_pretty().contains("pipeline:"));
        assert!(!out.render_json().contains("\"pipeline\""));
    }

    #[test]
    fn zero_pipeline_depth_is_rejected() {
        let cfg = SynthConfig {
            pipeline_depth: Some(0),
            ..SynthConfig::default()
        };
        assert!(matches!(
            synthesize(&PAPER, &cfg),
            Err(PipelineError::BadConfig(_))
        ));
    }

    #[test]
    fn corruption_still_degrades_with_the_pipeline_gate_on() {
        // The combinational gates run before the pipeline gate, so a
        // corrupted netlist degrades exactly as without pipelining, and
        // the accepted lower rung still carries a pipeline summary.
        let cfg = SynthConfig {
            faults: FaultPlan::parse("corrupt@mrp+cse").unwrap(),
            pipeline_depth: Some(2),
            ..SynthConfig::default()
        };
        let out = synthesize(&PAPER, &cfg).unwrap();
        assert!(out.degraded());
        let p = out.pipeline.expect("pipeline summary");
        assert!(p.stage_depth <= 2);
    }
}
