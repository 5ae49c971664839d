//! Subcommand implementations.

use std::fmt;

use mrp_analysis::{
    pipeline_and_retime, AnalysisContext, Analyzer, ConeOfInfluence, CriticalPath, Depth,
    Dominators, Fanout, TransformDelta, WidthMap,
};
use mrp_arch::{emit_verilog, to_dot_labeled, NodeId, PipelinedNetlist};
use mrp_batch::{parse_specs, run_batch, BatchOptions};
use mrp_core::{adder_report, MrpConfig, MrpOptimizer, SeedOptimizer};
use mrp_filters::{butterworth_fir, least_squares, remez, FilterSpec};
use mrp_lint::{lint_graph, lint_verilog, LintConfig};
use mrp_numrep::{quantize, Repr, Scaling};
use mrp_obs::json;
use mrp_resilience::{synthesize, FaultPlan, PipelineSummary, Rung, StageBudget, SynthConfig};
use mrp_serve::{run_chaos, ChaosOptions, ServeOptions, Server};

use crate::args::{Args, ParseArgsError};

/// CLI-level errors with user-facing messages.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ParseArgsError> for CliError {
    fn from(e: ParseArgsError) -> Self {
        CliError(e.0)
    }
}

macro_rules! bail {
    ($($t:tt)*) => { return Err(CliError(format!($($t)*))) };
}

/// Usage text shown by `mrpf help` and on errors.
pub const USAGE: &str = "\
mrpf — multiplierless FIR synthesis (MRPF reproduction)

USAGE:
  mrpf design   --kind lowpass|highpass|bandpass|bandstop --fp F --fs F
                [--fp2 F --fs2 F] [--rp DB] [--rs DB] [--order N]
                [--method pm|ls|bw] [--w BITS --scaling uniform|maximal]
                (--rp is the passband ripple and --rs the stopband
                 attenuation in dB)
  mrpf optimize C0,C1,...  [--repr spt|sm] [--beta B] [--depth D]
                [--seed direct|cse|recursive]
  mrpf emit     C0,C1,...  [--name MODULE] [--width BITS] [--seed ...]
  mrpf compare  C0,C1,...
  mrpf respond  C0,C1,...  [--points N] (magnitude response table)
  mrpf lint     C0,C1,...  [--width BITS] [--fanout N] [--growth-bound BITS]
                [--json] [--seed ...]
  mrpf analyze  C0,C1,...  [--width BITS] [--json] [--pipeline-depth N]
                [--dot depth|fanout|width|cone|dom|stage] [--seed ...]
                (cached netlist analyses over the synthesized block:
                 depth, fanout, widths, critical path, cones, dominators;
                 --pipeline-depth pipelines + retimes and reports the
                 delta; --dot prints Graphviz with the chosen overlay)
  mrpf sim      C0,C1,...  [--samples N] [--compiled] [--lanes N]
                [--pipeline-depth N] [--noise-seed N] [--amp A] [--json]
                [--repr ...] [--beta B] [--depth D] [--seed ...]
                (simulate the synthesized netlist over N deterministic
                 noise samples: compiles it to the mrp-exec linear IR and
                 executes in SIMD-batched lanes, cross-checked against
                 the tree-walk oracle; --compiled restricts the oracle to
                 a prefix so million-sample runs stay fast;
                 --pipeline-depth simulates the pipelined netlist with
                 latency-adjusted equivalence; reports samples/sec)
  mrpf synth    C0,C1,...  [--deadline-ms MS] [--min-quality RUNG]
                [--start RUNG] [--faults SPEC] [--exact] [--exact-node-cap N]
                [--width BITS] [--json] [--repr ...] [--beta B] [--depth D]
                [--pipeline-depth N] [--trace FILE] [--metrics FILE]
                (supervised synthesis with fallback ladder
                 exact > mrp+cse > mrp > cse > spt; RUNG is one of those
                 names; the default start is mrp+cse — the exact
                 branch-and-bound top rung is opt-in via --exact or
                 --start exact, with --exact-node-cap bounding its
                 search (it falls back to the greedy result, never
                 fails, on exhaustion); SPEC e.g.
                 panic@mrp+cse,timeout@mrp,seed=7;
                 --trace writes a Chrome trace_event JSON loadable in
                 chrome://tracing or Perfetto, --metrics a flat
                 counters/gauges/histograms JSON)
  mrpf batch    SPECS.json [--jobs N] [--racing] [--json] [--out FILE]
                [--deadline-ms MS] [--min-quality RUNG] [--start RUNG]
                [--faults SPEC] [--exact] [--exact-node-cap N] [--width BITS]
                [--trace FILE] [--metrics FILE]
                (synthesize every filter in a JSON spec file on a
                 work-stealing pool; identical normalized coefficient
                 vectors share one synthesis, and the report bytes are
                 identical for any --jobs value; see docs/batch.md)
  mrpf serve    [--addr HOST:PORT] [--jobs N] [--queue N] [--racing]
                [--store DIR] [--deadline-ms MS] [--min-quality RUNG]
                [--start RUNG] [--exact] [--exact-node-cap N] [--width BITS]
                [--repr ...] [--beta B] [--trace FILE] [--metrics FILE]
                (long-running HTTP service over the batch engine:
                 POST /synth, POST /batch, GET /healthz, GET /metricsz;
                 a bounded queue answers 503 with a load-derived
                 Retry-After when full, identical concurrent POSTs
                 coalesce onto one synthesis, every request runs under
                 --deadline-ms, and ctrl-c drains in-flight work before
                 exiting; --store DIR adds a crash-safe persistent
                 synthesis cache that degrades to memory-only on disk
                 failure; see docs/serve.md and docs/store.md)
  mrpf chaos    [--addr HOST:PORT] [--requests N] [--seed N] [--json]
                (torture a running mrpf serve with a seeded storm of
                 hostile connections — slowloris, truncated bodies,
                 garbage, resets, header floods — interleaved with
                 well-formed probes; fails, with nonzero exit, if any
                 probe's bytes diverge from the pre-storm baseline or
                 the server is unhealthy afterwards)
  mrpf help

Anywhere a C0,C1,... coefficient list is expected, suite:N (N in 1..=12)
substitutes the Nth paper example filter quantized to 12 bits. batch and
serve also take synth's --repr, --beta, --depth, --seed and
--pipeline-depth. --json, --exact, --compiled and --racing are flags and
take no value; every other option takes one. An option or argument a
subcommand does not read is an error.
";

/// The handler of one subcommand.
type Command = fn(&Args) -> Result<String, CliError>;

/// The options that are flags: they never take a value.
pub const FLAGS: &[&str] = &["json", "exact", "compiled", "racing"];
/// Options read by [`parse_config`], space-separated.
const CONFIG_OPTIONS: &str = "repr beta depth seed";
/// Options read by [`parse_synth_config`] on top of [`CONFIG_OPTIONS`].
const SYNTH_OPTIONS: &str =
    "width deadline-ms exact-node-cap faults pipeline-depth start exact min-quality";
/// Observability export files.
const OBS_OPTIONS: &str = "trace metrics";

/// A subcommand's handler, how many positional arguments it reads, and
/// the options it reads, as space-separated lists; `None` for an unknown
/// subcommand.
fn subcommand(name: &str) -> Option<(Command, usize, &'static [&'static str])> {
    Some(match name {
        "design" => (
            design,
            0,
            &["kind fp fs fp2 fs2 rp rs order method w scaling"],
        ),
        "optimize" => (optimize, 1, &[CONFIG_OPTIONS]),
        "emit" => (emit, 1, &[CONFIG_OPTIONS, "name width"]),
        "compare" => (compare, 1, &[]),
        "respond" => (respond, 1, &["points"]),
        "lint" => (lint, 1, &[CONFIG_OPTIONS, "width fanout growth-bound json"]),
        "analyze" => (
            analyze,
            1,
            &[CONFIG_OPTIONS, "width json pipeline-depth dot"],
        ),
        "sim" => (
            sim,
            1,
            &[
                CONFIG_OPTIONS,
                "samples compiled lanes pipeline-depth noise-seed amp json",
            ],
        ),
        "synth" => (
            synth,
            1,
            &[CONFIG_OPTIONS, SYNTH_OPTIONS, OBS_OPTIONS, "json"],
        ),
        "batch" => (
            batch,
            1,
            &[
                CONFIG_OPTIONS,
                SYNTH_OPTIONS,
                OBS_OPTIONS,
                "jobs racing json out",
            ],
        ),
        "serve" => (
            serve,
            0,
            &[
                CONFIG_OPTIONS,
                SYNTH_OPTIONS,
                OBS_OPTIONS,
                "addr jobs queue racing store",
            ],
        ),
        "chaos" => (chaos, 0, &["addr requests seed json"]),
        _ => return None,
    })
}

/// Whether one of the space-separated `options` lists names `option`.
fn reads(options: &[&str], option: &str) -> bool {
    options
        .iter()
        .flat_map(|list| list.split_whitespace())
        .any(|o| o == option)
}

/// Runs one parsed command line, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message for any invalid input,
/// including any option or positional argument the subcommand does not
/// read.
pub fn run(args: &Args) -> Result<String, CliError> {
    if matches!(args.command.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_string());
    }
    let Some((command, positional, options)) = subcommand(&args.command) else {
        bail!("unknown subcommand `{}`\n\n{USAGE}", args.command);
    };
    if let Some(extra) = args.positional.get(positional) {
        bail!(
            "`mrpf {}` does not take the argument `{extra}`; {}",
            args.command,
            crate::USAGE_HINT
        );
    }
    let unknown: Vec<String> = args
        .names()
        .into_iter()
        .filter(|name| !reads(options, name))
        .map(|name| format!("--{name}"))
        .collect();
    if !unknown.is_empty() {
        bail!(
            "`mrpf {}` does not take {}; {}",
            args.command,
            unknown.join(", "),
            crate::USAGE_HINT
        );
    }
    command(args)
}

fn parse_coeffs(args: &Args) -> Result<Vec<i64>, CliError> {
    let Some(raw) = args.positional.first() else {
        bail!("expected a comma-separated coefficient list (e.g. 70,66,17,9) or suite:N");
    };
    // `suite:N` resolves to the Nth paper example filter, designed and
    // uniformly quantized to 12 bits — the same inputs the benchmark and
    // the CI analysis gate sweep.
    if let Some(n) = raw.strip_prefix("suite:") {
        let suite = mrp_filters::example_filters();
        let index: usize = n.parse().map_err(|_| {
            CliError(format!(
                "`{n}` is not a suite index (use suite:1..={})",
                suite.len()
            ))
        })?;
        if index == 0 || index > suite.len() {
            bail!("suite index {index} out of range 1..={}", suite.len());
        }
        let taps = suite[index - 1]
            .design()
            .map_err(|e| CliError(format!("suite filter design failed: {e}")))?;
        let q = quantize(&taps, 12, Scaling::Uniform).map_err(|e| CliError(e.to_string()))?;
        return Ok(q.values);
    }
    raw.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<i64>()
                .map_err(|_| CliError(format!("`{tok}` is not an integer coefficient")))
        })
        .collect()
}

fn parse_config(args: &Args) -> Result<MrpConfig, CliError> {
    let repr = match args.get_str("repr", "spt").as_str() {
        "spt" | "csd" => Repr::Spt,
        "sm" => Repr::SignMagnitude,
        "binary" => Repr::TwosComplement,
        other => bail!("unknown representation `{other}` (use spt|sm|binary)"),
    };
    let seed_optimizer = match args.get_str("seed", "direct").as_str() {
        "direct" => SeedOptimizer::Direct,
        "cse" => SeedOptimizer::Cse,
        "recursive" => SeedOptimizer::Recursive { levels: 2 },
        other => bail!("unknown seed optimizer `{other}` (use direct|cse|recursive)"),
    };
    let depth = args.get_usize("depth", 0)?;
    Ok(MrpConfig {
        repr,
        beta: args.get_f64("beta", 0.5)?,
        max_shift: None,
        max_depth: if depth == 0 { None } else { Some(depth as u32) },
        seed_optimizer,
    })
}

fn design(args: &Args) -> Result<String, CliError> {
    let fp = args.get_f64("fp", 0.1)?;
    let fs = args.get_f64("fs", 0.2)?;
    let rp = args.get_f64("rp", 0.5)?;
    let rs = args.get_f64("rs", 50.0)?;
    let spec = match args.get_str("kind", "lowpass").as_str() {
        "lowpass" => FilterSpec::lowpass(fp, fs, rp, rs),
        "highpass" => FilterSpec::highpass(fs, fp, rp, rs),
        "bandpass" => FilterSpec::bandpass(
            fs,
            fp,
            args.get_f64("fp2", 0.3)?,
            args.get_f64("fs2", 0.4)?,
            rp,
            rs,
        ),
        "bandstop" => FilterSpec::bandstop(
            fp,
            fs,
            args.get_f64("fs2", 0.3)?,
            args.get_f64("fp2", 0.4)?,
            rp,
            rs,
        ),
        other => bail!("unknown filter kind `{other}`"),
    };
    let order = args.get_usize("order", 40)?;
    let taps = match args.get_str("method", "pm").as_str() {
        "pm" => remez(order, &spec.to_bands()),
        "ls" => least_squares(order, &spec.to_bands()),
        "bw" => butterworth_fir(order, 6, (fp + fs) / 2.0),
        other => bail!("unknown design method `{other}` (use pm|ls|bw)"),
    }
    .map_err(|e| CliError(format!("design failed: {e}")))?;
    let w = args.get_usize("w", 0)?;
    if w == 0 {
        // Float output.
        let rows: Vec<String> = taps.iter().map(|t| format!("{t:.10}")).collect();
        return Ok(rows.join("\n"));
    }
    let scaling = match args.get_str("scaling", "uniform").as_str() {
        "uniform" => Scaling::Uniform,
        "maximal" => Scaling::Maximal,
        other => bail!("unknown scaling `{other}` (use uniform|maximal)"),
    };
    let q = quantize(&taps, w as u32, scaling).map_err(|e| CliError(e.to_string()))?;
    let rows: Vec<String> = q.values.iter().map(i64::to_string).collect();
    Ok(rows.join(","))
}

fn optimize(args: &Args) -> Result<String, CliError> {
    let coeffs = parse_coeffs(args)?;
    let cfg = parse_config(args)?;
    let result = MrpOptimizer::new(cfg)
        .optimize(&coeffs)
        .map_err(|e| CliError(e.to_string()))?;
    let (roots, colors) = result.seed_size();
    Ok(format!(
        "taps: {}\nSEED roots: {:?}\nSEED colors: {:?}\nSEED size: ({roots},{colors})\n\
         adders: seed {} + overhead {} = {}\ntree height: {}\nverified: bit-exact",
        coeffs.len(),
        result.seed_roots,
        result.seed_colors,
        result.stats.seed_adders,
        result.stats.overhead_adders,
        result.total_adders(),
        result.stats.tree_height,
    ))
}

fn emit(args: &Args) -> Result<String, CliError> {
    let name = args.get_str("name", "mrpf_block");
    let mut chars = name.chars();
    let identifier = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
    if !identifier {
        bail!("--name must be a Verilog identifier ([A-Za-z_][A-Za-z0-9_]*), got `{name}`");
    }
    let coeffs = parse_coeffs(args)?;
    let cfg = parse_config(args)?;
    let result = MrpOptimizer::new(cfg)
        .optimize(&coeffs)
        .map_err(|e| CliError(e.to_string()))?;
    let width = args.get_usize("width", 16)? as u32;
    if width == 0 || width > 48 {
        bail!("--width must be within 1..=48");
    }
    Ok(emit_verilog(&result.graph, &name, width))
}

fn compare(args: &Args) -> Result<String, CliError> {
    let coeffs = parse_coeffs(args)?;
    let rep = adder_report(&coeffs, &MrpConfig::default()).map_err(|e| CliError(e.to_string()))?;
    Ok(format!(
        "scheme      adders\nsimple      {:>6}\nCSE         {:>6}\nMRPF        {:>6}\nMRPF+CSE    {:>6}\n\
         (primaries: {}, SEED {:?})",
        rep.simple, rep.cse, rep.mrp, rep.mrp_cse, rep.primaries, rep.seed
    ))
}

fn lint(args: &Args) -> Result<String, CliError> {
    let coeffs = parse_coeffs(args)?;
    let cfg = parse_config(args)?;
    let result = MrpOptimizer::new(cfg)
        .optimize(&coeffs)
        .map_err(|e| CliError(e.to_string()))?;
    let width = args.get_usize("width", 16)? as u32;
    if width == 0 || width > 48 {
        bail!("--width must be within 1..=48");
    }
    let fanout = args.get_usize("fanout", 0)?;
    let growth = args.get_usize("growth-bound", 0)?;
    let lint_cfg = LintConfig {
        input_width: width,
        expected_depth: None,
        fanout_warn: if fanout == 0 { None } else { Some(fanout) },
        width_growth_bound: if growth == 0 {
            None
        } else {
            Some(growth as u32)
        },
    };
    let mut report = lint_graph(&result.graph, &lint_cfg);
    if result.graph.outputs().iter().any(|o| o.expected != 0) {
        let src = emit_verilog(&result.graph, "lint_dut", width);
        report.merge(lint_verilog(&result.graph, &src, &lint_cfg));
    }
    let rendered = if args.flag("json") {
        report.render_json()
    } else {
        report.render_pretty()
    };
    if report.has_errors() {
        return Err(CliError(rendered));
    }
    Ok(rendered)
}

fn analyze(args: &Args) -> Result<String, CliError> {
    let coeffs = parse_coeffs(args)?;
    let cfg = parse_config(args)?;
    let result = MrpOptimizer::new(cfg)
        .optimize(&coeffs)
        .map_err(|e| CliError(e.to_string()))?;
    let width = args.get_usize("width", 16)? as u32;
    if width == 0 || width > 48 {
        bail!("--width must be within 1..=48");
    }
    let pipeline_depth = args.get_usize("pipeline-depth", 0)? as u32;
    if pipeline_depth > 64 {
        bail!("--pipeline-depth must be within 1..=64 (0/absent disables pipelining)");
    }
    let graph = result.graph;
    let az = Analyzer::new(&graph, AnalysisContext { input_width: width });
    let pipelined = if pipeline_depth > 0 {
        Some(pipeline_and_retime(&az, pipeline_depth))
    } else {
        None
    };
    if let Some(overlay) = args.get("dot") {
        return analyze_dot(&az, overlay, pipelined.as_ref());
    }

    let depth = az.get_analysis::<Depth>();
    let fanout = az.get_analysis::<Fanout>();
    let wm = az.get_analysis::<WidthMap>();
    let cp = az.get_analysis::<CriticalPath>();
    let cone = az.get_analysis::<ConeOfInfluence>();
    let dom = az.get_analysis::<Dominators>();

    let n = graph.len();
    let outputs = graph.outputs().iter().filter(|o| o.expected != 0).count();
    let widest_cone = (0..n).map(|i| cone.cone_size(i)).max().unwrap_or(0);
    let input_dominated = dom.idom.iter().filter(|d| **d == Some(0)).count();
    let path_nodes: Vec<String> = cp.path.iter().map(|&i| format!("n{i}")).collect();
    let path_values: Vec<String> = cp
        .path
        .iter()
        .map(|&i| format!("{}·x", graph.value(NodeId::from_index(i))))
        .collect();

    if args.flag("json") {
        let path_json: Vec<String> = cp.path.iter().map(usize::to_string).collect();
        let pipeline_json = match &pipelined {
            None => String::new(),
            Some((_, delta)) => format!(
                ",\"pipeline\":{}",
                PipelineSummary::from(delta).render_json()
            ),
        };
        let computed: Vec<String> = az
            .computed_names()
            .iter()
            .map(|name| json::string(name))
            .collect();
        return Ok(format!(
            "{{\"nodes\":{n},\"adders\":{},\"outputs\":{outputs},\
             \"depth\":{},\"critical_path\":[{}],\"max_fanout\":{},\
             \"input_width\":{width},\"min_safe_width\":{},\
             \"largest_cone\":{widest_cone},\"input_dominated\":{input_dominated}\
             {pipeline_json},\"analyses\":[{}]}}",
            graph.adder_count(),
            depth.max,
            path_json.join(","),
            fanout.max,
            wm.min_safe,
            computed.join(",")
        ));
    }

    let mut out = format!(
        "nodes: {n} ({} adder(s)), {outputs} output(s)\n\
         combinational depth: {}\n\
         critical path: {} ({})\n\
         max fanout: {}\n\
         min safe width: {} bit(s) at input width {width}\n\
         largest input cone: {widest_cone} node(s)\n\
         immediately input-dominated: {input_dominated} node(s)\n",
        graph.adder_count(),
        depth.max,
        path_nodes.join(" → "),
        path_values.join(" → "),
        fanout.max,
        wm.min_safe,
    );
    if let Some((net, delta)) = &pipelined {
        out.push_str(&format!(
            "pipeline (≤{pipeline_depth} adder(s)/stage): latency {} cycle(s), \
             stage depth {} (from {}), {} register(s), {} retime move(s)\n",
            delta.latency,
            delta.stage_depth,
            delta.combinational_depth,
            net.register_count(),
            delta.retime_moves,
        ));
    }
    out.push_str(&format!("analyses: {}\n", az.computed_names().join(", ")));
    Ok(out)
}

/// Renders the analyzed graph as Graphviz DOT with one analysis overlaid
/// on the node labels.
fn analyze_dot(
    az: &Analyzer<'_>,
    overlay: &str,
    pipelined: Option<&(PipelinedNetlist, TransformDelta)>,
) -> Result<String, CliError> {
    let graph = az.graph();
    let name = "mrpf_analyze";
    match overlay {
        "depth" => {
            let d = az.get_analysis::<Depth>();
            Ok(to_dot_labeled(graph, name, |n| {
                Some(format!("depth {}", d.depths[n.index()]))
            }))
        }
        "fanout" => {
            let f = az.get_analysis::<Fanout>();
            Ok(to_dot_labeled(graph, name, |n| {
                Some(format!("fanout {}", f.counts[n.index()]))
            }))
        }
        "width" => {
            let w = az.get_analysis::<WidthMap>();
            Ok(to_dot_labeled(graph, name, |n| {
                Some(format!("{} bit(s)", w.widths[n.index()]))
            }))
        }
        "cone" => {
            let c = az.get_analysis::<ConeOfInfluence>();
            Ok(to_dot_labeled(graph, name, |n| {
                Some(format!("cone {}", c.cone_size(n.index())))
            }))
        }
        "dom" => {
            let d = az.get_analysis::<Dominators>();
            Ok(to_dot_labeled(graph, name, |n| {
                d.idom[n.index()].map(|j| format!("idom n{j}"))
            }))
        }
        "stage" => {
            let Some((net, _)) = pipelined else {
                bail!("--dot stage requires --pipeline-depth N");
            };
            Ok(to_dot_labeled(graph, name, |n| {
                Some(format!("stage {}", net.stages[n.index()]))
            }))
        }
        other => bail!("unknown overlay `{other}` (use depth|fanout|width|cone|dom|stage)"),
    }
}

/// Simulates the synthesized netlist through the compiled linear-IR path
/// (`mrp-exec`), cross-checked against the tree-walk oracle, and reports
/// throughput for both (`docs/sim.md`).
fn sim(args: &Args) -> Result<String, CliError> {
    let coeffs = parse_coeffs(args)?;
    let cfg = parse_config(args)?;
    let result = MrpOptimizer::new(cfg)
        .optimize(&coeffs)
        .map_err(|e| CliError(e.to_string()))?;
    let samples = args.get_usize("samples", 100_000)?;
    if samples == 0 {
        bail!("--samples must be at least 1");
    }
    let lanes = args.get_usize("lanes", mrp_exec::DEFAULT_LANES)?;
    if !(mrp_exec::MIN_LANES..=mrp_exec::MAX_LANES).contains(&lanes) {
        bail!(
            "--lanes must be within {}..={}",
            mrp_exec::MIN_LANES,
            mrp_exec::MAX_LANES
        );
    }
    let pipeline_depth = args.get_usize("pipeline-depth", 0)? as u32;
    if pipeline_depth > 64 {
        bail!("--pipeline-depth must be within 1..=64 (0/absent disables pipelining)");
    }
    let amp = args.get_usize("amp", 1 << 10)? as i64;
    if amp == 0 || amp > 1 << 20 {
        bail!("--amp must be within 1..=1048576 (keeps the oracle overflow-free)");
    }
    let noise_seed = args.get_usize("noise-seed", 1)? as u64;
    let input = mrp_sim::signal::white_noise(samples, amp, noise_seed);
    // With --compiled the tree-walk oracle only re-checks a prefix, so
    // million-sample throughput runs are not bounded by the slow path.
    let oracle_len = if args.flag("compiled") {
        samples.min(65_536)
    } else {
        samples
    };
    let graph = result.graph;

    let (mode, latency, program, compiled, tree, elapsed_compiled, elapsed_tree);
    if pipeline_depth > 0 {
        let az = Analyzer::new(&graph, AnalysisContext::default());
        let (net, _) = pipeline_and_retime(&az, pipeline_depth);
        program = mrp_exec::compile_pipelined(&net);
        let mut machine = mrp_exec::Machine::with_lanes(program.clone(), lanes);
        let t0 = std::time::Instant::now();
        let outs = machine.run(&input);
        elapsed_compiled = t0.elapsed();
        let t0 = std::time::Instant::now();
        let mut state = vec![0i64; net.graph.len() * (net.latency as usize + 1)];
        let want: Vec<Vec<i64>> = input[..oracle_len]
            .iter()
            .map(|&x| net.step(&mut state, x))
            .collect();
        elapsed_tree = t0.elapsed();
        // Transpose the per-cycle oracle rows into per-output streams so
        // both sides compare in the machine's layout.
        let mut tree_outs = vec![Vec::with_capacity(oracle_len); program.outputs.len()];
        for row in &want {
            for (k, &v) in row.iter().enumerate() {
                tree_outs[k].push(v);
            }
        }
        let got: Vec<Vec<i64>> = outs.iter().map(|o| o[..oracle_len].to_vec()).collect();
        mode = "pipelined";
        latency = net.latency;
        compiled = got;
        tree = tree_outs;
    } else {
        let f = mrp_arch::FirFilter::new(graph);
        program = mrp_exec::compile_fir(&f);
        let mut machine = mrp_exec::Machine::with_lanes(program.clone(), lanes);
        let t0 = std::time::Instant::now();
        let y = machine.run_single(&input);
        elapsed_compiled = t0.elapsed();
        let t0 = std::time::Instant::now();
        let want = f.filter(&input[..oracle_len]);
        elapsed_tree = t0.elapsed();
        mode = "combinational";
        latency = 0;
        compiled = vec![y[..oracle_len].to_vec()];
        tree = vec![want];
    }

    if compiled != tree {
        bail!(
            "compiled execution diverged from the tree-walk oracle \
             (taps {coeffs:?}, mode {mode}, lanes {lanes})"
        );
    }
    let rate = |n: usize, d: std::time::Duration| n as f64 / d.as_secs_f64().max(1e-9);
    let compiled_rate = rate(samples, elapsed_compiled);
    let tree_rate = rate(oracle_len, elapsed_tree);
    let speedup = compiled_rate / tree_rate.max(1e-9);

    if args.flag("json") {
        return Ok(format!(
            "{{\"taps\":{},\"mode\":{},\"samples\":{samples},\
             \"oracle_samples\":{oracle_len},\"lanes\":{lanes},\
             \"latency\":{latency},\"insts\":{},\
             \"compiled_samples_per_sec\":{compiled_rate:.1},\
             \"tree_samples_per_sec\":{tree_rate:.1},\
             \"speedup\":{speedup:.2},\"equivalent\":true}}",
            coeffs.len(),
            json::string(mode),
            program.insts.len(),
        ));
    }
    Ok(format!(
        "taps: {} ({mode}, latency {latency} cycle(s))\n\
         program: {} instruction(s) ({} add(s), {} delay(s)), {lanes} lane(s)\n\
         compiled: {samples} sample(s) at {compiled_rate:.0} samples/sec\n\
         tree-walk: {oracle_len} sample(s) at {tree_rate:.0} samples/sec\n\
         speedup: {speedup:.2}x\nequivalent: bit-exact over {oracle_len} sample(s)",
        coeffs.len(),
        program.insts.len(),
        program.adds(),
        program.delays(),
    ))
}

fn parse_rung(args: &Args, option: &str, default: &str) -> Result<Rung, CliError> {
    let raw = args.get_str(option, default);
    match Rung::parse(&raw) {
        Some(r) => Ok(r),
        None => bail!("unknown rung `{raw}` for --{option} (use exact|mrp+cse|mrp|cse|spt)"),
    }
}

/// Builds the supervised-synthesis configuration shared by `synth` and
/// `batch` from the common option set.
fn parse_synth_config(args: &Args) -> Result<SynthConfig, CliError> {
    let base = parse_config(args)?;
    let width = args.get_usize("width", 16)? as u32;
    if width == 0 || width > 48 {
        bail!("--width must be within 1..=48");
    }
    let deadline_ms = match args.get("deadline-ms") {
        None => None,
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            CliError(format!(
                "--deadline-ms expects a millisecond count, got {v}"
            ))
        })?),
    };
    let mcm_nodes = args.get_usize("exact-node-cap", mrp_exact::DEFAULT_MCM_NODE_BUDGET)?;
    if mcm_nodes == 0 {
        bail!("--exact-node-cap must be at least 1");
    }
    let faults = FaultPlan::parse(&args.get_str("faults", "")).map_err(CliError)?;
    let pipeline_depth = args.get_usize("pipeline-depth", 0)?;
    if pipeline_depth > 64 {
        bail!("--pipeline-depth must be within 1..=64 (0/absent disables pipelining)");
    }
    Ok(SynthConfig {
        base,
        budget: StageBudget {
            deadline_ms,
            mcm_nodes,
        },
        // `--exact` starts the ladder at the branch-and-bound rung; an
        // explicit `--start` still wins.
        start_rung: parse_rung(
            args,
            "start",
            if args.flag("exact") {
                "exact"
            } else {
                "mrp+cse"
            },
        )?,
        min_rung: parse_rung(args, "min-quality", "spt")?,
        lint: LintConfig {
            input_width: width,
            ..LintConfig::default()
        },
        faults,
        pipeline_depth: if pipeline_depth == 0 {
            None
        } else {
            Some(pipeline_depth as u32)
        },
    })
}

fn synth(args: &Args) -> Result<String, CliError> {
    let coeffs = parse_coeffs(args)?;
    let cfg = parse_synth_config(args)?;
    let trace_path = args.get("trace").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    if trace_path.is_some() || metrics_path.is_some() {
        mrp_obs::enable();
        mrp_obs::reset();
    }
    // The driver catches stage panics at rung boundaries; silence the
    // default hook while it runs so an isolated (recovered) panic does
    // not spray a backtrace over the report.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = synthesize(&coeffs, &cfg);
    std::panic::set_hook(previous_hook);
    // Export before error handling: a failed run's trace is the one you
    // most want to look at.
    if let Some(path) = &trace_path {
        write_observability_file(path, &mrp_obs::export_chrome_trace())?;
    }
    if let Some(path) = &metrics_path {
        write_observability_file(path, &mrp_obs::export_metrics_json())?;
    }
    if trace_path.is_some() || metrics_path.is_some() {
        mrp_obs::disable();
        mrp_obs::reset();
    }
    let outcome = result.map_err(|e| CliError(format!("synthesis failed: {e}")))?;
    Ok(if args.flag("json") {
        outcome.render_json()
    } else {
        outcome.render_pretty()
    })
}

fn batch(args: &Args) -> Result<String, CliError> {
    let Some(path) = args.positional.first() else {
        bail!("expected a spec file, e.g. mrpf batch specs.json --jobs 4");
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read spec file `{path}`: {e}")))?;
    let specs = parse_specs(&text).map_err(CliError)?;
    let jobs = args.get_usize("jobs", 1)?;
    if jobs == 0 || jobs > 256 {
        bail!("--jobs must be within 1..=256");
    }
    let options = BatchOptions {
        jobs,
        racing: args.flag("racing"),
        synth: parse_synth_config(args)?,
    };
    let trace_path = args.get("trace").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    if trace_path.is_some() || metrics_path.is_some() {
        mrp_obs::enable();
        mrp_obs::reset();
    }
    // Same panic-hook discipline as `synth`: failed rungs are isolated
    // and reported as degradations, not backtraces.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_batch(&specs, &options);
    std::panic::set_hook(previous_hook);
    if let Some(path) = &trace_path {
        write_observability_file(path, &mrp_obs::export_chrome_trace())?;
    }
    if let Some(path) = &metrics_path {
        write_observability_file(path, &mrp_obs::export_metrics_json())?;
    }
    if trace_path.is_some() || metrics_path.is_some() {
        mrp_obs::disable();
        mrp_obs::reset();
    }
    let rendered = if args.flag("json") {
        report.render_json()
    } else {
        report.render_pretty()
    };
    if let Some(out) = args.get("out") {
        std::fs::write(out, &rendered)
            .map_err(|e| CliError(format!("cannot write report `{out}`: {e}")))?;
        return Ok(format!(
            "wrote {} result(s) ({} unique, {} cache hit(s), {} failed) to {out}",
            report.rows.len(),
            report.unique,
            report.cache_hits(),
            report.failed()
        ));
    }
    if report.failed() == report.rows.len() {
        return Err(CliError(rendered));
    }
    Ok(rendered)
}

fn serve(args: &Args) -> Result<String, CliError> {
    let addr = args.get_str("addr", "127.0.0.1:7878");
    let jobs = args.get_usize("jobs", 2)?;
    if jobs == 0 || jobs > 256 {
        bail!("--jobs must be within 1..=256");
    }
    let queue = args.get_usize("queue", (jobs * 8).max(8))?;
    if queue == 0 || queue > 4096 {
        bail!("--queue must be within 1..=4096");
    }
    let store_dir = args.get("store").map(str::to_string);
    let options = ServeOptions {
        addr: addr.clone(),
        jobs,
        queue,
        racing: args.flag("racing"),
        store_dir: store_dir.clone(),
        synth: parse_synth_config(args)?,
    };
    let trace_path = args.get("trace").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    let server =
        Server::bind(options).map_err(|e| CliError(format!("cannot bind `{addr}`: {e}")))?;
    if let (Some(dir), Some(recovery)) = (&store_dir, server.store_recovery()) {
        println!(
            "mrpf serve: store {dir}: recovered {} record(s) ({} corrupt skipped{}{})",
            recovery.records,
            recovery.corrupt,
            if recovery.torn_tail {
                ", torn tail truncated"
            } else {
                ""
            },
            if recovery.compacted {
                ", compacted"
            } else {
                ""
            },
        );
    }
    // A server runs indefinitely: keep the bounded metrics registry live
    // for /metricsz, but leave the unbounded event buffer off unless the
    // operator explicitly asked for a trace file.
    if trace_path.is_some() {
        mrp_obs::enable();
    } else {
        mrp_obs::enable_metrics_only();
    }
    mrp_obs::reset();
    println!(
        "mrpf serve: listening on http://{} (jobs {jobs}, queue {queue}); ctrl-c drains and exits",
        server.local_addr()
    );
    let _ = std::io::Write::flush(&mut std::io::stdout());
    mrp_serve::install_interrupt_handler();
    // Same panic-hook discipline as `synth`/`batch`: failed rungs are
    // isolated and reported as degradations, not backtraces.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let summary = server.run();
    std::panic::set_hook(previous_hook);
    if let Some(path) = &trace_path {
        write_observability_file(path, &mrp_obs::export_chrome_trace())?;
    }
    if let Some(path) = &metrics_path {
        write_observability_file(path, &mrp_obs::export_metrics_json())?;
    }
    mrp_obs::disable();
    mrp_obs::reset();
    let latency = if summary.served == 0 {
        String::new()
    } else {
        format!(
            "; latency ms: p50 {:.3} p90 {:.3} p99 {:.3} p999 {:.3}",
            summary.latency.p50, summary.latency.p90, summary.latency.p99, summary.latency.p999
        )
    };
    Ok(format!(
        "drained: served {} request(s) ({} coalesced), rejected {} under backpressure; \
         cache: {} entr{} ({} hit(s), {} miss(es)){}{latency}",
        summary.served,
        summary.coalesced,
        summary.rejected,
        summary.cache_entries,
        if summary.cache_entries == 1 {
            "y"
        } else {
            "ies"
        },
        summary.cache_hits,
        summary.cache_misses,
        match (&store_dir, summary.store_degraded) {
            (None, _) => "",
            (Some(_), false) => "; store: persistent",
            (Some(_), true) => "; store: DEGRADED to memory-only",
        }
    ))
}

fn chaos(args: &Args) -> Result<String, CliError> {
    let requests = args.get_usize("requests", 100)?;
    if requests == 0 || requests > 100_000 {
        bail!("--requests must be within 1..=100000");
    }
    let options = ChaosOptions {
        addr: args.get_str("addr", "127.0.0.1:7878"),
        requests,
        seed: args.get_usize("seed", 1)? as u64,
    };
    let report = run_chaos(&options).map_err(CliError)?;
    let rendered = if args.flag("json") {
        report.render_json()
    } else {
        report.render_pretty()
    };
    // A failed soak is a nonzero exit: CI can gate on `mrpf chaos`.
    if report.passed() {
        Ok(rendered)
    } else {
        Err(CliError(rendered))
    }
}

fn write_observability_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError(format!("cannot write observability file `{path}`: {e}")))
}

fn respond(args: &Args) -> Result<String, CliError> {
    let coeffs = parse_coeffs(args)?;
    let points = args.get_usize("points", 16)?;
    if !(2..=4096).contains(&points) {
        bail!("--points must be within 2..=4096");
    }
    let taps: Vec<f64> = coeffs.iter().map(|&c| c as f64).collect();
    let dc: f64 = taps.iter().sum::<f64>().abs().max(1e-12);
    let mut out = String::from("f        |H| (norm)   dB\n");
    for i in 0..points {
        let f = 0.5 * i as f64 / (points - 1) as f64;
        let m = mrp_filters::response::magnitude(&taps, f) / dc;
        out.push_str(&format!(
            "{f:<8.4} {m:<12.5} {:>7.1}\n",
            20.0 * m.max(1e-12).log10()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, CliError> {
        let args = Args::parse(line.split_whitespace().map(String::from), FLAGS)?;
        run(&args)
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_line("help").unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        for line in ["frobnicate", "load --rate 40"] {
            let err = run_line(line).unwrap_err();
            assert!(err.0.contains("unknown subcommand"), "{line}: {err}");
        }
    }

    #[test]
    fn optimize_paper_example() {
        let out = run_line("optimize 70,66,17,9,27,41,56,11").unwrap();
        assert!(out.contains("bit-exact"));
        assert!(out.contains("SEED size"));
    }

    #[test]
    fn optimize_rejects_garbage_coeffs() {
        assert!(run_line("optimize 1,2,three").is_err());
        assert!(run_line("optimize").is_err());
    }

    #[test]
    fn emit_produces_verilog() {
        let out = run_line("emit 7,9,45 --name blk --width 12").unwrap();
        assert!(out.contains("module blk"));
        assert!(out.contains("endmodule"));
    }

    #[test]
    fn emit_validates_width() {
        assert!(run_line("emit 7 --width 99").is_err());
    }

    #[test]
    fn compare_lists_all_schemes() {
        let out = run_line("compare 70,66,17,9,27,41,56,11").unwrap();
        for scheme in ["simple", "CSE", "MRPF", "MRPF+CSE"] {
            assert!(out.contains(scheme), "missing {scheme}");
        }
    }

    #[test]
    fn design_float_output() {
        let out = run_line("design --kind lowpass --fp 0.1 --fs 0.2 --order 20").unwrap();
        assert_eq!(out.lines().count(), 21);
    }

    #[test]
    fn design_quantized_output_chains_into_optimize() {
        let out = run_line("design --kind lowpass --fp 0.1 --fs 0.2 --order 24 --w 12").unwrap();
        let opt = run_line(&format!("optimize {out}")).unwrap();
        assert!(opt.contains("bit-exact"));
    }

    #[test]
    fn design_rejects_bad_method() {
        assert!(run_line("design --method magic").is_err());
    }

    #[test]
    fn lint_reports_clean_block() {
        let out = run_line("lint 70,66,17,9,27,41,56,11").unwrap();
        assert!(out.contains("0 error(s)"), "unexpected: {out}");
    }

    #[test]
    fn lint_json_output() {
        let out = run_line("lint 7,9,45 --json --width 12").unwrap();
        assert!(out.contains("\"diagnostics\""), "unexpected: {out}");
        assert!(out.contains("\"stats\""), "unexpected: {out}");
    }

    #[test]
    fn lint_validates_width() {
        assert!(run_line("lint 7,9 --width 99").is_err());
    }

    #[test]
    fn lint_growth_bound_flags_wide_adders() {
        let clean = run_line("lint 7,9,45").unwrap();
        assert!(!clean.contains("MRP042"), "unexpected: {clean}");
        let out = run_line("lint 7,9,45 --growth-bound 1").unwrap();
        assert!(out.contains("MRP042"), "unexpected: {out}");
    }

    #[test]
    fn suite_coefficients_resolve_to_a_paper_filter() {
        let out = run_line("lint suite:1").unwrap();
        assert!(out.contains("0 error(s)"), "unexpected: {out}");
        assert!(run_line("lint suite:0").is_err());
        assert!(run_line("lint suite:99").is_err());
        assert!(run_line("lint suite:x").is_err());
    }

    #[test]
    fn analyze_reports_the_critical_path() {
        let out = run_line("analyze 7,23,0,105").unwrap();
        assert!(out.contains("combinational depth:"), "unexpected: {out}");
        assert!(out.contains("critical path: n0"), "unexpected: {out}");
        assert!(out.contains("min safe width:"), "unexpected: {out}");
    }

    #[test]
    fn analyze_json_includes_pipeline_delta() {
        let out = run_line("analyze 7,23,0,105 --json --pipeline-depth 1").unwrap();
        assert!(out.contains("\"critical_path\":["), "unexpected: {out}");
        assert!(
            out.contains("\"pipeline\":{\"latency\":"),
            "unexpected: {out}"
        );
        assert!(out.contains("\"analyses\":["), "unexpected: {out}");
    }

    #[test]
    fn analyze_dot_overlays_render() {
        for overlay in ["depth", "fanout", "width", "cone", "dom"] {
            let out = run_line(&format!("analyze 7,23 --dot {overlay}")).unwrap();
            assert!(out.starts_with("digraph"), "{overlay}: {out}");
        }
        let out = run_line("analyze 7,23 --dot stage --pipeline-depth 1").unwrap();
        assert!(out.contains("stage "), "unexpected: {out}");
    }

    #[test]
    fn analyze_rejects_bad_inputs() {
        assert!(run_line("analyze 7,23 --dot stage").is_err());
        assert!(run_line("analyze 7,23 --dot nonsense").is_err());
        assert!(run_line("analyze 7,23 --width 99").is_err());
        assert!(run_line("analyze 7,23 --pipeline-depth 65").is_err());
    }

    #[test]
    fn synth_pipeline_depth_reports_the_summary() {
        let out = run_line("synth 70,66,17,9,27,41,56,11 --pipeline-depth 1").unwrap();
        assert!(out.contains("pipeline: latency"), "unexpected: {out}");
        let json = run_line("synth 70,66,17,9,27,41,56,11 --pipeline-depth 1 --json").unwrap();
        assert!(
            json.contains("\"pipeline\":{\"latency\":"),
            "unexpected: {json}"
        );
        assert!(run_line("synth 7,9 --pipeline-depth 0").is_ok());
    }

    #[test]
    fn synth_healthy_run_reports_best_rung() {
        let out = run_line("synth 70,66,17,9,27,41,56,11").unwrap();
        assert!(out.contains("rung used: mrp+cse"), "unexpected: {out}");
        assert!(!out.contains("degraded"), "unexpected: {out}");
        assert!(out.contains("lint: clean"), "unexpected: {out}");
    }

    #[test]
    fn synth_json_output() {
        let out = run_line("synth 70,66,17,9,27,41,56,11 --json").unwrap();
        assert!(out.contains("\"rung\":\"mrp+cse\""), "unexpected: {out}");
        assert!(out.contains("\"degraded\":false"), "unexpected: {out}");
    }

    #[test]
    fn synth_exact_flag_starts_at_the_exact_rung() {
        let out = run_line("synth 70,66,17,9,27,41,56,11 --exact --json").unwrap();
        assert!(out.contains("\"rung\":\"exact\""), "unexpected: {out}");
        assert!(out.contains("\"nodes\":"), "unexpected: {out}");
        assert!(out.contains("\"budget_exhausted\":"), "unexpected: {out}");
        assert!(out.contains("\"lower_bound\":"), "unexpected: {out}");
        // An explicit --start still wins over --exact.
        let out = run_line("synth 70,66,17,9 --exact --start mrp --json").unwrap();
        assert!(out.contains("\"rung\":\"mrp\""), "unexpected: {out}");
    }

    #[test]
    fn synth_exact_node_cap_exhaustion_still_delivers() {
        let out = run_line("synth 70,66,17,9,27,41,56,11 --exact --exact-node-cap 1").unwrap();
        assert!(out.contains("rung used: exact"), "unexpected: {out}");
        assert!(!out.contains("degraded"), "unexpected: {out}");
        assert!(run_line("synth 7,9 --exact --exact-node-cap 0").is_err());
    }

    #[test]
    fn synth_reports_degradations_from_injected_faults() {
        let out = run_line("synth 70,66,17,9 --faults panic@mrp+cse,seed=3").unwrap();
        assert!(
            out.contains("rung used: mrp (degraded)"),
            "unexpected: {out}"
        );
        assert!(out.contains("panic"), "unexpected: {out}");
    }

    #[test]
    fn synth_zero_deadline_lands_on_spt() {
        let out = run_line("synth 70,66,17,9 --deadline-ms 0").unwrap();
        assert!(
            out.contains("rung used: spt (degraded)"),
            "unexpected: {out}"
        );
    }

    #[test]
    fn synth_quality_floor_turns_fault_into_failure() {
        let err = run_line("synth 70,66,17,9 --faults panic@* --min-quality mrp").unwrap_err();
        assert!(
            err.0.contains("every fallback rung failed"),
            "unexpected: {err}"
        );
    }

    #[test]
    fn synth_json_includes_attempts() {
        let out = run_line("synth 70,66,17,9 --faults panic@mrp+cse,seed=3 --json").unwrap();
        assert!(out.contains("\"attempts\":["), "unexpected: {out}");
        assert!(
            out.contains("\"rung\":\"mrp+cse\",\"elapsed_ms\":"),
            "unexpected: {out}"
        );
        assert!(out.contains("\"accepted\":true"), "unexpected: {out}");
        assert!(out.contains("\"accepted\":false"), "unexpected: {out}");
    }

    // Tests that pass --trace/--metrics share the process-global
    // collector; serialize them so one test's reset cannot clear
    // another's events between run and export.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn synth_trace_and_metrics_files_cover_the_pipeline() {
        let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir();
        let trace_path = dir.join("mrpf_cli_test_trace.json");
        let metrics_path = dir.join("mrpf_cli_test_metrics.json");
        let line = format!(
            "synth 70,66,17,9,27,41,56,11 --exact --trace {} --metrics {}",
            trace_path.display(),
            metrics_path.display()
        );
        run_line(&line).unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        // Every pipeline stage shows up as a span, rungs included.
        for span in [
            "\"name\":\"synth\"",
            "\"name\":\"rung[exact]\"",
            "\"name\":\"exact.mcm\"",
            "\"name\":\"core.optimize\"",
            "\"name\":\"core.graph\"",
            "\"name\":\"core.wmsc\"",
            "\"name\":\"core.forest\"",
            "\"name\":\"core.apsp\"",
            "\"name\":\"core.realize.seed\"",
            "\"name\":\"core.realize.overhead\"",
            "\"name\":\"cse.hartley\"",
            "\"name\":\"lint.graph\"",
            "\"name\":\"gate.lint\"",
            "\"name\":\"gate.equiv\"",
            "\"name\":\"gate.equiv.compiled\"",
            "\"name\":\"exec.lower\"",
            "\"name\":\"exec.run\"",
        ] {
            assert!(trace.contains(span), "missing {span} in trace");
        }
        // Spans are nested (parent attribution recorded) and balanced.
        assert!(
            trace.contains("\"args\":{\"parent\":"),
            "no nesting: {trace}"
        );
        assert_eq!(
            trace.matches("\"ph\":\"B\"").count(),
            trace.matches("\"ph\":\"E\"").count(),
            "unbalanced spans"
        );
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        for counter in [
            "\"core.wmsc.iterations\":",
            "\"exact.mcm.nodes\":",
            "\"core.adders\":",
            "\"synth.adders\":",
            "\"exec.lower.insts\":",
            "\"exec.run.lanes\":",
            "\"gate.equiv.compiled_samples\":",
        ] {
            assert!(metrics.contains(counter), "missing {counter} in {metrics}");
        }
        assert!(
            metrics.contains("\"core.wmsc.benefit_f\":{\"count\":"),
            "missing benefit histogram in {metrics}"
        );
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn synth_trace_bad_path_is_reported() {
        let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let err = run_line("synth 70,66 --trace /nonexistent-dir-zz/trace.json").unwrap_err();
        assert!(err.0.contains("cannot write"), "unexpected: {err}");
    }

    #[test]
    fn synth_rejects_bad_inputs() {
        assert!(run_line("synth 70,66 --faults explode@mrp").is_err());
        assert!(run_line("synth 70,66 --min-quality orbit").is_err());
        assert!(run_line("synth 70,66 --deadline-ms soon").is_err());
        assert!(run_line("synth 70,66 --width 99").is_err());
        assert!(run_line("synth").is_err());
    }

    fn write_temp_specs(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(
            &path,
            r#"{"filters": [
                {"name": "a", "coeffs": [70, 66, 17, 9]},
                {"name": "a2x", "coeffs": [140, 132, 34, 18]},
                {"name": "b", "coeffs": [23, 45, 77]}
            ]}"#,
        )
        .unwrap();
        path
    }

    #[test]
    fn batch_runs_spec_file_with_cache_hits() {
        let path = write_temp_specs("mrpf_cli_test_batch.json");
        let out = run_line(&format!("batch {}", path.display())).unwrap();
        assert!(out.contains("3 spec(s), 2 unique, 1 cache hit(s)"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_json_identical_across_jobs_and_racing() {
        let path = write_temp_specs("mrpf_cli_test_batch_jobs.json");
        let base = run_line(&format!("batch {} --json --jobs 1", path.display())).unwrap();
        assert!(base.contains("\"cache_hits\":1"), "{base}");
        for extra in ["--jobs 4", "--jobs 2 --racing"] {
            let other = run_line(&format!("batch {} --json {extra}", path.display())).unwrap();
            assert_eq!(base, other, "{extra} changed the report bytes");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_writes_report_file() {
        let spec = write_temp_specs("mrpf_cli_test_batch_out.json");
        let out_path = std::env::temp_dir().join("mrpf_cli_test_batch_report.json");
        let msg = run_line(&format!(
            "batch {} --json --out {}",
            spec.display(),
            out_path.display()
        ))
        .unwrap();
        assert!(msg.contains("wrote 3 result(s)"), "{msg}");
        let written = std::fs::read_to_string(&out_path).unwrap();
        assert!(written.contains("\"batch\":{\"specs\":3"), "{written}");
        let _ = std::fs::remove_file(&spec);
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn batch_rejects_bad_inputs() {
        assert!(run_line("batch").is_err());
        assert!(run_line("batch /nonexistent-dir-zz/specs.json").is_err());
        let path = write_temp_specs("mrpf_cli_test_batch_badjobs.json");
        assert!(run_line(&format!("batch {} --jobs 0", path.display())).is_err());
        assert!(run_line(&format!("batch {} --jobs 999", path.display())).is_err());
        let _ = std::fs::remove_file(&path);
    }

    // A *valid* serve invocation blocks on the accept loop, so only the
    // argument-validation paths are reachable from unit tests; the live
    // server is exercised by crates/serve/tests/http.rs and the CI
    // serve-smoke job.
    #[test]
    fn serve_rejects_bad_inputs() {
        assert!(run_line("serve --jobs 0").is_err());
        assert!(run_line("serve --jobs 999").is_err());
        assert!(run_line("serve --queue 0").is_err());
        assert!(run_line("serve --queue 9999").is_err());
        assert!(run_line("serve --width 99").is_err());
        let err = run_line("serve --addr not-an-address").unwrap_err();
        assert!(err.0.contains("cannot bind"), "unexpected: {err}");
    }

    // Like `serve`, a chaos run against a live server is exercised by
    // the integration tests and the CI chaos-smoke job; from unit tests
    // only validation and the no-server setup error are reachable.
    #[test]
    fn chaos_rejects_bad_inputs_and_reports_dead_targets() {
        assert!(run_line("chaos --requests 0").is_err());
        assert!(run_line("chaos --requests 999999").is_err());
        assert!(run_line("chaos --seed abc").is_err());
        // Port 1 is never our server: the baseline probe must fail fast
        // with a setup error rather than report a finding.
        let err = run_line("chaos --addr 127.0.0.1:1 --requests 1").unwrap_err();
        assert!(err.0.contains("baseline probe failed"), "unexpected: {err}");
    }

    #[test]
    fn unknown_options_are_rejected_before_any_work() {
        for (line, option) in [
            // The removed set-cover node cap, spelled in two parts so a
            // search for live uses of the option finds none.
            (concat!("synth 70,66 --exact", "-nodes 5"), "-nodes"),
            ("optimize 70,66 --exact", "--exact"),
            ("synth 70,66 --dealine-ms 5", "--dealine-ms"),
            // The spec file does not exist: the option check runs first.
            ("batch /nonexistent-dir-zz/specs.json --jbos 2", "--jbos"),
        ] {
            let err = run_line(line).unwrap_err();
            assert!(err.0.contains(option), "{line}: {err}");
            assert!(err.0.contains("does not take"), "{line}: {err}");
        }
    }

    #[test]
    fn flags_take_no_value_and_unread_arguments_are_rejected() {
        let out = run_line("synth --json 70,66,17,9").unwrap();
        assert!(out.contains("\"rung\":\"mrp+cse\""), "{out}");
        let out = run_line("lint --json suite:2").unwrap();
        assert!(out.contains("\"diagnostics\""), "{out}");
        let err = run_line("synth suite:1 --exact 5").unwrap_err();
        assert!(err.0.contains("does not take the argument `5`"), "{err}");
    }

    #[test]
    fn usage_lists_only_options_the_subcommand_reads() {
        let commands = USAGE.split("\n  mrpf help").next().unwrap();
        for section in commands.split("\n  mrpf ").skip(1) {
            let name = section.split_whitespace().next().unwrap();
            let (_, _, options) = subcommand(name).unwrap();
            for token in section.split("--").skip(1) {
                let option: String = token
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                assert!(
                    reads(options, &option),
                    "USAGE lists --{option} for `mrpf {name}`, which does not read it"
                );
            }
        }
    }

    #[test]
    fn usage_covers_every_subcommand() {
        for name in [
            "design", "optimize", "emit", "compare", "respond", "lint", "analyze", "sim", "synth",
            "batch", "serve", "chaos",
        ] {
            assert!(USAGE.contains(&format!("mrpf {name}")), "missing {name}");
        }
    }

    #[test]
    fn sim_reports_bit_exact_equivalence() {
        let out = run_line("sim 70,66,17,9 --samples 2000").unwrap();
        assert!(
            out.contains("equivalent: bit-exact over 2000 sample(s)"),
            "{out}"
        );
        assert!(out.contains("speedup:"), "{out}");
    }

    #[test]
    fn sim_json_compiled_checks_a_prefix_oracle() {
        let out =
            run_line("sim 70,66,17,9,27,41,56,11 --compiled --samples 200000 --json").unwrap();
        assert!(out.contains("\"equivalent\":true"), "{out}");
        assert!(out.contains("\"samples\":200000"), "{out}");
        assert!(out.contains("\"oracle_samples\":65536"), "{out}");
        assert!(out.contains("\"mode\":\"combinational\""), "{out}");
    }

    #[test]
    fn sim_pipelined_matches_the_cycle_oracle() {
        let out = run_line("sim suite:3 --pipeline-depth 2 --samples 3000 --json").unwrap();
        assert!(out.contains("\"mode\":\"pipelined\""), "{out}");
        assert!(out.contains("\"equivalent\":true"), "{out}");
        let latency: u64 = out
            .split("\"latency\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(latency >= 1, "{out}");
    }

    #[test]
    fn sim_respects_lanes_and_noise_seed() {
        let a = run_line("sim 70,66,17,9 --samples 1500 --lanes 8 --noise-seed 7 --json").unwrap();
        let b = run_line("sim 70,66,17,9 --samples 1500 --lanes 64 --noise-seed 7 --json").unwrap();
        for out in [&a, &b] {
            assert!(out.contains("\"equivalent\":true"), "{out}");
        }
        assert!(a.contains("\"lanes\":8"), "{a}");
        assert!(b.contains("\"lanes\":64"), "{b}");
    }

    #[test]
    fn sim_rejects_bad_inputs() {
        assert!(run_line("sim 70,66 --samples 0").is_err());
        assert!(run_line("sim 70,66 --lanes 4").is_err());
        assert!(run_line("sim 70,66 --lanes 128").is_err());
        assert!(run_line("sim 70,66 --pipeline-depth 65").is_err());
        assert!(run_line("sim 70,66 --amp 0").is_err());
        assert!(run_line("sim").is_err());
    }

    #[test]
    fn seed_and_repr_options() {
        let out =
            run_line("optimize 70,66,17,9,27,41,56,11 --seed cse --repr sm --depth 3").unwrap();
        assert!(out.contains("adders"));
    }
}
#[cfg(test)]
mod respond_tests {
    use super::*;
    use crate::args::Args;

    fn run_line(line: &str) -> Result<String, CliError> {
        let args = Args::parse(line.split_whitespace().map(String::from), FLAGS)?;
        run(&args)
    }

    #[test]
    fn respond_prints_table() {
        let out = run_line("respond 1,2,3,2,1 --points 8").unwrap();
        assert_eq!(out.lines().count(), 9);
        // DC row is normalized to 1.
        assert!(out.lines().nth(1).unwrap().contains("1.00000"));
    }

    #[test]
    fn respond_validates_points() {
        assert!(run_line("respond 1,2 --points 1").is_err());
        assert!(run_line("respond 1,2 --points 9999").is_err());
    }
}
