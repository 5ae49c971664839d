//! `mrpfbench` — the MRPF synthesizer's benchmark.
//!
//! `mrpfbench --workload <grid|signoff|serve-zipf> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload and prints, as its last line, one JSON
//! object with the run's `correct` flag, `attempted` and `failed`
//! operation counts, and its metrics by name and unit: the end-to-end
//! metrics untraced, the per-layer metrics traced. See README.md.

mod alloc;
mod calib;
mod grid;
mod inputs;
mod reference;
mod rng;
mod serve;
mod signoff;
mod stats;
mod trace;

use std::process::ExitCode;

use calib::Calibration;
use stats::{median, peak_rss_mb, Metrics};
use trace::Recorder;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where runs keep their working files and traces, under the directory
/// the benchmark runs from.
pub const RUN_DIR: &str = ".bench_run";

/// Inputs every accepted netlist is evaluated at by the interpreter.
pub const CHECK_XS: [i64; 6] = [-32768, -977, -1, 1, 3, 32767];

/// End-to-end metrics, printed untraced, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("adders_total", "count"),
    ("depth_total", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed traced, with their units. A layer the
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("filters.design_ms", "ms"),
    ("numrep.quantize_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.optimize_alloc_mb", "MB"),
    ("core.graph_ms", "ms"),
    ("core.wmsc_ms", "ms"),
    ("core.forest_ms", "ms"),
    ("cse.hartley_ms", "ms"),
    ("lint.graph_ms", "ms"),
    ("exec.verify_ms", "ms"),
    ("resilience.synth_ms", "ms"),
    ("resilience.self_ms", "ms"),
    ("resilience.attempts", "count"),
    ("registers_total", "count"),
    ("exact.rung_ms", "ms"),
    ("exact.nodes", "count"),
    ("exact.exhausted", "count"),
    ("exact.improved_ratio", "ratio"),
    ("analysis.pipeline_ms", "ms"),
    ("analysis.retime_moves", "count"),
    ("arch.emit_ms", "ms"),
    ("arch.verilog_kb", "KB"),
    ("lint.verilog_ms", "ms"),
    ("exec.compile_ms", "ms"),
    ("exec.insts", "count"),
    ("exec.msamples_per_s", "M/s"),
    ("sim.tree_msamples_per_s", "M/s"),
    ("vsim.parse_ms", "ms"),
    ("vsim.ksamples_per_s", "K/s"),
    ("serve.connect_ms.p50", "ms"),
    ("serve.outside_ms.p50", "ms"),
    ("serve.phase.read_ms.p50", "ms"),
    ("serve.phase.queue_ms.p50", "ms"),
    ("serve.phase.synth_ms.p50", "ms"),
    ("serve.phase.write_ms.p50", "ms"),
    ("serve.route.synth_ms.p50", "ms"),
    ("serve.route.batch_ms.p50", "ms"),
    ("serve.coalesced", "count"),
    ("serve.peak_rss_mb", "MB"),
    ("batch.cache_hits", "count"),
    ("batch.cache_misses", "count"),
    ("batch.hit_ratio", "ratio"),
    ("store.log_kb", "KB"),
    ("bench.lateness_ms.p90", "ms"),
    ("obs.latency_ms.p50", "ms"),
    ("obs.throughput_per_s", "1/s"),
    ("bench.host_scale", "ratio"),
];

/// One run's parameters.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operations attempted, failed, and whether every completed one matched
/// its references.
#[derive(Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }
}

impl Tally {
    /// The program returned an error for this operation.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("failed: {what}: {why}");
        }
    }

    /// The program's output for this operation fails a check.
    pub fn mismatch(&mut self, what: &str, why: &str) {
        self.correct = false;
        self.fail(what, &format!("wrong output: {why}"));
    }
}

/// Sets the workload up `reps` times and keeps the last: `setup_s` is the
/// median set-up time, each scaled by the host speed measured just before
/// it. Results of earlier repetitions are dropped outside the timed window.
pub fn timed_setup<T>(
    rec: &mut Recorder,
    cal: &mut Calibration,
    m: &mut Metrics,
    reps: usize,
    mut setup: impl FnMut(&mut Recorder) -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        cal.burst();
        let start = cal.now();
        let out = setup(rec)?;
        let end = cal.now();
        cal.burst();
        times.push((end - start) * cal.scale_between(start, end));
        last = Some(out);
    }
    m.set("setup_s", median(&times), "s");
    let per_setup = |v: f64| v * cal.run_scale() / reps as f64;
    m.set(
        "filters.design_ms",
        per_setup(rec.total_ms("filters.design")),
        "ms",
    );
    m.set(
        "numrep.quantize_ms",
        per_setup(rec.total_ms("numrep.quantize")),
        "ms",
    );
    Ok(last.expect("at least one set-up"))
}

fn trace_path(suffix: &str) -> std::path::PathBuf {
    std::path::Path::new(RUN_DIR)
        .join("trace")
        .join(format!("{}-{suffix}.json", std::process::id()))
}

/// Writes the program's own spans (a Chrome trace) next to the
/// benchmark's.
pub fn write_program_trace(chrome: &str) -> Result<(), String> {
    write_file(&trace_path("program"), chrome)
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
        return Err("--seconds must be within (0, 600]".to_string());
    }
    Ok(run)
}

/// `--coeffs N W`: example filter N of the paper's Table 1, quantized to
/// W bits with uniform scaling, as the comma-separated list `mrpf` takes.
fn print_coeffs(args: &[String]) -> Result<(), String> {
    let [n, w] = args else {
        return Err("--coeffs takes a filter number and a wordlength".to_string());
    };
    let n: usize = n.parse().map_err(|_| format!("bad filter number `{n}`"))?;
    let w: u32 = w.parse().map_err(|_| format!("bad wordlength `{w}`"))?;
    let filter = mrp_filters::example_filters()
        .into_iter()
        .find(|f| f.index == n)
        .ok_or_else(|| format!("no example filter {n}"))?;
    let mut rec = Recorder::new(false);
    let taps = inputs::design(&mut rec, &filter)?;
    let coeffs = inputs::quantized(&mut rec, &taps, w, mrp_numrep::Scaling::Uniform)?;
    let list: Vec<String> = coeffs.iter().map(i64::to_string).collect();
    println!("{}", list.join(","));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--coeffs") {
        return match print_coeffs(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: mrpfbench --workload grid|signoff|serve-zipf \
                 --seed N --seconds S --trace 0|1\n       mrpfbench --coeffs FILTER WORDLENGTH"
            );
            return ExitCode::from(2);
        }
    };
    let mut rec = Recorder::new(run.trace);
    let mut cal = Calibration::new();
    let mut m = Metrics::default();
    let result = match run.workload.as_str() {
        "grid" => grid::run(&run, &mut rec, &mut cal, &mut m),
        "signoff" => signoff::run(&run, &mut rec, &mut cal, &mut m),
        "serve-zipf" => serve::run(&run, &mut rec, &mut cal, &mut m),
        other => Err(format!("unknown workload `{other}`")),
    };
    let tally = match result {
        Ok(tally) => tally,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if m.get("peak_rss_mb").is_none() {
        m.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
    }
    let names: &[(&str, &str)] = if run.trace {
        if let Err(e) = write_file(&trace_path("bench"), &rec.to_json()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        m.set("bench.host_scale", cal.run_scale(), "ratio");
        if let Some(v) = m.get("latency_ms.p50") {
            m.set("obs.latency_ms.p50", v, "ms");
        }
        if let Some(v) = m.get("throughput_per_s") {
            m.set("obs.throughput_per_s", v, "1/s");
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!(
        "{}",
        m.select(names)
            .result_line(tally.correct, tally.attempted, tally.failed)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &mrp_batch::JsonValue, key: &str) -> Vec<(String, String)> {
        let field = |m: &mrp_batch::JsonValue, k: &str| {
            m.as_object()
                .and_then(|o| o.get(k))
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string()
        };
        doc.as_object()
            .and_then(|o| o.get(key))
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = mrp_batch::parse_json(&text).expect("BENCHMARK.json parses");
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let run = parse_args(&args("--workload grid --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds, run.trace),
            ("grid", 7, 3.0, true)
        );
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--bogus 1")).is_err());
    }
}
