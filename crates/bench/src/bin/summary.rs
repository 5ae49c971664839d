//! Headline summary: every paper claim in one run, including the
//! synthesized-cost view through the CLA adder model (the paper's "7 % and
//! 16 % improvement ... using carry lookahead adder ... in .25 µ").

use mrp_analysis::{pipeline_and_retime, AnalysisContext, Analyzer};
use mrp_bench::{
    evaluate_suite_on, jobs_from_args, mean, print_header, ratio, BenchReport, WORDLENGTHS,
};
use mrp_core::{MrpConfig, MrpOptimizer, SeedOptimizer};
use mrp_exact::{solve_mcm, McmConfig, McmProblem};
use mrp_hwcost::{block_cost, AdderKind, Technology};
use mrp_numrep::Scaling;

/// Wordlength for the optimality-gap sweep (W=12 uniform, the suite's
/// headline quantization).
const GAP_WORDLENGTH: u32 = 12;
/// Node cap per filter for the gap sweep's branch-and-bound: small
/// enough that the sweep stays a few seconds, large enough to prove
/// optimality on the small suite filters. Budget-exhausted entries
/// report the incumbent (greedy) count, so the gap is an upper bound.
const GAP_NODE_CAP: usize = 4_000;

/// One row of the optimality-gap table.
struct GapRow {
    example: usize,
    label: String,
    taps: usize,
    greedy_adders: usize,
    exact_adders: usize,
    lower_bound: usize,
    gap_pct: f64,
    nodes: usize,
    budget_exhausted: bool,
    proven_optimal: bool,
}

/// Greedy MRP+CSE adder count vs the `mrp-exact` branch-and-bound
/// (seeded with greedy as incumbent) for one paper filter.
fn gap_row(filter: &mrp_filters::ExampleFilter, config: &MrpConfig) -> GapRow {
    let taps = filter.design().expect("paper filter designs");
    let coeffs = mrp_numrep::quantize(&taps, GAP_WORDLENGTH, Scaling::Uniform)
        .expect("paper filter quantizes")
        .values;
    let greedy_cfg = MrpConfig {
        seed_optimizer: SeedOptimizer::Cse,
        ..*config
    };
    let greedy = MrpOptimizer::new(greedy_cfg)
        .optimize(&coeffs)
        .expect("paper filter synthesizes")
        .graph;
    let greedy_adders = greedy.adder_count();
    let problem = McmProblem::from_coeffs(&coeffs).expect("quantized taps are in range");
    let out = solve_mcm(
        &problem,
        &McmConfig {
            node_cap: GAP_NODE_CAP,
            incumbent: Some(greedy_adders),
            ..McmConfig::default()
        },
    );
    let exact_adders = out.best_cost(Some(greedy_adders)).unwrap_or(greedy_adders);
    let gap_pct = if greedy_adders == 0 {
        0.0
    } else {
        100.0 * (greedy_adders - exact_adders) as f64 / greedy_adders as f64
    };
    GapRow {
        example: filter.index,
        label: filter.label(),
        taps: coeffs.len(),
        greedy_adders,
        exact_adders,
        lower_bound: out.lower_bound,
        gap_pct,
        nodes: out.nodes_expanded,
        budget_exhausted: out.budget_exhausted,
        proven_optimal: out.proven_optimal,
    }
}

fn main() {
    let start = std::time::Instant::now();
    let jobs = jobs_from_args();
    let pool = mrp_batch::ThreadPool::new(jobs);
    let config = MrpConfig::default();
    let tech = Technology::cmos025();
    print_header(
        "Summary — every headline claim of the MRPF paper",
        &format!(
            "12 example filters x W in {{8,12,16,20}} x {{uniform, maximal}} scaling (--jobs {jobs})"
        ),
    );

    let mut mrp_vs_simple_uni = Vec::new();
    let mut mrp_vs_simple_max = Vec::new();
    let mut mrpcse_vs_cse = Vec::new();
    let mut mrpcse_vs_simple_uni = Vec::new();
    let mut mrpcse_vs_simple_max = Vec::new();
    let mut area_mrpcse_vs_simple = Vec::new();
    let mut area_mrpcse_vs_cse = Vec::new();
    let mut adders_per_tap_w16 = Vec::new();
    let mut all_cells: Vec<mrp_bench::Cell> = Vec::new();

    for scaling in [Scaling::Uniform, Scaling::Maximal] {
        for &w in &WORDLENGTHS {
            let cells = evaluate_suite_on(&pool, w, scaling, &config);
            for c in &cells {
                let r_simple = ratio(c.report.mrp, c.report.simple);
                let r_cse = ratio(c.report.mrp_cse, c.report.cse);
                let r_comb = ratio(c.report.mrp_cse, c.report.simple);
                match scaling {
                    Scaling::Uniform => {
                        mrp_vs_simple_uni.push(r_simple);
                        mrpcse_vs_simple_uni.push(r_comb);
                    }
                    Scaling::Maximal => {
                        mrp_vs_simple_max.push(r_simple);
                        mrpcse_vs_simple_max.push(r_comb);
                    }
                }
                mrpcse_vs_cse.push(r_cse);
                // Synthesized view: CLA-model area at datapath width
                // W + 8 guard bits.
                let width = w + 8;
                let area = |adders: usize| {
                    block_cost(
                        adders,
                        4,
                        AdderKind::CarryLookahead,
                        width,
                        0.25,
                        100.0,
                        &tech,
                    )
                    .area_um2
                };
                area_mrpcse_vs_simple.push(ratio(
                    area(c.report.mrp_cse) as usize,
                    area(c.report.simple).max(1.0) as usize,
                ));
                area_mrpcse_vs_cse.push(ratio(
                    area(c.report.mrp_cse) as usize,
                    area(c.report.cse).max(1.0) as usize,
                ));
                if w == 16 && scaling == Scaling::Uniform && c.coeffs.len() > 20 {
                    adders_per_tap_w16.push(c.report.mrp as f64 / c.coeffs.len() as f64);
                }
            }
            all_cells.extend(cells);
        }
    }

    // Pipelining view: critical-path reduction from one-adder-per-stage
    // pipelining plus retiming, over the 12-filter suite at W=12 uniform.
    let mut path_reduction = Vec::new();
    let mut pipe_latency = Vec::new();
    let mut pipe_registers = Vec::new();
    for filter in mrp_filters::example_filters() {
        let taps = filter.design().expect("paper filter designs");
        let coeffs = mrp_numrep::quantize(&taps, 12, Scaling::Uniform)
            .expect("paper filter quantizes")
            .values;
        let graph = MrpOptimizer::new(config)
            .optimize(&coeffs)
            .expect("paper filter synthesizes")
            .graph;
        let az = Analyzer::new(&graph, AnalysisContext { input_width: 16 });
        let (net, delta) = pipeline_and_retime(&az, 1);
        if delta.combinational_depth > 0 {
            path_reduction
                .push((1.0 - delta.stage_depth as f64 / delta.combinational_depth as f64) * 100.0);
        }
        pipe_latency.push(delta.latency as f64);
        pipe_registers.push(net.register_count() as f64);
    }

    let pct = |ratios: &[f64]| (1.0 - mean(ratios)) * 100.0;
    println!("claim                                         measured      paper");
    println!(
        "MRPF vs simple, uniform scaling            {:>8.1} %      ~60 %",
        pct(&mrp_vs_simple_uni)
    );
    println!(
        "MRPF vs simple, maximal scaling            {:>8.1} %      40-60 %",
        pct(&mrp_vs_simple_max)
    );
    println!(
        "MRPF+CSE vs CSE (all cells)                {:>8.1} %      15-17 %",
        pct(&mrpcse_vs_cse)
    );
    println!(
        "MRPF+CSE vs simple, uniform                {:>8.1} %      66 %",
        pct(&mrpcse_vs_simple_uni)
    );
    println!(
        "MRPF+CSE vs simple, maximal                {:>8.1} %      74 %",
        pct(&mrpcse_vs_simple_max)
    );
    println!(
        "adders/tap, W=16 uniform, >20 taps         {:>8.3}        ~0.3",
        mean(&adders_per_tap_w16)
    );
    println!(
        "CLA-model area, MRPF+CSE vs simple         {:>8.1} %      ~70 % (7 % claim is vs adder-count-matched netlists)",
        pct(&area_mrpcse_vs_simple)
    );
    println!(
        "CLA-model area, MRPF+CSE vs CSE            {:>8.1} %      ~16 %",
        pct(&area_mrpcse_vs_cse)
    );
    println!(
        "critical path cut by 1-adder pipelining    {:>8.1} %      (latency {:.1} cycles, {:.1} regs mean)",
        mean(&path_reduction),
        mean(&pipe_latency),
        mean(&pipe_registers)
    );
    println!("{}", mrp_bench::rung_banner(&all_cells));

    // Optimality-gap view: how far the greedy MRP+CSE adder counts sit
    // from the exact branch-and-bound (mrp-exact) under a fixed node cap,
    // over the 12-filter suite at W=12 uniform. See docs/optimal.md.
    let gap_jobs: Vec<_> = mrp_filters::example_filters()
        .into_iter()
        .map(|ex| move || gap_row(&ex, &config))
        .collect();
    let gap_rows: Vec<GapRow> = pool.run_indexed(gap_jobs).into_iter().flatten().collect();
    assert_eq!(gap_rows.len(), 12, "every suite filter produces a gap row");
    println!();
    println!(
        "optimality gap (W={GAP_WORDLENGTH} uniform, node cap {GAP_NODE_CAP}; gap = greedy vs exact-or-incumbent)"
    );
    println!("ex  label   taps  greedy  exact  lower  gap%   nodes  status");
    for r in &gap_rows {
        println!(
            "{:>2}  {:<6} {:>5} {:>7} {:>6} {:>6} {:>5.1} {:>7}  {}",
            r.example,
            r.label,
            r.taps,
            r.greedy_adders,
            r.exact_adders,
            r.lower_bound,
            r.gap_pct,
            r.nodes,
            if r.proven_optimal {
                "proven optimal"
            } else if r.budget_exhausted {
                "budget exhausted"
            } else {
                "incomplete"
            }
        );
    }
    let gap_pcts: Vec<f64> = gap_rows.iter().map(|r| r.gap_pct).collect();
    let proven = gap_rows.iter().filter(|r| r.proven_optimal).count();
    println!(
        "mean gap {:.2} %, max gap {:.2} %, {proven}/12 proven optimal",
        mean(&gap_pcts),
        gap_pcts.iter().cloned().fold(0.0f64, f64::max),
    );

    // Machine-readable trajectory point: the same headline numbers, one
    // JSON object per run, written at the repo root.
    let degraded = all_cells
        .iter()
        .filter(|c| c.rung != mrp_resilience::Rung::MrpCse.name())
        .count() as u64;
    let mut report = BenchReport::new("summary");
    report
        .int("cells", all_cells.len() as u64)
        .int("degraded_cells", degraded)
        .float_map(
            "reduction_pct",
            &[
                ("mrp_vs_simple_uniform", pct(&mrp_vs_simple_uni)),
                ("mrp_vs_simple_maximal", pct(&mrp_vs_simple_max)),
                ("mrpcse_vs_cse", pct(&mrpcse_vs_cse)),
                ("mrpcse_vs_simple_uniform", pct(&mrpcse_vs_simple_uni)),
                ("mrpcse_vs_simple_maximal", pct(&mrpcse_vs_simple_max)),
                ("area_mrpcse_vs_simple", pct(&area_mrpcse_vs_simple)),
                ("area_mrpcse_vs_cse", pct(&area_mrpcse_vs_cse)),
            ],
        )
        .float_map(
            "pipeline",
            &[
                ("critical_path_reduction_pct", mean(&path_reduction)),
                ("mean_latency_cycles", mean(&pipe_latency)),
                ("mean_registers", mean(&pipe_registers)),
            ],
        )
        .float("adders_per_tap_w16", mean(&adders_per_tap_w16))
        .float_map(
            "gap",
            &[
                ("mean_gap_pct", mean(&gap_pcts)),
                (
                    "max_gap_pct",
                    gap_pcts.iter().cloned().fold(0.0f64, f64::max),
                ),
                ("proven_optimal_filters", proven as f64),
                ("filters", gap_rows.len() as f64),
                ("wordlength", f64::from(GAP_WORDLENGTH)),
                ("node_cap", GAP_NODE_CAP as f64),
            ],
        )
        .raw_field(
            "optimality_gap",
            format!(
                "[{}]",
                gap_rows
                    .iter()
                    .map(|r| format!(
                        "{{\"example\":{},\"label\":{},\"taps\":{},\"greedy_adders\":{},\
                         \"exact_adders\":{},\"lower_bound\":{},\"gap_pct\":{:.4},\"nodes\":{},\
                         \"budget_exhausted\":{},\"proven_optimal\":{}}}",
                        r.example,
                        mrp_obs::json::string(&r.label),
                        r.taps,
                        r.greedy_adders,
                        r.exact_adders,
                        r.lower_bound,
                        r.gap_pct,
                        r.nodes,
                        r.budget_exhausted,
                        r.proven_optimal
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
        .int("jobs", jobs as u64)
        .int("elapsed_ms", start.elapsed().as_millis() as u64);
    report.write_and_announce();
}
