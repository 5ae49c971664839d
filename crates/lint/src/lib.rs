//! Static analysis for multiplierless adder networks and their RTL.
//!
//! The MRP pipeline turns a coefficient vector into an adder-graph netlist
//! and then into structural Verilog; every stage is an opportunity for a
//! silent wiring, width, or accounting bug that bit-exact spot checks can
//! miss. This crate lints both artifacts and reports findings with stable
//! `MRPnnn` codes (see [`LintCode`]), severities, and source-node
//! provenance:
//!
//! * **structure** (`MRP00x`) — dead nodes, malformed references,
//!   non-topological order, redundant adders (free shifts burned as
//!   hardware), exact duplicate adders (missed CSE), fanout;
//! * **width** (`MRP01x`) — bit-width inference through shifts and adds,
//!   checked against the widths the emitted Verilog declares for its
//!   wires and pipeline registers;
//! * **equivalence** (`MRP02x`) — symbolic re-derivation of every constant
//!   from the adder structure, verified against the tracked values, the
//!   registered output coefficients, and a simulation of the RTL;
//! * **depth** (`MRP03x`) — recomputed critical path, checked against the
//!   graph's depth cache and the optimizer's reported depth;
//! * **pipeline** (`MRP04x`) — stage-assignment legality and register
//!   coverage of a [`mrp_arch::PipelinedNetlist`], plus an optional
//!   width-growth bound (`MRP042`) on the plain graph lint.
//!
//! Every check is a [`mrp_analysis::Pass`] over a shared
//! [`mrp_analysis::Analyzer`], so expensive walks (fanout, depth, widths,
//! liveness, symbolic values) are each computed at most once per netlist
//! no matter how many passes read them. [`lint_graph`] owns the analyzer
//! internally; [`lint_graph_with`] lints through a caller-owned analyzer
//! so a surrounding tool (e.g. `mrpf analyze`) can keep reusing the cache.
//!
//! # Examples
//!
//! ```
//! use mrp_arch::{AdderGraph, Term};
//! use mrp_lint::{lint_graph, LintCode, LintConfig};
//!
//! let mut g = AdderGraph::new();
//! let x = g.input();
//! let seven = g.add(Term::shifted(x, 3), Term::negated(x))?;
//! let dead = g.add(Term::shifted(x, 2), Term::of(x))?; // 5·x, never used
//! g.push_output("c0", Term::of(seven), 7);
//! let report = lint_graph(&g, &LintConfig::default());
//! assert_eq!(report.with_code(LintCode::DeadNode).len(), 1);
//! assert_eq!(report.with_code(LintCode::DeadNode)[0].node, Some(dead.index()));
//! # Ok::<(), mrp_arch::ArchError>(())
//! ```

#![warn(missing_docs)]

mod depth;
mod diag;
mod equiv;
mod pipelined;
mod rtl;
mod structure;
pub mod width;

pub use depth::recompute_depths;
pub use diag::{Diagnostic, LintCode, LintReport, LintStats, Severity};

use mrp_analysis::{AnalysisContext, Analyzer, PassManager};
use mrp_arch::{AdderGraph, PipelinedNetlist};

/// Lint configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintConfig {
    /// Input wordlength the network is analyzed at (1..=63 bits).
    pub input_width: u32,
    /// Critical path the optimizer reported, in adder stages; when set,
    /// a recomputed mismatch raises `MRP031`.
    pub expected_depth: Option<u32>,
    /// Fanout threshold above which `MRP006` fires; `None` disables the
    /// check (fanout still lands in the stats).
    pub fanout_warn: Option<usize>,
    /// Internal wordlength budget in bits; when set, any node whose
    /// settled value outgrows it raises `MRP042`. `None` disables the
    /// check (the minimum safe width still lands in the stats).
    pub width_growth_bound: Option<u32>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            input_width: 16,
            expected_depth: None,
            fanout_warn: None,
            width_growth_bound: None,
        }
    }
}

fn assert_width(config: &LintConfig) {
    assert!(
        (1..=63).contains(&config.input_width),
        "input width {} outside 1..=63",
        config.input_width
    );
}

/// The standard graph lint pipeline: structure, widths, coefficient
/// equivalence, and depth, in that order.
fn graph_passes<'p>() -> PassManager<'p, LintConfig, LintReport> {
    let mut pm = PassManager::new();
    pm.add(structure::StructurePass)
        .add(width::WidthPass)
        .add(equiv::EquivPass)
        .add(depth::DepthPass);
    pm
}

/// Lints an adder-graph netlist: structure, widths, coefficient
/// equivalence, and depth.
///
/// # Panics
///
/// Panics if `config.input_width` is outside `1..=63` (wider inputs leave
/// the `i64` analysis range).
pub fn lint_graph(graph: &AdderGraph, config: &LintConfig) -> LintReport {
    let _span = mrp_obs::span("lint.graph");
    assert_width(config);
    let az = Analyzer::new(
        graph,
        AnalysisContext {
            input_width: config.input_width,
        },
    );
    lint_graph_passes(&az, config)
}

/// Lints through a caller-owned [`Analyzer`], sharing its memoized
/// analyses with whatever the caller computes before or after — the
/// analyzer's context width must match `config.input_width` so the cached
/// width table means the same thing to both sides.
///
/// # Panics
///
/// Panics if `config.input_width` is outside `1..=63` or disagrees with
/// the analyzer's context.
pub fn lint_graph_with(az: &Analyzer<'_>, config: &LintConfig) -> LintReport {
    let _span = mrp_obs::span("lint.graph");
    assert_width(config);
    assert_eq!(
        az.ctx().input_width,
        config.input_width,
        "analyzer context width disagrees with the lint config"
    );
    lint_graph_passes(az, config)
}

fn lint_graph_passes(az: &Analyzer<'_>, config: &LintConfig) -> LintReport {
    let mut report = LintReport::default();
    graph_passes().run(az, config, &mut report);
    report
}

/// Lints emitted Verilog against the netlist it was generated from:
/// parseability, structural shape, declared wire, register and port
/// widths versus the inferred requirements, and a width-exact simulation
/// of the products.
///
/// Reads the names the `mrp-arch` writer gives its signals, so it covers
/// [`mrp_arch::emit_verilog`] and every latency of
/// [`mrp_arch::emit_verilog_pipelined`].
///
/// # Panics
///
/// Panics if `config.input_width` is outside `1..=63`.
pub fn lint_verilog(graph: &AdderGraph, source: &str, config: &LintConfig) -> LintReport {
    let _span = mrp_obs::span("lint.verilog");
    assert_width(config);
    let az = Analyzer::new(
        graph,
        AnalysisContext {
            input_width: config.input_width,
        },
    );
    let mut report = LintReport::default();
    let mut pm = PassManager::new();
    pm.add(rtl::RtlPass { source });
    pm.run(&az, config, &mut report);
    report
}

/// Lints a pipelined netlist: stage-assignment legality (`MRP041`) and
/// register coverage of every boundary crossing (`MRP040`). The stats
/// report the *within-stage* critical path, which is what the pipeline
/// buys down.
///
/// This is the static half of the pipeline acceptance gate; the dynamic
/// half is [`PipelinedNetlist::verify_outputs_latency_adjusted`].
pub fn lint_pipelined(net: &PipelinedNetlist, config: &LintConfig) -> LintReport {
    let _span = mrp_obs::span("lint.pipelined");
    let mut report = LintReport::default();
    pipelined::run(net, config, &mut report);
    report
}
