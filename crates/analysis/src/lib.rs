//! Cached netlist analyses and structural transforms over the
//! [`mrp_arch`] adder-graph IR.
//!
//! Lint passes, reporting, DOT overlays, and transforms all need the
//! same handful of graph walks — fanout counts, recomputed depths,
//! width tables, cones of influence. Before this crate each consumer
//! recomputed them ad hoc; here they are [`Analysis`] values memoized by
//! an [`Analyzer`]: computed at most once per graph state, shared by
//! every pass in a [`PassManager`] run, and invalidated precisely when a
//! transform mutates the graph (with [`PreservedAnalyses`] for the
//! analyses a transform provably keeps intact).
//!
//! The crate has three layers:
//!
//! * **Manager** — [`Analyzer`], [`Analysis`], [`AnalysisContext`],
//!   [`PreservedAnalyses`]: the memoization and invalidation machinery.
//!   Every cache miss bumps the `analysis.compute` /
//!   `analysis.compute.<name>` obs counters, so "computed at most once"
//!   is checkable from a metrics export.
//! * **Analyses** — [`Fanout`], [`Depth`], [`CriticalPath`],
//!   [`WidthMap`], [`ConeOfInfluence`], [`Dominators`], [`Liveness`],
//!   [`DerivedValues`]: pure, total graph walks (malformed operand
//!   references are treated as absent, never panicked on — the lint
//!   passes that consume these report them instead).
//! * **Transforms** — [`pipeline_by_depth`], [`retime`], and
//!   [`pipeline_and_retime`]: stage assignment and register retiming.
//!   They return an [`mrp_arch::PipelinedNetlist`], which carries the
//!   register bookkeeping, cycle-accurate stepping, and the
//!   latency-adjusted equivalence gate
//!   ([`mrp_arch::PipelinedNetlist::verify_outputs_latency_adjusted`]).
//!
//! # Examples
//!
//! ```
//! use mrp_analysis::{pipeline_and_retime, AnalysisContext, Analyzer, Depth};
//! use mrp_arch::{AdderGraph, Term};
//!
//! let mut g = AdderGraph::new();
//! let x = g.input();
//! let mut n = x;
//! for _ in 0..4 {
//!     n = g.add(Term::shifted(n, 1), Term::of(x))?;
//! }
//! g.push_output("c0", Term::of(n), g.value(n));
//!
//! let az = Analyzer::new(&g, AnalysisContext::default());
//! assert_eq!(az.get_analysis::<Depth>().max, 4);
//!
//! // Slice into 2-adder stages and retime; verify latency-adjusted.
//! let (net, delta) = pipeline_and_retime(&az, 2);
//! assert_eq!(net.latency, 1);
//! assert!(delta.stage_depth <= 2);
//! assert_eq!(net.verify_outputs_latency_adjusted(&[-3, 0, 1, 7]), None);
//! # Ok::<(), mrp_arch::ArchError>(())
//! ```

#![warn(missing_docs)]

mod analyses;
mod manager;
mod passes;
mod transform;
pub mod width;

pub use analyses::{
    recompute_depths, ConeOfInfluence, CriticalPath, Depth, DerivedValues, Dominators, Fanout,
    Liveness, WidthMap,
};
pub use manager::{Analysis, AnalysisContext, Analyzer, PreservedAnalyses};
pub use passes::{Pass, PassManager};
pub use transform::{pipeline_and_retime, pipeline_by_depth, retime, TransformDelta};
