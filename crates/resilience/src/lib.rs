//! Resilient synthesis: stage budgets, panic isolation, a fallback
//! ladder, and deterministic fault injection.
//!
//! The MRP pipeline is a multi-stage flow (SID graph → WMSC cover → root
//! selection → SEED network → overhead adds → netlist → RTL), and several
//! of its stages have pathological inputs: the exact MCM search is
//! exponential, the greedy heuristics have adversarial corners, and any
//! stage bug would otherwise abort the whole request. This crate wraps
//! the flow in a supervisor that always produces *some* valid multiplier
//! block:
//!
//! * [`StageBudget`] / [`Deadline`] — wall-clock deadlines plus a node
//!   cap for the exact rung (`budget_exhausted` surfaces as best-so-far,
//!   not failure);
//! * [`PipelineError`] — one taxonomy for every failure mode: timeouts,
//!   caught panics, exhausted budgets, lint-gate rejections, equivalence
//!   failures, and the wrapped stage errors
//!   ([`MrpError`](mrp_core::MrpError), [`ArchError`](mrp_arch::ArchError),
//!   [`QuantizeError`](mrp_numrep::QuantizeError),
//!   [`DesignError`](mrp_filters::DesignError));
//! * [`Rung`] — the declarative fallback ladder `exact → mrp+cse → mrp →
//!   cse → spt`; per-coefficient SPT recoding is always constructible, so
//!   the ladder has a guaranteed floor, and the opt-in `exact` top rung
//!   (the `mrp-exact` branch-and-bound, seeded with the greedy result as
//!   incumbent) never delivers more adders than `mrp+cse` would;
//! * [`FaultPlan`] — seeded, wall-clock-free fault injection (forced
//!   timeouts, simulated panics, corrupted netlists the lint gate must
//!   catch, overflow-path triggers) so every degradation path is testable
//!   deterministically;
//! * [`synthesize`] — the supervised driver: every accepted netlist is
//!   `mrp-lint`-clean and verified coefficient-equivalent, and the
//!   [`SynthOutcome`] records which rung ran and why each higher rung was
//!   rejected.
//!
//! # Examples
//!
//! A panic injected into the best rung degrades one rung instead of
//! crashing, and the outcome says so:
//!
//! ```
//! use mrp_resilience::{synthesize, FaultPlan, Rung, SynthConfig};
//!
//! let cfg = SynthConfig {
//!     faults: FaultPlan::parse("panic@mrp+cse")?,
//!     ..SynthConfig::default()
//! };
//! let out = synthesize(&[70, 66, 17, 9, 27, 41, 56, 11], &cfg)?;
//! assert_eq!(out.rung, Rung::Mrp);
//! assert!(out.degraded());
//! assert_eq!(out.graph.verify_outputs(&[-1, 0, 3]), None);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod budget;
mod driver;
mod error;
mod fault;
mod ladder;

pub use budget::{Deadline, StageBudget};
pub use driver::{
    synthesize, synthesize_under, try_rung, ExactStats, PipelineSummary, RungAttempt, RungOutcome,
    SynthConfig, SynthOutcome,
};
pub use error::{Degradation, PipelineError};
pub use fault::{parse_spec_entries, Fault, FaultKind, FaultPlan, SpecEntry};
pub use ladder::Rung;
