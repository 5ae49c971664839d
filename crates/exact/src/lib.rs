//! # mrp-exact — exact branch-and-bound MCM over odd fundamentals
//!
//! The MRP transformation in `mrp-core` is a greedy heuristic: fast,
//! robust, and (per the paper's claims) good — but nothing in the
//! workspace could say *how far from optimal* its adder counts are. This
//! crate answers that with an in-tree exact solver for the multiple
//! constant multiplication (MCM) problem: given the odd primaries of a
//! coefficient set, find a minimum-size set of *fundamentals* (odd
//! constants, each built from two earlier ones by one shift-add) that
//! contains every primary. Each fundamental costs exactly one two-input
//! adder, so the solution size is the adder count of the multiplier
//! block.
//!
//! The search is a depth-first branch-and-bound over fundamental sets
//! ([`solve_mcm`]), in the style of the exact MCM algorithms of Aksoy et
//! al. and the ILP formulation of Kumm–Volkova–Filip (arXiv 1912.04210):
//!
//! * **A-operations, division-free.** A new fundamental is `a·2^s ± b`
//!   (`s ≥ 1`) over existing fundamentals `a`, `b` — exactly the shapes
//!   a left-shift-only [`mrp_arch::Term`] pair can express, so every
//!   solution replays directly into an [`mrp_arch::AdderGraph`]
//!   ([`realize_recipes`]). Right-shift A-operations (which the
//!   unrestricted MCM literature also allows) are excluded; optimality
//!   claims are therefore *over the `mrp-arch`-representable space* with
//!   fundamentals bounded by one extra bit over the largest target.
//! * **Closure.** A remaining target at A-distance 1 from the current
//!   set is always added immediately — it appears in every completion,
//!   and cost is a function of the final set, so this never loses
//!   optimality and collapses most of the tree.
//! * **Admissible bounds.** `cost + |remaining| + 1` (every remaining
//!   target needs its own adder, plus at least one non-target
//!   intermediate once closure has stalled) and the per-coefficient CSD
//!   floor `⌈log₂(csd_digits)⌉` ([`csd_cost_floor`]).
//! * **Incumbent seeding.** The caller passes the greedy MRP+CSE adder
//!   count as [`McmConfig::incumbent`]; the search only looks for
//!   strictly better solutions, and a budget-exhausted run can therefore
//!   never report anything worse than greedy.
//! * **Deterministic sharding.** Root-level branches become shards run
//!   in rounds of four with a shared best-so-far bound read only at
//!   round boundaries, so the [`McmOutcome`] is byte-identical for any
//!   worker count ([`ShardExecutor`]).
//!
//! The node cap is global across shards, `budget_exhausted` reports a
//! clipped search, and the best-so-far solution (or the standing
//! incumbent) is still returned.
//! See `docs/optimal.md` for the full algorithm write-up and
//! `docs/results/optimality-gap.md` for measured gaps on the paper's
//! 12-filter suite.
//!
//! # Examples
//!
//! A single constant with a known minimal adder count:
//!
//! ```
//! use mrp_exact::{solve_mcm, McmConfig, McmProblem};
//!
//! let problem = McmProblem::from_coeffs(&[45])?;
//! let out = solve_mcm(&problem, &McmConfig::default());
//! let sol = out.solution.expect("unbudgeted run solves 45");
//! assert_eq!(sol.cost, 2); // 45 = 9·5 = (1<<3 + 1)(1<<2 + 1)
//! assert!(out.proven_optimal);
//! # Ok::<(), mrp_core::MrpError>(())
//! ```
//!
//! Replaying a solution into a verified netlist:
//!
//! ```
//! use mrp_exact::{realize_recipes, solve_mcm, McmConfig, McmProblem};
//!
//! let coeffs = [70i64, 66, 17, 9, 27, 41, 56, 11];
//! let problem = McmProblem::from_coeffs(&coeffs)?;
//! let out = solve_mcm(&problem, &McmConfig::default());
//! let graph = realize_recipes(&coeffs, &out.solution.unwrap().recipes)?;
//! assert_eq!(graph.verify_outputs(&[-3, 0, 1, 7, 100]), None);
//! # Ok::<(), mrp_core::MrpError>(())
//! ```

#![warn(missing_docs)]

mod bounds;
mod executor;
mod realize;
mod solver;

pub use bounds::{ceil_log2, csd_cost_floor};
pub use executor::{ScopedExecutor, ShardExecutor};
pub use realize::realize_recipes;
pub use solver::{
    solve_mcm, solve_mcm_with, McmConfig, McmOutcome, McmProblem, McmSolution, Recipe,
    DEFAULT_MCM_NODE_BUDGET,
};
