//! The MRP (minimally redundant parallel) optimization — the MRPF paper's
//! contribution.
//!
//! Given an integer coefficient vector (one fixed scalar per filter tap),
//! MRP finds a low-adder-count network computing every product `c_i · x`:
//!
//! 1. coefficients are normalized to positive odd *primaries*; shifts,
//!    signs, zeros, and duplicates cost nothing ([`CoeffSet`]);
//! 2. a directed multigraph over the primaries is colored by *shift
//!    inclusive differential* (SID) values `ξ = c_j − s·2^L·c_i`
//!    ([`ColorGraph`]);
//! 3. a greedy weighted-minimum-set-cover pass selects the color classes,
//!    driven by the benefit function `f = β·frequency − (1−β)·cost`
//!    ([`select_colors`]);
//! 4. spanning-forest roots are chosen by all-pairs shortest paths and
//!    depth-constrained trees are grown ([`build_forest`]);
//! 5. the SEED set (roots ∪ colors) is realized by a small multiplication
//!    network — directly, by CSE, or by recursive MRP — and every other
//!    primary costs exactly one overhead add ([`MrpOptimizer`]).
//!
//! # Examples
//!
//! The paper's worked 8-tap example:
//!
//! ```
//! use mrp_core::{MrpConfig, MrpOptimizer};
//!
//! let coeffs = [70i64, 66, 17, 9, 27, 41, 56, 11];
//! let result = MrpOptimizer::new(MrpConfig::default()).optimize(&coeffs)?;
//! // Bit-exact by construction; spot-check one product anyway.
//! assert_eq!(result.graph.evaluate_term(result.outputs[4], 3)?, 27 * 3);
//! // Far fewer adders than one multiplier per tap.
//! assert!(result.total_adders() < 16);
//! # Ok::<(), mrp_core::MrpError>(())
//! ```

#![warn(missing_docs)]

mod coeff;
mod color;
mod cover;
mod error;
mod flat;
mod mst_diff;
mod optimizer;
mod report;
mod tree;

pub use coeff::CoeffSet;
pub use color::{ColorGraph, SidEdge};
pub use cover::{select_colors, CoverSolution};
pub use error::MrpError;
pub use flat::{attach_outputs, realize_cse, realize_simple};
pub use mst_diff::{mst_differential, MstDiffResult};
pub use optimizer::{MrpConfig, MrpOptimizer, MrpResult, MrpStats, SeedOptimizer};
pub use report::{adder_report, simple_cost, AdderReport};
pub use tree::{build_forest, Forest, TreeEdge};
