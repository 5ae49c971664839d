//! # mrp-exec — compile netlists, execute them in lanes
//!
//! Every equivalence gate and property test used to re-walk the
//! `mrp-arch` adder graph node by node, per sample. This crate lowers a
//! netlist once into a flat, topologically ordered linear IR
//! ([`Program`]) of add/sub/shift/negate/delay instructions over dense
//! virtual registers, then executes the whole basic block over *lanes*
//! of 8–64 samples per pass ([`Machine`]). The execution loops are plain
//! chunked `i64` slice arithmetic — no intrinsics, std only — shaped so
//! LLVM auto-vectorizes them; the payoff is an order of magnitude over
//! the tree walk on the paper's 12-filter suite (see `BENCH_sim.json`).
//!
//! Three lowerings cover the simulation shapes the workspace verifies:
//!
//! * [`compile_block`] — the multiplier block alone (tap products).
//! * [`compile_fir`] — the full transposed-direct-form filter
//!   (matches [`mrp_arch::FirFilter::filter`]).
//! * [`compile_pipelined`] — a [`mrp_arch::PipelinedNetlist`] with
//!   its exact register placement (matches
//!   [`mrp_arch::PipelinedNetlist::step`], wrapping arithmetic,
//!   wire-through timing skew and all).
//!
//! The tree-walk evaluators stay in service as the *differential
//! oracle*: [`verify_block_compiled`] / [`verify_pipelined_compiled`]
//! are run alongside them in accept gates, and the CI `sim-differential`
//! job fuzzes random filters through both paths plus the Verilog
//! simulator. See `docs/sim.md` for the IR format and batching policy.
//!
//! # Examples
//!
//! Compile the paper's 8-tap worked example and stream an impulse:
//!
//! ```
//! use mrp_arch::{simple_multiplier_block, FirFilter};
//! use mrp_exec::{compile_fir, Machine};
//! use mrp_numrep::Repr;
//!
//! let coeffs = [70i64, 66, 17, 9, 27, 41, 56, 11];
//! let (mut g, outs) = simple_multiplier_block(&coeffs, Repr::Csd)?;
//! for (i, (&t, &c)) in outs.iter().zip(&coeffs).enumerate() {
//!     g.push_output(format!("c{i}"), t, c);
//! }
//! let mut machine = Machine::new(compile_fir(&FirFilter::new(g)));
//! let mut impulse = vec![0i64; 8];
//! impulse[0] = 1;
//! assert_eq!(machine.run_single(&impulse), coeffs);
//! # Ok::<(), mrp_arch::ArchError>(())
//! ```

#![warn(missing_docs)]

pub mod ir;
pub mod lower;
pub mod machine;
pub mod verify;

pub use ir::{Inst, Operand, Program, ProgramOutput, VReg};
pub use lower::{compile_block, compile_fir, compile_pipelined};
pub use machine::{Machine, DEFAULT_LANES, MAX_LANES, MIN_LANES};
pub use verify::{verify_block_compiled, verify_pipelined_compiled};
