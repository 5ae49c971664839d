//! Shift-add architecture IR for multiplierless filters.
//!
//! The output of the MRP optimization (and of CSE, and of any multiple
//! constant multiplication scheme) is a network of two-input adders and free
//! wiring shifts that turns the single input sample `x` into all the partial
//! products `c_i · x`. This crate provides:
//!
//! * [`AdderGraph`] — the DAG of shift-add nodes with exact `i64`
//!   constant-value tracking, bit-exact evaluation, adder counting, and
//!   per-node adder depth;
//! * [`Term`] — a (node, left-shift, negate) operand reference, making
//!   shifts and sign flips explicitly free, as in the paper's cost model;
//! * builders for the baseline architectures (digit-recoded constant
//!   multiplication per coefficient);
//! * [`FirFilter`] — the full transposed-direct-form filter around a
//!   multiplier block, evaluated bit-exactly against direct convolution;
//! * [`PipelinedNetlist`] — an adder graph with a pipeline stage per node
//!   and explicit registers, stepped cycle by cycle and checked against
//!   the latency-shifted coefficients;
//! * [`emit_verilog_pipelined`] — synthesizable structural Verilog for a
//!   pipelined netlist, with [`emit_verilog`] as its combinational case.
//!
//! # Examples
//!
//! Build `7x = 8x − x` with one adder and verify it:
//!
//! ```
//! use mrp_arch::{AdderGraph, Term};
//!
//! let mut g = AdderGraph::new();
//! let x = g.input();
//! let seven = g.add(Term::shifted(x, 3), Term::negated(x))?;
//! assert_eq!(g.value(seven), 7);
//! assert_eq!(g.adder_count(), 1);
//! assert_eq!(g.evaluate_node(seven, 5)?, 35);
//! # Ok::<(), mrp_arch::ArchError>(())
//! ```

#![warn(missing_docs)]

mod dot;
mod eval;
mod filter_structure;
mod netlist;
mod pipelined;
mod verilog;

pub use dot::{to_dot, to_dot_labeled};
pub use eval::evaluate_all;
pub use filter_structure::{direct_fir, FirFilter};
pub use netlist::{AdderGraph, ArchError, Node, NodeId, Output, Term};
pub use pipelined::PipelinedNetlist;
pub use verilog::{emit_verilog, emit_verilog_pipelined};

/// Builds a multiplier block that computes every requested constant with the
/// per-coefficient digit-recoding baseline (the paper's "simple"
/// implementation): each constant is realized independently as a chain of
/// adds over its nonzero digits.
///
/// Constants equal to `0` or `±2^k` need no adders. Returns the graph and
/// one output per requested constant, labeled by its index.
///
/// # Errors
///
/// Returns [`ArchError`] if a constant is `i64::MIN` or an intermediate
/// value overflows.
///
/// # Examples
///
/// ```
/// use mrp_arch::simple_multiplier_block;
/// use mrp_numrep::Repr;
///
/// let (g, outs) = simple_multiplier_block(&[7, 12, -5], Repr::Csd)?;
/// // 7 = 8-1 (1 adder), 12 = 4·3 = 4·(4-1) (1 adder), 5 = 4+1 (1 adder).
/// assert_eq!(g.adder_count(), 3);
/// assert_eq!(g.evaluate_term(outs[2], 10)?, -50);
/// # Ok::<(), mrp_arch::ArchError>(())
/// ```
pub fn simple_multiplier_block(
    constants: &[i64],
    repr: mrp_numrep::Repr,
) -> Result<(AdderGraph, Vec<Term>), ArchError> {
    let mut g = AdderGraph::new();
    let mut outs = Vec::with_capacity(constants.len());
    for &c in constants {
        let t = g.build_constant(c, repr)?;
        outs.push(t);
    }
    Ok((g, outs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_numrep::Repr;

    #[test]
    fn simple_block_matches_direct_multiplication() {
        let constants = [70, 66, 17, 9, 27, 41, 56, 11];
        let (g, outs) = simple_multiplier_block(&constants, Repr::Csd).unwrap();
        for x in [-100i64, -1, 0, 1, 3, 17, 1000] {
            for (i, &c) in constants.iter().enumerate() {
                assert_eq!(g.evaluate_term(outs[i], x).unwrap(), c * x);
            }
        }
    }

    #[test]
    fn simple_block_adder_count_is_csd_cost() {
        let constants = [7i64, 12, -5, 0, 8, 255];
        let (g, _) = simple_multiplier_block(&constants, Repr::Csd).unwrap();
        let expected: u32 = constants
            .iter()
            .map(|&c| mrp_numrep::adder_cost(c, Repr::Csd))
            .sum();
        assert_eq!(g.adder_count() as u32, expected);
    }

    #[test]
    fn binary_repr_uses_more_adders() {
        let constants = [255i64, 1023];
        let (gc, _) = simple_multiplier_block(&constants, Repr::Csd).unwrap();
        let (gb, _) = simple_multiplier_block(&constants, Repr::TwosComplement).unwrap();
        assert!(gc.adder_count() < gb.adder_count());
    }
}
