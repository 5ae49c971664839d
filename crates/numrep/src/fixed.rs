//! Representation selection and the adder-cost metric.

use std::fmt;

/// The number representation used to count the nonzero digits of a
/// coefficient, which in turn determines the adder cost of multiplying by it.
///
/// The MRPF paper evaluates three of these: plain binary (the "simple"
/// two's-complement implementation cost), sign-magnitude (SM), and
/// signed-powers-of-two (SPT, whose minimal form is the canonical signed
/// digit recoding, CSD).
///
/// # Examples
///
/// ```
/// use mrp_numrep::{nonzero_digits, Repr};
/// // 15 = 1111b (4 bits) but 10000 - 1 in CSD (2 digits).
/// assert_eq!(nonzero_digits(15, Repr::TwosComplement), 4);
/// assert_eq!(nonzero_digits(15, Repr::SignMagnitude), 4);
/// assert_eq!(nonzero_digits(15, Repr::Spt), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Repr {
    /// Two's-complement binary. Cost of `v` is `popcount(|v|)`; negative
    /// coefficients are handled by subtraction so the magnitude's bit count
    /// is the adder-relevant metric, matching the array-multiplier model of
    /// the paper.
    TwosComplement,
    /// Sign-magnitude: a sign bit plus binary magnitude; the cost metric is
    /// the magnitude's popcount (identical to [`Repr::TwosComplement`] for
    /// cost purposes, but SM changes which *differential* coefficients are
    /// cheap, so the MRP search explores a different space).
    SignMagnitude,
    /// Canonical signed digit — the unique minimal signed-digit form.
    Csd,
    /// Signed powers of two in minimal form; weight equals CSD weight.
    /// This is the representation used for most of the paper's evaluation.
    #[default]
    Spt,
}

impl Repr {
    /// All representations, for exhaustive sweeps.
    pub const ALL: [Repr; 4] = [
        Repr::TwosComplement,
        Repr::SignMagnitude,
        Repr::Csd,
        Repr::Spt,
    ];
}

impl fmt::Display for Repr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Repr::TwosComplement => "two's complement",
            Repr::SignMagnitude => "sign-magnitude",
            Repr::Csd => "CSD",
            Repr::Spt => "SPT",
        };
        write!(f, "{s}")
    }
}

/// Number of nonzero digits of `v` under representation `repr`.
///
/// This is the edge-weight metric of the MRPF coefficient graph: an edge
/// colored by differential coefficient `ξ` costs `nonzero_digits(ξ, repr)`
/// adder arrays.
///
/// # Examples
///
/// ```
/// use mrp_numrep::{nonzero_digits, Repr};
/// assert_eq!(nonzero_digits(0, Repr::Spt), 0);
/// assert_eq!(nonzero_digits(-96, Repr::Spt), 2); // -(64 + 32)
/// ```
///
/// Counted without building a digit vector: the binary weight of `m = |v|`
/// is `popcount(m)`, and its CSD weight is `popcount(m ^ 3m)` — a CSD digit
/// is nonzero exactly where `m` and `3m = m + 2m` differ one place up.
/// Equal to [`binary_digits`](crate::binary_digits)`(v).nonzero_count()` and
/// [`csd`](crate::csd)`(v).nonzero_count()`.
///
/// # Panics
///
/// Panics for [`Repr::Csd`] / [`Repr::Spt`] if `|v| > 2^62`, as
/// [`csd`](crate::csd) does.
pub fn nonzero_digits(v: i64, repr: Repr) -> u32 {
    let m = v.unsigned_abs();
    match repr {
        Repr::TwosComplement | Repr::SignMagnitude => m.count_ones(),
        Repr::Csd | Repr::Spt => {
            assert!(
                m <= 1 << 62,
                "|v| must be at most 2^62 for an i64-round-trippable CSD recoding"
            );
            (m ^ (3 * m)).count_ones()
        }
    }
}

/// Number of two-input adders needed to multiply a variable by the constant
/// `v` under representation `repr`: one less than the nonzero-digit count
/// (zero for `v ∈ {0, ±2^k}`, which are free wiring).
///
/// # Examples
///
/// ```
/// use mrp_numrep::{adder_cost, Repr};
/// assert_eq!(adder_cost(0, Repr::Spt), 0);
/// assert_eq!(adder_cost(8, Repr::Spt), 0);   // pure shift
/// assert_eq!(adder_cost(7, Repr::Spt), 1);   // 8 - 1
/// assert_eq!(adder_cost(7, Repr::TwosComplement), 2); // 4 + 2 + 1
/// ```
pub fn adder_cost(v: i64, repr: Repr) -> u32 {
    nonzero_digits(v, repr).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spt_equals_csd_weight() {
        for v in -300..300 {
            assert_eq!(nonzero_digits(v, Repr::Spt), nonzero_digits(v, Repr::Csd));
        }
    }

    #[test]
    fn sm_equals_binary_weight() {
        for v in -300..300 {
            assert_eq!(
                nonzero_digits(v, Repr::SignMagnitude),
                nonzero_digits(v, Repr::TwosComplement)
            );
        }
    }

    #[test]
    fn powers_of_two_are_free() {
        for k in 0..40 {
            assert_eq!(adder_cost(1 << k, Repr::Spt), 0);
            assert_eq!(adder_cost(-(1i64 << k), Repr::Spt), 0);
            assert_eq!(adder_cost(1 << k, Repr::TwosComplement), 0);
        }
    }

    #[test]
    fn zero_is_free() {
        for r in Repr::ALL {
            assert_eq!(adder_cost(0, r), 0);
            assert_eq!(nonzero_digits(0, r), 0);
        }
    }

    #[test]
    fn csd_cost_never_exceeds_binary() {
        for v in 0..5000 {
            assert!(adder_cost(v, Repr::Csd) <= adder_cost(v, Repr::TwosComplement));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Repr::Spt.to_string(), "SPT");
        assert_eq!(Repr::Csd.to_string(), "CSD");
    }
}
