//! Signed-digit vectors and recodings (binary, CSD).
//!
//! Digit vectors are stored least-significant digit first, which keeps shift
//! arithmetic (`value * 2^k`) a simple prefix of zeros and makes pattern
//! matching in common-subexpression elimination straightforward.

use std::fmt;

/// One digit of a radix-2 signed-digit number: `-1`, `0`, or `+1`.
///
/// # Examples
///
/// ```
/// use mrp_numrep::SignedDigit;
/// assert_eq!(SignedDigit::Minus.value(), -1);
/// assert_eq!(SignedDigit::try_from(1i8)?, SignedDigit::Plus);
/// # Ok::<(), mrp_numrep::ParseDigitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SignedDigit {
    /// Digit value `-1`, usually printed as `-` or `N`.
    Minus,
    /// Digit value `0`.
    #[default]
    Zero,
    /// Digit value `+1`.
    Plus,
}

impl SignedDigit {
    /// Numeric value of the digit (`-1`, `0`, or `+1`).
    pub fn value(self) -> i64 {
        match self {
            SignedDigit::Minus => -1,
            SignedDigit::Zero => 0,
            SignedDigit::Plus => 1,
        }
    }

    /// Returns `true` for [`SignedDigit::Plus`] and [`SignedDigit::Minus`].
    pub fn is_nonzero(self) -> bool {
        self != SignedDigit::Zero
    }
}

/// Error returned when converting an out-of-range integer to a
/// [`SignedDigit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseDigitError(pub i8);

impl fmt::Display for ParseDigitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value {} is not a signed digit (-1, 0, or 1)", self.0)
    }
}

impl std::error::Error for ParseDigitError {}

impl TryFrom<i8> for SignedDigit {
    type Error = ParseDigitError;

    fn try_from(v: i8) -> Result<Self, ParseDigitError> {
        match v {
            -1 => Ok(SignedDigit::Minus),
            0 => Ok(SignedDigit::Zero),
            1 => Ok(SignedDigit::Plus),
            other => Err(ParseDigitError(other)),
        }
    }
}

impl fmt::Display for SignedDigit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignedDigit::Minus => write!(f, "-"),
            SignedDigit::Zero => write!(f, "0"),
            SignedDigit::Plus => write!(f, "1"),
        }
    }
}

/// An LSB-first vector of signed digits representing an integer.
///
/// `value = Σ digits[k] · 2^k`. Trailing (most-significant) zeros are
/// permitted but [`DigitVec::trimmed`] removes them so equal values compare
/// equal after trimming.
///
/// # Examples
///
/// ```
/// use mrp_numrep::csd;
///
/// let d = csd(23); // 23 = 32 - 8 - 1
/// assert_eq!(d.value(), 23);
/// assert_eq!(d.nonzero_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DigitVec {
    digits: Vec<SignedDigit>,
}

impl DigitVec {
    /// Creates a digit vector from raw LSB-first digits.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrp_numrep::{DigitVec, SignedDigit};
    /// let d = DigitVec::new(vec![SignedDigit::Plus, SignedDigit::Plus]);
    /// assert_eq!(d.value(), 3);
    /// ```
    pub fn new(digits: Vec<SignedDigit>) -> Self {
        DigitVec { digits }
    }

    /// The integer this digit vector denotes.
    ///
    /// # Panics
    ///
    /// Panics if the denoted value does not fit in `i64`.
    pub fn value(&self) -> i64 {
        let v: i128 = self
            .digits
            .iter()
            .enumerate()
            .map(|(k, d)| (d.value() as i128) << k)
            .sum();
        i64::try_from(v).expect("digit vector value overflows i64")
    }

    /// Number of nonzero digits (the "weight"); one less than this many
    /// adders implement a multiplication by the value.
    pub fn nonzero_count(&self) -> u32 {
        self.digits.iter().filter(|d| d.is_nonzero()).count() as u32
    }

    /// Number of digit positions held (including leading zeros).
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// Returns `true` if no digit positions are held.
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// Borrow the LSB-first digits.
    pub fn digits(&self) -> &[SignedDigit] {
        &self.digits
    }

    /// Positions (shift amounts) and signs of the nonzero digits,
    /// LSB-first. Each entry `(k, s)` contributes `s * 2^k`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrp_numrep::csd;
    /// assert_eq!(csd(7).terms(), vec![(0, -1), (3, 1)]); // 7 = -1 + 8
    /// ```
    pub fn terms(&self) -> Vec<(u32, i64)> {
        self.digits
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_nonzero())
            .map(|(k, d)| (k as u32, d.value()))
            .collect()
    }

    /// Copy with most-significant zero digits removed.
    pub fn trimmed(&self) -> Self {
        let mut digits = self.digits.clone();
        while digits.last() == Some(&SignedDigit::Zero) {
            digits.pop();
        }
        DigitVec { digits }
    }

    /// Returns `true` when no two adjacent digits are both nonzero — the
    /// defining property of the canonical signed-digit form.
    pub fn is_csd(&self) -> bool {
        self.digits
            .windows(2)
            .all(|w| !(w[0].is_nonzero() && w[1].is_nonzero()))
    }
}

impl fmt::Display for DigitVec {
    /// Prints MSB-first, e.g. `10-1` for 7 (= 8 - 1).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.trimmed();
        if t.digits.is_empty() {
            return write!(f, "0");
        }
        for d in t.digits.iter().rev() {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl FromIterator<SignedDigit> for DigitVec {
    fn from_iter<I: IntoIterator<Item = SignedDigit>>(iter: I) -> Self {
        DigitVec {
            digits: iter.into_iter().collect(),
        }
    }
}

impl Extend<SignedDigit> for DigitVec {
    fn extend<I: IntoIterator<Item = SignedDigit>>(&mut self, iter: I) {
        self.digits.extend(iter);
    }
}

/// Plain (sign-magnitude) binary digits of `v`: the bits of `|v|`, each
/// carrying the sign of `v`.
///
/// For a negative input every nonzero digit is [`SignedDigit::Minus`] so the
/// vector still denotes `v` exactly.
///
/// # Examples
///
/// ```
/// use mrp_numrep::binary_digits;
/// assert_eq!(binary_digits(6).value(), 6);
/// assert_eq!(binary_digits(-6).value(), -6);
/// assert_eq!(binary_digits(-6).nonzero_count(), 2);
/// ```
pub fn binary_digits(v: i64) -> DigitVec {
    let sign = if v < 0 {
        SignedDigit::Minus
    } else {
        SignedDigit::Plus
    };
    let mut m = v.unsigned_abs();
    let mut digits = Vec::new();
    while m != 0 {
        digits.push(if m & 1 == 1 { sign } else { SignedDigit::Zero });
        m >>= 1;
    }
    DigitVec { digits }
}

/// Canonical signed-digit (CSD) recoding of `v`.
///
/// The CSD form is the unique minimal-weight signed-digit representation in
/// which no two adjacent digits are both nonzero. Its weight equals the
/// minimal signed-powers-of-two (SPT) term count, so SPT costs in the MRPF
/// paper are computed from this recoding.
///
/// # Examples
///
/// ```
/// use mrp_numrep::csd;
/// let d = csd(-7); // -7 = -8 + 1
/// assert_eq!(d.value(), -7);
/// assert_eq!(d.nonzero_count(), 2);
/// assert!(d.is_csd());
/// ```
///
/// # Panics
///
/// Panics if `|v| > 2^62`: the recoding of larger magnitudes can require a
/// `±2^63` digit, which [`DigitVec::value`] could not round-trip.
pub fn csd(v: i64) -> DigitVec {
    assert!(
        v != i64::MIN && v.unsigned_abs() <= 1 << 62,
        "|v| must be at most 2^62 for an i64-round-trippable CSD recoding"
    );
    let negative = v < 0;
    let mut m = v.unsigned_abs();
    let mut digits = Vec::new();
    // Classic nonzero-run recoding: while scanning LSB->MSB, a digit is
    // nonzero iff the current bit differs from a "carry-adjusted" view; we
    // use the identity csd digit_k = bits of (3m) XOR m restricted to
    // non-overlapping runs. The loop below implements the standard
    // carry-propagation formulation.
    let mut carry = 0u64;
    let mut k = 0;
    while m != 0 || carry != 0 {
        let bit = (m & 1) + carry;
        let next_bit = (m >> 1) & 1;
        let digit = match bit {
            0 => {
                carry = 0;
                SignedDigit::Zero
            }
            1 => {
                if next_bit == 1 {
                    // Start of a run of ones: emit -1 and carry into the run.
                    carry = 1;
                    SignedDigit::Minus
                } else {
                    carry = 0;
                    SignedDigit::Plus
                }
            }
            2 => {
                carry = 1;
                SignedDigit::Zero
            }
            _ => unreachable!("bit + carry is at most 2"),
        };
        digits.push(digit);
        m >>= 1;
        k += 1;
        debug_assert!(k <= 66, "CSD recoding must terminate");
    }
    if negative {
        for d in &mut digits {
            *d = match *d {
                SignedDigit::Minus => SignedDigit::Plus,
                SignedDigit::Zero => SignedDigit::Zero,
                SignedDigit::Plus => SignedDigit::Minus,
            };
        }
    }
    DigitVec { digits }
}

/// Minimal signed-digit weight of `v`: the number of signed-power-of-two
/// terms in an optimal SPT expansion. Equal to `csd(v).nonzero_count()`.
///
/// # Examples
///
/// ```
/// use mrp_numrep::msd_weight;
/// assert_eq!(msd_weight(0), 0);
/// assert_eq!(msd_weight(255), 2); // 256 - 1
/// ```
pub fn msd_weight(v: i64) -> u32 {
    crate::nonzero_digits(v, crate::Repr::Csd)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive minimal SPT weight by dynamic programming, used as an
    /// oracle for the CSD recoder on small values.
    fn brute_min_weight(v: i64) -> u32 {
        // BFS over reachable sums with increasing term count.
        if v == 0 {
            return 0;
        }
        let target = v;
        let mut frontier = vec![0i64];
        let mut seen = std::collections::HashSet::new();
        seen.insert(0i64);
        for weight in 1..=8u32 {
            let mut next = Vec::new();
            for &s in &frontier {
                for l in 0..16 {
                    for sign in [1i64, -1] {
                        let t = s + sign * (1i64 << l);
                        if t == target {
                            return weight;
                        }
                        if t.abs() <= 1 << 17 && seen.insert(t) {
                            next.push(t);
                        }
                    }
                }
            }
            frontier = next;
        }
        panic!("no SPT expansion of {v} with weight <= 8");
    }

    #[test]
    fn csd_round_trips_small_values() {
        for v in -1025..=1025 {
            assert_eq!(csd(v).value(), v, "csd value mismatch for {v}");
        }
    }

    #[test]
    fn csd_has_no_adjacent_nonzeros() {
        for v in -1025..=1025 {
            assert!(csd(v).is_csd(), "adjacent nonzeros in csd({v})");
        }
    }

    #[test]
    fn csd_weight_is_minimal() {
        for v in 1..=512 {
            assert_eq!(
                csd(v).nonzero_count(),
                brute_min_weight(v),
                "csd({v}) weight is not minimal"
            );
        }
    }

    #[test]
    fn csd_weight_symmetric_in_sign() {
        for v in 1..2000 {
            assert_eq!(csd(v).nonzero_count(), csd(-v).nonzero_count());
        }
    }

    #[test]
    fn binary_round_trips() {
        for v in -2000..=2000 {
            assert_eq!(binary_digits(v).value(), v);
        }
    }

    #[test]
    fn binary_weight_is_popcount() {
        for v in 0..4096i64 {
            assert_eq!(binary_digits(v).nonzero_count(), v.count_ones());
        }
    }

    #[test]
    fn zero_is_empty() {
        assert_eq!(csd(0).nonzero_count(), 0);
        assert_eq!(csd(0).value(), 0);
        assert_eq!(binary_digits(0).len(), 0);
        assert_eq!(format!("{}", csd(0)), "0");
    }

    #[test]
    fn display_is_msb_first() {
        assert_eq!(format!("{}", csd(7)), "100-");
        assert_eq!(format!("{}", binary_digits(5)), "101");
    }

    #[test]
    fn terms_reconstruct_value() {
        for v in [-100, -7, -1, 1, 3, 23, 67, 255, 1023] {
            let sum: i64 = csd(v).terms().iter().map(|&(k, s)| s << k).sum();
            assert_eq!(sum, v);
        }
    }

    #[test]
    fn trimmed_preserves_value() {
        let mut d = csd(12);
        d.extend([SignedDigit::Zero, SignedDigit::Zero]);
        assert_eq!(d.trimmed().value(), 12);
        assert!(d.trimmed().len() < d.len());
    }

    #[test]
    fn csd_large_values() {
        for v in [(1 << 62) - 1, -(1 << 62), (1 << 61) + 12345, 1 << 62] {
            assert_eq!(csd(v).value(), v);
            assert!(csd(v).is_csd());
        }
    }

    #[test]
    #[should_panic(expected = "2^62")]
    fn csd_rejects_oversized_input() {
        let _ = csd(i64::MAX);
    }

    #[test]
    fn csd_never_heavier_than_binary() {
        for v in 0..4096i64 {
            assert!(csd(v).nonzero_count() <= binary_digits(v).nonzero_count());
        }
    }

    #[test]
    fn signed_digit_try_from() {
        assert_eq!(SignedDigit::try_from(-1i8).unwrap(), SignedDigit::Minus);
        assert_eq!(SignedDigit::try_from(0i8).unwrap(), SignedDigit::Zero);
        assert_eq!(SignedDigit::try_from(1i8).unwrap(), SignedDigit::Plus);
        assert!(SignedDigit::try_from(2i8).is_err());
    }
}
