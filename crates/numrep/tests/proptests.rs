//! Property-based tests for the number-representation substrate
//! (deterministic harness).

use mrp_numrep::{
    adder_cost, binary_digits, csd, is_power_of_two_or_zero, msd_weight, nonzero_digits, odd_part,
    quantize, Repr, Scaling,
};
use mrp_ptest::run_cases;

const B40: i64 = 1 << 40;
const B30: i64 = 1 << 30;

#[test]
fn csd_round_trip() {
    run_cases("csd_round_trip", 512, |rng| {
        let v = rng.i64_in(-B40, B40);
        assert_eq!(csd(v).value(), v);
    });
}

#[test]
fn csd_is_canonical() {
    run_cases("csd_is_canonical", 512, |rng| {
        let v = rng.i64_in(-B40, B40);
        assert!(csd(v).is_csd());
    });
}

#[test]
fn csd_weight_at_most_binary() {
    run_cases("csd_weight_at_most_binary", 512, |rng| {
        let v = rng.i64_in(0, B40);
        assert!(csd(v).nonzero_count() <= binary_digits(v).nonzero_count());
    });
}

#[test]
fn csd_weight_sign_symmetric() {
    run_cases("csd_weight_sign_symmetric", 512, |rng| {
        let v = rng.i64_in(1, B40);
        assert_eq!(msd_weight(v), msd_weight(-v));
    });
}

#[test]
fn csd_shift_invariant() {
    run_cases("csd_shift_invariant", 512, |rng| {
        let v = rng.i64_in(1, B30);
        let k = rng.u32_in(0, 8);
        // Multiplying by 2^k must not change the digit weight.
        assert_eq!(msd_weight(v), msd_weight(v << k));
    });
}

#[test]
fn binary_round_trip() {
    run_cases("binary_round_trip", 512, |rng| {
        let v = rng.i64_in(-B40, B40);
        assert_eq!(binary_digits(v).value(), v);
    });
}

#[test]
fn odd_part_round_trip() {
    run_cases("odd_part_round_trip", 512, |rng| {
        let v = rng.i64_in(-B40, B40);
        assert_eq!(odd_part(v).reassemble(), v);
    });
}

#[test]
fn odd_part_really_odd() {
    run_cases("odd_part_really_odd", 512, |rng| {
        let v = rng.i64_in(1, B40);
        assert_eq!(odd_part(v).odd & 1, 1);
    });
}

#[test]
fn adder_cost_zero_iff_trivial() {
    run_cases("adder_cost_zero_iff_trivial", 512, |rng| {
        let v = rng.i64_in(-B30, B30);
        for r in Repr::ALL {
            let free = adder_cost(v, r) == 0;
            assert_eq!(free, is_power_of_two_or_zero(v), "repr {r} value {v}");
        }
    });
}

#[test]
fn nonzero_digits_shift_invariant() {
    run_cases("nonzero_digits_shift_invariant", 512, |rng| {
        let v = rng.i64_in(1, B30);
        let k = rng.u32_in(0, 8);
        for r in Repr::ALL {
            assert_eq!(nonzero_digits(v, r), nonzero_digits(v << k, r));
        }
    });
}

#[test]
fn quantize_uniform_within_range() {
    run_cases("quantize_uniform_within_range", 128, |rng| {
        let taps = rng.vec_f64(1, 64, -1.0, 1.0);
        let w = rng.u32_in(2, 20);
        if !taps.iter().any(|t| t.abs() > 1e-9) {
            return;
        }
        let q = quantize(&taps, w, Scaling::Uniform).unwrap();
        for &v in &q.values {
            assert!(v.abs() < 1 << w);
        }
    });
}

#[test]
fn quantize_maximal_full_width() {
    run_cases("quantize_maximal_full_width", 128, |rng| {
        let taps = rng.vec_f64(1, 64, -1.0, 1.0);
        let w = rng.u32_in(2, 20);
        if !taps.iter().any(|t| t.abs() > 1e-9) {
            return;
        }
        let q = quantize(&taps, w, Scaling::Maximal).unwrap();
        for &v in &q.values {
            if v != 0 {
                assert!((1i64 << (w - 1)..1i64 << w).contains(&v.abs()));
            }
        }
    });
}

#[test]
fn quantize_error_shrinks_with_wordlength() {
    run_cases("quantize_error_shrinks_with_wordlength", 128, |rng| {
        let taps = rng.vec_f64(2, 32, -1.0, 1.0);
        if !taps.iter().any(|t| t.abs() > 1e-3) {
            return;
        }
        let e8 = quantize(&taps, 8, Scaling::Uniform)
            .unwrap()
            .max_error(&taps);
        let e16 = quantize(&taps, 16, Scaling::Uniform)
            .unwrap()
            .max_error(&taps);
        assert!(e16 <= e8 + 1e-12);
    });
}

/// The closed-form weights against the digit vectors they replace.
fn assert_weights_match(v: i64) {
    let csd_weight = csd(v).nonzero_count();
    let binary_weight = binary_digits(v).nonzero_count();
    assert_eq!(
        nonzero_digits(v, Repr::Csd),
        csd_weight,
        "CSD weight of {v}"
    );
    assert_eq!(
        nonzero_digits(v, Repr::Spt),
        csd_weight,
        "SPT weight of {v}"
    );
    assert_eq!(
        nonzero_digits(v, Repr::SignMagnitude),
        binary_weight,
        "SM weight of {v}"
    );
    assert_eq!(
        nonzero_digits(v, Repr::TwosComplement),
        binary_weight,
        "binary weight of {v}"
    );
}

#[test]
fn closed_form_weights_match_digit_vectors_below_2_16() {
    for v in -(1i64 << 16) + 1..1 << 16 {
        assert_weights_match(v);
    }
}

#[test]
fn closed_form_weights_match_digit_vectors_up_to_2_62() {
    const B62: i64 = 1 << 62;
    for v in [B62, -B62, B62 - 1, -B62 + 1, (B62 >> 1) * 3 / 2] {
        assert_weights_match(v);
    }
    run_cases("closed_form_weights_up_to_2_62", 4096, |rng| {
        // A uniform draw, then one with its magnitude cut to a random
        // width so short values get as many cases as long ones.
        let v = rng.i64_in(-B62, B62 + 1);
        assert_weights_match(v);
        assert_weights_match(v >> rng.u32_in(0, 62));
    });
}

#[test]
fn closed_form_csd_weight_rejects_magnitudes_above_2_62() {
    for v in [(1i64 << 62) + 1, -(1i64 << 62) - 1, i64::MAX, i64::MIN] {
        for repr in [Repr::Csd, Repr::Spt] {
            let panicked = std::panic::catch_unwind(|| nonzero_digits(v, repr)).is_err();
            assert!(panicked, "{repr} weight of {v} must panic like csd({v})");
        }
        // Binary weights have no such limit.
        assert_eq!(
            nonzero_digits(v, Repr::SignMagnitude),
            v.unsigned_abs().count_ones()
        );
    }
}
