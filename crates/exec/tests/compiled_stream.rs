//! Streaming the compiled FIR against the tree-walk oracle.
//!
//! Every case builds a filter, compiles it with [`compile_fir`], streams
//! the input through one [`Machine`] in blocks of mismatched sizes, and
//! requires equality with the batch tree walk (`FirFilter::filter`) and
//! with direct form — the delay state must carry across `run` calls.

use mrp_arch::{direct_fir, simple_multiplier_block, FirFilter};
use mrp_core::{MrpConfig, MrpOptimizer};
use mrp_exec::{compile_fir, Machine};
use mrp_numrep::Repr;
use mrp_ptest::run_cases;

const PAPER_EXAMPLE: [i64; 8] = [70, 66, 17, 9, 27, 41, 56, 11];

fn simple_filter(coeffs: &[i64]) -> FirFilter {
    let (mut g, outs) = simple_multiplier_block(coeffs, Repr::Csd).unwrap();
    for (i, (&t, &c)) in outs.iter().zip(coeffs).enumerate() {
        g.push_output(format!("c{i}"), t, c);
    }
    FirFilter::new(g)
}

fn mrpf_filter(coeffs: &[i64]) -> FirFilter {
    let r = MrpOptimizer::new(MrpConfig::default())
        .optimize(coeffs)
        .unwrap();
    FirFilter::new(r.graph)
}

#[test]
fn compiled_stream_matches_direct_form() {
    let coeffs = [5i64, -2, 7, 1];
    let input: Vec<i64> = (0..100).map(|i| (i * 13 % 29) - 14).collect();
    let mut m = Machine::new(compile_fir(&simple_filter(&coeffs)));
    let out: Vec<i64> = input.chunks(7).flat_map(|b| m.run_single(b)).collect();
    assert_eq!(out, direct_fir(&coeffs, &input));
}

#[test]
fn compiled_equals_tree_walk_on_random_filters() {
    run_cases("exec_compiled_stream_vs_tree_walk", 32, |rng| {
        let mut coeffs = rng.vec_i64(1, 10, -2000, 2000);
        if coeffs.iter().all(|&c| c == 0) {
            coeffs[0] = 1;
        }
        let f = simple_filter(&coeffs);
        let input = rng.vec_i64(0, 300, -30_000, 30_000);
        let lanes = rng.usize_in(1, 65);
        let mut m = Machine::with_lanes(compile_fir(&f), lanes);
        let mut got = Vec::with_capacity(input.len());
        let mut rest = &input[..];
        while !rest.is_empty() {
            let (block, tail) = rest.split_at(rng.usize_in(1, rest.len() + 1));
            got.extend(m.run_single(block));
            rest = tail;
        }
        assert_eq!(got, f.filter(&input), "coeffs {coeffs:?} lanes {lanes}");
    });
}

#[test]
fn compiled_impulse_equivalence_on_mrpf_optimized_filters() {
    // The MRPF-optimized netlist (not just the simple CSD block) must
    // compile to a program whose impulse response is the tap vector.
    let f = mrpf_filter(&PAPER_EXAMPLE);
    let mut impulse = vec![0i64; 12];
    impulse[0] = 1;
    let mut want = PAPER_EXAMPLE.to_vec();
    want.extend([0, 0, 0, 0]);
    assert_eq!(Machine::new(compile_fir(&f)).run_single(&impulse), want);
}

#[test]
fn compiled_streaming_mrpf_equals_batch_over_a_long_chirp() {
    let f = mrpf_filter(&PAPER_EXAMPLE);
    // Linear chirp from 0.01 to 0.45 cycles per sample, amplitude 5000.
    let n = 20_000;
    let x: Vec<i64> = (0..n)
        .map(|i| {
            let t = i as f64;
            let freq = 0.01 + 0.44 * t / n as f64 / 2.0;
            (5000.0 * (std::f64::consts::TAU * freq * t).sin()).round() as i64
        })
        .collect();
    let batch = f.filter(&x);
    let mut m = Machine::new(compile_fir(&f));
    let got: Vec<i64> = x.chunks(97).flat_map(|b| m.run_single(b)).collect();
    assert_eq!(got, batch);
    // And direct form agrees, closing the three-way loop.
    assert_eq!(direct_fir(&PAPER_EXAMPLE, &x), batch);
}
