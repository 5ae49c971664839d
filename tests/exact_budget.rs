//! The exact rung's node cap (`--exact-node-cap`): a larger cap never
//! gives more adders, and a small cap keeps the search short.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use mrpf::filters::example_filters;
use mrpf::numrep::{quantize, Scaling};

use mrp_resilience::{synthesize, Rung, StageBudget, SynthConfig};

/// Paper filter `index`, uniformly quantized to `w` bits.
fn suite_coeffs(index: usize, w: u32) -> Vec<i64> {
    let taps = example_filters()[index - 1]
        .design()
        .expect("example filter designs");
    quantize(&taps, w, Scaling::Uniform)
        .expect("quantizes")
        .values
}

/// Adders of the netlist the exact rung delivers under `mcm_nodes`.
fn exact_adders(coeffs: &[i64], mcm_nodes: usize) -> usize {
    let config = SynthConfig {
        start_rung: Rung::Exact,
        budget: StageBudget {
            mcm_nodes,
            ..StageBudget::default()
        },
        ..SynthConfig::default()
    };
    let out = synthesize(coeffs, &config).expect("synthesizes");
    assert_eq!(out.rung, Rung::Exact, "cap {mcm_nodes}");
    out.adders()
}

#[test]
fn larger_cap_is_never_worse() {
    // `mrpf synth suite:1 --exact --exact-node-cap N`.
    let coeffs = suite_coeffs(1, 12);
    let caps = [100, 250, 500, 1000, 2000];
    let adders: Vec<usize> = caps.iter().map(|&cap| exact_adders(&coeffs, cap)).collect();
    assert!(
        adders.windows(2).all(|pair| pair[1] <= pair[0]),
        "adders at caps {caps:?}: {adders:?}"
    );
}

#[test]
fn small_cap_finishes_quickly() {
    // Filter 11 at W=16 has about 14 000 root candidates, far more than
    // the cap; the search must still end in a fraction of the bound.
    let coeffs = suite_coeffs(11, 16);
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let adders = exact_adders(&coeffs, 1000);
        let _ = done.send(());
        adders
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(10)) {
        panic!("filter 11 at W=16 with cap 1000 did not finish within 10 s");
    }
    let adders = worker.join().expect("the exact rung does not panic");
    assert!(adders > 0);
}
