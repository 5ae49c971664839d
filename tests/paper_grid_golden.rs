//! Byte-identity golden over the paper's 96 cells: the 12 example filters
//! of Table 1 × W ∈ {8, 12, 16, 20} × uniform/maximal scaling, each through
//! `synthesize` with the default ladder.
//!
//! Per cell the golden file records the accepted netlist's adders, its
//! depth and an FNV-1a-64 digest of its nodes and outputs, so any change
//! to a synthesized netlist — not only to its adder count — fails here.
//! A change that means to move netlists regenerates the file with
//! `MRPF_BLESS_GOLDEN=1 cargo test --test paper_grid_golden` and says why.

use mrpf::filters::example_filters;
use mrpf::numrep::{quantize, Scaling};

use mrp_resilience::{synthesize, SynthConfig};

mod common;

const GOLDEN: &str = "tests/golden/paper_grid.txt";

/// One line per cell, in W-major, scaling, filter order.
fn render_grid() -> String {
    let suite: Vec<_> = example_filters()
        .into_iter()
        .map(|f| {
            let taps = f.design().expect("example filter designs");
            (f.index, taps)
        })
        .collect();
    let mut out = String::new();
    for w in [8u32, 12, 16, 20] {
        for scaling in [Scaling::Uniform, Scaling::Maximal] {
            for (index, taps) in &suite {
                let coeffs = quantize(taps, w, scaling).expect("quantizes").values;
                let outcome = synthesize(&coeffs, &SynthConfig::default()).expect("synthesizes");
                let g = &outcome.graph;
                out.push_str(&format!(
                    "f{index} W={w} {scaling} rung={} adders={} depth={} digest={:016x}\n",
                    outcome.rung,
                    g.adder_count(),
                    g.max_depth(),
                    common::netlist_digest(g)
                ));
            }
        }
    }
    out
}

#[test]
fn paper_grid_netlists_are_unchanged() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let fresh = render_grid();
    if std::env::var_os("MRPF_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(fresh.lines().count(), 96);
    let changed: Vec<String> = golden
        .lines()
        .zip(fresh.lines())
        .filter(|(g, f)| g != f)
        .map(|(g, f)| format!("  golden {g}\n  fresh  {f}"))
        .collect();
    assert!(
        changed.is_empty() && golden.lines().count() == 96,
        "{} of 96 cells changed:\n{}",
        changed.len(),
        changed.join("\n")
    );
}
