//! Golden of the exact rung on the 15 `signoff` cells: the 12 example
//! filters of Table 1 at W=16 and filters 1, 2 and 6 at W=20, uniform
//! scaling, each through `synthesize` started at the `exact` rung.
//!
//! Per cell the golden file records the accepted netlist (rung, adders,
//! depth, FNV-1a-64 digest of its nodes and outputs) and what the
//! branch-and-bound search did (nodes, `budget_exhausted`,
//! `proven_optimal`, `lower_bound`). The two wordlengths are separate
//! tests so they run in parallel. A change that means to move a line
//! regenerates the file with
//! `MRPF_BLESS_GOLDEN=1 cargo test --test exact_rung_golden` and says why.

use std::path::PathBuf;
use std::sync::Mutex;

use mrpf::filters::example_filters;
use mrpf::numrep::{quantize, Scaling};

use mrp_resilience::{synthesize, Rung, SynthConfig};

mod common;

const GOLDEN: &str = "tests/golden/exact_rung.txt";

/// Serializes blessing: both halves rewrite the one golden file.
static FILE: Mutex<()> = Mutex::new(());

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

/// The `(W, filter index)` a golden line describes, for ordering.
fn cell(line: &str) -> (u32, usize) {
    let mut words = line.split(' ');
    let f = words.next().and_then(|s| s.strip_prefix('f')?.parse().ok());
    let w = words
        .next()
        .and_then(|s| s.strip_prefix("W=")?.parse().ok());
    match (w, f) {
        (Some(w), Some(f)) => (w, f),
        _ => panic!("malformed golden line {line:?}"),
    }
}

/// One line per filter in `filters`, ascending, at wordlength `w`.
fn render(w: u32, filters: &[usize]) -> Vec<String> {
    let config = SynthConfig {
        start_rung: Rung::Exact,
        ..SynthConfig::default()
    };
    example_filters()
        .into_iter()
        .filter(|f| filters.contains(&f.index))
        .map(|f| {
            let taps = f.design().expect("example filter designs");
            let coeffs = quantize(&taps, w, Scaling::Uniform)
                .expect("quantizes")
                .values;
            let outcome = synthesize(&coeffs, &config).expect("synthesizes");
            let stats = outcome
                .attempts
                .iter()
                .find(|a| a.rung == Rung::Exact)
                .and_then(|a| a.exact)
                .expect("the exact attempt carries search stats");
            let g = &outcome.graph;
            format!(
                "f{} W={w} uniform rung={} adders={} depth={} digest={:016x} \
                 nodes={} budget_exhausted={} proven_optimal={} lower_bound={}",
                f.index,
                outcome.rung,
                g.adder_count(),
                g.max_depth(),
                common::netlist_digest(g),
                stats.nodes,
                stats.budget_exhausted,
                stats.proven_optimal,
                stats.lower_bound,
            )
        })
        .collect()
}

/// Compares the fresh lines for `w` with the golden's, or, under
/// `MRPF_BLESS_GOLDEN`, replaces the golden's lines for `w` with them.
fn check(w: u32, filters: &[usize]) {
    let fresh = render(w, filters);
    assert_eq!(fresh.len(), filters.len());
    let _file = FILE.lock().unwrap_or_else(|e| e.into_inner());
    let golden = std::fs::read_to_string(golden_path()).unwrap_or_default();
    if std::env::var_os("MRPF_BLESS_GOLDEN").is_some() {
        let mut lines: Vec<String> = golden
            .lines()
            .filter(|l| cell(l).0 != w)
            .map(String::from)
            .chain(fresh)
            .collect();
        lines.sort_by_key(|l| cell(l));
        std::fs::write(golden_path(), lines.join("\n") + "\n").expect("write golden");
        return;
    }
    let golden: Vec<&str> = golden.lines().filter(|l| cell(l).0 == w).collect();
    let changed: Vec<String> = golden
        .iter()
        .zip(&fresh)
        .filter(|(g, f)| *g != f)
        .map(|(g, f)| format!("  golden {g}\n  fresh  {f}"))
        .collect();
    assert!(
        changed.is_empty() && golden.len() == fresh.len(),
        "{} of {} W={w} cells changed ({} golden lines):\n{}",
        changed.len(),
        fresh.len(),
        golden.len(),
        changed.join("\n")
    );
}

#[test]
fn exact_rung_w16_is_unchanged() {
    check(16, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
}

#[test]
fn exact_rung_w20_is_unchanged() {
    check(20, &[1, 2, 6]);
}

/// The golden's netlists add up to the `signoff` benchmark's quality
/// totals, so a re-bless that moves a netlist is caught here too.
#[test]
fn golden_totals_match_signoff() {
    let golden = {
        let _file = FILE.lock().unwrap_or_else(|e| e.into_inner());
        std::fs::read_to_string(golden_path()).expect("golden file present")
    };
    let field = |line: &str, key: &str| -> usize {
        line.split(' ')
            .find_map(|word| word.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key} in {line:?}"))
    };
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), 15);
    let adders: usize = lines.iter().map(|l| field(l, "adders=")).sum();
    let depth: usize = lines.iter().map(|l| field(l, "depth=")).sum();
    assert_eq!((adders, depth), (408, 94));
}
