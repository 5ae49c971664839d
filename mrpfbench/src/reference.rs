//! Computations made apart from the program, which its outputs are
//! checked against: a netlist interpreter, a direct-form convolution, and
//! the bounds every multiplierless realization must respect.

use mrp_arch::{AdderGraph, Node, Term};

/// Every node's value for input `x`, walking `AdderGraph::nodes()` in
/// `i128` without calling any of the program's evaluators.
fn node_values(graph: &AdderGraph, x: i128) -> Result<Vec<i128>, String> {
    let mut values: Vec<i128> = Vec::with_capacity(graph.len());
    for (i, node) in graph.nodes().iter().enumerate() {
        let v = match node {
            Node::Input => x,
            Node::Add { lhs, rhs } => {
                let a = term_value(&values, lhs, i)?;
                let b = term_value(&values, rhs, i)?;
                a.checked_add(b)
                    .ok_or_else(|| format!("node {i} overflows i128"))?
            }
        };
        values.push(v);
    }
    Ok(values)
}

fn term_value(values: &[i128], t: &Term, at: usize) -> Result<i128, String> {
    let v = *values
        .get(t.node.index())
        .ok_or_else(|| format!("node {at} reads node {} before it exists", t.node.index()))?;
    if t.shift >= 100 {
        return Err(format!("node {at}: shift {} out of range", t.shift));
    }
    let v = v
        .checked_mul(1i128 << t.shift)
        .ok_or_else(|| format!("node {at} overflows i128"))?;
    Ok(if t.negate { -v } else { v })
}

/// Checks that `graph` multiplies its input by `coeffs`: one output per
/// coefficient, in order, each equal to `c·x` for every `x` in `xs`. An
/// output whose coefficient is 0 is a placeholder term and is skipped.
pub fn check_netlist(graph: &AdderGraph, coeffs: &[i64], xs: &[i64]) -> Result<(), String> {
    let outputs = graph.outputs();
    if outputs.len() != coeffs.len() {
        return Err(format!(
            "{} outputs for {} coefficients",
            outputs.len(),
            coeffs.len()
        ));
    }
    for &x in xs {
        let values = node_values(graph, x as i128)?;
        for (k, (o, &c)) in outputs.iter().zip(coeffs).enumerate() {
            if c == 0 {
                continue;
            }
            if o.expected != c {
                return Err(format!(
                    "output {k} claims {} for coefficient {c}",
                    o.expected
                ));
            }
            let got = term_value(&values, &o.term, graph.len())?;
            if got != c as i128 * x as i128 {
                return Err(format!("output {k} gives {got} for {c}·{x}"));
            }
        }
    }
    Ok(())
}

/// Direct-form convolution `y[n] = Σ_k c[k]·x[n−k]`, zero initial state.
pub fn convolve(coeffs: &[i64], x: &[i64]) -> Vec<i64> {
    (0..x.len())
        .map(|n| {
            let acc: i128 = coeffs
                .iter()
                .take(n + 1)
                .enumerate()
                .map(|(k, &c)| c as i128 * x[n - k] as i128)
                .sum();
            i64::try_from(acc).expect("reference convolution overflows i64")
        })
        .collect()
}

/// Folds per-tap product streams (`products[k][t] = c_k·x[t − latency]`)
/// into the filter output `y[n] = Σ_k products[k][n − k + latency]`, the
/// way the transposed-form register chain adds them, for `n < len`. Taps
/// whose coefficient is 0 carry a placeholder and are skipped.
pub fn fold_products(
    coeffs: &[i64],
    products: &[Vec<i64>],
    latency: usize,
    len: usize,
) -> Vec<i64> {
    (0..len)
        .map(|n| {
            products
                .iter()
                .zip(coeffs)
                .enumerate()
                .take(n + 1)
                .filter(|(_, (_, &c))| c != 0)
                .map(|(k, (p, _))| p.get(n - k + latency).copied().unwrap_or(0) as i128)
                .sum::<i128>() as i64
        })
        .collect()
}

/// First index where two streams differ, reported for a failure message.
pub fn compare_streams(what: &str, got: &[i64], want: &[i64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} samples, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(n) => Err(format!(
            "{what}: sample {n} is {}, expected {}",
            got[n], want[n]
        )),
    }
}

/// Distinct odd parts greater than 1 among `|c|`: each needs an adder of
/// its own, so no realization has fewer adders.
pub fn odd_part_floor(coeffs: &[i64]) -> usize {
    let mut odd: Vec<u64> = coeffs
        .iter()
        .filter(|&&c| c != 0)
        .map(|&c| {
            let m = c.unsigned_abs();
            m >> m.trailing_zeros()
        })
        .filter(|&m| m > 1)
        .collect();
    odd.sort_unstable();
    odd.dedup();
    odd.len()
}

/// Nonzero digits of `v` in canonical signed-digit form.
pub fn csd_weight(v: i64) -> u32 {
    let mut v = v as i128;
    let mut n = 0;
    while v != 0 {
        if v & 1 != 0 {
            // Digit +1 when v ≡ 1 (mod 4), −1 when v ≡ 3 (mod 4).
            v -= 2 - v.rem_euclid(4);
            n += 1;
        }
        v >>= 1;
    }
    n
}

/// Lower bound on the critical path in adder stages: a coefficient with
/// `n` CSD nonzero digits needs at least `⌈log₂ n⌉` stages.
pub fn depth_floor(coeffs: &[i64]) -> u32 {
    let n = coeffs.iter().map(|&c| csd_weight(c)).max().unwrap_or(0);
    if n <= 1 {
        0
    } else {
        32 - (n - 1).leading_zeros()
    }
}

/// Checks the adder and depth floors on an accepted netlist.
pub fn check_floors(graph: &AdderGraph, coeffs: &[i64]) -> Result<(), String> {
    let adders = graph.adder_count();
    let min_adders = odd_part_floor(coeffs);
    if adders < min_adders {
        return Err(format!(
            "{adders} adders, below the {min_adders} distinct odd parts"
        ));
    }
    let depth = graph.max_depth();
    let min_depth = depth_floor(coeffs);
    if depth < min_depth {
        return Err(format!(
            "critical path {depth}, below the CSD floor {min_depth}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 7x = 8x − x; 9x = 8x + x; 63x = 64x − x.
    fn sample() -> (AdderGraph, Vec<i64>) {
        let mut g = AdderGraph::new();
        let x = g.input();
        let seven = g.add(Term::shifted(x, 3), Term::negated(x)).unwrap();
        let nine = g.add(Term::shifted(x, 3), Term::of(x)).unwrap();
        let sixty_three = g.add(Term::shifted(seven, 3), Term::of(seven)).unwrap();
        let coeffs = vec![7, 0, -18, 63];
        g.push_output("c0", Term::of(seven), 7);
        g.push_output("c1", Term::of(x), 0);
        g.push_output("c2", Term::negated_shifted(nine, 1), -18);
        g.push_output("c3", Term::of(sixty_three), 63);
        (g, coeffs)
    }

    fn rebuilt(g: &AdderGraph, edit: impl Fn(usize, &mut Term)) -> AdderGraph {
        // Rebuild through the public API with one term edited; `add`
        // tracks values itself, so the edit changes what the node computes
        // while the outputs keep claiming the original constants.
        let mut out = AdderGraph::new();
        let mut term_no = 0;
        for node in g.nodes() {
            if let Node::Add { lhs, rhs } = node {
                let (mut l, mut r) = (*lhs, *rhs);
                edit(term_no, &mut l);
                edit(term_no + 1, &mut r);
                term_no += 2;
                out.add(l, r).unwrap();
            }
        }
        for o in g.outputs() {
            out.push_output(o.label.clone(), o.term, o.expected);
        }
        out
    }

    const XS: [i64; 5] = [-5, -1, 1, 3, 1000];

    #[test]
    fn interpreter_accepts_a_correct_netlist() {
        let (g, coeffs) = sample();
        check_netlist(&g, &coeffs, &XS).unwrap();
        check_floors(&g, &coeffs).unwrap();
    }

    #[test]
    fn interpreter_rejects_one_flipped_shift_or_sign() {
        let (g, coeffs) = sample();
        for target in 0..6 {
            let shifted = rebuilt(&g, |i, t| {
                if i == target {
                    t.shift += 1;
                }
            });
            assert!(
                check_netlist(&shifted, &coeffs, &XS).is_err(),
                "shift of term {target}"
            );
            let signed = rebuilt(&g, |i, t| {
                if i == target {
                    t.negate = !t.negate;
                }
            });
            assert!(
                check_netlist(&signed, &coeffs, &XS).is_err(),
                "sign of term {target}"
            );
        }
    }

    #[test]
    fn floors_match_hand_counts() {
        // Odd parts of 7, 18 → 9, 63: three distinct.
        assert_eq!(odd_part_floor(&[7, 0, -18, 63, 14, 1, -4]), 3);
        // 63 = 64 − 1: two CSD digits; 0b1010101 = 85: four.
        assert_eq!(csd_weight(63), 2);
        assert_eq!(csd_weight(85), 4);
        assert_eq!(csd_weight(-85), 4);
        assert_eq!(depth_floor(&[63]), 1);
        assert_eq!(depth_floor(&[85]), 2);
        assert_eq!(depth_floor(&[0b1_0101_0101]), 3);
        assert_eq!(depth_floor(&[4, 0]), 0);
    }

    #[test]
    fn folded_products_equal_the_convolution() {
        let coeffs = [3i64, -1, 0, 5];
        let x = [1i64, 2, -3, 4, 0, 7, -2];
        let want = convolve(&coeffs, &x);
        assert_eq!(want[..3], [3, 5, -11]);
        for latency in [0usize, 2] {
            let products: Vec<Vec<i64>> = coeffs
                .iter()
                .map(|&c| {
                    let mut p = vec![0i64; latency];
                    p.extend(x.iter().map(|&v| c * v));
                    p
                })
                .collect();
            assert_eq!(fold_products(&coeffs, &products, latency, x.len()), want);
        }
        assert!(compare_streams("y", &want[..2], &[3, 6]).is_err());
    }
}
