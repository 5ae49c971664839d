//! The `exact.mcm.nodes` counter must agree with the node count the
//! solver returns in [`McmOutcome::nodes_expanded`], on every return path
//! — otherwise a trace would tell a different story than the API.
//!
//! The collector is process-global, so this file is its own test binary
//! and its tests take turns through `OBS`.

use std::sync::Mutex;

use mrp_exact::{solve_mcm, McmConfig, McmOutcome, McmProblem};

static OBS: Mutex<()> = Mutex::new(());

/// Solves `coeffs` under `config` with the collector on, returning the
/// outcome and the counter it left behind.
fn solve_counted(coeffs: &[i64], config: &McmConfig) -> (McmOutcome, Option<u64>) {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let problem = McmProblem::from_coeffs(coeffs).expect("valid coefficients");
    mrp_obs::enable();
    mrp_obs::reset();
    let outcome = solve_mcm(&problem, config);
    let counted = mrp_obs::counter_value("exact.mcm.nodes");
    mrp_obs::disable();
    mrp_obs::reset();
    (outcome, counted)
}

#[test]
fn counter_matches_outcome_when_the_node_cap_is_hit() {
    let config = McmConfig {
        node_cap: 3,
        ..McmConfig::default()
    };
    let (outcome, counted) = solve_counted(&[123, 205, 319, 473, 89, 333], &config);
    assert!(
        outcome.budget_exhausted,
        "fixture was expected to exhaust a 3-node budget (expanded {})",
        outcome.nodes_expanded
    );
    assert_eq!(counted, Some(outcome.nodes_expanded as u64));
}

#[test]
fn counter_matches_outcome_when_the_search_stops_at_the_lower_bound() {
    let (outcome, counted) =
        solve_counted(&[341, 173, 219, 85, 49, 33, 129], &McmConfig::default());
    let cost = outcome.solution.as_ref().map(|s| s.cost);
    assert_eq!(cost, Some(outcome.lower_bound), "{outcome:?}");
    assert!(outcome.proven_optimal && !outcome.budget_exhausted);
    // The root and the first root candidate, whose closure completes.
    assert_eq!(outcome.nodes_expanded, 2);
    assert_eq!(counted, Some(outcome.nodes_expanded as u64));
}

#[test]
fn counter_matches_outcome_when_no_successor_fits_the_depth_limit() {
    let config = McmConfig {
        depth_limit: Some(0),
        ..McmConfig::default()
    };
    let (outcome, counted) = solve_counted(&[7, 9], &config);
    assert!(outcome.solution.is_none() && !outcome.proven_optimal);
    assert_eq!(counted, Some(outcome.nodes_expanded as u64));
}
