//! Concurrent rung attempts: run the fallback ladder's independent
//! rungs in parallel and keep the best that succeeds.
//!
//! The sequential driver ([`mrp_resilience::synthesize`]) walks the
//! ladder top-down, paying for each failed rung before trying the next.
//! The rungs are independent computations, so under a wall-clock
//! deadline it is strictly better to attempt them concurrently: the
//! highest-quality rung that passes its gates wins, lower speculative
//! results are discarded, and failures of higher rungs are reported as
//! degradations exactly as the sequential driver would. Budgets are the
//! existing per-stage ones — every attempt shares one [`Deadline`] and
//! the configured exact-rung node cap.

use std::time::Instant;

use mrp_resilience::{
    try_rung, Deadline, Degradation, PipelineError, Rung, RungAttempt, RungOutcome, SynthConfig,
    SynthOutcome,
};

use crate::pool::ThreadPool;

/// Synthesizes `coeffs` by racing every admissible rung of the fallback
/// ladder on `pool` and keeping the highest-quality success.
///
/// Modulo the wall-clock fields (`elapsed_ms` of the outcome and of each
/// attempt), the result is deterministic and agrees with the sequential
/// driver whenever no real deadline expires: each rung attempt is the
/// same budgeted, panic-isolated, lint- and equivalence-gated
/// computation [`mrp_resilience::synthesize`] runs.
///
/// # Errors
///
/// * [`PipelineError::BadConfig`] when `start_rung < min_rung`;
/// * [`PipelineError::LadderExhausted`] when every admissible rung
///   failed, with one [`Degradation`] per rung in ladder order.
///
/// # Examples
///
/// ```
/// use mrp_batch::{synthesize_racing, ThreadPool};
/// use mrp_resilience::{Rung, SynthConfig};
///
/// let pool = ThreadPool::new(4);
/// let out = synthesize_racing(&[70, 66, 17, 9, 27, 41, 56, 11], &SynthConfig::default(), &pool)?;
/// assert_eq!(out.rung, Rung::MrpCse);
/// assert!(!out.degraded());
/// # Ok::<(), mrp_resilience::PipelineError>(())
/// ```
pub fn synthesize_racing(
    coeffs: &[i64],
    config: &SynthConfig,
    pool: &ThreadPool,
) -> Result<SynthOutcome, PipelineError> {
    if config.start_rung < config.min_rung {
        return Err(PipelineError::BadConfig(format!(
            "start rung `{}` is below the quality floor `{}`",
            config.start_rung, config.min_rung
        )));
    }
    let _span = mrp_obs::span("batch.race");
    let deadline = Deadline::start(config.budget.deadline_ms);
    let rungs: Vec<Rung> = Rung::LADDER
        .into_iter()
        .filter(|&r| r <= config.start_rung && r >= config.min_rung)
        .collect();
    let jobs: Vec<_> = rungs
        .iter()
        .map(|&rung| {
            let coeffs = coeffs.to_vec();
            let config = config.clone();
            move || {
                let _span = mrp_obs::span_dyn(format!("race[{rung}]"));
                let start = Instant::now();
                let result = try_rung(&coeffs, rung, &config, &deadline);
                (start.elapsed().as_millis() as u64, result)
            }
        })
        .collect();
    let results = pool.run_indexed(jobs);

    // Reduce in ladder order (the submission order): the first success is
    // the highest-quality rung; failures above it degrade, results below
    // it were speculative and are dropped.
    let mut degradations: Vec<Degradation> = Vec::new();
    let mut attempts: Vec<RungAttempt> = Vec::new();
    for (&rung, slot) in rungs.iter().zip(results) {
        let (elapsed_ms, result) = slot.unwrap_or_else(|| {
            (
                0,
                Err(PipelineError::Panic {
                    stage: format!("race[{rung}]"),
                    message: "rung attempt lost by the pool".to_string(),
                }),
            )
        });
        match result {
            Ok(RungOutcome {
                graph,
                lint_warnings,
                pipeline,
                exact,
            }) => {
                attempts.push(RungAttempt {
                    rung,
                    elapsed_ms,
                    accepted: true,
                    exact,
                });
                return Ok(SynthOutcome {
                    graph,
                    rung,
                    degradations,
                    attempts,
                    lint_warnings,
                    pipeline,
                    elapsed_ms: deadline.elapsed_ms(),
                });
            }
            Err(error) => {
                attempts.push(RungAttempt {
                    rung,
                    elapsed_ms,
                    accepted: false,
                    exact: None,
                });
                mrp_obs::instant_dyn(format!("degrade[{rung}]: {}", error.kind()));
                degradations.push(Degradation { rung, error });
            }
        }
    }
    Err(PipelineError::LadderExhausted(degradations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_resilience::FaultPlan;

    const PAPER: [i64; 8] = [70, 66, 17, 9, 27, 41, 56, 11];

    fn quiet<T>(f: impl FnOnce() -> T) -> T {
        // try_rung isolates injected panics with catch_unwind; keep their
        // backtraces out of the test output.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn healthy_race_matches_sequential_rung() {
        let pool = ThreadPool::new(4);
        let cfg = SynthConfig::default();
        let raced = synthesize_racing(&PAPER, &cfg, &pool).unwrap();
        let sequential = mrp_resilience::synthesize(&PAPER, &cfg).unwrap();
        assert_eq!(raced.rung, sequential.rung);
        assert_eq!(raced.adders(), sequential.adders());
        assert!(!raced.degraded());
        assert_eq!(raced.attempts.len(), 1);
        assert!(raced.attempts[0].accepted);
    }

    #[test]
    fn injected_fault_degrades_identically() {
        let pool = ThreadPool::new(4);
        let cfg = SynthConfig {
            faults: FaultPlan::parse("panic@mrp+cse,panic@mrp").unwrap(),
            ..SynthConfig::default()
        };
        let raced = quiet(|| synthesize_racing(&PAPER, &cfg, &pool)).unwrap();
        assert_eq!(raced.rung, Rung::CseOnly);
        assert_eq!(raced.degradations.len(), 2);
        let rungs: Vec<Rung> = raced.attempts.iter().map(|a| a.rung).collect();
        assert_eq!(rungs, vec![Rung::MrpCse, Rung::Mrp, Rung::CseOnly]);
    }

    #[test]
    fn floor_and_bad_config_behave_like_sequential() {
        let pool = ThreadPool::new(2);
        let bad = SynthConfig {
            start_rung: Rung::CseOnly,
            min_rung: Rung::MrpCse,
            ..SynthConfig::default()
        };
        assert!(matches!(
            synthesize_racing(&PAPER, &bad, &pool),
            Err(PipelineError::BadConfig(_))
        ));
        let floored = SynthConfig {
            faults: FaultPlan::parse("panic@*").unwrap(),
            min_rung: Rung::Mrp,
            ..SynthConfig::default()
        };
        match quiet(|| synthesize_racing(&PAPER, &floored, &pool)) {
            Err(PipelineError::LadderExhausted(ds)) => {
                assert_eq!(ds.len(), 2, "mrp+cse and mrp, nothing lower admissible");
            }
            other => panic!("expected LadderExhausted, got {other:?}"),
        }
    }
}
