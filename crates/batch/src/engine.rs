//! The batch engine: many filter specs in, one deterministic
//! consolidated report out.
//!
//! Specs are deduplicated through the normalized-coefficient memo cache
//! ([`normalize_coeffs`]): identical normalized vectors share one
//! synthesis. Unique keys are synthesized concurrently on the
//! work-stealing pool; per-spec rows are then assembled in input order,
//! so the report is byte-identical for any `--jobs` value — scheduling
//! decides only *when* a result is computed, never *what* it contains.

use std::collections::HashMap;
use std::sync::Arc;

use mrp_obs::json;
use mrp_resilience::{synthesize, PipelineError, SynthConfig, SynthOutcome};

use crate::cache::{normalize_coeffs, MemoCache, SynthCache};
use crate::pool::ThreadPool;
use crate::racing::synthesize_racing;
use crate::spec::BatchSpec;

/// Options of one batch run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads for the pool (clamped to at least 1).
    pub jobs: usize,
    /// Race the ladder rungs of each synthesis concurrently instead of
    /// walking them sequentially.
    pub racing: bool,
    /// Supervised-synthesis configuration shared by every job.
    pub synth: SynthConfig,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 1,
            racing: false,
            synth: SynthConfig::default(),
        }
    }
}

/// One per-spec row of the consolidated report.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Spec name.
    pub name: String,
    /// Tap count of the spec.
    pub taps: usize,
    /// Whether this spec reused a memo-cache entry created by an earlier
    /// spec in the same run.
    pub cache_hit: bool,
    /// The synthesis result for the spec's normalized coefficients.
    pub result: Result<BatchCell, String>,
}

/// The deterministic slice of a [`SynthOutcome`] reported per spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCell {
    /// Fallback-ladder rung that produced the accepted netlist.
    pub rung: String,
    /// Adders in the accepted multiplier block.
    pub adders: usize,
    /// Adder-depth critical path of the block.
    pub critical_path: u32,
    /// Rungs degraded past before acceptance.
    pub degradations: usize,
    /// Warning-severity lint findings on the accepted netlist.
    pub lint_warnings: usize,
}

impl BatchCell {
    fn from_outcome(out: &SynthOutcome) -> BatchCell {
        BatchCell {
            rung: out.rung.name().to_string(),
            adders: out.adders(),
            critical_path: out.graph.max_depth(),
            degradations: out.degradations.len(),
            lint_warnings: out.lint_warnings,
        }
    }
}

/// Result of a whole batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-spec rows, in input order.
    pub rows: Vec<BatchRow>,
    /// Distinct normalized coefficient vectors synthesized.
    pub unique: usize,
}

impl BatchReport {
    /// Specs that reused a memo-cache entry.
    pub fn cache_hits(&self) -> usize {
        self.rows.iter().filter(|r| r.cache_hit).count()
    }

    /// Specs whose synthesis failed outright.
    pub fn failed(&self) -> usize {
        self.rows.iter().filter(|r| r.result.is_err()).count()
    }

    /// Renders the consolidated report as deterministic JSON: no
    /// timestamps, no wall-clock durations, no worker counts — the bytes
    /// depend only on the specs and the synthesis configuration.
    pub fn render_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let head = format!(
                    "{{\"name\":{},\"taps\":{},\"cache\":{}",
                    json::string(&row.name),
                    row.taps,
                    json::string(if row.cache_hit { "hit" } else { "miss" })
                );
                match &row.result {
                    Ok(cell) => format!(
                        "{head},\"rung\":{},\"adders\":{},\"critical_path\":{},\
                         \"degradations\":{},\"lint_warnings\":{}}}",
                        json::string(&cell.rung),
                        cell.adders,
                        cell.critical_path,
                        cell.degradations,
                        cell.lint_warnings
                    ),
                    Err(message) => format!("{head},\"error\":{}}}", json::string(message)),
                }
            })
            .collect();
        format!(
            "{{\"batch\":{{\"specs\":{},\"unique\":{},\"cache_hits\":{},\"failed\":{}}},\
             \"results\":[{}]}}\n",
            self.rows.len(),
            self.unique,
            self.cache_hits(),
            self.failed(),
            rows.join(",")
        )
    }

    /// Human-readable table mirroring [`BatchReport::render_json`].
    pub fn render_pretty(&self) -> String {
        let mut out = format!(
            "batch: {} spec(s), {} unique, {} cache hit(s), {} failed\n",
            self.rows.len(),
            self.unique,
            self.cache_hits(),
            self.failed()
        );
        out.push_str("name                 taps  cache  rung     adders  depth\n");
        for row in &self.rows {
            match &row.result {
                Ok(cell) => out.push_str(&format!(
                    "{:<20} {:>4}  {:<5}  {:<7} {:>6}  {:>5}{}\n",
                    row.name,
                    row.taps,
                    if row.cache_hit { "hit" } else { "miss" },
                    cell.rung,
                    cell.adders,
                    cell.critical_path,
                    if cell.degradations > 0 {
                        format!("  (degraded x{})", cell.degradations)
                    } else {
                        String::new()
                    }
                )),
                Err(message) => out.push_str(&format!(
                    "{:<20} {:>4}  {:<5}  FAILED: {message}\n",
                    row.name,
                    row.taps,
                    if row.cache_hit { "hit" } else { "miss" },
                )),
            }
        }
        out
    }
}

/// Synthesizes every spec, sharing work through the memo cache and the
/// pool. See the module docs for the determinism contract.
///
/// # Examples
///
/// ```
/// use mrp_batch::{run_batch, BatchOptions, BatchSpec};
///
/// let specs = vec![
///     BatchSpec { name: "a".into(), coeffs: vec![70, 66, 17, 9] },
///     BatchSpec { name: "a-doubled".into(), coeffs: vec![140, 132, 34, 18] },
/// ];
/// let report = run_batch(&specs, &BatchOptions { jobs: 2, ..BatchOptions::default() });
/// assert_eq!(report.unique, 1);
/// assert_eq!(report.cache_hits(), 1);
/// ```
pub fn run_batch(specs: &[BatchSpec], options: &BatchOptions) -> BatchReport {
    let pool = Arc::new(ThreadPool::new(options.jobs));
    run_batch_on(specs, options, &pool, &MemoCache::new())
}

/// [`run_batch`] on a caller-owned pool and cache tier.
///
/// This is the entry point for long-running callers (`mrpf serve`): the
/// pool is shared across requests instead of being rebuilt per run, and
/// the [`SynthCache`] short-circuits synthesis of normalized coefficient
/// vectors seen by *any* earlier run on the same cache — whether that
/// cache is the in-memory [`MemoCache`] or `mrp-store`'s persistent
/// tier. The report is unaffected by either sharing: its `cache` column
/// records within-run deduplication only, and a cache hit returns the
/// same deterministic [`BatchCell`] a fresh synthesis would produce — so
/// the rendered bytes stay identical to a cold offline `run_batch` of
/// the same specs under the same configuration.
pub fn run_batch_on(
    specs: &[BatchSpec],
    options: &BatchOptions,
    pool: &Arc<ThreadPool>,
    memo: &dyn SynthCache,
) -> BatchReport {
    let _span = mrp_obs::span("batch.run");

    // Within-run dedup: first spec with a given normalized vector owns
    // the synthesis; later ones are hits.
    let mut key_of_spec: Vec<usize> = Vec::with_capacity(specs.len());
    let mut first_seen: HashMap<Vec<i64>, usize> = HashMap::new();
    let mut unique: Vec<Vec<i64>> = Vec::new();
    for spec in specs {
        let key = normalize_coeffs(&spec.coeffs);
        let next = unique.len();
        let idx = *first_seen.entry(key).or_insert(next);
        if idx == next {
            unique.push(normalize_coeffs(&spec.coeffs));
            mrp_obs::counter_add("batch.cache.miss", 1);
        } else {
            mrp_obs::counter_add("batch.cache.hit", 1);
        }
        key_of_spec.push(idx);
    }

    // Cross-run memo: cached keys skip the pool entirely.
    let mut cells: Vec<Option<Result<BatchCell, String>>> =
        unique.iter().map(|key| memo.lookup(key)).collect();

    let pending: Vec<usize> = (0..unique.len()).filter(|&i| cells[i].is_none()).collect();
    let jobs: Vec<_> = pending
        .iter()
        .map(|&i| {
            let coeffs = unique[i].clone();
            let config = options.synth.clone();
            let racing = options.racing;
            let pool = Arc::clone(pool);
            move || {
                let _span = mrp_obs::span_dyn(format!("batch.synth[{i}]"));
                if racing {
                    synthesize_racing(&coeffs, &config, &pool)
                } else {
                    synthesize(&coeffs, &config)
                }
            }
        })
        .collect();
    let outcomes = pool.run_indexed(jobs);
    for (&i, slot) in pending.iter().zip(outcomes) {
        let cell = match slot {
            Some(Ok(outcome)) => Ok(BatchCell::from_outcome(&outcome)),
            Some(Err(error)) => Err(render_error(&error)),
            None => Err("synthesis job panicked".to_string()),
        };
        memo.store(unique[i].clone(), cell.clone());
        cells[i] = Some(cell);
    }
    let cells: Vec<Result<BatchCell, String>> = cells.into_iter().map(Option::unwrap).collect();

    let rows = specs
        .iter()
        .zip(&key_of_spec)
        .enumerate()
        .map(|(spec_idx, (spec, &key))| BatchRow {
            name: spec.name.clone(),
            taps: spec.coeffs.len(),
            cache_hit: specs[..spec_idx]
                .iter()
                .zip(&key_of_spec)
                .any(|(_, &earlier)| earlier == key),
            result: cells[key].clone(),
        })
        .collect();
    BatchReport {
        rows,
        unique: unique.len(),
    }
}

/// One-line deterministic rendering of a pipeline error (the
/// `LadderExhausted` payload is summarized by kind so wall-clock text
/// never leaks into the report).
fn render_error(error: &PipelineError) -> String {
    match error {
        PipelineError::LadderExhausted(ds) => {
            let kinds: Vec<String> = ds
                .iter()
                .map(|d| format!("{}:{}", d.rung, d.error.kind()))
                .collect();
            format!("ladder exhausted ({})", kinds.join(", "))
        }
        other => format!("{}: {}", other.kind(), other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, coeffs: &[i64]) -> BatchSpec {
        BatchSpec {
            name: name.to_string(),
            coeffs: coeffs.to_vec(),
        }
    }

    fn example_specs() -> Vec<BatchSpec> {
        vec![
            spec("paper", &[70, 66, 17, 9, 27, 41, 56, 11]),
            spec("paper-doubled", &[140, 132, 34, 18, 54, 82, 112, 22]),
            spec("small", &[23, 45, 77]),
            spec("paper-negated", &[-70, -66, -17, -9, -27, -41, -56, -11]),
        ]
    }

    #[test]
    fn cache_shares_normalized_vectors() {
        let report = run_batch(&example_specs(), &BatchOptions::default());
        assert_eq!(report.unique, 2);
        assert_eq!(report.cache_hits(), 2);
        assert_eq!(report.failed(), 0);
        assert!(!report.rows[0].cache_hit);
        assert!(report.rows[1].cache_hit);
        assert!(!report.rows[2].cache_hit);
        assert!(report.rows[3].cache_hit);
        // Shared entries report identical synthesis results.
        assert_eq!(
            report.rows[0].result.as_ref().unwrap(),
            report.rows[1].result.as_ref().unwrap()
        );
    }

    #[test]
    fn report_bytes_identical_for_any_job_count() {
        let specs = example_specs();
        let base = run_batch(
            &specs,
            &BatchOptions {
                jobs: 1,
                ..BatchOptions::default()
            },
        )
        .render_json();
        for jobs in [2, 4, 8] {
            let other = run_batch(
                &specs,
                &BatchOptions {
                    jobs,
                    ..BatchOptions::default()
                },
            )
            .render_json();
            assert_eq!(base, other, "jobs={jobs} changed the report bytes");
        }
    }

    #[test]
    fn racing_report_matches_sequential_report() {
        let specs = example_specs();
        let sequential = run_batch(&specs, &BatchOptions::default()).render_json();
        let raced = run_batch(
            &specs,
            &BatchOptions {
                jobs: 4,
                racing: true,
                ..BatchOptions::default()
            },
        )
        .render_json();
        assert_eq!(sequential, raced);
    }

    #[test]
    fn shared_memo_cache_preserves_report_bytes_across_runs() {
        let specs = example_specs();
        let pool = Arc::new(ThreadPool::new(2));
        let memo = MemoCache::new();
        let options = BatchOptions::default();
        let cold = run_batch_on(&specs, &options, &pool, &memo).render_json();
        let entries = memo.len();
        assert!(entries > 0);
        let misses_after_cold = memo.misses();
        // A warm run resolves every unique key from the cache...
        let warm = run_batch_on(&specs, &options, &pool, &memo).render_json();
        assert_eq!(memo.misses(), misses_after_cold, "warm run re-synthesized");
        assert_eq!(memo.len(), entries);
        assert!(memo.hits() >= entries as u64);
        // ...and the bytes — including the within-run `cache` column —
        // are identical to the cold run and to a fresh offline run.
        assert_eq!(cold, warm);
        assert_eq!(
            cold,
            run_batch(&specs, &BatchOptions::default()).render_json()
        );
    }

    #[test]
    fn out_of_range_spec_fails_cleanly() {
        let specs = vec![spec("ok", &[7, 9]), spec("bad", &[i64::MAX])];
        let report = run_batch(&specs, &BatchOptions::default());
        assert_eq!(report.failed(), 1);
        assert!(report.rows[0].result.is_ok());
        let err = report.rows[1].result.as_ref().unwrap_err();
        assert!(err.contains("ladder exhausted"), "{err}");
        let json = report.render_json();
        assert!(json.contains("\"error\":\""), "{json}");
    }
}
