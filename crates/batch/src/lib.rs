//! mrp-batch: parallel batch synthesis for the MRPF pipeline.
//!
//! This crate turns the one-filter synthesis pipeline into a
//! many-filter, many-core engine without adding a single external
//! dependency:
//!
//! * [`ThreadPool`] — a std-only work-stealing thread pool with panic
//!   isolation and help-while-waiting (nested fan-out on one pool cannot
//!   deadlock).
//! * [`synthesize_racing`] — runs the resilience ladder's independent
//!   rung attempts concurrently instead of top-down sequentially, under
//!   the same per-stage budgets and gates.
//! * [`run_batch`] — synthesizes a whole spec file of filters, sharing
//!   work through a memo cache keyed on [`normalize_coeffs`] (shift- and
//!   sign-normalized coefficient vectors share one synthesis) and
//!   rendering a consolidated report whose bytes are identical for any
//!   worker count.
//! * [`run_batch_on`] / [`MemoCache`] — the same engine on a
//!   caller-owned pool and a cross-run memo cache, for long-running
//!   callers like `mrpf serve` that keep one pool and one cache alive
//!   across many requests.
//! * [`parse_specs`] / [`parse_json`] — a strict, dependency-free reader
//!   for the JSON spec-file format.
//!
//! The deterministic sharded exact MCM search itself lives in
//! `mrp-exact`; this crate supplies the batch- and job-level parallelism
//! above it, and lets its [`ThreadPool`] run the search's shard rounds.
//! Everything is instrumented through `mrp-obs`: per-worker spans
//! (`pool.worker[i]`), the `batch.cache.{hit,miss}` counters, and the
//! `batch.pool.queue_depth` gauge.

#![warn(missing_docs)]

mod cache;
mod engine;
mod json;
mod pool;
mod racing;
mod spec;

pub use cache::{normalize_coeffs, CacheStats, MemoCache, SynthCache};
pub use engine::{run_batch, run_batch_on, BatchCell, BatchOptions, BatchReport, BatchRow};
pub use json::{parse_json, JsonError, JsonValue};
pub use pool::ThreadPool;
pub use racing::synthesize_racing;
pub use spec::{parse_specs, BatchSpec};
