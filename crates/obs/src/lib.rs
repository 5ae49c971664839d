//! `mrp-obs` — structured tracing and metrics for the MRPF synthesis
//! pipeline.
//!
//! The pipeline (SID graph → WMSC cover → root selection → SEED network →
//! overhead adds → lint → RTL) is a multi-stage search whose interesting
//! behavior — greedy iterations, branch-and-bound nodes, degradation
//! events — is invisible from the outside. This crate provides the
//! instrumentation layer: a process-global collector with
//!
//! * **spans** — RAII guards ([`span`] / [`span_dyn`]) recording
//!   begin/end pairs with monotonic nanosecond timestamps and
//!   parent-span attribution via a per-thread stack;
//! * **instants** — point events ([`instant`] / [`instant_dyn`]) for
//!   things that happen rather than last (a degradation, a budget
//!   exhaustion);
//! * **metrics** — named counters, gauges, and mergeable log-bucketed
//!   histograms with deterministic p50/p90/p99/p999 at bounded relative
//!   error ([`counter_add`], [`gauge_set`], [`histogram_record`],
//!   [`histogram_quantiles`]; see [`Histogram`] and
//!   [`RELATIVE_ERROR_BOUND`]);
//! * **exporters** — [`export_chrome_trace`] (loadable in
//!   `chrome://tracing` / Perfetto) and [`export_metrics_json`] (flat
//!   machine-readable JSON);
//! * **[`json`]** — the string and number writer every JSON emitter in
//!   the workspace goes through.
//!
//! # Cheap when off
//!
//! The collector is disabled by default. Every instrumentation site —
//! span creation, instant, metric update — starts with one relaxed
//! atomic load and returns immediately when disabled: no allocation, no
//! lock, no clock read. `benches/overhead.rs` measures the disabled
//! cost per site (the budget is ≤ 5 ns).
//!
//! # Bounded when serving
//!
//! [`enable`] records everything, which is right for a run that ends
//! (the event buffer is bounded by the run). A process that runs
//! indefinitely — `mrpf serve` — calls [`enable_metrics_only`] instead:
//! the bounded metrics registry stays live and exportable on demand
//! ([`export_metrics_json`]), while spans and instants stay inert so the
//! event buffer cannot grow without bound.
//!
//! # Span naming convention
//!
//! Dotted lowercase paths, crate first: `core.optimize`, `core.wmsc`,
//! `core.apsp`, `core.realize.seed`, `cse.hartley`, `exact.mcm`,
//! `lint.graph`, `gate.lint`. Dynamic instances carry their parameter in
//! brackets: `rung[mrp+cse]`. See `docs/observability.md`.
//!
//! # Examples
//!
//! ```
//! mrp_obs::enable();
//! mrp_obs::reset();
//! {
//!     let _run = mrp_obs::span("demo.run");
//!     mrp_obs::counter_add("demo.widgets", 3);
//! }
//! let trace = mrp_obs::export_chrome_trace();
//! assert!(trace.contains("\"demo.run\""));
//! let metrics = mrp_obs::export_metrics_json();
//! assert!(metrics.contains("\"demo.widgets\":3"));
//! mrp_obs::disable();
//! mrp_obs::reset();
//! ```

#![warn(missing_docs)]

mod chrome;
mod collector;
mod histogram;
pub mod json;
mod metrics;

pub use collector::{
    disable, enable, enable_metrics_only, events_enabled, is_enabled, reset, SpanGuard,
};
pub use histogram::{Histogram, Quantiles, RELATIVE_ERROR_BOUND};
pub use metrics::HistogramSummary;

use collector::{collector, Phase};

/// Opens a span with a static name. The returned guard records the end
/// event when dropped; while open, the name is the parent of any span or
/// instant recorded on the same thread. Inert (one atomic load) when the
/// collector is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !events_enabled() {
        return SpanGuard::INERT;
    }
    SpanGuard::begin(name.to_string(), Some(name))
}

/// Opens a span with a runtime-built name (e.g. `rung[mrp+cse]`).
/// Dynamic spans record parents but are not themselves pushed on the
/// parent stack (their name has no `'static` lifetime).
#[inline]
pub fn span_dyn(name: String) -> SpanGuard {
    if !events_enabled() {
        return SpanGuard::INERT;
    }
    SpanGuard::begin(name, None)
}

/// Records an instant event with a static name.
#[inline]
pub fn instant(name: &'static str) {
    if !events_enabled() {
        return;
    }
    collector().record(
        name.to_string(),
        Phase::Instant,
        collector::current_parent(),
    );
}

/// Records an instant event with a runtime-built name.
#[inline]
pub fn instant_dyn(name: String) {
    if !events_enabled() {
        return;
    }
    collector().record(name, Phase::Instant, collector::current_parent());
}

/// Adds `delta` to the named counter (created at 0 on first touch;
/// saturating).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    collector().metrics.counter_add(name, delta);
}

/// Sets the named gauge to `value` (last write wins).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    collector().metrics.gauge_set(name, value);
}

/// Records one sample into the named summary histogram.
#[inline]
pub fn histogram_record(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    collector().metrics.histogram_record(name, value);
}

/// Current value of a counter, if it exists. Reads work even while the
/// collector is disabled (recorded data is kept until [`reset`]).
pub fn counter_value(name: &str) -> Option<u64> {
    collector().metrics.counter_value(name)
}

/// Current value of a gauge, if it exists.
pub fn gauge_value(name: &str) -> Option<f64> {
    collector().metrics.gauge_value(name)
}

/// Folds a locally-accumulated [`Histogram`] into the named registry
/// histogram — the bulk path for code that records on a local histogram
/// (no global lock per sample) and publishes periodically. Merging is
/// deterministic: any partition of samples, merged in any order, yields
/// the same buckets and quantiles.
#[inline]
pub fn histogram_merge(name: &str, other: &Histogram) {
    if !is_enabled() {
        return;
    }
    collector().metrics.histogram_merge(name, other);
}

/// Summary of a histogram, if it exists.
pub fn histogram_summary(name: &str) -> Option<HistogramSummary> {
    collector().metrics.histogram_summary(name)
}

/// Deterministic p50/p90/p99/p999 of a histogram, if it exists. Each
/// estimate is within [`RELATIVE_ERROR_BOUND`] relative error of the
/// exact sorted-sample value at the same rank.
pub fn histogram_quantiles(name: &str) -> Option<Quantiles> {
    collector().metrics.histogram_quantiles(name)
}

/// Full snapshot (clone) of a named histogram, if it exists — for
/// callers that want to merge registry state into their own aggregates.
pub fn histogram_snapshot(name: &str) -> Option<Histogram> {
    collector().metrics.histogram_snapshot(name)
}

/// Exports every recorded event as a Chrome `trace_event` JSON document
/// (object form, `traceEvents` array). Loadable in `chrome://tracing`
/// and Perfetto.
pub fn export_chrome_trace() -> String {
    chrome::export(&collector().events_snapshot())
}

/// Exports all metrics as one flat JSON document:
/// `{"counters":{…},"gauges":{…},"histograms":{…}}`.
pub fn export_metrics_json() -> String {
    collector().metrics.export_json()
}

/// Number of events currently recorded (spans count twice: begin + end).
pub fn event_count() -> usize {
    collector().events_snapshot().len()
}
