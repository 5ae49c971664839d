//! Request routing: five endpoints over the batch engine.
//!
//! * `GET /healthz` — liveness plus queue occupancy.
//! * `GET /metricsz` — server counters, live latency quantiles,
//!   memo-cache stats, and the full `mrp-obs` registry snapshot,
//!   exported on demand.
//! * `GET /statusz` — the last-N completed requests (ID, route, status,
//!   per-phase timings) plus the live quantile table: total latency,
//!   per-route, per-phase.
//! * `POST /synth` — one coefficient vector through the supervised
//!   driver, under the request's deadline.
//! * `POST /batch` — a whole spec document through [`run_batch_on`] on
//!   the server's pool and shared memo cache; the response bytes are
//!   identical to the offline `mrpf batch --json` report for the same
//!   specs and configuration, whatever the job count or cache state.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use mrp_batch::{
    parse_json, parse_specs, run_batch_on, BatchOptions, JsonValue, SynthCache, ThreadPool,
};
use mrp_obs::json;
use mrp_resilience::{synthesize_under, Deadline};
use mrp_store::PersistentStore;

use crate::http::{error_body, Request};
use crate::server::{ServeOptions, ServeState};
use crate::trace::{ms, PhaseCell};

/// Everything one request handler needs.
pub(crate) struct RouteContext<'a> {
    pub state: &'a ServeState,
    pub pool: &'a Arc<ThreadPool>,
    pub memo: &'a dyn SynthCache,
    /// The persistent tier, when one is configured — only consulted for
    /// its health (lookups go through `memo`, which *is* the store).
    pub store: Option<&'a PersistentStore>,
    pub options: &'a ServeOptions,
    /// Started at request admission, so queue wait counts against it.
    pub deadline: Deadline,
    /// Pool-side phase timings flow back to the handler through here.
    pub phases: &'a PhaseCell,
}

/// `(overall status, store mode)` for `/healthz` and `/metricsz`.
fn store_health(ctx: &RouteContext<'_>) -> (&'static str, &'static str) {
    match ctx.store {
        None => ("ok", "memory"),
        Some(store) if store.degraded() => ("degraded", "degraded"),
        Some(_) => ("ok", "persistent"),
    }
}

/// Routes one request to `(status, body)`.
pub(crate) fn route(request: &Request, ctx: &RouteContext<'_>) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, health_body(ctx)),
        ("GET", "/metricsz") => (200, metrics_body(ctx)),
        ("GET", "/statusz") => (200, status_body(ctx)),
        ("POST", "/synth") => synth(request, ctx),
        ("POST", "/batch") => batch(request, ctx),
        (_, "/healthz" | "/metricsz" | "/statusz" | "/synth" | "/batch") => (
            405,
            error_body(&format!(
                "method {} not allowed for {}",
                request.method, request.path
            )),
        ),
        _ => (404, error_body(&format!("no route for {}", request.path))),
    }
}

/// Liveness report. `inflight` counts admitted-but-unfinished requests
/// and therefore includes the health check itself. `status` stays `ok`
/// unless the persistent tier has been lost (`degraded`) — the server
/// still answers, which is the point of degrading.
fn health_body(ctx: &RouteContext<'_>) -> String {
    let (status, store) = store_health(ctx);
    format!(
        "{{\"status\":{},\"store\":{},\"inflight\":{},\"queue\":{},\
         \"served\":{},\"rejected\":{}}}\n",
        json::string(status),
        json::string(store),
        ctx.state.inflight.load(Ordering::SeqCst),
        ctx.state.queue,
        ctx.state.served.load(Ordering::SeqCst),
        ctx.state.rejected.load(Ordering::SeqCst),
    )
}

fn metrics_body(ctx: &RouteContext<'_>) -> String {
    let cache = ctx.memo.stats();
    let (_, store) = store_health(ctx);
    // `latency` comes from the server's own telemetry, not the global
    // obs registry, so it is live even when the collector is off — and
    // both sides see the same samples through the same histogram, so
    // `/metricsz` and `/statusz` always agree.
    format!(
        "{{\"server\":{{\"inflight\":{},\"queue\":{},\"served\":{},\"rejected\":{},\
         \"coalesced\":{},\"store\":{},\"latency_ms\":{},\
         \"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{}}}}},\"metrics\":{}}}\n",
        ctx.state.inflight.load(Ordering::SeqCst),
        ctx.state.queue,
        ctx.state.served.load(Ordering::SeqCst),
        ctx.state.rejected.load(Ordering::SeqCst),
        ctx.state.coalesced.load(Ordering::SeqCst),
        json::string(store),
        ctx.state.telemetry.latency_json(),
        cache.entries,
        cache.hits,
        cache.misses,
        mrp_obs::export_metrics_json(),
    )
}

/// The `/statusz` body: request counters, the live quantile table
/// (total, per-route, per-phase), and the recent-request ring.
fn status_body(ctx: &RouteContext<'_>) -> String {
    format!(
        "{{\"requests\":{{\"inflight\":{},\"queue\":{},\"served\":{},\"rejected\":{},\
         \"coalesced\":{},\"next_id\":{}}},\"quantiles\":{},\"recent\":{}}}\n",
        ctx.state.inflight.load(Ordering::SeqCst),
        ctx.state.queue,
        ctx.state.served.load(Ordering::SeqCst),
        ctx.state.rejected.load(Ordering::SeqCst),
        ctx.state.coalesced.load(Ordering::SeqCst),
        ctx.state.next_request_id.load(Ordering::SeqCst),
        ctx.state.telemetry.quantile_table_json(),
        ctx.state.telemetry.recent_json(),
    )
}

fn synth(request: &Request, ctx: &RouteContext<'_>) -> (u16, String) {
    let coeffs = match parse_synth_body(&request.body) {
        Ok(coeffs) => coeffs,
        Err(message) => return (422, error_body(&message)),
    };
    // Handlers run on per-connection threads; the compute goes through
    // the shared pool so synthesis concurrency stays bounded by `jobs`.
    // The closure measures its own queue wait (submission to start on a
    // worker) and rung time, and hands them back with the outcome.
    let config = ctx.options.synth.clone();
    let deadline = ctx.deadline;
    let submitted = Instant::now();
    let outcome = ctx
        .pool
        .run_indexed(vec![move || {
            let queued = submitted.elapsed();
            let compute_start = Instant::now();
            let result = synthesize_under(&coeffs, &config, deadline);
            (queued, compute_start.elapsed(), result)
        }])
        .pop()
        .flatten();
    match outcome {
        Some((queued, compute, result)) => {
            ctx.phases.queue_ms.set(ms(queued));
            ctx.phases.synth_ms.set(ms(compute));
            match result {
                Ok(outcome) => (200, format!("{}\n", outcome.render_json())),
                Err(error) => (422, error_body(&format!("synthesis failed: {error}"))),
            }
        }
        None => (500, error_body("synthesis job panicked")),
    }
}

fn batch(request: &Request, ctx: &RouteContext<'_>) -> (u16, String) {
    let specs = match parse_specs(&request.body) {
        Ok(specs) => specs,
        Err(message) => return (422, error_body(&message)),
    };
    let options = BatchOptions {
        jobs: ctx.options.jobs,
        racing: ctx.options.racing,
        synth: ctx.options.synth.clone(),
    };
    // The whole sharded run counts as the synthesis phase; per-shard
    // queue waits are internal to the pool.
    let compute_start = Instant::now();
    let report = run_batch_on(&specs, &options, ctx.pool, ctx.memo);
    ctx.phases.synth_ms.set(ms(compute_start.elapsed()));
    (200, report.render_json())
}

/// Accepts `{"coeffs":[…]}` (extra fields like `name` are ignored) or a
/// bare integer array.
fn parse_synth_body(body: &str) -> Result<Vec<i64>, String> {
    let doc = parse_json(body).map_err(|e| format!("request body is not valid JSON: {e}"))?;
    let coeffs = match &doc {
        JsonValue::Array(_) => &doc,
        JsonValue::Object(map) => map
            .get("coeffs")
            .ok_or("object body must have a `coeffs` array")?,
        _ => return Err("body must be a coefficient array or an object with `coeffs`".to_string()),
    };
    let items = coeffs.as_array().ok_or("`coeffs` must be an array")?;
    if items.is_empty() {
        return Err("`coeffs` is empty".to_string());
    }
    items
        .iter()
        .map(|c| {
            c.as_i64()
                .ok_or_else(|| "coefficients must be integers".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_body_forms() {
        assert_eq!(parse_synth_body("[7, 9]").unwrap(), vec![7, 9]);
        assert_eq!(
            parse_synth_body(r#"{"name": "a", "coeffs": [70, -66]}"#).unwrap(),
            vec![70, -66]
        );
        for (body, needle) in [
            ("{}", "`coeffs`"),
            ("[]", "empty"),
            ("[1.5]", "integers"),
            ("3", "coefficient array"),
            ("oops", "JSON"),
        ] {
            let err = parse_synth_body(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }
}
