//! Per-request telemetry: request IDs, phase timings, latency
//! histograms, and the bounded ring of recent completed requests behind
//! `GET /statusz`.
//!
//! Every admitted (and refused) connection gets a request ID from a
//! deterministic counter, echoed back as `X-Request-Id`. Completed
//! requests leave one [`RequestRecord`] — total latency plus per-phase
//! breakdown (admission, read, pool queue wait, synthesis rung,
//! coalesce wait, response write) — which feeds three places at once:
//! the server's own [`Telemetry`] histograms (always live, even when
//! the global `mrp-obs` collector is off), the global obs registry
//! (so `/metricsz` and `--metrics` files carry the same quantiles),
//! and the recent-request ring (`/statusz`). All histograms are
//! `mrp-obs` log-bucketed [`Histogram`]s, so the quantiles reported by
//! `/statusz`, `/metricsz`, and the drain summary are identical for
//! identical samples.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

use mrp_obs::{json, Histogram, Quantiles};

/// How many completed requests `/statusz` remembers.
pub(crate) const RECENT_CAP: usize = 64;

/// A `Duration` as fractional milliseconds.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Per-phase timings of one request, in milliseconds. A phase that did
/// not apply (a GET never waits on the pool; a leader never waits on a
/// coalesce ticket) stays `0.0` and is excluded from the phase
/// histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PhaseTimings {
    /// Accept to handler start (thread spawn + scheduling).
    pub admission_ms: f64,
    /// Reading and parsing the request off the socket.
    pub read_ms: f64,
    /// Waiting for a pool worker (`/synth` only — the queue wait the
    /// deadline is already ticking through).
    pub queue_ms: f64,
    /// Synthesis compute (the rung itself; for `/batch`, the whole
    /// sharded run).
    pub synth_ms: f64,
    /// A coalescing follower waiting on its leader's bytes.
    pub coalesce_ms: f64,
    /// Writing the response back to the client.
    pub write_ms: f64,
}

/// Out-parameters for the pool-side phases of a route. The handler
/// thread cannot observe the pool queue wait or the rung compute time
/// directly — they happen inside the route's pool closure — so the
/// route reports them back through this cell after the closure returns.
/// `Cell`, not atomics: the cell lives and is read on the handler
/// thread only (the closure returns the durations by value).
#[derive(Default)]
pub(crate) struct PhaseCell {
    /// Submission to closure start on a pool worker.
    pub queue_ms: Cell<f64>,
    /// The compute itself (synthesis rung or whole batch run).
    pub synth_ms: Cell<f64>,
}

/// The phase set in stable order, paired with the obs histogram names.
const PHASES: [&str; 6] = [
    "admission_ms",
    "read_ms",
    "queue_ms",
    "synth_ms",
    "coalesce_ms",
    "write_ms",
];

impl PhaseTimings {
    fn values(&self) -> [f64; 6] {
        [
            self.admission_ms,
            self.read_ms,
            self.queue_ms,
            self.synth_ms,
            self.coalesce_ms,
            self.write_ms,
        ]
    }
}

/// One completed request, as remembered by the `/statusz` ring.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RequestRecord {
    /// The `X-Request-Id` the client saw.
    pub id: u64,
    pub method: String,
    pub path: String,
    pub status: u16,
    /// Whether the response was a coalescing follower's copy.
    pub coalesced: bool,
    /// Admission to response flushed, in milliseconds.
    pub total_ms: f64,
    pub phases: PhaseTimings,
}

impl RequestRecord {
    /// The histogram label for this request's route: known paths map to
    /// their bare name, everything else (404s, read errors) to `other`.
    fn route_label(&self) -> &'static str {
        match self.path.as_str() {
            "/synth" => "synth",
            "/batch" => "batch",
            "/healthz" => "healthz",
            "/metricsz" => "metricsz",
            "/statusz" => "statusz",
            _ => "other",
        }
    }

    fn render_json(&self) -> String {
        let p = &self.phases;
        format!(
            "{{\"id\":{},\"method\":{},\"path\":{},\"status\":{},\
             \"coalesced\":{},\"total_ms\":{},\"phases\":{{\
             \"admission_ms\":{},\"read_ms\":{},\"queue_ms\":{},\
             \"synth_ms\":{},\"coalesce_ms\":{},\"write_ms\":{}}}}}",
            self.id,
            json::string(&self.method),
            json::string(&self.path),
            self.status,
            self.coalesced,
            json::number(self.total_ms),
            json::number(p.admission_ms),
            json::number(p.read_ms),
            json::number(p.queue_ms),
            json::number(p.synth_ms),
            json::number(p.coalesce_ms),
            json::number(p.write_ms),
        )
    }
}

/// The server's always-on telemetry: one total-latency histogram,
/// per-route and per-phase histograms, and the recent-request ring.
/// Lock scope is one record or one snapshot — never held across I/O.
pub(crate) struct Telemetry {
    latency: Mutex<Histogram>,
    routes: Mutex<BTreeMap<&'static str, Histogram>>,
    phases: Mutex<BTreeMap<&'static str, Histogram>>,
    recent: Mutex<VecDeque<RequestRecord>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Telemetry {
    pub(crate) fn new() -> Telemetry {
        Telemetry {
            latency: Mutex::new(Histogram::new()),
            routes: Mutex::new(BTreeMap::new()),
            phases: Mutex::new(BTreeMap::new()),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_CAP)),
        }
    }

    /// Folds one completed request into every aggregate and mirrors the
    /// samples into the global obs registry under `serve.request_ms`,
    /// `serve.route.<name>_ms`, and `serve.phase.<name>` — identical
    /// samples through identical histograms, so `/statusz` and
    /// `/metricsz` agree.
    pub(crate) fn record(&self, record: RequestRecord) {
        lock(&self.latency).record(record.total_ms);
        mrp_obs::histogram_record("serve.request_ms", record.total_ms);
        let route = record.route_label();
        lock(&self.routes)
            .entry(route)
            .or_default()
            .record(record.total_ms);
        mrp_obs::histogram_record(&format!("serve.route.{route}_ms"), record.total_ms);
        {
            let mut phases = lock(&self.phases);
            for (name, value) in PHASES.iter().zip(record.phases.values()) {
                // 0.0 marks "phase did not apply" — recording it would
                // drown the histogram in meaningless zeros.
                if value > 0.0 {
                    phases.entry(name).or_default().record(value);
                    mrp_obs::histogram_record(&format!("serve.phase.{name}"), value);
                }
            }
        }
        let mut recent = lock(&self.recent);
        if recent.len() == RECENT_CAP {
            recent.pop_front();
        }
        recent.push_back(record);
    }

    /// p90 of total request latency, if any request has completed —
    /// the `Retry-After` signal.
    pub(crate) fn p90_ms(&self) -> Option<f64> {
        let latency = lock(&self.latency);
        (latency.count() > 0).then(|| latency.quantile(0.90))
    }

    /// `(count, quantiles)` of total request latency.
    pub(crate) fn latency_quantiles(&self) -> (u64, Quantiles) {
        let latency = lock(&self.latency);
        (latency.count(), latency.quantiles())
    }

    /// `{"count":…,"p50":…,"p90":…,"p99":…,"p999":…}` for total request
    /// latency — embedded in both `/metricsz` and `/statusz`.
    pub(crate) fn latency_json(&self) -> String {
        let (count, q) = self.latency_quantiles();
        quantile_entry(count, q)
    }

    /// The `/statusz` quantile table: total latency plus per-route and
    /// per-phase breakdowns.
    pub(crate) fn quantile_table_json(&self) -> String {
        let mut out = format!("{{\"request_ms\":{},\"routes\":{{", self.latency_json());
        let routes = lock(&self.routes);
        let entries: Vec<String> = routes
            .iter()
            .map(|(name, h)| {
                format!(
                    "{}:{}",
                    json::string(name),
                    quantile_entry(h.count(), h.quantiles())
                )
            })
            .collect();
        drop(routes);
        out.push_str(&entries.join(","));
        out.push_str("},\"phases\":{");
        let phases = lock(&self.phases);
        let entries: Vec<String> = phases
            .iter()
            .map(|(name, h)| {
                format!(
                    "{}:{}",
                    json::string(name),
                    quantile_entry(h.count(), h.quantiles())
                )
            })
            .collect();
        drop(phases);
        out.push_str(&entries.join(","));
        out.push_str("}}");
        out
    }

    /// The recent-request ring as a JSON array, oldest first.
    pub(crate) fn recent_json(&self) -> String {
        let recent = lock(&self.recent);
        let entries: Vec<String> = recent.iter().map(RequestRecord::render_json).collect();
        format!("[{}]", entries.join(","))
    }
}

/// One quantile-table entry.
fn quantile_entry(count: u64, q: Quantiles) -> String {
    format!(
        "{{\"count\":{count},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
        json::number(q.p50),
        json::number(q.p90),
        json::number(q.p99),
        json::number(q.p999)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, path: &str, total_ms: f64) -> RequestRecord {
        RequestRecord {
            id,
            method: "POST".to_string(),
            path: path.to_string(),
            status: 200,
            coalesced: false,
            total_ms,
            phases: PhaseTimings {
                read_ms: 0.1,
                synth_ms: total_ms / 2.0,
                ..PhaseTimings::default()
            },
        }
    }

    #[test]
    fn ring_is_bounded_and_oldest_falls_off() {
        let t = Telemetry::new();
        for i in 0..(RECENT_CAP as u64 + 5) {
            t.record(record(i + 1, "/synth", 1.0 + i as f64));
        }
        let json = t.recent_json();
        assert!(!json.contains("\"id\":5,"), "{json}");
        assert!(json.contains("\"id\":6,"), "{json}");
        assert!(json.contains(&format!("\"id\":{},", RECENT_CAP as u64 + 5)));
        assert_eq!(json.matches("\"id\":").count(), RECENT_CAP);
    }

    #[test]
    fn quantile_table_covers_routes_and_phases() {
        let t = Telemetry::new();
        t.record(record(1, "/synth", 4.0));
        t.record(record(2, "/batch", 8.0));
        t.record(record(3, "/nowhere", 1.0));
        let table = t.quantile_table_json();
        for needle in [
            "\"request_ms\":{\"count\":3,",
            "\"synth\":{\"count\":1,",
            "\"batch\":{\"count\":1,",
            "\"other\":{\"count\":1,",
            "\"synth_ms\":{\"count\":3,",
            "\"read_ms\":{\"count\":3,",
        ] {
            assert!(table.contains(needle), "missing {needle} in {table}");
        }
        // Zero-valued phases (did not apply) are excluded.
        assert!(!table.contains("\"queue_ms\""), "{table}");
    }

    #[test]
    fn p90_tracks_recorded_latency() {
        let t = Telemetry::new();
        assert_eq!(t.p90_ms(), None);
        for i in 1..=100 {
            t.record(record(i, "/synth", i as f64));
        }
        let p90 = t.p90_ms().unwrap();
        assert!(
            (p90 - 90.0).abs() / 90.0 <= mrp_obs::RELATIVE_ERROR_BOUND,
            "{p90}"
        );
        let (count, q) = t.latency_quantiles();
        assert_eq!(count, 100);
        assert!(q.p50 <= q.p90 && q.p90 <= q.p99 && q.p99 <= q.p999);
    }
}
