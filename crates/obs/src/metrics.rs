//! Counter / gauge / histogram registry.
//!
//! Metrics are flat, named aggregates — the complement of the event
//! trace. A counter accumulates, a gauge holds the last value, and a
//! histogram is a mergeable log-bucketed [`Histogram`] keeping
//! count/min/max/sum plus deterministic p50/p90/p99/p999 at bounded
//! relative error (see `histogram.rs`). Export is a single flat JSON
//! document, designed to be trivially diffable across runs
//! (`BENCH_*.json` style).

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::histogram::{Histogram, Quantiles};
use crate::json;

/// Aggregated histogram state, as reported by
/// [`histogram_summary`](crate::histogram_summary): no samples, just the
/// running summary. Quantiles are read separately via
/// [`histogram_quantiles`](crate::histogram_quantiles) or the full
/// [`histogram_snapshot`](crate::histogram_snapshot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Sum of all recorded values.
    pub sum: f64,
}

impl HistogramSummary {
    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct MetricsInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe registry behind the global collector. `BTreeMap` keeps the
/// export deterministically ordered.
pub(crate) struct MetricsRegistry {
    inner: Mutex<MetricsInner>,
}

impl MetricsRegistry {
    pub(crate) fn new() -> Self {
        MetricsRegistry {
            inner: Mutex::new(MetricsInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn counter_add(&self, name: &str, delta: u64) {
        let mut m = self.lock();
        match m.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                m.counters.insert(name.to_string(), delta);
            }
        }
    }

    pub(crate) fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    pub(crate) fn histogram_record(&self, name: &str, value: f64) {
        let mut m = self.lock();
        match m.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                m.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Folds a locally-accumulated histogram into the named registry
    /// entry — the bulk path for code that records on its own
    /// [`Histogram`] (no registry lock per sample) and publishes
    /// periodically.
    pub(crate) fn histogram_merge(&self, name: &str, other: &Histogram) {
        let mut m = self.lock();
        match m.histograms.get_mut(name) {
            Some(h) => h.merge(other),
            None => {
                m.histograms.insert(name.to_string(), other.clone());
            }
        }
    }

    pub(crate) fn counter_value(&self, name: &str) -> Option<u64> {
        self.lock().counters.get(name).copied()
    }

    pub(crate) fn gauge_value(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    pub(crate) fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        self.lock().histograms.get(name).map(|h| HistogramSummary {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            sum: h.sum(),
        })
    }

    pub(crate) fn histogram_quantiles(&self, name: &str) -> Option<Quantiles> {
        self.lock().histograms.get(name).map(Histogram::quantiles)
    }

    pub(crate) fn histogram_snapshot(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    pub(crate) fn clear(&self) {
        let mut m = self.lock();
        m.counters.clear();
        m.gauges.clear();
        m.histograms.clear();
    }

    /// Flat machine-readable export: `{"counters":{…},"gauges":{…},
    /// "histograms":{name:{count,min,max,sum,mean,quantiles:{p50,p90,
    /// p99,p999}}}}`.
    pub(crate) fn export_json(&self) -> String {
        let m = self.lock();
        let mut out = String::from("{\"counters\":{");
        let counters: Vec<String> = m
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", json::string(k)))
            .collect();
        out.push_str(&counters.join(","));
        out.push_str("},\"gauges\":{");
        let gauges: Vec<String> = m
            .gauges
            .iter()
            .map(|(k, v)| format!("{}:{}", json::string(k), json::number(*v)))
            .collect();
        out.push_str(&gauges.join(","));
        out.push_str("},\"histograms\":{");
        let hists: Vec<String> = m
            .histograms
            .iter()
            .map(|(k, h)| {
                let q = h.quantiles();
                format!(
                    "{}:{{\"count\":{},\"min\":{},\"max\":{},\"sum\":{},\"mean\":{},\
                     \"quantiles\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}}}",
                    json::string(k),
                    h.count(),
                    json::number(h.min()),
                    json::number(h.max()),
                    json::number(h.sum()),
                    json::number(h.mean()),
                    json::number(q.p50),
                    json::number(q.p90),
                    json::number(q.p99),
                    json::number(q.p999),
                )
            })
            .collect();
        out.push_str(&hists.join(","));
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = MetricsRegistry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        assert_eq!(r.counter_value("a"), Some(5));
        r.counter_add("a", u64::MAX);
        assert_eq!(r.counter_value("a"), Some(u64::MAX));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn gauges_hold_last_value() {
        let r = MetricsRegistry::new();
        r.gauge_set("g", 1.5);
        r.gauge_set("g", -2.0);
        assert_eq!(r.gauge_value("g"), Some(-2.0));
    }

    #[test]
    fn histogram_summarizes() {
        let r = MetricsRegistry::new();
        for v in [2.0, 4.0, 6.0] {
            r.histogram_record("h", v);
        }
        let h = r.histogram_summary("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 6.0);
        assert_eq!(h.mean(), 4.0);
        let q = r.histogram_quantiles("h").unwrap();
        assert!((q.p50 - 4.0).abs() <= 4.0 / 32.0, "{q:?}");
        assert!(q.p999 <= 6.0, "{q:?}");
        assert_eq!(r.histogram_quantiles("missing"), None);
    }

    #[test]
    fn histogram_merge_matches_direct_records() {
        let r = MetricsRegistry::new();
        let mut local = Histogram::new();
        for v in [1.0, 10.0, 100.0] {
            r.histogram_record("m", v);
            local.record(v);
        }
        r.histogram_merge("m", &local);
        let h = r.histogram_summary("m").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        // Merging into an absent name clones the source.
        r.histogram_merge("fresh", &local);
        assert_eq!(r.histogram_summary("fresh").unwrap().count, 3);
        assert_eq!(r.histogram_snapshot("fresh").unwrap(), local);
    }

    #[test]
    fn export_is_valid_shaped_json() {
        let r = MetricsRegistry::new();
        r.counter_add("c\"x", 1);
        r.gauge_set("g", f64::NAN);
        r.histogram_record("h", 3.0);
        let json = r.export_json();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"c\\\"x\":1"), "{json}");
        assert!(json.contains("\"g\":null"), "{json}");
        assert!(json.contains("\"mean\":3"), "{json}");
        assert!(json.contains("\"quantiles\":{\"p50\":3"), "{json}");
    }
}
