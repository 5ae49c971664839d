//! Percentiles over samples, process memory, and the result line.

use std::collections::BTreeMap;

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it (the lower middle for an even-sized
/// median). Found by selection, not a full sort.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `0..=100`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    let mut work = samples.to_vec();
    let (_, value, _) = work.select_nth_unstable_by(rank - 1, f64::total_cmp);
    *value
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Latency figures of a closed-loop run that visits each input the same
/// number of times: each input's latency is the median of its visits, so
/// one disturbed visit does not move it; `p50`/`p90` are nearest-rank
/// percentiles over the inputs, and the throughput is operations per
/// second of the time those latencies add up to.
pub fn per_input_latency(visits: &[Vec<f64>], m: &mut Metrics) {
    let visited: Vec<&Vec<f64>> = visits.iter().filter(|v| !v.is_empty()).collect();
    if visited.is_empty() {
        return;
    }
    let typical: Vec<f64> = visited.iter().map(|v| median(v)).collect();
    let ops: usize = visited.iter().map(|v| v.len()).sum();
    let busy_ms: f64 = visited
        .iter()
        .zip(&typical)
        .map(|(v, t)| v.len() as f64 * t)
        .sum();
    m.set("throughput_per_s", ops as f64 / (busy_ms / 1e3), "1/s");
    m.set("latency_ms.p50", percentile(&typical, 50.0), "ms");
    m.set("latency_ms.p90", percentile(&typical, 90.0), "ms");
}

/// `VmHWM` (peak resident set) of a process, in MB, read from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The metrics of one run, by name, with their units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Keeps only `names` (with their units), setting any the workload did
    /// not reach to 0.
    pub fn select(&self, names: &[(&str, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for &(name, unit) in names {
            out.set(name, self.get(name).unwrap_or(0.0), unit);
        }
        out
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The brute-force definition: sort, then index the nearest rank.
    fn by_sorting(samples: &[f64], p: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = (1..=n)
            .find(|&r| r as f64 * 100.0 >= p * n as f64)
            .unwrap_or(n);
        sorted[rank - 1]
    }

    #[test]
    fn percentile_matches_brute_force_sort() {
        let mut rng = Rng::new(11, 0);
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            // Duplicates included: values drawn from a small range.
            let samples: Vec<f64> = (0..n).map(|_| rng.below(50) as f64 * 0.5).collect();
            for p in [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    percentile(&samples, p),
                    by_sorting(&samples, p),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn median_is_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn per_input_latency_takes_each_inputs_median() {
        // Input 0 has one disturbed visit; inputs are 10, 20, …, 100 ms.
        let mut visits: Vec<Vec<f64>> = (1..=10).map(|i| vec![i as f64 * 10.0; 3]).collect();
        visits[0][1] = 500.0;
        let mut m = Metrics::default();
        per_input_latency(&visits, &mut m);
        assert_eq!(m.get("latency_ms.p50"), Some(50.0));
        assert_eq!(m.get("latency_ms.p90"), Some(90.0));
        assert_eq!(m.get("throughput_per_s"), Some(30.0 / 1.65));
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("latency_ms.p50", 1.25, "ms");
        let line = m.result_line(true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"latency_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
