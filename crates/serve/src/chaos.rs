//! An in-tree chaos client for torturing a running `mrpf serve`.
//!
//! `mrpf chaos` drives a seeded stream of hostile connections at a live
//! server — slowloris drips, truncated bodies, malformed frames,
//! oversized heads, abrupt disconnects — interleaved with well-formed
//! `/batch` probes. The contract under test is the robustness
//! invariant of the serve layer:
//!
//! 1. no attack changes the bytes a valid request receives (every probe
//!    is compared against a baseline response captured first, modulo
//!    the per-request `X-Request-Id` header, which is unique by
//!    design), and
//! 2. the server is still healthy when the storm stops.
//!
//! Everything is deterministic per seed, so a failing soak replays
//! exactly. The client never needs more privileges than any HTTP peer:
//! it proves robustness from outside the trust boundary.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mrp_obs::{json, Histogram};
use mrp_ptest::Rng;

use crate::trace::ms;

/// How long the chaos client waits on any one socket operation. Attacks
/// abandon their connections long before this.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration for [`run_chaos`].
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Total hostile connections to open.
    pub requests: usize,
    /// Seed for the attack schedule (same seed → same storm).
    pub seed: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            addr: "127.0.0.1:7878".to_string(),
            requests: 100,
            seed: 1,
        }
    }
}

/// The attack repertoire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attack {
    /// Drip header bytes one at a time, then abandon the connection.
    Slowloris,
    /// Declare a Content-Length, send half the body, close.
    TruncatedBody,
    /// Send bytes that are not HTTP at all.
    Garbage,
    /// Connect, write a partial request line, drop immediately.
    Reset,
    /// Send more header lines than the server accepts.
    OversizedHead,
}

const ATTACKS: [Attack; 5] = [
    Attack::Slowloris,
    Attack::TruncatedBody,
    Attack::Garbage,
    Attack::Reset,
    Attack::OversizedHead,
];

impl Attack {
    fn name(self) -> &'static str {
        match self {
            Attack::Slowloris => "slowloris",
            Attack::TruncatedBody => "truncated_body",
            Attack::Garbage => "garbage",
            Attack::Reset => "reset",
            Attack::OversizedHead => "oversized_head",
        }
    }
}

/// What a chaos soak did and found.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosReport {
    /// Hostile connections per attack kind, in repertoire order.
    pub attacks: Vec<(&'static str, u64)>,
    /// Well-formed probes interleaved with the attacks.
    pub probes: u64,
    /// Probes whose response bytes differed from the baseline.
    pub mismatches: u64,
    /// Probes that failed at the transport level (connect/read error —
    /// the server refused or dropped a *valid* client).
    pub probe_errors: u64,
    /// Whether `/healthz` answered 200 after the storm.
    pub healthy: bool,
    /// End-to-end latency (ms, including 503 retries) of each
    /// successful probe — the soak doubles as a tail-latency smoke
    /// under hostile load.
    pub probe_ms: Histogram,
}

impl ChaosReport {
    /// True when the soak proved what it set out to prove.
    pub fn passed(&self) -> bool {
        self.healthy && self.mismatches == 0 && self.probe_errors == 0
    }

    /// Human-readable report mirroring [`ChaosReport::render_json`].
    pub fn render_pretty(&self) -> String {
        let total: u64 = self.attacks.iter().map(|(_, n)| n).sum();
        let mut out = format!(
            "chaos: {total} hostile connection(s), {} probe(s)\n",
            self.probes
        );
        for (name, count) in &self.attacks {
            out.push_str(&format!("  {name:<16} {count}\n"));
        }
        if self.probe_ms.count() > 0 {
            let q = self.probe_ms.quantiles();
            out.push_str(&format!(
                "probe latency ms: p50 {:.2}  p90 {:.2}  p99 {:.2}  p999 {:.2} \
                 ({} sample(s))\n",
                q.p50,
                q.p90,
                q.p99,
                q.p999,
                self.probe_ms.count()
            ));
        }
        out.push_str(&format!(
            "probe mismatches: {}  probe errors: {}  healthy after storm: {}\nverdict: {}\n",
            self.mismatches,
            self.probe_errors,
            if self.healthy { "yes" } else { "no" },
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Renders the report as JSON (the `mrpf chaos --json` output).
    pub fn render_json(&self) -> String {
        let attacks = self
            .attacks
            .iter()
            .map(|(name, count)| format!("{}:{count}", json::string(name)))
            .collect::<Vec<_>>()
            .join(",");
        let q = self.probe_ms.quantiles();
        format!(
            "{{\"chaos\":{{\"attacks\":{{{attacks}}},\"probes\":{},\"mismatches\":{},\
             \"probe_errors\":{},\"healthy\":{},\
             \"probe_latency_ms\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
             \"p999\":{}}},\"passed\":{}}}}}\n",
            self.probes,
            self.mismatches,
            self.probe_errors,
            self.healthy,
            self.probe_ms.count(),
            json::number(q.p50),
            json::number(q.p90),
            json::number(q.p99),
            json::number(q.p999),
            self.passed()
        )
    }
}

/// Runs the storm against a live server and reports what held.
///
/// # Errors
///
/// Fails only if the baseline probe cannot be captured — a server that
/// is down before the chaos starts is a test-setup error, not a
/// finding.
pub fn run_chaos(options: &ChaosOptions) -> Result<ChaosReport, String> {
    let mut rng = Rng::new(options.seed);
    // Probe `/batch`, not `/synth`: the batch report is deterministic
    // byte-for-byte (no wall-clock fields), so any probe that differs
    // from the baseline is a real finding, not timing noise.
    let probe_body = r#"{"filters": [{"name": "probe", "coeffs": [70, 66, 17, 9]}]}"#;
    let baseline = probe_with_retry(&options.addr, probe_body)
        .map(|r| comparable(&r))
        .map_err(|e| format!("baseline probe failed (is the server up?): {e}"))?;

    let mut report = ChaosReport {
        attacks: ATTACKS.iter().map(|a| (a.name(), 0u64)).collect(),
        ..ChaosReport::default()
    };
    for i in 0..options.requests {
        let attack = ATTACKS[rng.usize_in(0, ATTACKS.len())];
        // Attacks are fire-and-forget: any outcome except hanging the
        // client is acceptable from the server.
        let _ = attack_once(&options.addr, attack, &mut rng);
        if let Some(slot) = report.attacks.iter_mut().find(|(n, _)| *n == attack.name()) {
            slot.1 += 1;
        }
        // Every few attacks, verify a well-behaved client still gets
        // byte-identical service. A 503 is backpressure working as
        // designed, not a finding — honor it briefly and retry.
        if i % 5 == 4 {
            report.probes += 1;
            let probe_start = Instant::now();
            match probe_with_retry(&options.addr, probe_body) {
                Ok(response) => {
                    // Latency of the whole exchange, retries included —
                    // what a well-behaved client experienced under the
                    // storm. Failed probes are counted, not timed.
                    report.probe_ms.record(ms(probe_start.elapsed()));
                    if comparable(&response) != baseline {
                        report.mismatches += 1;
                    }
                }
                Err(_) => report.probe_errors += 1,
            }
        }
    }
    report.healthy = matches!(health(&options.addr), Ok(200));
    Ok(report)
}

/// A response with its `X-Request-Id` header dropped: the ID is unique
/// per request by design, so the byte-exactness invariant applies to
/// everything else — status line, remaining headers, body.
fn comparable(response: &str) -> String {
    response
        .split("\r\n")
        .filter(|line| !line.to_ascii_lowercase().starts_with("x-request-id:"))
        .collect::<Vec<_>>()
        .join("\r\n")
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(CLIENT_TIMEOUT)))
        .map_err(|e| format!("socket options: {e}"))?;
    Ok(stream)
}

/// A probe that treats 503 as transient backpressure: sleep out the
/// hint-scale delay and try again, a bounded number of times.
fn probe_with_retry(addr: &str, body: &str) -> Result<String, String> {
    for _ in 0..10 {
        let attempt = probe(addr, body);
        match &attempt {
            Ok(response) if response.starts_with("HTTP/1.1 503") => {
                std::thread::sleep(Duration::from_millis(50));
            }
            _ => return attempt,
        }
    }
    Err("backpressure never cleared across retries".to_string())
}

/// One well-formed `/batch` exchange; returns the raw response bytes
/// (status line through body) for byte-exact comparison.
fn probe(addr: &str, body: &str) -> Result<String, String> {
    let mut stream = connect(addr)?;
    let raw = format!(
        "POST /batch HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    if response.is_empty() {
        return Err("empty response".to_string());
    }
    Ok(response)
}

fn health(addr: &str) -> Result<u16, String> {
    let mut stream = connect(addr)?;
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: chaos\r\n\r\n")
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in {response:?}"))
}

fn attack_once(addr: &str, attack: Attack, rng: &mut Rng) -> Result<(), String> {
    let mut stream = connect(addr)?;
    match attack {
        Attack::Slowloris => {
            // Drip a prefix of a plausible head, byte by byte, then
            // vanish mid-header. Bounded: the client never commits to
            // finishing, the server's read timeout is its own problem.
            let head = "GET /healthz HTTP/1.1\r\nX-Slow: 1\r\n";
            let drip = rng.usize_in(1, head.len());
            for byte in head.as_bytes().iter().take(drip) {
                if stream.write_all(std::slice::from_ref(byte)).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Attack::TruncatedBody => {
            let body = r#"{"coeffs": [70, 66, 17, 9]}"#;
            let cut = rng.usize_in(0, body.len());
            let raw = format!(
                "POST /synth HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                &body[..cut]
            );
            let _ = stream.write_all(raw.as_bytes());
            // Half a body then FIN: the server must answer 400 or
            // close, never hang or crash.
        }
        Attack::Garbage => {
            // Bytes that are not HTTP, then FIN. No read: junk rarely
            // contains a header terminator, so the server rightly waits
            // for more input until the client goes away — waiting out
            // its read timeout here would stall the storm, not stress
            // the server.
            let len = rng.usize_in(1, 512);
            let junk: Vec<u8> = (0..len).map(|_| rng.u32_in(0, 256) as u8).collect();
            let _ = stream.write_all(&junk);
        }
        Attack::Reset => {
            let _ = stream.write_all(b"POST /ba");
            // Dropped immediately: connection torn mid-request-line.
        }
        Attack::OversizedHead => {
            let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
            for i in 0..rng.usize_in(70, 200) {
                raw.push_str(&format!("X-Flood-{i}: {}\r\n", "f".repeat(64)));
            }
            raw.push_str("\r\n");
            let _ = stream.write_all(raw.as_bytes());
            let mut sink = Vec::new();
            let _ = stream.take(4096).read_to_end(&mut sink);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape_and_pass_logic() {
        let mut report = ChaosReport {
            attacks: vec![("garbage", 3)],
            probes: 2,
            mismatches: 0,
            probe_errors: 0,
            healthy: true,
            probe_ms: Histogram::new(),
        };
        report.probe_ms.record(4.0);
        report.probe_ms.record(12.0);
        assert!(report.passed());
        let json = report.render_json();
        assert!(json.contains("\"garbage\":3"), "{json}");
        assert!(json.contains("\"passed\":true"), "{json}");
        assert!(
            json.contains("\"probe_latency_ms\":{\"count\":2,\"p50\":"),
            "{json}"
        );
        assert!(
            report.render_pretty().contains("probe latency ms: p50"),
            "{}",
            report.render_pretty()
        );
        report.mismatches = 1;
        assert!(!report.passed());
        report.mismatches = 0;
        report.healthy = false;
        assert!(!report.passed());
        let pretty = report.render_pretty();
        assert!(pretty.contains("3 hostile connection(s)"), "{pretty}");
        assert!(pretty.contains("verdict: FAIL"), "{pretty}");
        report.healthy = true;
        assert!(report.render_pretty().contains("verdict: PASS"));
    }
}
