//! `serve-zipf`: `mrpf serve` as a child process on a fresh store, driven
//! open loop at a fixed rate from at most two connections with POST
//! /batch and POST /synth requests drawn Zipf from a seeded catalogue.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrp_batch::{
    parse_json, run_batch_on, BatchOptions, BatchSpec, JsonValue, MemoCache, ThreadPool,
};
use mrp_resilience::{synthesize, SynthConfig};

use crate::calib::Calibration;
use crate::inputs::{serve_catalogue, Entry, SERVE_FIXED};
use crate::rng::Rng;
use crate::stats::{peak_rss_mb, percentile, Metrics};
use crate::trace::Recorder;
use crate::{timed_setup, Run, Tally};

/// Offered load, requests per second: a fraction of what two connections
/// sustain on a two-core host, so the server keeps up with headroom. At
/// 60/s a busy host left up to a quarter of the requests waiting for a
/// free connection, and the percentiles moved with it.
const RATE_PER_S: f64 = 40.0;
/// Catalogue entries; large enough that `/batch` keeps missing.
const CATALOGUE: usize = 4000;
/// Zipf exponent over catalogue ranks: about 13 % of the requests then
/// miss. The 90th percentile falls in the lower part of the misses'
/// latencies, which a busy host moves much less than their upper part.
const ZIPF_S: f64 = 1.4;
/// Ranks the warm-up caches, hottest first.
const HOT: usize = 192;
/// Share of requests that are `/synth` of a hot entry.
const SYNTH_SHARE: f64 = 0.05;
/// Most specs in one `/batch` request.
const MAX_BATCH: usize = 3;
/// Length of the schedule's segments, seconds: the host speed is sampled
/// between two, so samples spread over the whole timed phase.
const SEGMENT_S: f64 = 2.0;
/// Connections (and generator threads) at most in flight.
pub const CONNECTIONS: usize = 2;
/// Server worker threads.
const JOBS: usize = 2;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Synth,
    Batch,
}

impl Route {
    fn path(self) -> &'static str {
        match self {
            Route::Synth => "/synth",
            Route::Batch => "/batch",
        }
    }
}

/// One request of the schedule: when it is due, where it goes, and which
/// catalogue ranks it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub due_s: f64,
    pub route: Route,
    pub ranks: Vec<usize>,
}

/// Draws catalogue ranks with probability ∝ 1/(rank+1)^s.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn rank_at(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `n` draws that follow the law as closely as `n` draws can: the j-th
    /// at a uniformly drawn point of the j-th of `n` equal slices of the
    /// distribution, then shuffled. How many draws fall on each rank, and
    /// so how many reach past the warmed ranks, varies by at most one
    /// between seeds, where independent draws would vary by their square
    /// root.
    fn stratified(&self, n: usize, rng: &mut Rng) -> Vec<usize> {
        let mut ranks: Vec<usize> = (0..n)
            .map(|j| self.rank_at((j as f64 + rng.f64()) / n as f64))
            .collect();
        rng.shuffle(&mut ranks);
        ranks
    }
}

/// The seeded arrival schedule: `seconds × RATE_PER_S` requests, the i-th
/// due at a uniformly drawn point of the i-th `1 / RATE_PER_S` slot — the
/// rate is exact, while arrivals do not keep one phase against any
/// periodic activity in the server. Every run has the same make-up, in a
/// seeded order: [`SYNTH_SHARE`] of the requests are a `/synth` of a hot
/// rank, the rest a `/batch` of 1, 2 or 3 ranks in equal numbers, and
/// the ranks are stratified Zipf draws ([`Zipf::stratified`]). The 90th
/// percentile falls among the misses and the `/synth` requests, so a few
/// more or fewer of them in one run would move it more than the program
/// does.
pub fn schedule(seed: u64, seconds: f64, catalogue: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 5);
    let n = (seconds * RATE_PER_S).round().max(1.0) as usize;
    let synths = (n as f64 * SYNTH_SHARE).round() as usize;
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| if i < synths { 0 } else { 1 + i % MAX_BATCH })
        .collect();
    rng.shuffle(&mut sizes);
    let specs = sizes.iter().sum();
    let mut hot = Zipf::new(HOT.min(catalogue), ZIPF_S)
        .stratified(synths, &mut rng)
        .into_iter();
    let mut all = Zipf::new(catalogue, ZIPF_S)
        .stratified(specs, &mut rng)
        .into_iter();
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, size)| {
            let due_s = (i as f64 + rng.f64()) / RATE_PER_S;
            let (route, ranks) = match size {
                0 => (Route::Synth, hot.next().into_iter().collect()),
                k => (Route::Batch, all.by_ref().take(k).collect()),
            };
            Planned {
                due_s,
                route,
                ranks,
            }
        })
        .collect()
}

/// One request as the generator saw it.
#[derive(Debug)]
pub struct Sent<R> {
    pub index: usize,
    /// How late the generator sent it, after its due time.
    pub lateness_ms: f64,
    /// From due time to the end of the response.
    pub latency_ms: f64,
    pub out: R,
}

/// Sends request `i` when `due_s[i]` seconds have passed, from
/// [`CONNECTIONS`] threads that each send one request at a time — so no
/// more than that are ever in flight — and times each from its due time.
pub fn open_loop<R: Send>(due_s: &[f64], send: impl Fn(usize) -> R + Sync) -> Vec<Sent<R>> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let worker = || {
        let mut sent = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(&due) = due_s.get(i) else {
                return sent;
            };
            let due = Duration::from_secs_f64(due);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let lateness = start.elapsed().saturating_sub(due);
            let out = send(i);
            let latency = start.elapsed().saturating_sub(due);
            sent.push(Sent {
                index: i,
                lateness_ms: lateness.as_secs_f64() * 1e3,
                latency_ms: latency.as_secs_f64() * 1e3,
                out,
            });
        }
    };
    let mut all = std::thread::scope(|s| {
        let others: Vec<_> = (1..CONNECTIONS).map(|_| s.spawn(worker)).collect();
        let mut all = worker();
        for h in others {
            all.extend(h.join().expect("generator thread panicked"));
        }
        all
    });
    all.sort_by_key(|s| s.index);
    all
}

/// A response, with the client-side connect time.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub request_id: Option<String>,
    pub body: String,
    pub connect_ms: f64,
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes every
/// connection after its response).
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let t = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let connect_ms = t.elapsed().as_secs_f64() * 1e3;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let raw = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("response without a header end")?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let request_id = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("x-request-id"))
        .map(|(_, v)| v.trim().to_string());
    Ok(Response {
        status,
        request_id,
        body: body.to_string(),
        connect_ms,
    })
}

fn coeff_list(coeffs: &[i64]) -> String {
    coeffs
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn body_of(plan: &Planned, catalogue: &[Entry]) -> String {
    match plan.route {
        Route::Synth => format!(
            "{{\"coeffs\":[{}]}}",
            coeff_list(&catalogue[plan.ranks[0]].coeffs)
        ),
        Route::Batch => {
            let specs: Vec<String> = plan
                .ranks
                .iter()
                .map(|&r| {
                    let e = &catalogue[r];
                    format!(
                        "{{\"name\":\"{}\",\"coeffs\":[{}]}}",
                        e.name,
                        coeff_list(&e.coeffs)
                    )
                })
                .collect();
            format!("{{\"filters\":[{}]}}", specs.join(","))
        }
    }
}

/// A running `mrpf serve` child.
struct Server {
    child: Child,
    addr: SocketAddr,
    store: PathBuf,
    // Held so the server's later log lines never meet a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(store: &Path) -> Result<Server, String> {
        let bin = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("mrpf");
        let _ = std::fs::remove_dir_all(store);
        std::fs::create_dir_all(store).map_err(|e| format!("{}: {e}", store.display()))?;
        let mut child = Command::new(&bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                &JOBS.to_string(),
                "--store",
            ])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stdout.read_line(&mut line).unwrap_or(0);
            if read == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("mrpf serve exited before listening".to_string());
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("");
                break addr
                    .parse()
                    .map_err(|_| format!("unreadable address in `{line}`"))?;
            }
        };
        Ok(Server {
            child,
            addr,
            store: store.to_path_buf(),
            _stdout: stdout,
        })
    }

    fn get(&self, path: &str) -> Result<JsonValue, String> {
        let r = http(self.addr, "GET", path, "")?;
        if r.status != 200 {
            return Err(format!("GET {path}: status {}", r.status));
        }
        parse_json(&r.body).map_err(|e| format!("GET {path}: {e}"))
    }

    /// Kills the server, waits for it, and returns the store's size in bytes.
    fn stop(mut self) -> u64 {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::fs::read_dir(&self.store)
            .map(|dir| {
                dir.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn num(v: Option<&JsonValue>) -> Option<f64> {
    match v {
        Some(JsonValue::Number(n)) => Some(*n),
        _ => None,
    }
}

fn path<'a>(v: &'a JsonValue, keys: &[&str]) -> Option<&'a JsonValue> {
    keys.iter().try_fold(v, |v, k| v.as_object()?.get(*k))
}

/// The warm-up: every hot rank once, three per `/batch`, as fast as two
/// connections go. Returns the plan and its responses.
fn warm_up(server: &Server, catalogue: &[Entry]) -> (Vec<Planned>, Vec<Result<Response, String>>) {
    let plan: Vec<Planned> = (0..HOT.min(catalogue.len()))
        .collect::<Vec<_>>()
        .chunks(MAX_BATCH)
        .map(|ranks| Planned {
            due_s: 0.0,
            route: Route::Batch,
            ranks: ranks.to_vec(),
        })
        .collect();
    let due: Vec<f64> = plan.iter().map(|p| p.due_s).collect();
    let sent = open_loop(&due, |i| {
        http(server.addr, "POST", "/batch", &body_of(&plan[i], catalogue))
    });
    (plan, sent.into_iter().map(|s| s.out).collect())
}

pub fn run(
    run: &Run,
    rec: &mut Recorder,
    cal: &mut Calibration,
    m: &mut Metrics,
) -> Result<Tally, String> {
    let root = PathBuf::from(crate::RUN_DIR).join(format!("serve-{}", std::process::id()));
    let mut setups = 0;
    let (catalogue, server, warm_plan, warm_responses) = timed_setup(rec, cal, m, 3, |rec| {
        setups += 1;
        let catalogue = serve_catalogue(rec, run.seed, CATALOGUE)?;
        let server = Server::start(&root.join(format!("store{setups}")))?;
        let (plan, responses) = warm_up(&server, &catalogue);
        Ok((catalogue, server, plan, responses))
    })?;
    let plan = schedule(run.seed, run.seconds, catalogue.len());
    let bodies: Vec<String> = plan.iter().map(|p| body_of(p, &catalogue)).collect();

    let before = server.get("/metricsz")?;
    // The schedule runs in segments of SEGMENT_S seconds. Between two, with
    // no request in flight or due, the host speed is sampled, and every
    // request is scaled by the median of all those samples: a segment's
    // own few samples followed its requests' latencies too loosely to
    // scale them (in one probe, slower segments even sampled faster).
    let mut sent = Vec::with_capacity(plan.len());
    let mut elapsed = 0.0;
    cal.burst();
    let timed_from = cal.now();
    let mut first = 0;
    while first < plan.len() {
        let offset = (plan[first].due_s / SEGMENT_S).floor() * SEGMENT_S;
        let end = first + plan[first..].partition_point(|p| p.due_s < offset + SEGMENT_S);
        let due: Vec<f64> = plan[first..end].iter().map(|p| p.due_s - offset).collect();
        let start = Instant::now();
        let part = open_loop(&due, |i| {
            let i = first + i;
            http(server.addr, "POST", plan[i].route.path(), &bodies[i])
        });
        elapsed += start.elapsed().as_secs_f64();
        cal.burst();
        sent.extend(part.into_iter().map(|s| Sent {
            index: first + s.index,
            ..s
        }));
        first = end;
    }
    let timed_to = cal.now();
    let scale = cal.scale_between(timed_from, timed_to);
    let after = server.get("/metricsz")?;
    let status = server.get("/statusz")?;
    let server_rss = peak_rss_mb(&server.child.id().to_string()).unwrap_or(0.0);
    let store_bytes = server.stop();
    let _ = std::fs::remove_dir_all(&root);

    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut by_route: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut connects = Vec::new();
    let lateness: Vec<f64> = sent.iter().map(|s| s.lateness_ms).collect();
    for s in &sent {
        let p = &plan[s.index];
        tally.attempted += 1;
        let label = format!("request {} ({})", s.index, p.route.path());
        match &s.out {
            Err(e) => tally.fail(&label, e),
            Ok(r) if r.status != 200 => {
                tally.fail(&label, &format!("status {}: {}", r.status, r.body.trim()))
            }
            Ok(r) => {
                latencies.push(s.latency_ms * scale);
                connects.push(r.connect_ms * scale);
                by_route
                    .entry(p.route.path())
                    .or_default()
                    .push(s.latency_ms * scale);
            }
        }
    }

    // The load generator's own peak, before the references below add the
    // benchmark's synthesis work to this process.
    m.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");

    // Offline references, computed in this process after the timed phase.
    let pool = Arc::new(ThreadPool::new(1));
    let memo = MemoCache::new();
    let options = BatchOptions {
        jobs: 1,
        racing: false,
        synth: SynthConfig::default(),
    };
    let specs = |ranks: &[usize]| -> Vec<BatchSpec> {
        ranks
            .iter()
            .map(|&r| BatchSpec {
                name: catalogue[r].name.clone(),
                coeffs: catalogue[r].coeffs.clone(),
            })
            .collect()
    };
    let mut used: Vec<usize> = plan
        .iter()
        .chain(&warm_plan)
        .flat_map(|p| p.ranks.clone())
        .collect();
    used.sort_unstable();
    used.dedup();
    // One batch over every spec in play fills the memo; each request's expected bytes then come from the same engine call a
    // cold offline `run_batch` makes (its output does not depend on what
    // the memo already holds).
    let _ = run_batch_on(&specs(&used), &options, &pool, &memo);
    let expected_batch =
        |ranks: &[usize]| run_batch_on(&specs(ranks), &options, &pool, &memo).render_json();
    let mut offline_synth: HashMap<usize, Result<(String, usize), String>> = HashMap::new();
    let mut check = |p: &Planned, r: &Response| -> Result<(), String> {
        if r.request_id.as_deref().is_none_or(str::is_empty) {
            return Err("response without X-Request-Id".to_string());
        }
        match p.route {
            Route::Batch => {
                if r.body != expected_batch(&p.ranks) {
                    return Err(format!(
                        "/batch body differs from offline run_batch: {}",
                        r.body.trim()
                    ));
                }
            }
            Route::Synth => {
                let rank = p.ranks[0];
                let want = offline_synth
                    .entry(rank)
                    .or_insert_with(|| {
                        synthesize(&catalogue[rank].coeffs, &SynthConfig::default())
                            .map(|o| (o.rung.name().to_string(), o.adders()))
                            .map_err(|e| e.to_string())
                    })
                    .clone()?;
                let doc = parse_json(&r.body).map_err(|e| format!("/synth body: {e}"))?;
                let rung = path(&doc, &["rung"])
                    .and_then(JsonValue::as_str)
                    .unwrap_or("");
                let adders = num(path(&doc, &["adders"])).unwrap_or(-1.0);
                if rung != want.0 || adders != want.1 as f64 {
                    return Err(format!(
                        "/synth gave {rung}/{adders}, offline {}/{}",
                        want.0, want.1
                    ));
                }
            }
        }
        Ok(())
    };
    for s in &sent {
        if let Ok(r) = &s.out {
            if r.status == 200 {
                if let Err(why) = check(&plan[s.index], r) {
                    tally.mismatch(&format!("request {}", s.index), &why);
                }
            }
        }
    }
    // The warm-up's answers carry the fixed entries' netlist sizes.
    let (mut adders, mut depth, mut fixed_seen) = (0.0, 0.0, 0);
    for (p, r) in warm_plan.iter().zip(&warm_responses) {
        let r = r.as_ref().map_err(|e| format!("warm-up: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up: status {}", r.status));
        }
        check(p, r).map_err(|why| format!("warm-up: {why}"))?;
        let doc = parse_json(&r.body).map_err(|e| format!("warm-up body: {e}"))?;
        let rows = path(&doc, &["results"])
            .and_then(JsonValue::as_array)
            .unwrap_or(&[]);
        for (&rank, row) in p.ranks.iter().zip(rows) {
            if catalogue[rank].fixed {
                adders += num(path(row, &["adders"])).unwrap_or(0.0);
                depth += num(path(row, &["critical_path"])).unwrap_or(0.0);
                fixed_seen += 1;
            }
        }
    }
    if fixed_seen != SERVE_FIXED {
        return Err(format!(
            "warm-up answered {fixed_seen} of {SERVE_FIXED} fixed entries"
        ));
    }

    m.set("throughput_per_s", latencies.len() as f64 / elapsed, "1/s");
    if !latencies.is_empty() {
        m.set("latency_ms.p50", percentile(&latencies, 50.0), "ms");
        m.set("latency_ms.p90", percentile(&latencies, 90.0), "ms");
    }
    m.set("adders_total", adders, "count");
    m.set("depth_total", depth, "count");

    let q = |keys: &[&str]| num(path(&status, keys)).unwrap_or(0.0);
    if !latencies.is_empty() {
        let client_p50 = percentile(&latencies, 50.0);
        let server_p50 = q(&["quantiles", "request_ms", "p50"]) * scale;
        m.set("serve.outside_ms.p50", client_p50 - server_p50, "ms");
        m.set("serve.connect_ms.p50", percentile(&connects, 50.0), "ms");
    }
    for phase in ["read", "queue", "synth", "write"] {
        let v = q(&["quantiles", "phases", &format!("{phase}_ms"), "p50"]);
        m.set(&format!("serve.phase.{phase}_ms.p50"), v * scale, "ms");
    }
    for (route, name) in [("/synth", "synth"), ("/batch", "batch")] {
        if let Some(l) = by_route.get(route) {
            m.set(
                &format!("serve.route.{name}_ms.p50"),
                percentile(l, 50.0),
                "ms",
            );
        }
    }
    let delta = |keys: &[&str]| {
        num(path(&after, keys)).unwrap_or(0.0) - num(path(&before, keys)).unwrap_or(0.0)
    };
    m.set("serve.coalesced", delta(&["server", "coalesced"]), "count");
    m.set("serve.peak_rss_mb", server_rss, "MB");
    let hits = delta(&["server", "cache", "hits"]);
    let misses = delta(&["server", "cache", "misses"]);
    m.set("batch.cache_hits", hits, "count");
    m.set("batch.cache_misses", misses, "count");
    m.set("batch.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    m.set("store.log_kb", store_bytes as f64 / 1024.0, "KB");
    m.set("bench.lateness_ms.p90", percentile(&lateness, 90.0), "ms");
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_schedules() {
        let a = schedule(3, 5.0, 500);
        assert_eq!(a, schedule(3, 5.0, 500));
        assert_ne!(a, schedule(4, 5.0, 500));
        assert_eq!(a.len(), (5.0 * RATE_PER_S) as usize);
        assert!(a.iter().any(|p| p.route == Route::Synth));
        assert!(a.iter().all(|p| (1..=MAX_BATCH).contains(&p.ranks.len())));
        for (i, p) in a.iter().enumerate() {
            let slot = i as f64 / RATE_PER_S;
            assert!(p.due_s >= slot && p.due_s < slot + 1.0 / RATE_PER_S);
        }
        assert!(a
            .iter()
            .filter(|p| p.route == Route::Synth)
            .all(|p| p.ranks[0] < HOT));
    }

    #[test]
    fn every_seed_has_the_same_make_up() {
        let make_up = |seed| {
            let plan = schedule(seed, 20.0, CATALOGUE);
            let synths = plan.iter().filter(|p| p.route == Route::Synth).count();
            let sizes: Vec<usize> = (1..=MAX_BATCH)
                .map(|k| {
                    plan.iter()
                        .filter(|p| p.route == Route::Batch && p.ranks.len() == k)
                        .count()
                })
                .collect();
            let past_hot = plan
                .iter()
                .filter(|p| p.route == Route::Batch)
                .flat_map(|p| &p.ranks)
                .filter(|&&r| r >= HOT)
                .count();
            (plan.len(), synths, sizes, past_hot)
        };
        let (n, synths, sizes, past_hot) = make_up(1);
        assert_eq!(synths, (n as f64 * SYNTH_SHARE).round() as usize);
        assert!(
            sizes.iter().all(|&c| c.abs_diff(sizes[0]) <= 1),
            "{sizes:?}"
        );
        for seed in 2..8 {
            let (n2, synths2, sizes2, past_hot2) = make_up(seed);
            assert_eq!((n2, synths2, &sizes2), (n, synths, &sizes));
            assert!(
                past_hot2.abs_diff(past_hot) <= 1,
                "{past_hot2} vs {past_hot}"
            );
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, ZIPF_S);
        let draws = z.stratified(10_000, &mut Rng::new(1, 0));
        let top = draws.iter().filter(|&&r| r == 0).count();
        let mid = draws.iter().filter(|&&r| r == 99).count();
        assert!(top > 20 * mid.max(1), "{top} vs {mid}");
        assert!(draws.iter().all(|&r| r < 1000));
    }

    #[test]
    fn generator_keeps_two_in_flight_and_records_lateness() {
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let service = |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(4));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        };
        // Due every millisecond: faster than two 4 ms servers, so the
        // schedule falls behind and lateness grows.
        let due: Vec<f64> = (0..30).map(|i| i as f64 * 1e-3).collect();
        let sent = open_loop(&due, service);
        assert_eq!(sent.len(), 30);
        assert!(peak.load(Ordering::SeqCst) <= CONNECTIONS);
        assert!(sent.iter().all(|s| s.latency_ms >= s.lateness_ms));
        assert!(sent[29].lateness_ms > 20.0, "{}", sent[29].lateness_ms);
    }
}
