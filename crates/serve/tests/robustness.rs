//! Robustness integration tests: request coalescing, the persistent
//! cache tier across restarts, graceful degradation, and an in-tree
//! chaos smoke soak — all over real sockets.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use mrp_serve::{run_chaos, ChaosOptions, ServeHandle, ServeOptions, ServeSummary, Server};

/// A distinct scratch directory per call, under the target-adjacent
/// temp root so parallel tests never collide.
fn scratch_dir(tag: &str) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("mrp-serve-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

fn spawn_server(options: ServeOptions) -> (SocketAddr, ServeHandle, ServerThread) {
    let server = Server::bind(options).expect("bind ephemeral port");
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

fn exchange(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let status: u16 = head.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap();
    (status, body.to_string())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// Filters in one [`wide_specs`] document.
const WIDE_FILTERS: usize = 24;

/// A spec document big enough that a /batch request takes real work,
/// giving concurrent identical requests a wide window to coalesce in.
/// Each `round` gives [`WIDE_FILTERS`] specs no other round shares, even
/// after normalization: every first coefficient is odd.
fn wide_specs(round: usize) -> String {
    let filters: Vec<String> = (round * WIDE_FILTERS..(round + 1) * WIDE_FILTERS)
        .map(|i| {
            format!(
                "{{\"name\": \"f{i}\", \"coeffs\": [{}, {}, {}, {}, {}]}}",
                2 * i + 7,
                3 * i + 11,
                5 * i + 13,
                i + 17,
                7 * i + 19
            )
        })
        .collect();
    format!("{{\"filters\": [{}]}}", filters.join(", "))
}

#[test]
fn identical_concurrent_posts_coalesce_to_identical_bytes() {
    let (addr, handle, server) = spawn_server(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 4,
        queue: 16,
        ..ServeOptions::default()
    });
    const CLIENTS: usize = 4;
    const MAX_ROUNDS: usize = 8;

    // Fire identical /batch requests from parallel clients. The first
    // to claim leads; the rest ride its synthesis. Responses must be
    // byte-identical either way. A leader that finishes before any other
    // client connects leaves nothing to coalesce, so the burst repeats on
    // fresh specs (each round's leader must synthesize, not read the
    // cache) until a round coalesces.
    let mut rounds = 0;
    while rounds < MAX_ROUNDS && handle.coalesced() == 0 {
        let specs = wide_specs(rounds);
        let start = Arc::new(Barrier::new(CLIENTS));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (specs, start) = (specs.clone(), Arc::clone(&start));
                thread::spawn(move || {
                    start.wait();
                    post(addr, "/batch", &specs)
                })
            })
            .collect();
        let mut bodies = Vec::new();
        for client in clients {
            let (status, body) = client.join().unwrap();
            assert_eq!(status, 200, "{body}");
            bodies.push(body);
        }
        bodies.dedup();
        assert_eq!(
            bodies.len(),
            1,
            "round {rounds}: concurrent identical requests diverged"
        );
        rounds += 1;
    }

    let summary = server.stop(&handle);
    assert!(
        summary.coalesced >= 1,
        "no coalescing in {rounds} rounds of {CLIENTS} identical concurrent requests: \
         {summary:?}"
    );
    assert_eq!(summary.served, (CLIENTS * rounds) as u64, "{summary:?}");
    // Each distinct spec is synthesized exactly once, whatever the
    // interleaving: followers never reach the cache, and a request that
    // arrives after its leader finished finds every spec cached.
    assert_eq!(
        summary.cache_misses,
        (WIDE_FILTERS * rounds) as u64,
        "{summary:?}"
    );
}

#[test]
fn persistent_store_survives_restart_with_identical_bytes() {
    let dir = scratch_dir("restart");
    let options = || ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        queue: 8,
        store_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    let specs = wide_specs(0);

    let (addr, handle, server) = spawn_server(options());
    let (status, first) = post(addr, "/batch", &specs);
    assert_eq!(status, 200, "{first}");
    let (_, health) = get(addr, "/healthz");
    assert!(health.contains("\"store\":\"persistent\""), "{health}");
    let summary = server.stop(&handle);
    assert!(!summary.store_degraded, "{summary:?}");
    assert!(summary.cache_entries > 0, "{summary:?}");

    // A fresh process over the same directory serves the same bytes —
    // and serves them from the recovered cache, not by recomputing.
    let (addr, handle, server) = spawn_server(options());
    let (status, second) = post(addr, "/batch", &specs);
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second, "restart changed response bytes");
    let summary = server.stop(&handle);
    assert!(
        summary.cache_hits >= 24,
        "restarted server recomputed instead of hitting the store: {summary:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_store_dir_degrades_not_dies() {
    // Point store_dir *under a regular file*, so the directory can
    // never be created: the store must degrade, the server must serve.
    let blocker = scratch_dir("degraded-blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let (addr, handle, server) = spawn_server(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        queue: 8,
        store_dir: Some(format!("{blocker}/store")),
        ..ServeOptions::default()
    });

    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(health.contains("\"store\":\"degraded\""), "{health}");

    // Synthesis still works, from the memory tier.
    let (status, body) = post(addr, "/synth", r#"{"coeffs": [70, 66, 17, 9]}"#);
    assert_eq!(status, 200, "{body}");

    let (status, metrics) = get(addr, "/metricsz");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"store\":\"degraded\""), "{metrics}");

    let summary = server.stop(&handle);
    assert!(summary.store_degraded, "{summary:?}");
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn chaos_soak_leaves_server_healthy_and_deterministic() {
    let dir = scratch_dir("chaos");
    let (addr, handle, server) = spawn_server(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        queue: 8,
        store_dir: Some(dir.clone()),
        ..ServeOptions::default()
    });

    let report = run_chaos(&ChaosOptions {
        addr: addr.to_string(),
        requests: 40,
        seed: 0xC405,
    })
    .expect("chaos baseline");
    assert!(report.passed(), "{report:?}");
    assert_eq!(report.attacks.iter().map(|(_, n)| n).sum::<u64>(), 40);
    assert!(report.probes >= 8, "{report:?}");

    let summary = server.stop(&handle);
    assert!(!summary.store_degraded, "{summary:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
