//! `mrp-serve` — a long-running synthesis service over the batch engine.
//!
//! The offline pipeline already has everything a service needs: a
//! work-stealing pool (`mrp-batch`), a supervised driver with deadlines
//! and a fallback ladder (`mrp-resilience`), and a metrics registry
//! (`mrp-obs`). This crate adds the missing 300 lines of plumbing — a
//! dependency-free HTTP/1.1 front end — rather than another engine.
//!
//! # Endpoints
//!
//! | Route | Method | Purpose |
//! |-------|--------|---------|
//! | `/synth` | POST | one coefficient vector through the supervised driver |
//! | `/batch` | POST | a spec document through the batch engine |
//! | `/healthz` | GET | liveness + queue occupancy |
//! | `/metricsz` | GET | server counters, latency quantiles, cache stats, `mrp-obs` registry |
//! | `/statusz` | GET | last-N request records + live quantile table |
//!
//! Every response — including `503` refusals and read-error replies —
//! carries an `X-Request-Id` header from a deterministic per-server
//! counter. Completed requests record per-phase timings (admission,
//! read, pool queue wait, synthesis, coalesce wait, response write)
//! into `mrp-obs` log-bucketed histograms. The `serve-zipf` workload of
//! the repository's benchmark (`mrpfbench/`) measures the served path
//! under open-loop load.
//!
//! # Invariants
//!
//! * **Determinism** — `/batch` responses are byte-identical to the
//!   offline `mrpf batch --json` report for the same specs and
//!   configuration, regardless of `--jobs` or what the shared synthesis
//!   cache already holds — including a persistent cache recovered after
//!   a crash.
//! * **Backpressure** — at most `queue` requests are in flight; beyond
//!   that, connections get an immediate `503` whose `Retry-After` is
//!   derived from queue depth and the observed p90 request latency.
//! * **Coalescing** — identical concurrent POSTs synthesize once; the
//!   followers receive the leader's bytes (`serve.coalesced` counts
//!   them).
//! * **Graceful degradation** — with `store_dir` set, losing the disk
//!   tier flips `/healthz` to `degraded` and continues memory-only; it
//!   never takes the service down.
//! * **Deadlines** — each request's [`Deadline`](mrp_resilience::Deadline)
//!   starts at admission, so time spent waiting for a pool worker counts
//!   against the request's budget, not in addition to it.
//! * **Graceful drain** — SIGINT/SIGTERM (or [`ServeHandle::shutdown`])
//!   stops the accept loop; admitted requests finish and are answered
//!   before [`Server::run`] returns its [`ServeSummary`].
//!
//! # Example
//!
//! ```no_run
//! use mrp_serve::{ServeOptions, Server};
//!
//! let server = Server::bind(ServeOptions::default()).unwrap();
//! println!("listening on {}", server.local_addr());
//! let handle = server.handle(); // move to another thread to stop later
//! let summary = server.run();
//! let _ = (handle, summary);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

pub mod chaos;
mod coalesce;
mod http;
mod routes;
mod server;
pub mod signal;
mod trace;

pub use chaos::{run_chaos, ChaosOptions, ChaosReport};
pub use server::{ServeHandle, ServeOptions, ServeSummary, Server};
pub use signal::{clear_interrupt, install_interrupt_handler, interrupted};
