//! FIR filter design substrate for the MRPF reproduction.
//!
//! The MRPF evaluation (§5, Table 1) runs on twelve symmetric FIR example
//! filters designed by three methods — Butterworth (BW), Parks-McClellan
//! (PM), and least squares (LS) — in low-pass, band-pass, and band-stop
//! configurations. The Rust DSP ecosystem does not offer these designers,
//! so this crate implements them from scratch:
//!
//! * [`remez`] — Parks-McClellan equiripple design via the Remez exchange
//!   algorithm on a dense frequency grid (type I linear phase);
//! * [`least_squares`] — weighted least-squares linear-phase design by
//!   solving the normal equations;
//! * [`butterworth_fir`] — frequency-sampled FIR with a Butterworth
//!   magnitude prototype (the paper's "BW" designs; Butterworth is natively
//!   IIR, so this is the standard FIR realization of its response);
//! * [`kaiser`] — windowed-sinc design with a Kaiser window (extension);
//! * [`response`] — zero-phase amplitude and magnitude response analysis
//!   used to verify designs against their [`FilterSpec`];
//! * [`example_filters`] — the reconstructed Table 1 example-filter suite.
//!
//! # Examples
//!
//! ```
//! use mrp_filters::{remez, BandSpec, FilterSpec, FilterKind, DesignMethod};
//!
//! // A 32nd-order low-pass: passband to 0.10, stopband from 0.16.
//! let spec = FilterSpec::lowpass(0.10, 0.16, 0.5, 50.0);
//! let taps = remez(32, &spec.to_bands())?;
//! assert_eq!(taps.len(), 33);
//! // Symmetric (linear phase).
//! assert!((taps[0] - taps[32]).abs() < 1e-12);
//! # Ok::<(), mrp_filters::DesignError>(())
//! ```

#![warn(missing_docs)]

mod butterworth;
mod examples;
mod halfband;
mod kaiser;
mod leastsq;
mod linalg;
mod remez;
pub mod response;
mod spec;
mod window;

pub use butterworth::{analog_order_for, butterworth_fir, frequency_sample};
pub use examples::{example_filters, ExampleFilter};
pub use halfband::halfband;
pub use kaiser::{kaiser, kaiser_beta, kaiser_order};
pub use leastsq::least_squares;
pub use linalg::solve_dense;
pub use remez::{remez, remez_with_options, RemezOptions};
pub use spec::{BandSpec, DesignError, DesignMethod, FilterKind, FilterSpec};
pub use window::{window, WindowKind};
