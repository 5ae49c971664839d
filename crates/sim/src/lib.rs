//! Fixed-point streaming simulation substrate.
//!
//! The MRPF paper evaluates architectures statically (adder counts, area);
//! a downstream user also needs to know what the *quantized* filter does to
//! real signals. This crate provides the dynamic-verification side:
//!
//! * [`signal`] — deterministic test-signal generators (impulse, step,
//!   white noise, sine tones, two-tone mixtures) scaled to integer
//!   datapaths;
//! * [`goertzel`] — single-bin DFT measurement (the classic Goertzel
//!   recurrence) for tone-level checks through integer filters;
//! * [`snr_db`] — signal-to-noise/error ratios between a fixed-point
//!   architecture and its floating-point reference;
//! * [`StreamingFir`] — block-based streaming around
//!   [`mrp_arch::FirFilter`] with saturation or wrapping output modes.
//!
//! # Examples
//!
//! ```
//! use mrp_sim::{goertzel, signal};
//!
//! // A pure tone measured at its own bin is strong; elsewhere weak.
//! let tone = signal::sine(1024, 0.125, 1000.0);
//! let on = goertzel(&tone, 0.125);
//! let off = goertzel(&tone, 0.33);
//! assert!(on > 100.0 * off);
//! ```

#![warn(missing_docs)]

mod goertzel;
pub mod signal;
mod snr;
mod stream;

pub use goertzel::{goertzel, goertzel_db};
pub use snr::{snr_db, SnrReport};
pub use stream::{equal_with_latency, OverflowMode, StreamingFir};
