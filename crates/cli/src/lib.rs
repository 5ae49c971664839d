//! Library backing the `mrpf` command-line tool.
//!
//! The CLI wires the whole reproduction together for interactive use:
//!
//! ```text
//! mrpf design   --kind lowpass --fp 0.1 --fs 0.2 --order 40 [--method pm|ls|bw]
//! mrpf optimize <c0,c1,...>   [--repr spt|sm] [--beta B] [--depth D] [--seed direct|cse|recursive]
//! mrpf emit     <c0,c1,...>   [--name module] [--width W] (Verilog to stdout)
//! mrpf compare  <c0,c1,...>   (adder counts under every scheme)
//! mrpf lint     <c0,c1,...>   [--width W] [--json] (static analysis report)
//! mrpf synth    <c0,c1,...>   [--deadline-ms MS] [--min-quality RUNG] [--faults SPEC]
//!                             (supervised synthesis with the fallback ladder)
//! ```
//!
//! All subcommands are implemented as library functions returning strings,
//! so they are unit-testable without spawning processes.

#![warn(missing_docs)]

pub mod args;
mod commands;

pub use commands::{run, CliError, FLAGS, USAGE};

/// Short hint appended to argument-parsing errors.
pub const USAGE_HINT: &str = "run `mrpf help` for usage";
