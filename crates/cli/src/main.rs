//! `mrpf` — command-line front end for the MRPF reproduction.

use std::io::{ErrorKind, Write};

use mrp_cli::args::Args;
use mrp_cli::{run, FLAGS};

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(tokens, FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", mrp_cli::USAGE_HINT);
            std::process::exit(2);
        }
    };
    match run(&parsed) {
        Ok(out) => {
            // A reader that closed the pipe early (`mrpf … | head`) has
            // all it wanted; any other write failure is an error.
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("error: writing the result: {e}");
                    std::process::exit(1);
                }
                _ => {}
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
