//! `mrpf` — command-line front end for the MRPF reproduction.

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
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
