//! Reproduces a single table or figure of the paper, selected by name.
//!
//! ```text
//! cargo run --release -p lsq-experiments --bin artifact -- fig10
//! cargo run --release -p lsq-experiments --bin artifact -- table3 table6
//! ```
//!
//! `artifact list` (or `--list`) prints the available names, one per
//! line on stdout, for shell completion and scripting. With no
//! arguments it prints the same menu as a usage error. Use `--bin all`
//! to run everything in paper order.

use lsq_experiments::experiments::{by_name, ARTIFACT_NAMES};
use lsq_experiments::RunOptions;

fn main() {
    let opts = RunOptions::parse_or_exit(std::env::vars_os());
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| a == "list" || a == "--list" || a == "-l")
    {
        for name in ARTIFACT_NAMES {
            println!("{name}");
        }
        std::process::exit(0);
    }
    if args.is_empty() || args.iter().any(|a| a == "--help") {
        eprintln!("usage: artifact <name>... (one or more of the following; `artifact list` prints them on stdout)");
        for name in ARTIFACT_NAMES {
            eprintln!("  {name}");
        }
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let spec = opts.spec();
    lsq_experiments::engine::configure(opts);
    for name in &args {
        match by_name(name, spec) {
            Some(a) => println!("{a}"),
            None => {
                eprintln!(
                    "unknown artifact {name:?}; expected one of: {}",
                    ARTIFACT_NAMES.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
}
