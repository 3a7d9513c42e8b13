//! Runs every reproduced table and figure in paper order.
//!
//! Set `LSQ_EXPERIMENTS_OUT=<path>` to also write the output to a file
//! (used to refresh the measured sections of EXPERIMENTS.md).

use lsq_experiments::RunOptions;
use std::io::Write;
use std::time::Instant;

fn main() {
    let started = Instant::now();
    let opts = RunOptions::parse_or_exit(std::env::vars_os());
    let spec = opts.spec();
    let out_path = opts.experiments_out.clone();
    lsq_experiments::engine::configure(opts);
    let artifacts = lsq_experiments::all(spec);
    let mut out = String::new();
    for a in &artifacts {
        out.push_str(&a.to_string());
        out.push('\n');
    }
    print!("{out}");
    if let Some(path) = out_path {
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(out.as_bytes()).expect("write output file");
        eprintln!("wrote {}", path.display());
    }
    let (hits, misses) = lsq_experiments::engine::global().stats();
    eprintln!(
        "engine: {misses} unique simulations, {hits} served from cache, {:.1}s wall",
        started.elapsed().as_secs_f64()
    );
}
