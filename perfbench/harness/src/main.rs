//! `perfbench` — the LSQ simulator's host-performance benchmark.
//!
//! ```text
//! perfbench --workload <seg-search|mem-stall> --seed <n>
//!           --seconds <n> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all tracing off;
//! `--trace 1` takes the same jobs apart layer by layer from this
//! program's own files and reports the per-layer metrics. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it records the seed, git
//! revision, CPU count and model, sample counts and the `sim_digest` of
//! the simulated counters. The exit code is 0 only when every job met
//! its budget and every correctness check passed.
//!
//! See `perfbench/README.md` for the workloads and metric definitions.

mod direct;
mod drive;
mod host;
mod layers;
mod metrics;
mod outcome;
mod workload;

use lsq_obs::Json;
use metrics::{check_metrics, metrics_json};
use outcome::Outcome;
use std::process::ExitCode;
use workload::{Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <seg-search|mem-stall> --seed <n> \
                     --seconds <n> --trace <0|1> [--scale full|tiny]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], not {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            "--scale" => {
                scale = Scale::parse(value).ok_or_else(|| format!("unknown scale {value}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn run(args: &Args) -> Outcome {
    let (w, b) = (args.workload, args.scale.budget(args.workload));
    if args.trace {
        direct::traced(w, args.seed, args.seconds, b)
    } else {
        direct::untraced(w, args.seed, args.seconds, b)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::refuse_ambient_knobs() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }

    let mut out = run(&args);
    if let Err(e) = check_metrics(&out.metrics) {
        out.check_errors.push(e);
    }
    for line in out.failed_jobs.iter().chain(&out.check_errors) {
        eprintln!("check failed: {line}");
    }

    let mut details = vec![
        ("workload".to_string(), Json::from(args.workload.name())),
        ("seed".to_string(), args.seed.into()),
        ("trace".to_string(), args.trace.into()),
        ("scale".to_string(), Json::from(args.scale.name())),
        ("git_rev".to_string(), host::git_rev().into()),
        ("nproc".to_string(), host::nproc().into()),
        ("cpu_model".to_string(), host::cpu_model().into()),
    ];
    details.append(&mut out.info);
    println!("{}", Json::Obj(details));

    let correct = out.correct();
    let result = Json::obj(vec![
        ("correct", correct.into()),
        ("attempted", out.attempted.into()),
        ("failed", (out.failed_jobs.len() as u64).into()),
        ("metrics", metrics_json(&out.metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn full_command_line_parses() {
        let a = args("--workload mem-stall --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::MemStall);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.scale, Scale::Full);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args("--workload nonesuch --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload artifacts --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload seg-search --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload seg-search --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload seg-search --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload seg-search --seed 1 --seconds 1").is_err());
        assert!(args("--workload seg-search --seed 1 --seconds 1 --trace 0 --bogus 1").is_err());
        assert!(args("--workload").is_err());
    }
}
