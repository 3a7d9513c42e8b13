//! The benchmark's workloads: which jobs each runs and at what budget.
//!
//! `perfbench/README.md` records why each workload was chosen and which
//! simulator layer it stresses or bypasses.

use lsq_core::{LsqConfig, SegAlloc};
use lsq_trace::BenchProfile;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Segmented LSQ design points on search-heavy benchmarks.
    SegSearch,
    /// Conventional and technique design points on low-IPC benchmarks
    /// with large footprints.
    MemStall,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::SegSearch, Workload::MemStall];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SegSearch => "seg-search",
            Workload::MemStall => "mem-stall",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `(benchmark × design point)` jobs the workload runs, in order.
    pub fn jobs(self) -> Vec<JobSpec> {
        let (benches, points): (&[&str], Vec<(&'static str, LsqConfig)>) = match self {
            Workload::SegSearch => (
                &["mgrid", "perl", "applu", "wupwise"],
                vec![
                    ("seg-sc", LsqConfig::segmented(SegAlloc::SelfCircular)),
                    ("all-1p", LsqConfig::all_techniques_one_port()),
                ],
            ),
            Workload::MemStall => (
                &["mcf", "art", "swim"],
                vec![
                    ("conv-2p", LsqConfig::conventional(2)),
                    ("tech-1p", LsqConfig::with_techniques(1)),
                ],
            ),
        };
        benches
            .iter()
            .filter_map(|&b| BenchProfile::named(b))
            .flat_map(|profile| {
                points.iter().map(move |&(point, lsq)| JobSpec {
                    profile,
                    point,
                    lsq,
                })
            })
            .collect()
    }
}

/// One job: a benchmark run through one LSQ design point on the
/// base processor.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// The workload profile (one of the 18 Table 2 benchmarks).
    pub profile: &'static BenchProfile,
    /// Short design-point label for reports.
    pub point: &'static str,
    /// The LSQ design point.
    pub lsq: LsqConfig,
}

impl JobSpec {
    /// `bench/point`, for reports and failure messages.
    pub fn label(&self) -> String {
        format!("{}/{}", self.profile.name, self.point)
    }
}

/// Instruction budget of one job, in committed instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Warm-up window, run and then discarded by differencing.
    pub warmup: u64,
    /// Measured window.
    pub instrs: u64,
    /// Committed instructions per `Simulator::run` call in the measured
    /// window; each call is one `chunk_us` sample.
    pub chunk: u64,
    /// Host milliseconds one pass over the workload's jobs is allowed:
    /// about a quarter more than its slowest passes took on a 2-vCPU
    /// shared host. The untraced run times `seconds / pass_ms` passes.
    pub pass_ms: u64,
}

impl Budget {
    /// How many passes an untraced run of `seconds` times: a fixed
    /// count, so that a faster or slower build takes its best-of over
    /// the same number of observations. At least two, so that passes
    /// can be compared.
    pub fn passes(&self, seconds: f64) -> usize {
        ((seconds * 1e3 / self.pass_ms.max(1) as f64) as usize).max(2)
    }
}

/// Budget scale: `Full` for measurement, `Tiny` for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The budgets the published metrics are measured at.
    Full,
    /// A few thousand instructions per job; checks run, numbers do not
    /// mean anything.
    Tiny,
}

impl Scale {
    /// Parses `full` or `tiny`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Per-job budget of a workload.
    pub fn budget(self, w: Workload) -> Budget {
        match (self, w) {
            (Scale::Tiny, _) => Budget {
                warmup: 500,
                instrs: 2_200,
                chunk: 20,
                pass_ms: 100,
            },
            (Scale::Full, Workload::SegSearch) => Budget {
                warmup: 12_000,
                instrs: 180_000,
                chunk: 1_500,
                pass_ms: 1_800,
            },
            (Scale::Full, Workload::MemStall) => Budget {
                warmup: 12_000,
                instrs: 240_000,
                chunk: 1_000,
                pass_ms: 2_000,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nonesuch"), None);
    }

    #[test]
    fn workloads_resolve_every_benchmark() {
        assert_eq!(Workload::SegSearch.jobs().len(), 8);
        assert_eq!(Workload::MemStall.jobs().len(), 6);
    }

    #[test]
    fn pass_count_is_fixed_by_the_run_length() {
        let b = Scale::Full.budget(Workload::SegSearch);
        assert_eq!(b.passes(30.0), 16);
        assert_eq!(Scale::Full.budget(Workload::MemStall).passes(30.0), 15);
        assert_eq!(b.passes(0.5), 2, "never fewer than two");
    }

    #[test]
    fn budgets_are_whole_chunks_enough_for_a_p90() {
        for scale in [Scale::Full, Scale::Tiny] {
            for w in Workload::ALL {
                let b = scale.budget(w);
                assert_eq!(b.instrs % b.chunk, 0, "{w:?} {scale:?}");
                // A per-job p90 needs 10 chunks above it.
                assert!(b.instrs / b.chunk >= 100, "{w:?} {scale:?}");
            }
        }
    }
}
