//! The result cache keys on the observer set: plain runs of the
//! CPI-stack design points, cached first in the same process, must not
//! be served to an accounted request such as the `cpi_stack` artifact.

use lsq_core::{LsqConfig, PredictorKind, SegAlloc};
use lsq_experiments::runner::{run_matrix, run_matrix_observed};
use lsq_experiments::{experiments, Engine, Job, Observers, RunSpec};

#[test]
fn cpi_stack_after_plain_runs_carries_fresh_stacks() {
    let spec = RunSpec {
        warmup: 200,
        instrs: 800,
        seed: 3,
    };
    // The baseline and the paper's three techniques, as in `cpi_stack`.
    let cfgs = [
        LsqConfig::default(),
        LsqConfig {
            predictor: PredictorKind::Pair,
            ..LsqConfig::default()
        },
        LsqConfig::with_techniques(1),
        LsqConfig::segmented(SegAlloc::SelfCircular),
    ];
    let plain = run_matrix(&cfgs, false, spec);
    assert!(plain
        .iter()
        .flat_map(|(_, r)| r)
        .all(|r| r.cpi_stack.is_none()));

    // Before the observer set joined the cache key, this panicked: every
    // job was served the plain result cached above.
    let artifact = experiments::cpi_stack(spec);
    assert_eq!(artifact.table.len(), 18 * cfgs.len());

    let accounted = Observers {
        accounting: true,
        ..Observers::default()
    };
    let cached = run_matrix_observed(&cfgs, false, spec, &accounted);
    let jobs: Vec<Job> = cached
        .iter()
        .flat_map(|&(bench, _)| {
            cfgs.iter().map(move |&lsq| Job {
                bench,
                lsq,
                scaled: false,
                spec,
            })
        })
        .collect();
    let fresh = Engine::new().run_batch_observed(&jobs, &accounted);
    let cached = cached.iter().flat_map(|(_, r)| r);
    for ((job, cached), fresh) in jobs.iter().zip(cached).zip(&fresh) {
        assert!(cached.cpi_stack.is_some(), "{}: stack missing", job.bench);
        assert_eq!(cached.cpi_stack, fresh.cpi_stack, "{}", job.bench);
    }
}
