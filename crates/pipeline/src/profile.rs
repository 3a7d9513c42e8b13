//! The simulator self-profiler: scoped wall-time phase timers.
//!
//! Mirrors the tracer's zero-cost pattern ([`lsq_obs::NopTracer`]): the
//! simulator is generic over a [`Profiler`], the default [`NopProfiler`]
//! reports `enabled() == false` as a compile-time constant, and every
//! timing site sits behind that check — an unprofiled simulator
//! monomorphizes to the untimed code, taking no `Instant::now()` calls
//! on the hot path. `tests/telemetry_profile.rs` pins counter equality
//! between profiled and unprofiled runs; the interleaved A/B geomean in
//! EXPERIMENTS.md pins throughput.
//!
//! Phase semantics are *inclusive*: [`Phase::LsqSearch`] time (the
//! issue-side SQ/LQ/LB searches) is also inside [`Phase::WakeupIssue`],
//! and [`Phase::Squash`] time is inside whichever phase detected the
//! violation (commit-time drains or issue). Summing top-level phases
//! therefore approximates a cycle's cost; the nested phases attribute
//! it. Commit-time violation searches performed by store drains are
//! charged to [`Phase::Commit`] only.
//!
//! A cycle the simulator fast-forwards (the idle-cycle fast path of
//! DESIGN.md §4: nothing can happen until a wakeup, a completion, or
//! fetch resuming) runs only the per-cycle bookkeeping and is timed
//! only as [`Phase::SegmentAdvance`]. Phase shares therefore describe
//! the cycles run in full, and `segment_advance` calls minus
//! `wakeup_issue` calls count the fast-forwarded cycles.

use lsq_obs::Json;

/// A named region of one simulated cycle, as stepped by
/// [`Simulator::run`](crate::Simulator::run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fetch stage: i-cache access, branch prediction, replay refill.
    Fetch,
    /// Dispatch stage: rename, ROB/IQ/LSQ allocation.
    Dispatch,
    /// Issue stage: event-driven wakeup (calendar/ready drain) plus
    /// execute-side bookkeeping. Includes [`Phase::LsqSearch`].
    WakeupIssue,
    /// Issue-side SQ/LQ/LB associative searches (`load_issue` /
    /// `store_issue`). Nested inside [`Phase::WakeupIssue`].
    LsqSearch,
    /// Per-cycle LSQ housekeeping, notably segment advance under the
    /// segmented schemes (`begin_cycle`).
    SegmentAdvance,
    /// Commit stage: background store drains (with their commit-time
    /// violation searches) plus in-order retirement.
    Commit,
    /// Squash-and-refetch recovery. Nested inside the detecting phase.
    Squash,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 7] = [
        Phase::Fetch,
        Phase::Dispatch,
        Phase::WakeupIssue,
        Phase::LsqSearch,
        Phase::SegmentAdvance,
        Phase::Commit,
        Phase::Squash,
    ];

    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Fetch => "fetch",
            Phase::Dispatch => "dispatch",
            Phase::WakeupIssue => "wakeup_issue",
            Phase::LsqSearch => "lsq_search",
            Phase::SegmentAdvance => "segment_advance",
            Phase::Commit => "commit",
            Phase::Squash => "squash",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A profiling sink for the simulator. Timing sites guard on
/// [`Profiler::enabled`], which [`NopProfiler`] makes a constant
/// `false` so the disabled profiler vanishes under monomorphization.
pub trait Profiler {
    /// Whether timing sites should take timestamps at all.
    fn enabled(&self) -> bool;

    /// Adds one timed invocation of `phase`.
    fn record(&mut self, phase: Phase, nanos: u64);

    /// The accumulated per-phase report, or `None` when disabled.
    fn report(&self) -> Option<PhaseProfile>;
}

/// The zero-cost default: profiling disabled, all sites compile away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopProfiler;

impl Profiler for NopProfiler {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _phase: Phase, _nanos: u64) {}

    #[inline(always)]
    fn report(&self) -> Option<PhaseProfile> {
        None
    }
}

/// An optional profiler: `None` is disabled, `Some` forwards.
impl<P: Profiler> Profiler for Option<P> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(P::enabled)
    }

    fn record(&mut self, phase: Phase, nanos: u64) {
        self.iter_mut().for_each(|p| p.record(phase, nanos));
    }

    fn report(&self) -> Option<PhaseProfile> {
        self.as_ref().and_then(P::report)
    }
}

/// Accumulates wall time and invocation counts per phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WallProfiler {
    nanos: [u64; Phase::ALL.len()],
    calls: [u64; Phase::ALL.len()],
}

impl WallProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Profiler for WallProfiler {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn record(&mut self, phase: Phase, nanos: u64) {
        let i = phase.index();
        self.nanos[i] += nanos;
        self.calls[i] += 1;
    }

    fn report(&self) -> Option<PhaseProfile> {
        Some(PhaseProfile {
            phases: Phase::ALL
                .iter()
                .map(|&p| PhaseStat {
                    phase: p.name().to_string(),
                    calls: self.calls[p.index()],
                    nanos: self.nanos[p.index()],
                })
                .collect(),
        })
    }
}

/// One phase's accumulated totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (see [`Phase::name`]).
    pub phase: String,
    /// Timed invocations.
    pub calls: u64,
    /// Total wall nanoseconds across those invocations.
    pub nanos: u64,
}

/// A per-run (or aggregated) phase report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Per-phase totals, in [`Phase::ALL`] order for single runs;
    /// merged reports keep the union of phase names.
    pub phases: Vec<PhaseStat>,
}

impl PhaseProfile {
    /// Total nanoseconds across phases, counting nested phases once
    /// (the nested [`Phase::LsqSearch`] and [`Phase::Squash`] spans are
    /// already inside their parents).
    pub fn total_nanos(&self) -> u64 {
        self.phases
            .iter()
            .filter(|s| s.phase != "lsq_search" && s.phase != "squash")
            .map(|s| s.nanos)
            .sum()
    }

    /// Folds another report into this one, matching phases by name and
    /// appending phases this report has not seen.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for stat in &other.phases {
            match self.phases.iter_mut().find(|s| s.phase == stat.phase) {
                Some(mine) => {
                    mine.calls += stat.calls;
                    mine.nanos += stat.nanos;
                }
                None => self.phases.push(stat.clone()),
            }
        }
    }

    /// Serializes as `{"phase_name": {"calls": n, "nanos": n}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.phases
                .iter()
                .map(|s| {
                    (
                        s.phase.as_str(),
                        Json::obj(vec![("calls", s.calls.into()), ("nanos", s.nanos.into())]),
                    )
                })
                .collect(),
        )
    }

    /// Parses the [`PhaseProfile::to_json`] layout; `None` on shape
    /// mismatch.
    pub fn from_json(json: &Json) -> Option<Self> {
        let obj = json.as_obj()?;
        let mut phases = Vec::with_capacity(obj.len());
        for (name, stat) in obj {
            phases.push(PhaseStat {
                phase: name.clone(),
                calls: stat.get("calls")?.as_u64()?,
                nanos: stat.get("nanos")?.as_u64()?,
            });
        }
        Some(Self { phases })
    }

    /// A human-readable table: phase, calls, total ms, share of the
    /// un-nested total.
    pub fn render(&self) -> String {
        let total = self.total_nanos().max(1);
        let mut out = String::from("phase              calls          ms   share\n");
        for s in &self.phases {
            let nested = s.phase == "lsq_search" || s.phase == "squash";
            out.push_str(&format!(
                "{}{:<17} {:>9} {:>11.3} {:>6.1}%\n",
                if nested { "  " } else { "" },
                s.phase,
                s.calls,
                s.nanos as f64 / 1e6,
                100.0 * s.nanos as f64 / total as f64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_profiler_is_disabled_and_reports_nothing() {
        let mut p = NopProfiler;
        assert!(!p.enabled());
        p.record(Phase::Fetch, 123);
        assert_eq!(p.report(), None);
    }

    #[test]
    fn wall_profiler_accumulates_per_phase() {
        let mut p = WallProfiler::new();
        p.record(Phase::Fetch, 10);
        p.record(Phase::Fetch, 5);
        p.record(Phase::Commit, 7);
        let report = p.report().expect("enabled");
        let fetch = report.phases.iter().find(|s| s.phase == "fetch").unwrap();
        assert_eq!((fetch.calls, fetch.nanos), (2, 15));
        let commit = report.phases.iter().find(|s| s.phase == "commit").unwrap();
        assert_eq!((commit.calls, commit.nanos), (1, 7));
        // Every phase appears, even untouched ones.
        assert_eq!(report.phases.len(), Phase::ALL.len());
    }

    #[test]
    fn total_excludes_nested_phases() {
        let mut p = WallProfiler::new();
        p.record(Phase::WakeupIssue, 100);
        p.record(Phase::LsqSearch, 60); // inside WakeupIssue
        p.record(Phase::Commit, 40);
        p.record(Phase::Squash, 10); // inside Commit
        assert_eq!(p.report().unwrap().total_nanos(), 140);
    }

    #[test]
    fn merge_matches_by_name() {
        let mut p = WallProfiler::new();
        p.record(Phase::Fetch, 10);
        let mut a = p.report().unwrap();
        let mut q = WallProfiler::new();
        q.record(Phase::Fetch, 5);
        q.record(Phase::Dispatch, 3);
        a.merge(&q.report().unwrap());
        let fetch = a.phases.iter().find(|s| s.phase == "fetch").unwrap();
        assert_eq!((fetch.calls, fetch.nanos), (2, 15));
        let dispatch = a.phases.iter().find(|s| s.phase == "dispatch").unwrap();
        assert_eq!((dispatch.calls, dispatch.nanos), (1, 3));
    }

    #[test]
    fn json_round_trip() {
        let mut p = WallProfiler::new();
        p.record(Phase::LsqSearch, 42);
        p.record(Phase::Squash, 1);
        let report = p.report().unwrap();
        let text = report.to_json().to_string();
        let back = PhaseProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn render_marks_nested_phases() {
        let mut p = WallProfiler::new();
        p.record(Phase::WakeupIssue, 2_000_000);
        p.record(Phase::LsqSearch, 1_000_000);
        let text = p.report().unwrap().render();
        assert!(text.contains("wakeup_issue"), "{text}");
        assert!(text.contains("  lsq_search"), "{text}");
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "fetch",
                "dispatch",
                "wakeup_issue",
                "lsq_search",
                "segment_advance",
                "commit",
                "squash"
            ]
        );
    }
}
