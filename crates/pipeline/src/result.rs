//! Results of a simulation run.

use crate::accounting::CpiStack;
use crate::lifecycle::StageLatency;
use crate::profile::PhaseProfile;
use lsq_core::LsqStats;

/// Everything measured over one run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads_committed: u64,
    /// Stores committed.
    pub stores_committed: u64,
    /// Branches committed.
    pub branches_committed: u64,
    /// Branch predictions made (at fetch).
    pub branch_predictions: u64,
    /// Branch mispredictions (each stalls fetch and pays the redirect
    /// penalty).
    pub branch_mispredictions: u64,
    /// Pipeline squashes due to memory-order violations.
    pub violation_squashes: u64,
    /// Instructions squashed (refetched) across all causes.
    pub instructions_squashed: u64,
    /// Mean load-queue occupancy per cycle (paper Table 5).
    pub lq_occupancy: f64,
    /// Mean store-queue occupancy per cycle (paper Table 5).
    pub sq_occupancy: f64,
    /// Mean number of loads issued out of program order per cycle (paper
    /// Table 4).
    pub ooo_issued_loads: f64,
    /// Mean in-flight loads per cycle (the paper quotes ~41). A load
    /// holds its load-queue entry from dispatch to commit, so in this
    /// model this is the same mean as [`Self::lq_occupancy`].
    pub inflight_loads: f64,
    /// LSQ event counters.
    pub lsq: LsqStats,
    /// L1 d-cache miss rate.
    pub l1d_miss_rate: f64,
    /// L2 miss rate.
    pub l2_miss_rate: f64,
    /// Whether the run ended by hitting the safety cycle cap rather than
    /// the instruction budget (indicates a deadlocked configuration).
    pub hit_cycle_cap: bool,
    /// Host wall-clock nanoseconds spent producing this result. Zero when
    /// the simulator is driven directly; the experiment engine fills it in
    /// with the whole job's duration (warm-up included). Not a simulated
    /// quantity — excluded from determinism comparisons.
    pub wall_nanos: u64,
    /// Simulated instructions (warm-up included) per host wall-clock
    /// second, in millions. Zero when the simulator is driven directly;
    /// filled in by the experiment engine alongside [`wall_nanos`].
    ///
    /// [`wall_nanos`]: SimResult::wall_nanos
    pub sim_mips: f64,
    /// Per-phase wall-time self-profile, `None` unless the run was
    /// profiled (see [`crate::profile`]). Host-side timing, not a
    /// simulated quantity — excluded from determinism comparisons.
    pub profile: Option<PhaseProfile>,
    /// Per-component CPI stack, `None` unless the run was accounted
    /// (see [`crate::accounting`]). Fully deterministic — the stack's
    /// components sum exactly to `cycles × commit_width`.
    pub cpi_stack: Option<CpiStack>,
    /// Per-stage latency histograms over committed instructions, `None`
    /// unless a lifecycle recorder was attached (see
    /// [`crate::lifecycle`]). Fully deterministic.
    pub stage_latency: Option<StageLatency>,
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline run of the same workload
    /// (ratio of IPCs; > 1.0 means faster).
    pub fn speedup_over(&self, base: &SimResult) -> f64 {
        let b = base.ipc();
        if b == 0.0 {
            0.0
        } else {
            self.ipc() / b
        }
    }

    /// Branch misprediction rate.
    pub fn branch_mispredict_rate(&self) -> f64 {
        if self.branch_predictions == 0 {
            0.0
        } else {
            self.branch_mispredictions as f64 / self.branch_predictions as f64
        }
    }

    /// Every counter of this result as a metrics registry — the single
    /// source for `bin/diag`'s text report and the experiment engine's
    /// JSON records, including the Table 3 predictor counters.
    pub fn registry(&self, title: &str) -> lsq_obs::Registry {
        use lsq_obs::Registry;
        let s = &self.lsq;
        let mut reg = Registry::new(title)
            .section(
                Registry::named("run")
                    .count("cycles", self.cycles)
                    .count("committed", self.committed)
                    .float("ipc", self.ipc())
                    .count("hit_cycle_cap", u64::from(self.hit_cycle_cap)),
            )
            .section(
                Registry::named("volume")
                    .count("loads_committed", self.loads_committed)
                    .count("stores_committed", self.stores_committed)
                    .count("branches_committed", self.branches_committed)
                    .count("loads_dispatched", s.loads_dispatched)
                    .count("stores_dispatched", s.stores_dispatched)
                    .count("loads_issued", s.loads_issued)
                    .count("stores_issued", s.stores_issued),
            )
            .section(
                Registry::named("frontend")
                    .count("branch_predictions", self.branch_predictions)
                    .count("branch_mispredictions", self.branch_mispredictions)
                    .percent(
                        "branch_mispredict_rate",
                        self.branch_mispredict_rate() * 100.0,
                    ),
            )
            .section(
                Registry::named("memory")
                    .percent("l1d_miss_rate", self.l1d_miss_rate * 100.0)
                    .percent("l2_miss_rate", self.l2_miss_rate * 100.0),
            )
            .section(
                Registry::named("searches")
                    .count("sq_searches", s.sq_searches)
                    .count("sq_search_hits", s.sq_search_hits)
                    .percent("sq_search_fraction", s.sq_search_fraction() * 100.0)
                    .count("lq_searches_by_stores", s.lq_searches_by_stores)
                    .count("lq_searches_by_loads", s.lq_searches_by_loads)
                    .count("lb_searches", s.lb_searches),
            )
            .section(
                Registry::named("predictor (Table 3)")
                    .count("violations", s.violations)
                    .count("commit_violations", s.commit_violations)
                    .count("useless_searches", s.useless_searches)
                    .count("load_load_violations", s.load_load_violations)
                    .percent("pair_mispred_rate", s.pair_mispred_rate() * 100.0)
                    .percent("pair_squash_rate", s.pair_squash_rate() * 100.0)
                    .count("store_set_waits", s.store_set_waits),
            )
            .section(
                Registry::named("squashes")
                    .count("violation_squashes", self.violation_squashes)
                    .count("instructions_squashed", self.instructions_squashed)
                    .count("invalidations", s.invalidations)
                    .count("invalidation_squashes", s.invalidation_squashes),
            )
            .section(
                Registry::named("stalls")
                    .count("sq_port_stalls", s.sq_port_stalls)
                    .count("lq_port_stalls", s.lq_port_stalls)
                    .count("commit_port_delays", s.commit_port_delays)
                    .count("lb_full_stalls", s.lb_full_stalls)
                    .count("in_order_stalls", s.in_order_stalls),
            )
            .section(
                Registry::named("occupancy")
                    .float("lq_occupancy", self.lq_occupancy)
                    .float("sq_occupancy", self.sq_occupancy)
                    .float("ooo_issued_loads", self.ooo_issued_loads)
                    .float("inflight_loads", self.inflight_loads),
            );
        // Segment-search depth distribution, only meaningful when the
        // histogram saw any searches.
        if s.seg_search_hist.count() > 0 {
            let mut seg = Registry::named("segment searches");
            for (k, _) in s.seg_search_hist.iter() {
                seg = seg.percent(
                    &format!("within_{}_segments", k + 1),
                    s.seg_search_fraction(k) * 100.0,
                );
            }
            reg = reg.section(seg);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> SimResult {
        SimResult {
            cycles: 0,
            committed: 0,
            loads_committed: 0,
            stores_committed: 0,
            branches_committed: 0,
            branch_predictions: 0,
            branch_mispredictions: 0,
            violation_squashes: 0,
            instructions_squashed: 0,
            lq_occupancy: 0.0,
            sq_occupancy: 0.0,
            ooo_issued_loads: 0.0,
            inflight_loads: 0.0,
            lsq: LsqStats::new(1),
            l1d_miss_rate: 0.0,
            l2_miss_rate: 0.0,
            hit_cycle_cap: false,
            wall_nanos: 0,
            cpi_stack: None,
            stage_latency: None,
            sim_mips: 0.0,
            profile: None,
        }
    }

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(blank().ipc(), 0.0);
    }

    #[test]
    fn ipc_and_speedup() {
        let mut a = blank();
        a.cycles = 100;
        a.committed = 250;
        let mut b = blank();
        b.cycles = 100;
        b.committed = 200;
        assert_eq!(a.ipc(), 2.5);
        assert_eq!(a.speedup_over(&b), 1.25);
        assert_eq!(a.speedup_over(&blank()), 0.0);
    }

    #[test]
    fn registry_carries_table3_counters_and_round_trips() {
        let mut r = blank();
        r.cycles = 200;
        r.committed = 100;
        r.lsq.commit_violations = 7;
        r.lsq.useless_searches = 11;
        r.lsq.load_load_violations = 3;
        let reg = r.registry("unit test");
        let text = reg.render();
        assert!(text.contains("predictor (Table 3)"));
        assert!(text.contains("commit_violations"));
        assert!(text.contains("useless_searches"));
        assert!(text.contains("load_load_violations"));
        let json = lsq_obs::Json::parse(&reg.to_json().to_string()).unwrap();
        let pred = json.get("predictor (Table 3)").unwrap();
        assert_eq!(
            pred.get("commit_violations")
                .and_then(lsq_obs::Json::as_u64),
            Some(7)
        );
        assert_eq!(
            pred.get("useless_searches").and_then(lsq_obs::Json::as_u64),
            Some(11)
        );
        assert_eq!(
            pred.get("load_load_violations")
                .and_then(lsq_obs::Json::as_u64),
            Some(3)
        );
        assert_eq!(
            json.get("run")
                .and_then(|r| r.get("ipc"))
                .and_then(lsq_obs::Json::as_f64),
            Some(0.5)
        );
    }

    #[test]
    fn branch_rate() {
        let mut r = blank();
        assert_eq!(r.branch_mispredict_rate(), 0.0);
        r.branch_predictions = 10;
        r.branch_mispredictions = 1;
        assert!((r.branch_mispredict_rate() - 0.1).abs() < 1e-12);
    }
}
