//! Event counters collected by the LSQ models.
//!
//! These are the quantities the paper's evaluation reports: search
//! bandwidth demand on each queue (Figures 6 and 8), predictor accuracy
//! (Table 3), and the distribution of segments searched (Table 6).

use lsq_stats::Histogram;

/// Counters accumulated by an [`crate::Lsq`] over a run.
#[derive(Debug, Clone)]
pub struct LsqStats {
    /// Loads allocated into the load queue (dispatch events, including
    /// refetches after squashes).
    pub loads_dispatched: u64,
    /// Stores allocated into the store queue.
    pub stores_dispatched: u64,
    /// Loads that issued to memory (execute events).
    pub loads_issued: u64,
    /// Stores that executed (address generation).
    pub stores_issued: u64,
    /// Stores that committed (wrote the cache).
    pub stores_committed: u64,

    /// Store-queue searches performed by loads (the Figure 6 quantity).
    pub sq_searches: u64,
    /// Store-queue searches that found a forwarding match.
    pub sq_search_hits: u64,
    /// Load-queue searches performed by stores (violation detection),
    /// whether at execute (conventional) or commit (pair scheme).
    pub lq_searches_by_stores: u64,
    /// Load-queue searches performed by loads (load-load ordering) — the
    /// component the load buffer removes (the Figure 8 quantity).
    pub lq_searches_by_loads: u64,
    /// Load-buffer searches (these do not consume load-queue ports).
    pub lb_searches: u64,

    /// Store-load order violations detected (each causes a squash).
    pub violations: u64,
    /// Violations detected at store *commit*, i.e. attributable to the
    /// pair/aggressive predictor having let a dependent load skip its
    /// search (the Table 3 "Squash" numerator).
    pub commit_violations: u64,
    /// Pair-predictor searches that found no matching store (the
    /// unnecessary-search component of Table 3's misprediction rate).
    pub useless_searches: u64,
    /// Load-load ordering violations detected (and squashed) by load or
    /// load-buffer searches (§2.2 scheme 1; only with `load_load_squash`).
    pub load_load_violations: u64,
    /// External invalidations processed (§2.2 scheme 2, R10000-style).
    pub invalidations: u64,
    /// Invalidations that hit an outstanding load and squashed it.
    pub invalidation_squashes: u64,

    /// Loads that could not issue for lack of a store-queue search port.
    pub sq_port_stalls: u64,
    /// Loads/stores that could not issue for lack of a load-queue port.
    pub lq_port_stalls: u64,
    /// Store commits delayed by load-queue port contention (§3.2).
    pub commit_port_delays: u64,
    /// Loads stalled because the load buffer was full.
    pub lb_full_stalls: u64,
    /// Loads stalled by the in-order load-issue policies.
    pub in_order_stalls: u64,
    /// Loads stalled waiting for a store-set-predicted dependence.
    pub store_set_waits: u64,

    /// Distribution of the number of segments searched per store-queue
    /// forwarding search (Table 6). Bucket k = "k+1 segments".
    pub seg_search_hist: Histogram,
}

impl LsqStats {
    /// Creates zeroed counters sized for `segments` segments.
    pub fn new(segments: usize) -> Self {
        Self {
            loads_dispatched: 0,
            stores_dispatched: 0,
            loads_issued: 0,
            stores_issued: 0,
            stores_committed: 0,
            sq_searches: 0,
            sq_search_hits: 0,
            lq_searches_by_stores: 0,
            lq_searches_by_loads: 0,
            lb_searches: 0,
            violations: 0,
            commit_violations: 0,
            useless_searches: 0,
            load_load_violations: 0,
            invalidations: 0,
            invalidation_squashes: 0,
            sq_port_stalls: 0,
            lq_port_stalls: 0,
            commit_port_delays: 0,
            lb_full_stalls: 0,
            in_order_stalls: 0,
            store_set_waits: 0,
            seg_search_hist: Histogram::new(segments.max(1)),
        }
    }

    /// Total load-queue search demand (stores + loads).
    pub fn lq_searches(&self) -> u64 {
        self.lq_searches_by_stores + self.lq_searches_by_loads
    }

    /// Fraction of issued loads that searched the store queue.
    pub fn sq_search_fraction(&self) -> f64 {
        if self.loads_issued == 0 {
            0.0
        } else {
            self.sq_searches as f64 / self.loads_issued as f64
        }
    }

    /// Table 3 "Mispred.": mispredictions (useless searches plus
    /// commit-time violation squashes) per issued load.
    pub fn pair_mispred_rate(&self) -> f64 {
        if self.loads_issued == 0 {
            0.0
        } else {
            (self.useless_searches + self.commit_violations) as f64 / self.loads_issued as f64
        }
    }

    /// Table 3 "Squash": commit-detected violations per issued load.
    pub fn pair_squash_rate(&self) -> f64 {
        if self.loads_issued == 0 {
            0.0
        } else {
            self.commit_violations as f64 / self.loads_issued as f64
        }
    }

    /// Fraction of forwarding searches completing within `k+1` segments.
    pub fn seg_search_fraction(&self, k: usize) -> f64 {
        self.seg_search_hist.fraction(k)
    }

    /// The counters of the sticky issue stalls.
    // lsq-lint: hot
    #[inline]
    pub fn sticky_stalls(&self) -> StickyStalls {
        StickyStalls {
            store_set_waits: self.store_set_waits,
            in_order_stalls: self.in_order_stalls,
            lb_full_stalls: self.lb_full_stalls,
        }
    }
}

/// The counters of the issue stalls that repeat unchanged, retry after
/// retry, until the queues themselves change (see
/// [`crate::LoadIssue::is_sticky`]). Snapshots taken around a cycle's
/// issue stage difference to that cycle's stalls, which
/// [`crate::Lsq::repeat_sticky_stalls`] adds again for a cycle known to
/// repeat it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StickyStalls {
    /// See [`LsqStats::store_set_waits`].
    pub store_set_waits: u64,
    /// See [`LsqStats::in_order_stalls`].
    pub in_order_stalls: u64,
    /// See [`LsqStats::lb_full_stalls`].
    pub lb_full_stalls: u64,
}

impl StickyStalls {
    /// The stalls counted between the `earlier` snapshot and this one.
    // lsq-lint: hot
    #[inline]
    pub fn since(self, earlier: Self) -> Self {
        Self {
            store_set_waits: self.store_set_waits - earlier.store_set_waits,
            in_order_stalls: self.in_order_stalls - earlier.in_order_stalls,
            lb_full_stalls: self.lb_full_stalls - earlier.lb_full_stalls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_on_construction() {
        let s = LsqStats::new(4);
        assert_eq!(s.lq_searches(), 0);
        assert_eq!(s.sq_search_fraction(), 0.0);
        assert_eq!(s.pair_mispred_rate(), 0.0);
        assert_eq!(s.pair_squash_rate(), 0.0);
    }

    #[test]
    fn derived_rates() {
        let mut s = LsqStats::new(4);
        s.loads_issued = 100;
        s.sq_searches = 40;
        s.useless_searches = 10;
        s.commit_violations = 5;
        s.lq_searches_by_stores = 7;
        s.lq_searches_by_loads = 3;
        assert_eq!(s.sq_search_fraction(), 0.4);
        assert_eq!(s.pair_mispred_rate(), 0.15);
        assert_eq!(s.pair_squash_rate(), 0.05);
        assert_eq!(s.lq_searches(), 10);
    }

    #[test]
    fn seg_hist_fractions() {
        let mut s = LsqStats::new(4);
        s.seg_search_hist.record(0);
        s.seg_search_hist.record(0);
        s.seg_search_hist.record(1);
        s.seg_search_hist.record(3);
        assert_eq!(s.seg_search_fraction(0), 0.5);
        assert_eq!(s.seg_search_fraction(3), 0.25);
    }

    #[test]
    fn zero_segment_request_clamps_to_one_bucket() {
        let s = LsqStats::new(0);
        assert_eq!(s.seg_search_fraction(0), 0.0);
    }
}
