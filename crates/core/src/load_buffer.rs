//! The **load buffer** (paper §2.2): a tiny buffer holding only the loads
//! that issued out of order with respect to older, not-yet-issued loads.
//!
//! Only such loads can be victims of a load-load order violation, and the
//! paper measures fewer than 3 of them in flight on average, so a ≤4-entry
//! buffer replaces the whole load queue as the search target for load-load
//! ordering. Bookkeeping follows the paper's implementation:
//!
//! * the **Load Issue Vector (LIV)** — one issued bit per load-queue entry
//!   (here: the `issued` flag on each tracked load);
//! * the **Non-Issued Load Pointer (NILP)** — points at the oldest
//!   non-issued load; it advances over issued loads, and each buffered
//!   load it skips over has its buffer entry *released* (that load can no
//!   longer violate load-load order) and performs its final load-buffer
//!   search.
//!
//! A load that issues while it is the NILP target elides the buffer; a
//! load that issues past the NILP needs a free buffer entry and stalls
//! when the buffer is full (the paper's stall mechanism, analogous to
//! store-set load stalling).

/// Outcome of attempting to issue a load through the load buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbIssue {
    /// The load was the oldest non-issued load: no buffer entry needed.
    /// Carries the number of load-buffer searches performed (its own plus
    /// one per buffered load released by the NILP advancing) and any
    /// load-load ordering violation the search detected.
    InOrder {
        /// Load-buffer searches performed as a result of this issue.
        searches: u32,
        /// Oldest buffered *younger* load to the same word, if any — a
        /// load-load ordering violation victim (paper §2.2: "load E
        /// searches the load buffer and compares its address against the
        /// address of load G").
        violation: Option<u64>,
    },
    /// The load issued out of order and occupies a buffer entry (it also
    /// searched the buffer once); carries any violation victim found.
    Buffered {
        /// Oldest buffered younger load to the same word, if any.
        violation: Option<u64>,
    },
    /// The buffer is full: the load must stall until an entry frees or it
    /// becomes the oldest non-issued load.
    Full,
}

#[derive(Debug, Clone, Copy)]
struct TrackedLoad {
    seq: u64,
    addr: Addr,
    issued: bool,
}

use lsq_isa::Addr;

/// Load-buffer state machine tracking all in-flight loads.
#[derive(Debug, Clone)]
pub struct LoadBuffer {
    capacity: usize,
    loads: std::collections::VecDeque<TrackedLoad>,
    /// Index into `loads` of the NILP target (== `loads.len()` when every
    /// tracked load has issued). Cached so the per-issue NILP lookup does
    /// not rescan the queue.
    nilp_idx: usize,
    /// The buffer itself: `(seq, word)` of each buffered load, in no
    /// particular order and never more than `capacity` of them. The
    /// violation search scans only these.
    buffer: Vec<(u64, u64)>,
    total_searches: u64,
}

impl LoadBuffer {
    /// Creates a load buffer with `capacity` entries. A zero-capacity
    /// buffer forces loads to issue in program order (the paper's
    /// "0-entry" design point).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            loads: std::collections::VecDeque::new(),
            nilp_idx: 0,
            buffer: Vec::with_capacity(capacity),
            total_searches: 0,
        }
    }

    /// Buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of buffer entries currently occupied (= loads currently
    /// issued out of order).
    pub fn occupancy(&self) -> usize {
        self.buffer.len()
    }

    /// Total load-buffer searches performed so far.
    pub fn searches(&self) -> u64 {
        self.total_searches
    }

    /// Registers a dispatched load and its (oracle) address. Loads must
    /// be registered in program order.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `seq` is not younger than every tracked load.
    // lsq-lint: hot
    pub fn on_dispatch(&mut self, seq: u64, addr: Addr) {
        debug_assert!(self.loads.back().is_none_or(|l| l.seq < seq));
        self.loads.push_back(TrackedLoad {
            seq,
            addr,
            issued: false,
        });
    }

    /// Oldest *buffered* load younger than `seq` reading the same word —
    /// the load-load ordering violation the buffer search detects.
    // lsq-lint: hot
    fn violation_victim(&self, seq: u64, addr: Addr) -> Option<u64> {
        let word = addr.word();
        self.buffer
            .iter()
            .filter(|&&(s, w)| s > seq && w == word)
            .map(|&(s, _)| s)
            .min()
    }

    /// The NILP: sequence number of the oldest non-issued load.
    pub fn nilp(&self) -> Option<u64> {
        self.loads.get(self.nilp_idx).map(|l| l.seq)
    }

    // lsq-lint: hot
    fn index_of(&self, seq: u64) -> Option<usize> {
        self.loads.binary_search_by_key(&seq, |l| l.seq).ok()
    }

    /// Attempts to issue the load `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never dispatched or has already issued.
    // lsq-lint: hot
    pub fn try_issue(&mut self, seq: u64) -> LbIssue {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "loads are registered at dispatch; a missing entry is pipeline bookkeeping corruption — fail loudly rather than skew results")
        let idx = self.index_of(seq).expect("load was dispatched");
        assert!(!self.loads[idx].issued, "load already issued");

        // lsq-lint: allow(no-unwrap-in-lib, reason = "try_issue's caller established an unissued load exists, so the NILP scan finds one")
        let nilp = self.nilp().expect("an unissued load exists");
        let addr = self.loads[idx].addr;
        if nilp == seq {
            // The NILP target issues: search the buffer (detecting any
            // younger same-word load issued out of order), then advance
            // the NILP over already-issued loads, releasing their entries.
            let violation = self.violation_victim(seq, addr);
            self.loads[idx].issued = true;
            let mut searches = 1u32;
            self.nilp_idx += 1;
            while let Some(l) = self.loads.get_mut(self.nilp_idx) {
                if !l.issued {
                    break;
                }
                if release(&mut self.buffer, l.seq) {
                    // The released load performs its final buffer search.
                    searches += 1;
                }
                self.nilp_idx += 1;
            }
            self.total_searches += u64::from(searches);
            LbIssue::InOrder {
                searches,
                violation,
            }
        } else {
            if self.buffer.len() == self.capacity {
                return LbIssue::Full;
            }
            let violation = self.violation_victim(seq, addr);
            self.loads[idx].issued = true;
            self.buffer.push((seq, addr.word()));
            self.total_searches += 1;
            LbIssue::Buffered { violation }
        }
    }

    /// Removes the oldest tracked load at commit.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not the oldest tracked load.
    pub fn on_commit(&mut self, seq: u64) {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "in-order commit retires only loads the buffer tracked at dispatch")
        let front = self.loads.pop_front().expect("commit of untracked load");
        assert_eq!(front.seq, seq, "loads commit in program order");
        // A buffered front load is unreachable in a well-formed pipeline
        // (all older loads have committed, so the NILP passed this load),
        // but release defensively so capacity can never leak.
        release(&mut self.buffer, seq);
        if self.nilp_idx > 0 {
            self.nilp_idx -= 1;
        } else {
            // Committing an unissued front is likewise unreachable, but
            // re-derive the cached NILP defensively if it happens.
            self.nilp_idx = self.loads.iter().take_while(|l| l.issued).count();
        }
    }

    /// Squashes every tracked load with sequence number `>= seq`.
    pub fn squash_from(&mut self, seq: u64) {
        while let Some(back) = self.loads.back() {
            if back.seq < seq {
                break;
            }
            self.loads.pop_back();
        }
        self.buffer.retain(|&(s, _)| s < seq);
        self.nilp_idx = self.nilp_idx.min(self.loads.len());
    }

    /// Number of loads currently tracked (in flight).
    pub fn in_flight(&self) -> usize {
        self.loads.len()
    }
}

/// Frees the buffer entry of load `seq`; returns whether it had one.
fn release(buffer: &mut Vec<(u64, u64)>, seq: u64) -> bool {
    let held = buffer.iter().position(|&(s, _)| s == seq);
    if let Some(i) = held {
        buffer.swap_remove(i);
    }
    held.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    use lsq_isa::Addr;

    /// Builds a buffer with loads 0..n dispatched, each to its own word.
    fn with_loads(capacity: usize, n: u64) -> LoadBuffer {
        let mut lb = LoadBuffer::new(capacity);
        for seq in 0..n {
            lb.on_dispatch(seq, Addr(0x1000 + seq * 8));
        }
        lb
    }

    #[test]
    fn in_order_issue_never_buffers() {
        let mut lb = with_loads(2, 3);
        for seq in 0..3 {
            assert!(matches!(
                lb.try_issue(seq),
                LbIssue::InOrder { searches: 1, .. }
            ));
        }
        assert_eq!(lb.occupancy(), 0);
        assert_eq!(lb.searches(), 3);
    }

    #[test]
    fn out_of_order_issue_buffers() {
        let mut lb = with_loads(2, 3);
        assert_eq!(lb.nilp(), Some(0));
        assert!(matches!(lb.try_issue(2), LbIssue::Buffered { .. }));
        assert_eq!(lb.occupancy(), 1);
        assert_eq!(
            lb.nilp(),
            Some(0),
            "NILP stays at the oldest non-issued load"
        );
    }

    #[test]
    fn paper_figure4_scenario() {
        // Loads A..G = seq 0..7; E (4) and G (6) issue out of order while
        // C (2) and D (3) are unissued; A and B have issued in order.
        let mut lb = with_loads(4, 7);
        assert!(matches!(lb.try_issue(0), LbIssue::InOrder { .. }));
        assert!(matches!(lb.try_issue(1), LbIssue::InOrder { .. }));
        assert!(matches!(lb.try_issue(4), LbIssue::Buffered { .. })); // E
        assert!(matches!(lb.try_issue(6), LbIssue::Buffered { .. })); // G
        assert_eq!(lb.occupancy(), 2);
        assert_eq!(lb.nilp(), Some(2));
        // C issues in order: searches the buffer (E, G still buffered).
        assert!(matches!(
            lb.try_issue(2),
            LbIssue::InOrder { searches: 1, .. }
        ));
        assert_eq!(lb.occupancy(), 2, "E still has older non-issued D");
        // D issues: NILP advances past E (releasing it, +1 search) and
        // stops at F (5, unissued).
        assert!(matches!(
            lb.try_issue(3),
            LbIssue::InOrder { searches: 2, .. }
        ));
        assert_eq!(lb.occupancy(), 1, "only G remains buffered");
        // F issues: NILP passes G, releasing it.
        assert!(matches!(
            lb.try_issue(5),
            LbIssue::InOrder { searches: 2, .. }
        ));
        assert_eq!(lb.occupancy(), 0);
    }

    #[test]
    fn full_buffer_stalls_then_frees() {
        let mut lb = with_loads(1, 4);
        assert!(matches!(lb.try_issue(2), LbIssue::Buffered { .. }));
        assert_eq!(lb.try_issue(3), LbIssue::Full);
        assert_eq!(lb.occupancy(), 1);
        // Load 0 issues (NILP target); NILP advances to 1; load 2 still
        // buffered because load 1 is unissued.
        assert!(matches!(
            lb.try_issue(0),
            LbIssue::InOrder { searches: 1, .. }
        ));
        assert_eq!(lb.try_issue(3), LbIssue::Full);
        // Load 1 issues; NILP passes 2 (released) and stops at 3.
        assert!(matches!(
            lb.try_issue(1),
            LbIssue::InOrder { searches: 2, .. }
        ));
        assert!(matches!(
            lb.try_issue(3),
            LbIssue::InOrder { searches: 1, .. }
        ));
    }

    #[test]
    fn zero_capacity_forces_program_order() {
        let mut lb = with_loads(0, 2);
        assert_eq!(lb.try_issue(1), LbIssue::Full);
        assert!(matches!(lb.try_issue(0), LbIssue::InOrder { .. }));
        assert!(matches!(lb.try_issue(1), LbIssue::InOrder { .. }));
    }

    #[test]
    fn commit_removes_oldest() {
        let mut lb = with_loads(2, 2);
        lb.try_issue(0);
        lb.on_commit(0);
        assert_eq!(lb.in_flight(), 1);
        assert_eq!(lb.nilp(), Some(1));
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_commit_panics() {
        let mut lb = with_loads(2, 2);
        lb.on_commit(1);
    }

    #[test]
    fn squash_releases_buffer_entries() {
        let mut lb = with_loads(2, 4);
        lb.try_issue(2);
        lb.try_issue(3);
        assert_eq!(lb.occupancy(), 2);
        lb.squash_from(3);
        assert_eq!(lb.occupancy(), 1);
        assert_eq!(lb.in_flight(), 3);
        lb.squash_from(0);
        assert_eq!(lb.occupancy(), 0);
        assert_eq!(lb.in_flight(), 0);
        assert_eq!(lb.nilp(), None);
    }

    #[test]
    fn squash_then_redispatch_same_seq() {
        let mut lb = with_loads(1, 3);
        lb.try_issue(1);
        lb.squash_from(1);
        lb.on_dispatch(1, Addr(0x1008));
        lb.on_dispatch(2, Addr(0x1010));
        assert_eq!(lb.nilp(), Some(0));
        assert!(
            matches!(lb.try_issue(1), LbIssue::Buffered { .. }),
            "buffer entry was freed by squash"
        );
    }

    #[test]
    #[should_panic(expected = "dispatched")]
    fn issue_of_unknown_load_panics() {
        let mut lb = LoadBuffer::new(2);
        lb.try_issue(0);
    }

    #[test]
    fn occupancy_counts_only_out_of_order_issued() {
        // Matches the paper's Table 4 metric: loads issued while an older
        // load is still unissued.
        let mut lb = with_loads(4, 5);
        lb.try_issue(0);
        lb.try_issue(4);
        lb.try_issue(2);
        assert_eq!(lb.occupancy(), 2);
    }
}
