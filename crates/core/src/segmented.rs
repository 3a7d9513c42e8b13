//! Segmentation machinery (paper §3): segment allocation strategies and
//! the pipelined search-port book.
//!
//! A segmented queue is a chain of small queues. Searches proceed one
//! segment per cycle (toward the head for forwarding searches, toward the
//! tail for violation searches) and each segment has its own search
//! ports, so distinct segments can serve different searches in the same
//! cycle — that is where segmentation's extra aggregate bandwidth comes
//! from, and where its extra latency and port contention come from.
//!
//! [`SegmentedAlloc`] implements the two §3.1 allocation strategies.
//! An unsegmented queue is the degenerate single-segment case.
//!
//! [`PortBook`] tracks port reservations over a sliding window of future
//! cycles: a k-segment search books one port in segment `s_i` at cycle
//! `t + i` for each step, all-or-nothing. A failed booking means the
//! searcher must wait (delayed store commit / stalled load issue — the
//! paper's §3.2 contention resolutions).

use crate::config::SegAlloc;
use std::collections::VecDeque;

/// Where an entry landed: its segment and (for the ring strategy) slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Segment index in `0..segments`.
    pub segment: usize,
    /// Slot index within the whole structure (ring strategy) — needed to
    /// free the exact slot later. Self-circular uses only per-segment
    /// counts and stores the segment here redundantly.
    pub slot: usize,
}

/// Allocation state for one segmented queue.
#[derive(Debug, Clone)]
pub struct SegmentedAlloc {
    segments: usize,
    per_segment: usize,
    alloc: SegAlloc,
    /// Ring strategy: occupancy of each physical slot.
    slots: Vec<bool>,
    /// Ring strategy: next slot to try.
    tail_pos: usize,
    /// Self-circular: free entries per segment.
    free: Vec<usize>,
    /// Self-circular: segment currently receiving allocations.
    cur_seg: usize,
    occupied: usize,
}

impl SegmentedAlloc {
    /// Creates an empty allocator.
    ///
    /// # Panics
    ///
    /// Panics if `segments` or `per_segment` is zero.
    pub fn new(segments: usize, per_segment: usize, alloc: SegAlloc) -> Self {
        assert!(segments > 0 && per_segment > 0, "empty segmented queue");
        Self {
            segments,
            per_segment,
            alloc,
            slots: vec![false; segments * per_segment],
            tail_pos: 0,
            free: vec![per_segment; segments],
            cur_seg: 0,
            occupied: 0,
        }
    }

    /// An unsegmented queue of `capacity` entries (one segment).
    pub fn unsegmented(capacity: usize) -> Self {
        Self::new(1, capacity, SegAlloc::SelfCircular)
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.segments * self.per_segment
    }

    /// Entries currently allocated.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Whether an allocation would currently succeed.
    pub fn can_allocate(&self) -> bool {
        match self.alloc {
            // The ring stalls when the slot at the tail position is still
            // live, even if other slots are free.
            SegAlloc::NoSelfCircular => !self.slots[self.tail_pos],
            SegAlloc::SelfCircular => self.occupied < self.capacity(),
        }
    }

    /// Allocates a slot for a new (youngest) entry, or `None` when the
    /// strategy cannot place it.
    pub fn allocate(&mut self) -> Option<Placement> {
        match self.alloc {
            SegAlloc::NoSelfCircular => {
                if self.slots[self.tail_pos] {
                    return None;
                }
                let slot = self.tail_pos;
                self.slots[slot] = true;
                self.tail_pos = (self.tail_pos + 1) % self.slots.len();
                self.occupied += 1;
                Some(Placement {
                    segment: slot / self.per_segment,
                    slot,
                })
            }
            SegAlloc::SelfCircular => {
                // Stay in the current segment while it has free entries;
                // otherwise move to the next segment in chain order.
                for step in 0..self.segments {
                    let seg = (self.cur_seg + step) % self.segments;
                    if self.free[seg] > 0 {
                        self.free[seg] -= 1;
                        self.cur_seg = seg;
                        self.occupied += 1;
                        return Some(Placement {
                            segment: seg,
                            slot: seg * self.per_segment,
                        });
                    }
                }
                None
            }
        }
    }

    /// Frees a previously allocated placement (at commit or squash).
    pub fn free(&mut self, p: Placement) {
        match self.alloc {
            SegAlloc::NoSelfCircular => {
                debug_assert!(self.slots[p.slot], "double free of slot {}", p.slot);
                self.slots[p.slot] = false;
            }
            SegAlloc::SelfCircular => {
                debug_assert!(self.free[p.segment] < self.per_segment, "double free");
                self.free[p.segment] += 1;
            }
        }
        self.occupied -= 1;
    }

    /// After a squash, rewinds the allocation cursor so refetched
    /// instructions are placed where the squashed ones were.
    /// `youngest_surviving` is the placement of the youngest entry still
    /// allocated, or `None` when the queue emptied.
    pub fn rewind_after_squash(
        &mut self,
        oldest_squashed: Option<Placement>,
        youngest_surviving: Option<Placement>,
    ) {
        match self.alloc {
            SegAlloc::NoSelfCircular => {
                if let Some(p) = oldest_squashed {
                    self.tail_pos = p.slot;
                }
            }
            SegAlloc::SelfCircular => {
                self.cur_seg = youngest_surviving.map_or(0, |p| p.segment);
            }
        }
    }
}

/// Port reservations over a sliding window of future cycles.
///
/// `window[offset][segment]` counts ports already booked for cycle
/// `now + offset` in that segment. The window is as deep as the segment
/// chain, the longest possible pipelined search.
///
/// The book also keeps its reservation horizon: the number of leading
/// rows that may hold a booking, i.e. one past the farthest booked
/// offset, and 0 when nothing is booked. It is a counter, raised by a
/// booking and lowered by each cycle, so asking whether anything is
/// booked for a later cycle is O(1).
#[derive(Debug, Clone)]
pub struct PortBook {
    ports: usize,
    window: VecDeque<Vec<usize>>,
    horizon: usize,
}

impl PortBook {
    /// Creates a book for a queue with `segments` segments and `ports`
    /// search ports per segment.
    ///
    /// # Panics
    ///
    /// Panics if `ports` or `segments` is zero.
    pub fn new(segments: usize, ports: usize) -> Self {
        assert!(
            ports > 0 && segments > 0,
            "ports and segments must be non-zero"
        );
        Self {
            ports,
            window: (0..segments).map(|_| vec![0; segments]).collect(),
            horizon: 0,
        }
    }

    /// Advances to the next cycle: reservations for the old current cycle
    /// expire and a fresh farthest-future cycle opens. The expired row is
    /// recycled as the new one, so this runs every simulated cycle without
    /// allocating; an empty book has nothing to shift.
    // lsq-lint: hot
    pub fn begin_cycle(&mut self) {
        if self.horizon == 0 {
            return;
        }
        self.horizon -= 1;
        // lsq-lint: allow(no-unwrap-in-lib, reason = "the sliding window always holds at least the current segment row")
        let mut row = self.window.pop_front().expect("window is never empty");
        row.fill(0);
        self.window.push_back(row);
    }

    /// The reservation horizon: one past the farthest cycle offset that
    /// may hold a booking (0 = nothing booked, 1 = only the current
    /// cycle). A search of `k` segments raises it to at least `k`, and
    /// each [`Self::begin_cycle`] lowers it by one.
    // lsq-lint: hot
    #[inline]
    pub(crate) fn horizon(&self) -> usize {
        self.horizon
    }

    /// Ports still free in `segment` this cycle.
    pub fn free_now(&self, segment: usize) -> usize {
        self.ports - self.window[0][segment]
    }

    /// Whether `segment` has a port free at cycle offset `offset` (no
    /// state change). A path fits exactly when every `(i, path[i])` slot
    /// is free, so a search can check its segments one at a time as it
    /// builds the path and give up at the first busy one.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not below the segment count or `segment` is
    /// out of range.
    #[inline]
    pub fn slot_free(&self, offset: usize, segment: usize) -> bool {
        self.window[offset][segment] < self.ports
    }

    /// Whether a pipelined search touching `path[i]` at cycle offset `i`
    /// could be booked right now (no state change).
    ///
    /// # Panics
    ///
    /// Panics if the path is longer than the window (searches are at most
    /// `segments` long) or names an out-of-range segment.
    pub fn can_book(&self, path: &[usize]) -> bool {
        assert!(
            path.len() <= self.window.len(),
            "search longer than segment chain"
        );
        path.iter()
            .enumerate()
            .all(|(offset, &seg)| self.slot_free(offset, seg))
    }

    /// Books a search previously checked with [`Self::can_book`].
    ///
    /// # Panics
    ///
    /// Panics if any slot on the path is already full.
    pub fn book(&mut self, path: &[usize]) {
        assert!(self.can_book(path), "booking an unavailable path");
        for (offset, &seg) in path.iter().enumerate() {
            self.window[offset][seg] += 1;
        }
        self.horizon = self.horizon.max(path.len());
    }

    /// Attempts to book a pipelined search touching `path[i]` at cycle
    /// offset `i`. All-or-nothing: on any full slot, nothing is booked and
    /// `false` is returned.
    ///
    /// # Panics
    ///
    /// Panics if the path is longer than the window (searches are at most
    /// `segments` long) or names an out-of-range segment.
    pub fn try_book(&mut self, path: &[usize]) -> bool {
        if !self.can_book(path) {
            return false;
        }
        self.book(path);
        true
    }

    /// Clears all reservations. The simulator never calls this: a
    /// squash leaves the bookings of searches already under way in
    /// place, as their ports stay busy.
    pub fn clear(&mut self) {
        for cycle in &mut self.window {
            cycle.fill(0);
        }
        self.horizon = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod no_self_circular {
        use super::*;

        #[test]
        fn fills_segments_linearly() {
            let mut a = SegmentedAlloc::new(2, 2, SegAlloc::NoSelfCircular);
            let p: Vec<_> = (0..4).map(|_| a.allocate().unwrap()).collect();
            assert_eq!(
                p.iter().map(|p| p.segment).collect::<Vec<_>>(),
                [0, 0, 1, 1]
            );
            assert!(!a.can_allocate());
            assert!(a.allocate().is_none());
        }

        #[test]
        fn ring_stalls_on_live_tail_slot_despite_free_space() {
            // The defining property of no-self-circular: allocation moves
            // linearly even when earlier slots have freed, so a freed
            // *middle* slot does not help.
            let mut a = SegmentedAlloc::new(2, 2, SegAlloc::NoSelfCircular);
            let p0 = a.allocate().unwrap();
            let _p1 = a.allocate().unwrap();
            let _p2 = a.allocate().unwrap();
            let p3 = a.allocate().unwrap();
            // Free slot 0 (head commits) but not the others.
            a.free(p0);
            // Tail wrapped to slot 0, which is now free: allocate there.
            let p4 = a.allocate().unwrap();
            assert_eq!(p4.slot, 0);
            assert_eq!(p4.segment, 0);
            // Next tail slot (1) is still live: stall despite slot 0 - er,
            // despite capacity existing only at... nowhere else. Free p3
            // and confirm the ring still stalls because tail points at 1.
            a.free(p3);
            assert!(
                !a.can_allocate(),
                "ring blocked on live slot 1 though slot 3 is free"
            );
        }

        #[test]
        fn spreads_small_footprint_across_two_segments() {
            // The paper's Table 5 explanation: a working set that fits in
            // one segment still straddles two under no-self-circular.
            let mut a = SegmentedAlloc::new(4, 4, SegAlloc::NoSelfCircular);
            // Steady state: 4 in flight, alternating allocate/free.
            let mut live = VecDeque::new();
            for _ in 0..4 {
                live.push_back(a.allocate().unwrap());
            }
            let mut segments_used = std::collections::HashSet::new();
            for _ in 0..32 {
                let old = live.pop_front().unwrap();
                a.free(old);
                let new = a.allocate().unwrap();
                segments_used.insert(new.segment);
                live.push_back(new);
            }
            assert!(
                segments_used.len() >= 2,
                "entries should spread across segments"
            );
        }

        #[test]
        fn rewind_resets_tail_to_squash_point() {
            let mut a = SegmentedAlloc::new(2, 2, SegAlloc::NoSelfCircular);
            let _p0 = a.allocate().unwrap();
            let p1 = a.allocate().unwrap();
            let p2 = a.allocate().unwrap();
            // Squash the two youngest.
            a.free(p2);
            a.free(p1);
            a.rewind_after_squash(
                Some(p1),
                Some(Placement {
                    segment: 0,
                    slot: 0,
                }),
            );
            let again = a.allocate().unwrap();
            assert_eq!(again.slot, p1.slot, "refetch reuses the squashed slot");
        }
    }

    mod self_circular {
        use super::*;

        #[test]
        fn compacts_into_one_segment_while_space_frees() {
            // The defining property of self-circular: a small working set
            // stays in segment 0 forever.
            let mut a = SegmentedAlloc::new(4, 4, SegAlloc::SelfCircular);
            let mut live = VecDeque::new();
            for _ in 0..3 {
                live.push_back(a.allocate().unwrap());
            }
            for _ in 0..32 {
                let old = live.pop_front().unwrap();
                a.free(old);
                let new = a.allocate().unwrap();
                assert_eq!(new.segment, 0, "small footprint never leaves segment 0");
                live.push_back(new);
            }
        }

        #[test]
        fn overflows_to_next_segment_only_when_full() {
            let mut a = SegmentedAlloc::new(2, 2, SegAlloc::SelfCircular);
            assert_eq!(a.allocate().unwrap().segment, 0);
            assert_eq!(a.allocate().unwrap().segment, 0);
            assert_eq!(a.allocate().unwrap().segment, 1);
            assert_eq!(a.allocate().unwrap().segment, 1);
            assert!(a.allocate().is_none());
        }

        #[test]
        fn uses_full_capacity_unlike_ring() {
            let mut a = SegmentedAlloc::new(2, 2, SegAlloc::SelfCircular);
            let p0 = a.allocate().unwrap();
            let _ = a.allocate().unwrap();
            let _ = a.allocate().unwrap();
            let _ = a.allocate().unwrap();
            a.free(p0);
            assert!(a.can_allocate());
            // Freed entry in segment 0 is reused (allocation wraps around
            // the chain back to the segment with space).
            let p = a.allocate().unwrap();
            assert_eq!(p.segment, 0);
        }

        #[test]
        fn rewind_returns_to_surviving_segment() {
            let mut a = SegmentedAlloc::new(2, 2, SegAlloc::SelfCircular);
            let p0 = a.allocate().unwrap();
            let p1 = a.allocate().unwrap();
            let p2 = a.allocate().unwrap();
            assert_eq!(p2.segment, 1);
            // Squash the two youngest; only p0 (segment 0) survives.
            a.free(p2);
            a.free(p1);
            a.rewind_after_squash(Some(p1), Some(p0));
            assert_eq!(
                a.allocate().unwrap().segment,
                0,
                "allocation resumes in segment 0"
            );
        }
    }

    mod port_book {
        use super::*;

        #[test]
        fn single_segment_single_port() {
            let mut b = PortBook::new(1, 1);
            assert!(b.try_book(&[0]));
            assert!(!b.try_book(&[0]), "port exhausted this cycle");
            b.begin_cycle();
            assert!(b.try_book(&[0]));
        }

        #[test]
        fn pipelined_searches_in_different_segments_coexist() {
            // The paper's Figure 5 example: segment 1 serves two store
            // searches while segment 3 serves two load searches, all in
            // the same cycle, on a 2-ported queue.
            let mut b = PortBook::new(4, 2);
            assert!(b.try_book(&[0, 1]));
            assert!(b.try_book(&[0, 1]));
            assert!(b.try_book(&[2, 3]));
            assert!(b.try_book(&[2, 3]));
            // Segment 0 is now full this cycle.
            assert!(!b.try_book(&[0]));
            // But a search starting elsewhere is fine.
            assert!(b.try_book(&[3]));
        }

        #[test]
        fn booking_is_all_or_nothing() {
            let mut b = PortBook::new(2, 1);
            assert!(b.try_book(&[0, 1]));
            // This wants segment 1 at offset 1, which is taken.
            assert!(!b.try_book(&[1, 1]));
            // Offset-0 use of segment 1 must NOT have been recorded by the
            // failed attempt.
            assert!(b.try_book(&[1]));
        }

        #[test]
        fn future_reservations_shift_with_cycles() {
            let mut b = PortBook::new(2, 1);
            assert!(b.try_book(&[0, 1])); // books seg1 at offset 1
            b.begin_cycle();
            // The seg1 reservation is now at offset 0.
            assert!(!b.try_book(&[1]));
            assert!(b.try_book(&[0]));
            b.begin_cycle();
            assert!(b.try_book(&[1]));
        }

        #[test]
        fn contention_scenario_from_section_3_2() {
            // Two stores start a violation search in segment 0 at t; a
            // load wants segment 1 at t+1 where the stores will be.
            let mut b = PortBook::new(2, 2);
            assert!(b.try_book(&[0, 1]));
            assert!(b.try_book(&[0, 1]));
            // Loads issuing from segment 1 next cycle collide at offset 1.
            assert!(b.try_book(&[1])); // this cycle is fine
            b.begin_cycle();
            // Both ports of segment 1 are taken by the arriving stores.
            assert!(!b.try_book(&[1]));
        }

        #[test]
        fn three_segment_booking_holds_the_horizon_for_two_cycles() {
            let mut b = PortBook::new(4, 1);
            assert_eq!(b.horizon(), 0);
            b.begin_cycle();
            assert_eq!(b.horizon(), 0, "an empty book stays empty");
            assert!(b.try_book(&[2, 1, 0]));
            assert!(b.try_book(&[3]));
            assert_eq!(b.horizon(), 3);
            b.begin_cycle();
            assert_eq!(b.horizon(), 2);
            assert!(!b.slot_free(0, 1), "offset 1 became the current cycle");
            b.begin_cycle();
            assert_eq!(b.horizon(), 1);
            assert!(!b.slot_free(0, 0));
            b.begin_cycle();
            assert_eq!(b.horizon(), 0, "the booking has fully expired");
            assert!((0..4).all(|off| (0..4).all(|seg| b.slot_free(off, seg))));
            assert!(b.try_book(&[1, 2]));
            b.clear();
            assert_eq!(b.horizon(), 0);
        }

        #[test]
        fn clear_releases_everything() {
            let mut b = PortBook::new(2, 1);
            assert!(b.try_book(&[0]));
            assert!(b.try_book(&[1, 0]));
            b.clear();
            assert!(b.try_book(&[0]));
            assert!(b.try_book(&[1, 0]));
        }

        #[test]
        #[should_panic(expected = "longer than segment chain")]
        fn overlong_path_panics() {
            let mut b = PortBook::new(2, 1);
            let _ = b.try_book(&[0, 1, 0]);
        }

        #[test]
        fn free_now_reports_remaining_ports() {
            let mut b = PortBook::new(2, 2);
            assert_eq!(b.free_now(0), 2);
            b.try_book(&[0]);
            assert_eq!(b.free_now(0), 1);
            assert_eq!(b.free_now(1), 2);
        }
    }
}
