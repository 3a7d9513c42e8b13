//! Heap-free structures of the event scheduler, all indexed by ROB slot
//! ([`lsq_util::RingQueue::slot`]), so they share the ROB's mapping and
//! hold no per-instruction allocation:
//!
//! * [`ReadySet`], a bitmap of the slots whose instruction may issue;
//! * [`Wheel`], a timing-wheel calendar of future wakeups;
//! * [`Waiters`], intrusive per-producer lists of waiting consumers.
//!
//! DESIGN.md §4 ("Event scheduler layout") gives the invariants the
//! simulator relies on: program-order bitmap scans, the wheel horizon,
//! and youngest-first waiter lists.

/// A bitmap over ROB slots.
#[derive(Debug)]
pub(crate) struct ReadySet {
    words: Vec<u64>,
}

impl ReadySet {
    /// An empty set over `slots` slots.
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    pub(crate) fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    /// The lowest set slot in `from..end`, skipping zero words.
    // lsq-lint: hot
    #[inline]
    pub(crate) fn next_in(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.words[w] & (!0 << (from % 64));
        loop {
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                return (slot < end).then_some(slot);
            }
            w += 1;
            if w * 64 >= end {
                return None;
            }
            bits = self.words[w];
        }
    }
}

/// A timing wheel: bucket `at & mask` holds the seqs that wake at cycle
/// `at`. Every wakeup lies at most `horizon` cycles ahead and the wheel
/// has more than `horizon` buckets, so a bucket is drained exactly at the
/// cycle its entries name.
#[derive(Debug)]
pub(crate) struct Wheel {
    buckets: Vec<Vec<u64>>,
    mask: u64,
    horizon: u64,
}

impl Wheel {
    /// A wheel for wakeups up to `horizon` cycles ahead. Buckets start
    /// unallocated and keep their capacity once they have grown.
    pub(crate) fn new(horizon: u64) -> Self {
        let n = (horizon + 1).next_power_of_two();
        Self {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            mask: n - 1,
            horizon,
        }
    }

    /// Files `seq` to wake at cycle `at`, seen from cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not in the future or lies beyond the horizon:
    /// the entry would be drained at the wrong cycle.
    // lsq-lint: hot
    #[inline]
    pub(crate) fn schedule(&mut self, now: u64, at: u64, seq: u64) {
        assert!(
            at > now && at - now <= self.horizon,
            "wakeup at cycle {at} from cycle {now} is outside the {}-cycle wheel horizon",
            self.horizon
        );
        self.buckets[(at & self.mask) as usize].push(seq);
    }

    /// Whether nothing is filed for cycle `now`. Only meaningful for a
    /// cycle whose bucket has not been drained yet (the bucket also
    /// serves every cycle a multiple of the wheel size away).
    // lsq-lint: hot
    #[inline]
    pub(crate) fn is_empty_at(&self, now: u64) -> bool {
        self.buckets[(now & self.mask) as usize].is_empty()
    }

    /// Hands every seq filed for cycle `now` to `f` and empties the
    /// bucket.
    // lsq-lint: hot
    #[inline]
    pub(crate) fn drain(&mut self, now: u64, mut f: impl FnMut(u64)) {
        let bucket = &mut self.buckets[(now & self.mask) as usize];
        for &seq in bucket.iter() {
            f(seq);
        }
        bucket.clear();
    }

    /// Drops every entry for a seq at or above `victim` (a squash).
    pub(crate) fn retain_below(&mut self, victim: u64) {
        for bucket in &mut self.buckets {
            bucket.retain(|&s| s < victim);
        }
    }
}

/// End-of-list marker for [`Waiters`].
pub(crate) const NIL: u32 = u32::MAX;

/// One intrusive list of consumers per producer slot. A node is
/// `consumer_slot * 2 + dep_index`: each consumer has one node per source
/// operand, so a consumer waits in at most two lists and nodes never need
/// allocating. New nodes link at the front, so a list built in dispatch
/// order runs youngest consumer first.
#[derive(Debug)]
pub(crate) struct Waiters {
    /// First node of each producer slot's list.
    head: Vec<u32>,
    /// Next node in the same list.
    next: Vec<u32>,
    /// Consumer seq of each node.
    consumer: Vec<u64>,
}

impl Waiters {
    /// Empty lists for `slots` producer slots.
    pub(crate) fn new(slots: usize) -> Self {
        assert!(
            2 * slots < NIL as usize,
            "{slots} slots overflow u32 node ids"
        );
        Self {
            head: vec![NIL; slots],
            next: vec![NIL; 2 * slots],
            consumer: vec![0; 2 * slots],
        }
    }

    /// Links operand `dep` of consumer `seq` (in `slot`) at the front of
    /// `producer`'s list.
    // lsq-lint: hot
    #[inline]
    pub(crate) fn push(&mut self, producer: usize, slot: usize, dep: usize, seq: u64) {
        let node = (2 * slot + dep) as u32;
        self.next[node as usize] = self.head[producer];
        self.consumer[node as usize] = seq;
        self.head[producer] = node;
    }

    /// First node of `producer`'s list, or [`NIL`].
    #[inline]
    pub(crate) fn first(&self, producer: usize) -> u32 {
        self.head[producer]
    }

    /// The node after `node`, or [`NIL`].
    #[inline]
    pub(crate) fn next(&self, node: u32) -> u32 {
        self.next[node as usize]
    }

    /// The consumer seq `node` belongs to.
    #[inline]
    pub(crate) fn consumer(&self, node: u32) -> u64 {
        self.consumer[node as usize]
    }

    /// Empties `producer`'s list.
    #[inline]
    pub(crate) fn clear(&mut self, producer: usize) {
        self.head[producer] = NIL;
    }

    /// Unlinks the consumers at or above `victim` from `producer`'s list.
    /// They are all at its front, because the list runs youngest first.
    pub(crate) fn trim(&mut self, producer: usize, victim: u64) {
        let mut n = self.head[producer];
        while n != NIL && self.consumer[n as usize] >= victim {
            n = self.next[n as usize];
        }
        self.head[producer] = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_set_finds_set_bits_across_words() {
        let mut r = ReadySet::new(200);
        for s in [0, 63, 64, 130, 199] {
            r.insert(s);
        }
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(s) = r.next_in(from, 200) {
            seen.push(s);
            from = s + 1;
        }
        assert_eq!(seen, vec![0, 63, 64, 130, 199]);
        assert_eq!(r.next_in(1, 63), None, "end is exclusive");
        assert_eq!(r.next_in(65, 131), Some(130));
        assert_eq!(r.next_in(5, 5), None);
        r.remove(130);
        assert_eq!(r.next_in(65, 200), Some(199));
    }

    #[test]
    fn ready_set_smaller_than_a_word() {
        let mut r = ReadySet::new(32);
        r.insert(31);
        assert_eq!(r.next_in(0, 32), Some(31));
        assert_eq!(r.next_in(0, 31), None);
    }

    #[test]
    fn wheel_drains_each_entry_at_its_cycle() {
        let mut w = Wheel::new(5);
        w.schedule(10, 11, 1);
        w.schedule(10, 15, 2);
        w.schedule(10, 15, 3);
        let mut got = Vec::new();
        for now in 11..=15 {
            w.drain(now, |s| got.push((now, s)));
        }
        assert_eq!(got, vec![(11, 1), (15, 2), (15, 3)]);
        w.schedule(15, 20, 4);
        w.schedule(15, 18, 9);
        w.retain_below(5);
        let mut got = Vec::new();
        for now in 16..=20 {
            w.drain(now, |s| got.push((now, s)));
        }
        assert_eq!(got, vec![(20, 4)]);
    }

    #[test]
    fn wheel_is_empty_at_reports_each_cycle_bucket() {
        let mut w = Wheel::new(5);
        assert!((10..20).all(|now| w.is_empty_at(now)));
        w.schedule(10, 13, 7);
        assert!(w.is_empty_at(11) && w.is_empty_at(12));
        assert!(!w.is_empty_at(13));
        w.drain(13, |_| {});
        assert!(w.is_empty_at(13), "draining empties the bucket");
        w.schedule(10, 15, 8);
        w.retain_below(8);
        assert!(w.is_empty_at(15), "a squash scrub empties the bucket");
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn wheel_rejects_wakeups_beyond_the_horizon() {
        Wheel::new(5).schedule(10, 16, 1);
    }

    #[test]
    fn waiter_lists_run_youngest_first_and_trim_from_the_front() {
        let mut w = Waiters::new(8);
        // Consumers 5, 6 (both operands) and 7 wait on producer slot 1.
        w.push(1, 5, 0, 5);
        w.push(1, 6, 0, 6);
        w.push(1, 6, 1, 6);
        w.push(1, 7, 1, 7);
        let list = |w: &Waiters| {
            let mut v = Vec::new();
            let mut n = w.first(1);
            while n != NIL {
                v.push(w.consumer(n));
                n = w.next(n);
            }
            v
        };
        assert_eq!(list(&w), vec![7, 6, 6, 5]);
        w.trim(1, 6);
        assert_eq!(list(&w), vec![5]);
        w.clear(1);
        assert_eq!(list(&w), Vec::<u64>::new());
    }
}
