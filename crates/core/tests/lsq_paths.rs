//! Differential test: the [`Lsq`] search paths against a plain O(queue)
//! reference, on segmented, port-limited queues.
//!
//! `lsq_oracle.rs` checks forwarding and violation victims against a
//! shadow model, but only on unsegmented queues with ports to spare. The
//! reference here is the straightforward implementation the packed,
//! early-exit queues replaced: every search filters the whole queue of
//! entry structs, builds its full segment path, and only then asks the
//! port book whether the path fits. Random sequences of dispatch, issue,
//! retire, drain, squash, invalidation and cycle boundaries are replayed
//! against both, and after every step every outcome (including
//! `extra_cycles` and `early_wakeup`), the full `LsqStats` with its
//! segment histogram, and the load-order bookkeeping must agree.

use lsq_core::{
    LbIssue, LoadIssue, LoadIssued, LoadOrderPolicy, Lsq, LsqConfig, LsqStats, Placement, PortBook,
    PredictorKind, SegAlloc, SegConfig, SegmentedAlloc, Ssid, StoreDrain, StoreIssue,
    StoreSetPredictor,
};
use lsq_isa::{Addr, Pc};
use proptest::prelude::*;
use std::collections::VecDeque;

// ----------------------------------------------------------------------
// Reference model: whole-queue scans over entry structs.
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct TrackedLoad {
    seq: u64,
    addr: Addr,
    issued: bool,
    buffered: bool,
}

/// Load buffer whose violation search filters every tracked load.
#[derive(Debug, Clone)]
struct RefLoadBuffer {
    capacity: usize,
    loads: VecDeque<TrackedLoad>,
    nilp_idx: usize,
    buffered: usize,
}

impl RefLoadBuffer {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            loads: VecDeque::new(),
            nilp_idx: 0,
            buffered: 0,
        }
    }

    fn on_dispatch(&mut self, seq: u64, addr: Addr) {
        self.loads.push_back(TrackedLoad {
            seq,
            addr,
            issued: false,
            buffered: false,
        });
    }

    fn violation_victim(&self, seq: u64, addr: Addr) -> Option<u64> {
        if self.buffered == 0 {
            return None;
        }
        self.loads
            .iter()
            .find(|l| l.buffered && l.seq > seq && l.addr.same_word(addr))
            .map(|l| l.seq)
    }

    fn nilp(&self) -> Option<u64> {
        self.loads.get(self.nilp_idx).map(|l| l.seq)
    }

    fn try_issue(&mut self, seq: u64) -> LbIssue {
        let idx = self
            .loads
            .binary_search_by_key(&seq, |l| l.seq)
            .expect("load was dispatched");
        let nilp = self.nilp().expect("an unissued load exists");
        let addr = self.loads[idx].addr;
        if nilp == seq {
            let violation = self.violation_victim(seq, addr);
            self.loads[idx].issued = true;
            let mut searches = 1u32;
            self.nilp_idx += 1;
            while let Some(l) = self.loads.get_mut(self.nilp_idx) {
                if !l.issued {
                    break;
                }
                if l.buffered {
                    l.buffered = false;
                    self.buffered -= 1;
                    searches += 1;
                }
                self.nilp_idx += 1;
            }
            LbIssue::InOrder {
                searches,
                violation,
            }
        } else {
            if self.buffered == self.capacity {
                return LbIssue::Full;
            }
            let violation = self.violation_victim(seq, addr);
            self.loads[idx].issued = true;
            self.loads[idx].buffered = true;
            self.buffered += 1;
            LbIssue::Buffered { violation }
        }
    }

    fn on_commit(&mut self, seq: u64) {
        let front = self.loads.pop_front().expect("commit of untracked load");
        assert_eq!(front.seq, seq);
        if front.buffered {
            self.buffered -= 1;
        }
        if self.nilp_idx > 0 {
            self.nilp_idx -= 1;
        } else {
            self.nilp_idx = self.loads.iter().take_while(|l| l.issued).count();
        }
    }

    fn squash_from(&mut self, seq: u64) {
        while let Some(back) = self.loads.back() {
            if back.seq < seq {
                break;
            }
            if back.buffered {
                self.buffered -= 1;
            }
            self.loads.pop_back();
        }
        self.nilp_idx = self.nilp_idx.min(self.loads.len());
    }
}

#[derive(Debug, Clone, Copy)]
struct LqEntry {
    seq: u64,
    pc: Pc,
    addr: Addr,
    issued: bool,
    forwarded_from: Option<u64>,
    place: Placement,
    ssid: Option<Ssid>,
    wait_store: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct SqEntry {
    seq: u64,
    pc: Pc,
    addr: Addr,
    issued: bool,
    retired: bool,
    place: Placement,
    ssid: Option<Ssid>,
}

/// The reference LSQ: the same state machine as [`Lsq`], with every
/// search written as a filter over the whole queue.
struct RefLsq {
    cfg: LsqConfig,
    pred: StoreSetPredictor,
    lb: Option<RefLoadBuffer>,
    lq: VecDeque<LqEntry>,
    sq: VecDeque<SqEntry>,
    lq_alloc: SegmentedAlloc,
    sq_alloc: SegmentedAlloc,
    lq_ports: PortBook,
    sq_ports: PortBook,
    sq_path_buf: Vec<usize>,
    lq_path_buf: Vec<usize>,
    stats: LsqStats,
}

impl RefLsq {
    fn new(cfg: LsqConfig) -> Self {
        let (lq_alloc, sq_alloc) = match cfg.segmentation {
            Some(seg) => (
                SegmentedAlloc::new(seg.segments, seg.entries_per_segment, seg.alloc),
                SegmentedAlloc::new(seg.segments, seg.entries_per_segment, seg.alloc),
            ),
            None => (
                SegmentedAlloc::unsegmented(cfg.lq_entries),
                SegmentedAlloc::unsegmented(cfg.sq_entries),
            ),
        };
        let nsegs = cfg.num_segments();
        Self {
            pred: StoreSetPredictor::new(
                cfg.ssit_entries,
                cfg.lfst_entries,
                cfg.counter_max,
                !cfg.predictor.uses_real_tables(),
            ),
            lb: cfg.load_order.buffer_entries().map(RefLoadBuffer::new),
            lq: VecDeque::new(),
            sq: VecDeque::new(),
            lq_alloc,
            sq_alloc,
            lq_ports: PortBook::new(nsegs, cfg.ports),
            sq_ports: PortBook::new(nsegs, cfg.ports),
            sq_path_buf: Vec::new(),
            lq_path_buf: Vec::new(),
            stats: LsqStats::new(nsegs),
            cfg,
        }
    }

    fn begin_cycle(&mut self) {
        self.lq_ports.begin_cycle();
        self.sq_ports.begin_cycle();
    }

    fn can_dispatch_load(&self) -> bool {
        self.lq_alloc.can_allocate()
    }

    fn can_dispatch_store(&self) -> bool {
        self.sq_alloc.can_allocate()
    }

    fn dispatch_load(&mut self, seq: u64, pc: Pc, addr: Addr) {
        let place = self.lq_alloc.allocate().expect("load queue full");
        let pred = self.pred.on_load_fetch(pc);
        self.lq.push_back(LqEntry {
            seq,
            pc,
            addr,
            issued: false,
            forwarded_from: None,
            place,
            ssid: pred.ssid,
            wait_store: pred.wait_store.filter(|&s| s < seq),
        });
        if let Some(lb) = &mut self.lb {
            lb.on_dispatch(seq, addr);
        }
        self.stats.loads_dispatched += 1;
    }

    fn dispatch_store(&mut self, seq: u64, pc: Pc, addr: Addr) {
        let place = self.sq_alloc.allocate().expect("store queue full");
        let ssid = self.pred.on_store_fetch(pc, seq);
        self.sq.push_back(SqEntry {
            seq,
            pc,
            addr,
            issued: false,
            retired: false,
            place,
            ssid,
        });
        self.stats.stores_dispatched += 1;
    }

    fn lq_index(&self, seq: u64) -> Option<usize> {
        self.lq.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    fn sq_index(&self, seq: u64) -> Option<usize> {
        self.sq.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    fn forwarding_source(&self, load_seq: u64, addr: Addr) -> Option<u64> {
        self.sq
            .iter()
            .rev()
            .filter(|s| s.seq < load_seq)
            .find(|s| s.issued && s.addr.same_word(addr))
            .map(|s| s.seq)
    }

    fn oracle_dependent(&self, load_seq: u64, addr: Addr) -> bool {
        self.sq
            .iter()
            .any(|s| s.seq < load_seq && s.addr.same_word(addr))
    }

    fn compute_sq_search_path(&mut self, load_seq: u64, addr: Addr) {
        self.sq_path_buf.clear();
        if self.cfg.segmentation.is_none() {
            self.sq_path_buf.push(0);
            return;
        }
        let path = &mut self.sq_path_buf;
        for s in self.sq.iter().rev().filter(|s| s.seq < load_seq) {
            if path.last() != Some(&s.place.segment) && !path.contains(&s.place.segment) {
                path.push(s.place.segment);
            }
            if s.issued && s.addr.same_word(addr) {
                break;
            }
        }
        if path.is_empty() {
            path.push(self.sq.back().map_or(0, |s| s.place.segment));
        }
    }

    fn compute_lq_violation_scan(&mut self, store_seq: u64, addr: Addr) -> Option<u64> {
        let premature = |l: &&LqEntry| {
            l.issued && l.addr.same_word(addr) && l.forwarded_from.is_none_or(|f| f < store_seq)
        };
        self.lq_path_buf.clear();
        if self.cfg.segmentation.is_none() {
            self.lq_path_buf.push(0);
            return self
                .lq
                .iter()
                .filter(|l| l.seq > store_seq)
                .find(premature)
                .map(|l| l.seq);
        }
        let path = &mut self.lq_path_buf;
        let mut victim = None;
        for l in self.lq.iter().filter(|l| l.seq > store_seq) {
            if !path.contains(&l.place.segment) {
                path.push(l.place.segment);
            }
            if premature(&l) {
                victim = Some(l.seq);
                break;
            }
        }
        if path.is_empty() {
            path.push(self.lq.back().map_or(0, |l| l.place.segment));
        }
        victim
    }

    fn compute_lq_loadload_path(&mut self, load_seq: u64) {
        self.lq_path_buf.clear();
        if self.cfg.segmentation.is_none() {
            self.lq_path_buf.push(0);
            return;
        }
        let path = &mut self.lq_path_buf;
        for l in self.lq.iter().filter(|l| l.seq > load_seq) {
            if !path.contains(&l.place.segment) {
                path.push(l.place.segment);
            }
        }
        if path.is_empty() {
            path.push(self.lq.back().map_or(0, |l| l.place.segment));
        }
    }

    fn load_issue(&mut self, seq: u64) -> LoadIssue {
        let idx = self.lq_index(seq).expect("load is in the load queue");
        assert!(!self.lq[idx].issued, "load already issued");
        let addr = self.lq[idx].addr;

        if !self.cfg.store_set_gating {
            self.lq[idx].wait_store = None;
        }
        if let Some(ws) = self.lq[idx].wait_store {
            match self.sq_index(ws) {
                Some(sidx) if !self.sq[sidx].issued => {
                    self.stats.store_set_waits += 1;
                    return LoadIssue::WaitStore(ws);
                }
                _ => self.lq[idx].wait_store = None,
            }
        }

        if self.cfg.load_order.in_order() && self.lq.iter().take(idx).any(|l| !l.issued) {
            self.stats.in_order_stalls += 1;
            return LoadIssue::InOrderStall;
        }

        let searches_sq = match self.cfg.predictor {
            PredictorKind::None => true,
            PredictorKind::Perfect => self.oracle_dependent(seq, addr),
            PredictorKind::Aggressive | PredictorKind::Pair => {
                self.pred.must_search(self.lq[idx].ssid)
            }
        };

        if searches_sq {
            self.compute_sq_search_path(seq, addr);
            if !self.sq_ports.can_book(&self.sq_path_buf) {
                self.stats.sq_port_stalls += 1;
                return LoadIssue::NoSqPort;
            }
        }
        let searches_lq = self.cfg.load_order.searches_lq();
        if searches_lq {
            self.compute_lq_loadload_path(seq);
            if !self.lq_ports.can_book(&self.lq_path_buf) {
                self.stats.lq_port_stalls += 1;
                return LoadIssue::NoLqPort;
            }
        }
        if let Some(lb) = &self.lb {
            if lb.nilp() != Some(seq) && lb.buffered == lb.capacity {
                self.stats.lb_full_stalls += 1;
                return LoadIssue::LbFull;
            }
        }

        let mut extra_cycles = 0u32;
        let head_segment = self.lq.front().map_or(0, |e| e.place.segment);
        let mut early_wakeup = self.lq[idx].place.segment == head_segment;
        if searches_sq {
            self.sq_ports.book(&self.sq_path_buf);
            self.stats.sq_searches += 1;
            self.stats
                .seg_search_hist
                .record(self.sq_path_buf.len() - 1);
            extra_cycles = (self.sq_path_buf.len() as u32).saturating_sub(1);
            early_wakeup &= self.sq_path_buf.len() <= 1;
        }
        if searches_lq {
            self.lq_ports.book(&self.lq_path_buf);
            self.stats.lq_searches_by_loads += 1;
        }
        let mut load_order_violation = None;
        let mut searched_lb = false;
        if let Some(lb) = &mut self.lb {
            match lb.try_issue(seq) {
                LbIssue::Full => unreachable!("checked above"),
                LbIssue::InOrder {
                    searches,
                    violation,
                } => {
                    self.stats.lb_searches += u64::from(searches);
                    searched_lb = searches > 0;
                    load_order_violation = violation;
                }
                LbIssue::Buffered { violation } => {
                    self.stats.lb_searches += 1;
                    searched_lb = true;
                    load_order_violation = violation;
                }
            }
        } else if searches_lq {
            load_order_violation = self
                .lq
                .iter()
                .find(|l| l.seq > seq && l.issued && l.addr.same_word(addr))
                .map(|l| l.seq);
        }
        if !self.cfg.load_load_squash {
            load_order_violation = None;
        } else if load_order_violation.is_some() {
            self.stats.load_load_violations += 1;
        }

        let mut useless_search = false;
        let forwarded_from = if searches_sq {
            let hit = self.forwarding_source(seq, addr);
            match hit {
                Some(store_seq) => {
                    self.stats.sq_search_hits += 1;
                    if matches!(
                        self.cfg.predictor,
                        PredictorKind::Aggressive | PredictorKind::Pair
                    ) {
                        let store_pc = self.sq[self.sq_index(store_seq).expect("resident")].pc;
                        let load_pc = self.lq[idx].pc;
                        self.pred.train_pair(load_pc, store_pc);
                    }
                }
                None => {
                    if matches!(
                        self.cfg.predictor,
                        PredictorKind::Aggressive | PredictorKind::Pair
                    ) {
                        self.stats.useless_searches += 1;
                        useless_search = true;
                    }
                }
            }
            hit
        } else {
            None
        };

        let e = &mut self.lq[idx];
        e.issued = true;
        e.forwarded_from = forwarded_from;
        self.stats.loads_issued += 1;
        LoadIssue::Issued(LoadIssued {
            forwarded_from,
            extra_cycles,
            early_wakeup,
            searched_sq: searches_sq,
            searched_lq: searches_lq,
            searched_lb,
            useless_search,
            load_order_violation,
        })
    }

    fn store_issue(&mut self, seq: u64) -> StoreIssue {
        let idx = self.sq_index(seq).expect("store is in the store queue");
        assert!(!self.sq[idx].issued, "store already executed");
        let addr = self.sq[idx].addr;

        let searches_lq = !self.cfg.predictor.detects_at_commit();
        let mut violation = None;
        if searches_lq {
            let victim = self.compute_lq_violation_scan(seq, addr);
            if !self.lq_ports.can_book(&self.lq_path_buf) {
                self.stats.lq_port_stalls += 1;
                return StoreIssue::NoLqPort;
            }
            self.lq_ports.book(&self.lq_path_buf);
            self.stats.lq_searches_by_stores += 1;
            violation = victim;
        }

        let e = &mut self.sq[idx];
        e.issued = true;
        let (ssid, pc) = (e.ssid, e.pc);
        if let Some(ssid) = ssid {
            self.pred.on_store_issue(ssid, seq);
        }
        self.stats.stores_issued += 1;
        if let Some(victim) = violation {
            self.record_violation(victim, pc, false);
        }
        StoreIssue::Issued { violation }
    }

    fn record_violation(&mut self, victim: u64, store_pc: Pc, at_commit: bool) {
        self.stats.violations += 1;
        if at_commit {
            self.stats.commit_violations += 1;
        }
        let load_pc = self.lq[self.lq_index(victim).expect("victim resident")].pc;
        self.pred.train_pair(load_pc, store_pc);
    }

    fn commit_load(&mut self, seq: u64) {
        let front = self.lq.pop_front().expect("commit of empty load queue");
        assert_eq!(front.seq, seq, "loads retire in program order");
        assert!(front.issued, "committing an unissued load");
        self.lq_alloc.free(front.place);
        if let Some(lb) = &mut self.lb {
            lb.on_commit(seq);
        }
    }

    fn store_retire(&mut self, seq: u64) {
        let idx = self.sq_index(seq).expect("store resident at retirement");
        assert!(self.sq[idx].issued, "retiring an unexecuted store");
        assert!(self.sq.iter().take(idx).all(|s| s.retired));
        self.sq[idx].retired = true;
    }

    fn has_undrained_store_before(&self, seq: u64) -> bool {
        self.sq.front().is_some_and(|s| s.retired && s.seq < seq)
    }

    fn drain_store(&mut self) -> StoreDrain {
        let Some(front) = self.sq.front().copied() else {
            return StoreDrain::Idle;
        };
        if !front.retired {
            return StoreDrain::Idle;
        }

        let mut violation = None;
        if self.cfg.predictor.detects_at_commit() {
            let victim = self.compute_lq_violation_scan(front.seq, front.addr);
            if !self.lq_ports.can_book(&self.lq_path_buf) {
                self.stats.commit_port_delays += 1;
                return StoreDrain::Blocked;
            }
            self.lq_ports.book(&self.lq_path_buf);
            self.stats.lq_searches_by_stores += 1;
            violation = victim;
        }

        self.sq.pop_front();
        self.sq_alloc.free(front.place);
        if let Some(ssid) = front.ssid {
            self.pred.on_store_commit(ssid);
        }
        self.stats.stores_committed += 1;
        if let Some(victim) = violation {
            self.record_violation(victim, front.pc, true);
        }
        StoreDrain::Drained {
            seq: front.seq,
            addr: front.addr,
            pc: front.pc,
            violation,
        }
    }

    fn nth_issued_load_addr(&self, n: usize) -> Option<Addr> {
        let count = self.lq.iter().filter(|l| l.issued).count();
        if count == 0 {
            return None;
        }
        self.lq
            .iter()
            .filter(|l| l.issued)
            .nth(n % count)
            .map(|l| l.addr)
    }

    fn invalidate(&mut self, addr: Addr) -> Option<u64> {
        self.stats.invalidations += 1;
        let victim = self
            .lq
            .iter()
            .find(|l| l.issued && l.addr.same_word(addr))
            .map(|l| l.seq);
        if victim.is_some() {
            self.stats.invalidation_squashes += 1;
        }
        victim
    }

    fn squash_from(&mut self, seq: u64) {
        let mut oldest_lq: Option<Placement> = None;
        while let Some(back) = self.lq.back() {
            if back.seq < seq {
                break;
            }
            let e = self.lq.pop_back().expect("non-empty");
            self.lq_alloc.free(e.place);
            oldest_lq = Some(e.place);
        }
        self.lq_alloc
            .rewind_after_squash(oldest_lq, self.lq.back().map(|e| e.place));

        let mut oldest_sq: Option<Placement> = None;
        while let Some(back) = self.sq.back() {
            if back.seq < seq {
                break;
            }
            let e = self.sq.pop_back().expect("non-empty");
            self.sq_alloc.free(e.place);
            oldest_sq = Some(e.place);
            if let Some(ssid) = e.ssid {
                self.pred.on_store_squash(ssid, e.seq);
            }
        }
        self.sq_alloc
            .rewind_after_squash(oldest_sq, self.sq.back().map(|e| e.place));

        if let Some(lb) = &mut self.lb {
            lb.squash_from(seq);
        }
    }

    fn out_of_order_issued_loads(&self) -> usize {
        let mut unissued_seen = false;
        let mut count = 0;
        for l in &self.lq {
            if l.issued {
                if unissued_seen {
                    count += 1;
                }
            } else {
                unissued_seen = true;
            }
        }
        count
    }

    fn load_is_issued(&self, seq: u64) -> bool {
        self.lq_index(seq).is_some_and(|i| self.lq[i].issued)
    }

    fn store_is_issued(&self, seq: u64) -> bool {
        self.sq_index(seq).is_some_and(|i| self.sq[i].issued)
    }

    fn load_forwarded_from(&self, seq: u64) -> Option<u64> {
        self.lq_index(seq).and_then(|i| self.lq[i].forwarded_from)
    }
}

// ----------------------------------------------------------------------
// Driver
// ----------------------------------------------------------------------

/// One in-flight (not yet retired) instruction, in program order.
#[derive(Debug, Clone, Copy)]
struct RobOp {
    seq: u64,
    is_load: bool,
    issued: bool,
}

/// One decoded step; raw selectors are interpreted against the current
/// state so every generated sequence is valid.
#[derive(Debug, Clone, Copy)]
enum Action {
    Dispatch { is_load: bool, addr: u8, pc: u8 },
    Issue(u8),
    Retire,
    Drain,
    Squash(u8),
    Invalidate(u8),
    Cycle,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        6 => (any::<bool>(), any::<u8>(), any::<u8>())
            .prop_map(|(is_load, addr, pc)| Action::Dispatch { is_load, addr, pc }),
        6 => any::<u8>().prop_map(Action::Issue),
        3 => Just(Action::Retire),
        2 => Just(Action::Drain),
        1 => any::<u8>().prop_map(Action::Squash),
        1 => any::<u8>().prop_map(Action::Invalidate),
        3 => Just(Action::Cycle),
    ]
}

/// The design point a case runs, decoded from five selectors.
fn config(seg: u8, ports: u8, predictor: u8, order: u8, flags: u8) -> LsqConfig {
    let segmentation = match seg % 3 {
        0 => Some(SegAlloc::SelfCircular),
        1 => Some(SegAlloc::NoSelfCircular),
        _ => None,
    }
    .map(|alloc| SegConfig {
        segments: 4,
        entries_per_segment: 4,
        alloc,
    });
    LsqConfig {
        lq_entries: 16,
        sq_entries: 16,
        ports: 1 + usize::from(ports % 2),
        predictor: [
            PredictorKind::None,
            PredictorKind::Pair,
            PredictorKind::Perfect,
        ][usize::from(predictor % 3)],
        load_order: [
            LoadOrderPolicy::SearchLoadQueue,
            LoadOrderPolicy::LoadBuffer(2),
            LoadOrderPolicy::InOrderAlwaysSearch,
        ][usize::from(order % 3)],
        segmentation,
        load_load_squash: flags & 1 != 0,
        store_set_gating: flags & 2 != 0,
        ..LsqConfig::default()
    }
}

/// Both models, stepped in lockstep, plus the in-flight instructions.
struct Pair {
    real: Lsq,
    reference: RefLsq,
    rob: VecDeque<RobOp>,
    next_seq: u64,
}

impl Pair {
    fn squash_from(&mut self, seq: u64) {
        self.real.squash_from(seq);
        self.reference.squash_from(seq);
        while self.rob.back().is_some_and(|o| o.seq >= seq) {
            self.rob.pop_back();
        }
        self.next_seq = seq;
    }

    fn step(&mut self, a: Action) {
        // A small pool of words and PCs keeps aliasing and predictor
        // training frequent.
        const ADDRS: [u64; 6] = [0x100, 0x104, 0x108, 0x110, 0x200, 0x208];
        const PCS: u64 = 8;
        match a {
            Action::Dispatch { is_load, addr, pc } => {
                let (can, can_ref) = if is_load {
                    (
                        self.real.can_dispatch_load(),
                        self.reference.can_dispatch_load(),
                    )
                } else {
                    (
                        self.real.can_dispatch_store(),
                        self.reference.can_dispatch_store(),
                    )
                };
                assert_eq!(can, can_ref, "dispatch capacity");
                if !can {
                    return;
                }
                let seq = self.next_seq;
                self.next_seq += 1;
                let addr = Addr(ADDRS[usize::from(addr) % ADDRS.len()]);
                let pc = Pc(if is_load { 0x1000 } else { 0x2000 } + (u64::from(pc) % PCS) * 4);
                if is_load {
                    self.real.dispatch_load(seq, pc, addr);
                    self.reference.dispatch_load(seq, pc, addr);
                } else {
                    self.real.dispatch_store(seq, pc, addr);
                    self.reference.dispatch_store(seq, pc, addr);
                }
                self.rob.push_back(RobOp {
                    seq,
                    is_load,
                    issued: false,
                });
            }
            Action::Issue(n) => {
                let unissued = self.rob.iter().filter(|o| !o.issued).count();
                if unissued == 0 {
                    return;
                }
                let pick = *self
                    .rob
                    .iter()
                    .filter(|o| !o.issued)
                    .nth(usize::from(n) % unissued)
                    .expect("in range");
                let squash = if pick.is_load {
                    let got = self.real.load_issue(pick.seq);
                    assert_eq!(got, self.reference.load_issue(pick.seq), "load {pick:?}");
                    match got {
                        LoadIssue::Issued(i) => {
                            // The paths the simulator traces as segment hops.
                            if i.searched_sq {
                                assert_eq!(self.real.last_sq_path(), self.reference.sq_path_buf);
                            }
                            if i.searched_lq {
                                assert_eq!(self.real.last_lq_path(), self.reference.lq_path_buf);
                            }
                            self.mark_issued(pick.seq);
                            i.load_order_violation
                        }
                        _ => None,
                    }
                } else {
                    let got = self.real.store_issue(pick.seq);
                    assert_eq!(got, self.reference.store_issue(pick.seq), "store {pick:?}");
                    match got {
                        StoreIssue::Issued { violation } => {
                            self.mark_issued(pick.seq);
                            violation
                        }
                        StoreIssue::NoLqPort => None,
                    }
                };
                if let Some(v) = squash {
                    self.squash_from(v);
                }
            }
            Action::Retire => {
                let Some(&head) = self.rob.front() else {
                    return;
                };
                if !head.issued {
                    return;
                }
                if head.is_load {
                    let blocked = self.real.has_undrained_store_before(head.seq);
                    assert_eq!(
                        blocked,
                        self.reference.has_undrained_store_before(head.seq),
                        "undrained-store gate"
                    );
                    if blocked {
                        return;
                    }
                    self.real.commit_load(head.seq);
                    self.reference.commit_load(head.seq);
                } else {
                    self.real.store_retire(head.seq);
                    self.reference.store_retire(head.seq);
                }
                self.rob.pop_front();
            }
            Action::Drain => {
                let got = self.real.drain_store();
                assert_eq!(got, self.reference.drain_store(), "drain");
                if let StoreDrain::Drained {
                    violation: Some(v), ..
                } = got
                {
                    self.squash_from(v);
                }
            }
            Action::Squash(n) => {
                if self.rob.is_empty() {
                    return;
                }
                let at = self.rob[usize::from(n) % self.rob.len()].seq;
                self.squash_from(at);
            }
            Action::Invalidate(n) => {
                let addr = Addr(ADDRS[usize::from(n) % ADDRS.len()]);
                let got = self.real.invalidate(addr);
                assert_eq!(got, self.reference.invalidate(addr), "invalidation");
                if let Some(v) = got {
                    self.squash_from(v);
                }
            }
            Action::Cycle => {
                self.real.begin_cycle();
                self.reference.begin_cycle();
            }
        }
    }

    fn mark_issued(&mut self, seq: u64) {
        if let Some(o) = self.rob.iter_mut().find(|o| o.seq == seq) {
            o.issued = true;
        }
    }

    /// Everything observable must agree after every step.
    fn check(&self, step: usize) {
        let (r, e) = (&self.real, &self.reference);
        assert_eq!(
            format!("{:?}", r.stats()),
            format!("{:?}", e.stats),
            "stats after step {step}"
        );
        assert_eq!(r.lq_occupancy(), e.lq.len(), "LQ occupancy");
        assert_eq!(r.sq_occupancy(), e.sq.len(), "SQ occupancy");
        assert_eq!(
            r.out_of_order_issued_loads(),
            e.out_of_order_issued_loads(),
            "out-of-order issued loads after step {step}"
        );
        for n in [0, 1, 2, 5] {
            assert_eq!(r.nth_issued_load_addr(n), e.nth_issued_load_addr(n));
        }
        for o in &self.rob {
            if o.is_load {
                assert_eq!(r.load_is_issued(o.seq), e.load_is_issued(o.seq));
                assert_eq!(r.load_forwarded_from(o.seq), e.load_forwarded_from(o.seq));
            } else {
                assert_eq!(r.store_is_issued(o.seq), e.store_is_issued(o.seq));
            }
            assert_eq!(
                o.issued,
                r.load_is_issued(o.seq) || r.store_is_issued(o.seq)
            );
        }
    }
}

/// Replays `actions` on both models; returns the final statistics.
fn run(cfg: LsqConfig, actions: &[Action]) -> LsqStats {
    let mut p = Pair {
        real: Lsq::new(cfg).expect("valid config"),
        reference: RefLsq::new(cfg),
        rob: VecDeque::new(),
        next_seq: 0,
    };
    p.real.begin_cycle();
    p.reference.begin_cycle();
    for (step, &a) in actions.iter().enumerate() {
        p.step(a);
        p.check(step);
    }
    p.real.stats().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Segmented and unsegmented, 1–2 ports, every predictor and load
    /// order policy the paper's figures use.
    #[test]
    fn packed_searches_match_whole_queue_reference(
        actions in prop::collection::vec(action_strategy(), 1..240),
        seg in any::<u8>(),
        ports in any::<u8>(),
        predictor in any::<u8>(),
        order_and_flags in (any::<u8>(), any::<u8>()),
    ) {
        let (order, flags) = order_and_flags;
        run(config(seg, ports, predictor, order, flags), &actions);
    }
}

/// Every design point of the grid, each on one long deterministic
/// sequence, so no combination is left to chance. The sequences must
/// reach every outcome the packed searches decide.
#[test]
fn every_design_point_matches_reference() {
    let mut rng = lsq_util::rng::Xoshiro256::seed_from_u64(7);
    let mut total = LsqStats::new(4);
    for seg in 0..3 {
        for ports in 0..2 {
            for predictor in 0..3 {
                for order in 0..3 {
                    for flags in 0..4 {
                        let actions: Vec<Action> = (0..600)
                            .map(|_| {
                                let r = rng.range_u64(22) as u8;
                                let sel = rng.range_u64(256) as u8;
                                match r {
                                    0..=6 => Action::Dispatch {
                                        is_load: sel & 1 == 0,
                                        addr: sel >> 1,
                                        pc: sel >> 4,
                                    },
                                    7..=13 => Action::Issue(sel),
                                    14..=16 => Action::Retire,
                                    17..=18 => Action::Drain,
                                    19 => Action::Squash(sel),
                                    20 => Action::Invalidate(sel),
                                    _ => Action::Cycle,
                                }
                            })
                            .collect();
                        let s = run(config(seg, ports, predictor, order, flags), &actions);
                        total.sq_port_stalls += s.sq_port_stalls;
                        total.lq_port_stalls += s.lq_port_stalls;
                        total.commit_port_delays += s.commit_port_delays;
                        total.sq_search_hits += s.sq_search_hits;
                        total.violations += s.violations;
                        total.commit_violations += s.commit_violations;
                        total.load_load_violations += s.load_load_violations;
                        total.invalidation_squashes += s.invalidation_squashes;
                        total.lb_full_stalls += s.lb_full_stalls;
                        total.in_order_stalls += s.in_order_stalls;
                        total.store_set_waits += s.store_set_waits;
                        for k in 1..4 {
                            total
                                .seg_search_hist
                                .record_n(k, s.seg_search_hist.bucket(k));
                        }
                    }
                }
            }
        }
    }
    for (name, n) in [
        ("sq_port_stalls", total.sq_port_stalls),
        ("lq_port_stalls", total.lq_port_stalls),
        ("commit_port_delays", total.commit_port_delays),
        ("sq_search_hits", total.sq_search_hits),
        ("violations", total.violations),
        ("commit_violations", total.commit_violations),
        ("load_load_violations", total.load_load_violations),
        ("invalidation_squashes", total.invalidation_squashes),
        ("lb_full_stalls", total.lb_full_stalls),
        ("in_order_stalls", total.in_order_stalls),
        ("store_set_waits", total.store_set_waits),
        (
            "multi_segment_searches",
            (1..4).map(|k| total.seg_search_hist.bucket(k)).sum(),
        ),
    ] {
        assert!(n > 0, "the grid never reached {name}");
    }
}
