//! The load/store queue engine: a single configurable model composing the
//! conventional queues, the store-set / store-load pair predictor, the
//! load buffer, and segmentation, as selected by [`LsqConfig`].
//!
//! The pipeline drives an [`Lsq`] with one call per microarchitectural
//! event:
//!
//! * [`Lsq::dispatch_load`] / [`Lsq::dispatch_store`] when an instruction
//!   enters the queues (program order);
//! * [`Lsq::load_issue`] when a ready load wants to access memory — this
//!   is where search-port arbitration, predictor filtering, load-buffer
//!   allocation, and store-to-load forwarding happen;
//! * [`Lsq::store_issue`] when a store's address generation completes —
//!   in the conventional scheme this is also where the store searches the
//!   load queue for premature loads;
//! * [`Lsq::commit_load`] / [`Lsq::store_retire`] at retirement, then
//!   [`Lsq::drain_store`] when the store leaves the store queue — in the
//!   pair scheme the commit-time violation search happens at the drain
//!   (§2.1);
//! * [`Lsq::squash_from`] on any flush.
//!
//! Addresses are known to the *model* at dispatch (the trace is the
//! oracle) but become visible to the *hardware* only at issue; forwarding
//! and violation checks use hardware-visible state, while the perfect
//! predictor peeks at the oracle.
//!
//! # Search layout
//!
//! Each queue keeps, beside its entry structs, two packed arrays in the
//! same order: a scan key `word << 1 | issued` and the entry's segment
//! byte. Every search reads only those arrays and touches an entry's
//! cold fields (`forwarded_from`, `pc`, …) only where a key matches, the
//! way a CAM compares addresses and reads the matching row.
//!
//! Searches start at the searcher's own position rather than filtering
//! the whole queue: a forwarding search walks back from the first store
//! younger than the load (a binary search on sequence numbers), a
//! violation search walks forward from the first load younger than the
//! store, and a load-load search from the entry after the load. A
//! segmented search checks each new segment's port as it appends it to
//! the path, and stops building the path once it holds every segment.
//! That is exactly the outcome of building the whole path and then
//! asking [`PortBook::can_book`]: the path is the same prefix in the same
//! order, and the booking is all-or-nothing over it, so the first busy
//! segment decides the stall.
//!
//! The load queue also tracks the NILP (the index of its oldest
//! non-issued load) and its issued-load count. Every load before the
//! NILP has issued and the load at the NILP has not, so the loads issued
//! out of program order number `issued - nilp`, and a load has an older
//! unissued load exactly when its index exceeds the NILP; both are O(1).

use crate::config::{ConfigError, LsqConfig, PredictorKind};
use crate::load_buffer::{LbIssue, LoadBuffer};
use crate::segmented::{Placement, PortBook, SegmentedAlloc};
use crate::stats::{LsqStats, StickyStalls};
use crate::store_set::{Ssid, StoreSetPredictor};
use lsq_isa::{Addr, Pc};

/// Outcome of a load trying to issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadIssue {
    /// Store-set gating: the load waits for this store to issue.
    WaitStore(u64),
    /// An older load has not issued and the policy is in-order.
    InOrderStall,
    /// No store-queue search port available this cycle.
    NoSqPort,
    /// No load-queue search port available this cycle (load-load search).
    NoLqPort,
    /// The load buffer is full.
    LbFull,
    /// The load issued.
    Issued(LoadIssued),
}

impl LoadIssue {
    /// Whether this outcome is a stall that every retry repeats, with
    /// the same counter increment, until the queues change by a
    /// dispatch, issue, retirement, drain or squash. A store-set wait
    /// ends when its store issues or is squashed; an in-order stall when an
    /// older load issues or a squash removes it; a full load buffer
    /// when a load issues, commits or is squashed. The load-buffer check
    /// comes after the port checks, so it also relies on the ports the
    /// load passed staying free: true once nothing is booked beyond the
    /// current cycle (see [`Lsq::ports_booked_ahead`]). Port stalls are
    /// never sticky: ports free up as cycles pass.
    // lsq-lint: hot
    #[inline]
    pub fn is_sticky(&self) -> bool {
        matches!(
            self,
            LoadIssue::WaitStore(_) | LoadIssue::InOrderStall | LoadIssue::LbFull
        )
    }
}

/// Details of a successful load issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadIssued {
    /// Store the load's value was forwarded from, if any.
    pub forwarded_from: Option<u64>,
    /// Extra cycles added to the load's latency by multi-segment
    /// searching (0 when unsegmented).
    pub extra_cycles: u32,
    /// Whether dependents may be scheduled early assuming a constant hit
    /// latency (§3: only when the search cannot leave one segment).
    pub early_wakeup: bool,
    /// Whether the load spent a store-queue search (its path is
    /// [`Lsq::last_sq_path`]).
    pub searched_sq: bool,
    /// Whether the load spent a load-queue (load-load ordering) search
    /// (its path is [`Lsq::last_lq_path`]).
    pub searched_lq: bool,
    /// Whether the load searched the load buffer.
    pub searched_lb: bool,
    /// Whether a predictor-directed store-queue search found no store
    /// (pair/aggressive predictors only).
    pub useless_search: bool,
    /// A younger same-word load issued out of order, detected by this
    /// load's load-queue or load-buffer search (§2.2 scheme 1); `Some`
    /// only when [`crate::LsqConfig::load_load_squash`] is enabled. The
    /// pipeline squashes from the victim.
    pub load_order_violation: Option<u64>,
}

/// Outcome of a store's address generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreIssue {
    /// No load-queue search port for the execute-time violation search.
    NoLqPort,
    /// The store executed; a violation victim (oldest premature load) may
    /// have been detected (conventional/perfect schemes only).
    Issued {
        /// Oldest violating load, to be squashed (with everything
        /// younger) by the pipeline.
        violation: Option<u64>,
    },
}

/// Outcome of draining the oldest retired store from the store queue.
///
/// Retirement (leaving the ROB) and draining (writing the cache,
/// performing the pair scheme's commit-time violation search, and freeing
/// the SQ entry) are separate events: the paper's §3.2 notes that a
/// delayed commit-time search is harmless precisely because "the store is
/// not in the pipeline anymore".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreDrain {
    /// No retired store is waiting to drain.
    Idle,
    /// Load-queue ports unavailable for the commit-time search: the drain
    /// retries next cycle (§3.2's easy contention fix).
    Blocked,
    /// A store drained; the caller writes its address to the cache.
    Drained {
        /// The drained store.
        seq: u64,
        /// Its address (for the cache write).
        addr: Addr,
        /// Its static PC.
        pc: Pc,
        /// Oldest violating load detected by the commit-time search, to
        /// be squashed by the pipeline (pair/aggressive schemes only).
        violation: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy)]
struct LqEntry {
    seq: u64,
    pc: Pc,
    addr: Addr,
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
    /// Left the ROB; waiting to drain (write the cache and free the
    /// entry).
    retired: bool,
    place: Placement,
    ssid: Option<Ssid>,
}

/// The packed scan key of an entry: its word address with the issued
/// flag in bit 0. A search for issued entries of a word compares keys
/// against `scan_key(addr, true)`.
#[inline]
fn scan_key(addr: Addr, issued: bool) -> u64 {
    addr.word() << 1 | u64::from(issued)
}

/// Whether a packed scan key has its issued flag set.
#[inline]
fn key_issued(key: u64) -> bool {
    key & 1 == 1
}

/// One side of the LSQ, oldest entry first: the cold entry structs and
/// the packed arrays the searches scan, kept index-aligned.
///
/// The three arrays share one sliding window `head..`: dispatch pushes
/// at the back, a squash pops from the back, and retirement advances
/// `head`. The retired prefix is reclaimed once it is as long as the
/// live part, so every entry moves O(1) times amortized, the arrays
/// never outgrow about twice the queue's capacity, and every search
/// scans one contiguous slice.
#[derive(Debug, Clone)]
struct Queue<E> {
    entries: Vec<E>,
    /// `scan_key` of each entry.
    keys: Vec<u64>,
    /// Segment of each entry.
    segs: Vec<u8>,
    head: usize,
}

impl<E: Copy> Queue<E> {
    /// Retired prefix length below which reclaiming is not worth a call.
    const RECLAIM_MIN: usize = 16;

    fn with_capacity(capacity: usize) -> Self {
        let room = 2 * capacity + Self::RECLAIM_MIN;
        Self {
            entries: Vec::with_capacity(room),
            keys: Vec::with_capacity(room),
            segs: Vec::with_capacity(room),
            head: 0,
        }
    }

    fn len(&self) -> usize {
        self.keys.len() - self.head
    }

    fn entries(&self) -> &[E] {
        &self.entries[self.head..]
    }

    fn keys(&self) -> &[u64] {
        &self.keys[self.head..]
    }

    fn segs(&self) -> &[u8] {
        &self.segs[self.head..]
    }

    fn entry_mut(&mut self, i: usize) -> &mut E {
        &mut self.entries[self.head + i]
    }

    fn is_issued(&self, i: usize) -> bool {
        key_issued(self.keys[self.head + i])
    }

    fn set_issued(&mut self, i: usize) {
        self.keys[self.head + i] |= 1;
    }

    fn push_back(&mut self, e: E, key: u64, seg: u8) {
        self.entries.push(e);
        self.keys.push(key);
        self.segs.push(seg);
    }

    fn pop_front(&mut self) -> Option<E> {
        let e = *self.entries.get(self.head)?;
        self.head += 1;
        if self.head >= self.len().max(Self::RECLAIM_MIN) {
            self.entries.drain(..self.head);
            self.keys.drain(..self.head);
            self.segs.drain(..self.head);
            self.head = 0;
        }
        Some(e)
    }

    fn pop_back(&mut self) -> Option<E> {
        if self.len() == 0 {
            return None;
        }
        self.keys.pop();
        self.segs.pop();
        self.entries.pop()
    }
}

/// A search path needs a port that is already booked this cycle.
struct PortBusy;

/// Appends `seg` to a search path unless the path already holds it,
/// checking the port first: the segment is searched at cycle offset
/// `path.len()`. Returns `Err` when that port is taken.
// lsq-lint: hot
#[inline]
fn extend_path(path: &mut Vec<usize>, ports: &PortBook, seg: u8) -> Result<(), PortBusy> {
    let seg = usize::from(seg);
    if path.contains(&seg) {
        return Ok(());
    }
    if !ports.slot_free(path.len(), seg) {
        return Err(PortBusy);
    }
    path.push(seg);
    Ok(())
}

/// A search with nothing to walk still occupies one port for a cycle in
/// `seg`, the segment it starts from.
// lsq-lint: hot
#[inline]
fn single_segment_path(path: &mut Vec<usize>, ports: &PortBook, seg: u8) -> Result<(), PortBusy> {
    path.clear();
    extend_path(path, ports, seg)
}

/// The configurable load/store queue model.
#[derive(Debug, Clone)]
pub struct Lsq {
    cfg: LsqConfig,
    pred: StoreSetPredictor,
    lb: Option<LoadBuffer>,
    lq: Queue<LqEntry>,
    sq: Queue<SqEntry>,
    /// Index in `lq` of the oldest non-issued load (`lq.len()` when every
    /// load has issued).
    lq_nilp: usize,
    /// Issued loads in `lq`.
    lq_issued: usize,
    /// Segments per queue (1 when unsegmented): a path this long holds
    /// every segment and cannot grow.
    nsegs: usize,
    lq_alloc: SegmentedAlloc,
    sq_alloc: SegmentedAlloc,
    lq_ports: PortBook,
    sq_ports: PortBook,
    /// Scratch buffer for store-queue search paths, reused across
    /// searches so the issue path never allocates.
    sq_path_buf: Vec<usize>,
    /// Scratch buffer for load-queue search paths.
    lq_path_buf: Vec<usize>,
    stats: LsqStats,
}

impl Lsq {
    /// Builds an LSQ for the given design point.
    ///
    /// # Errors
    ///
    /// Returns the validation error of an inconsistent [`LsqConfig`], or
    /// of one with more than 256 segments (segments are packed in a
    /// byte).
    pub fn new(cfg: LsqConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let nsegs = cfg.num_segments();
        if nsegs > usize::from(u8::MAX) + 1 {
            return Err(ConfigError::new("at most 256 segments per queue"));
        }
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
        Ok(Self {
            pred: StoreSetPredictor::new(
                cfg.ssit_entries,
                cfg.lfst_entries,
                cfg.counter_max,
                !cfg.predictor.uses_real_tables(),
            ),
            lb: cfg.load_order.buffer_entries().map(LoadBuffer::new),
            lq: Queue::with_capacity(cfg.lq_capacity()),
            sq: Queue::with_capacity(cfg.sq_capacity()),
            lq_nilp: 0,
            lq_issued: 0,
            nsegs,
            lq_alloc,
            sq_alloc,
            lq_ports: PortBook::new(nsegs, cfg.ports),
            sq_ports: PortBook::new(nsegs, cfg.ports),
            sq_path_buf: Vec::with_capacity(nsegs),
            lq_path_buf: Vec::with_capacity(nsegs),
            stats: LsqStats::new(nsegs),
            cfg,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &LsqConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &LsqStats {
        &self.stats
    }

    /// Advances port bookkeeping to the next cycle. Call exactly once per
    /// simulated cycle, before any issue/commit calls for that cycle.
    // lsq-lint: hot
    pub fn begin_cycle(&mut self) {
        self.lq_ports.begin_cycle();
        self.sq_ports.begin_cycle();
    }

    /// Whether a search port of either queue is booked for a cycle after
    /// the current one, by a multi-segment search under way. O(1): it
    /// reads the port books' reservation horizons.
    // lsq-lint: hot
    #[inline]
    pub fn ports_booked_ahead(&self) -> bool {
        self.lq_ports.horizon() > 1 || self.sq_ports.horizon() > 1
    }

    /// Counts `stalls` again, for a cycle that repeats a cycle whose
    /// only LSQ outcomes were those sticky stalls (see
    /// [`LoadIssue::is_sticky`]).
    // lsq-lint: hot
    #[inline]
    pub fn repeat_sticky_stalls(&mut self, stalls: StickyStalls) {
        self.stats.store_set_waits += stalls.store_set_waits;
        self.stats.in_order_stalls += stalls.in_order_stalls;
        self.stats.lb_full_stalls += stalls.lb_full_stalls;
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    /// Whether a load can be allocated this cycle.
    pub fn can_dispatch_load(&self) -> bool {
        self.lq_alloc.can_allocate()
    }

    /// Whether a store can be allocated this cycle.
    pub fn can_dispatch_store(&self) -> bool {
        self.sq_alloc.can_allocate()
    }

    /// Allocates a load-queue entry for load `seq` (program order). The
    /// trace-known address is the oracle address; hardware sees it at
    /// issue.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not younger than every
    /// resident load.
    pub fn dispatch_load(&mut self, seq: u64, pc: Pc, addr: Addr) {
        assert!(
            self.lq.entries().last().is_none_or(|e| e.seq < seq),
            "program order"
        );
        // lsq-lint: allow(no-unwrap-in-lib, reason = "dispatch is gated on lq_free() by the pipeline; overflow here is a dispatch-stage bug")
        let place = self.lq_alloc.allocate().expect("load queue full");
        let pred = self.pred.on_load_fetch(pc);
        self.lq.push_back(
            LqEntry {
                seq,
                pc,
                addr,
                forwarded_from: None,
                place,
                ssid: pred.ssid,
                // Only an older store can gate this load.
                wait_store: pred.wait_store.filter(|&s| s < seq),
            },
            scan_key(addr, false),
            place.segment as u8,
        );
        if let Some(lb) = &mut self.lb {
            lb.on_dispatch(seq, addr);
        }
        self.stats.loads_dispatched += 1;
    }

    /// Allocates a store-queue entry for store `seq` (program order).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not younger than every
    /// resident store.
    pub fn dispatch_store(&mut self, seq: u64, pc: Pc, addr: Addr) {
        assert!(
            self.sq.entries().last().is_none_or(|e| e.seq < seq),
            "program order"
        );
        // lsq-lint: allow(no-unwrap-in-lib, reason = "dispatch is gated on sq_free() by the pipeline; overflow here is a dispatch-stage bug")
        let place = self.sq_alloc.allocate().expect("store queue full");
        let ssid = self.pred.on_store_fetch(pc, seq);
        self.sq.push_back(
            SqEntry {
                seq,
                pc,
                addr,
                retired: false,
                place,
                ssid,
            },
            scan_key(addr, false),
            place.segment as u8,
        );
        self.stats.stores_dispatched += 1;
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    // lsq-lint: hot
    fn lq_index(&self, seq: u64) -> Option<usize> {
        self.lq.entries().binary_search_by_key(&seq, |e| e.seq).ok()
    }

    // lsq-lint: hot
    fn sq_index(&self, seq: u64) -> Option<usize> {
        self.sq.entries().binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// Builds `self.sq_path_buf`, the segment path of a forwarding
    /// search over the `older` stores older than the load: distinct
    /// segments youngest first, ending at the segment of the forwarding
    /// match. Nothing older searches the tail segment only. An
    /// unsegmented queue's path is always `[0]`.
    // lsq-lint: hot
    fn sq_search_path(&mut self, older: usize, target: u64) -> Result<(), PortBusy> {
        let (path, ports) = (&mut self.sq_path_buf, &self.sq_ports);
        if self.cfg.segmentation.is_none() {
            return single_segment_path(path, ports, 0);
        }
        path.clear();
        let (keys, segs) = (self.sq.keys(), self.sq.segs());
        // Walk back one run of same-segment stores at a time.
        let mut end = older;
        while end > 0 {
            let seg = segs[end - 1];
            extend_path(path, ports, seg)?;
            let start = segs[..end]
                .iter()
                .rposition(|&s| s != seg)
                .map_or(0, |i| i + 1);
            if path.len() == self.nsegs || keys[start..end].contains(&target) {
                return Ok(());
            }
            end = start;
        }
        if path.is_empty() {
            return single_segment_path(path, ports, segs.last().copied().unwrap_or(0));
        }
        Ok(())
    }

    /// Index of the forwarding source: the youngest issued store among
    /// the `older` stores older than the load that writes the load's
    /// word.
    // lsq-lint: hot
    fn forwarding_source(&self, older: usize, target: u64) -> Option<usize> {
        self.sq.keys()[..older].iter().rposition(|&k| k == target)
    }

    /// Builds `self.lq_path_buf`, the segment path of a store's violation
    /// search over loads younger than the store (distinct segments
    /// oldest first, ending at the segment of the oldest premature load),
    /// and returns that victim, if any.
    // lsq-lint: hot
    fn lq_violation_scan(&mut self, store_seq: u64, addr: Addr) -> Result<Option<u64>, PortBusy> {
        let (path, ports) = (&mut self.lq_path_buf, &self.lq_ports);
        let (entries, keys, segs) = (self.lq.entries(), self.lq.keys(), self.lq.segs());
        let start = entries.partition_point(|l| l.seq <= store_seq);
        let target = scan_key(addr, true);
        // The oldest premature load in `range`: an issued load of the
        // word that did not forward from this store or a younger one.
        let victim_in = |range: std::ops::Range<usize>| {
            range
                .filter(|&i| keys[i] == target)
                .find(|&i| entries[i].forwarded_from.is_none_or(|f| f < store_seq))
                .map(|i| entries[i].seq)
        };
        if self.cfg.segmentation.is_none() {
            single_segment_path(path, ports, 0)?;
            return Ok(victim_in(start..keys.len()));
        }
        path.clear();
        // Walk forward one run of same-segment loads at a time.
        let mut from = start;
        while from < keys.len() {
            let seg = segs[from];
            extend_path(path, ports, seg)?;
            if path.len() == self.nsegs {
                return Ok(victim_in(from..keys.len()));
            }
            let to = segs[from..]
                .iter()
                .position(|&s| s != seg)
                .map_or(keys.len(), |n| from + n);
            if let Some(victim) = victim_in(from..to) {
                return Ok(Some(victim));
            }
            from = to;
        }
        if path.is_empty() {
            single_segment_path(path, ports, segs.last().copied().unwrap_or(0))?;
        }
        Ok(None)
    }

    /// Builds `self.lq_path_buf`, the segment path of a load-load
    /// ordering search over the loads after index `idx` (no victim in a
    /// uniprocessor run: the search is pure bandwidth, which is exactly
    /// what the paper measures).
    // lsq-lint: hot
    fn lq_loadload_path(&mut self, idx: usize) -> Result<(), PortBusy> {
        let (path, ports) = (&mut self.lq_path_buf, &self.lq_ports);
        if self.cfg.segmentation.is_none() {
            return single_segment_path(path, ports, 0);
        }
        path.clear();
        let segs = self.lq.segs();
        // Visit only the first load of each run of same-segment loads.
        let mut from = idx + 1;
        while from < segs.len() {
            let seg = segs[from];
            extend_path(path, ports, seg)?;
            if path.len() == self.nsegs {
                return Ok(());
            }
            from = segs[from..]
                .iter()
                .position(|&s| s != seg)
                .map_or(segs.len(), |n| from + n);
        }
        if path.is_empty() {
            return single_segment_path(path, ports, segs.last().copied().unwrap_or(0));
        }
        Ok(())
    }

    /// Attempts to issue load `seq` this cycle.
    ///
    /// On success the load is marked issued, its forwarding source (if
    /// any) is bound, ports are booked, and the predictor is trained on a
    /// discovered match. On failure nothing changes and the caller
    /// retries a later cycle.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never dispatched or already issued.
    // lsq-lint: hot
    pub fn load_issue(&mut self, seq: u64) -> LoadIssue {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "load_issue's documented # Panics contract: seq must be a dispatched, unretired load")
        let idx = self.lq_index(seq).expect("load is in the load queue");
        assert!(!self.lq.is_issued(idx), "load already issued");
        let LqEntry {
            addr,
            pc,
            ssid,
            wait_store,
            ..
        } = self.lq.entries()[idx];

        // 1. Store-set issue gating: wait while the predicted store is in
        //    flight and unissued.
        if !self.cfg.store_set_gating {
            self.lq.entry_mut(idx).wait_store = None;
        } else if let Some(ws) = wait_store {
            match self.sq_index(ws) {
                Some(sidx) if !self.sq.is_issued(sidx) => {
                    self.stats.store_set_waits += 1;
                    return LoadIssue::WaitStore(ws);
                }
                _ => self.lq.entry_mut(idx).wait_store = None,
            }
        }

        // 2. In-order load policies gate on older unissued loads.
        if self.cfg.load_order.in_order() && self.lq_nilp < idx {
            self.stats.in_order_stalls += 1;
            return LoadIssue::InOrderStall;
        }

        // 3. Decide whether this load searches the store queue. Every
        //    store search covers only the `older` stores older than the
        //    load; the perfect predictor searches when the oracle sees
        //    one of them writing the load's word.
        let mut searches_sq = match self.cfg.predictor {
            PredictorKind::None | PredictorKind::Perfect => true,
            PredictorKind::Aggressive | PredictorKind::Pair => self.pred.must_search(ssid),
        };
        let older = if searches_sq {
            self.sq.entries().partition_point(|s| s.seq < seq)
        } else {
            0
        };
        if self.cfg.predictor == PredictorKind::Perfect {
            searches_sq = self.sq.keys()[..older]
                .iter()
                .any(|&k| k >> 1 == addr.word());
        }
        let target = scan_key(addr, true);

        // 4. Check (without booking) every port the load needs, segment
        //    by segment as the paths are built into the scratch buffers.
        if searches_sq && self.sq_search_path(older, target).is_err() {
            self.stats.sq_port_stalls += 1;
            return LoadIssue::NoSqPort;
        }
        let searches_lq = self.cfg.load_order.searches_lq();
        if searches_lq && self.lq_loadload_path(idx).is_err() {
            self.stats.lq_port_stalls += 1;
            return LoadIssue::NoLqPort;
        }
        if let Some(lb) = &self.lb {
            // Out-of-order issue needs a load-buffer entry.
            if lb.nilp() != Some(seq) && lb.occupancy() == lb.capacity() {
                self.stats.lb_full_stalls += 1;
                return LoadIssue::LbFull;
            }
        }

        // 5. All resources available: commit the issue.
        let mut extra_cycles = 0u32;
        // §3: dependents are scheduled early only when the load's hit
        // latency is constant, i.e. the load sits in the head segment —
        // a positional property the scheduler knows at schedule time.
        // Loads in younger segments forgo early scheduling even when
        // their search happens to end within one segment.
        let mut early_wakeup = self.lq.segs()[idx] == self.lq.segs()[0];
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
        let mut lb_searched = false;
        if let Some(lb) = &mut self.lb {
            match lb.try_issue(seq) {
                LbIssue::Full => unreachable!("checked above"),
                LbIssue::InOrder {
                    searches,
                    violation,
                } => {
                    self.stats.lb_searches += u64::from(searches);
                    lb_searched = searches > 0;
                    load_order_violation = violation;
                }
                LbIssue::Buffered { violation } => {
                    self.stats.lb_searches += 1;
                    lb_searched = true;
                    load_order_violation = violation;
                }
            }
        } else if searches_lq && self.cfg.load_load_squash {
            // Conventional load-load search: detect the oldest younger
            // same-word load already issued out of order.
            load_order_violation = self.lq.keys()[idx + 1..]
                .iter()
                .position(|&k| k == target)
                .map(|i| self.lq.entries()[idx + 1 + i].seq);
        }
        if !self.cfg.load_load_squash {
            load_order_violation = None;
        } else if load_order_violation.is_some() {
            self.stats.load_load_violations += 1;
        }

        let mut useless_search = false;
        let trains_pairs = matches!(
            self.cfg.predictor,
            PredictorKind::Aggressive | PredictorKind::Pair
        );
        let forwarded_from = if searches_sq {
            match self.forwarding_source(older, target) {
                Some(sidx) => {
                    self.stats.sq_search_hits += 1;
                    let store = self.sq.entries()[sidx];
                    // The pair predictor learns *all* matching pairs, not
                    // just violating ones (§2.1, Figure 2).
                    if trains_pairs {
                        self.pred.train_pair(pc, store.pc);
                    }
                    Some(store.seq)
                }
                None => {
                    if trains_pairs {
                        self.stats.useless_searches += 1;
                        useless_search = true;
                    }
                    None
                }
            }
        } else {
            None
        };

        self.lq.set_issued(idx);
        self.lq.entry_mut(idx).forwarded_from = forwarded_from;
        self.lq_issued += 1;
        if idx == self.lq_nilp {
            let after = &self.lq.keys()[idx + 1..];
            self.lq_nilp = idx + 1 + after.iter().take_while(|&&k| key_issued(k)).count();
        }
        self.stats.loads_issued += 1;
        LoadIssue::Issued(LoadIssued {
            forwarded_from,
            extra_cycles,
            early_wakeup,
            searched_sq: searches_sq,
            searched_lq: searches_lq,
            searched_lb: lb_searched,
            useless_search,
            load_order_violation,
        })
    }

    /// Attempts to execute store `seq` (address generation) this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never dispatched or already executed.
    // lsq-lint: hot
    pub fn store_issue(&mut self, seq: u64) -> StoreIssue {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "store_issue's documented # Panics contract: seq must be a dispatched, unretired store")
        let idx = self.sq_index(seq).expect("store is in the store queue");
        assert!(!self.sq.is_issued(idx), "store already executed");
        let SqEntry { addr, pc, ssid, .. } = self.sq.entries()[idx];

        // Conventional/perfect schemes: violation search at execute.
        let searches_lq = !self.cfg.predictor.detects_at_commit();
        let mut violation = None;
        if searches_lq {
            let Ok(victim) = self.lq_violation_scan(seq, addr) else {
                self.stats.lq_port_stalls += 1;
                return StoreIssue::NoLqPort;
            };
            self.lq_ports.book(&self.lq_path_buf);
            self.stats.lq_searches_by_stores += 1;
            violation = victim;
        }

        self.sq.set_issued(idx);
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
        // lsq-lint: allow(no-unwrap-in-lib, reason = "the LQ violation scan just above returned this victim, so it is resident")
        let load_pc = self.lq.entries()[self.lq_index(victim).expect("victim resident")].pc;
        self.pred.train_pair(load_pc, store_pc);
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Retires the oldest load, which must be `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not the oldest resident load.
    pub fn commit_load(&mut self, seq: u64) {
        let issued = self.lq.keys().first().is_some_and(|&k| key_issued(k));
        // lsq-lint: allow(no-unwrap-in-lib, reason = "in-order commit retires only loads the LQ tracked at dispatch")
        let front = self.lq.pop_front().expect("commit of empty load queue");
        assert_eq!(front.seq, seq, "loads retire in program order");
        assert!(issued, "committing an unissued load");
        // An issued front load lies before the NILP.
        self.lq_nilp -= 1;
        self.lq_issued -= 1;
        self.lq_alloc.free(front.place);
        if let Some(lb) = &mut self.lb {
            lb.on_commit(seq);
        }
    }

    /// Marks store `seq` as retired from the ROB. The store-queue entry
    /// remains resident until [`Lsq::drain_store`] completes its cache
    /// write and (in the pair scheme) commit-time violation search.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not resident, has not executed, or an older
    /// unretired store exists (retirement is in program order).
    pub fn store_retire(&mut self, seq: u64) {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "stores retire in program order after dispatch; a miss here is a pipeline bug")
        let idx = self.sq_index(seq).expect("store resident at retirement");
        assert!(self.sq.is_issued(idx), "retiring an unexecuted store");
        assert!(
            self.sq.entries()[..idx].iter().all(|s| s.retired),
            "stores retire in program order"
        );
        self.sq.entry_mut(idx).retired = true;
    }

    /// Whether any retired-but-undrained store older than `seq` exists.
    /// Loads must not retire past one: the commit-time violation search
    /// must still find them in the load queue.
    // lsq-lint: hot
    pub fn has_undrained_store_before(&self, seq: u64) -> bool {
        self.sq
            .entries()
            .first()
            .is_some_and(|s| s.retired && s.seq < seq)
    }

    /// Attempts to drain the oldest retired store: the commit-time
    /// violation search (pair/aggressive schemes) plus freeing the entry.
    /// The caller performs the cache write of the returned address and
    /// charges the d-cache port.
    // lsq-lint: hot
    pub fn drain_store(&mut self) -> StoreDrain {
        let Some(&front) = self.sq.entries().first() else {
            return StoreDrain::Idle;
        };
        if !front.retired {
            return StoreDrain::Idle;
        }

        let mut violation = None;
        if self.cfg.predictor.detects_at_commit() {
            let Ok(victim) = self.lq_violation_scan(front.seq, front.addr) else {
                self.stats.commit_port_delays += 1;
                return StoreDrain::Blocked;
            };
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

    /// Address of the `n`-th (mod count) currently issued in-flight
    /// load, if any — used by coherence-traffic injectors to target words
    /// another processor would plausibly write (shared data being read).
    // lsq-lint: hot
    pub fn nth_issued_load_addr(&self, n: usize) -> Option<Addr> {
        if self.lq_issued == 0 {
            return None;
        }
        let n = n % self.lq_issued;
        // Every load before the NILP has issued.
        if n < self.lq_nilp {
            return Some(self.lq.entries()[n].addr);
        }
        let nilp = self.lq_nilp;
        (nilp..self.lq.len())
            .filter(|&i| key_issued(self.lq.keys()[i]))
            .nth(n - nilp)
            .map(|i| self.lq.entries()[i].addr)
    }

    /// Processes an external invalidation of `addr`'s word (§2.2 scheme
    /// 2, as in the MIPS R10000: another processor wrote shared data).
    /// Searches the load queue for any outstanding (issued) load to the
    /// word and returns the oldest as a squash victim. Invalidation
    /// searches are rare and L2-filtered, so they are not charged search
    /// ports (the paper makes the same argument).
    pub fn invalidate(&mut self, addr: Addr) -> Option<u64> {
        self.stats.invalidations += 1;
        let target = scan_key(addr, true);
        let victim = self
            .lq
            .keys()
            .iter()
            .position(|&k| k == target)
            .map(|i| self.lq.entries()[i].seq);
        if victim.is_some() {
            self.stats.invalidation_squashes += 1;
        }
        victim
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Removes every entry with sequence number `>= seq` from both
    /// queues, rolling back predictor counters, load-buffer entries, and
    /// allocation cursors.
    pub fn squash_from(&mut self, seq: u64) {
        let keep = self.lq.entries().partition_point(|e| e.seq < seq);
        self.lq_issued -= self.lq.keys()[keep..]
            .iter()
            .filter(|&&k| key_issued(k))
            .count();
        self.lq_nilp = self.lq_nilp.min(keep);
        let mut oldest_lq: Option<Placement> = None;
        while self.lq.len() > keep {
            // lsq-lint: allow(no-unwrap-in-lib, reason = "squash pops from the tail only while entries remain younger than the victim")
            let e = self.lq.pop_back().expect("non-empty");
            self.lq_alloc.free(e.place);
            oldest_lq = Some(e.place);
        }
        self.lq_alloc
            .rewind_after_squash(oldest_lq, self.lq.entries().last().map(|e| e.place));

        let keep = self.sq.entries().partition_point(|e| e.seq < seq);
        let mut oldest_sq: Option<Placement> = None;
        while self.sq.len() > keep {
            // lsq-lint: allow(no-unwrap-in-lib, reason = "squash pops from the tail only while entries remain younger than the victim")
            let e = self.sq.pop_back().expect("non-empty");
            self.sq_alloc.free(e.place);
            oldest_sq = Some(e.place);
            if let Some(ssid) = e.ssid {
                self.pred.on_store_squash(ssid, e.seq);
            }
        }
        self.sq_alloc
            .rewind_after_squash(oldest_sq, self.sq.entries().last().map(|e| e.place));

        if let Some(lb) = &mut self.lb {
            lb.squash_from(seq);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current load-queue occupancy.
    pub fn lq_occupancy(&self) -> usize {
        self.lq.len()
    }

    /// Current store-queue occupancy.
    pub fn sq_occupancy(&self) -> usize {
        self.sq.len()
    }

    /// Number of loads currently issued out of program order (an older
    /// load is still unissued) — the paper's Table 4 metric. Every issued
    /// load past the NILP is one.
    pub fn out_of_order_issued_loads(&self) -> usize {
        self.lq_issued - self.lq_nilp
    }

    /// Whether load `seq` is resident and issued.
    pub fn load_is_issued(&self, seq: u64) -> bool {
        self.lq_index(seq).is_some_and(|i| self.lq.is_issued(i))
    }

    /// Whether store `seq` is resident and executed.
    pub fn store_is_issued(&self, seq: u64) -> bool {
        self.sq_index(seq).is_some_and(|i| self.sq.is_issued(i))
    }

    /// The segments the last store-queue search visited, in search
    /// order (`[0]` when unsegmented). Valid right after a
    /// [`Lsq::load_issue`] that reports `searched_sq`.
    pub fn last_sq_path(&self) -> &[usize] {
        &self.sq_path_buf
    }

    /// The segments the last load-queue search visited, in search
    /// order: the load-load search of a [`Lsq::load_issue`] that
    /// reports `searched_lq`, or the violation search of the last
    /// [`Lsq::store_issue`] or [`Lsq::drain_store`] that performed one.
    pub fn last_lq_path(&self) -> &[usize] {
        &self.lq_path_buf
    }

    /// The forwarding source bound to an issued load, if any.
    pub fn load_forwarded_from(&self, seq: u64) -> Option<u64> {
        self.lq_index(seq)
            .and_then(|i| self.lq.entries()[i].forwarded_from)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // tests mutate one field of a default config
mod tests {
    use super::*;
    use crate::config::{LoadOrderPolicy, SegAlloc, SegConfig};

    fn lsq(cfg: LsqConfig) -> Lsq {
        Lsq::new(cfg).expect("valid config")
    }

    /// Dispatch a load and a store helper.
    fn disp_load(l: &mut Lsq, seq: u64, addr: u64) {
        l.dispatch_load(seq, Pc(0x1000 + seq * 4), Addr(addr));
    }

    fn disp_store(l: &mut Lsq, seq: u64, addr: u64) {
        l.dispatch_store(seq, Pc(0x1000 + seq * 4), Addr(addr));
    }

    fn issue_load(l: &mut Lsq, seq: u64) -> LoadIssued {
        match l.load_issue(seq) {
            LoadIssue::Issued(i) => i,
            other => panic!("load {seq} failed to issue: {other:?}"),
        }
    }

    #[test]
    fn forwarding_from_youngest_matching_store() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_store(&mut l, 1, 0x100);
        disp_load(&mut l, 2, 0x100);
        assert!(matches!(
            l.store_issue(0),
            StoreIssue::Issued { violation: None }
        ));
        assert!(matches!(
            l.store_issue(1),
            StoreIssue::Issued { violation: None }
        ));
        l.begin_cycle();
        let i = issue_load(&mut l, 2);
        assert_eq!(
            i.forwarded_from,
            Some(1),
            "youngest older matching store wins"
        );
        assert!(i.searched_sq);
        assert_eq!(l.stats().sq_search_hits, 1);
    }

    #[test]
    fn no_forwarding_from_younger_store() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_store(&mut l, 1, 0x100);
        assert!(matches!(l.store_issue(1), StoreIssue::Issued { .. }));
        l.begin_cycle();
        let i = issue_load(&mut l, 0);
        assert_eq!(i.forwarded_from, None);
    }

    #[test]
    fn premature_load_detected_at_store_execute() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_store(&mut l, 0, 0x200);
        disp_load(&mut l, 1, 0x200);
        // Load issues before the store's address is known: premature.
        let i = issue_load(&mut l, 1);
        assert_eq!(i.forwarded_from, None);
        l.begin_cycle();
        match l.store_issue(0) {
            StoreIssue::Issued { violation } => assert_eq!(violation, Some(1)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(l.stats().violations, 1);
        assert_eq!(l.stats().commit_violations, 0);
    }

    #[test]
    fn store_set_wait_then_release() {
        // A violation trains the predictor; the next dynamic instance of
        // the same static pair is gated at issue, then released when the
        // store executes, and forwards correctly.
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        l.dispatch_store(0, Pc(0x2000), Addr(0x200));
        l.dispatch_load(1, Pc(0x3000), Addr(0x200));
        issue_load(&mut l, 1);
        l.begin_cycle();
        let StoreIssue::Issued { violation: Some(v) } = l.store_issue(0) else {
            panic!("expected violation")
        };
        l.squash_from(v);
        l.begin_cycle();
        // Refetch load 1; also fetch a new instance of the store (seq 2)?
        // Program order: store 0 already executed, load 1 refetches.
        l.dispatch_load(1, Pc(0x3000), Addr(0x200));
        // New dynamic instance of the same static store arrives later in
        // program order — gating applies to *older* stores only, so use a
        // fresh LSQ sequence: store 2 then load 3.
        l.begin_cycle();
        issue_load(&mut l, 1); // no older store in flight: free to go
        l.commit_load(1);
        l.store_retire(0);
        assert!(matches!(
            l.drain_store(),
            StoreDrain::Drained { seq: 0, .. }
        ));
        l.begin_cycle();
        l.dispatch_store(2, Pc(0x2000), Addr(0x200));
        l.dispatch_load(3, Pc(0x3000), Addr(0x200));
        match l.load_issue(3) {
            LoadIssue::WaitStore(2) => {}
            other => panic!("expected WaitStore(2), got {other:?}"),
        }
        // Store executes; the load may now issue and forwards.
        l.begin_cycle();
        assert!(matches!(
            l.store_issue(2),
            StoreIssue::Issued { violation: None }
        ));
        l.begin_cycle();
        let i = issue_load(&mut l, 3);
        assert_eq!(i.forwarded_from, Some(2));
    }

    #[test]
    fn port_exhaustion_stalls_loads() {
        let mut cfg = LsqConfig::default();
        cfg.ports = 1;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x200);
        issue_load(&mut l, 0);
        // Load 1 needs an SQ port (conventional: all loads search) but the
        // single port is taken this cycle.
        assert_eq!(l.load_issue(1), LoadIssue::NoSqPort);
        assert_eq!(l.stats().sq_port_stalls, 1);
        l.begin_cycle();
        issue_load(&mut l, 1);
    }

    #[test]
    fn lq_port_shared_between_stores_and_loadload_searches() {
        let mut cfg = LsqConfig::default();
        cfg.ports = 1;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x300);
        assert!(matches!(l.store_issue(0), StoreIssue::Issued { .. }));
        // The store consumed the only LQ port; the load's load-load search
        // cannot proceed (its SQ port is free).
        assert_eq!(l.load_issue(1), LoadIssue::NoLqPort);
        l.begin_cycle();
        issue_load(&mut l, 1);
    }

    #[test]
    fn pair_predictor_skips_searches_for_untrained_loads() {
        let mut cfg = LsqConfig::default();
        cfg.predictor = PredictorKind::Pair;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x500); // unrelated address, untrained PC
        assert!(matches!(
            l.store_issue(0),
            StoreIssue::Issued { violation: None }
        ));
        let i = issue_load(&mut l, 1);
        assert!(!i.searched_sq, "untrained load skips the SQ search");
        assert_eq!(l.stats().sq_searches, 0);
    }

    #[test]
    fn pair_misprediction_caught_at_store_commit() {
        let mut cfg = LsqConfig::default();
        cfg.predictor = PredictorKind::Pair;
        let mut l = lsq(cfg);
        l.begin_cycle();
        l.dispatch_store(0, Pc(0x2000), Addr(0x100));
        l.dispatch_load(1, Pc(0x3000), Addr(0x100));
        assert!(matches!(
            l.store_issue(0),
            StoreIssue::Issued { violation: None }
        ));
        // The load is untrained, skips its search, misses the forwarding.
        let i = issue_load(&mut l, 1);
        assert!(!i.searched_sq);
        assert_eq!(i.forwarded_from, None);
        // The store's execute did NOT search (pair scheme); detection
        // happens at commit.
        assert_eq!(l.stats().lq_searches_by_stores, 0);
        l.begin_cycle();
        l.store_retire(0);
        assert!(l.has_undrained_store_before(1));
        match l.drain_store() {
            StoreDrain::Drained { violation, .. } => assert_eq!(violation, Some(1)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!l.has_undrained_store_before(1));
        assert_eq!(l.stats().commit_violations, 1);
        // Training happened: refetch the pair; now the load is gated and
        // then searches.
        l.squash_from(1);
        l.begin_cycle();
        l.dispatch_store(2, Pc(0x2000), Addr(0x100));
        l.dispatch_load(3, Pc(0x3000), Addr(0x100));
        assert!(matches!(l.load_issue(3), LoadIssue::WaitStore(2)));
        l.begin_cycle();
        assert!(matches!(l.store_issue(2), StoreIssue::Issued { .. }));
        l.begin_cycle();
        let i = issue_load(&mut l, 3);
        assert!(i.searched_sq, "trained pair searches");
        assert_eq!(i.forwarded_from, Some(2));
    }

    #[test]
    fn perfect_predictor_searches_only_real_dependences() {
        let mut cfg = LsqConfig::default();
        cfg.predictor = PredictorKind::Perfect;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x100);
        disp_load(&mut l, 2, 0x900);
        let i1 = issue_load(&mut l, 1);
        assert!(i1.searched_sq, "oracle sees the matching in-flight store");
        let i2 = issue_load(&mut l, 2);
        assert!(!i2.searched_sq, "oracle sees no match");
        assert_eq!(l.stats().sq_searches, 1);
    }

    #[test]
    fn conventional_loads_always_search_both_queues() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        issue_load(&mut l, 0);
        assert_eq!(l.stats().sq_searches, 1);
        assert_eq!(l.stats().lq_searches_by_loads, 1);
    }

    #[test]
    fn load_buffer_removes_lq_searches() {
        let mut cfg = LsqConfig::default();
        cfg.load_order = LoadOrderPolicy::LoadBuffer(2);
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x200);
        issue_load(&mut l, 1); // out of order: buffered
        issue_load(&mut l, 0);
        assert_eq!(l.stats().lq_searches_by_loads, 0);
        assert!(l.stats().lb_searches >= 2);
    }

    #[test]
    fn load_buffer_full_stalls_third_ooo_load() {
        let mut cfg = LsqConfig::default();
        cfg.load_order = LoadOrderPolicy::LoadBuffer(2);
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        for s in 0..4 {
            disp_load(&mut l, s, 0x100 + s * 64);
        }
        issue_load(&mut l, 1);
        issue_load(&mut l, 2);
        assert_eq!(l.load_issue(3), LoadIssue::LbFull);
        assert_eq!(l.stats().lb_full_stalls, 1);
        // Load 0 issues (NILP target), releasing 1 and 2.
        issue_load(&mut l, 0);
        l.begin_cycle();
        issue_load(&mut l, 3);
    }

    #[test]
    fn sticky_stalls_repeat_and_are_counted_again() {
        let mut cfg = LsqConfig::default();
        cfg.load_order = LoadOrderPolicy::LoadBuffer(2);
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        for s in 0..4 {
            disp_load(&mut l, s, 0x100 + s * 64);
        }
        issue_load(&mut l, 1);
        issue_load(&mut l, 2);
        let before = l.stats().sticky_stalls();
        let stall = l.load_issue(3);
        assert_eq!(stall, LoadIssue::LbFull);
        assert!(stall.is_sticky());
        let delta = l.stats().sticky_stalls().since(before);
        assert_eq!(
            delta,
            StickyStalls {
                lb_full_stalls: 1,
                ..StickyStalls::default()
            }
        );
        // The retry next cycle repeats the stall exactly...
        l.begin_cycle();
        assert_eq!(l.load_issue(3), LoadIssue::LbFull);
        assert_eq!(l.stats().sticky_stalls().since(before).lb_full_stalls, 2);
        // ...so a cycle known to repeat it can count it instead.
        l.repeat_sticky_stalls(delta);
        assert_eq!(l.stats().lb_full_stalls, 3);
        assert!(!LoadIssue::NoSqPort.is_sticky() && !LoadIssue::NoLqPort.is_sticky());
    }

    #[test]
    fn ports_booked_ahead_until_a_multi_segment_search_ends() {
        let mut cfg = LsqConfig::default();
        cfg.segmentation = Some(SegConfig {
            segments: 4,
            entries_per_segment: 4,
            alloc: SegAlloc::NoSelfCircular,
        });
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        for s in 1..8 {
            disp_store(&mut l, s, 0x1000 + s * 64);
        }
        for s in 0..8 {
            assert!(matches!(l.store_issue(s), StoreIssue::Issued { .. }));
            assert!(
                !l.ports_booked_ahead(),
                "an empty LQ is searched in one cycle"
            );
            l.begin_cycle();
        }
        disp_load(&mut l, 8, 0x100);
        assert_eq!(
            issue_load(&mut l, 8).extra_cycles,
            1,
            "a two-segment search"
        );
        assert!(l.ports_booked_ahead());
        l.begin_cycle();
        assert!(!l.ports_booked_ahead(), "its last segment is searched now");
    }

    #[test]
    fn in_order_policies_stall_younger_loads() {
        for policy in [
            LoadOrderPolicy::InOrderAlwaysSearch,
            LoadOrderPolicy::InOrderNoSearch,
        ] {
            let mut cfg = LsqConfig::default();
            cfg.load_order = policy;
            let mut l = lsq(cfg);
            l.begin_cycle();
            disp_load(&mut l, 0, 0x100);
            disp_load(&mut l, 1, 0x200);
            assert_eq!(l.load_issue(1), LoadIssue::InOrderStall);
            issue_load(&mut l, 0);
            issue_load(&mut l, 1);
            let by_loads = l.stats().lq_searches_by_loads;
            if policy.searches_lq() {
                assert_eq!(by_loads, 2, "in-order-always-search still burns LQ ports");
            } else {
                assert_eq!(by_loads, 0);
            }
        }
    }

    #[test]
    fn capacity_limits_dispatch() {
        let mut cfg = LsqConfig::default();
        cfg.lq_entries = 2;
        cfg.sq_entries = 2;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x0);
        disp_load(&mut l, 1, 0x8);
        assert!(!l.can_dispatch_load());
        assert!(l.can_dispatch_store());
        disp_store(&mut l, 2, 0x10);
        disp_store(&mut l, 3, 0x18);
        assert!(!l.can_dispatch_store());
        // Commit frees space.
        issue_load(&mut l, 0);
        l.commit_load(0);
        assert!(l.can_dispatch_load());
    }

    #[test]
    fn squash_restores_everything() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_store(&mut l, 1, 0x200);
        disp_load(&mut l, 2, 0x200);
        issue_load(&mut l, 0);
        issue_load(&mut l, 2);
        l.squash_from(1);
        assert_eq!(l.lq_occupancy(), 1);
        assert_eq!(l.sq_occupancy(), 0);
        // Redispatch with the same seqs.
        l.begin_cycle();
        disp_store(&mut l, 1, 0x200);
        disp_load(&mut l, 2, 0x200);
        assert!(matches!(l.store_issue(1), StoreIssue::Issued { .. }));
        l.begin_cycle();
        let i = issue_load(&mut l, 2);
        assert_eq!(i.forwarded_from, Some(1));
    }

    #[test]
    fn out_of_order_issued_load_count() {
        let mut cfg = LsqConfig::default();
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        for s in 0..5 {
            disp_load(&mut l, s, 0x100 + s * 64);
        }
        assert_eq!(l.out_of_order_issued_loads(), 0);
        issue_load(&mut l, 2);
        issue_load(&mut l, 4);
        assert_eq!(l.out_of_order_issued_loads(), 2);
        l.begin_cycle();
        issue_load(&mut l, 0);
        issue_load(&mut l, 1);
        // Loads 2 and 4: load 2 has no older unissued load now; load 4
        // still has load 3 unissued.
        assert_eq!(l.out_of_order_issued_loads(), 1);
    }

    #[test]
    fn segmented_forwarding_latency_grows_with_distance() {
        let mut cfg = LsqConfig::default();
        cfg.segmentation = Some(SegConfig {
            segments: 4,
            entries_per_segment: 4,
            alloc: SegAlloc::NoSelfCircular,
        });
        let mut l = lsq(cfg);
        l.begin_cycle();
        // Fill two segments of the SQ with non-matching stores, with the
        // matching store oldest (segment 0).
        disp_store(&mut l, 0, 0x100);
        for s in 1..8 {
            disp_store(&mut l, s, 0x1000 + s * 64);
        }
        for s in 0..8 {
            assert!(matches!(l.store_issue(s), StoreIssue::Issued { .. }));
            l.begin_cycle();
        }
        disp_load(&mut l, 8, 0x100);
        let i = issue_load(&mut l, 8);
        assert_eq!(i.forwarded_from, Some(0));
        assert_eq!(i.extra_cycles, 1, "match is in the second searched segment");
        assert!(!i.early_wakeup);
        assert_eq!(l.stats().seg_search_hist.bucket(1), 1);
    }

    #[test]
    fn segmented_search_within_one_segment_keeps_early_wakeup() {
        let mut cfg = LsqConfig::default();
        cfg.segmentation = Some(SegConfig {
            segments: 4,
            entries_per_segment: 8,
            alloc: SegAlloc::SelfCircular,
        });
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        assert!(matches!(l.store_issue(0), StoreIssue::Issued { .. }));
        disp_load(&mut l, 1, 0x100);
        l.begin_cycle();
        let i = issue_load(&mut l, 1);
        assert_eq!(i.extra_cycles, 0);
        assert!(i.early_wakeup);
    }

    #[test]
    fn segmented_capacity_is_total_across_segments() {
        let mut cfg = LsqConfig::default();
        cfg.segmentation = Some(SegConfig {
            segments: 4,
            entries_per_segment: 28,
            alloc: SegAlloc::SelfCircular,
        });
        let mut l = lsq(cfg);
        l.begin_cycle();
        for s in 0..112 {
            assert!(l.can_dispatch_load(), "load {s} should fit");
            disp_load(&mut l, s, s * 8);
        }
        assert!(!l.can_dispatch_load());
    }

    #[test]
    fn commit_blocked_by_lq_port_contention() {
        let mut cfg = LsqConfig::default();
        cfg.predictor = PredictorKind::Pair;
        cfg.ports = 1;
        cfg.load_order = LoadOrderPolicy::SearchLoadQueue;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x800);
        assert!(matches!(l.store_issue(0), StoreIssue::Issued { .. }));
        // The load's load-load search takes the single LQ port...
        issue_load(&mut l, 1);
        // ... so the store's commit-time search is blocked this cycle.
        l.store_retire(0);
        assert_eq!(l.drain_store(), StoreDrain::Blocked);
        assert_eq!(l.stats().commit_port_delays, 1);
        l.begin_cycle();
        assert!(matches!(
            l.drain_store(),
            StoreDrain::Drained {
                violation: None,
                ..
            }
        ));
        assert_eq!(l.drain_store(), StoreDrain::Idle);
    }

    #[test]
    fn load_load_violation_detected_when_enabled() {
        let mut cfg = LsqConfig::default();
        cfg.load_load_squash = true;
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x100); // same word, younger
                                     // Younger load issues first (out of order).
        issue_load(&mut l, 1);
        // The older load's LQ search finds the premature younger load.
        let i = issue_load(&mut l, 0);
        assert_eq!(i.load_order_violation, Some(1));
        assert_eq!(l.stats().load_load_violations, 1);
    }

    #[test]
    fn load_load_violation_suppressed_by_default() {
        let mut cfg = LsqConfig::default();
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x100);
        issue_load(&mut l, 1);
        let i = issue_load(&mut l, 0);
        assert_eq!(i.load_order_violation, None, "uniprocessor default");
        assert_eq!(l.stats().load_load_violations, 0);
    }

    #[test]
    fn load_buffer_detects_load_load_violation() {
        let mut cfg = LsqConfig::default();
        cfg.load_load_squash = true;
        cfg.load_order = LoadOrderPolicy::LoadBuffer(2);
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x100);
        issue_load(&mut l, 1); // buffered, out of order
        let i = issue_load(&mut l, 0); // NILP target searches the buffer
        assert_eq!(
            i.load_order_violation,
            Some(1),
            "buffer search finds the victim"
        );
    }

    #[test]
    fn invalidation_squashes_outstanding_load() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x200);
        issue_load(&mut l, 0);
        // Another processor writes 0x100: the outstanding load is hit.
        assert_eq!(
            l.invalidate(Addr(0x104)),
            Some(0),
            "same-word invalidation hits"
        );
        assert_eq!(l.invalidate(Addr(0x300)), None, "unrelated word misses");
        assert_eq!(l.stats().invalidations, 2);
        assert_eq!(l.stats().invalidation_squashes, 1);
        // Unissued loads are not outstanding.
        assert_eq!(l.invalidate(Addr(0x200)), None);
        // Address sampling helper sees only issued loads.
        assert_eq!(l.nth_issued_load_addr(0), Some(Addr(0x100)));
        assert_eq!(l.nth_issued_load_addr(7), Some(Addr(0x100)));
    }

    #[test]
    fn useless_search_counted_for_pair() {
        let mut cfg = LsqConfig::default();
        cfg.predictor = PredictorKind::Pair;
        let mut l = lsq(cfg);
        // Train a pair, then make the load search when no store matches.
        l.begin_cycle();
        l.dispatch_store(0, Pc(0x2000), Addr(0x100));
        l.dispatch_load(1, Pc(0x3000), Addr(0x100));
        assert!(matches!(l.store_issue(0), StoreIssue::Issued { .. }));
        let _ = l.load_issue(1); // untrained: skips the search, reads stale data
        l.store_retire(0);
        match l.drain_store() {
            StoreDrain::Drained {
                violation: Some(v), ..
            } => {
                l.squash_from(v);
            }
            other => panic!("expected violation, got {other:?}"),
        }
        // Second instance: store of the same set in flight (counter > 0),
        // load searches but the store writes a DIFFERENT address now.
        l.begin_cycle();
        l.dispatch_store(2, Pc(0x2000), Addr(0x900));
        l.dispatch_load(3, Pc(0x3000), Addr(0x100));
        assert!(matches!(l.store_issue(2), StoreIssue::Issued { .. }));
        l.begin_cycle();
        let i = issue_load(&mut l, 3);
        assert!(i.searched_sq);
        assert_eq!(i.forwarded_from, None);
        assert_eq!(l.stats().useless_searches, 1);
    }
}
