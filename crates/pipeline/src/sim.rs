//! The cycle-level out-of-order superscalar simulator.
//!
//! Trace-driven, structural-hazard model with the stage ordering
//! `commit → issue/execute → dispatch → fetch` evaluated once per cycle
//! (commit first, so a stage sees the previous cycle's state downstream
//! of it). The model captures every pipeline-level effect the paper's
//! techniques act through:
//!
//! * **issue stalls** when LSQ search ports, d-cache ports, functional
//!   units, the load buffer, or store-set gating say no;
//! * **dispatch stalls** when the ROB, issue queue, or LSQ capacity
//!   (per the segmentation allocation strategy) is exhausted;
//! * **squash and refetch** on memory-order violations, with the higher
//!   penalty of commit-time detection under the pair predictor;
//! * **fetch stalls** on branch mispredictions (hybrid GAg/PAg) and
//!   i-cache misses;
//! * **speculative vs. late wakeup** of load dependents under segmented,
//!   variable-latency forwarding searches.
//!
//! Wrong-path instructions are modeled as fetch bubbles (trace-driven
//! simplification); store-to-load forwarding and violation detection use
//! only hardware-visible state inside [`Lsq`].

use crate::accounting::{Component, CycleAccountant, NopAccountant};
use crate::branch::HybridPredictor;
use crate::config::SimConfig;
use crate::lifecycle::{Lifecycle, NopLifecycle};
use crate::profile::{NopProfiler, Phase, Profiler};
use crate::result::SimResult;
use crate::sched::{ReadySet, Waiters, Wheel, NIL};
use lsq_core::{LoadIssue, LoadIssued, Lsq, StickyStalls, StoreDrain, StoreIssue};
use lsq_isa::{Addr, InstrKind, Instruction, InstructionStream, Pc};
use lsq_mem::MemoryHierarchy;
use lsq_obs::{
    Column, Event, MemOp, MissLevel, NopTracer, QueueSide, Sampler, SquashCause, Tracer,
};
use lsq_stats::RunningMean;
use lsq_util::rng::Xoshiro256;
use lsq_util::RingQueue;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Dispatched, waiting in the issue queue.
    Waiting,
    /// Issued to a functional unit / the memory system.
    Issued,
}

#[derive(Debug, Clone, Copy)]
struct DynInst {
    instr: Instruction,
    /// Producer sequence numbers this instruction waits on.
    deps: [Option<u64>; 2],
    state: State,
    /// Cycle at which the result is available (valid once issued).
    complete_at: u64,
    /// Extra cycles dependents wait beyond `complete_at` (late wakeup).
    wakeup_extra: u32,
    /// Event scheduler: producers not yet issued (one count per `deps`
    /// slot, so a duplicated producer counts twice).
    pending_deps: u8,
    /// Event scheduler: cycle by which every already-issued producer's
    /// result is available (meaningful while `pending_deps == 0`).
    ready_at: u64,
    /// Cycle accounting: deepest hierarchy level this load's access
    /// reached (0 = L1/forwarded, 1 = L2, 2 = memory). Only written
    /// when an accountant is attached.
    mem_level: u8,
    /// Cycle accounting: extra cycles charged by a variable-latency
    /// segmented forwarding search. Only written when an accountant is
    /// attached.
    seg_extra: u32,
}

/// Why fetch is stalled (cycle accounting only): distinguishes the
/// cause behind `fetch_resume_at` so empty-ROB cycles are charged to
/// the right component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum FetchStall {
    /// No stall recorded (or the cause is a plain fetch limit).
    #[default]
    None,
    /// Squash-and-refetch replay after a violation or invalidation.
    Squash,
    /// Branch-misprediction redirect.
    Mispredict,
    /// Instruction-cache miss.
    IcacheMiss,
}

/// How far ahead of the current cycle, at most, a wakeup can land: a
/// load that misses to memory, searches every store-queue segment, and
/// pays the late-wakeup penalty, or the longest fixed execution latency,
/// whichever is larger. Sizes the scheduler's timing wheel.
fn wakeup_horizon(cfg: &SimConfig) -> u64 {
    let h = &cfg.hierarchy;
    let load = u64::from(h.l1d.hit_latency + h.l2.hit_latency + h.mem_latency)
        + (cfg.lsq.num_segments() as u64 - 1)
        + u64::from(cfg.late_wakeup_penalty);
    let exec = [
        InstrKind::IntAlu,
        InstrKind::IntMul,
        InstrKind::FpAlu,
        InstrKind::FpMul,
        InstrKind::FpDiv,
        InstrKind::Store,
        InstrKind::Branch,
    ]
    .into_iter()
    .map(|k| u64::from(k.exec_latency()))
    .max()
    .unwrap_or(1);
    load.max(exec)
}

/// The trace timeline's CSV columns over what [`Simulator::set_sampler`]
/// feeds it each cycle: the cumulative counters committed instructions,
/// store-queue searches and load-queue searches, and the gauges
/// load-queue and store-queue occupancy. A load holds its load-queue
/// entry from dispatch to commit, so the in-flight loads are the
/// load-queue occupancy and that column repeats it.
const TIMELINE: [Column; 7] = [
    Column::Delta("committed", 0),
    Column::Rate("ipc", 0),
    Column::Mean("lq_occupancy", 0),
    Column::Mean("sq_occupancy", 1),
    Column::Mean("inflight_loads", 0),
    Column::Delta("sq_searches", 1),
    Column::Delta("lq_searches", 2),
];

/// What an idle cycle did: the sticky LSQ stalls it counted and the
/// stall records it left for cycle accounting. Until a trigger fires,
/// every following cycle does exactly the same (see
/// [`Simulator::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdleCycle {
    stalls: StickyStalls,
    head_stall: Option<(u64, Component)>,
    dispatch_stall: Option<Component>,
}

#[derive(Debug, Clone, Copy)]
struct Fetched {
    gseq: u64,
    instr: Instruction,
    avail_at: u64,
}

/// The out-of-order core.
///
/// Four observer parameters follow one pattern: each `Nop*` default
/// makes its sites vanish under monomorphization, so an unobserved
/// simulator compiles to the plain model, and `Option<_>` of a real
/// observer switches it per run.
///
/// * `T`, the trace sink, e.g. [`lsq_obs::TraceBuffer`]. The simulator
///   is the only emitter: the LSQ and the memory hierarchy carry no
///   tracer, and each call into them returns the facts that the
///   simulator turns into events right after it, in the order the
///   model produced them.
/// * `P`, the self-profiler: [`WallProfiler`](crate::profile::WallProfiler)
///   accumulates per-phase wall time (see [`crate::profile`]).
/// * `A`, the cycle accountant:
///   [`SlotAccountant`](crate::accounting::SlotAccountant) charges every
///   commit slot to a CPI-stack component (see [`crate::accounting`]).
/// * `L`, the lifecycle recorder:
///   [`PipeviewRecorder`](crate::lifecycle::PipeviewRecorder) stamps each
///   instruction's stages for pipeline-viewer logs, stage latencies and
///   critical paths (see [`crate::lifecycle`]).
#[derive(Debug)]
pub struct Simulator<
    T: Tracer = NopTracer,
    P: Profiler = NopProfiler,
    A: CycleAccountant = NopAccountant,
    L: Lifecycle = NopLifecycle,
> {
    cfg: SimConfig,
    lsq: Lsq,
    mem: MemoryHierarchy,
    tracer: T,
    profiler: P,
    acct: A,
    life: L,
    sampler: Option<Sampler>,
    bp: HybridPredictor,
    rob: RingQueue<DynInst>,
    /// Issue-queue occupancy, maintained by both scheduler modes and
    /// used for dispatch backpressure.
    iq_len: usize,
    /// Event scheduler: ROB slots whose instruction has every operand
    /// available. Issue scans it from the ROB head in program order —
    /// the order of the polling scheduler's issue-queue scan — and a
    /// resource-stalled candidate keeps its bit for the next cycle.
    ready: ReadySet,
    /// Event scheduler: completion calendar of seqs whose last producer
    /// has issued but whose operands are not yet available, filed under
    /// their `ready_at`. Each cycle moves its own bucket into `ready`.
    wheel: Wheel,
    /// Event scheduler: per producer slot, the consumers waiting for it
    /// to issue. When the producer issues with a late-wakeup penalty
    /// the list survives as its late list: consumers whose `ready_at`
    /// folded the penalty in. Retirement makes a result architecturally
    /// visible immediately, which can precede `complete_at +
    /// wakeup_extra`; committing such a producer re-relaxes its late
    /// list (see [`Self::relax_late_wakeups`]) and clears it.
    waiters: Waiters,
    /// Reference polling scheduler (equivalence testing): when `Some`,
    /// issue re-scans this program-ordered list against the ROB every
    /// cycle, exactly like the pre-event-wakeup code, and the event
    /// structures above stay empty.
    polling_iq: Option<Vec<u64>>,
    /// Architectural register → producing in-flight instruction.
    rename: [Option<u64>; 64],
    /// Fetched but not yet dispatched instructions.
    frontend: VecDeque<Fetched>,
    /// Correct-path instructions from the oldest in-flight one to the
    /// youngest fetched, for squash-and-refetch replay.
    replay: VecDeque<Instruction>,
    replay_base: u64,
    next_fetch: u64,
    fetch_resume_at: u64,
    /// Branch we are stalled on after a fetch-time misprediction.
    pending_redirect: Option<u64>,
    cur_fetch_block: Option<u64>,
    cycle: u64,
    dcache_used: usize,
    /// Whether anything happened this cycle: set at every site that
    /// commits, drains, issues, wakes, dispatches, fetches, squashes or
    /// hits a stall other than a sticky one; cleared as a cycle starts.
    active: bool,
    /// The last fully run cycle, if it was idle: what each following
    /// cycle replays until a trigger fires.
    idle: Option<IdleCycle>,
    stream_done: bool,
    /// Deterministic source for coherence-invalidation injection.
    coherence_rng: Xoshiro256,

    // Cycle-accounting scratch, written only when `acct` is enabled.
    /// Committed count at the end of the previous accounted cycle.
    acct_prev_committed: u64,
    /// Resource stall recorded for the ROB head at issue this cycle
    /// (seq kept to discard the record if a squash changed the head).
    acct_head_stall: Option<(u64, Component)>,
    /// Structural dispatch stall recorded this cycle.
    acct_dispatch_stall: Option<Component>,
    /// The ROB head load was blocked from retiring by an undrained
    /// older store this cycle.
    acct_drain_blocked: bool,
    /// Cause behind the current `fetch_resume_at`.
    acct_fetch_stall: FetchStall,

    committed: u64,
    loads_committed: u64,
    stores_committed: u64,
    branches_committed: u64,
    violation_squashes: u64,
    instructions_squashed: u64,
    lq_occ: RunningMean,
    sq_occ: RunningMean,
    ooo_loads: RunningMean,
}

impl Simulator<NopTracer> {
    /// Builds an unobserved simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_parts(cfg, NopTracer, NopProfiler)
    }
}

impl<T: Tracer, P: Profiler> Simulator<T, P> {
    /// Builds a simulator with a trace sink and a self-profiler but no
    /// cycle accountant or lifecycle recorder.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn with_parts(cfg: SimConfig, tracer: T, profiler: P) -> Self {
        Self::with_lifecycle(cfg, tracer, profiler, NopAccountant, NopLifecycle)
    }
}

impl<T: Tracer, P: Profiler, A: CycleAccountant, L: Lifecycle> Simulator<T, P, A, L> {
    /// Builds a simulator with a trace sink, a self-profiler, a cycle
    /// accountant, and an instruction-lifecycle recorder — the fully
    /// general constructor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn with_lifecycle(
        cfg: SimConfig,
        tracer: T,
        profiler: P,
        mut acct: A,
        mut life: L,
    ) -> Self {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "constructor's documented # Panics contract: cfg must validate")
        cfg.validate().expect("valid simulator configuration");
        acct.init(cfg.commit_width as u64);
        // The in-flight seq window is bounded by the ROB plus the fetch
        // buffer (2 × fetch width); the recorder sizes its live array
        // from this so direct mapping by seq is collision-free.
        life.init(cfg.rob_entries + 2 * cfg.fetch_width + 1);
        let rob = RingQueue::new(cfg.rob_entries);
        let slots = rob.slot_count();
        Self {
            // lsq-lint: allow(no-unwrap-in-lib, reason = "cfg.validate() succeeded on the previous line")
            lsq: Lsq::new(cfg.lsq).expect("validated above"),
            mem: MemoryHierarchy::new(cfg.hierarchy),
            tracer,
            profiler,
            acct,
            life,
            sampler: None,
            bp: HybridPredictor::new(),
            rob,
            iq_len: 0,
            ready: ReadySet::new(slots),
            wheel: Wheel::new(wakeup_horizon(&cfg)),
            waiters: Waiters::new(slots),
            polling_iq: None,
            rename: [None; 64],
            frontend: VecDeque::new(),
            replay: VecDeque::new(),
            replay_base: 0,
            next_fetch: 0,
            fetch_resume_at: 0,
            pending_redirect: None,
            cur_fetch_block: None,
            cycle: 0,
            dcache_used: 0,
            active: false,
            idle: None,
            stream_done: false,
            coherence_rng: Xoshiro256::seed_from_u64(0xC0_4E_0E_1C),
            acct_prev_committed: 0,
            acct_head_stall: None,
            acct_dispatch_stall: None,
            acct_drain_blocked: false,
            acct_fetch_stall: FetchStall::None,
            committed: 0,
            loads_committed: 0,
            stores_committed: 0,
            branches_committed: 0,
            violation_squashes: 0,
            instructions_squashed: 0,
            lq_occ: RunningMean::new(),
            sq_occ: RunningMean::new(),
            ooo_loads: RunningMean::new(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Switches to the reference polling scheduler: `issue` re-scans the
    /// full issue queue in program order every cycle instead of using
    /// event-driven wakeup. Architecturally identical, much slower —
    /// exists so equivalence tests can compare both paths. Must be
    /// called before any instruction dispatches. Not part of
    /// [`SimConfig`]: the scheduler implementation is not an
    /// architectural parameter.
    pub fn set_reference_scheduler(&mut self) {
        assert!(
            self.rob.is_empty(),
            "scheduler mode must be chosen before simulation starts"
        );
        self.polling_iq = Some(Vec::with_capacity(self.cfg.iq_entries));
    }

    /// Attaches the trace timeline: a sampler of `window`-cycle
    /// windows that observes every subsequent cycle. Its CSV columns are
    /// committed instructions, IPC, mean LQ and SQ occupancy, mean
    /// in-flight loads (the LQ occupancy again: a load holds its entry
    /// from dispatch to commit), and SQ and LQ searches. Attach after
    /// warm-up so the timeline covers the measured window only, or
    /// before it to make warm-up behaviour visible.
    ///
    /// # Panics
    /// If `window` is zero.
    pub fn set_sampler(&mut self, window: u64) {
        self.sampler = Some(Sampler::new(window, &TIMELINE));
    }

    /// Detaches the trace timeline, flushing its partial last window.
    pub fn take_sampler(&mut self) -> Option<Sampler> {
        let mut s = self.sampler.take()?;
        s.flush();
        Some(s)
    }

    /// Detaches the cycle accountant's windowed CPI-stack sampler (if
    /// one was attached), flushing its partial last window.
    pub fn take_cpi_sampler(&mut self) -> Option<Sampler> {
        self.acct.take_sampler()
    }

    /// Ends the run and hands back the trace sink with every event it
    /// received.
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// Pre-warms the cache hierarchy with the workload's data and code
    /// footprints (see [`MemoryHierarchy::prewarm_data`]); the stand-in
    /// for the paper's 3-billion-instruction fast-forward before
    /// measurement. Warm-up fills are not simulated events: nothing is
    /// traced.
    pub fn prewarm(&mut self, data_regions: &[(u64, u64)], code: (u64, u64)) {
        self.mem.prewarm_data(data_regions);
        self.mem.prewarm_code(code.0, code.1);
    }

    /// Runs until `max_instrs` instructions have committed (or the trace
    /// ends, or the safety cycle cap triggers) and reports the results.
    /// Calling `run` again continues the same machine state with a fresh
    /// instruction budget, which is how warm-up runs are expressed.
    pub fn run<S: InstructionStream>(&mut self, stream: &mut S, max_instrs: u64) -> SimResult {
        let target = self.committed + max_instrs;
        let cycle_cap = self
            .cycle
            .saturating_add(max_instrs.saturating_mul(self.cfg.cycle_cap_per_instr))
            .saturating_add(10_000);
        let mut hit_cap = false;
        while self.committed < target {
            // Done only when the trace is exhausted AND no fetched
            // instruction is left in flight or awaiting refetch (the
            // replay buffer drains at commit, so it is the authoritative
            // emptiness check — the ROB alone can be transiently empty
            // right after an end-of-trace squash).
            if self.stream_done && self.replay.is_empty() {
                break;
            }
            self.step(stream);
            if self.cycle >= cycle_cap {
                hit_cap = true;
                break;
            }
        }
        self.result(hit_cap)
    }

    /// Runs `f` under the profiler's clock for `phase`. With profiling
    /// disabled ([`NopProfiler`]) the `enabled()` check is a constant
    /// and this compiles down to a plain call — no timestamps taken.
    #[inline]
    fn timed<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.profiler.enabled() {
            return f(self);
        }
        let start = std::time::Instant::now();
        let r = f(self);
        self.profiler
            .record(phase, start.elapsed().as_nanos() as u64);
        r
    }

    /// Advances the machine one cycle.
    ///
    /// Idle-cycle fast path (DESIGN.md §4): after an idle cycle (see
    /// [`Self::observe_idle`]) the stages would repeat it exactly until
    /// a trigger fires ([`Self::idle_ends`], or an injected invalidation
    /// that squashes), so each such cycle runs only the per-cycle
    /// bookkeeping and replays the idle cycle's stall counts and
    /// accounting records. Debug builds run a predicted-idle cycle in
    /// full instead and assert that it repeated the idle cycle exactly.
    // lsq-lint: hot
    fn step<S: InstructionStream>(&mut self, stream: &mut S) {
        self.cycle += 1;
        self.tracer.set_cycle(self.cycle);
        self.dcache_used = 0;
        self.timed(Phase::SegmentAdvance, |s| s.lsq.begin_cycle());
        self.active = false;
        self.inject_invalidations();
        let predicted = self.idle.filter(|_| !self.active && !self.idle_ends());
        match predicted {
            Some(idle) if !cfg!(debug_assertions) => self.replay_idle(idle),
            _ => {
                let before = self.lsq.stats().sticky_stalls();
                // Drains and retirement are one commit phase: drain-time
                // LQ violation searches are charged here, not to
                // LsqSearch.
                self.timed(Phase::Commit, |s| {
                    s.drain_stores();
                    s.commit();
                });
                self.timed(Phase::WakeupIssue, |s| s.issue());
                self.timed(Phase::Dispatch, |s| s.dispatch());
                self.timed(Phase::Fetch, |s| s.fetch(stream));
                self.idle = self.observe_idle(before);
                if predicted.is_some() {
                    assert_eq!(
                        self.idle, predicted,
                        "cycle {} did not repeat the idle cycle before it",
                        self.cycle
                    );
                }
            }
        }
        self.sample();
        if self.acct.enabled() {
            self.account_cycle();
        }
    }

    /// The cycle that just ran, if it was idle: nothing committed,
    /// drained, issued, woke from the wheel, dispatched, fetched, missed
    /// the i-cache or squashed; every issue candidate hit a sticky stall
    /// ([`LoadIssue::is_sticky`]); and no search port is booked past
    /// this cycle. A retired store waiting to drain makes the drain
    /// stage drain it or block on a port, so an idle cycle has none.
    /// The polling scheduler never idles: its readiness is time based,
    /// with no wheel entry to end an idle run.
    /// `before` holds the sticky-stall counters from before the stages
    /// ran.
    // lsq-lint: hot
    fn observe_idle(&self, before: StickyStalls) -> Option<IdleCycle> {
        if self.active || self.polling_iq.is_some() || self.lsq.ports_booked_ahead() {
            return None;
        }
        Some(IdleCycle {
            stalls: self.lsq.stats().sticky_stalls().since(before),
            head_stall: self.acct_head_stall,
            dispatch_stall: self.acct_dispatch_stall,
        })
    }

    /// Whether a time trigger ends a run of idle cycles at this cycle:
    /// a wakeup is due, the ROB head completes, the frontend head
    /// becomes dispatchable, or fetch resumes. Nothing else that an idle
    /// cycle's stages read changes with time alone.
    // lsq-lint: hot
    fn idle_ends(&self) -> bool {
        let cycle = self.cycle;
        !self.wheel.is_empty_at(cycle)
            || self
                .rob
                .front()
                .is_some_and(|e| e.state == State::Issued && e.complete_at <= cycle)
            || self.frontend.front().is_some_and(|f| f.avail_at == cycle)
            || self.fetch_resume_at == cycle
    }

    /// Counts an idle cycle again in place of running the stages: its
    /// sticky stalls, and the stall records the accountant reads.
    // lsq-lint: hot
    fn replay_idle(&mut self, idle: IdleCycle) {
        self.lsq.repeat_sticky_stalls(idle.stalls);
        self.acct_head_stall = idle.head_stall;
        self.acct_dispatch_stall = idle.dispatch_stall;
    }

    // ------------------------------------------------------------------
    // Cycle accounting
    // ------------------------------------------------------------------

    /// Classifies every commit slot of the cycle that just ended:
    /// slots that retired an instruction are charged to
    /// [`Component::Base`], the remaining slots to exactly one stall
    /// component picked from the state of the ROB head (commit runs
    /// first in [`Self::step`], so the head observed here is the one
    /// commit failed to retire this cycle — the stall records taken by
    /// issue and dispatch later in the same cycle refer to it).
    // lsq-lint: hot
    fn account_cycle(&mut self) {
        let n = self.committed - self.acct_prev_committed;
        self.acct_prev_committed = self.committed;
        // Consume the per-cycle stall records even on full-width cycles
        // so nothing leaks into the next cycle's classification.
        let head_stall = self.acct_head_stall.take();
        let dispatch_stall = self.acct_dispatch_stall.take();
        let drain_blocked = std::mem::take(&mut self.acct_drain_blocked);
        let width = self.cfg.commit_width as u64;
        debug_assert!(n <= width, "committed more than commit_width in one cycle");
        if n > 0 {
            self.acct.charge(Component::Base, n);
        }
        let stall = width - n;
        if stall > 0 {
            let c = self.classify_stall(head_stall, dispatch_stall, drain_blocked);
            self.acct.charge(c, stall);
        }
        self.acct.end_cycle(self.cycle);
    }

    /// Picks the single stall component for this cycle's unused commit
    /// slots. Precedence: the ROB head's own reason first (interval
    /// analysis), then structural dispatch backpressure, then the
    /// residual dependence-chain bucket.
    // lsq-lint: hot
    fn classify_stall(
        &self,
        head_stall: Option<(u64, Component)>,
        dispatch_stall: Option<Component>,
        drain_blocked: bool,
    ) -> Component {
        let Some(seq) = self.rob.head_seq() else {
            // Empty window: the front end owns the stall.
            if self.pending_redirect.is_some() {
                return Component::BranchRedirect;
            }
            if self.cycle < self.fetch_resume_at {
                return match self.acct_fetch_stall {
                    FetchStall::Squash => Component::SquashReplay,
                    FetchStall::Mispredict => Component::BranchRedirect,
                    FetchStall::IcacheMiss | FetchStall::None => Component::Frontend,
                };
            }
            return Component::Frontend;
        };
        // lsq-lint: allow(no-unwrap-in-lib, reason = "the head seq was taken from the ROB just above, so front() is occupied")
        let e = self.rob.front().expect("head exists");
        if e.state == State::Issued {
            if drain_blocked
                || (e.complete_at <= self.cycle && self.lsq.has_undrained_store_before(seq))
            {
                // The head load finished but may not retire past an
                // undrained older store.
                return Component::StoreDrain;
            }
            if e.complete_at > self.cycle {
                return match e.instr.kind {
                    InstrKind::Load => match e.mem_level {
                        2 => Component::CacheMem,
                        1 => Component::CacheL2,
                        0 if e.seg_extra > 0 => Component::SegmentOverhead,
                        _ => Component::ExecLatency,
                    },
                    k if k.is_branch()
                        && (self.pending_redirect.is_some()
                            || (self.acct_fetch_stall == FetchStall::Mispredict
                                && self.cycle < self.fetch_resume_at)) =>
                    {
                        Component::BranchRedirect
                    }
                    _ => Component::ExecLatency,
                };
            }
            // Head complete but the commit group stopped mid-width
            // behind it (e.g. a younger blocked load): residual
            // execution skew.
            return Component::ExecLatency;
        }
        // Head still waiting in the issue queue. A resource stall
        // recorded for it at issue time names the resource; otherwise
        // structural dispatch backpressure, then the dependence chain.
        if let Some((s, c)) = head_stall {
            if s == seq {
                return c;
            }
        }
        dispatch_stall.unwrap_or(Component::DepChain)
    }

    /// Records a resource stall observed at issue time, kept only when
    /// it concerns the current ROB head (the instruction whose stall
    /// defines the cycle under head-based attribution).
    #[inline]
    fn record_head_stall(&mut self, seq: u64, c: Component) {
        if self.acct.enabled() && self.rob.head_seq() == Some(seq) {
            self.acct_head_stall = Some((seq, c));
        }
    }

    /// Records the per-cycle occupancy means and feeds the timeline.
    // lsq-lint: hot
    fn sample(&mut self) {
        let (lq, sq) = (self.lsq.lq_occupancy(), self.lsq.sq_occupancy());
        self.lq_occ.record(lq as f64);
        self.sq_occ.record(sq as f64);
        self.ooo_loads
            .record(self.lsq.out_of_order_issued_loads() as f64);
        if let Some(sampler) = &mut self.sampler {
            let stats = self.lsq.stats();
            sampler.observe(
                self.cycle,
                &[self.committed, stats.sq_searches, stats.lq_searches()],
                &[lq as u64, sq as u64],
            );
        }
    }

    /// Injects external coherence invalidations (§2.2 scheme 2): with the
    /// configured per-cycle probability, a word some outstanding load has
    /// read is written by "another processor"; any outstanding load to
    /// that word (premature or otherwise) is squashed with everything
    /// younger, R10000-style.
    fn inject_invalidations(&mut self) {
        if self.cfg.invalidation_rate <= 0.0 {
            return;
        }
        if !self.coherence_rng.chance(self.cfg.invalidation_rate) {
            return;
        }
        let pick = self.coherence_rng.range_usize(1 << 16);
        if let Some(addr) = self.lsq.nth_issued_load_addr(pick) {
            if let Some(victim) = self.lsq.invalidate(addr) {
                self.squash(
                    victim,
                    self.cfg.mispredict_penalty,
                    SquashCause::Invalidation,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Drains retired stores from the store queue in the background:
    /// each drain writes the cache (d-cache port) and, under the pair
    /// scheme, performs the commit-time violation search (LQ ports). A
    /// detected violation squashes from the premature load — which is
    /// still in the ROB, since loads cannot retire past an undrained
    /// older store.
    // lsq-lint: hot
    fn drain_stores(&mut self) {
        while self.dcache_used < self.cfg.dcache_ports {
            match self.lsq.drain_store() {
                StoreDrain::Idle => break,
                StoreDrain::Blocked => {
                    self.active = true;
                    break;
                }
                StoreDrain::Drained {
                    seq,
                    addr,
                    pc,
                    violation,
                } => {
                    self.active = true;
                    self.dcache_used += 1;
                    self.trace_drain(seq, pc, violation);
                    self.data_access(addr, true);
                    if let Some(victim) = violation {
                        let penalty = self.cfg.mispredict_penalty + self.cfg.pair_recovery_extra;
                        self.squash(victim, penalty, SquashCause::CommitMemOrder);
                        break;
                    }
                }
            }
        }
    }

    // lsq-lint: hot
    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(seq) = self.rob.head_seq() else {
                break;
            };
            // lsq-lint: allow(no-unwrap-in-lib, reason = "the commit loop runs only while the ROB has a head")
            let e = *self.rob.front().expect("head exists");
            if e.state != State::Issued || e.complete_at > self.cycle {
                break;
            }
            match e.instr.kind {
                InstrKind::Store => {
                    // Retirement frees the ROB slot; the SQ entry drains
                    // in the background ("the store is not in the
                    // pipeline anymore", §3.2).
                    self.lsq.store_retire(seq);
                    self.retire(seq);
                }
                InstrKind::Load => {
                    // A load may not retire past an undrained older
                    // store: the drain's violation search must still see
                    // it in the load queue.
                    if self.lsq.has_undrained_store_before(seq) {
                        if self.acct.enabled() {
                            self.acct_drain_blocked = true;
                        }
                        break;
                    }
                    self.lsq.commit_load(seq);
                    self.retire(seq);
                }
                _ => self.retire(seq),
            }
        }
    }

    fn retire(&mut self, seq: u64) {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "the commit loop established this head; popping it cannot fail")
        let (s, e) = self.rob.pop().expect("retiring head");
        debug_assert_eq!(s, seq);
        self.active = true;
        if self.life.enabled() {
            self.life.commit(seq, self.cycle);
        }
        if e.wakeup_extra > 0 {
            self.relax_late_wakeups(seq);
        }
        // The slot's late list (if any) is spent; the slot is reused.
        self.waiters.clear(self.rob.slot(seq));
        debug_assert_eq!(self.replay_base, seq);
        self.replay.pop_front();
        self.replay_base += 1;
        // A retired instruction's value lives in the architectural state;
        // drop the rename mapping if it still points here.
        if let Some(dst) = e.instr.dst {
            let slot = &mut self.rename[dst.flat_index()];
            if *slot == Some(seq) {
                *slot = None;
            }
        }
        self.committed += 1;
        match e.instr.kind {
            InstrKind::Load => self.loads_committed += 1,
            InstrKind::Store => self.stores_committed += 1,
            InstrKind::Branch => self.branches_committed += 1,
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    /// Cycle at which dependence `dep` allows issue, or `None` if the
    /// producer has not yet issued.
    // lsq-lint: hot
    fn dep_ready_at(&self, dep: u64) -> Option<u64> {
        match self.rob.get(dep) {
            None => Some(0), // committed
            Some(p) => match p.state {
                State::Waiting => None,
                State::Issued => Some(p.complete_at + u64::from(p.wakeup_extra)),
            },
        }
    }

    // lsq-lint: hot
    fn ready(&self, e: &DynInst) -> bool {
        e.deps
            .iter()
            .flatten()
            .all(|&d| self.dep_ready_at(d).is_some_and(|t| t <= self.cycle))
    }

    /// Attempts to issue `seq` this cycle. Returns `true` if it issued
    /// (the caller removes it from its scheduling structure), `false`
    /// on a resource stall. Resource checks run in the same order as
    /// the historical polling scan (unit, then dcache port, then LSQ)
    /// so stall counters match between scheduler modes.
    // lsq-lint: hot
    fn try_issue_one(
        &mut self,
        seq: u64,
        e: &DynInst,
        int_left: &mut usize,
        fp_left: &mut usize,
        squash_request: &mut Option<(u64, SquashCause)>,
    ) -> bool {
        let kind = e.instr.kind;
        let unit_left = if kind.is_fp() { fp_left } else { int_left };
        if *unit_left == 0 {
            self.active = true;
            self.record_head_stall(seq, Component::ExecLatency);
            return false;
        }
        match kind {
            InstrKind::Load => {
                if self.dcache_used >= self.cfg.dcache_ports {
                    self.active = true;
                    self.record_head_stall(seq, Component::DcachePort);
                    return false;
                }
                match self.timed(Phase::LsqSearch, |s| s.lsq.load_issue(seq)) {
                    LoadIssue::Issued(li) => {
                        self.trace_load_issue(seq, &e.instr, &li);
                        if let Some(victim) = li.load_order_violation {
                            // §2.2 scheme 1: a younger same-word load
                            // issued out of order; squash it (the
                            // issuing, older load proceeds).
                            *squash_request = Some((victim, SquashCause::LoadLoad));
                        }
                        let lat = if li.forwarded_from.is_some() {
                            // Forwarded data arrives with hit latency.
                            self.cfg.hierarchy.l1d_hit_latency()
                        } else {
                            self.data_access(e.instr.addr, false)
                        };
                        // Cycle accounting / lifecycle: the deepest level
                        // the access reached (a forward is an L1 hit).
                        let mem_level = if self.acct.enabled() || self.life.enabled() {
                            self.access_level(self.cfg.hierarchy.l1d.hit_latency, lat)
                        } else {
                            0
                        };
                        let acct_enabled = self.acct.enabled();
                        let complete_at = self.cycle + u64::from(lat) + u64::from(li.extra_cycles);
                        // lsq-lint: allow(no-unwrap-in-lib, reason = "completion events reference only in-flight seqs resident in the ROB")
                        let entry = self.rob.get_mut(seq).expect("resident");
                        entry.state = State::Issued;
                        entry.complete_at = complete_at;
                        entry.wakeup_extra = if li.early_wakeup {
                            0
                        } else {
                            self.cfg.late_wakeup_penalty
                        };
                        if acct_enabled {
                            entry.mem_level = mem_level;
                            entry.seg_extra = li.extra_cycles;
                        }
                        self.dcache_used += 1;
                        *unit_left -= 1;
                        if self.life.enabled() {
                            self.life.issue(
                                seq,
                                self.cycle,
                                complete_at,
                                li.extra_cycles,
                                mem_level,
                            );
                        }
                        true
                    }
                    stall => {
                        self.active |= !stall.is_sticky();
                        if self.acct.enabled() {
                            let c = match stall {
                                LoadIssue::NoSqPort | LoadIssue::NoLqPort => Component::SearchPort,
                                _ => Component::MemOrdering,
                            };
                            self.record_head_stall(seq, c);
                        }
                        false
                    }
                }
            }
            InstrKind::Store => match self.timed(Phase::LsqSearch, |s| s.lsq.store_issue(seq)) {
                StoreIssue::Issued { violation } => {
                    self.trace_store_issue(seq, &e.instr, violation);
                    // lsq-lint: allow(no-unwrap-in-lib, reason = "completion events reference only in-flight seqs resident in the ROB")
                    let entry = self.rob.get_mut(seq).expect("resident");
                    entry.state = State::Issued;
                    entry.complete_at = self.cycle + 1;
                    *unit_left -= 1;
                    if self.life.enabled() {
                        self.life.issue(seq, self.cycle, self.cycle + 1, 0, 0);
                    }
                    if let Some(victim) = violation {
                        *squash_request = Some((victim, SquashCause::MemOrder));
                    }
                    true
                }
                StoreIssue::NoLqPort => {
                    self.active = true;
                    self.record_head_stall(seq, Component::SearchPort);
                    false
                }
            },
            _ => {
                // lsq-lint: allow(no-unwrap-in-lib, reason = "replay events reference only in-flight seqs resident in the ROB")
                let entry = self.rob.get_mut(seq).expect("resident");
                entry.state = State::Issued;
                entry.complete_at = self.cycle + u64::from(kind.exec_latency());
                let complete_at = entry.complete_at;
                *unit_left -= 1;
                if self.life.enabled() {
                    self.life.issue(seq, self.cycle, complete_at, 0, 0);
                }
                if kind.is_branch() && self.pending_redirect == Some(seq) {
                    // The mispredicted branch resolves: redirect fetch
                    // after the Table 1 penalty.
                    self.pending_redirect = None;
                    self.fetch_resume_at = complete_at + self.cfg.mispredict_penalty;
                    self.cur_fetch_block = None;
                    if self.acct.enabled() {
                        self.acct_fetch_stall = FetchStall::Mispredict;
                    }
                }
                true
            }
        }
    }

    // lsq-lint: hot
    fn issue(&mut self) {
        let mut issued = 0usize;
        let mut int_left = self.cfg.int_units;
        let mut fp_left = self.cfg.fp_units;
        let mut squash_request: Option<(u64, SquashCause)> = None;
        if let Some(mut iq) = self.polling_iq.take() {
            // Reference mode: re-scan the whole issue queue in program
            // order, re-walking dependencies against the ROB.
            let mut i = 0usize;
            while i < iq.len() && issued < self.cfg.issue_width {
                let seq = iq[i];
                // lsq-lint: allow(no-unwrap-in-lib, reason = "the IQ holds only seqs resident in the ROB")
                let e = *self.rob.get(seq).expect("IQ entry in ROB");
                debug_assert_eq!(e.state, State::Waiting);
                if !self.ready(&e) {
                    i += 1;
                    continue;
                }
                if self.try_issue_one(seq, &e, &mut int_left, &mut fp_left, &mut squash_request) {
                    issued += 1;
                    iq.remove(i);
                    self.iq_len -= 1;
                    if squash_request.is_some() {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            self.polling_iq = Some(iq);
        } else {
            // Event mode. All execution latencies are >= 1 cycle, so no
            // instruction becomes ready mid-cycle as a consequence of
            // this cycle's issues: the ready set is fixed once this
            // cycle's wheel bucket is drained, exactly as the polling
            // scan sees it. An entry superseded by a late-wakeup
            // relaxation no longer matches the instruction's `ready_at`
            // and is dropped (the earlier replacement carries the
            // wakeup).
            let (cycle, rob, ready) = (self.cycle, &self.rob, &mut self.ready);
            self.active |= !self.wheel.is_empty_at(cycle);
            self.wheel.drain(cycle, |seq| match rob.get(seq) {
                Some(e) if e.state == State::Waiting && e.ready_at == cycle => {
                    ready.insert(rob.slot(seq));
                }
                _ => {}
            });
            // Scan the set slots from the head's slot to the end of the
            // slot array, then from slot 0 up to the head's: ascending
            // seq, i.e. program order. A resource-stalled candidate
            // keeps its bit and is retried next cycle, like the polling
            // scan skipping and re-visiting the entry.
            let head = self.rob.head_seq().unwrap_or(0);
            let head_slot = self.rob.slot(head);
            let slots = self.rob.slot_count();
            'scan: for (from, end) in [(head_slot, slots), (0, head_slot)] {
                let mut from = from;
                while let Some(slot) = self.ready.next_in(from, end) {
                    from = slot + 1;
                    let seq = head + (slot.wrapping_sub(head_slot) & (slots - 1)) as u64;
                    // lsq-lint: allow(no-unwrap-in-lib, reason = "the ready set holds only slots of seqs resident in the ROB")
                    let e = *self.rob.get(seq).expect("ready entry in ROB");
                    debug_assert_eq!(e.state, State::Waiting);
                    debug_assert!(self.ready(&e));
                    if self.try_issue_one(seq, &e, &mut int_left, &mut fp_left, &mut squash_request)
                    {
                        issued += 1;
                        self.iq_len -= 1;
                        self.ready.remove(slot);
                        self.wake_dependents(seq);
                        if squash_request.is_some() || issued == self.cfg.issue_width {
                            break 'scan;
                        }
                    }
                }
            }
        }
        self.active |= issued > 0;
        if let Some((victim, cause)) = squash_request {
            self.squash(victim, self.cfg.mispredict_penalty, cause);
        }
    }

    /// Subscribes a just-dispatched instruction to the event scheduler:
    /// counts unissued producers as pending and registers with their
    /// waiter lists; if everything has already issued, schedules the
    /// wakeup directly.
    // lsq-lint: hot
    fn enqueue_dispatched(&mut self, seq: u64, deps: [Option<u64>; 2]) {
        let mut pending: u8 = 0;
        let mut ready_at: u64 = 0;
        let slot = self.rob.slot(seq);
        for (i, d) in deps.iter().enumerate() {
            let Some(d) = *d else { continue };
            match self.rob.get(d) {
                None => {} // committed: satisfied at cycle 0
                Some(p) => match p.state {
                    State::Waiting => {
                        pending += 1;
                        self.waiters.push(self.rob.slot(d), slot, i, seq);
                    }
                    State::Issued => {
                        ready_at = ready_at.max(p.complete_at + u64::from(p.wakeup_extra));
                        if p.wakeup_extra > 0 {
                            // The producer's surviving list is its late list.
                            self.waiters.push(self.rob.slot(d), slot, i, seq);
                        }
                    }
                },
            }
        }
        // lsq-lint: allow(no-unwrap-in-lib, reason = "this entry was pushed into the ROB by the dispatch just above")
        let e = self.rob.get_mut(seq).expect("just dispatched");
        e.pending_deps = pending;
        e.ready_at = ready_at;
        if pending == 0 {
            self.schedule_wakeup(seq, ready_at);
        }
    }

    // lsq-lint: hot
    fn schedule_wakeup(&mut self, seq: u64, at: u64) {
        if at <= self.cycle {
            self.ready.insert(self.rob.slot(seq));
        } else {
            self.wheel.schedule(self.cycle, at, seq);
        }
    }

    /// Notifies consumers that `producer` issued. Consumers whose last
    /// pending producer this was get a wheel entry at the cycle all
    /// their operands are available (late wakeup included). The list
    /// survives as the late list only if the producer pays a late-wakeup
    /// penalty.
    // lsq-lint: hot
    fn wake_dependents(&mut self, producer: u64) {
        let pslot = self.rob.slot(producer);
        let mut node = self.waiters.first(pslot);
        if node == NIL {
            return;
        }
        // lsq-lint: allow(no-unwrap-in-lib, reason = "dependence edges reference only in-flight producers")
        let p = self.rob.get(producer).expect("producer resident");
        let avail = p.complete_at + u64::from(p.wakeup_extra);
        if p.wakeup_extra == 0 {
            self.waiters.clear(pslot);
        }
        while node != NIL {
            let c = self.waiters.consumer(node);
            node = self.waiters.next(node);
            // lsq-lint: allow(no-unwrap-in-lib, reason = "the consumer list holds only in-flight seqs")
            let e = self.rob.get_mut(c).expect("consumer resident");
            e.pending_deps -= 1;
            e.ready_at = e.ready_at.max(avail);
            if e.pending_deps > 0 {
                continue;
            }
            let at = e.ready_at;
            // Issue latencies are at least one cycle, so nothing woken
            // during the issue scan joins this cycle's ready set.
            debug_assert!(at > self.cycle, "same-cycle wakeup during the issue scan");
            self.schedule_wakeup(c, at);
        }
    }

    /// Called when a producer with a late-wakeup penalty retires before
    /// `complete_at + wakeup_extra`: retirement makes its result
    /// architecturally visible right away (the polling scheduler sees
    /// this through `dep_ready_at` returning zero for committed
    /// producers), so consumers whose wakeup folded in the penalty are
    /// recomputed and, when that moves their wakeup earlier, the
    /// calendar entry is superseded — the old one is recognized as
    /// stale at drain time because it no longer matches `ready_at`.
    // lsq-lint: hot
    fn relax_late_wakeups(&mut self, producer: u64) {
        let mut node = self.waiters.first(self.rob.slot(producer));
        while node != NIL {
            let c = self.waiters.consumer(node);
            node = self.waiters.next(node);
            let Some(e) = self.rob.get(c) else { continue };
            if e.state != State::Waiting {
                continue;
            }
            let deps = e.deps;
            let pending = e.pending_deps;
            let old = e.ready_at;
            let mut ready_at = 0u64;
            for d in deps.iter().flatten() {
                if let Some(p) = self.rob.get(*d) {
                    if p.state == State::Issued {
                        ready_at = ready_at.max(p.complete_at + u64::from(p.wakeup_extra));
                    }
                }
            }
            if ready_at >= old {
                continue;
            }
            if pending > 0 {
                // Not schedulable yet; just correct the running max so
                // the final wakeup no longer charges the stale penalty.
                // lsq-lint: allow(no-unwrap-in-lib, reason = "the wakeup calendar holds only in-flight consumers")
                self.rob.get_mut(c).expect("consumer resident").ready_at = ready_at;
                continue;
            }
            if old <= self.cycle {
                // Already drained into (or about to drain into) the
                // ready set this cycle; an earlier time changes nothing.
                continue;
            }
            // lsq-lint: allow(no-unwrap-in-lib, reason = "the wakeup calendar holds only in-flight consumers")
            self.rob.get_mut(c).expect("consumer resident").ready_at = ready_at;
            self.schedule_wakeup(c, ready_at);
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (rename + queue allocation)
    // ------------------------------------------------------------------

    // lsq-lint: hot
    fn dispatch(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            let Some(f) = self.frontend.front().copied() else {
                break;
            };
            if f.avail_at > self.cycle {
                break;
            }
            if self.rob.is_full() {
                if self.acct.enabled() {
                    self.acct_dispatch_stall = Some(Component::RobFull);
                }
                break;
            }
            if self.iq_len >= self.cfg.iq_entries {
                if self.acct.enabled() {
                    self.acct_dispatch_stall = Some(Component::IqFull);
                }
                break;
            }
            match f.instr.kind {
                InstrKind::Load if !self.lsq.can_dispatch_load() => {
                    if self.acct.enabled() {
                        self.acct_dispatch_stall = Some(Component::LqFull);
                    }
                    break;
                }
                InstrKind::Store if !self.lsq.can_dispatch_store() => {
                    if self.acct.enabled() {
                        self.acct_dispatch_stall = Some(Component::SqFull);
                    }
                    break;
                }
                _ => {}
            }
            self.frontend.pop_front();
            self.active = true;
            let mut deps = [None, None];
            for (slot, src) in f.instr.srcs.iter().enumerate() {
                if let Some(r) = src {
                    deps[slot] = self.rename[r.flat_index()];
                }
            }
            let seq = self
                .rob
                .push(DynInst {
                    instr: f.instr,
                    deps,
                    state: State::Waiting,
                    complete_at: 0,
                    wakeup_extra: 0,
                    pending_deps: 0,
                    ready_at: 0,
                    mem_level: 0,
                    seg_extra: 0,
                })
                // lsq-lint: allow(no-unwrap-in-lib, reason = "guarded by the fullness check above")
                .expect("checked not full");
            debug_assert_eq!(seq, f.gseq);
            if self.life.enabled() {
                self.life.dispatch(seq, self.cycle, deps);
            }
            let (pc, addr) = (f.instr.pc, f.instr.addr);
            let op = match f.instr.kind {
                InstrKind::Load => {
                    self.lsq.dispatch_load(seq, pc, addr);
                    Some(MemOp::Load)
                }
                InstrKind::Store => {
                    self.lsq.dispatch_store(seq, pc, addr);
                    Some(MemOp::Store)
                }
                _ => None,
            };
            if let Some(op) = op.filter(|_| self.tracer.enabled()) {
                self.tracer.emit(Event::Dispatch { op, seq, pc, addr });
            }
            if let Some(dst) = f.instr.dst {
                self.rename[dst.flat_index()] = Some(seq);
            }
            self.iq_len += 1;
            if let Some(iq) = &mut self.polling_iq {
                iq.push(seq);
            } else {
                self.enqueue_dispatched(seq, deps);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    // lsq-lint: hot
    fn fetch<S: InstructionStream>(&mut self, stream: &mut S) {
        if self.cycle < self.fetch_resume_at || self.pending_redirect.is_some() {
            return;
        }
        let i_block = self.cfg.hierarchy.l1i.block_bytes;
        let i_hit = self.cfg.hierarchy.l1i.hit_latency;
        for _ in 0..self.cfg.fetch_width {
            if self.frontend.len() >= 2 * self.cfg.fetch_width {
                break;
            }
            // Past a full buffer, fetch reads the stream: it fetches,
            // misses the i-cache, or finds the trace's end.
            self.active = true;
            // Obtain the instruction at `next_fetch`: from the replay
            // buffer after a squash, from the trace otherwise.
            let idx = (self.next_fetch - self.replay_base) as usize;
            let instr = if idx < self.replay.len() {
                self.replay[idx]
            } else {
                match stream.next_instr() {
                    Some(i) => {
                        self.replay.push_back(i);
                        i
                    }
                    None => {
                        self.stream_done = true;
                        break;
                    }
                }
            };
            // Instruction cache: accessing a new block may miss and stall
            // fetch for the extra latency.
            let block = instr.pc.0 / i_block;
            if self.cur_fetch_block != Some(block) {
                let lat = self.inst_fetch(Addr(instr.pc.0));
                self.cur_fetch_block = Some(block);
                let extra = lat.saturating_sub(i_hit);
                if extra > 0 {
                    self.fetch_resume_at = self.cycle + u64::from(extra);
                    if self.acct.enabled() {
                        self.acct_fetch_stall = FetchStall::IcacheMiss;
                    }
                    break; // the instruction is fetched after the miss
                }
            }
            let gseq = self.next_fetch;
            self.next_fetch += 1;
            if self.life.enabled() {
                self.life.fetch(gseq, self.cycle, &instr);
            }
            self.frontend.push_back(Fetched {
                gseq,
                instr,
                avail_at: self.cycle + 1,
            });
            if instr.kind.is_branch() {
                let correct = self.bp.predict_and_update(instr.pc, instr.taken);
                if !correct {
                    // Wrong path: stall fetch until this branch resolves.
                    self.pending_redirect = Some(gseq);
                    break;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Memory accesses and tracing
    // ------------------------------------------------------------------

    /// The level an access of latency `lat` reached, given its L1's hit
    /// latency: 0 for the L1, 1 for the L2, 2 for memory. Latencies add
    /// up level by level, and [`SimConfig::validate`] requires non-zero
    /// L2 and memory latencies, so the level is exact.
    // lsq-lint: hot
    fn access_level(&self, l1_hit: u32, lat: u32) -> u8 {
        let h = &self.cfg.hierarchy;
        if lat >= l1_hit + h.l2.hit_latency + h.mem_latency {
            2
        } else if lat >= l1_hit + h.l2.hit_latency {
            1
        } else {
            0
        }
    }

    /// A data access through the hierarchy; returns its latency and
    /// traces a miss.
    // lsq-lint: hot
    fn data_access(&mut self, addr: Addr, write: bool) -> u32 {
        let lat = self.mem.data_access(addr, write);
        self.trace_miss(addr, lat, false);
        lat
    }

    /// An instruction fetch through the hierarchy; returns its latency
    /// and traces a miss.
    // lsq-lint: hot
    fn inst_fetch(&mut self, addr: Addr) -> u32 {
        let lat = self.mem.inst_fetch(addr);
        self.trace_miss(addr, lat, true);
        lat
    }

    /// Emits [`Event::CacheMiss`] for an access that left its L1.
    // lsq-lint: hot
    fn trace_miss(&mut self, addr: Addr, lat: u32, fetch: bool) {
        if !self.tracer.enabled() {
            return;
        }
        let h = &self.cfg.hierarchy;
        let l1_hit = if fetch {
            h.l1i.hit_latency
        } else {
            h.l1d.hit_latency
        };
        let level = match self.access_level(l1_hit, lat) {
            0 => return,
            1 => MissLevel::L2,
            _ => MissLevel::Memory,
        };
        self.tracer.emit(Event::CacheMiss { addr, level, fetch });
    }

    /// The PC of in-flight instruction `seq` (0 if not in the ROB).
    // lsq-lint: hot
    fn rob_pc(&self, seq: u64) -> Pc {
        self.rob.get(seq).map_or(Pc(0), |e| e.instr.pc)
    }

    /// Emits the events of an issued load in the order its LSQ work
    /// ran: the store-queue search and its segment hops, the load-queue
    /// search and its hops, the load-buffer search, the forward, a
    /// useless search, and the issue itself.
    // lsq-lint: hot
    fn trace_load_issue(&mut self, seq: u64, instr: &Instruction, li: &LoadIssued) {
        if !self.tracer.enabled() {
            return;
        }
        let (pc, addr) = (instr.pc, instr.addr);
        if li.searched_sq {
            let path = self.lsq.last_sq_path();
            self.tracer.emit(Event::SqSearch {
                load: seq,
                segments: path.len() as u32,
                hit: li.forwarded_from.is_some(),
            });
            trace_seg_path(&mut self.tracer, QueueSide::Sq, path);
        }
        if li.searched_lq {
            self.trace_lq_search(MemOp::Load, seq);
        }
        if li.searched_lb {
            self.tracer.emit(Event::LbSearch { load: seq });
        }
        if let Some(store) = li.forwarded_from {
            self.tracer.emit(Event::Forward {
                load: seq,
                store,
                addr,
            });
        }
        if li.useless_search {
            self.tracer.emit(Event::UselessSearch { load: seq, pc });
        }
        self.tracer.emit(Event::Issue {
            op: MemOp::Load,
            seq,
            pc,
            addr,
        });
    }

    /// Emits the events of an executed store: its execute-time
    /// violation search (conventional and perfect schemes), the issue,
    /// and the violation it found.
    // lsq-lint: hot
    fn trace_store_issue(&mut self, seq: u64, instr: &Instruction, violation: Option<u64>) {
        if !self.tracer.enabled() {
            return;
        }
        if !self.cfg.lsq.predictor.detects_at_commit() {
            self.trace_lq_search(MemOp::Store, seq);
        }
        self.tracer.emit(Event::Issue {
            op: MemOp::Store,
            seq,
            pc: instr.pc,
            addr: instr.addr,
        });
        if let Some(victim) = violation {
            self.trace_violation(victim, instr.pc, false);
        }
    }

    /// Emits the events of a drained store: its commit-time violation
    /// search (pair and aggressive schemes) and the violation it found.
    // lsq-lint: hot
    fn trace_drain(&mut self, seq: u64, pc: Pc, violation: Option<u64>) {
        if !self.tracer.enabled() {
            return;
        }
        if self.cfg.lsq.predictor.detects_at_commit() {
            self.trace_lq_search(MemOp::Store, seq);
        }
        if let Some(victim) = violation {
            self.trace_violation(victim, pc, true);
        }
    }

    /// Emits the load-queue search just performed and its segment hops.
    // lsq-lint: hot
    fn trace_lq_search(&mut self, by: MemOp, seq: u64) {
        let path = self.lsq.last_lq_path();
        self.tracer.emit(Event::LqSearch {
            by,
            seq,
            segments: path.len() as u32,
        });
        trace_seg_path(&mut self.tracer, QueueSide::Lq, path);
    }

    /// Emits a store-load order violation. The premature load is younger
    /// than the store and cannot retire before it drains, so it is still
    /// in the ROB.
    // lsq-lint: hot
    fn trace_violation(&mut self, victim: u64, store_pc: Pc, at_commit: bool) {
        let load_pc = self.rob_pc(victim);
        self.tracer.emit(Event::Violation {
            victim,
            load_pc,
            store_pc,
            at_commit,
        });
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Flushes `victim` and everything younger, rewinds fetch to refetch
    /// from `victim`, and charges `penalty` cycles before fetch resumes.
    /// Profiled as [`Phase::Squash`], nested inside whichever phase
    /// detected the violation.
    fn squash(&mut self, victim: u64, penalty: u64, cause: SquashCause) {
        self.timed(Phase::Squash, |s| s.squash_inner(victim, penalty, cause));
    }

    fn squash_inner(&mut self, victim: u64, penalty: u64, cause: SquashCause) {
        self.active = true;
        self.violation_squashes += 1;
        if self.life.enabled() {
            // Terminate before the fetch rewind below: `next_fetch` is
            // still the pre-squash frontier bounding the in-flight seqs.
            self.life.squash(victim, self.next_fetch, self.cycle, cause);
        }
        if self.tracer.enabled() {
            // The victim's PC must be read before the ROB truncation
            // removes the entry.
            let pc = self.rob_pc(victim);
            self.tracer.emit(Event::Squash {
                victim,
                pc,
                cause,
                penalty,
            });
        }
        let old_tail = self.rob.next_seq();
        let removed = self.rob.truncate_from(victim);
        self.instructions_squashed += removed as u64;
        if let Some(iq) = &mut self.polling_iq {
            iq.retain(|&s| s < victim);
            self.iq_len = iq.len();
        } else {
            // Sequence numbers and slots are reused after a squash, so
            // squashed entries must be scrubbed eagerly from every
            // scheduling structure; lazy deletion would confuse old
            // entries with re-fetched instructions carrying the same seq.
            for seq in old_tail - removed as u64..old_tail {
                let slot = self.rob.slot(seq);
                self.ready.remove(slot);
                self.waiters.clear(slot);
            }
            self.wheel.retain_below(victim);
            // Surviving producers keep their older consumers; the
            // squashed ones sit at the front of each youngest-first list.
            if let Some(head) = self.rob.head_seq() {
                for seq in head..self.rob.next_seq() {
                    self.waiters.trim(self.rob.slot(seq), victim);
                }
            }
            self.iq_len = self
                .rob
                .iter()
                .filter(|(_, e)| e.state == State::Waiting)
                .count();
        }
        self.lsq.squash_from(victim);
        self.frontend.retain(|f| f.gseq < victim);
        // Rebuild the rename map from the surviving ROB contents.
        self.rename = [None; 64];
        for (seq, e) in self.rob.iter() {
            if let Some(dst) = e.instr.dst {
                self.rename[dst.flat_index()] = Some(seq);
            }
        }
        self.next_fetch = victim;
        self.fetch_resume_at = self.cycle + penalty;
        self.cur_fetch_block = None;
        if self.acct.enabled() {
            self.acct_fetch_stall = FetchStall::Squash;
            // A stall recorded for a now-squashed head must not leak
            // into this cycle's classification.
            if self.acct_head_stall.is_some_and(|(s, _)| s >= victim) {
                self.acct_head_stall = None;
            }
        }
        if self.pending_redirect.is_some_and(|b| b >= victim) {
            self.pending_redirect = None;
        }
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    fn result(&self, hit_cycle_cap: bool) -> SimResult {
        let cpi_stack = self.acct.report();
        if let Some(stack) = &cpi_stack {
            // The tentpole invariant: every commit slot of every cycle
            // was charged to exactly one component.
            debug_assert_eq!(
                stack.total_slots(),
                self.cycle * self.cfg.commit_width as u64,
                "CPI-stack components must sum exactly to cycles × commit_width"
            );
        }
        SimResult {
            cycles: self.cycle,
            committed: self.committed,
            loads_committed: self.loads_committed,
            stores_committed: self.stores_committed,
            branches_committed: self.branches_committed,
            branch_predictions: self.bp.predictions(),
            branch_mispredictions: self.bp.mispredictions(),
            violation_squashes: self.violation_squashes,
            instructions_squashed: self.instructions_squashed,
            lq_occupancy: self.lq_occ.mean(),
            sq_occupancy: self.sq_occ.mean(),
            ooo_issued_loads: self.ooo_loads.mean(),
            inflight_loads: self.lq_occ.mean(),
            lsq: self.lsq.stats().clone(),
            l1d_miss_rate: self.mem.l1d_stats().miss_rate(),
            l2_miss_rate: self.mem.l2_stats().miss_rate(),
            wall_nanos: 0,
            sim_mips: 0.0,
            profile: self.profiler.report(),
            cpi_stack,
            stage_latency: self.life.report(),
            hit_cycle_cap,
        }
    }

    /// Drains the lifecycle recorder's finished-record ring (oldest
    /// first), or `None` when no recorder is attached.
    pub fn take_pipeview_records(&mut self) -> Option<Vec<lsq_obs::PipeRecord>> {
        self.life.take_records()
    }

    /// Finished lifecycle records evicted because the ring was full.
    pub fn pipeview_dropped(&self) -> u64 {
        self.life.dropped()
    }
}

/// Emits one [`Event::SegAdvance`] per hop of a multi-segment search
/// path. A free function (not a method) so callers can borrow the path
/// from the LSQ while emitting to the tracer.
// lsq-lint: hot
fn trace_seg_path<T: Tracer>(tracer: &mut T, queue: QueueSide, path: &[usize]) {
    for w in path.windows(2) {
        tracer.emit(Event::SegAdvance {
            queue,
            from_segment: w[0] as u32,
            to_segment: w[1] as u32,
        });
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // tests mutate one field of a default config
mod tests {
    use super::*;
    use lsq_core::{LoadOrderPolicy, LsqConfig, PredictorKind, SegAlloc, SegConfig};
    use lsq_isa::{ArchReg, Pc, VecStream};

    fn run_instrs(cfg: SimConfig, instrs: Vec<Instruction>) -> SimResult {
        let n = instrs.len() as u64;
        let mut stream = VecStream::new(instrs);
        let mut sim = Simulator::new(cfg);
        sim.run(&mut stream, n)
    }

    fn alu(pc: u64) -> Instruction {
        Instruction::op(Pc(pc), InstrKind::IntAlu)
    }

    #[test]
    fn commits_every_instruction_of_a_straight_line_program() {
        // PCs loop over a small code footprint so the i-cache warms up,
        // as in real loop nests.
        let instrs: Vec<Instruction> = (0..4000).map(|i| alu(0x1000 + (i % 64) * 4)).collect();
        let r = run_instrs(SimConfig::default(), instrs);
        assert_eq!(r.committed, 4000);
        assert!(!r.hit_cycle_cap);
        assert!(
            r.cycles < 4000,
            "8-wide machine needs far fewer cycles than instrs ({})",
            r.cycles
        );
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let instrs: Vec<Instruction> = (0..40_000).map(|i| alu(0x1000 + (i % 64) * 4)).collect();
        let r = run_instrs(SimConfig::default(), instrs);
        assert!(r.ipc() > 5.0, "ipc {}", r.ipc());
    }

    #[test]
    fn dependence_chain_limits_ipc_to_one() {
        let mut instrs = Vec::new();
        for i in 0..20_000u64 {
            instrs.push(
                Instruction::op(Pc(0x1000 + (i % 64) * 4), InstrKind::IntAlu)
                    .with_dst(ArchReg::int(1))
                    .with_src(ArchReg::int(1)),
            );
        }
        let r = run_instrs(SimConfig::default(), instrs);
        assert!(r.ipc() < 1.2, "serial chain ipc {}", r.ipc());
        assert!(
            r.ipc() > 0.8,
            "back-to-back issue should sustain ~1 ipc, got {}",
            r.ipc()
        );
    }

    #[test]
    fn load_latency_is_visible_in_dependent_chains() {
        // load -> dependent alu chain, all L1 hits after warmup: each link
        // costs the 2-cycle hit latency.
        let mut instrs = Vec::new();
        for i in 0..5000u64 {
            instrs.push(
                Instruction::load(Pc(0x1000 + (i % 64) * 8), Addr(0x100))
                    .with_dst(ArchReg::int(1))
                    .with_src(ArchReg::int(1)),
            );
        }
        let r = run_instrs(SimConfig::default(), instrs);
        // Serialized loads: ~2 cycles each.
        assert!(r.ipc() < 0.7, "ipc {}", r.ipc());
    }

    #[test]
    fn forwarding_supplies_load_values() {
        // store A; load A pairs forward; no violations since the load's
        // address dependence makes it issue after the store.
        let mut instrs = Vec::new();
        for i in 0..300u64 {
            let pc = 0x1000 + (i % 16) * 16;
            instrs.push(Instruction::op(Pc(pc), InstrKind::IntAlu).with_dst(ArchReg::int(2)));
            instrs.push(Instruction::store(Pc(pc + 4), Addr(0x40)).with_src(ArchReg::int(2)));
            instrs.push(Instruction::load(Pc(pc + 8), Addr(0x40)).with_dst(ArchReg::int(3)));
        }
        let r = run_instrs(SimConfig::default(), instrs);
        assert_eq!(r.committed, 900);
        assert!(r.lsq.sq_search_hits > 0, "forwarding hits must occur");
    }

    #[test]
    fn branch_mispredictions_cost_cycles() {
        // Alternating taken/not-taken is learnable; random is not. Compare
        // cycles for the same instruction count.
        let mk = |pattern: fn(u64) -> bool| -> Vec<Instruction> {
            let mut v = Vec::new();
            for i in 0..3000u64 {
                if i % 4 == 3 {
                    v.push(Instruction::branch(Pc(0x1000 + (i % 64) * 4), pattern(i)));
                } else {
                    v.push(alu(0x1000 + (i % 64) * 4));
                }
            }
            v
        };
        let predictable = run_instrs(SimConfig::default(), mk(|_| true));
        // Properly mixed pseudo-random outcomes the predictor cannot learn.
        fn noise(i: u64) -> bool {
            let mut s = i;
            lsq_util::rng::splitmix64(&mut s) & 1 == 1
        }
        let random = run_instrs(SimConfig::default(), mk(noise));
        assert!(
            random.cycles > predictable.cycles * 2,
            "mispredicts must hurt: {} vs {}",
            random.cycles,
            predictable.cycles
        );
        assert!(random.branch_mispredict_rate() > 0.2);
        assert!(predictable.branch_mispredict_rate() < 0.05);
    }

    #[test]
    fn premature_load_squashes_and_refetches() {
        // The store's data dependence delays it; the same-address load
        // behind it issues first and reads stale data -> violation.
        let mut instrs = Vec::new();
        for i in 0..200u64 {
            let pc = 0x1000 + (i % 8) * 32;
            // Long-latency producer feeding the store's address register.
            instrs.push(Instruction::op(Pc(pc), InstrKind::FpDiv).with_dst(ArchReg::fp(1)));
            instrs.push(
                Instruction::op(Pc(pc + 4), InstrKind::IntAlu)
                    .with_dst(ArchReg::int(2))
                    .with_src(ArchReg::int(2)),
            );
            // Store waits on the FP producer via its data operand.
            instrs.push(Instruction::store(Pc(pc + 8), Addr(0x80)).with_src(ArchReg::fp(1)));
            instrs.push(Instruction::load(Pc(pc + 12), Addr(0x80)).with_dst(ArchReg::int(4)));
        }
        let r = run_instrs(SimConfig::default(), instrs);
        assert_eq!(r.committed, 800);
        assert!(r.violation_squashes > 0, "premature loads must be caught");
        // After the first violations, store-set gating kicks in, so
        // squashes must be far rarer than iterations.
        assert!(
            r.violation_squashes < 50,
            "store-set must learn the pair ({} squashes)",
            r.violation_squashes
        );
    }

    #[test]
    fn pair_mode_catches_violations_at_commit() {
        let mut cfg = SimConfig::default();
        cfg.lsq.predictor = PredictorKind::Pair;
        let mut instrs = Vec::new();
        for i in 0..200u64 {
            let pc = 0x1000 + (i % 8) * 32;
            instrs.push(Instruction::op(Pc(pc), InstrKind::FpDiv).with_dst(ArchReg::fp(1)));
            instrs.push(Instruction::store(Pc(pc + 8), Addr(0x80)).with_src(ArchReg::fp(1)));
            instrs.push(Instruction::load(Pc(pc + 12), Addr(0x80)).with_dst(ArchReg::int(4)));
        }
        let r = run_instrs(cfg, instrs);
        assert_eq!(r.committed, 600);
        assert!(
            r.lsq.commit_violations > 0,
            "pair mispredictions detected at commit"
        );
    }

    #[test]
    fn one_port_is_slower_than_four_ports_under_load_pressure() {
        // Lots of independent loads: port-starved configs lose throughput.
        let mut instrs = Vec::new();
        for i in 0..4000u64 {
            instrs.push(Instruction::load(
                Pc(0x1000 + (i % 256) * 4),
                Addr(0x4000 + (i % 64) * 8),
            ));
        }
        let one = run_instrs(
            SimConfig::with_lsq(LsqConfig::conventional(1)),
            instrs.clone(),
        );
        let four = run_instrs(SimConfig::with_lsq(LsqConfig::conventional(4)), instrs);
        assert!(
            one.cycles > four.cycles * 3 / 2,
            "1-port {} vs 4-port {}",
            one.cycles,
            four.cycles
        );
    }

    #[test]
    fn load_buffer_relieves_lq_port_pressure() {
        let mut instrs = Vec::new();
        for i in 0..4000u64 {
            instrs.push(Instruction::load(
                Pc(0x1000 + (i % 256) * 4),
                Addr(0x4000 + (i % 64) * 8),
            ));
        }
        let mut conv = LsqConfig::conventional(1);
        conv.predictor = PredictorKind::Pair;
        let base = run_instrs(SimConfig::with_lsq(conv), instrs.clone());
        let with_lb = run_instrs(SimConfig::with_lsq(LsqConfig::with_techniques(1)), instrs);
        assert!(
            with_lb.cycles <= base.cycles,
            "load buffer must not slow a load-heavy kernel: {} vs {}",
            with_lb.cycles,
            base.cycles
        );
        assert_eq!(with_lb.lsq.lq_searches_by_loads, 0);
        assert!(base.lsq.lq_searches_by_loads > 0);
    }

    #[test]
    fn finite_stream_drains_completely() {
        let instrs: Vec<Instruction> = (0..37).map(|i| alu(0x1000 + i * 4)).collect();
        let mut stream = VecStream::new(instrs);
        let mut sim = Simulator::new(SimConfig::default());
        let r = sim.run(&mut stream, 1_000_000);
        assert_eq!(r.committed, 37);
        assert!(!r.hit_cycle_cap);
    }

    #[test]
    fn run_continues_across_calls() {
        let instrs: Vec<Instruction> = (0..200).map(|i| alu(0x1000 + i * 4)).collect();
        let mut stream = VecStream::new(instrs);
        let mut sim = Simulator::new(SimConfig::default());
        let first = sim.run(&mut stream, 50);
        assert!(first.committed >= 50);
        let second = sim.run(&mut stream, 100);
        assert!(second.committed >= 150, "committed {}", second.committed);
    }

    #[test]
    fn in_order_loads_hurt_a_realistic_workload() {
        // In-order load issue loses ILP through head-of-line blocking
        // under latency variance and finite issue-queue pressure, which a
        // realistic workload (irregular misses + branches) exposes; this
        // is the Figure 9 left-bars effect.
        let profile = lsq_trace::BenchProfile::named("parser").unwrap();
        let run = |lsq: LsqConfig| {
            let mut stream = profile.stream(5);
            let mut sim = Simulator::new(SimConfig::with_lsq(lsq));
            sim.prewarm(&stream.data_regions(), stream.code_region());
            let _ = sim.run(&mut stream, 20_000);
            sim.run(&mut stream, 40_000)
        };
        let mut in_order = LsqConfig::conventional(2);
        in_order.load_order = LoadOrderPolicy::InOrderNoSearch;
        let io = run(in_order);
        let ooo = run(LsqConfig::conventional(2));
        assert!(
            io.cycles as f64 > ooo.cycles as f64 * 1.01,
            "in-order loads must cost ILP: {} vs {}",
            io.cycles,
            ooo.cycles
        );
    }

    #[test]
    fn pair_mode_drains_stores_behind_retirement() {
        // Store-heavy bursts under the pair scheme: stores retire from
        // the ROB immediately and drain in the background; everything
        // still commits and each drained store wrote the cache once.
        let mut cfg = SimConfig::default();
        cfg.lsq.predictor = PredictorKind::Pair;
        let mut instrs = Vec::new();
        for i in 0..1500u64 {
            let pc = 0x1000 + (i % 32) * 8;
            instrs.push(
                Instruction::store(Pc(pc), Addr(0x40 + (i % 16) * 8)).with_src(ArchReg::int(1)),
            );
            instrs.push(Instruction::op(Pc(pc + 4), InstrKind::IntAlu).with_dst(ArchReg::int(1)));
        }
        let r = run_instrs(cfg, instrs);
        assert_eq!(r.committed, 3000);
        assert!(!r.hit_cycle_cap);
        // All but a small undrained tail of stores drained.
        assert!(r.lsq.stores_committed + 40 > r.stores_committed);
        // Every drain performed its commit-time LQ search.
        assert!(r.lsq.lq_searches_by_stores >= r.lsq.stores_committed);
    }

    #[test]
    fn loads_wait_for_older_store_drains() {
        // At 1 LQ port under the pair scheme, drains are serialized;
        // loads behind store bursts must still commit in order and
        // observe forwarding correctly (no lost victims).
        let mut cfg = SimConfig::default();
        cfg.lsq = LsqConfig::with_techniques(1);
        let mut instrs = Vec::new();
        for i in 0..800u64 {
            let pc = 0x1000 + (i % 16) * 16;
            instrs.push(Instruction::store(Pc(pc), Addr(0x100)).with_src(ArchReg::int(2)));
            instrs.push(Instruction::store(Pc(pc + 4), Addr(0x108)).with_src(ArchReg::int(2)));
            instrs.push(Instruction::load(Pc(pc + 8), Addr(0x100)).with_dst(ArchReg::int(3)));
            instrs.push(Instruction::op(Pc(pc + 12), InstrKind::IntAlu).with_dst(ArchReg::int(2)));
        }
        let r = run_instrs(cfg, instrs);
        assert_eq!(r.committed, 3200);
        assert!(!r.hit_cycle_cap);
    }

    #[test]
    fn coherence_invalidations_squash_and_recover() {
        // Multiprocessor scenario (§2.2): invalidations hit outstanding
        // loads and squash; everything still commits correctly.
        let mut cfg = SimConfig::default();
        cfg.invalidation_rate = 0.05;
        let mut instrs = Vec::new();
        for i in 0..4000u64 {
            instrs.push(Instruction::load(
                Pc(0x1000 + (i % 64) * 4),
                Addr(0x4000 + (i % 32) * 8),
            ));
        }
        let r = run_instrs(cfg, instrs.clone());
        assert_eq!(r.committed, 4000);
        assert!(!r.hit_cycle_cap);
        assert!(r.lsq.invalidations > 0);
        assert!(r.lsq.invalidation_squashes > 0, "hot loads must be hit");
        // The same workload without coherence traffic is faster.
        let quiet = run_instrs(SimConfig::default(), instrs);
        assert!(r.cycles > quiet.cycles);
    }

    #[test]
    fn load_load_squash_costs_cycles_on_shared_words() {
        // Alpha-style same-address load-load ordering (§2.2 scheme 1):
        // with squashing enabled, repeated same-word loads issued out of
        // order cost squashes.
        let mut cfg = SimConfig::default();
        cfg.lsq.load_load_squash = true;
        let mut instrs = Vec::new();
        for i in 0..3000u64 {
            let pc = 0x1000 + (i % 32) * 8;
            // A slow producer delays the first load's address; the second
            // load to the same word is independent and issues early.
            instrs.push(
                Instruction::op(Pc(pc), InstrKind::IntMul)
                    .with_dst(ArchReg::int(1))
                    .with_src(ArchReg::int(1)),
            );
            instrs.push(Instruction::load(Pc(pc + 4), Addr(0x80)).with_src(ArchReg::int(1)));
            instrs.push(Instruction::load(Pc(pc + 8), Addr(0x80)));
        }
        let r = run_instrs(cfg, instrs);
        assert_eq!(r.committed, 9000);
        assert!(!r.hit_cycle_cap);
        assert!(
            r.lsq.load_load_violations > 0,
            "OoO same-word loads must trap"
        );
    }

    #[test]
    fn accounted_run_partitions_every_commit_slot() {
        use crate::accounting::SlotAccountant;
        // A mixed workload exercising loads, branches, and dep chains.
        let mut instrs = Vec::new();
        for i in 0..3000u64 {
            let pc = 0x1000 + (i % 64) * 8;
            if i % 7 == 3 {
                instrs.push(
                    Instruction::load(Pc(pc), Addr(0x4000 + (i % 128) * 8))
                        .with_dst(ArchReg::int(1)),
                );
            } else if i % 11 == 5 {
                instrs.push(Instruction::branch(Pc(pc), i % 2 == 0));
            } else {
                instrs.push(
                    Instruction::op(Pc(pc), InstrKind::IntAlu)
                        .with_dst(ArchReg::int(2))
                        .with_src(ArchReg::int(1)),
                );
            }
        }
        let n = instrs.len() as u64;
        let mut stream = VecStream::new(instrs);
        let mut sim = Simulator::with_lifecycle(
            SimConfig::default(),
            NopTracer,
            NopProfiler,
            SlotAccountant::new(),
            NopLifecycle,
        );
        let r = sim.run(&mut stream, n);
        let stack = r.cpi_stack.expect("accounted run reports a stack");
        // The partition invariant, and its corollary: base slots are
        // exactly the committed instructions.
        assert_eq!(stack.total_slots(), r.cycles * 8);
        assert_eq!(stack.slots("base"), r.committed);
        assert_eq!(stack.cycles(), r.cycles);
    }

    #[test]
    fn accounting_off_reports_no_stack() {
        let instrs: Vec<Instruction> = (0..100).map(|i| alu(0x1000 + i * 4)).collect();
        let r = run_instrs(SimConfig::default(), instrs);
        assert!(r.cpi_stack.is_none());
    }

    /// The farthest wakeup the timing wheel must hold: a load in the
    /// youngest LQ segment whose forwarding search walks every SQ
    /// segment without a match, misses to memory, and so also pays the
    /// late-wakeup penalty. Its consumer wakes exactly `horizon` cycles
    /// after the load issues; a wheel one cycle shorter would panic.
    #[test]
    fn youngest_segment_memory_miss_wakes_at_the_wheel_horizon() {
        let mut cfg = SimConfig::default();
        cfg.lsq.segmentation = Some(SegConfig {
            segments: 4,
            entries_per_segment: 2,
            alloc: SegAlloc::SelfCircular,
        });
        let horizon = wakeup_horizon(&cfg);
        let h = cfg.hierarchy;
        assert_eq!(
            horizon,
            u64::from(h.l1d.hit_latency + h.l2.hit_latency + h.mem_latency)
                + 3
                + u64::from(cfg.late_wakeup_penalty)
        );
        let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
        // A missing root load holds back 7 stores (SQ segments 0-3) and
        // 6 loads (LQ segments 0-3) that depend on it.
        let mut instrs = vec![Instruction::load(Pc(0x1000), Addr(0x10_0000)).with_dst(r1)];
        for i in 0..7 {
            instrs.push(Instruction::store(Pc(0x1004 + 4 * i), Addr(0x2000 + 8 * i)).with_src(r1));
        }
        for i in 0..6 {
            instrs.push(Instruction::load(Pc(0x1020 + 4 * i), Addr(0x3000 + 8 * i)).with_src(r1));
        }
        let target = instrs.len() as u64;
        instrs.push(Instruction::load(Pc(0x1040), Addr(0x80_0000)).with_dst(r2));
        instrs.push(alu(0x1044).with_src(r2));
        let n = instrs.len() as u64;
        let mut stream = VecStream::new(instrs);
        let penalty = cfg.late_wakeup_penalty;
        let mut sim = Simulator::new(cfg);
        // A warm i-cache fetches the whole block of code back to back.
        sim.prewarm(&[], (0x1000, 0x100));
        let issued_at = |sim: &Simulator, seq: u64| {
            sim.rob
                .get(seq)
                .is_some_and(|e| e.state == State::Issued)
                .then_some(sim.cycle)
        };
        let load_issue = loop {
            sim.step(&mut stream);
            assert!(sim.cycle < 1_000, "the target load never issued");
            if let Some(c) = issued_at(&sim, target) {
                break c;
            }
        };
        let e = *sim.rob.get(target).unwrap();
        assert_eq!(
            sim.lsq.stats().seg_search_hist.bucket(3),
            1,
            "searched all 4 segments"
        );
        assert_eq!(e.wakeup_extra, penalty);
        assert_eq!(
            e.complete_at + u64::from(e.wakeup_extra) - load_issue,
            horizon
        );
        let consumer_issue = loop {
            sim.step(&mut stream);
            if let Some(c) = issued_at(&sim, target + 1) {
                break c;
            }
        };
        assert_eq!(consumer_issue - load_issue, horizon);
        let r = sim.run(&mut stream, n - sim.committed);
        assert_eq!(r.committed, n);
        assert!(!r.hit_cycle_cap);
    }

    /// A chain of dependent loads that each miss to memory leaves the
    /// machine waiting on one load at a time: the idle-cycle fast path
    /// covers most cycles and must not change a single counter. The
    /// profiler times `begin_cycle` every cycle but the issue stage only
    /// on cycles run in full, so the difference of their call counts is
    /// the fast-forwarded cycle count.
    #[test]
    fn missing_load_chain_fast_forwards_bit_identically() {
        use crate::profile::WallProfiler;
        let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
        let mut instrs = Vec::new();
        for i in 0..300u64 {
            let pc = 0x1000 + (i % 16) * 8;
            instrs.push(
                Instruction::load(Pc(pc), Addr(0x100_0000 + i * 4160))
                    .with_src(r1)
                    .with_dst(r1),
            );
            instrs.push(alu(pc + 4).with_src(r1).with_dst(r2));
        }
        let n = instrs.len() as u64;
        let run = |polling: bool| {
            let mut sim =
                Simulator::with_parts(SimConfig::default(), NopTracer, WallProfiler::new());
            if polling {
                sim.set_reference_scheduler();
            }
            let mut r = sim.run(&mut VecStream::new(instrs.clone()), n);
            let calls = |phase: Phase| {
                let profile = r.profile.as_ref().expect("profiled run");
                profile
                    .phases
                    .iter()
                    .find(|p| p.phase == phase.name())
                    .map_or(0, |p| p.calls)
            };
            let fast = calls(Phase::SegmentAdvance) - calls(Phase::WakeupIssue);
            r.profile = None;
            (r, fast)
        };
        let (event, fast) = run(false);
        let (polling, polling_fast) = run(true);
        assert_eq!(format!("{event:?}"), format!("{polling:?}"));
        assert_eq!(event.committed, n);
        assert!(event.l2_miss_rate > 0.9, "every load misses to memory");
        assert_eq!(polling_fast, 0, "the polling scheduler runs every cycle");
        if cfg!(debug_assertions) {
            // Debug builds run predicted-idle cycles in full to check them.
            assert_eq!(fast, 0);
        } else {
            assert!(
                fast * 2 > event.cycles,
                "only {fast} of {} cycles fast-forwarded",
                event.cycles
            );
        }
    }

    /// A load that stalls on a full load buffer passed its port checks,
    /// so its stall repeats only while no search booked ahead can reach
    /// it. Here the in-order load A searches all four store-queue
    /// segments, youngest first, and the full-buffer load L starts its
    /// own search in the segment A reaches last: L passes its port
    /// checks the two cycles after A issues, collides with A's booking
    /// on the third, and stalls on the full buffer again on the fourth.
    /// Only the first of those cycles is idle; fast-forwarding any
    /// earlier would count the wrong stalls.
    #[test]
    fn bookings_ahead_hold_off_the_fast_path() {
        let mut cfg = SimConfig::default();
        cfg.lsq.ports = 1;
        cfg.lsq.load_order = LoadOrderPolicy::LoadBuffer(1);
        cfg.lsq.segmentation = Some(SegConfig {
            segments: 4,
            entries_per_segment: 2,
            alloc: SegAlloc::SelfCircular,
        });
        let (r1, f1) = (ArchReg::int(1), ArchReg::fp(1));
        let store = |i: u64| Instruction::store(Pc(0x1000 + 4 * i), Addr(0x8000 + 64 * i));
        let div = |pc: u64| Instruction::op(Pc(pc), InstrKind::FpDiv).with_dst(f1);
        // S0 drains early, freeing a slot in segment 0; the root load
        // misses to memory and holds back commit; S1-S7 fill segments
        // 0, 1, 1, 2, 2, 3, 3.
        let mut instrs = vec![
            store(0),
            Instruction::load(Pc(0x1100), Addr(0x10_0000)).with_dst(r1),
        ];
        instrs.extend((1..8).map(store));
        // Three dependent divides wake A well after the rest settles.
        instrs.extend([
            div(0x1200),
            div(0x1204).with_src(f1),
            div(0x1208).with_src(f1),
        ]);
        instrs.extend([
            // A: the oldest unissued load, so it issues in order.
            Instruction::load(Pc(0x1300), Addr(0x9000)).with_src(f1),
            // Waits on the root, keeping B out of order.
            Instruction::load(Pc(0x1304), Addr(0x9100)).with_src(r1),
            // B: issues out of order and fills the load buffer.
            Instruction::load(Pc(0x1308), Addr(0x9200)),
            // S8 lands in segment 0, where L's search starts.
            store(8),
            Instruction::load(Pc(0x1310), Addr(0x9300)),
            // The store queue is full: dispatch stops here.
            store(9),
        ]);
        instrs.extend((0..20).map(|i| alu(0x1400 + 4 * i)));
        let n = instrs.len() as u64;
        let run = |polling: bool| {
            let mut sim = Simulator::new(cfg.clone());
            sim.prewarm(&[], (0x1000, 0x1000));
            if polling {
                sim.set_reference_scheduler();
            }
            sim.run(&mut VecStream::new(instrs.clone()), n)
        };
        let (event, polling) = (run(false), run(true));
        assert_eq!(format!("{event:?}"), format!("{polling:?}"));
        assert_eq!(event.committed, n);
        assert_eq!(
            event.lsq.sq_port_stalls, 2,
            "L collides once with each of B's and A's four-segment searches"
        );
        assert!(event.lsq.lb_full_stalls > 100, "L waits out the miss");
    }

    /// Under the pair scheme a store drain searches the load queue. D1's
    /// drain books two segments; D2 retires a cycle later and its drain,
    /// blocked on D1's second segment, is all that happens that cycle,
    /// behind a missing load. The block clears by itself a cycle later,
    /// so a blocked drain is activity, never an idle cycle.
    #[test]
    fn blocked_drain_is_not_an_idle_cycle() {
        let mut cfg = SimConfig::default();
        cfg.rob_entries = 8;
        cfg.lsq.predictor = PredictorKind::Pair;
        cfg.lsq.ports = 1;
        cfg.lsq.load_order = LoadOrderPolicy::LoadBuffer(4);
        cfg.lsq.segmentation = Some(SegConfig {
            segments: 4,
            entries_per_segment: 2,
            alloc: SegAlloc::SelfCircular,
        });
        let r1 = ArchReg::int(1);
        // D1, then two hitting loads (load-queue segment 0), D2, and a
        // load that misses to memory (segment 1), which everything after
        // it waits on.
        let mut instrs = vec![
            Instruction::store(Pc(0x1000), Addr(0x8000)),
            Instruction::load(Pc(0x1004), Addr(0x4000)),
            Instruction::load(Pc(0x1008), Addr(0x4008)),
            Instruction::store(Pc(0x100c), Addr(0x8040)),
            Instruction::load(Pc(0x1010), Addr(0x10_0000)).with_dst(r1),
        ];
        instrs.extend((0..30).map(|i| alu(0x1014 + 4 * i).with_src(r1)));
        let n = instrs.len() as u64;
        let run = |polling: bool| {
            let mut sim = Simulator::new(cfg.clone());
            sim.prewarm(&[(0x4000, 64)], (0x1000, 0x100));
            if polling {
                sim.set_reference_scheduler();
            }
            sim.run(&mut VecStream::new(instrs.clone()), n)
        };
        let (event, polling) = (run(false), run(true));
        assert_eq!(format!("{event:?}"), format!("{polling:?}"));
        assert_eq!(event.committed, n);
        assert_eq!(event.lsq.commit_port_delays, 1, "D2's drain blocks once");
    }

    /// Warm-up fills are not simulated events: a traced simulator's
    /// prewarm emits nothing, while accesses during the run are traced
    /// as misses at the level their latency shows.
    #[test]
    fn traced_prewarm_is_silent_and_misses_are_traced() {
        use lsq_obs::TraceBuffer;
        let tracer = TraceBuffer::with_capacity(64);
        let mut sim = Simulator::with_parts(SimConfig::default(), tracer, NopProfiler);
        sim.prewarm(&[(0x10_0000, 4096)], (0x40_0000, 2048));
        assert_eq!(sim.tracer.len(), 0, "prewarm is silent");
        sim.data_access(Addr(0x30_0000), false); // memory miss
        sim.data_access(Addr(0x30_0000), false); // L1 hit: no event
        sim.inst_fetch(Addr(0x30_0000)); // L1I miss, L2 hit
        let buf = sim.into_tracer();
        let events: Vec<_> = buf.events().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].event,
            Event::CacheMiss {
                addr: Addr(0x30_0000),
                level: MissLevel::Memory,
                fetch: false
            }
        );
        assert_eq!(
            events[1].event,
            Event::CacheMiss {
                addr: Addr(0x30_0000),
                level: MissLevel::L2,
                fetch: true
            }
        );
    }

    /// A squash must scrub the squashed instructions' wakeups from the
    /// timing wheel: seqs are reused by the refetched instructions.
    ///
    /// C waits on a load P that misses to memory (older than the squash)
    /// and on the end F8 of a chain of eight divides. Before the squash
    /// F8 issues first, so C's wakeup is filed at P's completion. The
    /// store S, held back by its own divide chain, then finds the
    /// younger same-address load V premature and squashes from V. The
    /// refetched C dispatches with P issued and the refetched chain far
    /// from done: its wakeup time is again P's completion, so a stale
    /// wheel entry would wake it there, before F8 issues.
    #[test]
    fn squash_scrubs_the_wheel_before_seqs_are_reused() {
        let (r1, f1, f2) = (ArchReg::int(1), ArchReg::fp(1), ArchReg::fp(2));
        let div = |pc: u64, reg: ArchReg| {
            Instruction::op(Pc(pc), InstrKind::FpDiv)
                .with_dst(reg)
                .with_src(reg)
        };
        // P, then S's chain G1-G8 and S.
        let mut instrs = vec![Instruction::load(Pc(0x1000), Addr(0x10_0000)).with_dst(r1)];
        instrs.extend((0..8).map(|i| div(0x1004 + 4 * i, f2)));
        instrs.push(Instruction::store(Pc(0x1030), Addr(0x8000)).with_src(f2));
        // V, the chain F1-F8, and C.
        let v = instrs.len() as u64;
        instrs.push(Instruction::load(Pc(0x1034), Addr(0x8000)));
        instrs.extend((0..8).map(|i| div(0x1038 + 4 * i, f1)));
        let c = instrs.len() as u64;
        instrs.push(alu(0x1058).with_src(r1).with_src(f1));
        instrs.extend((0..8).map(|i| alu(0x105c + 4 * i)));
        let n = instrs.len() as u64;
        let mut stream = VecStream::new(instrs);
        let mut sim = Simulator::new(SimConfig::default());
        sim.prewarm(&[(0x8000, 64)], (0x1000, 0x100));
        let mut squashed_c = false;
        while sim.committed < n {
            sim.step(&mut stream);
            assert!(sim.cycle < 2_000, "the run must finish");
            squashed_c |= sim.violation_squashes > 0 && sim.rob.get(c).is_none();
            // No instruction issues while a producer is still waiting.
            for (seq, e) in sim.rob.iter() {
                if e.state == State::Issued {
                    for d in e.deps.iter().flatten() {
                        assert!(
                            sim.rob.get(*d).is_none_or(|p| p.state == State::Issued),
                            "seq {seq} issued at cycle {} before its producer {d}",
                            sim.cycle
                        );
                    }
                }
            }
        }
        assert_eq!(sim.violation_squashes, 1, "S finds V premature once");
        assert!(squashed_c, "C was squashed and refetched");
        assert!(v < c);
    }

    #[test]
    fn occupancy_statistics_are_sampled() {
        let mut instrs = Vec::new();
        for i in 0..500u64 {
            instrs.push(Instruction::load(
                Pc(0x1000 + i * 4),
                Addr(0x4000 + (i % 32) * 8),
            ));
        }
        let r = run_instrs(SimConfig::default(), instrs);
        assert!(r.lq_occupancy > 0.0);
        assert!(r.inflight_loads > 0.0);
    }
}
