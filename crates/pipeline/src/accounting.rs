//! Cycle accounting: CPI stacks in the style of interval analysis.
//!
//! The aggregate counters say *that* a design point lost IPC; this
//! module says *where the cycles went*. Each cycle the simulator has
//! `commit_width` commit slots. Slots that retire an instruction are
//! charged to [`Component::Base`]; every remaining slot of the cycle is
//! charged to exactly **one** stall component, chosen from the head of
//! the ROB (the classic interval-analysis attribution: the oldest
//! instruction's reason is the cycle's reason). The components are
//! therefore exhaustive and mutually exclusive by construction, and the
//! hard invariant
//!
//! ```text
//! Σ component slots == cycles × commit_width
//! ```
//!
//! holds for every run — enforced by a debug assert in
//! [`Simulator::run`](crate::Simulator) and pinned by tests across all
//! design points.
//!
//! The machinery mirrors the tracer/profiler zero-cost pattern: the
//! simulator is generic over a [`CycleAccountant`], the default
//! [`NopAccountant`] reports `enabled() == false` as a compile-time
//! constant, and every attribution site sits behind that check — an
//! unaccounted simulator monomorphizes to the pre-accounting code.
//! [`SlotAccountant`] accumulates the stack and can feed a windowed
//! [`Sampler`] so the per-component timeline lands in CSV next to the
//! trace timeline.

use lsq_obs::{Column, Json, Sampler};

/// Where one commit slot of one cycle went. Exactly one component is
/// charged per slot; see the module docs for the partition invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// The slot retired an instruction: useful work.
    Base,
    /// ROB empty with fetch not stalled on a known cause: the front end
    /// simply has not delivered (startup, fetch-width limits, i-cache
    /// misses).
    Frontend,
    /// ROB empty (or head is the unresolved branch) behind a branch
    /// misprediction redirect.
    BranchRedirect,
    /// ROB empty while refetching after a memory-order violation or
    /// coherence squash: the replay penalty.
    SquashReplay,
    /// Dispatch stalled on a full ROB while the head made no progress.
    RobFull,
    /// Dispatch stalled on a full issue queue.
    IqFull,
    /// Dispatch stalled because the load queue (or the active LQ
    /// segment, under segmentation) could not accept a load.
    LqFull,
    /// Dispatch stalled because the store queue (or the active SQ
    /// segment) could not accept a store.
    SqFull,
    /// The head was ready to issue but an LSQ search port (SQ forwarding
    /// search or LQ violation search) was taken — the paper's central
    /// contended resource.
    SearchPort,
    /// The head load was ready but both d-cache ports were busy.
    DcachePort,
    /// The head load was gated by memory-order machinery: store-set /
    /// pair-predictor wait, in-order load policy, or a full load buffer.
    MemOrdering,
    /// The head load completed but may not retire past an undrained
    /// older store (background drain backpressure).
    StoreDrain,
    /// The head is waiting on operands with no resource stall recorded:
    /// a data-dependence chain.
    DepChain,
    /// The head is executing (or was issue-blocked by a busy functional
    /// unit): plain execution latency, including L1 hits.
    ExecLatency,
    /// The head load is waiting on an L1 miss served by the L2.
    CacheL2,
    /// The head load is waiting on an L2 miss served by main memory.
    CacheMem,
    /// The head load hit but paid extra cycles for a variable-latency
    /// segmented forwarding search (segment-advance overhead).
    SegmentOverhead,
}

impl Component {
    /// Every component, in report order.
    pub const ALL: [Component; 17] = [
        Component::Base,
        Component::Frontend,
        Component::BranchRedirect,
        Component::SquashReplay,
        Component::RobFull,
        Component::IqFull,
        Component::LqFull,
        Component::SqFull,
        Component::SearchPort,
        Component::DcachePort,
        Component::MemOrdering,
        Component::StoreDrain,
        Component::DepChain,
        Component::ExecLatency,
        Component::CacheL2,
        Component::CacheMem,
        Component::SegmentOverhead,
    ];

    /// Stable snake_case name used in reports, JSON, CSV columns, and
    /// the `lsq_cpi_stack_cycles_total{component=...}` metric label.
    pub fn name(self) -> &'static str {
        match self {
            Component::Base => "base",
            Component::Frontend => "frontend",
            Component::BranchRedirect => "branch_redirect",
            Component::SquashReplay => "squash_replay",
            Component::RobFull => "rob_full",
            Component::IqFull => "iq_full",
            Component::LqFull => "lq_full",
            Component::SqFull => "sq_full",
            Component::SearchPort => "search_port",
            Component::DcachePort => "dcache_port",
            Component::MemOrdering => "mem_ordering",
            Component::StoreDrain => "store_drain",
            Component::DepChain => "dep_chain",
            Component::ExecLatency => "exec_latency",
            Component::CacheL2 => "cache_l2",
            Component::CacheMem => "cache_mem",
            Component::SegmentOverhead => "segment_overhead",
        }
    }

    /// The component names in [`Component::ALL`] order — the column
    /// labels of the windowed CPI stack.
    pub const NAMES: [&'static str; 17] = [
        "base",
        "frontend",
        "branch_redirect",
        "squash_replay",
        "rob_full",
        "iq_full",
        "lq_full",
        "sq_full",
        "search_port",
        "dcache_port",
        "mem_ordering",
        "store_drain",
        "dep_chain",
        "exec_latency",
        "cache_l2",
        "cache_mem",
        "segment_overhead",
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// A cycle-accounting sink for the simulator. Attribution sites guard
/// on [`CycleAccountant::enabled`], which [`NopAccountant`] makes a
/// constant `false` so the disabled accountant vanishes under
/// monomorphization.
pub trait CycleAccountant {
    /// Whether attribution sites should classify at all.
    fn enabled(&self) -> bool;

    /// Tells the accountant the machine's commit width (slots per
    /// cycle); called once at simulator construction.
    fn init(&mut self, commit_width: u64);

    /// Charges `slots` commit slots to `component`.
    fn charge(&mut self, component: Component, slots: u64);

    /// Marks the end of a simulated cycle (feeds the windowed sampler).
    fn end_cycle(&mut self, cycle: u64);

    /// The accumulated stack, or `None` when disabled.
    fn report(&self) -> Option<CpiStack>;

    /// Detaches the windowed sampler (flushing its partial last
    /// window), if one was attached.
    fn take_sampler(&mut self) -> Option<Sampler>;
}

/// The zero-cost default: accounting disabled, all sites compile away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopAccountant;

impl CycleAccountant for NopAccountant {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn init(&mut self, _commit_width: u64) {}

    #[inline(always)]
    fn charge(&mut self, _component: Component, _slots: u64) {}

    #[inline(always)]
    fn end_cycle(&mut self, _cycle: u64) {}

    #[inline(always)]
    fn report(&self) -> Option<CpiStack> {
        None
    }

    #[inline(always)]
    fn take_sampler(&mut self) -> Option<Sampler> {
        None
    }
}

/// An optional accountant: `None` is disabled, `Some` forwards.
impl<A: CycleAccountant> CycleAccountant for Option<A> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(A::enabled)
    }

    fn init(&mut self, commit_width: u64) {
        self.iter_mut().for_each(|a| a.init(commit_width));
    }

    fn charge(&mut self, component: Component, slots: u64) {
        self.iter_mut().for_each(|a| a.charge(component, slots));
    }

    fn end_cycle(&mut self, cycle: u64) {
        self.iter_mut().for_each(|a| a.end_cycle(cycle));
    }

    fn report(&self) -> Option<CpiStack> {
        self.as_ref().and_then(A::report)
    }

    fn take_sampler(&mut self) -> Option<Sampler> {
        self.as_mut().and_then(A::take_sampler)
    }
}

/// Accumulates commit slots per component, optionally sampling the
/// cumulative counters into fixed-width windows.
#[derive(Debug, Clone, Default)]
pub struct SlotAccountant {
    commit_width: u64,
    slots: [u64; Component::ALL.len()],
    sampler: Option<Sampler>,
}

impl SlotAccountant {
    /// Creates an empty accountant with no sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an accountant that also folds every cycle into
    /// `window`-cycle windows of per-component slot deltas, one column
    /// per component (see [`Sampler`]).
    ///
    /// # Panics
    /// If `window` is zero.
    pub fn with_sampler(window: u64) -> Self {
        let columns: Vec<Column> = Component::NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| Column::Delta(name, i))
            .collect();
        Self {
            sampler: Some(Sampler::new(window, &columns)),
            ..Self::default()
        }
    }
}

impl CycleAccountant for SlotAccountant {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn init(&mut self, commit_width: u64) {
        self.commit_width = commit_width;
    }

    #[inline]
    fn charge(&mut self, component: Component, slots: u64) {
        self.slots[component.index()] += slots;
    }

    #[inline]
    fn end_cycle(&mut self, cycle: u64) {
        if let Some(s) = &mut self.sampler {
            s.observe(cycle, &self.slots, &[]);
        }
    }

    fn report(&self) -> Option<CpiStack> {
        Some(CpiStack {
            commit_width: self.commit_width,
            components: Component::ALL
                .iter()
                .map(|&c| ComponentStat {
                    component: c.name().to_string(),
                    slots: self.slots[c.index()],
                })
                .collect(),
        })
    }

    fn take_sampler(&mut self) -> Option<Sampler> {
        let mut s = self.sampler.take()?;
        s.flush();
        Some(s)
    }
}

/// One component's accumulated commit slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentStat {
    /// Component name (see [`Component::name`]).
    pub component: String,
    /// Commit slots charged.
    pub slots: u64,
}

/// A per-run (or aggregated) CPI stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpiStack {
    /// Commit slots per cycle of the machine that produced this stack.
    pub commit_width: u64,
    /// Per-component totals, in [`Component::ALL`] order for single
    /// runs; merged reports keep the union of component names.
    pub components: Vec<ComponentStat>,
}

impl CpiStack {
    /// Total commit slots across components; equals
    /// `cycles × commit_width` by the partition invariant.
    pub fn total_slots(&self) -> u64 {
        self.components.iter().map(|s| s.slots).sum()
    }

    /// Cycles this stack accounts for (`total_slots / commit_width`).
    pub fn cycles(&self) -> u64 {
        self.total_slots()
            .checked_div(self.commit_width)
            .unwrap_or(0)
    }

    /// Slots charged to the named component (zero if absent).
    pub fn slots(&self, component: &str) -> u64 {
        self.components
            .iter()
            .find(|s| s.component == component)
            .map_or(0, |s| s.slots)
    }

    /// Folds another stack into this one, matching components by name
    /// and appending components this stack has not seen. Both stacks
    /// must come from machines of the same commit width.
    pub fn merge(&mut self, other: &CpiStack) {
        debug_assert_eq!(
            self.commit_width, other.commit_width,
            "merging stacks from different commit widths"
        );
        for stat in &other.components {
            match self
                .components
                .iter_mut()
                .find(|s| s.component == stat.component)
            {
                Some(mine) => mine.slots += stat.slots,
                None => self.components.push(stat.clone()),
            }
        }
    }

    /// The component-wise difference `self − earlier`: the stack of the
    /// cycles simulated after `earlier` was captured. Used for warm-up
    /// differencing — accountant counters are cumulative and monotone,
    /// so the subtraction cannot underflow on snapshots of one run.
    ///
    /// # Panics
    /// In debug builds, if `earlier` charges more slots to some
    /// component than `self` (not a snapshot of the same run).
    pub fn minus(&self, earlier: &CpiStack) -> CpiStack {
        CpiStack {
            commit_width: self.commit_width,
            components: self
                .components
                .iter()
                .map(|s| {
                    let before = earlier.slots(&s.component);
                    debug_assert!(
                        s.slots >= before,
                        "{}: {} < {} — not a later snapshot of the same run",
                        s.component,
                        s.slots,
                        before
                    );
                    ComponentStat {
                        component: s.component.clone(),
                        slots: s.slots.saturating_sub(before),
                    }
                })
                .collect(),
        }
    }

    /// Serializes as
    /// `{"commit_width": w, "components": {"name": slots, ...}}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("commit_width", self.commit_width.into()),
            (
                "components",
                Json::obj(
                    self.components
                        .iter()
                        .map(|s| (s.component.as_str(), s.slots.into()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the [`CpiStack::to_json`] layout; `None` on shape
    /// mismatch.
    pub fn from_json(json: &Json) -> Option<Self> {
        let commit_width = json.get("commit_width")?.as_u64()?;
        let obj = json.get("components")?.as_obj()?;
        let mut components = Vec::with_capacity(obj.len());
        for (name, slots) in obj {
            components.push(ComponentStat {
                component: name.clone(),
                slots: slots.as_u64()?,
            });
        }
        Some(Self {
            commit_width,
            components,
        })
    }

    /// A human-readable table: component, slots, share of all slots,
    /// and — when `committed > 0` — the component's CPI contribution
    /// (`slots / (commit_width × committed)`; the column sums to the
    /// run's CPI by the partition invariant).
    pub fn render(&self, committed: u64) -> String {
        let total = self.total_slots().max(1);
        let denom = self.commit_width.saturating_mul(committed);
        let mut out = String::from("component             slots   share      cpi\n");
        for s in &self.components {
            let cpi = if denom == 0 {
                0.0
            } else {
                s.slots as f64 / denom as f64
            };
            out.push_str(&format!(
                "{:<18} {:>9} {:>6.1}% {:>8.4}\n",
                s.component,
                s.slots,
                100.0 * s.slots as f64 / total as f64,
                cpi,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_accountant_is_disabled_and_reports_nothing() {
        let mut a = NopAccountant;
        assert!(!a.enabled());
        a.init(8);
        a.charge(Component::Base, 8);
        a.end_cycle(1);
        assert_eq!(a.report(), None);
        assert!(a.take_sampler().is_none());
    }

    #[test]
    fn slot_accountant_accumulates_per_component() {
        let mut a = SlotAccountant::new();
        a.init(8);
        a.charge(Component::Base, 3);
        a.charge(Component::DepChain, 5);
        a.charge(Component::Base, 8);
        let stack = a.report().expect("enabled");
        assert_eq!(stack.slots("base"), 11);
        assert_eq!(stack.slots("dep_chain"), 5);
        assert_eq!(stack.total_slots(), 16);
        assert_eq!(stack.cycles(), 2);
        // Every component appears, even untouched ones.
        assert_eq!(stack.components.len(), Component::ALL.len());
    }

    #[test]
    fn sampler_sees_cumulative_counters_each_cycle() {
        let mut a = SlotAccountant::with_sampler(2);
        a.init(8);
        for cycle in 1..=4u64 {
            a.charge(Component::Base, 2);
            a.charge(Component::Frontend, 6);
            a.end_cycle(cycle);
        }
        let s = a.take_sampler().expect("sampler attached");
        assert_eq!(s.rows().len(), 2);
        for r in s.rows() {
            assert_eq!(r.cycles, 2);
            assert_eq!(r.deltas.iter().sum::<u64>(), 16);
        }
        // Detached: a second take yields nothing.
        assert!(a.take_sampler().is_none());
    }

    #[test]
    fn merge_matches_by_name() {
        let mut a = SlotAccountant::new();
        a.init(8);
        a.charge(Component::Base, 8);
        let mut merged = a.report().unwrap();
        let mut b = SlotAccountant::new();
        b.init(8);
        b.charge(Component::Base, 4);
        b.charge(Component::SearchPort, 4);
        merged.merge(&b.report().unwrap());
        assert_eq!(merged.slots("base"), 12);
        assert_eq!(merged.slots("search_port"), 4);
        assert_eq!(merged.total_slots(), 16);
    }

    #[test]
    fn minus_recovers_the_measured_window() {
        let mut a = SlotAccountant::new();
        a.init(8);
        a.charge(Component::Base, 5);
        a.charge(Component::CacheMem, 3);
        let before = a.report().unwrap();
        a.charge(Component::Base, 2);
        a.charge(Component::CacheMem, 6);
        let after = a.report().unwrap();
        let diff = after.minus(&before);
        assert_eq!(diff.slots("base"), 2);
        assert_eq!(diff.slots("cache_mem"), 6);
        assert_eq!(diff.total_slots(), 8);
        assert_eq!(diff.cycles(), 1);
    }

    #[test]
    fn json_round_trip() {
        let mut a = SlotAccountant::new();
        a.init(8);
        a.charge(Component::SegmentOverhead, 42);
        a.charge(Component::Base, 1);
        let stack = a.report().unwrap();
        let text = stack.to_json().to_string();
        let back = CpiStack::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, stack);
    }

    #[test]
    fn render_shows_cpi_contributions() {
        let mut a = SlotAccountant::new();
        a.init(8);
        a.charge(Component::Base, 800);
        a.charge(Component::CacheL2, 800);
        let text = a.report().unwrap().render(800);
        assert!(text.contains("base"), "{text}");
        assert!(text.contains("cache_l2"), "{text}");
        // 1600 slots over 800 committed on an 8-wide machine: CPI 0.25,
        // split evenly.
        assert!(text.contains("0.1250"), "{text}");
    }

    #[test]
    fn component_names_are_stable_and_unique() {
        let names: Vec<_> = Component::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.as_slice(), &Component::NAMES);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate component name");
    }
}
