#![warn(missing_docs)]

//! # lsq-obs — observability for the LSQ reproduction
//!
//! The simulator's evaluation counters (`lsq_core::LsqStats`-style
//! end-of-run aggregates) cannot show *when* or *why* a counter moved.
//! This crate adds the missing audit trail without taxing untraced runs:
//!
//! * **Typed event tracing** — a [`Tracer`] trait whose no-op default
//!   ([`NopTracer`]) monomorphizes to nothing, so `Simulator::new`
//!   compiles to exactly the pre-tracing code. The simulator is the only
//!   emitter: the LSQ and memory models carry no tracer and return the
//!   facts it turns into [`Event`]s. A [`TraceBuffer`] is the tracer
//!   for a traced run: a bounded ring that the simulator owns for the
//!   run and hands back, and that serializes to JSONL or Chrome
//!   `trace_event` JSON (open in Perfetto or `chrome://tracing`).
//! * **Windowed sampling** — a [`Sampler`] folds per-cycle cumulative
//!   counters and gauges into fixed-width windows of deltas and means,
//!   dumped as CSV. The simulator keeps two: the trace timeline (IPC,
//!   queue occupancy, search demand), so warm-up vs. measured behaviour
//!   is visible at a glance, and the CPI stack per window. Per-window
//!   deltas sum back exactly to the run's totals.
//! * **Per-PC attribution** — [`PcAttribution`] charges violations,
//!   squashes, and useless searches to static PCs, making Table 3's
//!   misprediction rate debuggable.
//! * **A metrics registry** — [`Registry`] renders counter sections as
//!   aligned text or JSON; `bin/diag` is built on it.
//! * **Sink configuration** — [`TraceConfig::parse`] and
//!   [`PipeviewConfig::parse`] read the `<path>[:format]` values of the
//!   `LSQ_TRACE` and `LSQ_PIPEVIEW` knobs, which the experiment binaries
//!   parse once at start-up, so any experiment run can be traced
//!   without code changes.
//!
//! The crate depends only on `lsq-isa` (for [`lsq_isa::Pc`] and
//! [`lsq_isa::Addr`]) and has no external dependencies; [`json`] is a
//! small built-in JSON builder/parser used for serialization and
//! round-trip tests.

pub mod attrib;
pub mod config;
pub mod event;
pub mod json;
pub mod pipeview;
pub mod registry;
pub mod sample;
pub mod tracer;

pub use attrib::{PcAttribution, PcCounters};
pub use config::{job_path, TraceConfig, TraceMode};
pub use event::{Event, MemOp, MissLevel, QueueSide, SquashCause, TimedEvent};
pub use json::Json;
pub use pipeview::{
    parse_konata, parse_o3, parse_pipeview, to_konata, to_o3, ParsedInstr, PipeRecord,
    PipeviewConfig, PipeviewMode, DEFAULT_PIPEVIEW_CAPACITY,
};
pub use registry::{Metric, MetricValue, Registry, Section};
pub use sample::{Column, Sampler, Window};
pub use tracer::{NopTracer, TraceBuffer, Tracer, DEFAULT_RING_CAPACITY};
