#![warn(missing_docs)]

//! # lsq-core — the paper's contribution
//!
//! Load/store-queue models from Park, Ooi & Vijaykumar, *Reducing Design
//! Complexity of the Load/Store Queue* (MICRO-36, 2003):
//!
//! * [`StoreSetPredictor`] — the store-set predictor extended into the
//!   **store-load pair predictor** (§2.1): loads predicted independent of
//!   all in-flight stores skip the store-queue search, cutting its search
//!   bandwidth demand; violation detection moves to store commit.
//! * [`LoadBuffer`] — the **load buffer** (§2.2): a ≤4-entry buffer
//!   holding only out-of-order-issued loads, replacing whole-load-queue
//!   searches for load-load ordering.
//! * [`SegmentedAlloc`]/[`PortBook`] — **segmentation** (§3): the queue
//!   becomes a chain of small segments searched as a pipeline, with
//!   self-circular or no-self-circular allocation.
//! * [`Lsq`] — the composed, configurable model the pipeline drives; every
//!   design point in the paper's figures is an [`LsqConfig`].
//!
//! # Examples
//!
//! ```
//! use lsq_core::{Lsq, LsqConfig, LoadIssue};
//! use lsq_isa::{Pc, Addr};
//!
//! let mut lsq = Lsq::new(LsqConfig::default())?;
//! lsq.begin_cycle();
//! lsq.dispatch_store(0, Pc(0x100), Addr(0x40));
//! lsq.dispatch_load(1, Pc(0x104), Addr(0x40));
//! lsq.store_issue(0);
//! lsq.begin_cycle();
//! if let LoadIssue::Issued(issued) = lsq.load_issue(1) {
//!     assert_eq!(issued.forwarded_from, Some(0)); // store-to-load forwarding
//! }
//! # Ok::<(), lsq_core::ConfigError>(())
//! ```

pub mod config;
pub mod load_buffer;
pub mod lsq;
pub mod segmented;
pub mod stats;
pub mod store_set;

pub use config::{ConfigError, LoadOrderPolicy, LsqConfig, PredictorKind, SegAlloc, SegConfig};
pub use load_buffer::{LbIssue, LoadBuffer};
pub use lsq::{LoadIssue, LoadIssued, Lsq, StoreDrain, StoreIssue};
pub use segmented::{Placement, PortBook, SegmentedAlloc};
pub use stats::{LsqStats, StickyStalls};
pub use store_set::{LoadPrediction, Ssid, StoreSetPredictor};
