//! # memhier-sim
//!
//! Program-driven cluster memory-hierarchy simulator — the reproduction's
//! substitute for the paper's MINT front-end plus five hand-written
//! back-ends (§5.1).
//!
//! Instrumented SPMD workloads (see `memhier-workloads`) emit per-process
//! streams of [`MemEvent`]s; the [`engine`] interleaves the logical
//! processors in simulated-time order and drives a [`backend::ClusterBackend`]
//! that models:
//!
//! * per-processor set-associative LRU **caches** (64-byte lines, 2-way, as
//!   §5.1 specifies for SMPs),
//! * a **snooping write-invalidate protocol** inside each SMP node,
//! * a **directory protocol** (256-byte blocks, states Uncached / Shared /
//!   Exclusive) across nodes, with each node's local memory acting as an
//!   LRU cache of remote blocks,
//! * the **hybrid** combination for clusters of SMPs (directory between
//!   nodes, snooping within),
//! * **bus and switch networks** with explicit queueing for the medium,
//! * **disks** behind an LRU page-residency model.
//!
//! The paper's five platforms are five configurations of the same backend:
//! SMP (`N = 1`), COW over bus/switch (`n = 1`), CLUMP over bus/switch.
//!
//! All latencies are the paper's §5.1 cycle counts, taken from
//! [`memhier_core::machine::LatencyParams`].

pub mod backend;
pub mod cache;
pub mod dirtable;
pub mod engine;
pub mod event;
pub mod homemap;
pub mod observe;
pub mod report;
pub mod util;

pub use backend::{ClusterBackend, ProtocolParams};
pub use dirtable::{DirEntry, DirTable};
pub use engine::{ProcSource, SessionOutput, SimSession};
pub use event::MemEvent;
pub use homemap::HomeMap;
pub use observe::{
    AccessObservation, BarrierObservation, EventTracer, MetricsSeries, MetricsTotals,
    MetricsWindow, NopObserver, ProcBreakdown, ServiceLevel, SimObserver, TimeSeriesCollector,
    TraceEvent, TraceKind, TraceLog,
};
pub use report::SimReport;
