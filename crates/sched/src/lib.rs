//! # adamant-sched
//!
//! The **multi-query scheduler** above `adamant-core`'s executor: many
//! concurrent queries from multiple tenants share one engine's devices on
//! the simulated timeline, the scenario a co-processor-accelerated DBMS
//! actually serves (the paper evaluates queries one at a time; this layer
//! is the reproduction's extension for concurrent workloads).
//!
//! Three mechanisms compose over one record per tenant and one per
//! admitted query:
//!
//! * **Admission control** ([`estimate`]) — every query gets a
//!   pre-execution device-memory footprint (analytic for TPC-H via
//!   `adamant-tpch`, a primitive-graph walk otherwise) and is admitted only
//!   when that reservation fits the target device's unreserved pool; the
//!   admitted query carries its reservation until it finishes. An admitted
//!   query cannot be OOM-killed by a *later* admission.
//! * **Priority + fair queuing** — each tenant's record holds a weighted
//!   FIFO queue with multiplicative aging (no starvation) and
//!   earliest-deadline-first among equal priorities; queries whose
//!   remaining deadline budget cannot cover the cheapest modeled placement
//!   are shed before wasting device time.
//! * **Device-time sharing** ([`scheduler`]) — admitted queries' recorded
//!   per-chunk time slices interleave on the shared virtual timeline under
//!   weighted fair queuing over the tenants' passes, so a 2:1-weight
//!   tenant observes ≈2× the device time under contention while results
//!   stay reference-exact. With a preemption slack set
//!   ([`QueryScheduler::new`]), tight-deadline queries suspend lower-urgency
//!   running queries at chunk granularity and the suspended tenants catch
//!   up afterwards; late completions are flagged (`missed_deadline`) and
//!   counted, never silent.
//!
//! Entry points: build a [`QueryScheduler`] over an `Executor` (or via the
//! facade's `Adamant::session()`), register tenants, [`QueryScheduler::submit`]
//! [`QuerySpec`]s, then [`QueryScheduler::run_all`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod estimate;
pub mod scheduler;
pub mod stats;
mod tenant;

pub use estimate::estimate_footprint_bytes;
pub use scheduler::{
    QueryOutcome, QueryScheduler, QuerySpec, QueryTicket, SchedReport, ShedReason,
};
pub use stats::{SchedulerStats, TenantStats};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::estimate::estimate_footprint_bytes;
    pub use crate::scheduler::{
        QueryOutcome, QueryScheduler, QuerySpec, QueryTicket, SchedReport, ShedReason,
    };
    pub use crate::stats::{SchedulerStats, TenantStats};
}
