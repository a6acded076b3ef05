//! # ADAMANT
//!
//! A query executor with plug-in interfaces for easy co-processor
//! integration — a from-scratch Rust reproduction of the ICDE 2023 paper
//! (Gurumurthy et al.), with the GPU hardware replaced by calibrated
//! simulated devices (see `DESIGN.md`).
//!
//! ## Architecture (paper §III)
//!
//! * [`device`] — the device layer: the ten pluggable interface functions a
//!   driver implements ([`device::Device`]), bounded memory pools, the
//!   simulated CUDA/OpenCL/OpenMP driver profiles;
//! * [`task`] — the task layer: primitive definitions (Table I), I/O
//!   semantics, kernel/data containers and the `(primitive, SDK)` registry;
//! * [`core`] — the runtime layer: primitive graphs, pipeline splitting,
//!   the data-transfer hub and the execution models (operator-at-a-time,
//!   chunked, pipelined, 4-phase);
//! * [`plan`] — a logical layer lowering relational operations to primitive
//!   graphs;
//! * [`sched`] — the multi-query scheduler: admission control against the
//!   device pools, per-tenant fair queuing, device-time sharing on the
//!   simulated timeline;
//! * [`storage`] — the columnar substrate;
//! * [`tpch`] — TPC-H generator, query plans and references;
//! * [`baseline`] — the HeavyDB-style whole-table-resident comparison.
//!
//! ## Quickstart
//!
//! ```
//! use adamant::prelude::*;
//!
//! // 1. Plug devices (any `Device` impl works; these are the paper's).
//! let mut engine = Adamant::builder()
//!     .chunk_rows(1 << 10)
//!     .device(DeviceProfile::cuda_rtx2080ti())
//!     .build()
//!     .unwrap();
//! let gpu = engine.device_ids()[0];
//!
//! // 2. Express a query (filter + sum) against bound columns.
//! let mut pb = PlanBuilder::new(gpu);
//! let mut t = pb.scan("sales", &["amount"]);
//! t.filter(&mut pb, Predicate::cmp("amount", CmpOp::Gt, 100)).unwrap();
//! let amount = t.materialized(&mut pb, "amount").unwrap();
//! let total = pb.agg_block(amount, AggFunc::Sum, "total");
//! pb.output("total", total);
//! let graph = pb.build().unwrap();
//!
//! let mut inputs = QueryInputs::new();
//! inputs.bind("amount", vec![50, 150, 250]);
//!
//! // 3. Execute under any model.
//! let (out, stats) = engine
//!     .run(&graph, &inputs, ExecutionModel::FourPhasePipelined)
//!     .unwrap();
//! assert_eq!(out.i64_column("total")[0], 400);
//! assert!(stats.total_ns > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use adamant_baseline as baseline;
pub use adamant_core as core;
pub use adamant_device as device;
pub use adamant_plan as plan;
pub use adamant_sched as sched;
pub use adamant_sql as sql;
pub use adamant_storage as storage;
pub use adamant_task as task;
pub use adamant_tpch as tpch;

use adamant_core::checkpoint::CheckpointConfig;
use adamant_core::error::Result;
use adamant_core::executor::{Executor, ExecutorConfig, QueryInputs, RetryPolicy};
use adamant_core::graph::PrimitiveGraph;
use adamant_core::models::ExecutionModel;
use adamant_core::residency::ResidencyConfig;
use adamant_core::result::QueryOutput;
use adamant_core::stats::ExecutionStats;
use adamant_device::device::{Device, DeviceId};
use adamant_device::fault::FaultPlan;
use adamant_device::profiles::DeviceProfile;
use adamant_device::sdk::SdkKind;
use adamant_sched::QueryScheduler;
use adamant_task::registry::TaskRegistry;

pub mod session;
pub use session::{Session, SessionError, SqlResultSet, SqlValue};

/// The top-level engine: devices + tasks + executor, ready to run plans.
pub struct Adamant {
    executor: Executor,
    preempt_slack_ns: Option<f64>,
    /// SQL texts compiled by [`Session::sql`], shared by every session on
    /// this engine.
    statements: session::StatementCache,
}

impl Adamant {
    /// Starts building an engine.
    pub fn builder() -> AdamantBuilder {
        AdamantBuilder::default()
    }

    /// Ids of the devices currently plugged, in plug order — read from the
    /// live registry, so a device that died mid-query (or was detached) is
    /// no longer listed.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        self.executor.devices().ids()
    }

    /// Plugs an additional device after construction.
    pub fn plug_device(&mut self, device: Box<dyn Device>) -> Result<DeviceId> {
        self.executor.add_device(device)
    }

    /// Plugs a device from a profile.
    pub fn plug_profile(&mut self, profile: &DeviceProfile) -> Result<DeviceId> {
        self.executor.add_profile(profile)
    }

    /// Hot-adds a device from a profile between runs: placement and the
    /// cost model pick it up on the next run without a rebuild. The add is
    /// counted in the next run's `ExecutionStats::hot_adds`.
    pub fn attach_profile(&mut self, profile: &DeviceProfile) -> Result<DeviceId> {
        self.executor.attach_profile(profile)
    }

    /// Executes a primitive graph.
    pub fn run(
        &mut self,
        graph: &PrimitiveGraph,
        inputs: &QueryInputs,
        model: ExecutionModel,
    ) -> Result<(QueryOutput, ExecutionStats)> {
        self.executor.run(graph, inputs, model)
    }

    /// Opens a multi-query scheduling session over this engine: register
    /// tenants, [`QueryScheduler::submit`] queries, then
    /// [`QueryScheduler::run_all`] to interleave them on the shared
    /// simulated timeline under admission control and weighted fair
    /// queuing (and, when enabled on the builder, deadline-driven
    /// preemption). The session borrows the engine exclusively; drop it to
    /// run single queries again.
    pub fn session(&mut self) -> QueryScheduler<'_> {
        QueryScheduler::new(&mut self.executor, self.preempt_slack_ns)
    }

    /// Installs a fault plan on one device (by plug order among the devices
    /// currently plugged), for chaos testing the recovery machinery.
    pub fn set_fault_plan(&mut self, index: usize, plan: FaultPlan) -> Result<()> {
        let id = *self.device_ids().get(index).ok_or_else(|| {
            adamant_core::ExecError::Internal(format!("no device at plug index {index}"))
        })?;
        self.executor.set_fault_plan(id, plan)
    }

    /// The underlying executor (cost-model tweaks, chunk-size changes).
    pub fn executor_mut(&mut self) -> &mut Executor {
        &mut self.executor
    }

    /// The underlying executor, read-only.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }
}

/// Builder for [`Adamant`].
#[derive(Default)]
pub struct AdamantBuilder {
    profiles: Vec<DeviceProfile>,
    devices: Vec<Box<dyn Device>>,
    config: ExecutorConfig,
    fault_plans: Vec<(usize, FaultPlan)>,
    tasks: Option<TaskRegistry>,
    preempt_slack_ns: Option<f64>,
    residency: Option<ResidencyConfig>,
}

impl AdamantBuilder {
    /// Adds a device from a profile.
    pub fn device(mut self, profile: DeviceProfile) -> Self {
        self.profiles.push(profile);
        self
    }

    /// Adds a custom device implementation.
    pub fn custom_device(mut self, device: Box<dyn Device>) -> Self {
        self.devices.push(device);
        self
    }

    /// Sets the chunk size in rows for the chunked models.
    pub fn chunk_rows(mut self, rows: usize) -> Self {
        self.config.chunk_rows = rows;
        self
    }

    /// Enables partial-progress checkpoints: consistent snapshots at
    /// pipeline-breaker and chunk-interval boundaries, so heavyweight
    /// recovery (a device death, exhausted retries) resumes from the last
    /// validated boundary instead of restarting from row 0.
    pub fn checkpoints(mut self, config: CheckpointConfig) -> Self {
        self.config.checkpoints = config;
        self
    }

    /// Sets the recovery policy (OOM chunk backoff, device fallback).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Sets the straggler-watchdog budget multiplier: a streamed chunk whose
    /// modeled duration exceeds this multiple of its fault-free cost-model
    /// expectation trips the watchdog and races a hedged duplicate on the
    /// best alternate device. Defaults to `3.0`, floored at `1.0`; see
    /// [`AdamantBuilder::no_hedging`] to disable.
    pub fn watchdog_multiplier(mut self, multiplier: f64) -> Self {
        self.config.watchdog_multiplier = Some(multiplier.max(1.0));
        self
    }

    /// Disables the straggler watchdog and hedged chunk execution entirely
    /// (useful for A/B-comparing makespans with and without hedging).
    pub fn no_hedging(mut self) -> Self {
        self.config.watchdog_multiplier = None;
        self
    }

    /// Enables scheduler-level preemption for `Adamant::session()` with
    /// `slack_ns` of urgency headroom (floored at `0.0`): a deadline query
    /// whose slack (`deadline − now − remaining work`) shrinks to this value
    /// suspends lower-urgency running queries until its own slices drain.
    /// Urgency is checked between slices, so a competing slice served while
    /// the query is not yet urgent eats into its slack unchecked: at `0.0`
    /// the query turns urgent one competing slice too late and still misses.
    /// A slack of at least one competing slice lets it turn urgent while its
    /// own remaining work still fits. Disabled by default (pure
    /// weighted-fair interleaving).
    pub fn preempt_slack_ns(mut self, slack_ns: f64) -> Self {
        self.preempt_slack_ns = Some(slack_ns.max(0.0));
        self
    }

    /// Installs a fault plan on the device at plug index `index` (profiles
    /// first, then custom devices, in declaration order).
    pub fn fault_plan(mut self, index: usize, plan: FaultPlan) -> Self {
        self.fault_plans.push((index, plan));
        self
    }

    /// Supplies a custom task registry (defaults to every built-in kernel
    /// for the CUDA/OpenCL/OpenMP/Host SDKs).
    pub fn tasks(mut self, tasks: TaskRegistry) -> Self {
        self.tasks = Some(tasks);
        self
    }

    /// Enables or disables the fusion pass (DESIGN.md §16): eligible
    /// producer→consumer primitive chains are merged into single fused
    /// kernels, eliding the intermediate buffers between them. On by
    /// default; results are reference-exact either way. Disable to A/B the
    /// saving, or when fault plans / task-registry overrides target the
    /// individual kernels by name (a fused chain executes as `fused` /
    /// `fused_agg` instead).
    pub fn fusion(mut self, enabled: bool) -> Self {
        self.config.fusion = enabled;
        self
    }

    /// Enables the cross-query residency cache: input columns stay pinned
    /// device-side between runs (up to the configured per-device budget),
    /// served without re-transfer on later queries and evicted
    /// LRU-by-modeled-transfer-cost under memory or admission pressure.
    /// Disabled by default.
    pub fn residency_cache(mut self, config: ResidencyConfig) -> Self {
        self.residency = Some(config);
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Result<Adamant> {
        let tasks = self.tasks.unwrap_or_else(|| {
            TaskRegistry::with_defaults(&[
                SdkKind::Cuda,
                SdkKind::OpenCl,
                SdkKind::OpenMp,
                SdkKind::Host,
            ])
        });
        let mut engine = Adamant {
            executor: Executor::new(tasks, self.config),
            preempt_slack_ns: self.preempt_slack_ns,
            statements: session::StatementCache::default(),
        };
        for p in &self.profiles {
            engine.plug_profile(p)?;
        }
        for d in self.devices {
            engine.plug_device(d)?;
        }
        for (index, plan) in self.fault_plans {
            engine.set_fault_plan(index, plan)?;
        }
        if let Some(residency) = self.residency {
            engine.executor.set_residency_cache(residency);
        }
        Ok(engine)
    }
}

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::session::{Session, SessionError, SqlResultSet, SqlValue};
    pub use crate::{Adamant, AdamantBuilder};
    pub use adamant_baseline::{BaselineExecutor, BaselineRun};
    pub use adamant_core::checkpoint::{CheckpointConfig, QueryCheckpoint};
    pub use adamant_core::executor::{Executor, ExecutorConfig, QueryInputs, RetryPolicy};
    pub use adamant_core::graph::{DataRef, GraphBuilder, NodeParams, PrimitiveGraph};
    pub use adamant_core::models::ExecutionModel;
    pub use adamant_core::residency::{ResidencyCache, ResidencyConfig, ResidencyCounters};
    pub use adamant_core::result::QueryOutput;
    pub use adamant_core::stats::ExecutionStats;
    pub use adamant_core::ExecError;
    pub use adamant_device::buffer::{Buffer, BufferData, BufferId};
    pub use adamant_device::cost::{CostClass, CostModel};
    pub use adamant_device::device::{Device, DeviceId, DeviceInfo, DeviceKind, DeviceState};
    pub use adamant_device::fault::{FaultCounters, FaultPlan};
    pub use adamant_device::kernel::{ExecuteSpec, KernelSource, KernelStats};
    pub use adamant_device::profiles::DeviceProfile;
    pub use adamant_device::sdk::{SdkKind, SdkRepr};
    pub use adamant_plan::prelude::{Expr, GroupResult, PlanBuilder, Predicate, Stream};
    pub use adamant_sched::{
        QueryOutcome, QueryScheduler, QuerySpec, QueryTicket, SchedReport, SchedulerStats,
        ShedReason, TenantStats,
    };
    pub use adamant_sql::{SqlError, SqlErrorKind};
    pub use adamant_storage::prelude::{Catalog, Column, Table};
    pub use adamant_task::params::{AggFunc, BitmapOp, CmpOp, MapOp};
    pub use adamant_task::primitive::PrimitiveKind;
    pub use adamant_task::registry::TaskRegistry;
    pub use adamant_tpch::gen::TpchGenerator;
    pub use adamant_tpch::queries::TpchQuery;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn builder_constructs_engine() {
        let mut engine = Adamant::builder()
            .chunk_rows(512)
            .device(DeviceProfile::cuda_rtx2080ti())
            .device(DeviceProfile::opencl_cpu_i7())
            .build()
            .unwrap();
        assert_eq!(engine.device_ids().len(), 2);
        assert_eq!(engine.executor().config().chunk_rows, 512);
        let extra = engine
            .plug_profile(&DeviceProfile::openmp_cpu_i7())
            .unwrap();
        assert_eq!(engine.device_ids().len(), 3);
        assert_eq!(extra, engine.device_ids()[2]);
    }

    #[test]
    fn end_to_end_tpch_through_facade() {
        let catalog = TpchGenerator::new(0.001, 5).generate();
        let mut engine = Adamant::builder()
            .chunk_rows(500)
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        let dev = engine.device_ids()[0];
        let graph = TpchQuery::Q6.plan(dev, &catalog).unwrap();
        let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
        let (out, _) = engine
            .run(&graph, &inputs, ExecutionModel::Chunked)
            .unwrap();
        assert_eq!(
            adamant_tpch::queries::q6::decode(&out),
            adamant_tpch::reference::q6(&catalog).unwrap()
        );
    }
}
