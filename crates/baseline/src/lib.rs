//! # adamant-baseline
//!
//! A HeavyDB-style baseline executor (the paper's Fig. 11 comparison).
//!
//! HeavyDB (formerly MapD/OmniSci) keeps *whole tables* resident in GPU
//! memory and executes operator-at-a-time over them. The paper compares
//! ADAMANT against it in two modes:
//!
//! * **cold start** ("HeavyDB w transfer") — the referenced tables are
//!   transferred to the device in full before execution;
//! * **in-place** ("HeavyDB w/o transfer") — tables already resident, pure
//!   execution.
//!
//! Two behaviours matter for the reproduction and are modeled exactly:
//!
//! 1. HeavyDB moves the *complete table* (every column), while ADAMANT
//!    streams only the columns a query needs — this drives the cold-start
//!    gap ("associated with the delay for transferring a complete table to
//!    the device memory, whereas we only transfer chunks of the column
//!    necessary");
//! 2. whole-table residency plus intermediate state must fit in device
//!    memory — at large scale factors Q3's hash table no longer fits and
//!    the query *fails* ("Q3 cannot be executed for the given scale
//!    factors, as the hash table size exceeds the maximum capacity"),
//!    which surfaces here as a real
//!    [`OutOfMemory`](adamant_device::error::DeviceError::OutOfMemory) error.
//!
//! This baseline is not HeavyDB's code-generating engine; it reproduces the
//! *execution strategy* the comparison is about (substitution documented in
//! DESIGN.md).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use adamant_core::error::{ExecError, Result};
use adamant_core::executor::{Executor, ExecutorConfig};
use adamant_core::models::ExecutionModel;
use adamant_core::result::QueryOutput;
use adamant_core::stats::ExecutionStats;
use adamant_device::profiles::DeviceProfile;
use adamant_device::sdk::SdkKind;
use adamant_storage::prelude::Catalog;
use adamant_task::registry::TaskRegistry;
use adamant_tpch::queries::TpchQuery;

/// Slowdown of the baseline's general-purpose (JIT-compiled) kernels
/// relative to ADAMANT's hardware-conscious primitives.
///
/// Calibrated to the paper's Fig. 11 observation that HeavyDB's in-place
/// execution is "comparable with our chunked execution" even though
/// chunked pays per-chunk PCIe transfers and in-place pays none — i.e. the
/// baseline's pure compute is substantially slower than ADAMANT's kernels.
pub const BASELINE_COMPUTE_FACTOR: f64 = 12.0;

/// Result of one baseline run.
#[derive(Clone, Debug)]
pub struct BaselineRun {
    /// Modeled cold-start time (full table transfer + execution).
    pub cold_ns: f64,
    /// Modeled in-place time (execution only, tables already resident).
    pub hot_ns: f64,
    /// Execution statistics of the compute phase.
    pub stats: ExecutionStats,
    /// Query output (exact).
    pub output: QueryOutput,
}

/// The whole-table-resident baseline executor.
#[derive(Clone, Debug)]
pub struct BaselineExecutor {
    profile: DeviceProfile,
}

impl BaselineExecutor {
    /// Creates a baseline over a (GPU) device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        BaselineExecutor { profile }
    }

    /// The unique tables a query references.
    pub fn tables_for(query: TpchQuery) -> Vec<&'static str> {
        let mut tables: Vec<&'static str> = query.input_columns().iter().map(|(t, _)| *t).collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }

    /// Bytes of the referenced tables, *all* columns (whole-table
    /// residency).
    pub fn resident_bytes(&self, catalog: &Catalog, query: TpchQuery) -> Result<u64> {
        let mut total = 0u64;
        for t in Self::tables_for(query) {
            total += catalog.table(t).map_err(ExecError::from)?.byte_len() as u64;
        }
        Ok(total)
    }

    /// Runs a query in the baseline strategy.
    ///
    /// Fails with [`adamant_device::error::DeviceError::OutOfMemory`]
    /// (wrapped in [`ExecError::Device`]) when the resident tables plus the
    /// query's working set exceed device memory — the Q3 behaviour.
    pub fn run(&self, catalog: &Catalog, query: TpchQuery) -> Result<BaselineRun> {
        let table_bytes = self.resident_bytes(catalog, query)?;
        let capacity = self.profile.memory_capacity;
        if table_bytes > capacity {
            return Err(ExecError::Device(
                adamant_device::error::DeviceError::OutOfMemory {
                    requested: table_bytes,
                    available: capacity,
                    capacity,
                },
            ));
        }
        // The working set executes in whatever memory the resident tables
        // leave free.
        let exec_profile = self
            .profile
            .clone()
            .with_memory(capacity - table_bytes, self.profile.pinned_capacity);
        let tasks = TaskRegistry::with_defaults(&[
            SdkKind::Cuda,
            SdkKind::OpenCl,
            SdkKind::OpenMp,
            SdkKind::Host,
        ]);
        // The baseline models the naive whole-table-resident strategy; it
        // must not inherit the runtime's fusion pass, or the comparison
        // would credit the baseline with ADAMANT's optimization.
        let mut exec = Executor::new(
            tasks,
            ExecutorConfig {
                fusion: false,
                ..ExecutorConfig::default()
            },
        );
        let dev = exec.add_profile(&exec_profile)?;
        let graph = query.plan(dev, catalog)?;
        let inputs = query.bind(catalog)?;
        let (output, stats) = exec.run(&graph, &inputs, ExecutionModel::OperatorAtATime)?;

        // Hot: pure execution — the engine's column placements stand in
        // for reads of the already-resident tables, so subtract the bus
        // time; scale by the baseline's kernel slowdown. (Query JIT time is
        // excluded, as in the paper's warm measurements.)
        let hot_ns =
            (stats.total_ns - stats.transfer_ns).max(stats.compute_ns) * BASELINE_COMPUTE_FACTOR;
        // Cold: full referenced tables over the bus (pageable), then hot.
        let cold_ns = self.profile.cost.h2d_ns(table_bytes, false) + hot_ns;
        Ok(BaselineRun {
            cold_ns,
            hot_ns,
            stats,
            output,
        })
    }
}

/// Convenience re-exports.
pub mod prelude {
    pub use crate::{BaselineExecutor, BaselineRun};
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_tpch::gen::TpchGenerator;
    use adamant_tpch::queries::q6;
    use adamant_tpch::reference;

    fn catalog() -> Catalog {
        TpchGenerator::new(0.002, 99).generate()
    }

    #[test]
    fn q6_baseline_correct_and_cold_slower() {
        let cat = catalog();
        let b = BaselineExecutor::new(DeviceProfile::cuda_rtx2080ti());
        let run = b.run(&cat, TpchQuery::Q6).unwrap();
        assert_eq!(q6::decode(&run.output), reference::q6(&cat).unwrap());
        assert!(run.cold_ns > run.hot_ns);
    }

    #[test]
    fn q4_baseline_runs() {
        let cat = catalog();
        let b = BaselineExecutor::new(DeviceProfile::cuda_rtx2080ti());
        let run = b.run(&cat, TpchQuery::Q4).unwrap();
        let rows = adamant_tpch::queries::q4::decode(&cat, &run.output).unwrap();
        assert_eq!(rows, reference::q4(&cat).unwrap());
    }

    #[test]
    fn whole_tables_cost_more_than_needed_columns() {
        // The cold-start premise: HeavyDB moves whole tables, ADAMANT only
        // the query's columns.
        let cat = catalog();
        let b = BaselineExecutor::new(DeviceProfile::cuda_rtx2080ti());
        let whole = b.resident_bytes(&cat, TpchQuery::Q6).unwrap();
        let needed = TpchQuery::Q6.input_bytes(&cat).unwrap();
        assert!(whole > 2 * needed, "whole {whole} vs needed {needed}");
    }

    #[test]
    fn q3_ooms_on_small_device() {
        let cat = catalog();
        // Device too small for even the resident tables.
        let tiny = DeviceProfile::cuda_rtx2080ti().with_memory(100_000, 50_000);
        let b = BaselineExecutor::new(tiny);
        let err = b.run(&cat, TpchQuery::Q3).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Device(adamant_device::error::DeviceError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn q3_ooms_from_working_set() {
        let cat = catalog();
        // Tables fit, but the hash tables / intermediates do not.
        let table_bytes = BaselineExecutor::new(DeviceProfile::cuda_rtx2080ti())
            .resident_bytes(&cat, TpchQuery::Q3)
            .unwrap();
        let profile = DeviceProfile::cuda_rtx2080ti().with_memory(table_bytes + 4096, 1 << 20);
        let b = BaselineExecutor::new(profile);
        let err = b.run(&cat, TpchQuery::Q3).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Device(adamant_device::error::DeviceError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn tables_for_queries() {
        assert_eq!(
            BaselineExecutor::tables_for(TpchQuery::Q6),
            vec!["lineitem"]
        );
        assert_eq!(
            BaselineExecutor::tables_for(TpchQuery::Q3),
            vec!["customer", "lineitem", "orders"]
        );
        assert_eq!(
            BaselineExecutor::tables_for(TpchQuery::Q4),
            vec!["lineitem", "orders"]
        );
    }
}
