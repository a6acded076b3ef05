//! # adamant-core
//!
//! The **runtime layer** of ADAMANT (paper §III-C and §IV) — the paper's
//! primary contribution. It interprets a [`graph::PrimitiveGraph`] (a query
//! plan over task-layer primitives, annotated with target devices), routes
//! data through the device interfaces, and executes the plan under one of
//! the execution models:
//!
//! * **operator-at-a-time** — whole inputs resident on the device (the
//!   baseline whose scalability Fig. 7 criticizes);
//! * **chunked** (Algorithm 1) — streams fixed-size chunks through each
//!   pipeline, bounding device memory;
//! * **pipelined** (Algorithm 2) — chunked with the next chunk's copy
//!   overlapping the current chunk's compute. The overlap, and the
//!   `fetched_until`/`processed_until` ordering that bounds it, live on the
//!   modeled timeline ([`timeline::overlapped_makespan`]); the host stages
//!   and executes every chunk on one thread;
//! * **4-phase** (Algorithm 3) — stage/copy-compute/delete phases with dual
//!   pinned staging buffers, in chunked and pipelined flavors.
//!
//! The executor produces exact query results (kernels really run) together
//! with an [`stats::ExecutionStats`] whose times come from the plugged
//! devices' cost models — the quantities the paper's figures report.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod error;
pub mod executor;
pub mod fusion;
pub mod graph;
pub mod hub;
pub mod models;
pub mod pipeline;
pub mod prepared;
pub mod residency;
pub mod result;
pub mod stats;
pub mod timeline;

pub use checkpoint::{CheckpointConfig, QueryCheckpoint};
pub use error::ExecError;
pub use executor::{Executor, ExecutorConfig, QueryInputs, RetryPolicy};
pub use fusion::{fuse_graph, FusionReport};
pub use graph::{
    DataRef, FusedOperand, FusedStageSpec, GraphBuilder, NodeId, NodeParams, PrimitiveGraph,
    PrimitiveNode,
};
pub use models::ExecutionModel;
pub use pipeline::{Pipeline, PipelineSet};
pub use prepared::Prepared;
pub use residency::{ResidencyCache, ResidencyConfig, ResidencyCounters};
pub use result::QueryOutput;
pub use stats::ExecutionStats;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::checkpoint::{CheckpointConfig, QueryCheckpoint};
    pub use crate::error::ExecError;
    pub use crate::executor::{Executor, ExecutorConfig, QueryInputs, RetryPolicy};
    pub use crate::fusion::{fuse_graph, FusionReport};
    pub use crate::graph::{
        DataRef, FusedOperand, FusedStageSpec, GraphBuilder, NodeId, NodeParams, PrimitiveGraph,
        PrimitiveNode,
    };
    pub use crate::models::ExecutionModel;
    pub use crate::pipeline::{Pipeline, PipelineSet};
    pub use crate::prepared::Prepared;
    pub use crate::residency::{ResidencyCache, ResidencyConfig, ResidencyCounters};
    pub use crate::result::QueryOutput;
    pub use crate::stats::ExecutionStats;
}
