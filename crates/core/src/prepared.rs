//! Prepared plans: everything a run derives from a graph alone, derived
//! once.
//!
//! A [`Prepared`] is a graph after fusion (when the executor fuses), its
//! [`FusionReport`], its [`PipelineSet`], the streamed values that escape
//! their pipeline, and each node's kernel scalars. None of it depends on the
//! inputs, the execution model or the devices: the node annotations say
//! where a run *may* start, and [`crate::Executor::run_prepared`] can start
//! every pipeline on another device instead. So one `Prepared` serves any
//! number of runs, on any device — the SQL statement cache keeps one per
//! text — and [`crate::Executor::run`] is [`crate::Executor::prepare`]
//! followed by a run of what it returns.

use crate::error::Result;
use crate::fusion::{fuse_graph, FusionReport};
use crate::graph::{DataRef, PrimitiveGraph};
use crate::pipeline::PipelineSet;
use std::collections::HashSet;

/// A graph made ready to run; immutable once built.
#[derive(Debug)]
pub struct Prepared {
    graph: PrimitiveGraph,
    report: FusionReport,
    pipelines: PipelineSet,
    /// Streamed non-breaker outputs consumed outside their pipeline.
    pub(crate) escaping: HashSet<DataRef>,
    /// Each node's encoded kernel scalars, by node index.
    pub(crate) scalars: Vec<Vec<i64>>,
}

impl Prepared {
    /// Fuses a copy of `graph` when `fusion` is on (fused nodes enter
    /// pipeline assignment, placement, checkpointing and the watchdog as
    /// ordinary primitives, so every downstream policy prices the fused
    /// unit), then splits it and derives the rest. Fails like
    /// [`PipelineSet::split`].
    pub(crate) fn new(graph: &PrimitiveGraph, fusion: bool) -> Result<Prepared> {
        let mut graph = graph.clone();
        let report = if fusion {
            fuse_graph(&mut graph)
        } else {
            FusionReport::default()
        };
        let pipelines = PipelineSet::split(&graph)?;
        let escaping = escaping_refs(&graph, &pipelines);
        let scalars = graph
            .nodes()
            .iter()
            .map(|n| n.params.to_scalars())
            .collect();
        Ok(Prepared {
            graph,
            report,
            pipelines,
            escaping,
            scalars,
        })
    }

    /// The graph a run executes: fused, or the caller's when fusion is off.
    pub fn graph(&self) -> &PrimitiveGraph {
        &self.graph
    }

    /// What fusion did to the graph (all zero when it is off).
    pub fn fusion_report(&self) -> FusionReport {
        self.report
    }

    /// The graph's pipelines, in execution order.
    pub fn pipelines(&self) -> &PipelineSet {
        &self.pipelines
    }
}

/// Data refs produced by non-breaker nodes of streaming pipelines that are
/// consumed outside their pipeline (or are graph outputs) — these must be
/// accumulated chunk-by-chunk.
fn escaping_refs(graph: &PrimitiveGraph, pipelines: &PipelineSet) -> HashSet<DataRef> {
    let mut escaping = HashSet::new();
    let is_streamed_scratch = |r: DataRef| -> bool {
        match r {
            DataRef::Output { node, .. } => {
                let n = graph.node(node);
                !n.kind.is_pipeline_breaker()
                    && pipelines.pipelines[pipelines.node_pipeline[node.0]].is_streaming()
            }
            DataRef::Input(_) => false,
        }
    };
    for node in graph.nodes() {
        for &input in &node.inputs {
            if let DataRef::Output { node: src, .. } = input {
                if pipelines.node_pipeline[src.0] != pipelines.node_pipeline[node.id.0]
                    && is_streamed_scratch(input)
                {
                    escaping.insert(input);
                }
            }
        }
    }
    for (_, r) in graph.outputs() {
        if is_streamed_scratch(*r) {
            escaping.insert(*r);
        }
    }
    escaping
}
