//! Graph fusion: merging producer→consumer primitive chains into single
//! fused nodes (DESIGN.md §16).
//!
//! Every edge of the primitive graph normally materializes its intermediate
//! through the hub — a buffer id, a pool charge, launch overhead and (for
//! escaping values) a transfer. For streamable chains like
//! `filter → materialize → agg` that intermediate exists only to be consumed
//! immediately by the next primitive on the same device over the same chunk.
//! The fusion pass rewrites such chains into one `FUSED` / `FUSED_AGG` node
//! whose `NodeParams::Fused` carries the original stages; the interpreter
//! kernel (task layer, registered through the ordinary plug-in registry)
//! runs them back to back in kernel-local memory.
//!
//! ## Eligibility
//!
//! An edge `p → c` fuses when **all** of the following hold:
//!
//! * `p` is an interior-fusible primitive (`FILTER_BITMAP`,
//!   `FILTER_BITMAP_COL`, `BITMAP_OP`, `MAP`, `MATERIALIZE`) with a single
//!   output port and the default implementation variant;
//! * `c` is interior-fusible **or** a terminal aggregation (`AGG_BLOCK`,
//!   `HASH_AGG`), again default-variant, single-output — which kinds those
//!   are is `PrimitiveKind::fusion`, the table the interpreter kernel reads
//!   too;
//! * both nodes are annotated onto the **same device**;
//! * `c` is the **sole consumer** of `p`'s output and that output is not a
//!   graph output;
//! * both nodes stream the **same scan** in [`PipelineSet::split`] of the
//!   graph — the pass reads each node's pipeline from the split itself, so
//!   the two cannot disagree (same chunk grid — fused chunks line up
//!   exactly with unfused chunks, which keeps checkpoints, `ResumeCursor`
//!   rows and watchdog budgets on the same boundaries with fusion on or
//!   off). Scans compare by name, not pipeline index: once a breaker
//!   closes a scan's pipeline, the next pipeline over that scan is a new
//!   index on the same grid.
//!
//! Regions grow greedily along eligible edges; sole-consumer plus DAG
//! topological order guarantee every region is convex with a unique
//! terminal, so the rewrite is a local substitution. Aggregating terminals
//! produce `FUSED_AGG` (a pipeline breaker, like the aggregation it wraps);
//! anything else produces `FUSED`.

use crate::graph::{
    DataRef, FusedOperand, FusedStageSpec, NodeId, NodeParams, PrimitiveGraph, PrimitiveNode,
};
use crate::pipeline::PipelineSet;
use adamant_device::cost::{CostClass, CostModel};
use adamant_task::container::DataContainer;
use adamant_task::primitive::{FusionRole, PrimitiveKind};

/// What the fusion pass did to a graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionReport {
    /// Original nodes merged away into fused nodes (stage count summed over
    /// all chains).
    pub nodes_fused: usize,
    /// Fused nodes created (one per merged chain).
    pub fused_chains: usize,
}

/// Bytes of interior intermediates a fused node elides per `rows`-row
/// execution — the buffers the unfused chain would have materialized through
/// the hub (the same sizing formula `prepare_output_buffer` uses).
pub fn elided_bytes(params: &NodeParams, rows: usize) -> u64 {
    match params {
        NodeParams::Fused { stages, .. } => stages[..stages.len() - 1]
            .iter()
            .filter_map(|s| s.kind.fusion())
            .map(|(_, semantic)| DataContainer::estimate_output_bytes(semantic, rows))
            .sum(),
        _ => 0,
    }
}

/// Modeled nanoseconds a fused execution saved over running the same stages
/// unfused: per-stage launches plus undiscounted bodies, minus the fused
/// price (`CostModel::fused_kernel_ns`). `stage_stats` is the per-stage
/// `(class, elements)` breakdown the kernel reported.
pub fn fused_saved_ns(
    cost: &CostModel,
    stages: &[FusedStageSpec],
    stage_stats: &[(CostClass, u64)],
    fused_arg_count: usize,
) -> f64 {
    let unfused: f64 = stages
        .iter()
        .zip(stage_stats)
        .map(|(spec, &(class, elements))| {
            // What the standalone launch would have passed: operand buffers
            // plus one output buffer plus the stage's scalar params.
            let args = spec.operands.len() + 1 + spec.params.to_scalars().len();
            cost.kernel_ns(class, elements, args)
        })
        .sum();
    (unfused - cost.fused_kernel_ns(stage_stats, fused_arg_count)).max(0.0)
}

/// Runs the fusion pass in place. Returns what was merged; a graph with no
/// eligible edges comes back untouched with a zero report.
pub fn fuse_graph(graph: &mut PrimitiveGraph) -> FusionReport {
    let n = graph.nodes().len();
    let Ok(ps) = PipelineSet::split(graph) else {
        // The executor's own split surfaces the error; fusion stands down.
        return FusionReport::default();
    };
    let scan_of = |i: usize| &ps.pipelines[ps.node_pipeline[i]].scan;
    let counts = graph.consumer_counts();

    // merged_into[p] = the consumer p's output folds into.
    let mut merged_into: Vec<Option<usize>> = vec![None; n];
    for c in graph.nodes() {
        if c.kind.fusion().is_none() || c.variant.is_some() || c.output_count != 1 {
            continue;
        }
        for &input in &c.inputs {
            let DataRef::Output { node: src, port: 0 } = input else {
                continue;
            };
            let p = graph.node(src);
            if !matches!(p.kind.fusion(), Some((FusionRole::Interior, _)))
                || p.variant.is_some()
                || p.output_count != 1
                || p.device != c.device
                || counts.get(&input).copied().unwrap_or(0) != 1
                || scan_of(src.0) != scan_of(c.id.0)
            {
                continue;
            }
            merged_into[src.0] = Some(c.id.0);
        }
    }

    // Component root (terminal) per node: follow merged_into to the end.
    let root_of = |mut i: usize| {
        while let Some(next) = merged_into[i] {
            i = next;
        }
        i
    };
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        members[root_of(i)].push(i); // topo order preserved: i ascending
    }

    let mut report = FusionReport::default();
    let mut new_nodes: Vec<PrimitiveNode> = Vec::new();
    let mut ref_map: std::collections::BTreeMap<DataRef, DataRef> = Default::default();
    for i in 0..graph.inputs().len() {
        ref_map.insert(DataRef::Input(i), DataRef::Input(i));
    }
    let map_ref = |m: &std::collections::BTreeMap<DataRef, DataRef>, r: DataRef| {
        *m.get(&r)
            .expect("fusion rewrite: reference escapes a fused region")
    };

    for old in graph.nodes() {
        let root = root_of(old.id.0);
        let region = &members[root];
        if region.len() < 2 {
            // Untouched node: copy with remapped inputs.
            let id = NodeId(new_nodes.len());
            for port in 0..old.output_count {
                ref_map.insert(
                    DataRef::Output { node: old.id, port },
                    DataRef::Output { node: id, port },
                );
            }
            let mut copied = old.clone();
            copied.id = id;
            copied.inputs = old.inputs.iter().map(|&r| map_ref(&ref_map, r)).collect();
            new_nodes.push(copied);
            continue;
        }
        if old.id.0 != root {
            continue; // interior member: vanishes into the fused node
        }

        // Terminal member: emit the fused node at this position.
        let stage_index = |src: usize| region.iter().position(|&m| m == src);
        let mut externals: Vec<DataRef> = Vec::new();
        let mut stages: Vec<FusedStageSpec> = Vec::with_capacity(region.len());
        for &m in region {
            let node = &graph.nodes()[m];
            let operands = node
                .inputs
                .iter()
                .map(|&r| {
                    if let DataRef::Output { node: src, port: 0 } = r {
                        if let Some(j) = stage_index(src.0) {
                            if region[j] != m {
                                return FusedOperand::Stage(j);
                            }
                        }
                    }
                    let pos = externals.iter().position(|&e| e == r).unwrap_or_else(|| {
                        externals.push(r);
                        externals.len() - 1
                    });
                    FusedOperand::External(pos)
                })
                .collect();
            stages.push(FusedStageSpec {
                kind: node.kind,
                params: Box::new(node.params.clone()),
                operands,
            });
        }
        let kind = match graph.nodes()[root].kind.fusion() {
            Some((FusionRole::Terminal, _)) => PrimitiveKind::FusedAgg,
            _ => PrimitiveKind::Fused,
        };
        let output_semantic = graph.semantic_of(DataRef::Output {
            node: NodeId(root),
            port: 0,
        });
        let label = format!(
            "fused({})",
            region
                .iter()
                .map(|&m| graph.nodes()[m].label.as_str())
                .collect::<Vec<_>>()
                .join("+")
        );
        let id = NodeId(new_nodes.len());
        ref_map.insert(
            DataRef::Output {
                node: old.id,
                port: 0,
            },
            DataRef::Output { node: id, port: 0 },
        );
        let inputs = externals.iter().map(|&r| map_ref(&ref_map, r)).collect();
        new_nodes.push(PrimitiveNode {
            id,
            kind,
            params: NodeParams::Fused {
                stages,
                output_semantic,
            },
            inputs,
            output_count: 1,
            device: old.device,
            variant: None,
            label,
        });
        report.nodes_fused += region.len();
        report.fused_chains += 1;
    }

    let new_outputs = graph
        .outputs()
        .iter()
        .map(|(name, r)| (name.clone(), map_ref(&ref_map, *r)))
        .collect();
    graph.nodes = new_nodes;
    graph.outputs = new_outputs;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use adamant_device::device::DeviceId;
    use adamant_task::params::{AggFunc, CmpOp, MapOp};
    use adamant_task::semantics::DataSemantic;

    fn dev() -> DeviceId {
        DeviceId(0)
    }

    fn q6_like() -> PrimitiveGraph {
        // filter -> materialize -> agg_block over one scan.
        let mut b = GraphBuilder::new();
        let price = b.scan_input("lineitem", "price");
        let bm = b.add(
            PrimitiveKind::FilterBitmap,
            NodeParams::Filter {
                cmp: CmpOp::Lt,
                value: 10,
                hi: 0,
            },
            vec![price],
            1,
            dev(),
            "filter",
        );
        let vals = b.add(
            PrimitiveKind::Materialize,
            NodeParams::None,
            vec![price, bm[0]],
            1,
            dev(),
            "mat",
        );
        let acc = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![vals[0]],
            1,
            dev(),
            "sum",
        );
        b.output("sum", acc[0]);
        b.build().unwrap()
    }

    #[test]
    fn fuses_filter_mat_agg_into_one_breaker() {
        let mut g = q6_like();
        let report = fuse_graph(&mut g);
        assert_eq!(report.fused_chains, 1);
        assert_eq!(report.nodes_fused, 3);
        assert_eq!(g.nodes().len(), 1);
        let node = &g.nodes()[0];
        assert_eq!(node.kind, PrimitiveKind::FusedAgg);
        assert!(node.kind.is_pipeline_breaker());
        let NodeParams::Fused {
            stages,
            output_semantic,
        } = &node.params
        else {
            panic!("expected fused params");
        };
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].operands, vec![FusedOperand::External(0)]);
        assert_eq!(
            stages[1].operands,
            vec![FusedOperand::External(0), FusedOperand::Stage(0)]
        );
        assert_eq!(stages[2].operands, vec![FusedOperand::Stage(1)]);
        assert_eq!(*output_semantic, DataSemantic::Numeric);
        // One external input (the shared scan column), deduped.
        assert_eq!(node.inputs, vec![DataRef::Input(0)]);
        // The graph output now points at the fused node.
        assert_eq!(
            g.outputs()[0].1,
            DataRef::Output {
                node: NodeId(0),
                port: 0
            }
        );
        // The fused graph still splits into one streaming pipeline.
        let ps = PipelineSet::split(&g).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.pipelines[0].scan.as_deref(), Some("lineitem"));
        // Elided bytes: filter bitmap + materialized column, not the acc.
        let rows = 1000;
        let expect = DataContainer::estimate_output_bytes(DataSemantic::Bitmap, rows)
            + DataContainer::estimate_output_bytes(DataSemantic::Numeric, rows);
        assert_eq!(elided_bytes(&node.params, rows), expect);
    }

    #[test]
    fn shared_producer_blocks_fusion() {
        // The filter bitmap feeds two consumers: not sole-consumed, no fuse
        // across that edge; mat+agg still fuse.
        let mut b = GraphBuilder::new();
        let x = b.scan_input("t", "x");
        let bm = b.add(
            PrimitiveKind::FilterBitmap,
            NodeParams::Filter {
                cmp: CmpOp::Lt,
                value: 5,
                hi: 0,
            },
            vec![x],
            1,
            dev(),
            "f",
        );
        let m1 = b.add(
            PrimitiveKind::Materialize,
            NodeParams::None,
            vec![x, bm[0]],
            1,
            dev(),
            "m1",
        );
        let m2 = b.add(
            PrimitiveKind::Materialize,
            NodeParams::None,
            vec![x, bm[0]],
            1,
            dev(),
            "m2",
        );
        let a1 = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![m1[0]],
            1,
            dev(),
            "a1",
        );
        let a2 = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Max },
            vec![m2[0]],
            1,
            dev(),
            "a2",
        );
        b.output("s", a1[0]);
        b.output("m", a2[0]);
        let mut g = b.build().unwrap();
        let report = fuse_graph(&mut g);
        // The shared filter output is not sole-consumed, so neither edge out
        // of it fuses. m1+a1 fuse; m2+a2 do NOT: a1 is a pipeline breaker
        // that closes the "t" stream pipeline before a2 is reached, so a2
        // derives scan None while m2 derives Some("t") in the split the
        // eligibility rule reads.
        assert_eq!(report.fused_chains, 1);
        assert_eq!(report.nodes_fused, 2);
        assert_eq!(g.nodes().len(), 4);
        assert_eq!(g.nodes()[0].kind, PrimitiveKind::FilterBitmap);
        assert_eq!(g.nodes()[1].kind, PrimitiveKind::Materialize);
        assert_eq!(g.nodes()[2].kind, PrimitiveKind::FusedAgg);
        assert_eq!(g.nodes()[3].kind, PrimitiveKind::AggBlock);
        // The fused node reads the surviving filter's output as external.
        assert!(g.nodes()[2].inputs.contains(&DataRef::Output {
            node: NodeId(0),
            port: 0
        }));
        // The rewritten graph still splits cleanly.
        PipelineSet::split(&g).unwrap();
    }

    #[test]
    fn graph_output_blocks_fusion() {
        // A chain whose intermediate is also a graph output must keep it
        // materialized.
        let mut b = GraphBuilder::new();
        let x = b.scan_input("t", "x");
        let m = b.add(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: MapOp::MulConst,
                constant: 2,
            },
            vec![x],
            1,
            dev(),
            "dbl",
        );
        let a = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![m[0]],
            1,
            dev(),
            "sum",
        );
        b.output("doubled", m[0]);
        b.output("sum", a[0]);
        let mut g = b.build().unwrap();
        let report = fuse_graph(&mut g);
        assert_eq!(report.fused_chains, 0);
        assert_eq!(g.nodes().len(), 2);
    }

    #[test]
    fn cross_device_edge_blocks_fusion() {
        let mut b = GraphBuilder::new();
        let x = b.scan_input("t", "x");
        let m = b.add(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: MapOp::MulConst,
                constant: 2,
            },
            vec![x],
            1,
            DeviceId(0),
            "dbl",
        );
        let a = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![m[0]],
            1,
            DeviceId(1),
            "sum",
        );
        b.output("sum", a[0]);
        let mut g = b.build().unwrap();
        assert_eq!(fuse_graph(&mut g).fused_chains, 0);
    }

    #[test]
    fn variant_blocks_fusion() {
        let mut b = GraphBuilder::new();
        let x = b.scan_input("t", "x");
        let m = b.add_variant(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: MapOp::MulConst,
                constant: 2,
            },
            vec![x],
            1,
            dev(),
            Some("blocked".into()),
            "dbl",
        );
        let a = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![m[0]],
            1,
            dev(),
            "sum",
        );
        b.output("sum", a[0]);
        let mut g = b.build().unwrap();
        assert_eq!(fuse_graph(&mut g).fused_chains, 0);
    }

    #[test]
    fn breaker_producer_never_fuses() {
        // prefix_sum is a breaker: its consumer cannot fuse over it.
        let mut b = GraphBuilder::new();
        let x = b.scan_input("t", "x");
        let ps = b.add(
            PrimitiveKind::PrefixSum,
            NodeParams::None,
            vec![x],
            1,
            dev(),
            "psum",
        );
        let m = b.add(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: MapOp::AddConst,
                constant: 1,
            },
            vec![ps[0]],
            1,
            dev(),
            "inc",
        );
        b.output("r", m[0]);
        let mut g = b.build().unwrap();
        assert_eq!(fuse_graph(&mut g).fused_chains, 0);
    }

    #[test]
    fn scalar_program_round_trips_through_kernel_decoding() {
        let mut g = q6_like();
        fuse_graph(&mut g);
        let scalars = g.nodes()[0].params.to_scalars();
        // [3, filter(2,1op,0,3p,...), mat(5,2ops,0,-1,0p), agg(8,1op,-2,1p,..)]
        assert_eq!(scalars[0], 3);
        assert_eq!(scalars[1], PrimitiveKind::FilterBitmap.op_code());
        let saved = fused_saved_ns(
            &CostModel::default(),
            match &g.nodes()[0].params {
                NodeParams::Fused { stages, .. } => stages,
                _ => unreachable!(),
            },
            &[
                (CostClass::FilterBitmap, 1000),
                (CostClass::MaterializeBitmap, 1000),
                (CostClass::ReduceLike, 500),
            ],
            2 + scalars.len(),
        );
        assert!(saved > 0.0, "fusion must model a saving, got {saved}");
    }
}
