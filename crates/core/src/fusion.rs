//! Graph fusion: merging the streaming primitives of a pipeline into single
//! fused nodes (DESIGN.md §16).
//!
//! Every edge of the primitive graph normally materializes its intermediate
//! through the hub — a buffer id, a pool charge, launch overhead and (for
//! escaping values) a transfer. Inside a streaming pipeline that
//! intermediate exists only to be consumed by the next primitives on the
//! same device over the same chunk. The fusion pass rewrites each such
//! *region* into one `FUSED` / `FUSED_AGG` node whose `NodeParams::Fused`
//! carries the original stages; the interpreter kernel (task layer,
//! registered through the ordinary plug-in registry) runs them back to back
//! in kernel-local memory. Joins do not stop it: a probe is a stage like a
//! filter, and a `HASH_BUILD` ends its region the way an aggregation does —
//! the paper breaks pipelines at the build, not at the probe.
//!
//! ## The region rule
//!
//! A node is *fusible* when it has a row in `PrimitiveKind::fusion` (the
//! table the interpreter kernel reads too) and the default implementation
//! variant. The pass walks the graph in reverse topological order and puts
//! every fusible node into a region:
//!
//! * A fusible node `p` **folds into** region `R` when `p` is an `Interior`
//!   kind, none of its outputs is a graph output, it has at least one
//!   consumer, and **all** of its consumers — over every output port — are
//!   already members of `R` and stream `p`'s **scan** in
//!   [`PipelineSet::split`] of the graph. The split puts every node of a
//!   pipeline on one device, and the pass stands down when it fails, so
//!   the members a region takes from one pipeline share its device. A
//!   fused node runs on its root's device, and that includes a producer
//!   folded in from an earlier pipeline over the same scan.
//! * Otherwise `p` **roots** a region of its own, if it has a single output
//!   port; a multi-output node (a `HASH_PROBE` with payload columns) is
//!   never a root, so a region always has exactly one output — its root's.
//!   Terminal kinds (`AGG_BLOCK`, `HASH_AGG`, `HASH_BUILD`) only root.
//!
//! Because every member's consumers are members, each member reaches the
//! root and no path leaves the region and comes back: regions are convex,
//! and the rewrite is a local substitution at the root's position. A shared
//! producer — Q1's `l_shipdate` bitmap, Q3's semi-join bitmap — fuses as
//! long as all its readers land in one region; the stage program lets any
//! stage read any port of any earlier stage. Scans compare by name, not
//! pipeline index: once a breaker closes a scan's pipeline, the next
//! pipeline over that scan is a new index on the same chunk grid, so fused
//! chunks line up exactly with unfused chunks (checkpoints, `ResumeCursor`
//! rows and watchdog budgets stay on the same boundaries with fusion on or
//! off).
//!
//! A region rooted at a terminal becomes `FUSED_AGG` (a pipeline breaker,
//! like the terminal it wraps); any other becomes `FUSED`. A one-member
//! region is left alone.
//!
//! ## Accounting
//!
//! A fused execution elides every output port of every non-root stage, and
//! [`elided_bytes`] sizes each one exactly as `note_intermediates` sizes the
//! port of the unfused node, so `fused.intermediate_bytes +
//! fused.intermediates_elided_bytes == unfused.intermediate_bytes` for the
//! same plan, model and inputs.

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

/// Bytes of interior intermediates one execution of a fused node elides:
/// every output port of every stage but the last, each sized the way
/// `prepare_output_buffer` would have sized it for the unfused node, by
/// `rows(stage)` — the row count that stage's node would have been wired
/// with.
pub fn elided_bytes(params: &NodeParams, rows: impl Fn(usize) -> usize) -> u64 {
    let NodeParams::Fused { stages, .. } = params else {
        return 0;
    };
    let interior = &stages[..stages.len() - 1];
    let mut bytes = 0;
    for (si, stage) in interior.iter().enumerate() {
        let signature = stage.kind.signature();
        for port in 0..stage.outputs {
            bytes += DataContainer::estimate_output_bytes(signature.output(port), rows(si));
        }
    }
    bytes
}

/// Modeled nanoseconds a fused execution saved over running the same stages
/// unfused: per-stage launches plus full-price bodies, minus the fused
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
            // plus its output buffers plus the stage's scalar params.
            let args = spec.operands.len() + spec.outputs + spec.params.to_scalars().len();
            cost.kernel_ns(class, elements, args)
        })
        .sum();
    (unfused - cost.fused_kernel_ns(stage_stats, fused_arg_count)).max(0.0)
}

/// Runs the fusion pass in place. Returns what was merged; a graph with no
/// fusible region of two or more nodes comes back untouched with a zero
/// report.
pub fn fuse_graph(graph: &mut PrimitiveGraph) -> FusionReport {
    let n = graph.nodes().len();
    let Ok(ps) = PipelineSet::split(graph) else {
        // The executor's own split surfaces the error; fusion stands down.
        return FusionReport::default();
    };
    let scan_of = |i: usize| &ps.pipelines[ps.node_pipeline[i]].scan;
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in graph.nodes() {
        for &input in &c.inputs {
            if let DataRef::Output { node, .. } = input {
                consumers[node.0].push(c.id.0);
            }
        }
    }
    let mut is_output = vec![false; n];
    for (_, r) in graph.outputs() {
        if let DataRef::Output { node, .. } = r {
            is_output[node.0] = true;
        }
    }

    // root[i] = the region node i belongs to, named by its root; `None` for
    // a node that fuses with nothing (not fusible, or a multi-output node
    // that cannot fold).
    let mut root: Vec<Option<usize>> = vec![None; n];
    for p in graph.nodes().iter().rev() {
        let i = p.id.0;
        let Some((role, _)) = p.kind.fusion() else {
            continue;
        };
        if p.variant.is_some() {
            continue;
        }
        let shared = |c: &usize| (scan_of(*c) == scan_of(i)).then_some(root[*c]).flatten();
        let mut regions = consumers[i].iter().map(shared);
        let folds_into = match regions.next() {
            Some(Some(r)) if role == FusionRole::Interior && !is_output[i] => {
                regions.all(|other| other == Some(r)).then_some(r)
            }
            _ => None,
        };
        // Roots have one output, so the region folded into does too.
        root[i] = folds_into.or((p.output_count == 1).then_some(i));
    }

    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, r) in root.iter().enumerate() {
        if let Some(r) = *r {
            members[r].push(i); // topo order preserved: i ascending
        }
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
        let region = root[old.id.0].map_or(&[][..], |r| &members[r]);
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
        if root[old.id.0] != Some(old.id.0) {
            continue; // interior member: vanishes into the fused node
        }

        // The root: emit the fused node at this position.
        let stage_index = |src: usize| region.iter().position(|&m| m == src);
        let mut externals: Vec<DataRef> = Vec::new();
        let mut stages: Vec<FusedStageSpec> = Vec::with_capacity(region.len());
        for &m in region {
            let node = &graph.nodes()[m];
            let operands = node
                .inputs
                .iter()
                .map(|&r| {
                    if let DataRef::Output { node: src, port } = r {
                        if let Some(j) = stage_index(src.0) {
                            return FusedOperand::Stage(j, port);
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
                outputs: node.output_count,
            });
        }
        let kind = match old.kind.fusion() {
            Some((FusionRole::Terminal, _)) => PrimitiveKind::FusedAgg,
            _ => PrimitiveKind::Fused,
        };
        let output_semantic = graph.semantic_of(DataRef::Output {
            node: old.id,
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
            vec![FusedOperand::External(0), FusedOperand::Stage(0, 0)]
        );
        assert_eq!(stages[2].operands, vec![FusedOperand::Stage(1, 0)]);
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
        assert_eq!(elided_bytes(&node.params, |_| rows), expect);
    }

    #[test]
    fn shared_producer_blocks_fusion() {
        // The filter bitmap feeds two consumers that land in two regions,
        // so it folds into neither; mat+agg still fuse.
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
        // m1+a1 fuse; m2+a2 do NOT: a1 is a pipeline breaker that closes
        // the "t" stream pipeline before a2 is reached, so a2 derives scan
        // None while m2 derives Some("t") in the split the rule reads. m2
        // roots a region of its own, so the filter's readers sit in two
        // regions and the filter stays.
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

    /// Q1's shape: one filter bitmap read by two materializations whose
    /// results meet again in one map before the aggregation. Every reader
    /// of every node lands in the aggregation's region, so all of it is one
    /// kernel, and the shared bitmap is read twice from kernel memory.
    #[test]
    fn shared_bitmap_whose_readers_share_a_region_fuses() {
        let mut b = GraphBuilder::new();
        let x = b.scan_input("t", "x");
        let y = b.scan_input("t", "y");
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
        let mx = b.add(
            PrimitiveKind::Materialize,
            NodeParams::None,
            vec![x, bm[0]],
            1,
            dev(),
            "mx",
        );
        let my = b.add(
            PrimitiveKind::Materialize,
            NodeParams::None,
            vec![y, bm[0]],
            1,
            dev(),
            "my",
        );
        let prod = b.add(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: MapOp::Mul,
                constant: 0,
            },
            vec![mx[0], my[0]],
            1,
            dev(),
            "mul",
        );
        let acc = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![prod[0]],
            1,
            dev(),
            "sum",
        );
        b.output("sum", acc[0]);
        let mut g = b.build().unwrap();
        let report = fuse_graph(&mut g);
        assert_eq!((report.fused_chains, report.nodes_fused), (1, 5));
        assert_eq!(g.nodes().len(), 1);
        let NodeParams::Fused { stages, .. } = &g.nodes()[0].params else {
            panic!("expected fused params");
        };
        let bitmap = FusedOperand::Stage(0, 0);
        assert_eq!(stages[1].operands[1], bitmap);
        assert_eq!(stages[2].operands[1], bitmap);
        assert_eq!(
            g.nodes()[0].inputs,
            vec![DataRef::Input(0), DataRef::Input(1)]
        );
        // The elided bytes count the bitmap once and each column once.
        let rows = 100;
        let expect = DataContainer::estimate_output_bytes(DataSemantic::Bitmap, rows)
            + 3 * DataContainer::estimate_output_bytes(DataSemantic::Numeric, rows);
        assert_eq!(elided_bytes(&g.nodes()[0].params, |_| rows), expect);
    }

    /// A build side (`filter → materialize → hash_build`) and a probe side
    /// (`probe → gather + payload → map → agg`) of one join.
    fn join_like(probe_feeds_output: bool) -> PrimitiveGraph {
        let mut b = GraphBuilder::new();
        let bk = b.scan_input("build", "k");
        let bv = b.scan_input("build", "v");
        let pk = b.scan_input("probe", "k");
        let px = b.scan_input("probe", "x");
        let bm = b.add(
            PrimitiveKind::FilterBitmap,
            NodeParams::Filter {
                cmp: CmpOp::Gt,
                value: 3,
                hi: 0,
            },
            vec![bv],
            1,
            dev(),
            "bf",
        );
        let keys = b.add(
            PrimitiveKind::Materialize,
            NodeParams::None,
            vec![bk, bm[0]],
            1,
            dev(),
            "bkeys",
        );
        let vals = b.add(
            PrimitiveKind::Materialize,
            NodeParams::None,
            vec![bv, bm[0]],
            1,
            dev(),
            "bvals",
        );
        let table = b.add(
            PrimitiveKind::HashBuild,
            NodeParams::HashBuild {
                payload_cols: 1,
                expected: 16,
            },
            vec![keys[0], vals[0]],
            1,
            dev(),
            "build",
        );
        let probe = b.add(
            PrimitiveKind::HashProbe,
            NodeParams::HashProbe { payload_outs: 1 },
            vec![pk, table[0]],
            2,
            dev(),
            "probe",
        );
        let gathered = b.add(
            PrimitiveKind::MaterializePosition,
            NodeParams::None,
            vec![px, probe[0]],
            1,
            dev(),
            "gather",
        );
        let prod = b.add(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: MapOp::Mul,
                constant: 0,
            },
            vec![gathered[0], probe[1]],
            1,
            dev(),
            "mul",
        );
        let acc = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![prod[0]],
            1,
            dev(),
            "sum",
        );
        b.output("sum", acc[0]);
        if probe_feeds_output {
            b.output("payload", probe[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn joins_fuse_into_one_kernel_per_pipeline() {
        let mut g = join_like(false);
        let report = fuse_graph(&mut g);
        assert_eq!((report.fused_chains, report.nodes_fused), (2, 8));
        assert_eq!(g.nodes().len(), 2);
        // The build side ends in its terminal, a breaker like the build.
        assert_eq!(g.nodes()[0].kind, PrimitiveKind::FusedAgg);
        assert_eq!(
            g.semantic_of(DataRef::Output {
                node: NodeId(0),
                port: 0
            }),
            DataSemantic::HashTable
        );
        // The probe side reads the table as an external and the probe's
        // payload port from kernel memory.
        let probe_side = &g.nodes()[1];
        assert_eq!(probe_side.kind, PrimitiveKind::FusedAgg);
        assert!(probe_side.inputs.contains(&DataRef::Output {
            node: NodeId(0),
            port: 0
        }));
        let NodeParams::Fused { stages, .. } = &probe_side.params else {
            panic!("expected fused params");
        };
        assert_eq!(stages[0].outputs, 2);
        assert_eq!(stages[1].operands[1], FusedOperand::Stage(0, 0));
        assert_eq!(stages[2].operands[1], FusedOperand::Stage(0, 1));
        // Positions and the payload column both count as elided.
        let expect = DataContainer::estimate_output_bytes(DataSemantic::Position, 10)
            + 3 * DataContainer::estimate_output_bytes(DataSemantic::Numeric, 10);
        assert_eq!(elided_bytes(&probe_side.params, |_| 10), expect);
        let split = PipelineSet::split(&g).unwrap();
        assert_eq!(split.len(), 2);
    }

    /// A probe with payload columns has two outputs, so it can only fold
    /// into a region; when one of its ports is a graph output it stays a
    /// node of its own instead of becoming a root. Its readers still fuse.
    #[test]
    fn multi_output_node_is_never_a_region_root() {
        let mut g = join_like(true);
        let report = fuse_graph(&mut g);
        assert_eq!((report.fused_chains, report.nodes_fused), (2, 7));
        let kinds: Vec<_> = g.nodes().iter().map(|n| n.kind).collect();
        assert_eq!(
            kinds,
            [
                PrimitiveKind::FusedAgg,
                PrimitiveKind::HashProbe,
                PrimitiveKind::FusedAgg
            ]
        );
        assert_eq!(g.nodes()[1].output_count, 2);
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
        // A pipeline runs on one device: the split rejects this graph, and
        // fusion stands down when the split fails.
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
