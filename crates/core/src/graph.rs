//! The primitive graph: a query plan over task-layer primitives.
//!
//! Nodes are primitive instances annotated with a target device (the paper's
//! "primitive graph with annotations, which mark the target device"), one
//! device per pipeline; data
//! flows along [`DataRef`]s carrying I/O semantics. The graph is built by a
//! front end (a hand-written plan, or `adamant-plan`'s lowering of a logical
//! plan) and validated before execution.

use crate::error::{ExecError, Result};
use adamant_device::device::DeviceId;
use adamant_task::params::{AggFunc, BitmapOp, CmpOp, MapOp};
use adamant_task::primitive::PrimitiveKind;
use adamant_task::program;
pub use adamant_task::program::FusedOperand;
use adamant_task::semantics::DataSemantic;

/// Identifier of a node within one graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A reference to a piece of data: an external input column or a node
/// output port. These are the graph's edges, annotated with the "data ID"
/// the paper describes (`DataRef` itself is the id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataRef {
    /// External input column, by input index.
    Input(usize),
    /// Output port `port` of node `node`.
    Output {
        /// Producing node.
        node: NodeId,
        /// Output port index.
        port: usize,
    },
}

/// Per-primitive parameters, decoded form. The runtime encodes these into
/// the scalar parameter list of the device `execute()` call.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeParams {
    /// `MAP` with a constant operand (unused for binary ops).
    Map {
        /// The operation.
        op: MapOp,
        /// Constant operand for `*Const` ops.
        constant: i64,
    },
    /// `BITMAP_OP`.
    Bitmap {
        /// The combination operator.
        op: BitmapOp,
    },
    /// `FILTER_BITMAP` / `FILTER_POSITION`.
    Filter {
        /// Comparison.
        cmp: CmpOp,
        /// Constant (lower bound for `Between`).
        value: i64,
        /// Upper bound for `Between`.
        hi: i64,
    },
    /// `FILTER_BITMAP_COL`.
    FilterCol {
        /// Comparison.
        cmp: CmpOp,
    },
    /// `AGG_BLOCK`.
    AggBlock {
        /// Aggregate function.
        agg: AggFunc,
    },
    /// `HASH_BUILD`.
    HashBuild {
        /// Number of payload columns materialized into the table.
        payload_cols: usize,
        /// Expected entry count (table pre-sizing).
        expected: usize,
    },
    /// `HASH_PROBE`.
    HashProbe {
        /// Number of payload columns emitted.
        payload_outs: usize,
    },
    /// `HASH_AGG`.
    HashAgg {
        /// Carried payload columns.
        payload_cols: usize,
        /// Aggregate functions (one value input each).
        aggs: Vec<AggFunc>,
        /// Expected group count (table pre-sizing).
        expected_groups: usize,
    },
    /// `SORT_AGG`.
    SortAgg {
        /// Aggregate function.
        agg: AggFunc,
    },
    /// `SORT`.
    Sort {
        /// Bit `i` set = key `i` descending.
        desc_mask: u64,
    },
    /// `AGG_EXPORT`.
    AggExport {
        /// Payload columns in the table.
        payload_cols: usize,
        /// Aggregate count in the table.
        agg_count: usize,
    },
    /// `FUSED` / `FUSED_AGG` — a merged producer→consumer chain built by the
    /// fusion pass (`crate::fusion`). Stages run in order inside one kernel;
    /// interior results never get a buffer.
    Fused {
        /// The merged stages in execution order (terminal last).
        stages: Vec<FusedStageSpec>,
        /// Semantic of the terminal stage's output — what `semantic_of`
        /// reports for the fused node's port 0.
        output_semantic: DataSemantic,
    },
    /// No parameters (`MATERIALIZE`, `PREFIX_SUM`, `HASH_PROBE_SEMI`, …).
    None,
}

/// One original primitive inside a fused chain: its kind, its own decoded
/// parameters, and where each of its operands comes from.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedStageSpec {
    /// The original primitive.
    pub kind: PrimitiveKind,
    /// The original node's parameters (encoded per stage into the fused
    /// scalar program).
    pub params: Box<NodeParams>,
    /// Operand sources, positional per the original signature.
    pub operands: Vec<FusedOperand>,
    /// The original node's output port count (more than one only for a
    /// `HASH_PROBE` with payload columns, which is never a chain's last
    /// stage).
    pub outputs: usize,
}

impl NodeParams {
    /// Encodes to the scalar parameter list of `ExecuteSpec`.
    pub fn to_scalars(&self) -> Vec<i64> {
        match self {
            NodeParams::Map { op, constant } => vec![op.to_code(), *constant],
            NodeParams::Bitmap { op } => vec![op.to_code()],
            NodeParams::Filter { cmp, value, hi } => vec![cmp.to_code(), *value, *hi],
            NodeParams::FilterCol { cmp } => vec![cmp.to_code()],
            NodeParams::AggBlock { agg } => vec![agg.to_code()],
            NodeParams::HashBuild { payload_cols, .. } => vec![*payload_cols as i64],
            NodeParams::HashProbe { payload_outs } => vec![*payload_outs as i64],
            NodeParams::HashAgg {
                payload_cols, aggs, ..
            } => vec![*payload_cols as i64, aggs.len() as i64],
            NodeParams::SortAgg { agg } => vec![agg.to_code()],
            NodeParams::Sort { desc_mask } => vec![*desc_mask as i64],
            NodeParams::AggExport {
                payload_cols,
                agg_count,
            } => vec![*payload_cols as i64, *agg_count as i64],
            NodeParams::Fused { stages, .. } => {
                let wire: Vec<program::Stage> = stages
                    .iter()
                    .map(|s| program::Stage {
                        kind: s.kind,
                        operands: s.operands.clone(),
                        params: s.params.to_scalars(),
                    })
                    .collect();
                program::encode(&wire)
            }
            NodeParams::None => Vec::new(),
        }
    }
}

/// One primitive instance in the graph.
#[derive(Clone, Debug)]
pub struct PrimitiveNode {
    /// This node's id.
    pub id: NodeId,
    /// Which primitive it is.
    pub kind: PrimitiveKind,
    /// Decoded parameters.
    pub params: NodeParams,
    /// Input data refs, positional per the primitive signature.
    pub inputs: Vec<DataRef>,
    /// Number of output ports.
    pub output_count: usize,
    /// Target device annotation: the plan-time choice. Every node of a
    /// pipeline names the same device (`PipelineSet::split` rejects a graph
    /// where they differ); a run starts each pipeline there, and recovery
    /// re-places the pipeline in the run's own placement, never here.
    pub device: DeviceId,
    /// Implementation variant (`None` = default).
    pub variant: Option<String>,
    /// Display label for statistics.
    pub label: String,
}

impl PrimitiveNode {
    /// The data refs of this node's output ports, in port order.
    pub fn output_refs(&self) -> impl Iterator<Item = DataRef> {
        let node = self.id;
        (0..self.output_count).map(move |port| DataRef::Output { node, port })
    }
}

/// An external input column.
#[derive(Clone, Debug)]
pub struct GraphInput {
    /// Input name (bound at execution).
    pub name: String,
    /// The scan this column belongs to: columns of one scan stream
    /// chunk-aligned. `None` marks a small input placed wholly.
    pub scan: Option<String>,
}

/// A validated query plan over primitives.
#[derive(Clone, Debug)]
pub struct PrimitiveGraph {
    pub(crate) nodes: Vec<PrimitiveNode>,
    pub(crate) inputs: Vec<GraphInput>,
    pub(crate) outputs: Vec<(String, DataRef)>,
}

impl PrimitiveGraph {
    /// The nodes in topological (construction) order.
    pub fn nodes(&self) -> &[PrimitiveNode] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &PrimitiveNode {
        &self.nodes[id.0]
    }

    /// The external inputs.
    pub fn inputs(&self) -> &[GraphInput] {
        &self.inputs
    }

    /// The named outputs.
    pub fn outputs(&self) -> &[(String, DataRef)] {
        &self.outputs
    }

    /// The semantic carried by a data ref.
    pub fn semantic_of(&self, data: DataRef) -> DataSemantic {
        match data {
            DataRef::Input(_) => DataSemantic::Numeric,
            DataRef::Output { node, port } => {
                let n = self.node(node);
                // Fused nodes are generic at the signature level; their true
                // output semantic travels in the params.
                if let NodeParams::Fused {
                    output_semantic, ..
                } = &n.params
                {
                    return *output_semantic;
                }
                n.kind.signature().output(port)
            }
        }
    }

    /// Re-places every node onto `device` (the multi-query scheduler pins a
    /// whole query to its admitted device; recovery may still move
    /// individual pipelines afterwards).
    pub fn retarget(&mut self, device: DeviceId) {
        for node in &mut self.nodes {
            node.device = device;
        }
    }
}

/// Builder for [`PrimitiveGraph`]. Nodes may only reference earlier nodes,
/// so the construction order is a topological order by design.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<PrimitiveNode>,
    inputs: Vec<GraphInput>,
    outputs: Vec<(String, DataRef)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Declares an external input column belonging to a streamed scan.
    pub fn scan_input(&mut self, scan: impl Into<String>, name: impl Into<String>) -> DataRef {
        let idx = self.inputs.len();
        self.inputs.push(GraphInput {
            name: name.into(),
            scan: Some(scan.into()),
        });
        DataRef::Input(idx)
    }

    /// Adds a primitive node; returns refs to its output ports.
    pub fn add(
        &mut self,
        kind: PrimitiveKind,
        params: NodeParams,
        inputs: Vec<DataRef>,
        output_count: usize,
        device: DeviceId,
        label: impl Into<String>,
    ) -> Vec<DataRef> {
        self.add_variant(kind, params, inputs, output_count, device, None, label)
    }

    /// Adds a node selecting a non-default implementation variant.
    #[allow(clippy::too_many_arguments)]
    pub fn add_variant(
        &mut self,
        kind: PrimitiveKind,
        params: NodeParams,
        inputs: Vec<DataRef>,
        output_count: usize,
        device: DeviceId,
        variant: Option<String>,
        label: impl Into<String>,
    ) -> Vec<DataRef> {
        let id = NodeId(self.nodes.len());
        self.nodes.push(PrimitiveNode {
            id,
            kind,
            params,
            inputs,
            output_count,
            device,
            variant,
            label: label.into(),
        });
        (0..output_count)
            .map(|port| DataRef::Output { node: id, port })
            .collect()
    }

    /// Declares a named graph output.
    pub fn output(&mut self, name: impl Into<String>, data: DataRef) {
        self.outputs.push((name.into(), data));
    }

    /// Validates and finalizes the graph.
    ///
    /// Checks: refs point to existing inputs/earlier nodes; input semantics
    /// satisfy each primitive's signature; output counts are sane; at least
    /// one output is declared.
    pub fn build(self) -> Result<PrimitiveGraph> {
        let graph = PrimitiveGraph {
            nodes: self.nodes,
            inputs: self.inputs,
            outputs: self.outputs,
        };
        if graph.outputs.is_empty() {
            return Err(ExecError::InvalidGraph("graph declares no outputs".into()));
        }
        let check_ref = |r: DataRef, at: &str| -> Result<()> {
            match r {
                DataRef::Input(i) if i >= graph.inputs.len() => Err(ExecError::InvalidGraph(
                    format!("{at} references nonexistent input #{i}"),
                )),
                DataRef::Output { node, port } => {
                    if node.0 >= graph.nodes.len() {
                        return Err(ExecError::InvalidGraph(format!(
                            "{at} references nonexistent node {node:?}"
                        )));
                    }
                    if port >= graph.nodes[node.0].output_count {
                        return Err(ExecError::InvalidGraph(format!(
                            "{at} references port {port} of node {node:?} which has {} ports",
                            graph.nodes[node.0].output_count
                        )));
                    }
                    Ok(())
                }
                _ => Ok(()),
            }
        };
        for node in &graph.nodes {
            for &input in &node.inputs {
                check_ref(input, &format!("node `{}`", node.label))?;
                if let DataRef::Output { node: src, .. } = input {
                    if src.0 >= node.id.0 {
                        return Err(ExecError::InvalidGraph(format!(
                            "node `{}` references a later or same node (cycle)",
                            node.label
                        )));
                    }
                }
            }
            let actual: Vec<DataSemantic> =
                node.inputs.iter().map(|&r| graph.semantic_of(r)).collect();
            if !node.kind.accepts_inputs(&actual) {
                return Err(ExecError::InvalidGraph(format!(
                    "node `{}` ({}) rejects input semantics {actual:?}",
                    node.label, node.kind
                )));
            }
            let sig = node.kind.signature();
            if node.output_count < sig.outputs.len() && !sig.variadic_outputs {
                return Err(ExecError::InvalidGraph(format!(
                    "node `{}` declares {} outputs, signature needs {}",
                    node.label,
                    node.output_count,
                    sig.outputs.len()
                )));
            }
        }
        for (name, r) in &graph.outputs {
            check_ref(*r, &format!("output `{name}`"))?;
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceId {
        DeviceId(0)
    }

    #[test]
    fn build_simple_graph() {
        let mut b = GraphBuilder::new();
        let col = b.scan_input("t", "x");
        let bm = b.add(
            PrimitiveKind::FilterBitmap,
            NodeParams::Filter {
                cmp: CmpOp::Lt,
                value: 10,
                hi: 0,
            },
            vec![col],
            1,
            dev(),
            "filter",
        );
        let vals = b.add(
            PrimitiveKind::Materialize,
            NodeParams::None,
            vec![col, bm[0]],
            1,
            dev(),
            "mat",
        );
        b.output("result", vals[0]);
        let g = b.build().unwrap();
        assert_eq!(g.nodes().len(), 2);
        assert_eq!(g.semantic_of(bm[0]), DataSemantic::Bitmap);
        assert_eq!(g.semantic_of(vals[0]), DataSemantic::Numeric);
        assert_eq!(g.semantic_of(col), DataSemantic::Numeric);
    }

    #[test]
    fn rejects_no_outputs() {
        let b = GraphBuilder::new();
        assert!(matches!(b.build(), Err(ExecError::InvalidGraph(_))));
    }

    #[test]
    fn rejects_bad_semantics() {
        let mut b = GraphBuilder::new();
        let col = b.scan_input("t", "x");
        let bm = b.add(
            PrimitiveKind::FilterBitmap,
            NodeParams::Filter {
                cmp: CmpOp::Lt,
                value: 1,
                hi: 0,
            },
            vec![col],
            1,
            dev(),
            "f",
        );
        // MaterializePosition expects POSITION, we give BITMAP.
        let m = b.add(
            PrimitiveKind::MaterializePosition,
            NodeParams::None,
            vec![col, bm[0]],
            1,
            dev(),
            "bad",
        );
        b.output("r", m[0]);
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_dangling_refs() {
        let mut b = GraphBuilder::new();
        let col = b.scan_input("t", "x");
        let m = b.add(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: MapOp::AddConst,
                constant: 1,
            },
            vec![col],
            1,
            dev(),
            "m",
        );
        b.output("r", m[0]);
        b.output("bad", DataRef::Input(7));
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_bad_port() {
        let mut b = GraphBuilder::new();
        let col = b.scan_input("t", "x");
        let m = b.add(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: MapOp::AddConst,
                constant: 1,
            },
            vec![col],
            1,
            dev(),
            "m",
        );
        b.output("r", m[0]);
        b.output(
            "bad",
            DataRef::Output {
                node: NodeId(0),
                port: 5,
            },
        );
        assert!(b.build().is_err());
    }

    #[test]
    fn params_encode() {
        assert_eq!(
            NodeParams::Filter {
                cmp: CmpOp::Between,
                value: 3,
                hi: 9
            }
            .to_scalars(),
            vec![CmpOp::Between.to_code(), 3, 9]
        );
        assert_eq!(
            NodeParams::HashAgg {
                payload_cols: 2,
                aggs: vec![AggFunc::Sum, AggFunc::Count],
                expected_groups: 10
            }
            .to_scalars(),
            vec![2, 2]
        );
        assert_eq!(NodeParams::None.to_scalars(), Vec::<i64>::new());
    }
}
