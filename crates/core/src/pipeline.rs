//! Pipeline splitting.
//!
//! ADAMANT "is aware of pipeline breakers and materializes their
//! intermediate results into the device memory. These pipeline breakers mark
//! the end of a query pipeline." (§III-B2). The runtime splits the primitive
//! graph into pipelines and treats each as an execution group.
//!
//! A *streaming* pipeline consumes one scan's columns chunk-wise; a
//! *full-buffer* pipeline (e.g. the post-aggregation ORDER BY stage)
//! consumes only materialized data and runs once on whole buffers.
//!
//! Every node of a pipeline names the same device: the pipeline is the unit
//! of placement. The annotation is where a run *starts*; recovery re-places
//! whole pipelines in the run's own placement and never edits the graph.

use crate::error::{ExecError, Result};
use crate::graph::{DataRef, NodeId, PrimitiveGraph};

/// One pipeline: an execution group of primitives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pipeline {
    /// Pipeline index in execution order.
    pub index: usize,
    /// The scan streamed through this pipeline (`None` = full-buffer).
    pub scan: Option<String>,
    /// Member nodes in topological order.
    pub nodes: Vec<NodeId>,
}

impl Pipeline {
    /// Whether this pipeline streams chunks (vs. a single full pass).
    pub fn is_streaming(&self) -> bool {
        self.scan.is_some()
    }
}

/// The pipelines of a graph, in execution order.
#[derive(Clone, Debug)]
pub struct PipelineSet {
    /// Pipelines in execution order.
    pub pipelines: Vec<Pipeline>,
    /// `node_pipeline[node] = pipeline index`.
    pub node_pipeline: Vec<usize>,
}

impl PipelineSet {
    /// Splits a graph into pipelines.
    ///
    /// Walking nodes in topological order, each node joins the open
    /// pipeline of the scan it streams; pipeline breakers close their
    /// pipeline. Nodes whose every input is materialized (external
    /// whole-inputs, breaker outputs, outputs of already-closed pipelines)
    /// join the open full-buffer pipeline.
    ///
    /// Fails with [`ExecError::InvalidGraph`] when a node streams two scans
    /// or joins a pipeline whose nodes are annotated with another device.
    pub fn split(graph: &PrimitiveGraph) -> Result<PipelineSet> {
        let mut pipelines: Vec<Pipeline> = Vec::new();
        let mut node_pipeline: Vec<usize> = Vec::with_capacity(graph.nodes().len());
        // Open pipeline per scan name; open full-buffer pipeline.
        let mut open: std::collections::BTreeMap<String, usize> = Default::default();
        let mut open_full: Option<usize> = None;

        for node in graph.nodes() {
            // Determine the streaming source of this node, if any.
            let mut stream_scan: Option<String> = None;
            for &input in &node.inputs {
                let contrib = match input {
                    DataRef::Input(i) => graph.inputs()[i].scan.clone(),
                    DataRef::Output { node: src, .. } => {
                        let src_node = graph.node(src);
                        if src_node.kind.is_pipeline_breaker() {
                            None // materialized
                        } else {
                            // Streams if its pipeline is still open.
                            let pidx = node_pipeline[src.0];
                            let p = &pipelines[pidx];
                            if open.values().any(|&v| v == pidx) || open_full == Some(pidx) {
                                p.scan.clone()
                            } else {
                                None
                            }
                        }
                    }
                };
                if let Some(scan) = contrib {
                    match &stream_scan {
                        None => stream_scan = Some(scan),
                        Some(existing) if *existing == scan => {}
                        Some(existing) => {
                            return Err(ExecError::InvalidGraph(format!(
                                "node `{}` streams two scans at once: `{existing}` and `{scan}`",
                                node.label
                            )))
                        }
                    }
                }
            }

            let pidx = match &stream_scan {
                Some(scan) => *open.entry(scan.clone()).or_insert_with(|| {
                    pipelines.push(Pipeline {
                        index: pipelines.len(),
                        scan: Some(scan.clone()),
                        nodes: Vec::new(),
                    });
                    pipelines.len() - 1
                }),
                None => match open_full {
                    Some(p) => p,
                    None => {
                        pipelines.push(Pipeline {
                            index: pipelines.len(),
                            scan: None,
                            nodes: Vec::new(),
                        });
                        open_full = Some(pipelines.len() - 1);
                        pipelines.len() - 1
                    }
                },
            };
            if let Some(&head) = pipelines[pidx].nodes.first() {
                let head = graph.node(head);
                if head.device != node.device {
                    let what = match &pipelines[pidx].scan {
                        Some(scan) => format!("the pipeline over scan `{scan}`"),
                        None => "the full-buffer pipeline".to_string(),
                    };
                    return Err(ExecError::InvalidGraph(format!(
                        "{what} places `{}` on {} and `{}` on {}: a pipeline runs on one device",
                        head.label, head.device, node.label, node.device
                    )));
                }
            }
            pipelines[pidx].nodes.push(node.id);
            node_pipeline.push(pidx);

            if node.kind.is_pipeline_breaker() {
                // Close the pipeline this node belongs to.
                if let Some(scan) = &stream_scan {
                    open.remove(scan);
                } else if open_full == Some(pidx) {
                    open_full = None;
                }
            }
        }
        Ok(PipelineSet {
            pipelines,
            node_pipeline,
        })
    }

    /// Number of pipelines.
    pub fn len(&self) -> usize {
        self.pipelines.len()
    }

    /// True when the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, NodeParams};
    use adamant_device::device::DeviceId;
    use adamant_task::params::{AggFunc, CmpOp};
    use adamant_task::primitive::PrimitiveKind;

    fn dev() -> DeviceId {
        DeviceId(0)
    }

    #[test]
    fn single_pipeline_q6_shape() {
        // filter -> materialize -> agg_block: one streaming pipeline.
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
        let g = b.build().unwrap();
        let ps = PipelineSet::split(&g).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.pipelines[0].scan.as_deref(), Some("lineitem"));
        assert_eq!(ps.pipelines[0].nodes.len(), 3);
        assert!(ps.pipelines[0].is_streaming());
    }

    #[test]
    fn join_shape_two_pipelines_plus_post() {
        // build-side pipeline, probe-side pipeline, post stage.
        let mut b = GraphBuilder::new();
        let ck = b.scan_input("customer", "c_custkey");
        let ht = b.add(
            PrimitiveKind::HashBuild,
            NodeParams::HashBuild {
                payload_cols: 0,
                expected: 100,
            },
            vec![ck],
            1,
            dev(),
            "build",
        );
        let ok = b.scan_input("orders", "o_custkey");
        let probe = b.add(
            PrimitiveKind::HashProbeSemi,
            NodeParams::None,
            vec![ok, ht[0]],
            1,
            dev(),
            "semi",
        );
        let mat = b.add(
            PrimitiveKind::Materialize,
            NodeParams::None,
            vec![ok, probe[0]],
            1,
            dev(),
            "mat",
        );
        let agg = b.add(
            PrimitiveKind::HashAgg,
            NodeParams::HashAgg {
                payload_cols: 0,
                aggs: vec![AggFunc::Count],
                expected_groups: 8,
            },
            vec![mat[0], mat[0]],
            1,
            dev(),
            "agg",
        );
        let exported = b.add(
            PrimitiveKind::AggExport,
            NodeParams::AggExport {
                payload_cols: 0,
                agg_count: 1,
            },
            vec![agg[0]],
            2,
            dev(),
            "export",
        );
        b.output("keys", exported[0]);
        b.output("counts", exported[1]);
        let g = b.build().unwrap();
        let ps = PipelineSet::split(&g).unwrap();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps.pipelines[0].scan.as_deref(), Some("customer"));
        assert_eq!(ps.pipelines[1].scan.as_deref(), Some("orders"));
        assert_eq!(ps.pipelines[2].scan, None);
        assert!(!ps.pipelines[2].is_streaming());
        // The export node is in the full-buffer pipeline.
        assert_eq!(ps.node_pipeline[4], 2);
    }

    #[test]
    fn breaker_closes_then_new_pipeline_same_scan() {
        // Two consecutive aggregations over the same scan re-open it.
        let mut b = GraphBuilder::new();
        let x = b.scan_input("t", "x");
        let a1 = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![x],
            1,
            dev(),
            "sum1",
        );
        let a2 = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Max },
            vec![x],
            1,
            dev(),
            "max",
        );
        b.output("s", a1[0]);
        b.output("m", a2[0]);
        let g = b.build().unwrap();
        let ps = PipelineSet::split(&g).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.pipelines[0].scan.as_deref(), Some("t"));
        assert_eq!(ps.pipelines[1].scan.as_deref(), Some("t"));
    }

    #[test]
    fn rejects_two_streams_into_one_node() {
        let mut b = GraphBuilder::new();
        let a = b.scan_input("t1", "a");
        let c = b.scan_input("t2", "c");
        let m = b.add(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: adamant_task::params::MapOp::Add,
                constant: 0,
            },
            vec![a, c],
            1,
            dev(),
            "bad",
        );
        b.output("r", m[0]);
        let g = b.build().unwrap();
        assert!(PipelineSet::split(&g).is_err());
    }

    /// `map` on device 0 feeding `sum` on device 1 over one scan.
    fn two_device_stream() -> PrimitiveGraph {
        let mut b = GraphBuilder::new();
        let x = b.scan_input("t", "x");
        let m = b.add(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: adamant_task::params::MapOp::MulConst,
                constant: 2,
            },
            vec![x],
            1,
            DeviceId(0),
            "map",
        );
        let s = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![m[0]],
            1,
            DeviceId(1),
            "sum",
        );
        b.output("s", s[0]);
        b.build().unwrap()
    }

    #[test]
    fn rejects_a_streaming_pipeline_on_two_devices() {
        let err = PipelineSet::split(&two_device_stream()).unwrap_err();
        let ExecError::InvalidGraph(msg) = err else {
            panic!("expected InvalidGraph, got {err:?}");
        };
        assert!(msg.contains("scan `t`"), "{msg}");
        assert!(
            msg.contains("`map` on dev#0") && msg.contains("`sum` on dev#1"),
            "{msg}"
        );
    }

    #[test]
    fn rejects_a_full_buffer_pipeline_on_two_devices() {
        // The sum closes the scan's pipeline; the map and the max read its
        // materialized result, so they share the full-buffer pipeline.
        let mut b = GraphBuilder::new();
        let x = b.scan_input("t", "x");
        let s = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![x],
            1,
            DeviceId(0),
            "sum",
        );
        let m = b.add(
            PrimitiveKind::Map,
            NodeParams::Map {
                op: adamant_task::params::MapOp::MulConst,
                constant: 2,
            },
            vec![s[0]],
            1,
            DeviceId(0),
            "map",
        );
        let mx = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Max },
            vec![m[0]],
            1,
            DeviceId(1),
            "max",
        );
        b.output("m", mx[0]);
        let err = PipelineSet::split(&b.build().unwrap()).unwrap_err();
        let ExecError::InvalidGraph(msg) = err else {
            panic!("expected InvalidGraph, got {err:?}");
        };
        assert!(msg.contains("full-buffer pipeline"), "{msg}");
        assert!(
            msg.contains("`map` on dev#0") && msg.contains("`max` on dev#1"),
            "{msg}"
        );
    }
}
