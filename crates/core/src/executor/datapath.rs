//! The data path: given a pipeline's device and a chunk size, drive the
//! pipeline and leave cost events on the device clocks.
//!
//! The device is the run's, not the graph's: every node execution finds it
//! in its [`NodeIo`] — the pipeline's entry of the run's placement, or the
//! alternate a hedged duplicate runs on — so the graph is only ever read.
//!
//! Nothing here decides policy or inspects an error — a failure is passed
//! up untouched, and the two per-chunk decisions that are policy (hedge a
//! straggler, take a checkpoint) are single calls into the recovery role.
//! One node-wiring routine ([`Executor::wire_node`]) serves whole-mode
//! nodes, streamed chunks and hedged duplicates; one chunk-loop body
//! ([`Executor::stream_chunk`]) is fed by one chunk source, the
//! [`ChunkSlicer`], under every chunked model.

use super::accounting::{Charge, ChunkOutcome, StreamCosts};
use super::recovery::ResumeCursor;
use super::{Executor, RunCx};
use crate::error::{ExecError, Result};
use crate::graph::{DataRef, NodeParams, PrimitiveGraph, PrimitiveNode};
use crate::pipeline::Pipeline;
use crate::result::QueryOutput;
use crate::timeline::ChunkCost;
use adamant_device::buffer::{BufferData, BufferId};
use adamant_device::device::DeviceId;
use adamant_device::kernel::ExecuteSpec;
use adamant_task::container::DataContainer;
use adamant_task::primitive::PrimitiveKind;
use std::collections::HashMap;

/// One row range of the pipeline's scan columns on its way to the devices.
/// It owns no rows: whoever stages it hands the device a view of
/// `[offset, offset + len)` of the bound columns, so staging a chunk copies
/// no rows on the host.
#[derive(Clone, Copy)]
pub(super) struct Chunk {
    pub index: usize,
    pub offset: usize,
    pub len: usize,
}

/// The chunk source: cuts the scan's rows into `chunk_rows`-row chunks,
/// starting at the cursor's offset.
struct ChunkSlicer {
    chunk_rows: usize,
    rows: usize,
    index: usize,
    offset: usize,
}

impl Iterator for ChunkSlicer {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        if self.offset >= self.rows {
            return None;
        }
        let (index, offset) = (self.index, self.offset);
        let len = self.chunk_rows.min(self.rows - offset);
        self.index += 1;
        self.offset += len;
        Some(Chunk { index, offset, len })
    }
}

/// What [`Executor::wire_node`] does about an output port that has no
/// pipeline-local buffer.
#[derive(Clone, Copy)]
enum Outputs {
    /// Whole mode: materialize at input cardinality and publish as resident.
    Publish,
    /// Streamed chunk: the stage phase made every breaker accumulator
    /// resident up front; a gap is a bug.
    Staged,
    /// Hedged duplicate: materialize privately — nothing the mirror writes
    /// may become visible to the primary.
    Sandbox,
}

/// Where one node execution runs and finds its buffers.
struct NodeIo<'a> {
    /// The device every node of this execution runs on.
    device: DeviceId,
    /// The scan this execution streams (`None`: every input placed whole).
    scan: Option<&'a str>,
    /// This chunk's staged scan columns, by graph input index.
    staged: &'a HashMap<usize, BufferId>,
    /// Output buffers private to the pipeline: stream scratch, or the
    /// hedge sandbox.
    local: &'a mut HashMap<DataRef, BufferId>,
    outputs: Outputs,
}

/// Per-attempt state of one streaming pipeline.
struct Stream<'a> {
    scan: &'a str,
    /// Graph input indexes of the scan columns the pipeline streams.
    cols: Vec<usize>,
    /// The device the pipeline runs on in this attempt.
    device: DeviceId,
    slots: usize,
    /// Staging buffers per `(scan input, slot)`.
    staging: HashMap<(usize, usize), BufferId>,
    /// Non-breaker outputs, reused across chunks when staged once.
    scratch: HashMap<DataRef, BufferId>,
    costs: StreamCosts,
}

/// Graph input indexes of the columns `pipeline` streams from its scan, in
/// first-use order.
fn scan_columns(graph: &PrimitiveGraph, pipeline: &Pipeline) -> Vec<usize> {
    let mut cols = Vec::new();
    if pipeline.scan.is_none() {
        return cols;
    }
    for &node_id in &pipeline.nodes {
        for &input in &graph.node(node_id).inputs {
            if let DataRef::Input(i) = input {
                if graph.inputs()[i].scan == pipeline.scan && !cols.contains(&i) {
                    cols.push(i);
                }
            }
        }
    }
    cols
}

/// The first primitive of the pipeline that must see its scan in a single
/// chunk, if any.
pub(super) fn order_sensitive_kind(
    graph: &PrimitiveGraph,
    pipeline: &Pipeline,
) -> Option<PrimitiveKind> {
    pipeline
        .nodes
        .iter()
        .map(|&n| graph.node(n).kind)
        .find(|kind| {
            matches!(
                kind,
                PrimitiveKind::Sort | PrimitiveKind::SortAgg | PrimitiveKind::PrefixSum
            )
        })
}

impl Executor {
    /// Runs one attempt of `pipeline`: streamed from the cursor's offset
    /// under the chunked models, node by node over whole buffers otherwise.
    pub(super) fn run_pipeline(
        &mut self,
        cx: &mut RunCx<'_>,
        pipeline: &Pipeline,
        chunk_rows: usize,
        cursor: &ResumeCursor,
    ) -> Result<()> {
        if pipeline.is_streaming() && cx.cfg.chunked {
            self.run_streaming(cx, pipeline, chunk_rows, cursor)
        } else {
            self.run_whole(cx, pipeline)
        }
    }

    // ---- whole-input execution (OAAT and full-buffer pipelines) ---------

    fn run_whole(&mut self, cx: &mut RunCx<'_>, pipeline: &Pipeline) -> Result<()> {
        let graph = cx.graph;
        let device = cx.placement[pipeline.index];
        let (staged, mut local) = (HashMap::new(), HashMap::new());
        let mut io = NodeIo {
            device,
            scan: None,
            staged: &staged,
            local: &mut local,
            outputs: Outputs::Publish,
        };
        for &node_id in &pipeline.nodes {
            cx.check_deadline(cx.tally.elapsed_ns())?;
            let node = graph.node(node_id);
            self.run_node(cx, node, &mut io, None)?;
            let used = self.devices.get(device)?.pool().used();
            cx.tally.stats.memory_trace.push((node.label.clone(), used));
        }
        Ok(())
    }

    // ---- streaming (chunked) execution -----------------------------------

    fn run_streaming(
        &mut self,
        cx: &mut RunCx<'_>,
        pipeline: &Pipeline,
        chunk_rows: usize,
        cursor: &ResumeCursor,
    ) -> Result<()> {
        let scan = pipeline
            .scan
            .as_deref()
            .expect("streaming pipeline has a scan");
        // Every chunk of the attempt has `chunk_rows` rows (the last one
        // fewer), so each fits the staging buffers sized below.
        let chunk_rows = chunk_rows.max(1);
        let graph = cx.graph;
        let device = cx.placement[pipeline.index];

        // The scan columns this pipeline streams, and their length.
        let cols = scan_columns(graph, pipeline);
        let rows = cols.first().map_or(0, |&i| {
            let name = &graph.inputs()[i].name;
            cx.inputs.get(name).expect("validated").len()
        });
        let n_chunks = rows.div_ceil(chunk_rows);
        if n_chunks > 1 {
            if let Some(kind) = order_sensitive_kind(graph, pipeline) {
                return Err(ExecError::InvalidGraph(format!(
                    "{kind} is order-sensitive and cannot run in a multi-chunk \
                     streaming pipeline; materialize its input first"
                )));
            }
        }

        // ---- Stage phase -------------------------------------------------
        let mut stream = Stream {
            scan,
            cols,
            device,
            slots: if cx.cfg.stage_once {
                cx.cfg.staging_buffers
            } else {
                1
            },
            staging: HashMap::new(),
            scratch: HashMap::new(),
            costs: StreamCosts::default(),
        };
        let staged_rows = chunk_rows.min(rows.max(1));
        let chunk_bytes = (staged_rows * 8) as u64;
        for &input_idx in &stream.cols {
            for slot in 0..stream.slots {
                let id = cx.hub.fresh_id();
                let dev = self.devices.get_mut(device)?;
                if cx.cfg.pinned {
                    dev.add_pinned_memory(id, chunk_bytes)?;
                } else {
                    dev.prepare_memory(id, chunk_bytes)?;
                }
                cx.hub.track_created(device, id);
                stream.staging.insert((input_idx, slot), id);
            }
        }
        // Scratch outputs (non-breaker) and accumulators (breaker outputs).
        for &node_id in &pipeline.nodes {
            let node = graph.node(node_id);
            for (port, r) in node.output_refs().enumerate() {
                if node.kind.is_pipeline_breaker() {
                    let id = self.alloc_output(cx, node, device, port, rows)?;
                    cx.hub.register_resident(r, device, id);
                    // Checkpoint resume: seed the fresh accumulator with the
                    // snapshot's partial state. Seeding happens per attempt
                    // (the accumulator is created after the recovery mark),
                    // so a retry rolls the in-place chunk mutations back and
                    // re-seeds cleanly — chunks past the cursor's offset are
                    // never double-counted.
                    if let Some(seed) = cursor.seed_for(r) {
                        cx.hub
                            .place_verified(&mut self.devices, device, id, seed, 0)?;
                    }
                } else if cx.cfg.stage_once {
                    let id = self.alloc_output(cx, node, device, port, staged_rows)?;
                    stream.scratch.insert(r, id);
                }
            }
        }
        cx.tally.fold_serial(&mut self.devices, &[device])?;

        // ---- Copy-compute phase -------------------------------------------
        // Rows below the cursor's offset are already host-accumulated (and
        // folded into the seeded accumulators); a restart's cursor is empty.
        // One host thread under every model: the overlap Algorithm 2 is
        // about is computed on the modeled timeline
        // (`timeline::overlapped_makespan`, DESIGN.md §4).
        let source = ChunkSlicer {
            chunk_rows,
            rows,
            index: 0,
            offset: cursor.resume_offset.min(rows),
        };
        for chunk in source {
            self.stream_chunk(cx, pipeline, &mut stream, &chunk)?;
        }
        // Escaped scratch refs that never saw a chunk (empty scans) still
        // need an (empty) host accumulation for downstream consumers.
        for &node_id in &pipeline.nodes {
            let node = graph.node(node_id);
            if node.kind.is_pipeline_breaker() {
                continue;
            }
            for r in node.output_refs() {
                if cx.escaping.contains(&r) && !cx.hub.has_host(r) {
                    let semantic = graph.semantic_of(r);
                    let empty = DataContainer::empty_payload(semantic);
                    cx.hub.host_accumulate(r, semantic, empty, 0, 0)?;
                }
            }
        }
        cx.tally.close_stream(stream.costs, cx.cfg);

        // ---- Per-pipeline delete phase ------------------------------------
        // Free staging, then scratch; breaker accumulators stay resident for
        // downstream pipelines. These buffers are expected to exist, so
        // failures are real leaks and surface as errors; `release` also
        // untracks the ids so the final `delete_all` sweep cannot
        // double-delete them.
        let mut staging_ids: Vec<BufferId> = stream.staging.into_values().collect();
        staging_ids.sort_unstable();
        let mut scratch_ids: Vec<BufferId> = stream.scratch.into_values().collect();
        scratch_ids.sort_unstable();
        for id in staging_ids.into_iter().chain(scratch_ids) {
            cx.hub.release(&mut self.devices, device, id)?;
        }
        cx.tally.fold_serial(&mut self.devices, &[device])
    }

    /// The chunk-loop body (Algorithms 1 and 2 share it): run the chunk,
    /// let the recovery role supervise it, record its cost.
    fn stream_chunk(
        &mut self,
        cx: &mut RunCx<'_>,
        pipeline: &Pipeline,
        stream: &mut Stream<'_>,
        chunk: &Chunk,
    ) -> Result<()> {
        cx.check_deadline(cx.tally.elapsed_ns() + stream.costs.streamed_ns)?;
        let outcome = self.run_chunk(cx, pipeline, stream, chunk)?;
        let (cost, charged_ns) = self.supervise_chunk(cx, pipeline, outcome, chunk);
        stream.costs.push(cost, charged_ns);
        // Host accumulations and the breaker accumulators consistently
        // reflect rows `[0, offset + len)` right here.
        self.chunk_boundary(cx, chunk.offset + chunk.len)
    }

    /// Processes one chunk through every primitive of the pipeline
    /// (Algorithm 1's inner loop).
    fn run_chunk(
        &mut self,
        cx: &mut RunCx<'_>,
        pipeline: &Pipeline,
        stream: &mut Stream<'_>,
        chunk: &Chunk,
    ) -> Result<ChunkOutcome> {
        let mut out = ChunkOutcome::default();
        let slot = chunk.index % stream.slots;
        let (graph, device) = (cx.graph, stream.device);

        // Upload this chunk into the pipeline device's staging buffers,
        // verifying each transfer's checksum end-to-end. The device stores
        // a view of the bound column's rows, copied only if something writes
        // it, and the sender checksum of a chunk on the block grid is folded
        // from the column's memo.
        let mut staged: HashMap<usize, BufferId> = HashMap::new();
        for &input_idx in &stream.cols {
            let name = &graph.inputs()[input_idx].name;
            let col = cx.inputs.bound(name).expect("validated");
            let id = stream.staging[&(input_idx, slot)];
            // A residency pin of the scan column serves the chunk with a
            // device-internal `create_chunk` (charged as a device copy) instead
            // of a fresh host→device upload; otherwise fall back to the
            // verified transfer path.
            let from_cache = cx.hub.stage_chunk_from_cache(
                &mut self.devices,
                device,
                id,
                name,
                col,
                chunk.offset,
                chunk.len,
            )?;
            if !from_cache {
                let rows = col.range(chunk.offset..chunk.offset + chunk.len);
                cx.hub
                    .place_verified(&mut self.devices, device, id, rows, 0)?;
            }
            staged.insert(input_idx, id);
            cx.tally
                .fold(&mut self.devices, device, Charge::Chunk(&mut out))?;
        }

        // Per-chunk scratch allocation for the naive chunked model
        // (Algorithm 1 calls prepare_memory inside the loop).
        let mut chunk_scratch: Vec<(DataRef, BufferId)> = Vec::new();
        if !cx.cfg.stage_once {
            for &node_id in &pipeline.nodes {
                let node = graph.node(node_id);
                if node.kind.is_pipeline_breaker() {
                    continue;
                }
                for (port, r) in node.output_refs().enumerate() {
                    let id = self.alloc_output(cx, node, device, port, chunk.len)?;
                    stream.scratch.insert(r, id);
                    chunk_scratch.push((r, id));
                }
                cx.tally
                    .fold(&mut self.devices, device, Charge::Chunk(&mut out))?;
            }
        }

        // Execute the pipeline's primitives over this chunk.
        let mut io = NodeIo {
            device,
            scan: Some(stream.scan),
            staged: &staged,
            local: &mut stream.scratch,
            outputs: Outputs::Staged,
        };
        for &node_id in &pipeline.nodes {
            let node = graph.node(node_id);
            self.run_node(cx, node, &mut io, Some((chunk.len, &mut out)))?;
            if node.kind.is_pipeline_breaker() {
                continue;
            }
            // Escaped scratch: pull this chunk's result back to the host
            // through the checksum-verified path.
            for r in node.output_refs() {
                if !cx.escaping.contains(&r) {
                    continue;
                }
                let id = io.local[&r];
                let payload = cx
                    .hub
                    .retrieve_verified(&mut self.devices, device, id, None, 0)?;
                let semantic = graph.semantic_of(r);
                cx.hub
                    .host_accumulate(r, semantic, payload, chunk.offset, chunk.len)?;
                cx.tally
                    .fold(&mut self.devices, device, Charge::Chunk(&mut out))?;
            }
        }

        // Naive chunked model frees its per-chunk scratch again. Going
        // through `release` untracks the ids, so the final sweep never sees
        // (and double-deletes) buffers that died inside the chunk loop.
        for (r, id) in chunk_scratch {
            cx.hub.release(&mut self.devices, device, id)?;
            stream.scratch.remove(&r);
            cx.tally
                .fold(&mut self.devices, device, Charge::Chunk(&mut out))?;
        }
        Ok(out)
    }

    /// Runs a hedged duplicate of one chunk on `alt`, sandboxed: temporary
    /// staging, fresh output buffers, nothing registered as resident, and
    /// every allocation rolled back before returning — the primary's
    /// committed data is untouched whether the hedge wins or loses.
    ///
    /// Mirrors the device-side work of the chunk (staging uploads, scratch,
    /// kernels); host accumulation of escaped outputs stays with the
    /// primary, and the duplicate's fused saving and intermediate bytes are
    /// not the query's. Returns the duplicate's modeled cost for the race.
    pub(super) fn mirror_chunk(
        &mut self,
        cx: &mut RunCx<'_>,
        pipeline: &Pipeline,
        alt: DeviceId,
        chunk: &Chunk,
    ) -> Result<ChunkCost> {
        let mark = cx.hub.mark();
        let graph = cx.graph;
        let result = (|| -> Result<()> {
            // Stage the scan chunk on the hedge device (verified, like the
            // primary's uploads).
            let mut staged: HashMap<usize, BufferId> = HashMap::new();
            for input_idx in scan_columns(graph, pipeline) {
                let name = &graph.inputs()[input_idx].name;
                let col = cx.inputs.bound(name).expect("validated");
                let id = cx.hub.fresh_id();
                self.devices
                    .get_mut(alt)?
                    .prepare_memory(id, (chunk.len.max(1) * 8) as u64)?;
                cx.hub.track_created(alt, id);
                let rows = col.range(chunk.offset..chunk.offset + chunk.len);
                cx.hub.place_verified(&mut self.devices, alt, id, rows, 0)?;
                staged.insert(input_idx, id);
            }
            let mut sandbox = HashMap::new();
            let mut io = NodeIo {
                device: alt,
                scan: pipeline.scan.as_deref(),
                staged: &staged,
                local: &mut sandbox,
                outputs: Outputs::Sandbox,
            };
            for &node_id in &pipeline.nodes {
                let node = graph.node(node_id);
                let (in_ids, out_ids, _) = self.wire_node(cx, node, &mut io, Some(chunk.len))?;
                self.execute_node(node, &cx.scalars[node_id.0], alt, &in_ids, &out_ids)?;
            }
            Ok(())
        })();
        // Everything the mirror burned — on the hedge device and on any
        // source device the router read from — is the duplicate's cost,
        // billed to the stats lanes like all other work.
        let mut hedge = ChunkOutcome::default();
        for dev_id in self.devices.ids() {
            cx.tally
                .fold(&mut self.devices, dev_id, Charge::Chunk(&mut hedge))?;
        }
        // Winner or loser, the duplicate's allocations are reclaimed (and
        // its residency entries dropped); the reclaim itself is billed like
        // any unwind.
        cx.hub.rollback_to(&mut self.devices, mark);
        cx.tally.fold_all(&mut self.devices);
        result.map(|()| hedge.cost)
    }

    // ---- one node ---------------------------------------------------------

    /// Wires and launches one node on `io.device`, then folds its events: as
    /// part of `chunk` when streaming, as a serial slice of its own in whole
    /// mode (where staging the operands is serial time outside the slice).
    fn run_node(
        &mut self,
        cx: &mut RunCx<'_>,
        node: &PrimitiveNode,
        io: &mut NodeIo<'_>,
        chunk: Option<(usize, &mut ChunkOutcome)>,
    ) -> Result<()> {
        let device = io.device;
        let (in_ids, out_ids, rows) = self.wire_node(cx, node, io, chunk.as_ref().map(|c| c.0))?;
        let charge = match chunk {
            Some((_, outcome)) => Charge::Chunk(outcome),
            None => {
                cx.tally.fold_serial(&mut self.devices, &[device])?;
                Charge::Slice
            }
        };
        let streaming = matches!(charge, Charge::Chunk(_));
        let scalars = &cx.scalars[node.id.0];
        let (saved_ns, stage_rows) = self.execute_node(node, scalars, device, &in_ids, &out_ids)?;
        cx.tally.stats.fusion_saved_transfer_ns += saved_ns;
        let stage_rows = (!streaming).then_some(stage_rows.as_slice());
        cx.tally
            .note_intermediates(cx.graph, node, rows, stage_rows);
        let kernel_ns = cx.tally.fold(&mut self.devices, device, charge)?;
        cx.tally.stats.record_primitive(&node.label, kernel_ns);
        Ok(())
    }

    /// Resolves a node's operand and result buffers on `io.device`:
    /// streamed scan inputs from this chunk's staging, other inputs placed
    /// whole (once; later chunks reuse them through the residency map),
    /// pipeline-local intermediates from `io.local`, everything else routed
    /// from wherever it is materialized. Returns `(inputs, outputs, rows)`
    /// where `rows` is the given cardinality or, when `None`, the largest
    /// input's.
    fn wire_node(
        &mut self,
        cx: &mut RunCx<'_>,
        node: &PrimitiveNode,
        io: &mut NodeIo<'_>,
        rows: Option<usize>,
    ) -> Result<(Vec<BufferId>, Vec<BufferId>, usize)> {
        let device = io.device;
        let mut in_ids = Vec::with_capacity(node.inputs.len());
        let mut widest = 0usize;
        for &input in &node.inputs {
            let id = match input {
                DataRef::Input(i) => {
                    let gi = &cx.graph.inputs()[i];
                    if io.scan.is_some() && gi.scan.as_deref() == io.scan {
                        *io.staged.get(&i).ok_or_else(|| {
                            ExecError::Internal(format!(
                                "no staged chunk for input #{i} on {device}"
                            ))
                        })?
                    } else {
                        let col = cx
                            .inputs
                            .bound(&gi.name)
                            .ok_or_else(|| ExecError::MissingInput(gi.name.clone()))?;
                        cx.hub
                            .load_bound_input(&mut self.devices, input, device, &gi.name, col)?
                    }
                }
                DataRef::Output { .. } => match io.local.get(&input) {
                    Some(&id) => id,
                    // Materialized elsewhere (breaker output, earlier
                    // pipeline, or escaped host accumulation).
                    None => cx.hub.router(&mut self.devices, input, device)?,
                },
            };
            if rows.is_none() {
                let pool = self.devices.get(device)?.pool();
                widest = widest.max(pool.get(id).map_or(0, |b| b.data.len()));
            }
            in_ids.push(id);
        }
        let rows = rows.unwrap_or(widest);
        let mut out_ids = Vec::with_capacity(node.output_count);
        for (port, r) in node.output_refs().enumerate() {
            let id = match (io.local.get(&r), io.outputs) {
                (Some(&id), _) => id,
                (None, Outputs::Staged) => cx.hub.resident(r, device).ok_or_else(|| {
                    ExecError::Internal(format!(
                        "output {r:?} has no buffer (node `{}`)",
                        node.label
                    ))
                })?,
                (None, outputs) => {
                    let id = self.alloc_output(cx, node, device, port, rows)?;
                    if let Outputs::Publish = outputs {
                        cx.hub.register_resident(r, device, id);
                    } else {
                        io.local.insert(r, id);
                    }
                    id
                }
            };
            out_ids.push(id);
        }
        Ok((in_ids, out_ids, rows))
    }

    /// Creates result space for output `port` of `node` on `device`, sized
    /// for `rows` input rows, with the port's data semantics.
    fn alloc_output(
        &mut self,
        cx: &mut RunCx<'_>,
        node: &PrimitiveNode,
        device: DeviceId,
        port: usize,
        rows: usize,
    ) -> Result<BufferId> {
        let semantic = cx.graph.semantic_of(DataRef::Output {
            node: node.id,
            port,
        });
        cx.hub
            .prepare_output_buffer(&mut self.devices, node, device, semantic, rows)
    }

    /// Resolves and runs one node's kernel on `device`, launched with a copy
    /// of the node's `scalars` as the plan encoded them. Returns the modeled
    /// nanoseconds a fused node saved over launching its stages individually
    /// (`0.0` for ordinary nodes, or when the device exposes no cost model),
    /// and the fused kernel's per-stage row counts (empty for ordinary
    /// nodes).
    fn execute_node(
        &mut self,
        node: &PrimitiveNode,
        scalars: &[i64],
        device: DeviceId,
        in_ids: &[BufferId],
        out_ids: &[BufferId],
    ) -> Result<(f64, Vec<usize>)> {
        let sdk = self.devices.get(device)?.info().sdk;
        let container = self
            .tasks
            .resolve(node.kind, sdk, node.variant.as_deref())
            .ok_or_else(|| ExecError::NoImplementation {
                primitive: node.kind.to_string(),
                sdk: sdk.to_string(),
                variant: node
                    .variant
                    .clone()
                    .unwrap_or_else(|| "default".to_string()),
            })?;
        let mut buffers = in_ids.to_vec();
        buffers.extend_from_slice(out_ids);
        let spec = ExecuteSpec::new(container.kernel_name(), buffers, scalars.to_vec());
        let kstats =
            self.devices
                .get_mut(device)?
                .execute(&spec)
                .map_err(|e| ExecError::KernelFailed {
                    device,
                    kernel: spec.kernel.clone(),
                    source: e,
                })?;
        let mut saved_ns = 0.0;
        if let NodeParams::Fused { stages, .. } = &node.params {
            if !kstats.stages.is_empty() {
                saved_ns = crate::fusion::fused_saved_ns(
                    &self.devices.get(device)?.state().cost,
                    stages,
                    &kstats.stages,
                    spec.arg_count(),
                );
            }
        }
        Ok((saved_ns, kstats.stage_rows))
    }

    /// Gathers the graph's outputs: a graph input's bound rows, finished
    /// host accumulations, else the resident copy (retrieved verified),
    /// else — a zero-row streaming run produced nothing — an empty column
    /// of the right kind.
    pub(super) fn collect_outputs(&mut self, cx: &mut RunCx<'_>) -> Result<QueryOutput> {
        let mut out = QueryOutput::new();
        for (name, r) in cx.graph.outputs() {
            let data = if let DataRef::Input(i) = *r {
                // The host already holds every row; no run produces them.
                let gi = &cx.graph.inputs()[i];
                let rows = cx
                    .inputs
                    .get(&gi.name)
                    .ok_or_else(|| ExecError::MissingInput(gi.name.clone()))?;
                BufferData::I64(rows.to_vec())
            } else if let Some(acc) = cx.hub.take_host(*r) {
                acc
            } else if let Some((dev_id, id)) = self
                .devices
                .ids()
                .into_iter()
                .find_map(|d| Some((d, cx.hub.resident(*r, d)?)))
            {
                let payload = cx
                    .hub
                    .retrieve_verified(&mut self.devices, dev_id, id, None, 0)?;
                cx.tally.fold_serial(&mut self.devices, &[dev_id])?;
                payload
            } else {
                DataContainer::empty_payload(cx.graph.semantic_of(*r))
            };
            out.insert(name.clone(), data);
        }
        Ok(out)
    }
}
