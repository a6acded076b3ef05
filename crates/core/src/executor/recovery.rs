//! The recovery policy: what the engine does about a fault.
//!
//! Every failure the data path surfaces is classified once
//! ([`classify`]) and answered from one table ([`action`]); the rest of
//! this module applies the answers — bounded pipeline retries, placement
//! repair, hedged chunks, membership recovery after a device death, and the
//! checkpoints that make a restart a resume. It moves placement and
//! buffers; time is accounted by the accounting fold alone.
//!
//! Placement is the run's `placement`: one device per pipeline, the run's
//! device (or the graph's annotation) when the run starts. Every
//! re-placement below writes a pipeline's entry there — the graph itself is
//! never edited. Nothing here outlives the run: each run starts from the
//! plan and the cost models, whatever earlier runs met.
//!
//! | fault | action |
//! |---|---|
//! | device or kernel out of memory | halve the streaming chunk, retry |
//! | kernel failed | retry; second strike in a row moves the pipeline off its device |
//! | chunk overran its watchdog budget | hedge it on the best alternate device |
//! | device gone | unplug it, re-place, resume from the latest checkpoint (none: from row 0) |
//! | anything else | fail |

use super::accounting::ChunkOutcome;
use super::datapath::{order_sensitive_kind, Chunk};
use super::{Executor, RunCx};
use crate::checkpoint::{CheckpointConfig, QueryCheckpoint};
use crate::error::{ExecError, Result};
use crate::graph::{DataRef, NodeId, PrimitiveGraph};
use crate::pipeline::{Pipeline, PipelineSet};
use crate::result::QueryOutput;
use crate::timeline::ChunkCost;
use adamant_device::buffer::BufferData;
use adamant_device::device::DeviceId;
use adamant_device::error::DeviceError;
use std::collections::BTreeMap;

/// What went wrong, in the terms the policy cares about.
pub(super) enum Fault {
    /// A device pool (regular or pinned) could not satisfy an allocation.
    /// Every allocation of an attempt is on the pipeline's device.
    OutOfMemory,
    /// A kernel launch failed. Every kernel of an attempt runs on the
    /// pipeline's device.
    KernelFailed,
    /// A streamed chunk overran its watchdog budget (not an error: the
    /// chunk's result is committed, only its time can still be rescued).
    Straggler,
    /// The device died permanently.
    DeviceGone { device: DeviceId },
    /// Graph validation problems, missing inputs or implementations, an
    /// exhausted retransmit budget, deadlines, internal invariant
    /// violations: retrying cannot help.
    Fatal,
}

/// What the engine does about a [`Fault`].
pub(super) enum RecoveryAction {
    /// Retry the pipeline with the streaming chunk halved, so the working
    /// set fits (a plain retry when halving is impossible still clears
    /// transient allocation faults).
    ShrinkChunk,
    /// Retry in place — one failure is treated as transient — and move the
    /// pipeline off its device on the second consecutive strike, or fail
    /// when nobody can take it.
    MoveOnSecondStrike,
    /// Race a duplicate of the chunk on the best alternate device.
    Hedge,
    /// Unplug the device and continue on the survivors from the latest
    /// validated checkpoint — from row 0 when there is none.
    ResumeOnSurvivors(DeviceId),
    /// Surface the error.
    Fail,
}

/// The one error classification.
pub(super) fn classify(err: &ExecError) -> Fault {
    use DeviceError::{Gone, OutOfMemory, OutOfPinnedMemory};
    match err {
        ExecError::Device(Gone { device })
        | ExecError::KernelFailed {
            source: Gone { device },
            ..
        } => Fault::DeviceGone { device: *device },
        ExecError::Device(OutOfMemory { .. } | OutOfPinnedMemory { .. })
        | ExecError::KernelFailed {
            source: OutOfMemory { .. } | OutOfPinnedMemory { .. },
            ..
        } => Fault::OutOfMemory,
        ExecError::KernelFailed { .. } => Fault::KernelFailed,
        _ => Fault::Fatal,
    }
}

/// The recovery table.
pub(super) fn action(fault: &Fault) -> RecoveryAction {
    match *fault {
        Fault::OutOfMemory => RecoveryAction::ShrinkChunk,
        Fault::KernelFailed => RecoveryAction::MoveOnSecondStrike,
        Fault::Straggler => RecoveryAction::Hedge,
        Fault::DeviceGone { device } => RecoveryAction::ResumeOnSurvivors(device),
        Fault::Fatal => RecoveryAction::Fail,
    }
}

/// Where an attempt starts: how many pipelines to skip, the in-progress
/// pipeline's scan offset, the snapshot's host entries (re-restored when an
/// intra-pipeline retry discards them) and the seeds for the in-progress
/// pipeline's breaker accumulators. A restart is the empty cursor.
#[derive(Default)]
pub(super) struct ResumeCursor {
    pipelines_done: usize,
    pub resume_offset: usize,
    chunks_done: usize,
    host: Vec<(DataRef, BufferData, usize)>,
    seed: Vec<(DataRef, BufferData)>,
}

impl ResumeCursor {
    pub fn seed_for(&self, r: DataRef) -> Option<&BufferData> {
        self.seed.iter().find(|(sr, _)| *sr == r).map(|(_, p)| p)
    }
}

/// Per-run checkpoint machinery: the configuration, the latest sealed
/// snapshot, the cost-policy bookkeeping, and the cursor the next attempt
/// starts from. Lives only for the duration of one run, so every byte of
/// snapshot storage is released when the run returns — the no-leak
/// invariant covers checkpoints too.
pub(super) struct CheckpointState {
    cfg: CheckpointConfig,
    latest: Option<QueryCheckpoint>,
    /// Work charged (all lanes) at the last capture: the difference to the
    /// current total is the modeled re-execution cost a death right now
    /// would forfeit.
    lanes_mark: f64,
    /// Chunks streamed since the last considered boundary (capture sites
    /// are every `cfg.chunk_interval`-th chunk).
    chunks_since_consider: usize,
    /// Chunks whose results the current attempt lineage already holds (the
    /// next snapshot records this as what a resume may skip).
    chunks_done: usize,
    /// Pipelines fully completed in the current attempt lineage.
    pipelines_done: usize,
    /// Armed by membership recovery; consumed by the next attempt.
    cursor: ResumeCursor,
}

impl CheckpointState {
    pub fn new(cfg: CheckpointConfig) -> Self {
        CheckpointState {
            cfg,
            latest: None,
            lanes_mark: 0.0,
            chunks_since_consider: 0,
            chunks_done: 0,
            pipelines_done: 0,
            cursor: ResumeCursor::default(),
        }
    }
}

impl Executor {
    // ---- run level: membership recovery -----------------------------------

    /// Runs the query to completion across device deaths. A permanent death
    /// (`Gone`) unwinds the whole attempt — the corpse's buffers written
    /// off, the survivors rolled back, pipelines re-placed — and the next
    /// attempt starts from whatever cursor the latest checkpoint restores.
    /// Every death retires one device and the last one fails the run, so
    /// the loop terminates; devices hot-added since the run began simply
    /// are more survivors.
    pub(super) fn run_to_completion(
        &mut self,
        cx: &mut RunCx<'_>,
        pipelines: &PipelineSet,
        fault_base: &mut BTreeMap<DeviceId, u64>,
    ) -> Result<QueryOutput> {
        loop {
            let err = match self.run_from_cursor(cx, pipelines) {
                Ok(output) => return Ok(output),
                Err(err) => err,
            };
            match action(&classify(&err)) {
                RecoveryAction::ResumeOnSurvivors(dead) => {
                    self.handle_device_loss(dead, cx, pipelines, fault_base)?
                }
                _ => return Err(err),
            }
        }
    }

    fn run_from_cursor(
        &mut self,
        cx: &mut RunCx<'_>,
        pipelines: &PipelineSet,
    ) -> Result<QueryOutput> {
        let cursor = std::mem::take(&mut cx.ckpt.cursor);
        cx.ckpt.pipelines_done = cursor.pipelines_done;
        cx.ckpt.chunks_done = cursor.chunks_done;
        let restart = ResumeCursor::default();
        let todo = pipelines.pipelines.iter().skip(cursor.pipelines_done);
        for (i, pipeline) in todo.enumerate() {
            // Only the pipeline the snapshot caught in flight resumes
            // mid-scan; everything after it starts at row 0.
            let from = if i == 0 { &cursor } else { &restart };
            self.run_pipeline_with_recovery(cx, pipeline, from)?;
            cx.ckpt.pipelines_done += 1;
            // Pipeline-breaker boundary: always a considered capture site.
            self.consider_checkpoint(cx, 0)?;
        }
        self.collect_outputs(cx)
    }

    /// Full-engine recovery from a permanent device death. In order:
    ///
    /// 1. the corpse's modeled time, byte counts, pool peak and fault delta
    ///    are captured into the stats (the post-run sweep only sees
    ///    survivors);
    /// 2. every hub buffer and residency pin on it is written off without
    ///    calling into it, and its pool/admission accounting zeroed so the
    ///    no-leak invariant still holds;
    /// 3. the whole attempt is unwound on the survivors (buffers freed,
    ///    host accumulations discarded) so re-staging starts from pristine
    ///    host copies;
    /// 4. the device is unplugged, and every pipeline placed on it
    ///    re-placed onto the best survivor;
    /// 5. the cursor for the next attempt is armed from the latest
    ///    checkpoint ([`Executor::restore_checkpoint`]).
    ///
    /// Errors with `Gone` when no survivor can take the work.
    fn handle_device_loss(
        &mut self,
        dead: DeviceId,
        cx: &mut RunCx<'_>,
        pipelines: &PipelineSet,
        fault_base: &mut BTreeMap<DeviceId, u64>,
    ) -> Result<()> {
        cx.tally.stats.device_deaths += 1;
        let base = fault_base.remove(&dead).unwrap_or(0);
        // Host-side accessors still work on the corpse.
        cx.tally.fold_serial(&mut self.devices, &[dead])?;
        cx.tally.capture_device(self.devices.get(dead)?, base);
        let (buffers, lost_bytes) = cx.hub.write_off_device(&mut self.devices, dead);
        cx.tally.stats.buffers_written_off += buffers;
        cx.tally.stats.restaged_bytes += lost_bytes;
        cx.hub.rollback_to(&mut self.devices, 0);
        cx.hub.discard_all_host();
        self.devices.remove(dead);
        let gone = || ExecError::Device(DeviceError::Gone { device: dead });
        if self.devices.is_empty() {
            return Err(gone());
        }
        for pipeline in &pipelines.pipelines {
            let device = &mut cx.placement[pipeline.index];
            if *device == dead && !self.repoint_pipeline(cx.graph, pipeline, device) {
                return Err(gone());
            }
        }
        cx.ckpt.cursor = self.restore_checkpoint(cx, pipelines);
        Ok(())
    }

    /// Restores the latest checkpoint onto the (re-placed) survivors and
    /// returns the cursor that skips everything it holds. No snapshot, a
    /// snapshot failing validation (e.g. scripted via
    /// `FaultPlan::corrupt_checkpoint`) or one that cannot be re-staged
    /// (a second device died or OOMed mid-restore) yields the empty cursor
    /// — a full restart, never a wrong answer; the latter two are counted
    /// and drop the snapshot.
    fn restore_checkpoint(&mut self, cx: &mut RunCx<'_>, pipelines: &PipelineSet) -> ResumeCursor {
        let Some(cp) = cx.ckpt.latest.take() else {
            return ResumeCursor::default();
        };
        // Accumulators of *completed* pipelines are restored here (later
        // pipelines consume them read-only); the in-progress pipeline's own
        // accumulators travel in the cursor and are seeded per attempt —
        // every chunk mutates them in place, so they must live inside the
        // attempt's rollback scope or a retry would double-count.
        let in_progress: &[NodeId] = pipelines
            .pipelines
            .get(cp.pipelines_done)
            .map_or(&[], |p| p.nodes.as_slice());
        let seeds =
            |r: &DataRef| matches!(r, DataRef::Output { node, .. } if in_progress.contains(node));
        let restored = cp.validate() && {
            let staged = (|| -> Result<()> {
                cx.hub.restore_host(&cp.host);
                for (r, payload) in &cp.resident {
                    if let DataRef::Output { node, .. } = r {
                        if !seeds(r) {
                            let target = cx.placement[pipelines.node_pipeline[node.0]];
                            cx.hub
                                .restore_resident(&mut self.devices, *r, target, payload)?;
                        }
                    }
                }
                Ok(())
            })();
            if staged.is_err() {
                // Unwind whatever landed; if a survivor really is gone the
                // restart will hit its `Gone` and be recovered in turn.
                cx.hub.rollback_to(&mut self.devices, 0);
                cx.hub.discard_all_host();
            }
            staged.is_ok()
        };
        if !restored {
            cx.tally.stats.resume_validation_failures += 1;
            return ResumeCursor::default();
        }
        cx.tally.stats.resumes += 1;
        cx.tally.stats.chunks_skipped_on_resume += cp.chunks_done;
        let cursor = ResumeCursor {
            pipelines_done: cp.pipelines_done,
            resume_offset: cp.resume_offset,
            chunks_done: cp.chunks_done,
            host: cp.host.clone(),
            seed: cp
                .resident
                .iter()
                .filter(|(r, _)| seeds(r))
                .cloned()
                .collect(),
        };
        cx.ckpt.latest = Some(cp);
        cursor
    }

    // ---- pipeline level: bounded retries ----------------------------------

    /// Runs one pipeline with bounded fault recovery: a failed attempt is
    /// unwound — buffers freed back to the pre-attempt mark, partial host
    /// accumulations discarded — and answered from the recovery table, up
    /// to `RetryPolicy::max_attempts`.
    fn run_pipeline_with_recovery(
        &mut self,
        cx: &mut RunCx<'_>,
        pipeline: &Pipeline,
        cursor: &ResumeCursor,
    ) -> Result<()> {
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut chunk_rows = self.config.chunk_rows;
        // Consecutive kernel failures on the pipeline's current device.
        let mut strikes = 0usize;
        let mut attempt = 0usize;
        loop {
            attempt += 1;
            cx.check_deadline(cx.tally.elapsed_ns())?;
            // The device this attempt runs on (re-placement changes it).
            let device = cx.placement[pipeline.index];
            let mark = cx.hub.mark();
            let Err(err) = self.run_pipeline(cx, pipeline, chunk_rows, cursor) else {
                return Ok(());
            };
            let fault = classify(&err);
            let action = action(&fault);
            if let RecoveryAction::ResumeOnSurvivors(_) = action {
                // Pipeline-scope recovery must not touch the corpse
                // (rollback would call into it): surface it untouched to the
                // run level.
                return Err(err);
            }

            // Unwind the attempt. The modeled time already spent is real
            // (wasted work is charged); the buffers and partial host
            // accumulations are not. A resumed pipeline retries from the
            // checkpoint boundary, so the cursor's host prefix (content and
            // contiguity watermark) the discard just dropped is reinstated.
            cx.tally.fold_all(&mut self.devices);
            cx.hub.rollback_to(&mut self.devices, mark);
            for r in cx.escaping {
                if matches!(r, DataRef::Output { node, .. } if pipeline.nodes.contains(node)) {
                    cx.hub.discard_host(*r);
                }
            }
            cx.hub.restore_host(&cursor.host);

            // Residency pins on the attempt's device are part of the fault
            // domain: an OOM retry needs the memory back.
            if matches!(fault, Fault::OutOfMemory) {
                cx.hub.evict_cache_on(&mut self.devices, device);
            }
            if attempt >= max_attempts {
                return Err(err);
            }
            let retry = match action {
                RecoveryAction::ShrinkChunk => {
                    // Halving is impossible for a whole-buffer pipeline, at
                    // the one-row floor, and for order-sensitive primitives
                    // that must see their scan in one chunk.
                    if pipeline.is_streaming()
                        && cx.cfg.chunked
                        && chunk_rows > 1
                        && order_sensitive_kind(cx.graph, pipeline).is_none()
                    {
                        chunk_rows /= 2;
                        cx.tally.stats.chunk_backoffs += 1;
                    }
                    true
                }
                RecoveryAction::MoveOnSecondStrike => {
                    strikes += 1;
                    if strikes < 2 {
                        true
                    } else {
                        strikes = 0;
                        self.move_pipeline(cx, pipeline)
                    }
                }
                _ => false,
            };
            if !retry {
                return Err(err);
            }
            cx.tally.stats.retries += 1;
        }
    }

    /// Re-places `pipeline` off the device it runs on. Returns whether a
    /// fallback happened.
    fn move_pipeline(&mut self, cx: &mut RunCx<'_>, pipeline: &Pipeline) -> bool {
        let device = &mut cx.placement[pipeline.index];
        let moved = self.repoint_pipeline(cx.graph, pipeline, device);
        cx.tally.stats.fallback_placements += usize::from(moved);
        moved
    }

    // ---- chunk level: watchdog and hedging --------------------------------

    /// Post-chunk watchdog: a chunk whose modeled duration overran
    /// `watchdog_multiplier ×` its fault-free expectation races a hedged
    /// duplicate on the best alternate device. Data is always committed
    /// from the primary (kernels are deterministic, so both copies are
    /// identical — only the *time* is rescued). Returns the chunk cost the
    /// makespan should see and the device time charged to the owning query.
    pub(super) fn supervise_chunk(
        &mut self,
        cx: &mut RunCx<'_>,
        pipeline: &Pipeline,
        outcome: ChunkOutcome,
        chunk: &Chunk,
    ) -> (ChunkCost, f64) {
        let unhedged = (outcome.cost, outcome.actual_ns());
        let overrun = self
            .config
            .watchdog_multiplier
            .and_then(|m| outcome.overrun_budget_ns(m));
        let Some(budget_ns) = overrun else {
            return unhedged;
        };
        cx.tally.stats.watchdog_fires += 1;
        let primary = cx.placement[pipeline.index];
        let RecoveryAction::Hedge = action(&Fault::Straggler) else {
            return unhedged;
        };
        let est_bytes = (chunk.len.max(1) * 8) as u64;
        // No alternate device can run this pipeline: the straggler's result
        // stands.
        let Some(alt) = self.best_candidate(cx.graph, &pipeline.nodes, primary, est_bytes) else {
            return unhedged;
        };
        cx.tally.stats.hedged_launches += 1;
        // A failed hedge never fails the query — the primary's result is
        // already committed.
        let Ok(hedge) = self.mirror_chunk(cx, pipeline, alt, chunk) else {
            return unhedged;
        };
        let (cost, charged_ns, hedge_won) = outcome.race(budget_ns, hedge);
        cx.tally.stats.hedge_wins += usize::from(hedge_won);
        (cost, charged_ns)
    }

    // ---- checkpoints -------------------------------------------------------

    /// A streamed chunk completed through scan row `rows_done`: every
    /// `chunk_interval`-th such boundary is a considered capture site.
    pub(super) fn chunk_boundary(&mut self, cx: &mut RunCx<'_>, rows_done: usize) -> Result<()> {
        if !cx.ckpt.cfg.enabled {
            return Ok(());
        }
        cx.ckpt.chunks_done += 1;
        cx.ckpt.chunks_since_consider += 1;
        if cx.ckpt.chunks_since_consider < cx.ckpt.cfg.chunk_interval.max(1) {
            return Ok(());
        }
        cx.ckpt.chunks_since_consider = 0;
        self.consider_checkpoint(cx, rows_done)
    }

    /// Considered checkpoint boundary: captures a snapshot when the
    /// cost-model policy agrees — the modeled re-execution cost accumulated
    /// since the last snapshot must exceed the estimated capture cost times
    /// [`CheckpointConfig::cost_factor`]. `resume_offset` is the in-progress
    /// pipeline's high-water scan row (0 at pipeline boundaries).
    ///
    /// The candidate is fully assembled and sealed before it replaces the
    /// latest snapshot, so a device death in the middle of a capture (any
    /// retrieval may return `Gone`) leaves the previous snapshot intact —
    /// recovery then resumes from the older but still consistent boundary.
    fn consider_checkpoint(&mut self, cx: &mut RunCx<'_>, resume_offset: usize) -> Result<()> {
        if !cx.ckpt.cfg.enabled {
            return Ok(());
        }
        // Inputs re-stage from pristine host columns for free; only
        // materialized intermediates need host copies — one verified D2H
        // retrieval each, priced by the holder's own cost model.
        let intermediates: Vec<_> = cx
            .hub
            .resident_refs()
            .into_iter()
            .filter(|(r, _, _)| matches!(r, DataRef::Output { .. }))
            .collect();
        let estimate_ns: f64 = intermediates
            .iter()
            .filter_map(|&(_, dev, id)| {
                let d = self.devices.get(dev).ok()?.state();
                let bytes = d.pool.get(id).ok()?.footprint();
                Some(d.cost.placement_cost_ns(bytes))
            })
            .sum();
        if cx.tally.lanes_ns() - cx.ckpt.lanes_mark <= estimate_ns * cx.ckpt.cfg.cost_factor {
            return Ok(());
        }
        let host = cx.hub.snapshot_host();
        let mut resident: Vec<(DataRef, BufferData)> = Vec::new();
        for (r, dev, id) in intermediates {
            let payload = cx
                .hub
                .retrieve_verified(&mut self.devices, dev, id, None, 0)?;
            resident.push((r, payload));
        }
        let mut cp = QueryCheckpoint {
            pipelines_done: cx.ckpt.pipelines_done,
            resume_offset,
            chunks_done: cx.ckpt.chunks_done,
            host,
            resident,
            bytes: 0,
            checksum: 0,
        };
        cp.seal();
        // Capture transfers pay real modeled D2H cost, folded here so the
        // surrounding chunk's attribution stays clean.
        cx.tally.fold_all(&mut self.devices);
        for id in self.devices.ids() {
            // Scripted checkpoint corruption: a device's fault plan may
            // damage the snapshot in flight. The stored checksum no longer
            // matches the content, so the resume-time validation rejects it
            // and recovery degrades to a full restart.
            let faults = &mut self.devices.get_mut(id)?.state_mut().faults;
            if faults.on_checkpoint_capture() {
                cp.checksum ^= 1;
            }
        }
        cx.tally.stats.checkpoints_taken += 1;
        cx.tally.stats.checkpoint_bytes += cp.bytes;
        cx.ckpt.lanes_mark = cx.tally.lanes_ns();
        cx.ckpt.latest = Some(cp);
        Ok(())
    }

    // ---- placement ---------------------------------------------------------

    /// The one candidate ranking: the device other than `avoid` that
    /// implements every one of `nodes` with the lowest placement cost for
    /// `est_bytes` in its cost model, lowest id on ties.
    fn best_candidate(
        &self,
        graph: &PrimitiveGraph,
        nodes: &[NodeId],
        avoid: DeviceId,
        est_bytes: u64,
    ) -> Option<DeviceId> {
        let mut best: Option<(f64, DeviceId)> = None;
        for cand in self.devices.ids().into_iter().filter(|&c| c != avoid) {
            let Ok(dev) = self.devices.get(cand) else {
                continue;
            };
            let sdk = dev.info().sdk;
            let capable = nodes.iter().all(|&n| {
                let node = graph.node(n);
                self.tasks
                    .resolve(node.kind, sdk, node.variant.as_deref())
                    .is_some()
            });
            if !capable {
                continue;
            }
            let cost = dev.state().cost.placement_cost_ns(est_bytes);
            if best.is_none_or(|(b, _)| cost.total_cmp(&b).is_lt()) {
                best = Some((cost, cand));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Moves `pipeline` off `device`, its placement entry, onto the
    /// [`Executor::best_candidate`] for its nodes. Returns whether a
    /// re-placement happened.
    fn repoint_pipeline(
        &self,
        graph: &PrimitiveGraph,
        pipeline: &Pipeline,
        device: &mut DeviceId,
    ) -> bool {
        let est_bytes = (self.config.chunk_rows.max(1) * 8) as u64;
        let target = self.best_candidate(graph, &pipeline.nodes, *device, est_bytes);
        target.map(|t| *device = t).is_some()
    }

    /// The run's starting placement: every pipeline on `device`, or (`None`)
    /// each on the device its nodes are annotated with. A pipeline whose
    /// device is no longer plugged (it died in an earlier run) moves to the
    /// best live candidate rather than failing mid-pipeline; with none, it
    /// stays and the run fails typed.
    pub(super) fn starting_placement(
        &self,
        graph: &PrimitiveGraph,
        pipelines: &PipelineSet,
        device: Option<DeviceId>,
    ) -> Vec<DeviceId> {
        pipelines
            .pipelines
            .iter()
            .map(|p| {
                let mut dev = device.unwrap_or(graph.node(p.nodes[0]).device);
                if self.devices.get(dev).is_err() {
                    self.repoint_pipeline(graph, p, &mut dev);
                }
                dev
            })
            .collect()
    }
}
