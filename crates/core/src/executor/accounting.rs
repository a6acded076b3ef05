//! The accounting fold: the only code that turns drained [`CostEvent`]s
//! into the makespan tally, per-chunk costs and the
//! [`ExecutionStats`] lanes.
//!
//! The data path and the recovery policy say *when* a device's events are
//! folded and *how they are charged* ([`Charge`]); what a lane is, how a
//! chunk's cost pair is built and how pipelines compose into `total_ns` is
//! decided here and nowhere else.
//!
//! [`CostEvent`]: adamant_device::clock::CostEvent

use crate::error::Result;
use crate::graph::{NodeParams, PrimitiveGraph, PrimitiveNode};
use crate::models::ModelConfig;
use crate::stats::ExecutionStats;
use crate::timeline::{overlapped_makespan, serial_makespan, ChunkCost};
use adamant_device::clock::Lane;
use adamant_device::device::{Device, DeviceId};
use adamant_device::registry::DeviceRegistry;
use adamant_task::container::DataContainer;

/// What one streamed chunk cost: its modeled transfer/compute pair (the
/// makespan contribution) and the fault-free modeled duration of the same
/// work, which the straggler watchdog budgets against.
#[derive(Default)]
pub(super) struct ChunkOutcome {
    pub cost: ChunkCost,
    pub clean_ns: f64,
}

impl ChunkOutcome {
    /// Modeled duration of the chunk as it actually ran.
    pub fn actual_ns(&self) -> f64 {
        self.cost.transfer_ns + self.cost.compute_ns
    }

    /// The watchdog budget (`multiplier ×` the fault-free expectation) when
    /// the chunk overran it, `None` when it finished in time.
    pub fn overrun_budget_ns(&self, multiplier: f64) -> Option<f64> {
        let budget_ns = multiplier.max(1.0) * self.clean_ns;
        (self.clean_ns > 0.0 && self.actual_ns() > budget_ns).then_some(budget_ns)
    }

    /// Scores a hedge race on the simulated timeline. The duplicate
    /// launched when the budget expired, so it wins when `budget + hedge <
    /// primary`; the chunk then completes when the hedge does and the
    /// primary is cancelled at that instant. Returns the cost the makespan
    /// sees, the device time charged to the owning query (winner's timeline
    /// plus all hedge work — hedges are never free), and whether the hedge
    /// won.
    pub fn race(&self, budget_ns: f64, hedge: ChunkCost) -> (ChunkCost, f64, bool) {
        let hedge_ns = hedge.transfer_ns + hedge.compute_ns;
        if budget_ns + hedge_ns < self.actual_ns() {
            let winner = ChunkCost {
                transfer_ns: hedge.transfer_ns + budget_ns,
                compute_ns: hedge.compute_ns,
            };
            (winner, budget_ns + 2.0 * hedge_ns, true)
        } else {
            (self.cost, self.actual_ns() + hedge_ns, false)
        }
    }
}

/// The chunks one streaming attempt has completed so far. Local to the
/// attempt: a failed attempt drops it, so only the lanes (wasted work is
/// real) and never the makespan see its chunks.
#[derive(Default)]
pub(super) struct StreamCosts {
    costs: Vec<ChunkCost>,
    /// Device time charged to the owning query per chunk — what the
    /// multi-query scheduler replays as preemption points.
    charges: Vec<f64>,
    /// Serial sum of `costs`, for the between-chunks deadline check.
    pub streamed_ns: f64,
}

impl StreamCosts {
    pub fn push(&mut self, cost: ChunkCost, charged_ns: f64) {
        self.streamed_ns += cost.transfer_ns + cost.compute_ns;
        self.costs.push(cost);
        self.charges.push(charged_ns);
    }
}

/// How a folded batch of events lands on the makespan.
pub(super) enum Charge<'a> {
    /// Serial time outside any chunk (staging, unwinds, captures, deletes).
    Serial,
    /// One whole-mode launch: serial time that is also an interleavable
    /// slice of device time.
    Slice,
    /// Part of a streamed chunk: the model's overlap policy decides later
    /// how the chunk's cost pair composes.
    Chunk(&'a mut ChunkOutcome),
}

/// Per-run accounting: the stats being built and the makespan so far.
pub(super) struct Tally {
    pub stats: ExecutionStats,
    serial_ns: f64,
    overlap_ns: f64,
}

impl Tally {
    pub fn new(stats: ExecutionStats) -> Self {
        Tally {
            stats,
            serial_ns: 0.0,
            overlap_ns: 0.0,
        }
    }

    /// Modeled time elapsed on the query's timeline.
    pub fn elapsed_ns(&self) -> f64 {
        self.serial_ns + self.overlap_ns
    }

    /// Modeled work charged so far, overlapped or not (what a failure
    /// wastes and what a checkpoint saves re-executing).
    pub fn lanes_ns(&self) -> f64 {
        self.stats.transfer_ns + self.stats.compute_ns + self.stats.other_ns
    }

    /// Drains device `id`'s events into the stats lanes and charges them as told.
    /// Returns the batch's compute time (the kernel time of the launch it
    /// covers; `0.0` for serial folds).
    ///
    /// Float sums are order-sensitive and the makespan must be bit-equal for
    /// the same event stream, so the summation shape is part of the
    /// contract: serial time is added event by event, slice and chunk time
    /// batch by batch.
    pub fn fold(
        &mut self,
        devices: &mut DeviceRegistry,
        id: DeviceId,
        charge: Charge<'_>,
    ) -> Result<f64> {
        let serial = matches!(charge, Charge::Serial);
        let (mut t, mut c, mut o, mut clean) = (0.0, 0.0, 0.0, 0.0);
        for e in devices.get_mut(id)?.clock_mut().drain_events() {
            let (transfer, compute, other) = if serial {
                self.serial_ns += e.duration_ns;
                let s = &mut self.stats;
                (&mut s.transfer_ns, &mut s.compute_ns, &mut s.other_ns)
            } else {
                (&mut t, &mut c, &mut o)
            };
            *match e.lane {
                Lane::TransferH2D | Lane::TransferD2H => transfer,
                Lane::Compute => compute,
                _ => other,
            } += e.duration_ns;
            clean += e.clean_ns;
        }
        self.stats.transfer_ns += t;
        self.stats.compute_ns += c;
        self.stats.other_ns += o;
        match charge {
            Charge::Serial => {}
            Charge::Slice => {
                self.serial_ns += t + c + o;
                self.stats.slice_ns.push(t + c + o);
            }
            Charge::Chunk(chunk) => {
                chunk.cost.transfer_ns += t + o;
                chunk.cost.compute_ns += c;
                chunk.clean_ns += clean;
            }
        }
        Ok(c)
    }

    /// [`Tally::fold`]s the named devices' pending events as serial time.
    pub fn fold_serial(&mut self, devices: &mut DeviceRegistry, ids: &[DeviceId]) -> Result<()> {
        for &id in ids {
            self.fold(devices, id, Charge::Serial)?;
        }
        Ok(())
    }

    /// Folds every plugged device's pending events as serial time.
    pub fn fold_all(&mut self, devices: &mut DeviceRegistry) {
        self.fold_serial(devices, &devices.ids())
            .expect("listed devices are plugged");
    }

    /// Composes a finished streaming pipeline's chunks into the makespan
    /// under the model's overlap policy.
    pub fn close_stream(&mut self, stream: StreamCosts, cfg: ModelConfig) {
        self.stats.chunks_processed += stream.costs.len();
        self.stats.slice_ns.extend(stream.charges);
        if cfg.overlap {
            self.overlap_ns += overlapped_makespan(&stream.costs, cfg.staging_buffers);
        } else {
            self.serial_ns += serial_makespan(&stream.costs);
        }
    }

    /// Per-execution intermediate accounting: bytes flowing through
    /// materialized non-breaker outputs and the interior bytes a fused
    /// chain kept in kernel-local memory instead. `rows` is the chunk
    /// length when streaming, the widest input's length in whole mode.
    /// `stage_rows` is a fused kernel's per-stage report of the same, used
    /// in whole mode, where each stage's unfused node would have been sized
    /// by its own widest input; the two counters then add up to what the
    /// unfused run materializes.
    pub fn note_intermediates(
        &mut self,
        graph: &PrimitiveGraph,
        node: &PrimitiveNode,
        rows: usize,
        stage_rows: Option<&[usize]>,
    ) {
        let rows_of = |stage: usize| {
            stage_rows
                .and_then(|r| r.get(stage).copied())
                .unwrap_or(rows)
        };
        if !node.kind.is_pipeline_breaker() {
            // A fused node's output is its last stage's.
            let own = match &node.params {
                NodeParams::Fused { stages, .. } => rows_of(stages.len() - 1),
                _ => rows,
            };
            for r in node.output_refs() {
                self.stats.intermediate_bytes +=
                    DataContainer::estimate_output_bytes(graph.semantic_of(r), own);
            }
        }
        self.stats.intermediates_elided_bytes += crate::fusion::elided_bytes(&node.params, rows_of);
    }

    /// Captures what only the device itself knows — pool peak, bytes moved,
    /// faults injected since `fault_base` — for a survivor at the end of
    /// the run or for a corpse before it is unplugged.
    pub fn capture_device(&mut self, dev: &dyn Device, fault_base: u64) {
        let name = &dev.info().name;
        self.stats
            .peak_device_bytes
            .insert(name.clone(), dev.pool().peak());
        self.stats.bytes_h2d += dev.clock().bytes_h2d();
        self.stats.bytes_d2h += dev.clock().bytes_d2h();
        let faults = dev
            .state()
            .faults
            .counters()
            .total()
            .saturating_sub(fault_base);
        if faults > 0 {
            self.stats.device_faults.insert(name.clone(), faults);
        }
    }

    /// Seals the run: the makespan becomes `total_ns`.
    pub fn finish(mut self, wall_ns: u64) -> ExecutionStats {
        self.stats.total_ns = self.elapsed_ns();
        self.stats.wall_ns = wall_ns;
        self.stats
    }
}
