//! The query executor: binds a primitive graph to devices and runs it under
//! an execution model.
//!
//! One engine implements all five models (paper §IV), parameterized by
//! [`crate::models::ModelConfig`]: operator-at-a-time places
//! whole inputs; the chunked family streams scan chunks through each
//! pipeline, optionally staging in pinned memory (4-phase) and optionally
//! overlapping the copy with compute (Algorithm 2) — on the modeled
//! timeline: one host thread stages and executes every chunk, and
//! [`crate::timeline::overlapped_makespan`] computes what a transfer engine
//! running ahead by the staging buffers would have hidden.
//!
//! The run is split into three roles that share one `RunCx` and nothing
//! else: the **data path** (`datapath`) drives a pipeline over a chunk
//! schedule and leaves cost events on the device clocks; the **recovery
//! policy** (`recovery`) classifies whatever the data path surfaces and
//! answers it from one `Fault → RecoveryAction` table; the **accounting
//! fold** (`accounting`) is the only code that turns drained events into
//! the makespan and the stats lanes. This file holds the public
//! configuration surface and the run's set-up and tear-down.

mod accounting;
mod datapath;
mod recovery;

use crate::checkpoint::CheckpointConfig;
use crate::error::{ExecError, Result};
use crate::graph::{DataRef, PrimitiveGraph};
use crate::hub::DataTransferHub;
use crate::models::{ExecutionModel, ModelConfig};
use crate::prepared::Prepared;
use crate::residency::{BoundRows, ResidencyCache, ResidencyConfig};
use crate::result::QueryOutput;
use crate::stats::ExecutionStats;
use accounting::Tally;
use adamant_device::device::{Device, DeviceId};
use adamant_device::profiles::DeviceProfile;
use adamant_device::registry::DeviceRegistry;
use adamant_storage::column::{Column, SharedRows};
use adamant_task::registry::TaskRegistry;
use recovery::CheckpointState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Once};
use std::time::Instant;

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Rows per chunk for the chunked execution models (the paper uses
    /// 2^25 four-byte values; scale together with your data). Every
    /// pipeline starts at this size; an out-of-memory retry halves it for
    /// the rest of that pipeline (see [`RetryPolicy`]).
    pub chunk_rows: usize,
    /// How the executor recovers from device faults mid-query.
    pub retry: RetryPolicy,
    /// Straggler watchdog: a streamed chunk whose modeled duration exceeds
    /// this multiple of its fault-free cost-model expectation trips the
    /// watchdog, and a hedged duplicate of the chunk is raced on the best
    /// alternate device (first completion wins; the loser's allocations are
    /// reclaimed). `None` disables watchdogs and hedging.
    pub watchdog_multiplier: Option<f64>,
    /// Partial-progress checkpoints: when enabled, the executor snapshots
    /// query progress at pipeline-breaker and chunk-interval boundaries and
    /// heavyweight recovery (device death, exhausted retries) resumes from
    /// the last validated snapshot instead of restarting from row 0.
    pub checkpoints: CheckpointConfig,
    /// Whether the fusion pass rewrites eligible primitive chains into fused
    /// nodes before pipeline splitting (DESIGN.md §16). On by default;
    /// results are reference-exact either way.
    pub fusion: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            chunk_rows: 1 << 20,
            retry: RetryPolicy::default(),
            watchdog_multiplier: Some(3.0),
            checkpoints: CheckpointConfig::default(),
            fusion: true,
        }
    }
}

/// Recovery policy for pipeline execution.
///
/// A failed pipeline attempt is rolled back (buffers freed, partial host
/// accumulations discarded) and retried according to the error class:
///
/// * device out-of-memory → the streaming chunk size is halved before the
///   retry (down to one row) and stays halved for the rest of the
///   pipeline; the next pipeline starts again at `chunk_rows`;
/// * a kernel that fails twice in a row on the same device → the
///   pipeline is re-placed onto another device with its primitives
///   installed (or the original error when no capable device exists);
/// * anything else — an exhausted retransmit budget, a missing
///   implementation — surfaces as the run's error.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per pipeline, including the first (so 1 disables
    /// recovery entirely).
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4 }
    }
}

/// One run's working state — the only thing the data path, the recovery
/// policy and the accounting fold share.
struct RunCx<'a> {
    /// The graph being run: the prepared plan's.
    graph: &'a PrimitiveGraph,
    /// The device each pipeline runs on, by pipeline index: the run's device
    /// (or the graph's annotation) at run start, written only by recovery.
    placement: Vec<DeviceId>,
    inputs: &'a QueryInputs,
    cfg: ModelConfig,
    /// Streamed non-breaker outputs consumed outside their pipeline.
    escaping: &'a HashSet<DataRef>,
    /// Each node's encoded kernel scalars, by node index.
    scalars: &'a [Vec<i64>],
    /// Modeled-ns budget of this run (`None`: unbounded).
    deadline_ns: Option<f64>,
    hub: DataTransferHub,
    tally: Tally,
    ckpt: CheckpointState,
}

impl RunCx<'_> {
    /// The deadline check: called between chunks, between whole-mode nodes
    /// and before each recovery attempt, with the modeled time spent so far.
    fn check_deadline(&mut self, spent_ns: f64) -> Result<()> {
        match self.deadline_ns {
            Some(budget_ns) if spent_ns > budget_ns => {
                self.tally.stats.deadline_aborts += 1;
                Err(ExecError::DeadlineExceeded {
                    budget_ns,
                    spent_ns,
                })
            }
            _ => Ok(()),
        }
    }
}

/// Host columns bound to graph inputs, by reference.
///
/// Each entry is a [`SharedRows`]: immutable `i64` rows behind an `Arc`
/// and, beside them, the cell that keeps their residency fingerprint once
/// the cache has asked for it. [`QueryInputs::bind_column`] takes the pair a
/// catalog [`Column`] already holds — two reference-count bumps, no copy, and
/// a fingerprint hashed for one query is there for the next one and for
/// every other spec bound from the same column. [`QueryInputs::bind`] pairs
/// the vector it is given with a fresh cell. Binding a name again replaces
/// rows and cell together; `clone` shares both.
#[derive(Clone, Debug, Default)]
pub struct QueryInputs {
    cols: BTreeMap<String, SharedRows>,
}

impl QueryInputs {
    /// Creates an empty binding set.
    pub fn new() -> Self {
        QueryInputs::default()
    }

    /// Binds a raw vector.
    pub fn bind(&mut self, name: impl Into<String>, values: Vec<i64>) {
        self.cols.insert(name.into(), SharedRows::new(values));
    }

    /// Binds a storage column by reference (an `Int64` column's own rows; a
    /// narrower column's rows widened to `i64` once, by the column;
    /// dictionary columns bind their codes).
    pub fn bind_column(&mut self, name: impl Into<String>, column: &Column) -> Result<()> {
        self.cols.insert(name.into(), column.shared_rows().clone());
        Ok(())
    }

    /// Looks up a bound column.
    pub fn get(&self, name: &str) -> Option<&Arc<Vec<i64>>> {
        self.cols.get(name).map(SharedRows::rows)
    }

    /// Looks up a bound column together with the cell that keeps its
    /// fingerprint — what the hub hands to the residency cache.
    pub(crate) fn bound(&self, name: &str) -> Option<BoundRows<'_>> {
        self.cols.get(name).map(BoundRows::kept)
    }

    /// Iterates bound `(name, column)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Vec<i64>>)> {
        self.cols.iter().map(|(n, c)| (n.as_str(), c.rows()))
    }
}

/// Asks the host allocator, once per process, to keep freed column-sized
/// blocks instead of returning them to the operating system.
///
/// Every query allocates and frees column-sized buffers at a high rate —
/// kernel outputs, downloads and the stored copies of uploads that are not
/// bound rows, tens to hundreds of KiB each (bound inputs are shared by
/// reference, with the devices as well, and are no longer among them).
/// glibc serves a block above its `mmap` threshold with a fresh mapping, and
/// trims the heap top once a `free` leaves more than its trim threshold
/// there, so the next query faults the same memory in again page by page.
/// Measured with bind-by-reference in place (the repository's benchmark,
/// seed 500, 12 s, two runs each): `scan_cold` takes 6.4 k page faults and
/// 0.02 s of system time with this ratchet and 2.8–3.5 M faults, 2.8–3.4 s
/// of system time and a 35–45 % slower round (6.2 → 8.3–9.0 ms) without it;
/// `warm_repeat` 6.7 k against 64–87 k faults at equal rounds (4.1 ms). glibc
/// raises both thresholds to the size of the largest mapped block freed so
/// far, up to 32 MiB, and never lowers them; freeing one block of just under
/// that size moves them there at once. The block is never written, so it
/// costs address space for a moment and no memory, and an allocator without
/// the heuristic sees one large allocation and nothing else.
fn keep_freed_buffers_mapped() {
    /// Just under glibc's `DEFAULT_MMAP_THRESHOLD_MAX` (32 MiB on 64-bit),
    /// header and page rounding included.
    const BYTES: usize = (32 << 20) - (64 << 10);
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let mut block = Vec::<u8>::new();
        // A refusal (strict overcommit) only leaves the thresholds alone.
        let _ = block.try_reserve_exact(BYTES);
        // Keeps the optimiser from eliding the allocate/free pair.
        drop(std::hint::black_box(block));
    });
}

/// The ADAMANT executor: plugged devices + task registry + configuration.
pub struct Executor {
    devices: DeviceRegistry,
    tasks: TaskRegistry,
    config: ExecutorConfig,
    last_stats: Option<ExecutionStats>,
    residency: Option<ResidencyCache>,
    /// Devices hot-added since the last run; drained into
    /// [`ExecutionStats::hot_adds`] by the next run.
    pending_hot_adds: usize,
}

impl Executor {
    /// Creates an executor around a task registry.
    pub fn new(tasks: TaskRegistry, config: ExecutorConfig) -> Self {
        keep_freed_buffers_mapped();
        Executor {
            devices: DeviceRegistry::new(),
            tasks,
            config,
            last_stats: None,
            residency: None,
            pending_hot_adds: 0,
        }
    }

    /// Plugs a device and installs every matching kernel on it.
    pub fn add_device(&mut self, device: Box<dyn Device>) -> Result<DeviceId> {
        let id = self.devices.add(device);
        let dev = self.devices.get_mut(id)?;
        self.tasks.install_on(dev.as_mut())?;
        Ok(id)
    }

    /// Convenience: builds and plugs a device from a profile.
    pub fn add_profile(&mut self, profile: &DeviceProfile) -> Result<DeviceId> {
        // The id baked into the built device matches the one the registry
        // will assign. Ids are never reused after a removal, so this must
        // come from the registry, not from counting live devices.
        let next = self.devices.peek_next_id();
        self.add_device(Box::new(profile.build(next)))
    }

    /// Hot-adds a device between runs: [`Executor::add_device`], counted
    /// in the next run's [`ExecutionStats::hot_adds`]. Placement and the
    /// cost model pick it up on the next run without any rebuild.
    pub fn attach_device(&mut self, device: Box<dyn Device>) -> Result<DeviceId> {
        let id = self.add_device(device)?;
        self.pending_hot_adds += 1;
        Ok(id)
    }

    /// Convenience: builds and hot-adds a device from a profile (see
    /// [`Executor::attach_device`]).
    pub fn attach_profile(&mut self, profile: &DeviceProfile) -> Result<DeviceId> {
        let next = self.devices.peek_next_id();
        self.attach_device(Box::new(profile.build(next)))
    }

    /// The plugged devices.
    pub fn devices(&self) -> &DeviceRegistry {
        &self.devices
    }

    /// Mutable device access (benches tweak cost models between runs).
    pub fn devices_mut(&mut self) -> &mut DeviceRegistry {
        &mut self.devices
    }

    /// The configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Statistics of the most recent run, kept even when the run failed —
    /// the only way to observe retries and deadline aborts of a query that
    /// returned an error. `None` after a run (or a
    /// [`prepare`](Executor::prepare)) that failed before it started: a
    /// run that never began has no counters, and must not report the
    /// previous run's.
    pub fn last_run_stats(&self) -> Option<&ExecutionStats> {
        self.last_stats.as_ref()
    }

    /// Installs a fault plan on one device (testing / chaos runs).
    pub fn set_fault_plan(
        &mut self,
        device: DeviceId,
        plan: adamant_device::FaultPlan,
    ) -> Result<()> {
        self.devices
            .get_mut(device)?
            .state_mut()
            .faults
            .install(plan);
        Ok(())
    }

    /// Enables the cross-query residency cache: hot input columns stay
    /// pinned device-side between runs (up to `config.max_bytes_per_device`
    /// per device), with LRU-by-modeled-transfer-cost eviction. Replaces
    /// any previous cache, freeing its pins.
    pub fn set_residency_cache(&mut self, config: ResidencyConfig) {
        self.clear_residency();
        self.residency = Some(ResidencyCache::new(config));
    }

    /// Drops the residency cache and frees every pinned buffer it holds,
    /// releasing the admission bytes reserved against each device pool.
    pub fn clear_residency(&mut self) {
        if let Some(mut cache) = self.residency.take() {
            cache.clear(&mut self.devices);
        }
    }

    /// Evicts residency pins on `device` until at least `bytes` of
    /// admission budget is available (or no pins remain). Returns the bytes
    /// freed. The scheduler calls this before failing an admission so
    /// cache pins always yield to query reservations —
    /// pins can starve, admissions cannot.
    pub fn evict_residency_for_admission(&mut self, device: DeviceId, bytes: u64) -> u64 {
        match self.residency.as_mut() {
            Some(cache) => cache.evict_for_admission(&mut self.devices, device, bytes),
            None => 0,
        }
    }

    /// Executes `graph` over `inputs` under `model`.
    ///
    /// Returns exact query outputs plus the modeled execution statistics.
    pub fn run(
        &mut self,
        graph: &PrimitiveGraph,
        inputs: &QueryInputs,
        model: ExecutionModel,
    ) -> Result<(QueryOutput, ExecutionStats)> {
        self.run_with_deadline(graph, inputs, model, None)
    }

    /// Like [`Executor::run`] under a budget of `deadline_ns` modeled ns
    /// (`None`: unbounded). The recovery loop checks the budget before each
    /// attempt, the streaming loops between chunks and the whole-input loop
    /// between nodes; a run over budget unwinds like the OOM path (buffers
    /// released) and returns [`ExecError::DeadlineExceeded`].
    ///
    /// It is [`Executor::prepare`] followed by [`Executor::run_prepared`]
    /// with each pipeline starting on its annotated device; the reported
    /// `wall_ns` includes the preparation.
    pub fn run_with_deadline(
        &mut self,
        graph: &PrimitiveGraph,
        inputs: &QueryInputs,
        model: ExecutionModel,
        deadline_ns: Option<f64>,
    ) -> Result<(QueryOutput, ExecutionStats)> {
        let wall = Instant::now();
        let prepared = self.prepare(graph)?;
        self.execute(&prepared, inputs, model, None, deadline_ns, wall)
    }

    /// Derives once what every run of `graph` needs: the graph fused when
    /// this executor fuses ([`ExecutorConfig::fusion`]), its pipelines, the
    /// values escaping them and each node's kernel scalars. Fails with
    /// [`ExecError::InvalidGraph`] where a run of `graph` would, and clears
    /// [`Executor::last_run_stats`] either way.
    pub fn prepare(&mut self, graph: &PrimitiveGraph) -> Result<Prepared> {
        self.last_stats = None;
        Prepared::new(graph, self.config.fusion)
    }

    /// Runs a prepared plan over `inputs` under `model`, every pipeline
    /// starting on `device` (`None`: on the device its nodes are annotated
    /// with); recovery moves pipelines from there as in any run. The plan
    /// is only read, so one `Prepared` serves any number of runs on any
    /// device. The multi-query scheduler passes the device it admitted the
    /// query on and the query's *remaining* budget.
    pub fn run_prepared(
        &mut self,
        prepared: &Prepared,
        inputs: &QueryInputs,
        model: ExecutionModel,
        device: Option<DeviceId>,
        deadline_ns: Option<f64>,
    ) -> Result<(QueryOutput, ExecutionStats)> {
        self.execute(prepared, inputs, model, device, deadline_ns, Instant::now())
    }

    /// The one run path; `wall` is when the caller's run began.
    fn execute(
        &mut self,
        prepared: &Prepared,
        inputs: &QueryInputs,
        model: ExecutionModel,
        device: Option<DeviceId>,
        deadline_ns: Option<f64>,
        wall: Instant,
    ) -> Result<(QueryOutput, ExecutionStats)> {
        self.last_stats = None;
        let (graph, pipelines) = (prepared.graph(), prepared.pipelines());
        self.validate_inputs(graph, inputs)?;

        // Fresh clocks for this run (the pools' peak watermarks are not
        // reset); snapshot the fault counters so the stats report this
        // run's injections only.
        let mut fault_base: BTreeMap<DeviceId, u64> = BTreeMap::new();
        for id in self.devices.ids() {
            let dev = self.devices.get_mut(id)?;
            dev.clock_mut().reset();
            fault_base.insert(id, dev.state().faults.counters().total());
        }

        let mut hub = DataTransferHub::new();
        // The hub verifies every host↔device transfer end-to-end; a corrupted
        // transfer gets as many retransmissions as the retry policy grants
        // attempts before the error surfaces to the recovery loop.
        hub.set_retransmit_budget(
            u32::try_from(self.config.retry.max_attempts).unwrap_or(u32::MAX),
        );
        let fusion_report = prepared.fusion_report();
        let stats = ExecutionStats {
            model: model.name().to_string(),
            pipelines: pipelines.len(),
            hot_adds: std::mem::take(&mut self.pending_hot_adds),
            nodes_fused: fusion_report.nodes_fused,
            fused_chains: fusion_report.fused_chains,
            ..Default::default()
        };
        let placement = self.starting_placement(graph, pipelines, device);
        // Lend the cross-query residency cache to this run's hub.
        if let Some(cache) = self.residency.take() {
            hub.install_cache(cache);
        }
        let mut cx = RunCx {
            graph,
            placement,
            inputs,
            cfg: model.config(),
            escaping: &prepared.escaping,
            scalars: &prepared.scalars,
            deadline_ns,
            hub,
            tally: Tally::new(stats),
            ckpt: CheckpointState::new(self.config.checkpoints),
        };
        let run_result = self.run_to_completion(&mut cx, pipelines, &mut fault_base);
        let RunCx {
            mut hub, mut tally, ..
        } = cx;

        // Peaks, byte counts and per-run fault deltas before cleanup.
        for id in self.devices.ids() {
            let base = fault_base.get(&id).copied().unwrap_or(0);
            tally.capture_device(self.devices.get(id)?, base);
        }
        // Silent corruption the hub caught and repaired by retransmitting.
        tally.stats.corruption_retransmits += hub.take_corruption_retransmits() as usize;
        tally.stats.rollback_delete_errors += hub.take_rollback_delete_errors();
        // Delete phase: free everything this run created. Cache pins are not
        // run-created and survive into the next run.
        hub.delete_all(&mut self.devices);
        if let Some(mut cache) = hub.take_cache() {
            let c = cache.take_counters();
            tally.stats.cache_hits += c.hits;
            tally.stats.cache_misses += c.misses;
            tally.stats.cache_evictions += c.evictions;
            tally.stats.cache_invalidations += c.invalidations;
            tally.stats.cache_saved_transfer_ns += c.saved_transfer_ns;
            tally.stats.cache_pinned_bytes = cache.total_pinned_bytes();
            self.residency = Some(cache);
        }
        tally.fold_all(&mut self.devices);
        let stats = tally.finish(wall.elapsed().as_nanos() as u64);
        self.last_stats = Some(stats.clone());
        let output = run_result?;
        Ok((output, stats))
    }

    fn validate_inputs(&self, graph: &PrimitiveGraph, inputs: &QueryInputs) -> Result<()> {
        let mut scan_lens: HashMap<&str, usize> = HashMap::new();
        for gi in graph.inputs() {
            let col = inputs
                .get(&gi.name)
                .ok_or_else(|| ExecError::MissingInput(gi.name.clone()))?;
            if let Some(scan) = &gi.scan {
                match scan_lens.get(scan.as_str()) {
                    Some(&len) if len != col.len() => {
                        return Err(ExecError::InputLengthMismatch {
                            scan: scan.clone(),
                            expected: len,
                            actual: col.len(),
                        })
                    }
                    None => {
                        scan_lens.insert(scan.as_str(), col.len());
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}
