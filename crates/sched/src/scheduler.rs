//! The multi-query scheduler: admission control, fair queuing, and
//! device-time sharing over one [`Executor`]'s simulated timeline.
//!
//! # How concurrency works on a simulated timeline
//!
//! Queries produce *exact* results, so each admitted query really executes
//! (sequentially, at admission time) — but its modeled device time is
//! captured as per-chunk slices (`ExecutionStats::slice_ns`) rather than
//! charged to the shared clock immediately. The scheduler then interleaves
//! the slices of all admitted queries under weighted fair queuing, which
//! reconstructs the timeline a chunk-granular time-sliced device would
//! have produced: results stay reference-exact, while waiting, fair-share
//! ratios and makespans reflect genuine contention.
//!
//! The scheduler keeps one record per tenant (weight, queue, fair-queuing
//! pass, statistics — `crate::tenant`) and one per admitted query, which
//! carries its device-memory reservation. A query is admitted only when
//! its estimated footprint fits the target device's unreserved capacity,
//! so concurrent queries cannot OOM each other. Queued queries age
//! multiplicatively so no tenant starves, with earliest-deadline-first
//! among equal priorities.
//!
//! With a preemption slack set, the slice-serving loop additionally
//! preempts: when an active query turns *urgent* (its deadline slack has
//! shrunk to the configured slack or below), every lower-urgency active
//! query is suspended — remaining slices parked, tenant WFQ pass frozen —
//! until the urgent slices drain, after which the suspended queries resume
//! and catch up the service they were denied. Either way a completed query
//! whose finish time exceeded its own deadline is reported `Completed {
//! missed_deadline: true }` and counted in `SchedulerStats::deadline_misses`,
//! never as silent success.

use crate::estimate::estimate_footprint_bytes;
use crate::stats::SchedulerStats;
use crate::tenant::{admission_candidate, next_to_serve, start, Queued, Tenant};
use adamant_core::error::{ExecError, Result};
use adamant_core::executor::{Executor, QueryInputs};
use adamant_core::graph::PrimitiveGraph;
use adamant_core::models::ExecutionModel;
use adamant_core::prepared::Prepared;
use adamant_core::result::QueryOutput;
use adamant_core::stats::ExecutionStats;
use adamant_device::device::DeviceId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One query submission: the plan, its inputs, and per-query scheduling
/// knobs.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    plan: Plan,
    inputs: QueryInputs,
    model: ExecutionModel,
    footprint_bytes: Option<u64>,
    deadline_ns: Option<f64>,
}

/// What a query runs.
#[derive(Clone, Debug)]
enum Plan {
    /// A graph, retargeted to the admitted device and prepared at
    /// admission.
    Graph(PrimitiveGraph),
    /// A plan prepared once and shared: run as it is, on the admitted
    /// device.
    Prepared(Arc<Prepared>),
}

impl QuerySpec {
    /// A query running `graph` over `inputs` under `model`, with the
    /// scheduler free to place it and no deadline.
    pub fn new(graph: PrimitiveGraph, inputs: QueryInputs, model: ExecutionModel) -> Self {
        QuerySpec::with_plan(Plan::Graph(graph), inputs, model)
    }

    /// A query running an already prepared plan: admission neither clones,
    /// fuses nor splits it, and every pipeline starts on the admitted device
    /// whatever the plan's annotations say. `Session::sql` submits the plan
    /// its statement cache keeps.
    pub fn prepared(prepared: Arc<Prepared>, inputs: QueryInputs, model: ExecutionModel) -> Self {
        QuerySpec::with_plan(Plan::Prepared(prepared), inputs, model)
    }

    fn with_plan(plan: Plan, inputs: QueryInputs, model: ExecutionModel) -> Self {
        QuerySpec {
            plan,
            inputs,
            model,
            footprint_bytes: None,
            deadline_ns: None,
        }
    }

    /// Overrides the admission footprint estimate. `Session::sql` passes
    /// the [`estimate_footprint_bytes`] value it cached with the compiled
    /// statement; without this the scheduler walks the primitive graph at
    /// admission (a prepared plan's own graph, fused when it was).
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        self.footprint_bytes = Some(bytes);
        self
    }

    /// Sets a modeled-ns budget measured from *submission*: time spent
    /// queued counts against it, and a query whose remaining budget cannot
    /// cover the cheapest modeled placement is shed instead of admitted.
    pub fn with_deadline_ns(mut self, deadline_ns: f64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }
}

/// Handle identifying a submitted query in the [`SchedReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryTicket(u64);

/// Why a query was shed — typed so callers can react programmatically
/// (retry, re-queue, alert) instead of parsing reason strings. The
/// discriminants are explicit because `sched_preempt`'s pinned decision
/// hash folds them (`reason as i64`); they start at 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Its deadline expired while it was still queued.
    DeadlineExpired = 1,
    /// Its remaining budget was below the cheapest modeled placement.
    BudgetExceeded = 2,
    /// It was admitted against capacity a permanent device death took
    /// away, and no survivor could absorb its reservation.
    CapacityLost = 3,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedReason::DeadlineExpired => "deadline expired while queued",
            ShedReason::BudgetExceeded => "remaining budget below cheapest modeled placement",
            ShedReason::CapacityLost => "admitted capacity lost to device death",
        })
    }
}

/// What happened to one submitted query.
#[derive(Debug)]
pub enum QueryOutcome {
    /// Ran to completion with exact outputs.
    Completed {
        /// The query's outputs (reference-exact).
        output: QueryOutput,
        /// Per-run executor statistics.
        stats: Box<ExecutionStats>,
        /// Modeled ns spent queued before admission.
        wait_ns: f64,
        /// Virtual time on the shared timeline when the query finished.
        finish_ns: f64,
        /// True when the query had a deadline and `finish_ns` exceeded it:
        /// admitted in time, but WFQ interleaving pushed it past its budget.
        /// Counted in [`crate::SchedulerStats::deadline_misses`] — a late
        /// completion is never reported as silent success.
        missed_deadline: bool,
    },
    /// Admitted but failed during execution.
    Failed {
        /// The executor error.
        error: ExecError,
    },
    /// Shed: deadline unmeetable, or its admitted capacity vanished with
    /// a dead device and no survivor could take it.
    Shed {
        /// Why it was shed.
        reason: ShedReason,
    },
    /// Rejected: its footprint exceeds every device, so no amount of
    /// waiting could admit it.
    Rejected {
        /// Why it was rejected.
        reason: String,
    },
}

/// Result of one [`QueryScheduler::run_all`] drain: per-ticket outcomes
/// plus a snapshot of the cumulative scheduler statistics.
#[derive(Debug)]
pub struct SchedReport {
    outcomes: BTreeMap<u64, QueryOutcome>,
    stats: SchedulerStats,
}

impl SchedReport {
    /// The outcome for one ticket (`None` if it was not drained by this
    /// call).
    pub fn outcome(&self, ticket: QueryTicket) -> Option<&QueryOutcome> {
        self.outcomes.get(&ticket.0)
    }

    /// Removes and returns the outcome for one ticket, handing the caller
    /// ownership of the output and statistics (a serving layer returning
    /// results to a client wants to move them, not clone them).
    pub fn take_outcome(&mut self, ticket: QueryTicket) -> Option<QueryOutcome> {
        self.outcomes.remove(&ticket.0)
    }

    /// The completed output for one ticket, or `None` for any other
    /// outcome.
    pub fn output(&self, ticket: QueryTicket) -> Option<&QueryOutput> {
        match self.outcomes.get(&ticket.0) {
            Some(QueryOutcome::Completed { output, .. }) => Some(output),
            _ => None,
        }
    }

    /// Modeled queue wait for one completed ticket.
    pub fn wait_ns(&self, ticket: QueryTicket) -> Option<f64> {
        match self.outcomes.get(&ticket.0) {
            Some(QueryOutcome::Completed { wait_ns, .. }) => Some(*wait_ns),
            _ => None,
        }
    }

    /// Whether a completed ticket finished past its own deadline (`None`
    /// for any non-completed outcome).
    pub fn missed_deadline(&self, ticket: QueryTicket) -> Option<bool> {
        match self.outcomes.get(&ticket.0) {
            Some(QueryOutcome::Completed {
                missed_deadline, ..
            }) => Some(*missed_deadline),
            _ => None,
        }
    }

    /// Virtual finish time for one completed ticket.
    pub fn finish_ns(&self, ticket: QueryTicket) -> Option<f64> {
        match self.outcomes.get(&ticket.0) {
            Some(QueryOutcome::Completed { finish_ns, .. }) => Some(*finish_ns),
            _ => None,
        }
    }

    /// All outcomes, keyed by raw ticket number.
    pub fn outcomes(&self) -> &BTreeMap<u64, QueryOutcome> {
        &self.outcomes
    }

    /// Scheduler statistics snapshot (cumulative across `run_all` calls).
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }
}

/// An admitted query replaying its recorded slices on the shared timeline.
struct Active {
    ticket: u64,
    /// Index of the owning record in `QueryScheduler::tenants`.
    tenant: usize,
    /// The device the query runs on and holds its admission reservation of
    /// `reserved` bytes against, from admission until it finishes.
    device: DeviceId,
    reserved: u64,
    slices: VecDeque<f64>,
    /// Cached `slices` sum, decremented as slices serve (urgency checks
    /// run every loop iteration; re-summing would be quadratic).
    remaining_ns: f64,
    /// Absolute deadline on the shared timeline, if any.
    deadline_vt: Option<f64>,
    /// Parked by preemption: slices stay queued, no service, no `run_ns`.
    suspended: bool,
    output: QueryOutput,
    stats: Box<ExecutionStats>,
    wait_ns: f64,
}

impl Active {
    /// Urgency at `now_ns`: a deadline query whose slack (`deadline − now −
    /// remaining work`) has shrunk to `slack_ns` or less. Monotone: serving
    /// the query itself keeps its slack constant, serving anyone else
    /// shrinks it — once urgent, always urgent.
    fn urgent(&self, now_ns: f64, slack_ns: f64) -> bool {
        self.deadline_vt
            .is_some_and(|d| d - now_ns - self.remaining_ns <= slack_ns)
    }
}

/// Schedules many queries over one executor: admission control against the
/// device pools, weighted fair queuing across tenants, and chunk-granular
/// device-time sharing on the simulated timeline.
///
/// Borrow it from the facade (`Adamant::session()`) or build one directly
/// over any [`Executor`]. Dropping the scheduler drops any queries not yet
/// drained by [`QueryScheduler::run_all`].
pub struct QueryScheduler<'e> {
    executor: &'e mut Executor,
    /// Every tenant ever registered or submitted for, in registration order
    /// (the fair-queuing tie-break).
    tenants: Vec<Tenant>,
    next_ticket: u64,
    now_ns: f64,
    /// Urgency headroom for preemption (see `Active::urgent`); `None`
    /// serves pure weighted-fair interleaving.
    preempt_slack_ns: Option<f64>,
    /// Scheduler-wide counters; the per-tenant map is built from `tenants`
    /// when a report is taken.
    stats: SchedulerStats,
}

impl<'e> QueryScheduler<'e> {
    /// Creates a scheduler over `executor` with the default aging horizon.
    /// With `preempt_slack_ns` set, a deadline query whose slack shrinks to
    /// that value suspends lower-urgency running queries until its own
    /// slices drain; `None` disables preemption.
    pub fn new(executor: &'e mut Executor, preempt_slack_ns: Option<f64>) -> Self {
        QueryScheduler {
            executor,
            tenants: Vec::new(),
            next_ticket: 1,
            now_ns: 0.0,
            preempt_slack_ns,
            stats: SchedulerStats::default(),
        }
    }

    /// Registers `name` with a fair-share `weight` (kept within
    /// `[1e-9, f64::MAX]`).
    /// Unregistered tenants that submit get weight 1.0. Re-registering
    /// updates the weight for future scheduling decisions.
    pub fn tenant(&mut self, name: &str, weight: f64) -> &mut Self {
        match self.tenants.iter_mut().find(|t| t.name == name) {
            Some(t) => t.set_weight(weight),
            None => self.tenants.push(Tenant::new(name, weight)),
        }
        self
    }

    /// Enqueues `spec` for `tenant`; the query runs on the next
    /// [`QueryScheduler::run_all`].
    pub fn submit(&mut self, tenant: &str, spec: QuerySpec) -> QueryTicket {
        let i = match self.tenants.iter().position(|t| t.name == tenant) {
            Some(i) => i,
            None => {
                self.tenants.push(Tenant::new(tenant, 1.0));
                self.tenants.len() - 1
            }
        };
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.tenants[i].push(Queued {
            ticket,
            submit_vt: self.now_ns,
            deadline_vt: spec.deadline_ns.map(|d| self.now_ns + d),
            spec,
        });
        QueryTicket(ticket)
    }

    /// Drains every submitted query: admits against the device pools,
    /// interleaves admitted queries' device time under weighted fair
    /// queuing, and returns per-ticket outcomes. Deterministic for a given
    /// submission order and executor state.
    pub fn run_all(&mut self) -> SchedReport {
        let mut outcomes: BTreeMap<u64, QueryOutcome> = BTreeMap::new();
        let mut active: Vec<Active> = Vec::new();

        loop {
            // Admission: keep admitting the best candidate until the gate
            // holds (reservation doesn't fit) or the queues drain.
            let mut gate_held = false;
            while !gate_held {
                let Some(ti) = admission_candidate(&self.tenants, self.now_ns) else {
                    break;
                };
                match self.try_admit(ti, &active, &mut outcomes) {
                    Admit::Started(act) => {
                        start(&mut self.tenants, ti);
                        active.push(*act);
                    }
                    Admit::Resolved => {}
                    Admit::Hold => {
                        // Highest-priority candidate can't fit until a
                        // running query frees its reservation; serving a
                        // slice is the only way forward.
                        gate_held = true;
                    }
                }
                // The run inside try_admit may have lost a device for good
                // (the executor unplugs it on the first `Gone`). Re-home the
                // active set's reservations with the new membership before
                // the next fits-check trusts stale capacity.
                self.reconcile_membership(&mut active, &mut outcomes);
            }

            if active.is_empty() {
                // Nothing is running, yet the head candidate still can't
                // reserve: no future completion can free memory for it.
                let Some(ti) = admission_candidate(&self.tenants, self.now_ns) else {
                    break;
                };
                let q = self.tenants[ti].queue.pop_front().expect("queued head");
                self.reject(
                    ti,
                    q.ticket,
                    "footprint cannot be reserved on an idle engine",
                    &mut outcomes,
                );
                continue;
            }

            // Preemption: (re)classify urgency at the current virtual time —
            // suspend lower-urgency queries while any urgent query is
            // active, resume them once the urgent work drains.
            if let Some(slack_ns) = self.preempt_slack_ns {
                self.apply_preemption(&mut active, slack_ns);
            }

            // Serve one slice to the WFQ-chosen tenant's next eligible
            // admitted query. A tenant is servable while it has a
            // non-suspended active query; a parked tenant stays running,
            // uncharged, so its pass stays frozen.
            let servable = |i: usize| active.iter().any(|a| !a.suspended && a.tenant == i);
            let Some(ti) = next_to_serve(&self.tenants, servable) else {
                debug_assert!(false, "active queries but no servable tenant");
                break;
            };
            let contended = active.iter().any(|a| a.tenant != active[0].tenant);
            // Within the chosen tenant: non-suspended queries only, earliest
            // deadline first (with preemption on), then ticket order — which
            // is admission order, since a tenant's queue is FIFO. So when a
            // tenant holds both an urgent and a parked query, the urgent
            // one's slices drain first.
            let edf = self.preempt_slack_ns.is_some();
            let idx = active
                .iter()
                .enumerate()
                .filter(|(_, a)| a.tenant == ti && !a.suspended)
                .min_by(|(_, x), (_, y)| {
                    let deadline = |a: &Active| match a.deadline_vt {
                        Some(d) if edf => d,
                        _ => f64::INFINITY,
                    };
                    deadline(x)
                        .total_cmp(&deadline(y))
                        .then(x.ticket.cmp(&y.ticket))
                })
                .map(|(i, _)| i)
                .expect("servable tenant has a non-suspended query");
            let slice = active[idx].slices.pop_front().unwrap_or(0.0);
            active[idx].remaining_ns = (active[idx].remaining_ns - slice).max(0.0);
            self.now_ns += slice;
            self.stats.slices += 1;
            self.stats.makespan_ns = self.now_ns;
            let t = &mut self.tenants[ti];
            t.charge(slice);
            t.stats.run_ns += slice;
            if contended {
                t.stats.contended_run_ns += slice;
            }

            if active[idx].slices.is_empty() {
                let done = active.swap_remove(idx);
                release(self.executor, done.device, done.reserved);
                self.stats.completed += 1;
                // Deadline-exact accounting: a query that was admitted in
                // time but finished late is a counted miss, not a silent
                // success.
                let missed = done.deadline_vt.is_some_and(|d| self.now_ns > d);
                let t = &mut self.tenants[done.tenant];
                t.finish();
                t.stats.completed += 1;
                if missed {
                    self.stats.deadline_misses += 1;
                    t.stats.deadline_misses += 1;
                }
                outcomes.insert(
                    done.ticket,
                    QueryOutcome::Completed {
                        output: done.output,
                        stats: done.stats,
                        wait_ns: done.wait_ns,
                        finish_ns: self.now_ns,
                        missed_deadline: missed,
                    },
                );
            }
        }

        let mut stats = self.stats.clone();
        stats.tenants = self
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.stats()))
            .collect();
        SchedReport { outcomes, stats }
    }

    /// One preemption pass at the current virtual time: while any active
    /// query is urgent, every non-urgent active query is suspended (its
    /// remaining slices parked, accruing no `run_ns`); once no urgency
    /// remains, everything suspended is resumed.
    fn apply_preemption(&mut self, active: &mut [Active], slack_ns: f64) {
        let now = self.now_ns;
        let any_urgent = active.iter().any(|a| a.urgent(now, slack_ns));
        for a in active.iter_mut() {
            let urgent = a.urgent(now, slack_ns);
            if any_urgent && !urgent && !a.suspended {
                a.suspended = true;
                self.stats.preemptions += 1;
                self.tenants[a.tenant].stats.preemptions += 1;
            } else if a.suspended && (urgent || !any_urgent) {
                // An urgent query never stays parked (its own deadline is
                // at risk), and once the urgent work drains everyone comes
                // back.
                a.suspended = false;
                self.stats.resumed += 1;
            }
        }
    }

    /// Reconciles the active set's reservations with the executor's current
    /// device membership. A query whose device no longer exists (it died
    /// mid-run and was unplugged) has its reservation forgotten without
    /// touching the corpse's pool — the engine's write-off reconciles that —
    /// and is re-admitted against the surviving devices (ascending id,
    /// first fit, evicting residency pins if needed) or, when no survivor
    /// can take its reservation, shed with the typed
    /// [`ShedReason::CapacityLost`] — never silently wedged.
    fn reconcile_membership(
        &mut self,
        active: &mut Vec<Active>,
        outcomes: &mut BTreeMap<u64, QueryOutcome>,
    ) {
        let live = self.executor.devices().ids();
        for ticket in displaced(active, &live) {
            let idx = active
                .iter()
                .position(|a| a.ticket == ticket)
                .expect("displaced query is active");
            let bytes = active[idx].reserved;
            match live
                .iter()
                .copied()
                .find(|&cand| reserve(self.executor, cand, bytes).is_ok())
            {
                Some(cand) => active[idx].device = cand,
                None => {
                    let gone = active.remove(idx);
                    self.stats.shed_capacity_lost += 1;
                    self.tenants[gone.tenant].finish();
                    self.shed(gone.tenant, gone.ticket, ShedReason::CapacityLost, outcomes);
                }
            }
        }
    }

    /// Tries to admit tenant `ti`'s head-of-line query. `Started` hands back
    /// a running query, `Resolved` means the candidate was consumed without
    /// running (shed/rejected/failed), `Hold` leaves it queued.
    fn try_admit(
        &mut self,
        ti: usize,
        active: &[Active],
        outcomes: &mut BTreeMap<u64, QueryOutcome>,
    ) -> Admit {
        let head = &self.tenants[ti].queue[0];
        let ticket = head.ticket;

        // Remaining deadline budget after time already spent queued.
        let remaining = head.deadline_vt.map(|dl| dl - self.now_ns);
        if matches!(remaining, Some(r) if r <= 0.0) {
            self.tenants[ti].queue.pop_front();
            self.stats.shed_deadline += 1;
            self.shed(ti, ticket, ShedReason::DeadlineExpired, outcomes);
            return Admit::Resolved;
        }

        let footprint = head.spec.footprint_bytes.unwrap_or_else(|| {
            let graph = match &head.spec.plan {
                Plan::Graph(graph) => graph,
                Plan::Prepared(prepared) => prepared.graph(),
            };
            estimate_footprint_bytes(graph, &head.spec.inputs, self.executor.config().chunk_rows)
        });

        let device = match self.choose_device(footprint, remaining, active) {
            Ok(d) => d,
            Err(Unplaceable::Capacity) => {
                self.tenants[ti].queue.pop_front();
                self.reject(
                    ti,
                    ticket,
                    "estimated footprint exceeds every device's capacity",
                    outcomes,
                );
                return Admit::Resolved;
            }
            Err(Unplaceable::Deadline) => {
                self.tenants[ti].queue.pop_front();
                self.stats.shed_deadline += 1;
                self.shed(ti, ticket, ShedReason::BudgetExceeded, outcomes);
                return Admit::Resolved;
            }
        };

        if reserve(self.executor, device, footprint).is_err() {
            // Doesn't fit next to the currently admitted queries — hold at
            // the gate until a completion frees its reservation.
            return Admit::Hold;
        }

        // Admitted. Execute for real (results must be exact); the modeled
        // time lands on the shared timeline slice by slice.
        let q = self.tenants[ti].queue.pop_front().expect("queued head");
        let wait_ns = (self.now_ns - q.submit_vt).max(0.0);
        self.stats.admitted += 1;
        if wait_ns > 0.0 {
            self.stats.held += 1;
        }
        self.tenants[ti].stats.wait_ns += wait_ns;
        let (inputs, model) = (&q.spec.inputs, q.spec.model);
        let run = match q.spec.plan {
            Plan::Graph(mut graph) => {
                graph.retarget(device);
                self.executor
                    .run_with_deadline(&graph, inputs, model, remaining)
            }
            Plan::Prepared(prepared) => {
                self.executor
                    .run_prepared(&prepared, inputs, model, Some(device), remaining)
            }
        };
        match run {
            Ok((output, stats)) => {
                absorb_robustness_counters(&mut self.stats, &stats);
                let slices: VecDeque<f64> = if stats.slice_ns.is_empty() {
                    VecDeque::from([stats.total_ns])
                } else {
                    stats.slice_ns.iter().copied().collect()
                };
                let remaining_ns = slices.iter().sum();
                Admit::Started(Box::new(Active {
                    ticket,
                    tenant: ti,
                    device,
                    reserved: footprint,
                    slices,
                    remaining_ns,
                    deadline_vt: q.deadline_vt,
                    suspended: false,
                    output,
                    stats: Box::new(stats),
                    wait_ns,
                }))
            }
            Err(e) => {
                // The failed run's counters still describe real watchdog and
                // retransmit activity; the executor keeps them around (and
                // keeps none for a run that failed before it started).
                if let Some(s) = self.executor.last_run_stats() {
                    absorb_robustness_counters(&mut self.stats, s);
                }
                release(self.executor, device, footprint);
                self.fail(ti, ticket, e, outcomes);
                Admit::Resolved
            }
        }
    }
    /// Picks the target device: the cheapest device with capacity — with
    /// the modeled backlog of already-admitted queries added to each
    /// device's cost so concurrent placements spread apart.
    fn choose_device(
        &self,
        footprint: u64,
        remaining_budget: Option<f64>,
        active: &[Active],
    ) -> std::result::Result<DeviceId, Unplaceable> {
        let infos = self.executor.devices().infos();
        let feasible: Vec<_> = infos
            .iter()
            .filter(|i| i.memory_capacity >= footprint)
            .cloned()
            .collect();

        if feasible.is_empty() {
            return Err(Unplaceable::Capacity);
        }

        let costs: Vec<(DeviceId, f64)> = feasible
            .iter()
            .map(|i| {
                let place = self
                    .executor
                    .devices()
                    .get(i.id)
                    .map_or(f64::INFINITY, |d| {
                        d.state().cost.placement_cost_ns(footprint)
                    });
                (i.id, place + backlog_ns(active, i.id))
            })
            .collect();

        // Cheapest feasible device; shed when even the cheapest modeled
        // cost overruns the remaining budget.
        let (best, cost) = costs
            .into_iter()
            .min_by(|(ia, ca), (ib, cb)| ca.total_cmp(cb).then(ia.0.cmp(&ib.0)))
            .expect("feasible set is non-empty");
        if matches!(remaining_budget, Some(b) if cost > b) {
            return Err(Unplaceable::Deadline);
        }
        Ok(best)
    }

    fn shed(
        &mut self,
        ti: usize,
        ticket: u64,
        reason: ShedReason,
        outcomes: &mut BTreeMap<u64, QueryOutcome>,
    ) {
        self.tenants[ti].stats.shed += 1;
        outcomes.insert(ticket, QueryOutcome::Shed { reason });
    }

    fn reject(
        &mut self,
        ti: usize,
        ticket: u64,
        reason: &str,
        outcomes: &mut BTreeMap<u64, QueryOutcome>,
    ) {
        self.stats.rejected_capacity += 1;
        self.tenants[ti].stats.rejected += 1;
        outcomes.insert(
            ticket,
            QueryOutcome::Rejected {
                reason: reason.to_string(),
            },
        );
    }

    fn fail(
        &mut self,
        ti: usize,
        ticket: u64,
        error: ExecError,
        outcomes: &mut BTreeMap<u64, QueryOutcome>,
    ) {
        self.stats.failed += 1;
        self.tenants[ti].stats.failed += 1;
        outcomes.insert(ticket, QueryOutcome::Failed { error });
    }
}

/// Folds one executed query's straggler/corruption counters into the
/// scheduler-level aggregates.
fn absorb_robustness_counters(agg: &mut SchedulerStats, stats: &ExecutionStats) {
    agg.watchdog_fires += stats.watchdog_fires as u64;
    agg.hedged_launches += stats.hedged_launches as u64;
    agg.hedge_wins += stats.hedge_wins as u64;
    agg.corruption_retransmits += stats.corruption_retransmits as u64;
    agg.device_deaths += stats.device_deaths as u64;
    agg.buffers_written_off += stats.buffers_written_off as u64;
    agg.restaged_bytes += stats.restaged_bytes;
    agg.hot_adds += stats.hot_adds as u64;
    agg.checkpoints_taken += stats.checkpoints_taken as u64;
    agg.checkpoint_bytes += stats.checkpoint_bytes;
    agg.resumes += stats.resumes as u64;
    agg.chunks_skipped_on_resume += stats.chunks_skipped_on_resume as u64;
    agg.resume_validation_failures += stats.resume_validation_failures as u64;
}

/// Reserves `bytes` of `device`'s admission budget, failing (and holding
/// nothing) when the device's outstanding reservations cannot take it.
///
/// Residency-cache pins draw from the same budget; when the first attempt
/// fails the executor evicts pins on `device` until the reservation fits
/// (LRU order) and one retry is made. Admissions therefore always win over
/// cache pins — the cache can be starved, the admission queue cannot
/// deadlock behind it.
fn reserve(executor: &mut Executor, device: DeviceId, bytes: u64) -> Result<()> {
    let first = executor
        .devices_mut()
        .get_mut(device)?
        .pool_mut()
        .admission_reserve(bytes);
    if let Err(first_err) = first {
        if executor.evict_residency_for_admission(device, bytes) == 0 {
            return Err(first_err.into());
        }
        executor
            .devices_mut()
            .get_mut(device)?
            .pool_mut()
            .admission_reserve(bytes)?;
    }
    Ok(())
}

/// Returns `bytes` to `device`'s admission budget; nothing to do once the
/// device is gone.
fn release(executor: &mut Executor, device: DeviceId, bytes: u64) {
    if let Ok(dev) = executor.devices_mut().get_mut(device) {
        dev.pool_mut().admission_release(bytes);
    }
}

/// Tickets of the active queries whose device is not in `live`, in
/// (dead device, ticket) order — the order they are re-homed in.
fn displaced(active: &[Active], live: &[DeviceId]) -> Vec<u64> {
    let mut lost: Vec<(DeviceId, u64)> = active
        .iter()
        .filter(|a| !live.contains(&a.device))
        .map(|a| (a.device, a.ticket))
        .collect();
    lost.sort_unstable();
    lost.into_iter().map(|(_, t)| t).collect()
}

/// Modeled ns of already-admitted work still queued for `device` — the
/// congestion term added to placement costs so concurrent queries spread
/// across devices instead of piling onto the one with the best raw cost.
fn backlog_ns(active: &[Active], device: DeviceId) -> f64 {
    active
        .iter()
        .filter(|a| a.device == device)
        .map(|a| a.slices.iter().sum::<f64>())
        .sum()
}

enum Admit {
    Started(Box<Active>),
    Resolved,
    Hold,
}

enum Unplaceable {
    Capacity,
    Deadline,
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_core::checkpoint::CheckpointConfig;
    use adamant_core::executor::ExecutorConfig;
    use adamant_core::residency::ResidencyConfig;
    use adamant_device::profiles::DeviceProfile;
    use adamant_device::sdk::SdkKind;
    use adamant_plan::PlanBuilder;
    use adamant_task::params::AggFunc;
    use adamant_task::registry::TaskRegistry;

    fn executor_on(profile: DeviceProfile, chunk_rows: usize) -> (Executor, DeviceId) {
        let tasks = TaskRegistry::with_defaults(&[SdkKind::Cuda, SdkKind::Host]);
        let mut exec = Executor::new(
            tasks,
            ExecutorConfig {
                chunk_rows,
                ..Default::default()
            },
        );
        let dev = exec.add_profile(&profile).unwrap();
        (exec, dev)
    }

    fn executor() -> (Executor, DeviceId) {
        executor_on(
            DeviceProfile::cuda_rtx2080ti(),
            ExecutorConfig::default().chunk_rows,
        )
    }

    fn reserved(exec: &Executor, dev: DeviceId) -> u64 {
        exec.devices().get(dev).unwrap().pool().admission_reserved()
    }

    fn sum_graph(dev: DeviceId) -> PrimitiveGraph {
        let mut pb = PlanBuilder::new(dev);
        let mut s = pb.scan("t", &["x"]);
        let x = s.materialized(&mut pb, "x").unwrap();
        let sum = pb.agg_block(x, AggFunc::Sum, "s");
        pb.output("s", sum);
        pb.build().unwrap()
    }

    fn run_sum_query(exec: &mut Executor, dev: DeviceId) {
        let mut inputs = QueryInputs::new();
        inputs.bind("x", (0..4096).collect());
        exec.run(&sum_graph(dev), &inputs, ExecutionModel::Chunked)
            .unwrap();
    }

    /// A run that fails before it starts (here: an unbound input) has no
    /// counters of its own; the failure path must not fold the previous
    /// run's into the scheduler's aggregates a second time.
    #[test]
    fn a_run_failing_before_it_starts_counts_nothing() {
        let tasks = TaskRegistry::with_defaults(&[SdkKind::Cuda, SdkKind::Host]);
        let mut exec = Executor::new(
            tasks,
            ExecutorConfig {
                chunk_rows: 256,
                checkpoints: CheckpointConfig::enabled().chunk_interval(2),
                ..Default::default()
            },
        );
        let dev = exec.add_profile(&DeviceProfile::cuda_rtx2080ti()).unwrap();
        let mut inputs = QueryInputs::new();
        inputs.bind("x", (0..4096).collect());
        let mut sched = QueryScheduler::new(&mut exec, None);
        sched.submit(
            "a",
            QuerySpec::new(sum_graph(dev), inputs, ExecutionModel::Chunked),
        );
        let taken = sched.run_all().stats().checkpoints_taken;
        assert!(taken > 0, "the first query takes checkpoints");

        let mut sched = QueryScheduler::new(&mut exec, None);
        let unbound = QuerySpec::new(sum_graph(dev), QueryInputs::new(), ExecutionModel::Chunked)
            .with_footprint(1024);
        let ticket = sched.submit("a", unbound);
        let report = sched.run_all();
        assert!(matches!(
            report.outcome(ticket),
            Some(QueryOutcome::Failed {
                error: ExecError::MissingInput(_)
            })
        ));
        let stats = report.stats();
        assert_eq!((stats.failed, stats.checkpoints_taken), (1, 0));
    }

    #[test]
    fn admission_evicts_cache_pins_instead_of_deadlocking() {
        // The pathological shape: the residency cache holds pins charged
        // against the admission budget, and a query asks for 100% of the
        // device. Pins must yield (LRU-evicted), the reservation must
        // succeed — admission can never starve behind the cache.
        let (mut exec, dev) = executor_on(DeviceProfile::cuda_rtx2080ti(), 256);
        exec.set_residency_cache(ResidencyConfig::new(1 << 20));
        run_sum_query(&mut exec, dev);
        // The pins hold part of the admission budget...
        assert!(
            reserved(&exec, dev) > 0,
            "the run should have pinned its input"
        );
        let pool_total = exec.devices().get(dev).unwrap().pool().capacity();

        // ...yet the full capacity can be reserved: the pins were evicted
        // to make room, not deadlocked against.
        reserve(&mut exec, dev, pool_total).unwrap();
        assert_eq!(reserved(&exec, dev), pool_total);

        // Beyond capacity still fails cleanly (nothing left to evict).
        assert!(reserve(&mut exec, dev, 1).is_err());
        assert_eq!(reserved(&exec, dev), pool_total);

        release(&mut exec, dev, pool_total);
        assert_eq!(reserved(&exec, dev), 0);
    }

    fn active_on(device: DeviceId, ticket: u64, reserved: u64) -> Active {
        Active {
            ticket,
            tenant: 0,
            device,
            reserved,
            slices: VecDeque::from([1.0]),
            remaining_ns: 1.0,
            deadline_vt: None,
            suspended: false,
            output: QueryOutput::default(),
            stats: Box::default(),
            wait_ns: 0.0,
        }
    }

    #[test]
    fn detach_forgets_reservations_without_touching_the_pool() {
        let (mut exec, dev) = executor();
        reserve(&mut exec, dev, 1024).unwrap();
        reserve(&mut exec, dev, 2048).unwrap();
        let active = [
            active_on(DeviceId(9), 3, 512),
            active_on(dev, 2, 2048),
            active_on(dev, 1, 1024),
        ];
        // Queries on a lost device come back in (device, ticket) order.
        assert_eq!(displaced(&active, &[]), vec![1, 2, 3]);
        assert_eq!(displaced(&active, &[dev]), vec![3]);
        assert!(displaced(&active, &[dev, DeviceId(9)]).is_empty());
        // Finding them releases nothing: the pool still carries the charge,
        // which the engine's write-off owns reconciling for a dead device.
        assert_eq!(reserved(&exec, dev), 1024 + 2048);
    }

    #[test]
    fn reserve_without_cache_still_fails_on_oversubscription() {
        let (mut exec, dev) = executor();
        let cap = exec.devices().get(dev).unwrap().pool().capacity();
        reserve(&mut exec, dev, cap).unwrap();
        assert!(reserve(&mut exec, dev, 1).is_err());
        release(&mut exec, dev, cap);
        assert_eq!(reserved(&exec, dev), 0);
    }

    /// A failed reservation holds nothing; a fitting one holds exactly its
    /// bytes until released.
    #[test]
    fn failed_reservation_holds_nothing() {
        let (mut exec, dev) = executor_on(
            DeviceProfile::cuda_rtx2080ti().with_memory(128 << 10, 32 << 10),
            100,
        );
        assert!(reserve(&mut exec, dev, 1 << 30).is_err());
        assert_eq!(
            reserved(&exec, dev),
            0,
            "failed reservation must hold nothing"
        );
        assert!(reserve(&mut exec, dev, 16 << 10).is_ok());
        assert_eq!(reserved(&exec, dev), 16 << 10);
        release(&mut exec, dev, 16 << 10);
        assert_eq!(reserved(&exec, dev), 0);
    }
}
