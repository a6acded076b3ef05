//! Deterministic, scriptable fault injection.
//!
//! A production engine must survive a device that misbehaves: co-processor
//! memory is the scarce resource that forces chunked execution in the first
//! place, and accelerator drivers routinely return transient errors under
//! saturation. A [`FaultPlan`] scripts such failures into a simulated device
//! so the runtime's recovery paths (chunk backoff, device fallback) are
//! testable without hardware — and *deterministically*, so a failing run can
//! be replayed exactly.
//!
//! Faults are counted in [`FaultCounters`], which every device exposes as
//! `state().faults.counters()` ([`crate::device::DeviceState`]); the runtime
//! folds them into its execution statistics so tests and benches can assert
//! that recovery actually happened.

use crate::error::{DeviceError, Result};
use adamant_storage::rng::Rng;

/// Simulated duration of an injected stall, in nanoseconds (~11.6 days):
/// effectively unbounded on any query timeline, so a stalled operation
/// always blows its watchdog budget, while staying far below `f64`
/// precision loss when summed into run totals.
pub const STALL_NS: f64 = 1.0e15;

/// A deterministic script of failures for one device.
///
/// Scripted triggers are based on per-device operation ordinals (allocation
/// count, execute count). Probabilistic triggers ([`FaultPlan::oom_rate`],
/// [`FaultPlan::exec_error_rate`]) draw from a SplitMix64 stream seeded by
/// [`FaultPlan::with_seed`] — never from wall-clock time or OS entropy — so
/// a plan replays identically on every run with the same seed.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// 1-based allocation ordinals that fail with
    /// [`DeviceError::OutOfMemory`]. Each listed ordinal fires exactly once.
    pub oom_on_alloc: Vec<u64>,
    /// The first `n` `execute()` calls fail with a transient driver error.
    pub transient_exec_errors: u64,
    /// Kernels that *always* fail on this device (persistent hardware or
    /// driver defect). Matched against the full kernel name and against the
    /// base name before any `@variant` suffix.
    pub broken_kernels: Vec<String>,
    /// Virtual capacity cap in bytes: allocations that would push pool usage
    /// above the cap fail with [`DeviceError::OutOfMemory`], as if the
    /// device were smaller than its profile advertises.
    pub capacity_cap: Option<u64>,
    /// Seed for the probabilistic triggers below (chaos soaks sweep it).
    /// `None` behaves like seed 0.
    pub seed: Option<u64>,
    /// Probability in `[0, 1]` that any given `execute()` call fails with a
    /// transient driver error (drawn per call from the seeded stream).
    pub exec_error_rate: f64,
    /// Probability in `[0, 1]` that any given allocation fails with
    /// [`DeviceError::OutOfMemory`] (drawn per call from the seeded stream).
    pub oom_rate: f64,
    /// Multiplier applied to every modeled transfer and compute duration —
    /// the straggler knob (a saturated PCIe link, a thermally throttled
    /// part). `1.0` (the default) leaves timing untouched; values below
    /// `1.0` are rejected by the builder.
    pub slowdown_factor: f64,
    /// 1-based `execute()` ordinals whose modeled duration gains
    /// [`STALL_NS`] — an effectively unbounded stall. Each fires once.
    pub stall_on_exec: Vec<u64>,
    /// 1-based transfer ordinals (`place_data` and `retrieve_data` calls
    /// share one counter) whose modeled duration gains [`STALL_NS`].
    pub stall_on_transfer: Vec<u64>,
    /// Probability in `[0, 1]` that any given `place_data`/`retrieve_data`
    /// payload is silently corrupted (one element bit-flipped), drawn from a
    /// seeded stream decoupled from the OOM/exec streams.
    pub corrupt_transfer_rate: f64,
    /// 1-based `place_data` ordinals whose stored payload is corrupted.
    pub corrupt_on_place: Vec<u64>,
    /// 1-based `retrieve_data` ordinals whose returned payload is corrupted
    /// (the stored copy stays intact — an in-flight DMA flip).
    pub corrupt_on_retrieve: Vec<u64>,
    /// Simulated-clock instant (device-cumulative nanoseconds) at which the
    /// device dies *permanently*: the first operation observed at or after
    /// this instant — and every operation thereafter — fails with
    /// [`DeviceError::Gone`]. Terminal, unlike every other trigger.
    pub die_at_ns: Option<f64>,
    /// 1-based `execute()` ordinal at which the device dies permanently
    /// (the listed execution itself fails with [`DeviceError::Gone`]).
    pub die_on_exec_n: Option<u64>,
    /// Probability in `[0, 1]` that any given `execute()` call kills the
    /// device permanently, drawn from a seeded stream decoupled from every
    /// other trigger stream.
    pub death_rate: f64,
    /// 1-based checkpoint-capture ordinals (as observed by this device) at
    /// which the snapshot being captured is damaged in flight, so its
    /// stored checksum no longer matches its content. The executor's
    /// resume-time validation must then reject the snapshot and degrade to
    /// a full restart.
    pub corrupt_checkpoint: Vec<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            oom_on_alloc: Vec::new(),
            transient_exec_errors: 0,
            broken_kernels: Vec::new(),
            capacity_cap: None,
            seed: None,
            exec_error_rate: 0.0,
            oom_rate: 0.0,
            // A neutral multiplier, not zero: the derived default would
            // freeze simulated time entirely.
            slowdown_factor: 1.0,
            stall_on_exec: Vec::new(),
            stall_on_transfer: Vec::new(),
            corrupt_transfer_rate: 0.0,
            corrupt_on_place: Vec::new(),
            corrupt_on_retrieve: Vec::new(),
            die_at_ns: None,
            die_on_exec_n: None,
            death_rate: 0.0,
            corrupt_checkpoint: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fails the `n`-th allocation (1-based) with an out-of-memory error.
    pub fn oom_on_allocation(mut self, n: u64) -> Self {
        self.oom_on_alloc.push(n);
        self
    }

    /// Fails the first `n` kernel executions with a transient driver error.
    pub fn transient_exec_errors(mut self, n: u64) -> Self {
        self.transient_exec_errors = n;
        self
    }

    /// Marks `kernel` as persistently broken on this device.
    pub fn broken_kernel(mut self, kernel: impl Into<String>) -> Self {
        self.broken_kernels.push(kernel.into());
        self
    }

    /// Caps usable device memory at `bytes`.
    pub fn capacity_cap(mut self, bytes: u64) -> Self {
        self.capacity_cap = Some(bytes);
        self
    }

    /// Seeds the probabilistic triggers. The same seed (with the same rates
    /// and the same operation sequence) reproduces the exact same failures.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Makes each `execute()` call fail with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn exec_error_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be in [0, 1]");
        self.exec_error_rate = p;
        self
    }

    /// Makes each allocation fail with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn oom_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be in [0, 1]");
        self.oom_rate = p;
        self
    }

    /// Slows every modeled transfer and compute duration by `factor`
    /// (straggler simulation: `8.0` makes the device 8× slower).
    ///
    /// # Panics
    /// Panics if `factor < 1.0` (a speed-up is not a fault).
    pub fn slowdown(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "slowdown factor must be >= 1.0");
        self.slowdown_factor = factor;
        self
    }

    /// Stalls the `n`-th kernel execution (1-based) for [`STALL_NS`].
    pub fn stall_on_exec(mut self, n: u64) -> Self {
        self.stall_on_exec.push(n);
        self
    }

    /// Stalls the `n`-th transfer (1-based; `place_data` and
    /// `retrieve_data` share the counter) for [`STALL_NS`].
    pub fn stall_on_transfer(mut self, n: u64) -> Self {
        self.stall_on_transfer.push(n);
        self
    }

    /// Makes each transfer silently corrupt its payload with probability
    /// `p` (drawn per call from a seeded stream decoupled from the
    /// OOM/exec streams, so adding corruption never perturbs their
    /// sequences).
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn corrupt_transfer_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be in [0, 1]");
        self.corrupt_transfer_rate = p;
        self
    }

    /// Corrupts the stored payload of the `n`-th `place_data` (1-based).
    pub fn corrupt_on_place(mut self, n: u64) -> Self {
        self.corrupt_on_place.push(n);
        self
    }

    /// Corrupts the returned payload of the `n`-th `retrieve_data`
    /// (1-based); the stored copy stays intact.
    pub fn corrupt_on_retrieve(mut self, n: u64) -> Self {
        self.corrupt_on_retrieve.push(n);
        self
    }

    /// Kills the device permanently once its simulated clock reaches `ns`
    /// (the first operation at or past that instant fails with
    /// [`DeviceError::Gone`], and so does everything after it).
    ///
    /// # Panics
    /// Panics if `ns` is negative or not finite.
    pub fn die_at_ns(mut self, ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "death instant must be >= 0");
        self.die_at_ns = Some(ns);
        self
    }

    /// Kills the device permanently on its `n`-th `execute()` call
    /// (1-based); that call and every later operation fail with
    /// [`DeviceError::Gone`].
    pub fn die_on_exec(mut self, n: u64) -> Self {
        self.die_on_exec_n = Some(n);
        self
    }

    /// Makes each `execute()` call kill the device permanently with
    /// probability `p` (drawn per call from a seeded stream decoupled from
    /// the OOM/exec/corruption streams, so enabling death never perturbs
    /// their sequences).
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn death_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be in [0, 1]");
        self.death_rate = p;
        self
    }

    /// Damages the `n`-th checkpoint capture this device observes (1-based).
    pub fn corrupt_checkpoint(mut self, n: u64) -> Self {
        self.corrupt_checkpoint.push(n);
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.oom_on_alloc.is_empty()
            && self.transient_exec_errors == 0
            && self.broken_kernels.is_empty()
            && self.capacity_cap.is_none()
            && self.exec_error_rate == 0.0
            && self.oom_rate == 0.0
            && self.slowdown_factor == 1.0
            && self.stall_on_exec.is_empty()
            && self.stall_on_transfer.is_empty()
            && self.corrupt_transfer_rate == 0.0
            && self.corrupt_on_place.is_empty()
            && self.corrupt_on_retrieve.is_empty()
            && self.die_at_ns.is_none()
            && self.die_on_exec_n.is_none()
            && self.death_rate == 0.0
            && self.corrupt_checkpoint.is_empty()
    }
}

/// Counts of injected faults, per device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Out-of-memory errors injected (ordinal triggers + capacity cap).
    pub oom_injected: u64,
    /// Transient execute errors injected.
    pub transient_exec_injected: u64,
    /// Executions rejected because the kernel is scripted as broken.
    pub broken_kernel_hits: u64,
    /// Operations stalled for [`STALL_NS`] (transfer + execute ordinals).
    pub stalls_injected: u64,
    /// Transfer payloads silently corrupted (scripted + probabilistic).
    pub corruptions_injected: u64,
    /// Permanent device deaths injected (at most 1 per install — death is
    /// terminal).
    pub deaths_injected: u64,
    /// Checkpoint snapshots damaged in flight (scripted capture ordinals).
    pub checkpoint_corruptions_injected: u64,
}

impl FaultCounters {
    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.oom_injected
            + self.transient_exec_injected
            + self.broken_kernel_hits
            + self.stalls_injected
            + self.corruptions_injected
            + self.deaths_injected
            + self.checkpoint_corruptions_injected
    }
}

/// What the fault plan decided for one transfer (`place_data` or
/// `retrieve_data`): how much injected stall time to charge on top of the
/// modeled duration, and whether (and where) to flip a bit in the payload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransferFault {
    /// Extra simulated nanoseconds to charge ([`STALL_NS`] when stalled).
    pub stall_ns: f64,
    /// Whether the payload must be corrupted.
    pub corrupt: bool,
    /// Deterministic element index to flip when corrupting (callers take it
    /// modulo the payload length).
    pub corrupt_at: u64,
}

/// Live fault-injection state: the plan plus per-device ordinals and the
/// seeded streams behind the probabilistic triggers.
#[derive(Clone, Debug, Default)]
pub struct FaultState {
    plan: FaultPlan,
    allocs_seen: u64,
    execs_seen: u64,
    transfers_seen: u64,
    places_seen: u64,
    retrieves_seen: u64,
    checkpoints_seen: u64,
    counters: FaultCounters,
    /// Separate streams for allocation, execution and corruption draws, so
    /// the trigger kinds do not perturb each other's sequences.
    alloc_rng: Option<Rng>,
    exec_rng: Option<Rng>,
    corrupt_rng: Option<Rng>,
    death_rng: Option<Rng>,
}

impl FaultState {
    /// Installs a new plan, resetting ordinals, counters and the seeded
    /// streams (re-installing the same plan replays the same failures).
    pub fn install(&mut self, plan: FaultPlan) {
        let seed = plan.seed.unwrap_or(0);
        let (alloc_rng, exec_rng) = if plan.oom_rate > 0.0 || plan.exec_error_rate > 0.0 {
            (
                Some(Rng::new(seed)),
                Some(Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15)),
            )
        } else {
            (None, None)
        };
        // Its own stream and xor constant: enabling corruption must never
        // shift the alloc/exec draw sequences of an existing plan.
        let corrupt_rng = if plan.corrupt_transfer_rate > 0.0 {
            Some(Rng::new(seed ^ 0xC2B2_AE3D_27D4_EB4F))
        } else {
            None
        };
        // Death draws live on their own stream too: enabling a death rate
        // must never shift the alloc/exec/corruption sequences of an
        // existing plan (chaos soaks rely on that stability).
        let death_rng = if plan.death_rate > 0.0 {
            Some(Rng::new(seed ^ 0x94D0_49BB_1331_11EB))
        } else {
            None
        };
        *self = FaultState {
            plan,
            alloc_rng,
            exec_rng,
            corrupt_rng,
            death_rng,
            ..FaultState::default()
        };
    }

    /// Zeroes the injected-fault counters without touching the plan,
    /// ordinals, or seeded streams (back-to-back soak iterations start from
    /// a clean slate).
    pub fn reset_counters(&mut self) {
        self.counters = FaultCounters::default();
    }

    /// Whether the plan's wall-clock death trigger has fired: true once the
    /// device's cumulative simulated clock reaches
    /// [`FaultPlan::die_at_ns`]. Does not count the death — callers invoke
    /// [`FaultState::note_death`] exactly once when they act on it.
    pub fn death_due(&self, clock_ns: f64) -> bool {
        matches!(self.plan.die_at_ns, Some(at) if clock_ns >= at)
    }

    /// Whether the *next* `execute()` call kills the device: true when its
    /// 1-based ordinal matches [`FaultPlan::die_on_exec_n`] or the seeded
    /// death stream draws a hit. Call before [`FaultState::on_execute`]
    /// (which advances the ordinal); callers then invoke
    /// [`FaultState::note_death`] exactly once when they act on it.
    pub fn exec_death_due(&mut self) -> bool {
        let next = self.execs_seen + 1;
        if self.plan.die_on_exec_n == Some(next) {
            return true;
        }
        if self.plan.death_rate > 0.0 {
            if let Some(rng) = &mut self.death_rng {
                return rng.gen_bool(self.plan.death_rate);
            }
        }
        false
    }

    /// Records the (single, terminal) injected death.
    pub fn note_death(&mut self) {
        self.counters.deaths_injected += 1;
    }

    /// Called once per checkpoint capture this device observes. Returns
    /// whether the plan scripts this capture's snapshot to be damaged
    /// (1-based ordinal listed in [`FaultPlan::corrupt_checkpoint`]).
    pub fn on_checkpoint_capture(&mut self) -> bool {
        self.checkpoints_seen += 1;
        if self
            .plan
            .corrupt_checkpoint
            .contains(&self.checkpoints_seen)
        {
            self.counters.checkpoint_corruptions_injected += 1;
            return true;
        }
        false
    }

    /// Injected-fault counters so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Called before each allocation of `requested` bytes while the pool
    /// holds `used` of `capacity` bytes. Returns the scripted error when the
    /// plan says this allocation fails.
    pub fn on_alloc(&mut self, requested: u64, used: u64, capacity: u64) -> Result<()> {
        self.allocs_seen += 1;
        if self.plan.oom_on_alloc.contains(&self.allocs_seen) {
            self.counters.oom_injected += 1;
            return Err(DeviceError::OutOfMemory {
                requested,
                available: capacity.saturating_sub(used),
                capacity,
            });
        }
        if self.plan.oom_rate > 0.0 {
            if let Some(rng) = &mut self.alloc_rng {
                if rng.gen_bool(self.plan.oom_rate) {
                    self.counters.oom_injected += 1;
                    return Err(DeviceError::OutOfMemory {
                        requested,
                        available: capacity.saturating_sub(used),
                        capacity,
                    });
                }
            }
        }
        if let Some(cap) = self.plan.capacity_cap {
            if used + requested > cap {
                self.counters.oom_injected += 1;
                return Err(DeviceError::OutOfMemory {
                    requested,
                    available: cap.saturating_sub(used),
                    capacity: cap,
                });
            }
        }
        Ok(())
    }

    /// Called before each kernel execution. Returns the scripted error when
    /// the plan says this execution fails.
    pub fn on_execute(&mut self, kernel: &str) -> Result<()> {
        self.execs_seen += 1;
        if self.execs_seen <= self.plan.transient_exec_errors {
            self.counters.transient_exec_injected += 1;
            return Err(DeviceError::Driver(format!(
                "injected transient fault on `{kernel}` (execute #{})",
                self.execs_seen
            )));
        }
        if self.plan.exec_error_rate > 0.0 {
            if let Some(rng) = &mut self.exec_rng {
                if rng.gen_bool(self.plan.exec_error_rate) {
                    self.counters.transient_exec_injected += 1;
                    return Err(DeviceError::Driver(format!(
                        "injected probabilistic fault on `{kernel}` (execute #{})",
                        self.execs_seen
                    )));
                }
            }
        }
        let base = kernel.split('@').next().unwrap_or(kernel);
        if self
            .plan
            .broken_kernels
            .iter()
            .any(|b| b == kernel || b == base)
        {
            self.counters.broken_kernel_hits += 1;
            return Err(DeviceError::Driver(format!(
                "injected persistent fault in kernel `{kernel}`"
            )));
        }
        Ok(())
    }

    /// The plan's latency multiplier for modeled transfer/compute durations.
    pub fn time_multiplier(&self) -> f64 {
        self.plan.slowdown_factor
    }

    /// Extra stall time for the `execute()` call that
    /// [`FaultState::on_execute`] just admitted (matched against
    /// [`FaultPlan::stall_on_exec`] on the same ordinal). Call exactly once
    /// per successful execute.
    pub fn take_exec_stall(&mut self) -> f64 {
        if self.plan.stall_on_exec.contains(&self.execs_seen) {
            self.counters.stalls_injected += 1;
            STALL_NS
        } else {
            0.0
        }
    }

    /// Called once per `place_data`: decides stall and payload corruption
    /// for this upload.
    pub fn on_place(&mut self) -> TransferFault {
        self.transfers_seen += 1;
        self.places_seen += 1;
        let scripted = self.plan.corrupt_on_place.contains(&self.places_seen);
        self.transfer_fault(scripted, self.places_seen)
    }

    /// Called once per `retrieve_data`: decides stall and payload
    /// corruption for this download.
    pub fn on_retrieve(&mut self) -> TransferFault {
        self.transfers_seen += 1;
        self.retrieves_seen += 1;
        let scripted = self.plan.corrupt_on_retrieve.contains(&self.retrieves_seen);
        self.transfer_fault(scripted, self.retrieves_seen)
    }

    fn transfer_fault(&mut self, scripted_corrupt: bool, ordinal: u64) -> TransferFault {
        let mut fault = TransferFault {
            corrupt_at: ordinal,
            ..TransferFault::default()
        };
        if self.plan.stall_on_transfer.contains(&self.transfers_seen) {
            self.counters.stalls_injected += 1;
            fault.stall_ns = STALL_NS;
        }
        let mut corrupt = scripted_corrupt;
        if !corrupt && self.plan.corrupt_transfer_rate > 0.0 {
            if let Some(rng) = &mut self.corrupt_rng {
                corrupt = rng.gen_bool(self.plan.corrupt_transfer_rate);
            }
        }
        if corrupt {
            self.counters.corruptions_injected += 1;
            fault.corrupt = true;
        }
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_allocation_fires_once() {
        let mut st = FaultState::default();
        st.install(FaultPlan::none().oom_on_allocation(2));
        assert!(st.on_alloc(8, 0, 1024).is_ok());
        assert!(matches!(
            st.on_alloc(8, 8, 1024),
            Err(DeviceError::OutOfMemory { .. })
        ));
        assert!(st.on_alloc(8, 8, 1024).is_ok());
        assert_eq!(st.counters().oom_injected, 1);
    }

    #[test]
    fn capacity_cap_enforced() {
        let mut st = FaultState::default();
        st.install(FaultPlan::none().capacity_cap(100));
        assert!(st.on_alloc(60, 0, 1 << 20).is_ok());
        let err = st.on_alloc(60, 60, 1 << 20).unwrap_err();
        match err {
            DeviceError::OutOfMemory {
                available,
                capacity,
                ..
            } => {
                assert_eq!(capacity, 100);
                assert_eq!(available, 40);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn transient_then_recovers() {
        let mut st = FaultState::default();
        st.install(FaultPlan::none().transient_exec_errors(2));
        assert!(st.on_execute("map").is_err());
        assert!(st.on_execute("map").is_err());
        assert!(st.on_execute("map").is_ok());
        assert_eq!(st.counters().transient_exec_injected, 2);
    }

    #[test]
    fn broken_kernel_matches_variant() {
        let mut st = FaultState::default();
        st.install(FaultPlan::none().broken_kernel("filter_bitmap"));
        assert!(st.on_execute("filter_bitmap").is_err());
        assert!(st.on_execute("filter_bitmap@branchless").is_err());
        assert!(st.on_execute("map").is_ok());
        assert_eq!(st.counters().broken_kernel_hits, 2);
    }

    #[test]
    fn probabilistic_plan_is_deterministic_per_seed() {
        let plan = FaultPlan::none()
            .with_seed(42)
            .exec_error_rate(0.3)
            .oom_rate(0.2);
        let run = |plan: FaultPlan| -> (Vec<bool>, Vec<bool>) {
            let mut st = FaultState::default();
            st.install(plan);
            let allocs: Vec<bool> = (0..200)
                .map(|_| st.on_alloc(8, 0, 1 << 20).is_err())
                .collect();
            let execs: Vec<bool> = (0..200).map(|_| st.on_execute("map").is_err()).collect();
            (allocs, execs)
        };
        let (a1, e1) = run(plan.clone());
        let (a2, e2) = run(plan);
        assert_eq!(a1, a2, "same seed replays the same alloc failures");
        assert_eq!(e1, e2, "same seed replays the same exec failures");
        // The rates actually fire, but not on every call.
        let fired = a1.iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 200, "alloc fired {fired}/200");
        let fired = e1.iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 200, "exec fired {fired}/200");
    }

    #[test]
    fn distinct_seeds_differ() {
        let mk = |seed: u64| {
            let mut st = FaultState::default();
            st.install(FaultPlan::none().with_seed(seed).exec_error_rate(0.5));
            (0..64)
                .map(|_| st.on_execute("k").is_err())
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn rate_plans_count_as_non_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::none().oom_rate(0.1).is_empty());
        assert!(!FaultPlan::none().exec_error_rate(0.1).is_empty());
        // A bare seed injects nothing.
        assert!(FaultPlan::none().with_seed(7).is_empty());
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::none().exec_error_rate(1.5);
    }

    #[test]
    fn slowdown_and_stalls() {
        let mut st = FaultState::default();
        st.install(
            FaultPlan::none()
                .slowdown(8.0)
                .stall_on_exec(2)
                .stall_on_transfer(1),
        );
        assert_eq!(st.time_multiplier(), 8.0);
        // Exec stall fires on the second execute only.
        assert!(st.on_execute("k").is_ok());
        assert_eq!(st.take_exec_stall(), 0.0);
        assert!(st.on_execute("k").is_ok());
        assert_eq!(st.take_exec_stall(), STALL_NS);
        // Transfer stall fires on the first transfer (a place here).
        assert_eq!(st.on_place().stall_ns, STALL_NS);
        assert_eq!(st.on_retrieve().stall_ns, 0.0);
        assert_eq!(st.counters().stalls_injected, 2);
    }

    #[test]
    fn transfer_ordinal_is_shared_across_directions() {
        let mut st = FaultState::default();
        st.install(FaultPlan::none().stall_on_transfer(2));
        assert_eq!(st.on_place().stall_ns, 0.0);
        // The retrieve is transfer #2.
        assert_eq!(st.on_retrieve().stall_ns, STALL_NS);
    }

    #[test]
    fn scripted_corruption_fires_per_direction() {
        let mut st = FaultState::default();
        st.install(FaultPlan::none().corrupt_on_place(2).corrupt_on_retrieve(1));
        assert!(!st.on_place().corrupt);
        assert!(st.on_retrieve().corrupt);
        let f = st.on_place();
        assert!(f.corrupt);
        assert_eq!(f.corrupt_at, 2, "flip index follows the ordinal");
        assert_eq!(st.counters().corruptions_injected, 2);
    }

    #[test]
    fn probabilistic_corruption_is_deterministic_and_decoupled() {
        let run = |plan: FaultPlan| -> Vec<bool> {
            let mut st = FaultState::default();
            st.install(plan);
            (0..200).map(|_| st.on_place().corrupt).collect()
        };
        let plan = FaultPlan::none().with_seed(42).corrupt_transfer_rate(0.2);
        let a = run(plan.clone());
        assert_eq!(a, run(plan), "same seed replays the same corruptions");
        let fired = a.iter().filter(|&&c| c).count();
        assert!(fired > 0 && fired < 200, "corruption fired {fired}/200");

        // Adding corruption must not perturb the exec draw sequence.
        let exec_seq = |plan: FaultPlan| -> Vec<bool> {
            let mut st = FaultState::default();
            st.install(plan);
            (0..100)
                .map(|_| {
                    let _ = st.on_place();
                    st.on_execute("k").is_err()
                })
                .collect()
        };
        let base = FaultPlan::none().with_seed(7).exec_error_rate(0.3);
        assert_eq!(
            exec_seq(base.clone()),
            exec_seq(base.corrupt_transfer_rate(0.5)),
            "corruption stream must be decoupled from the exec stream"
        );
    }

    #[test]
    fn latency_and_corruption_plans_count_as_non_empty() {
        assert!(!FaultPlan::none().slowdown(2.0).is_empty());
        assert!(!FaultPlan::none().stall_on_exec(1).is_empty());
        assert!(!FaultPlan::none().stall_on_transfer(1).is_empty());
        assert!(!FaultPlan::none().corrupt_transfer_rate(0.1).is_empty());
        assert!(!FaultPlan::none().corrupt_on_place(1).is_empty());
        assert!(!FaultPlan::none().corrupt_on_retrieve(1).is_empty());
        assert_eq!(FaultPlan::default().slowdown_factor, 1.0);
    }

    #[test]
    #[should_panic(expected = "slowdown factor must be >= 1.0")]
    fn speedup_rejected() {
        let _ = FaultPlan::none().slowdown(0.5);
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn out_of_range_corruption_rate_rejected() {
        let _ = FaultPlan::none().corrupt_transfer_rate(-0.1);
    }

    #[test]
    fn death_triggers_count_as_non_empty() {
        assert!(!FaultPlan::none().die_at_ns(5.0e6).is_empty());
        assert!(!FaultPlan::none().die_on_exec(3).is_empty());
        assert!(!FaultPlan::none().death_rate(0.01).is_empty());
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn out_of_range_death_rate_rejected() {
        let _ = FaultPlan::none().death_rate(1.1);
    }

    #[test]
    #[should_panic(expected = "death instant must be >= 0")]
    fn negative_death_instant_rejected() {
        let _ = FaultPlan::none().die_at_ns(-1.0);
    }

    #[test]
    fn clock_death_fires_at_the_scripted_instant() {
        let mut st = FaultState::default();
        st.install(FaultPlan::none().die_at_ns(1000.0));
        assert!(!st.death_due(999.9));
        assert!(st.death_due(1000.0));
        assert!(st.death_due(5000.0));
        st.note_death();
        assert_eq!(st.counters().deaths_injected, 1);
    }

    #[test]
    fn exec_death_fires_on_the_scripted_ordinal() {
        let mut st = FaultState::default();
        st.install(FaultPlan::none().die_on_exec(2));
        // Execute #1 survives, #2 dies.
        assert!(!st.exec_death_due());
        assert!(st.on_execute("k").is_ok());
        assert!(st.exec_death_due());
    }

    #[test]
    fn probabilistic_death_is_deterministic_and_decoupled() {
        let run = |plan: FaultPlan| -> Vec<bool> {
            let mut st = FaultState::default();
            st.install(plan);
            (0..200)
                .map(|_| {
                    let due = st.exec_death_due();
                    let _ = st.on_execute("k");
                    due
                })
                .collect()
        };
        let plan = FaultPlan::none().with_seed(42).death_rate(0.05);
        let a = run(plan.clone());
        assert_eq!(a, run(plan), "same seed replays the same deaths");
        assert!(a.iter().any(|&d| d), "the rate never fired");

        // Enabling death must not perturb the exec draw sequence.
        let exec_seq = |plan: FaultPlan| -> Vec<bool> {
            let mut st = FaultState::default();
            st.install(plan);
            (0..100)
                .map(|_| {
                    let _ = st.exec_death_due();
                    st.on_execute("k").is_err()
                })
                .collect()
        };
        let base = FaultPlan::none().with_seed(7).exec_error_rate(0.3);
        assert_eq!(
            exec_seq(base.clone()),
            exec_seq(base.death_rate(0.5)),
            "death stream must be decoupled from the exec stream"
        );
    }

    #[test]
    fn reset_counters_keeps_plan_and_ordinals() {
        let mut st = FaultState::default();
        st.install(
            FaultPlan::none()
                .oom_on_allocation(1)
                .transient_exec_errors(1),
        );
        assert!(st.on_alloc(8, 0, 64).is_err());
        assert!(st.on_execute("k").is_err());
        assert_eq!(st.counters().total(), 2);
        st.reset_counters();
        assert_eq!(st.counters().total(), 0, "counters zeroed");
        // Ordinals were not rewound: the one-shot triggers stay consumed.
        assert!(st.on_alloc(8, 0, 64).is_ok());
        assert!(st.on_execute("k").is_ok());
    }

    #[test]
    fn install_resets_ordinals() {
        let mut st = FaultState::default();
        st.install(FaultPlan::none().oom_on_allocation(1));
        assert!(st.on_alloc(8, 0, 64).is_err());
        st.install(FaultPlan::none().oom_on_allocation(1));
        assert!(st.on_alloc(8, 0, 64).is_err());
        assert_eq!(st.counters().oom_injected, 1, "counters reset on install");
    }
}
