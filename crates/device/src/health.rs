//! Cross-query device health tracking with per-device **and per-kernel**
//! circuit breakers.
//!
//! PR 1 gave the executor *within-run* recovery (chunk backoff, pipeline
//! fallback), but every query still started blind: a device that just burned
//! four retries on a kernel got picked again by the next query. The
//! [`DeviceHealthRegistry`] is the missing feedback channel — it outlives a
//! single query, records failures per device and per `(device, kernel)`,
//! and drives three decisions in the runtime:
//!
//! * **Kernel quarantine.** Every `(device, kernel)` pair carries its own
//!   circuit breaker with its own trip/probe counters: `Closed → Open` after
//!   [`HealthPolicy::broken_kernel_threshold`] consecutive failures of that
//!   kernel on that device. Placement and fallback never send work that
//!   resolves to an `Open` kernel there — but the device itself stays
//!   available for everything else. A broken kernel no longer quarantines an
//!   otherwise healthy device.
//! * **Device quarantine.** The device-level breaker trips only on evidence
//!   of *device-wide* sickness: a consecutive-failure streak of at least
//!   [`HealthPolicy::failure_threshold`] spanning at least
//!   [`HealthPolicy::device_trip_min_kernels`] distinct kernels.
//!   Quarantined (`Open`) devices are skipped by initial placement, by the
//!   hub router's source choice, and by `repoint_pipeline`.
//! * **Probing.** After the respective cool-down (counted in completed
//!   queries) a breaker moves `Open → HalfOpen`; one probe per query is
//!   admitted. A successful probe restores `Closed` and clears the failure
//!   memory; a failed probe re-opens the breaker for another cool-down.
//!   Kernel probes are granted per `(device, kernel)` and resolved by
//!   [`DeviceHealthRegistry::record_kernel_success`].
//! * **Recovery-aware placement cost.** [`DeviceHealthRegistry::retry_penalty_ns`]
//!   is the expected retry cost of placing on a device — its observed
//!   failure rate times the average modeled time a failed attempt wasted.
//!   Fed into [`crate::cost::CostModel::placement_cost_ns`], it makes flaky
//!   or memory-tight devices lose placement ties instead of winning them.
//!
//! Everything here is deterministic: state transitions depend only on the
//! sequence of recorded events, and the snapshot exports use `BTreeMap`s so
//! reports are byte-stable.

use crate::device::DeviceId;
use std::collections::{BTreeMap, BTreeSet};

/// Tunables of the circuit breakers and placement penalty.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthPolicy {
    /// Consecutive kernel failures (without an intervening success) that
    /// trip a device's breaker `Closed → Open` — provided the streak spans
    /// at least [`HealthPolicy::device_trip_min_kernels`] distinct kernels.
    pub failure_threshold: u32,
    /// Completed queries a tripped device breaker stays `Open` before a
    /// `HalfOpen` probe is admitted. The query that trips the breaker does
    /// not count.
    pub cooldown_queries: u32,
    /// Consecutive failures of one kernel on one device that trip that
    /// `(device, kernel)` breaker `Closed → Open` (the kernel counts as
    /// *known broken* there; placement skips such candidates).
    pub broken_kernel_threshold: u64,
    /// Completed queries a tripped kernel breaker stays `Open` before a
    /// `HalfOpen` kernel probe is admitted.
    pub kernel_cooldown_queries: u32,
    /// Distinct kernels a consecutive-failure streak must span before the
    /// *device* breaker trips. With the default of 2, a single broken kernel
    /// trips its own breaker but never quarantines the device.
    pub device_trip_min_kernels: u32,
    /// Minimum smoothed actual/expected latency ratio before a chronically
    /// slow device can trip [`BreakerState::SlowOpen`].
    pub slow_trip_ratio: f64,
    /// Watchdog overruns that must be recorded before the slow breaker can
    /// trip (one slow chunk is noise; a run of them is a straggler).
    pub slow_trip_min_overruns: u32,
    /// Completed queries a `SlowOpen` breaker waits before a `HalfOpen`
    /// probe is admitted.
    pub slow_cooldown_queries: u32,
    /// Master switch: when `false` the registry records nothing and reports
    /// every device healthy (useful for A/B benchmarking the subsystem).
    pub enabled: bool,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            failure_threshold: 2,
            cooldown_queries: 2,
            broken_kernel_threshold: 2,
            kernel_cooldown_queries: 2,
            device_trip_min_kernels: 2,
            slow_trip_ratio: 4.0,
            slow_trip_min_overruns: 3,
            slow_cooldown_queries: 2,
            enabled: true,
        }
    }
}

/// Circuit-breaker state of one device or one `(device, kernel)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: placement uses the device/kernel normally.
    #[default]
    Closed,
    /// Quarantined: skipped by placement, routing and fallback until the
    /// cool-down elapses.
    Open {
        /// Completed queries remaining before the breaker half-opens.
        cooldown_left: u32,
    },
    /// Cooling down finished: one probe per query is admitted to test
    /// whether the device/kernel recovered.
    HalfOpen,
    /// Latency-quarantined: the device answers correctly but chronically
    /// overruns its watchdog budgets, so placement avoids it exactly as if
    /// it were `Open`. Cools down into `HalfOpen` like `Open` does.
    SlowOpen {
        /// Completed queries remaining before the breaker half-opens.
        cooldown_left: u32,
    },
}

impl BreakerState {
    /// Stable lowercase label for reports (`"closed"`, `"open"`,
    /// `"half-open"`, `"slow-open"`).
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
            BreakerState::SlowOpen { .. } => "slow-open",
        }
    }
}

/// Per-device health record.
#[derive(Clone, Debug, Default)]
struct DeviceHealth {
    state: BreakerState,
    /// A `HalfOpen` probe pipeline is in flight this query.
    probing: bool,
    /// The breaker tripped during the current query (its cool-down only
    /// starts counting from the *next* completed query).
    tripped_this_query: bool,
    consecutive_failures: u32,
    /// Distinct kernels seen in the current consecutive-failure streak.
    streak_kernels: BTreeSet<String>,
    total_failures: u64,
    total_attempts: u64,
    ooms: u64,
    wasted_retry_ns: f64,
    /// Watchdog overruns recorded (cleared by a successful probe).
    latency_overruns: u32,
    /// Smoothed actual/expected duration ratio of overrunning operations.
    slow_ratio_ewma: f64,
    /// Smoothed excess nanoseconds per overrunning operation.
    overrun_ns_ewma: f64,
    /// Transfer corruptions detected on this device (cleared by a successful
    /// probe).
    corruptions: u64,
}

/// Per-`(device, kernel)` breaker record with its own trip/probe counters.
#[derive(Clone, Debug, Default)]
struct KernelHealth {
    state: BreakerState,
    /// A kernel probe is in flight this query.
    probing: bool,
    tripped_this_query: bool,
    consecutive_failures: u64,
    total_failures: u64,
    /// Times this kernel breaker tripped (`Closed → Open` or failed probe).
    trips: u64,
    /// Kernel probes admitted.
    probes: u64,
}

/// What a recorded kernel failure tripped, if anything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailureVerdict {
    /// The *device* breaker tripped (`Closed → Open`, or a failed `HalfOpen`
    /// device probe re-opening).
    pub device_tripped: bool,
    /// The `(device, kernel)` breaker tripped.
    pub kernel_tripped: bool,
}

/// Deterministic export of one device's health (for `ExecutionStats`).
#[derive(Clone, Debug, PartialEq)]
pub struct HealthSnapshot {
    /// Breaker state at snapshot time.
    pub state: BreakerState,
    /// Kernel failures recorded (lifetime, cleared by a successful probe).
    pub kernel_failures: u64,
    /// Out-of-memory events recorded (lifetime, cleared by a successful
    /// probe).
    pub ooms: u64,
    /// Current expected-retry placement penalty in modeled nanoseconds.
    pub retry_penalty_ns: f64,
    /// Kernels currently quarantined (`Open`) on this device.
    pub open_kernels: u64,
    /// Watchdog overruns recorded against this device.
    pub latency_overruns: u32,
    /// Transfer corruptions detected on this device.
    pub corruptions: u64,
}

/// Deterministic export of one `(device, kernel)` breaker.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelSnapshot {
    /// Breaker state at snapshot time.
    pub state: BreakerState,
    /// Failures of this kernel on this device (lifetime, cleared by a
    /// successful kernel probe).
    pub failures: u64,
    /// Times this breaker tripped.
    pub trips: u64,
    /// Kernel probes admitted.
    pub probes: u64,
}

/// Cross-query device health registry. Owned by the executor; shared across
/// queries (and across concurrently scheduled queries).
#[derive(Clone, Debug, Default)]
pub struct DeviceHealthRegistry {
    policy: HealthPolicy,
    devices: BTreeMap<DeviceId, DeviceHealth>,
    kernels: BTreeMap<(DeviceId, String), KernelHealth>,
}

impl DeviceHealthRegistry {
    /// Creates a registry under the given policy.
    pub fn new(policy: HealthPolicy) -> Self {
        DeviceHealthRegistry {
            policy,
            ..Default::default()
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Replaces the policy (existing state is kept).
    pub fn set_policy(&mut self, policy: HealthPolicy) {
        self.policy = policy;
    }

    /// Forgets all recorded health (e.g. between experiments).
    pub fn reset(&mut self) {
        self.devices.clear();
        self.kernels.clear();
    }

    /// Drops every record for `device` — its device breaker and all of its
    /// `(device, kernel)` breakers. Called when a device is unplugged so the
    /// registry's snapshots never report a ghost device, and a
    /// later hot-add reusing nothing starts with a clean slate.
    pub fn forget_device(&mut self, device: DeviceId) {
        self.devices.remove(&device);
        self.kernels.retain(|(d, _), _| *d != device);
    }

    /// Registers a hot-added `device` in `HalfOpen`: it earns traffic
    /// through the existing probe ramp (one probe pipeline per query,
    /// promoted to `Closed` by [`Self::record_success`]) instead of
    /// instantly absorbing a full share of placement.
    pub fn admit_half_open(&mut self, device: DeviceId) {
        if !self.policy.enabled {
            return;
        }
        let h = self.entry(device);
        *h = DeviceHealth {
            state: BreakerState::HalfOpen,
            ..DeviceHealth::default()
        };
    }

    fn entry(&mut self, device: DeviceId) -> &mut DeviceHealth {
        self.devices.entry(device).or_default()
    }

    /// Records that a pipeline attempt is about to run on `device` (the
    /// denominator of the failure rate).
    pub fn record_attempt(&mut self, device: DeviceId) {
        if !self.policy.enabled {
            return;
        }
        self.entry(device).total_attempts += 1;
    }

    /// Records a kernel execution failure of `kernel` on `device` that
    /// wasted `wasted_ns` of modeled time. Returns which breakers this
    /// failure tripped: the `(device, kernel)` breaker after
    /// [`HealthPolicy::broken_kernel_threshold`] consecutive failures, the
    /// device breaker only when the streak spans
    /// [`HealthPolicy::device_trip_min_kernels`] distinct kernels.
    pub fn record_kernel_failure(
        &mut self,
        device: DeviceId,
        kernel: &str,
        wasted_ns: f64,
    ) -> FailureVerdict {
        if !self.policy.enabled {
            return FailureVerdict::default();
        }
        let policy = self.policy;
        // Kernel-level breaker first.
        let k = self
            .kernels
            .entry((device, kernel.to_string()))
            .or_default();
        k.total_failures += 1;
        k.consecutive_failures += 1;
        let kernel_tripped = match k.state {
            BreakerState::HalfOpen if k.probing => {
                k.state = BreakerState::Open {
                    cooldown_left: policy.kernel_cooldown_queries,
                };
                k.probing = false;
                k.tripped_this_query = true;
                k.trips += 1;
                true
            }
            BreakerState::Closed
                if k.consecutive_failures >= policy.broken_kernel_threshold.max(1) =>
            {
                k.state = BreakerState::Open {
                    cooldown_left: policy.kernel_cooldown_queries,
                };
                k.tripped_this_query = true;
                k.trips += 1;
                true
            }
            _ => false,
        };
        // Device-level aggregates and breaker.
        let h = self.entry(device);
        h.total_failures += 1;
        h.consecutive_failures += 1;
        h.streak_kernels.insert(kernel.to_string());
        h.wasted_retry_ns += wasted_ns.max(0.0);
        let device_tripped = match h.state {
            BreakerState::HalfOpen if h.probing => {
                h.state = BreakerState::Open {
                    cooldown_left: policy.cooldown_queries,
                };
                h.probing = false;
                h.tripped_this_query = true;
                true
            }
            BreakerState::Closed
                if h.consecutive_failures >= policy.failure_threshold.max(1)
                    && h.streak_kernels.len() >= policy.device_trip_min_kernels.max(1) as usize =>
            {
                h.state = BreakerState::Open {
                    cooldown_left: policy.cooldown_queries,
                };
                h.tripped_this_query = true;
                true
            }
            _ => false,
        };
        FailureVerdict {
            device_tripped,
            kernel_tripped,
        }
    }

    /// Records an out-of-memory event on `device` that wasted `wasted_ns`
    /// of modeled time. OOM pressure feeds the placement penalty but does
    /// not trip a `Closed` breaker (chunk backoff owns that failure class);
    /// it *does* fail an in-flight `HalfOpen` device probe. Returns `true`
    /// when the probe was failed (breaker re-opened).
    pub fn record_oom(&mut self, device: DeviceId, wasted_ns: f64) -> bool {
        if !self.policy.enabled {
            return false;
        }
        let cooldown = self.policy.cooldown_queries;
        let h = self.entry(device);
        h.ooms += 1;
        h.total_failures += 1;
        h.wasted_retry_ns += wasted_ns.max(0.0);
        if h.state == BreakerState::HalfOpen && h.probing {
            h.state = BreakerState::Open {
                cooldown_left: cooldown,
            };
            h.probing = false;
            h.tripped_this_query = true;
            return true;
        }
        false
    }

    /// Records a successful pipeline execution on `device`. Returns `true`
    /// when this success completed a `HalfOpen` device probe (breaker
    /// restored to `Closed` and the device's failure memory — including its
    /// kernel breakers — cleared).
    pub fn record_success(&mut self, device: DeviceId) -> bool {
        if !self.policy.enabled {
            return false;
        }
        let h = self.entry(device);
        h.consecutive_failures = 0;
        h.streak_kernels.clear();
        if h.state == BreakerState::HalfOpen && h.probing {
            h.state = BreakerState::Closed;
            h.probing = false;
            h.total_failures = 0;
            h.ooms = 0;
            h.wasted_retry_ns = 0.0;
            h.latency_overruns = 0;
            h.slow_ratio_ewma = 0.0;
            h.overrun_ns_ewma = 0.0;
            h.corruptions = 0;
            self.kernels.retain(|(d, _), _| *d != device);
            return true;
        }
        false
    }

    /// Records that `kernel` executed successfully on `device` (the executor
    /// reports every kernel a successful pipeline resolved). Resets the
    /// kernel's consecutive-failure streak; returns `true` when this success
    /// completed a `HalfOpen` kernel probe (kernel breaker restored to
    /// `Closed`, its failure memory cleared, and — when no other kernel on
    /// the device is still bad — the device's wasted-time memory cleared
    /// too).
    pub fn record_kernel_success(&mut self, device: DeviceId, kernel: &str) -> bool {
        if !self.policy.enabled {
            return false;
        }
        let Some(k) = self.kernels.get_mut(&(device, kernel.to_string())) else {
            return false;
        };
        k.consecutive_failures = 0;
        if k.state == BreakerState::HalfOpen && k.probing {
            k.state = BreakerState::Closed;
            k.probing = false;
            k.total_failures = 0;
            let all_clear = self
                .kernels
                .iter()
                .filter(|((d, _), _)| *d == device)
                .all(|(_, k)| k.state == BreakerState::Closed && k.total_failures == 0);
            if all_clear {
                if let Some(h) = self.devices.get_mut(&device) {
                    if h.state == BreakerState::Closed {
                        h.total_failures = 0;
                        h.ooms = 0;
                        h.wasted_retry_ns = 0.0;
                    }
                }
            }
            return true;
        }
        false
    }

    /// Records a watchdog overrun on `device`: an operation the cost model
    /// expected to take `clean_ns` actually took `actual_ns`. Feeds the
    /// latency EWMAs and trips the `SlowOpen` breaker once the device has
    /// overrun at least [`HealthPolicy::slow_trip_min_overruns`] times with
    /// a smoothed ratio of at least [`HealthPolicy::slow_trip_ratio`].
    /// Returns `true` when this overrun tripped the breaker.
    pub fn record_latency_overrun(
        &mut self,
        device: DeviceId,
        clean_ns: f64,
        actual_ns: f64,
    ) -> bool {
        if !self.policy.enabled {
            return false;
        }
        let policy = self.policy;
        let h = self.entry(device);
        let ratio = if clean_ns > 0.0 {
            actual_ns / clean_ns
        } else {
            policy.slow_trip_ratio
        };
        let excess = (actual_ns - clean_ns).max(0.0);
        if h.latency_overruns == 0 {
            h.slow_ratio_ewma = ratio;
            h.overrun_ns_ewma = excess;
        } else {
            h.slow_ratio_ewma = 0.5 * h.slow_ratio_ewma + 0.5 * ratio;
            h.overrun_ns_ewma = 0.5 * h.overrun_ns_ewma + 0.5 * excess;
        }
        h.latency_overruns = h.latency_overruns.saturating_add(1);
        if h.state == BreakerState::Closed
            && h.latency_overruns >= policy.slow_trip_min_overruns.max(1)
            && h.slow_ratio_ewma >= policy.slow_trip_ratio
        {
            h.state = BreakerState::SlowOpen {
                cooldown_left: policy.slow_cooldown_queries,
            };
            h.tripped_this_query = true;
            return true;
        }
        false
    }

    /// Records a detected transfer corruption on `device` (checksum
    /// mismatch). Corruptions do not trip a breaker on their own — the
    /// retransmit/re-placement protocol owns recovery — but they are
    /// remembered for reports and snapshots.
    pub fn record_corruption(&mut self, device: DeviceId) {
        if !self.policy.enabled {
            return;
        }
        self.entry(device).corruptions += 1;
    }

    /// Expected extra latency of placing work on `device`, in modeled
    /// nanoseconds: the smoothed excess duration of its watchdog overruns.
    /// Zero for devices that never overran. Added to
    /// [`Self::retry_penalty_ns`] when ranking placement candidates, so
    /// chronically slow devices lose ties.
    pub fn latency_penalty_ns(&self, device: DeviceId) -> f64 {
        if !self.policy.enabled {
            return 0.0;
        }
        self.devices
            .get(&device)
            .map(|h| {
                if h.latency_overruns > 0 {
                    h.overrun_ns_ewma
                } else {
                    0.0
                }
            })
            .unwrap_or(0.0)
    }

    /// Whether `device` is quarantined (device breaker `Open` or
    /// `SlowOpen`).
    pub fn is_quarantined(&self, device: DeviceId) -> bool {
        self.policy.enabled
            && matches!(
                self.devices.get(&device).map(|h| h.state),
                Some(BreakerState::Open { .. } | BreakerState::SlowOpen { .. })
            )
    }

    /// Whether `device` is `HalfOpen` (only a probe pipeline may use it).
    pub fn is_half_open(&self, device: DeviceId) -> bool {
        self.policy.enabled
            && matches!(
                self.devices.get(&device).map(|h| h.state),
                Some(BreakerState::HalfOpen)
            )
    }

    /// Whether `device` is `HalfOpen` with no probe in flight yet — the next
    /// pipeline placed there may be admitted via [`Self::begin_probe`].
    pub fn probe_candidate(&self, device: DeviceId) -> bool {
        self.policy.enabled
            && self
                .devices
                .get(&device)
                .map(|h| h.state == BreakerState::HalfOpen && !h.probing)
                .unwrap_or(false)
    }

    /// Marks the `HalfOpen` probe on `device` as in flight.
    pub fn begin_probe(&mut self, device: DeviceId) {
        if !self.policy.enabled {
            return;
        }
        let h = self.entry(device);
        if h.state == BreakerState::HalfOpen {
            h.probing = true;
        }
    }

    /// Whether the `(device, kernel)` breaker is `Open` — placement and
    /// fallback must not pick such a candidate for work that runs this
    /// kernel, even though the device itself may be healthy.
    pub fn kernel_known_broken(&self, device: DeviceId, kernel: &str) -> bool {
        self.policy.enabled
            && matches!(
                self.kernels
                    .get(&(device, kernel.to_string()))
                    .map(|k| k.state),
                Some(BreakerState::Open { .. })
            )
    }

    /// The `(device, kernel)` breaker state, if any failures were recorded.
    pub fn kernel_state(&self, device: DeviceId, kernel: &str) -> Option<BreakerState> {
        if !self.policy.enabled {
            return None;
        }
        self.kernels
            .get(&(device, kernel.to_string()))
            .map(|k| k.state)
    }

    /// Whether the `(device, kernel)` breaker is `HalfOpen` with no probe in
    /// flight — the next pipeline resolving this kernel there may be
    /// admitted via [`Self::begin_kernel_probe`].
    pub fn kernel_probe_candidate(&self, device: DeviceId, kernel: &str) -> bool {
        self.policy.enabled
            && self
                .kernels
                .get(&(device, kernel.to_string()))
                .map(|k| k.state == BreakerState::HalfOpen && !k.probing)
                .unwrap_or(false)
    }

    /// Marks the `HalfOpen` probe of `(device, kernel)` as in flight.
    pub fn begin_kernel_probe(&mut self, device: DeviceId, kernel: &str) {
        if !self.policy.enabled {
            return;
        }
        if let Some(k) = self.kernels.get_mut(&(device, kernel.to_string())) {
            if k.state == BreakerState::HalfOpen && !k.probing {
                k.probing = true;
                k.probes += 1;
            }
        }
    }

    /// Kernels currently quarantined (`Open`) on `device`.
    pub fn open_kernels(&self, device: DeviceId) -> u64 {
        if !self.policy.enabled {
            return 0;
        }
        self.kernels
            .iter()
            .filter(|((d, _), k)| *d == device && matches!(k.state, BreakerState::Open { .. }))
            .count() as u64
    }

    /// Expected retry cost of placing work on `device`, in modeled
    /// nanoseconds: observed failure rate × average modeled time wasted per
    /// failure. Zero for devices with no recorded failures.
    pub fn retry_penalty_ns(&self, device: DeviceId) -> f64 {
        if !self.policy.enabled {
            return 0.0;
        }
        let Some(h) = self.devices.get(&device) else {
            return 0.0;
        };
        if h.total_failures == 0 {
            return 0.0;
        }
        // rate * avg_wasted = (failures / attempts) * (wasted / failures)
        // = wasted / attempts, with attempts floored at the failure count so
        // the rate never exceeds 1.
        h.wasted_retry_ns / h.total_attempts.max(h.total_failures) as f64
    }

    /// Ids currently quarantined (device breaker `Open` or `SlowOpen`),
    /// ascending.
    pub fn quarantined_ids(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|(_, h)| {
                matches!(
                    h.state,
                    BreakerState::Open { .. } | BreakerState::SlowOpen { .. }
                )
            })
            .map(|(&id, _)| id)
            .collect()
    }

    /// Ticks the cool-downs at the end of a completed query: `Open` device
    /// and kernel breakers (except those tripped during this query) count
    /// down and half-open at zero; stale probe markers are cleared.
    pub fn on_query_completed(&mut self) {
        if !self.policy.enabled {
            return;
        }
        for h in self.devices.values_mut() {
            h.probing = false;
            if h.tripped_this_query {
                h.tripped_this_query = false;
                continue;
            }
            if let BreakerState::Open { cooldown_left } | BreakerState::SlowOpen { cooldown_left } =
                &mut h.state
            {
                *cooldown_left = cooldown_left.saturating_sub(1);
                if *cooldown_left == 0 {
                    h.state = BreakerState::HalfOpen;
                }
            }
        }
        for k in self.kernels.values_mut() {
            k.probing = false;
            if k.tripped_this_query {
                k.tripped_this_query = false;
                continue;
            }
            if let BreakerState::Open { cooldown_left } = &mut k.state {
                *cooldown_left = cooldown_left.saturating_sub(1);
                if *cooldown_left == 0 {
                    k.state = BreakerState::HalfOpen;
                }
            }
        }
    }

    /// Deterministic per-device snapshot for reports.
    pub fn snapshot(&self) -> BTreeMap<DeviceId, HealthSnapshot> {
        self.devices
            .iter()
            .map(|(&id, h)| {
                (
                    id,
                    HealthSnapshot {
                        state: h.state,
                        kernel_failures: h.total_failures - h.ooms,
                        ooms: h.ooms,
                        retry_penalty_ns: self.retry_penalty_ns(id),
                        open_kernels: self.open_kernels(id),
                        latency_overruns: h.latency_overruns,
                        corruptions: h.corruptions,
                    },
                )
            })
            .collect()
    }

    /// Deterministic per-`(device, kernel)` breaker snapshot.
    pub fn kernel_snapshot(&self) -> BTreeMap<(DeviceId, String), KernelSnapshot> {
        self.kernels
            .iter()
            .map(|((d, name), k)| {
                (
                    (*d, name.clone()),
                    KernelSnapshot {
                        state: k.state,
                        failures: k.total_failures,
                        trips: k.trips,
                        probes: k.probes,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> DeviceHealthRegistry {
        DeviceHealthRegistry::new(HealthPolicy {
            failure_threshold: 2,
            cooldown_queries: 2,
            broken_kernel_threshold: 2,
            kernel_cooldown_queries: 2,
            device_trip_min_kernels: 2,
            ..HealthPolicy::default()
        })
    }

    const D: DeviceId = DeviceId(0);

    #[test]
    fn forget_device_drops_every_record() {
        let mut r = reg();
        r.record_attempt(D);
        r.record_kernel_failure(D, "agg_block", 100.0);
        r.record_kernel_failure(D, "agg_block", 100.0);
        let other = DeviceId(1);
        r.record_attempt(other);
        assert!(r.snapshot().contains_key(&D), "device 0 is reported");
        r.forget_device(D);
        assert!(
            !r.snapshot().contains_key(&D),
            "ghost device must vanish from the snapshot"
        );
        assert!(
            r.kernel_snapshot().keys().all(|(dev, _)| *dev != D),
            "ghost kernel breakers must vanish too"
        );
        assert!(r.snapshot().contains_key(&other), "other devices are kept");
        assert!(!r.kernel_known_broken(D, "agg_block"));
        assert_eq!(r.retry_penalty_ns(D), 0.0);
    }

    #[test]
    fn admit_half_open_enters_the_probe_ramp() {
        let mut r = reg();
        r.admit_half_open(D);
        assert!(r.is_half_open(D));
        assert!(r.probe_candidate(D));
        r.begin_probe(D);
        assert!(!r.probe_candidate(D), "one probe in flight at a time");
        assert!(r.record_success(D), "probe success closes the breaker");
        assert!(!r.is_half_open(D));
        assert!(!r.is_quarantined(D));
    }

    #[test]
    fn single_kernel_trips_kernel_breaker_not_device() {
        let mut r = reg();
        r.record_attempt(D);
        let v = r.record_kernel_failure(D, "agg_block", 100.0);
        assert!(!v.kernel_tripped && !v.device_tripped);
        let v = r.record_kernel_failure(D, "agg_block", 100.0);
        assert!(v.kernel_tripped, "kernel breaker should trip at threshold");
        assert!(!v.device_tripped, "one kernel must not quarantine device");
        assert!(r.kernel_known_broken(D, "agg_block"));
        assert!(!r.is_quarantined(D), "device stays healthy");
        assert_eq!(r.open_kernels(D), 1);
        assert!(r.quarantined_ids().is_empty());
    }

    #[test]
    fn multi_kernel_streak_trips_device_breaker() {
        let mut r = reg();
        let v = r.record_kernel_failure(D, "map", 10.0);
        assert!(!v.device_tripped);
        let v = r.record_kernel_failure(D, "agg_block", 10.0);
        assert!(
            v.device_tripped,
            "streak of 2 across 2 distinct kernels trips the device"
        );
        assert!(r.is_quarantined(D));
        assert_eq!(r.quarantined_ids(), vec![D]);
    }

    #[test]
    fn success_resets_consecutive_and_streak() {
        let mut r = reg();
        r.record_kernel_failure(D, "map", 1.0);
        r.record_success(D);
        let v = r.record_kernel_failure(D, "agg_block", 1.0);
        assert!(!v.device_tripped, "streak was reset by the success");
        assert!(!r.is_quarantined(D));
    }

    #[test]
    fn kernel_cooldown_probe_restores() {
        let mut r = reg();
        r.record_kernel_failure(D, "k", 1.0);
        r.record_kernel_failure(D, "k", 1.0); // kernel breaker trips, cooldown 2
        assert!(r.kernel_known_broken(D, "k"));
        r.on_query_completed(); // tripped this query: no decrement
        assert!(r.kernel_known_broken(D, "k"));
        r.on_query_completed(); // 2 -> 1
        assert!(r.kernel_known_broken(D, "k"));
        r.on_query_completed(); // 1 -> 0 -> HalfOpen
        assert!(!r.kernel_known_broken(D, "k"));
        assert!(r.kernel_probe_candidate(D, "k"));
        r.begin_kernel_probe(D, "k");
        assert!(!r.kernel_probe_candidate(D, "k"), "one probe per query");
        assert!(r.record_kernel_success(D, "k"), "probe success restores");
        assert_eq!(r.kernel_state(D, "k"), Some(BreakerState::Closed));
        let snap = &r.kernel_snapshot()[&(D, "k".to_string())];
        assert_eq!(snap.trips, 1);
        assert_eq!(snap.probes, 1);
        assert_eq!(snap.failures, 0, "probe success clears failure memory");
        assert_eq!(
            r.retry_penalty_ns(D),
            0.0,
            "last bad kernel recovering clears the device's wasted memory"
        );
    }

    #[test]
    fn failed_kernel_probe_reopens() {
        let mut r = reg();
        r.record_kernel_failure(D, "k", 1.0);
        r.record_kernel_failure(D, "k", 1.0);
        r.on_query_completed();
        r.on_query_completed();
        r.on_query_completed();
        r.begin_kernel_probe(D, "k");
        let v = r.record_kernel_failure(D, "k", 1.0);
        assert!(v.kernel_tripped, "failed kernel probe re-trips");
        assert!(r.kernel_known_broken(D, "k"));
        assert_eq!(r.kernel_snapshot()[&(D, "k".to_string())].trips, 2);
    }

    #[test]
    fn device_cooldown_then_half_open_then_probe_restores() {
        let mut r = reg();
        r.record_kernel_failure(D, "a", 1.0);
        r.record_kernel_failure(D, "b", 1.0); // device trips, cooldown 2
        r.on_query_completed(); // tripped this query: no decrement
        assert!(r.is_quarantined(D));
        r.on_query_completed(); // 2 -> 1
        assert!(r.is_quarantined(D));
        r.on_query_completed(); // 1 -> 0 -> HalfOpen
        assert!(!r.is_quarantined(D));
        assert!(r.probe_candidate(D));
        r.begin_probe(D);
        assert!(!r.probe_candidate(D), "one probe per query");
        assert!(r.record_success(D), "probe success restores Closed");
        assert!(!r.is_half_open(D));
        assert_eq!(r.retry_penalty_ns(D), 0.0, "failure memory cleared");
        assert!(!r.kernel_known_broken(D, "a"), "kernel memory cleared too");
    }

    #[test]
    fn failed_device_probe_reopens() {
        let mut r = reg();
        r.record_kernel_failure(D, "a", 1.0);
        r.record_kernel_failure(D, "b", 1.0);
        r.on_query_completed();
        r.on_query_completed();
        r.on_query_completed();
        r.begin_probe(D);
        let v = r.record_kernel_failure(D, "a", 1.0);
        assert!(v.device_tripped, "failed probe re-trips");
        assert!(r.is_quarantined(D));
    }

    #[test]
    fn oom_does_not_trip_closed_breaker_but_fails_probe() {
        let mut r = reg();
        for _ in 0..10 {
            assert!(!r.record_oom(D, 50.0));
        }
        assert!(!r.is_quarantined(D));
        assert!(r.retry_penalty_ns(D) > 0.0, "OOM pressure raises penalty");
        // Trip via kernel failures, cool down, then fail the probe with OOM.
        r.record_kernel_failure(D, "a", 1.0);
        r.record_kernel_failure(D, "b", 1.0);
        r.on_query_completed();
        r.on_query_completed();
        r.on_query_completed();
        r.begin_probe(D);
        assert!(r.record_oom(D, 1.0));
        assert!(r.is_quarantined(D));
    }

    #[test]
    fn known_broken_kernel_threshold() {
        let mut r = reg();
        r.record_kernel_failure(D, "hash_build", 1.0);
        assert!(!r.kernel_known_broken(D, "hash_build"));
        r.record_kernel_failure(D, "hash_build", 1.0);
        assert!(r.kernel_known_broken(D, "hash_build"));
        assert!(!r.kernel_known_broken(D, "hash_probe"));
        assert!(!r.kernel_known_broken(DeviceId(1), "hash_build"));
    }

    #[test]
    fn retry_penalty_is_rate_times_cost() {
        let mut r = reg();
        // 4 attempts, 1 failure wasting 1000 ns: rate 0.25, avg 1000.
        for _ in 0..4 {
            r.record_attempt(D);
        }
        r.record_kernel_failure(D, "k", 1000.0);
        assert!((r.retry_penalty_ns(D) - 250.0).abs() < 1e-9);
        assert_eq!(r.retry_penalty_ns(DeviceId(7)), 0.0);
    }

    #[test]
    fn disabled_policy_records_nothing() {
        let mut r = DeviceHealthRegistry::new(HealthPolicy {
            enabled: false,
            ..HealthPolicy::default()
        });
        r.record_attempt(D);
        r.record_kernel_failure(D, "k", 1.0);
        r.record_kernel_failure(D, "k", 1.0);
        assert!(!r.is_quarantined(D));
        assert!(!r.kernel_known_broken(D, "k"));
        assert_eq!(r.retry_penalty_ns(D), 0.0);
        assert!(r.snapshot().is_empty());
        assert!(r.kernel_snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_deterministic_and_split() {
        let mut r = reg();
        r.record_attempt(D);
        r.record_kernel_failure(D, "k", 10.0);
        r.record_oom(D, 5.0);
        let snap = r.snapshot();
        let s = &snap[&D];
        assert_eq!(s.kernel_failures, 1);
        assert_eq!(s.ooms, 1);
        assert_eq!(s.state, BreakerState::Closed);
        assert_eq!(s.open_kernels, 0);
        assert!(s.retry_penalty_ns > 0.0);
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::Open { cooldown_left: 1 }.label(), "open");
        assert_eq!(BreakerState::HalfOpen.label(), "half-open");
    }

    #[test]
    fn slow_breaker_trips_cools_down_and_probe_restores() {
        let mut r = reg(); // slow_trip_ratio 4.0, min overruns 3, cooldown 2
        assert!(!r.record_latency_overrun(D, 100.0, 900.0));
        assert!(!r.record_latency_overrun(D, 100.0, 900.0));
        assert_eq!(r.latency_penalty_ns(D), 800.0, "EWMA of a constant excess");
        assert!(!r.is_quarantined(D), "two overruns are not chronic yet");
        assert!(
            r.record_latency_overrun(D, 100.0, 900.0),
            "third overrun with 9x smoothed ratio trips SlowOpen"
        );
        assert!(r.is_quarantined(D));
        assert_eq!(r.quarantined_ids(), vec![D]);
        assert_eq!(r.snapshot()[&D].state.label(), "slow-open");
        assert_eq!(r.snapshot()[&D].latency_overruns, 3);
        r.on_query_completed(); // tripped this query: no decrement
        assert!(r.is_quarantined(D));
        r.on_query_completed(); // 2 -> 1
        r.on_query_completed(); // 1 -> 0 -> HalfOpen
        assert!(!r.is_quarantined(D));
        assert!(r.probe_candidate(D));
        r.begin_probe(D);
        assert!(r.record_success(D), "probe success restores Closed");
        assert_eq!(r.latency_penalty_ns(D), 0.0, "latency memory cleared");
        assert_eq!(r.snapshot()[&D].latency_overruns, 0);
    }

    #[test]
    fn mild_overruns_never_trip() {
        let mut r = reg();
        for _ in 0..20 {
            // 2x over budget: slow, but under the 4x chronic threshold.
            assert!(!r.record_latency_overrun(D, 100.0, 200.0));
        }
        assert!(!r.is_quarantined(D));
        assert!(
            r.latency_penalty_ns(D) > 0.0,
            "still penalized in placement"
        );
    }

    #[test]
    fn corruption_is_counted_and_cleared_by_probe_success() {
        let mut r = reg();
        r.record_corruption(D);
        r.record_corruption(D);
        assert_eq!(r.snapshot()[&D].corruptions, 2);
        assert!(!r.is_quarantined(D), "corruption alone never quarantines");
    }
}
