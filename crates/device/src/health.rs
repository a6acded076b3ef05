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
//!   circuit breaker: `Closed → Open` after two consecutive failures of that
//!   kernel on that device. Placement and fallback never send work that
//!   resolves to an `Open` kernel there — but the device itself stays
//!   available for everything else. A broken kernel does not quarantine an
//!   otherwise healthy device.
//! * **Device quarantine.** The device breaker trips only on evidence of
//!   *device-wide* sickness: a consecutive-failure streak spanning two
//!   distinct kernels, or chronic lateness (three watchdog overruns with a
//!   smoothed actual/expected ratio of at least 4). Quarantined (`Open`)
//!   devices are skipped by initial placement, by the scheduler while a
//!   healthy device qualifies, and by `repoint_pipeline`.
//! * **Probing.** After a cool-down of two completed queries a breaker moves
//!   `Open → HalfOpen`; one probe per query is admitted. A successful probe
//!   restores `Closed` and clears the failure memory; a failed probe
//!   re-opens the breaker for another cool-down. Kernel probes are granted
//!   per `(device, kernel)` and resolved by
//!   [`DeviceHealthRegistry::record_kernel_success`].
//!
//! The registry only filters: a ranking among the devices it lets through
//! is the cost model's [`crate::cost::CostModel::placement_cost_ns`] alone.
//!
//! Device and kernel breakers are one `Breaker` type, the only code that
//! moves a [`BreakerState`]. Everything here is deterministic: state
//! transitions depend only on the sequence of recorded events, and the
//! snapshot exports use `BTreeMap`s so reports are byte-stable.

use crate::device::DeviceId;
use std::collections::{BTreeMap, BTreeSet};

/// Consecutive failures of one kernel on one device that trip its
/// `(device, kernel)` breaker.
const KERNEL_TRIP_STREAK: u32 = 2;
/// Distinct kernels a device's consecutive-failure streak must span before
/// the device breaker trips (each failure adds at most one, so the streak
/// is at least this long too).
const DEVICE_TRIP_KERNELS: usize = 2;
/// Completed queries a tripped breaker stays `Open` before it half-opens;
/// the query that tripped it does not count.
const COOLDOWN_QUERIES: u32 = 2;
/// Watchdog overruns a device must record before lateness can trip it (one
/// slow chunk is noise; a run of them is a straggler).
const SLOW_TRIP_OVERRUNS: u32 = 3;
/// Smoothed actual/expected latency ratio at which a device is chronically
/// slow.
const SLOW_TRIP_RATIO: f64 = 4.0;

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
}

impl BreakerState {
    /// Stable lowercase label for reports (`"closed"`, `"open"`,
    /// `"half-open"`).
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// One circuit breaker — a device's or a `(device, kernel)` pair's. Its
/// methods are the only code that moves a [`BreakerState`].
#[derive(Clone, Copy, Debug, Default)]
struct Breaker {
    state: BreakerState,
    /// A `HalfOpen` probe is in flight this query.
    probing: bool,
    /// The breaker tripped during the current query (its cool-down only
    /// starts counting from the *next* completed query).
    tripped_this_query: bool,
}

impl Breaker {
    /// `→ Open` for a full cool-down: a `Closed` breaker's trip rule held,
    /// or its probe failed.
    fn trip(&mut self) {
        *self = Breaker {
            state: BreakerState::Open {
                cooldown_left: COOLDOWN_QUERIES,
            },
            probing: false,
            tripped_this_query: true,
        };
    }

    /// Trips a `Closed` breaker whose trip rule `holds`. Returns whether it
    /// tripped.
    fn trip_if_closed(&mut self, holds: bool) -> bool {
        let trips = holds && self.state == BreakerState::Closed;
        if trips {
            self.trip();
        }
        trips
    }

    fn probe_in_flight(&self) -> bool {
        self.state == BreakerState::HalfOpen && self.probing
    }

    /// A failure during the in-flight probe re-opens the breaker. Returns
    /// whether there was such a probe.
    fn fail_probe(&mut self) -> bool {
        let failed = self.probe_in_flight();
        if failed {
            self.trip();
        }
        failed
    }

    /// A success of the in-flight probe closes the breaker. Returns whether
    /// there was such a probe.
    fn close_probe(&mut self) -> bool {
        let closed = self.probe_in_flight();
        if closed {
            *self = Breaker::default();
        }
        closed
    }

    /// `HalfOpen` with no probe in flight yet.
    fn probe_candidate(&self) -> bool {
        self.state == BreakerState::HalfOpen && !self.probing
    }

    fn grant_probe(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probing = true;
        }
    }

    fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }

    /// End of a completed query: stale probe markers clear, and an `Open`
    /// breaker not tripped during this query counts its cool-down down,
    /// half-opening at zero.
    fn tick(&mut self) {
        self.probing = false;
        if std::mem::take(&mut self.tripped_this_query) {
            return;
        }
        if let BreakerState::Open { cooldown_left } = &mut self.state {
            *cooldown_left = cooldown_left.saturating_sub(1);
            if *cooldown_left == 0 {
                self.state = BreakerState::HalfOpen;
            }
        }
    }
}

/// Per-`(device, kernel)` breaker record.
#[derive(Clone, Debug, Default)]
struct KernelHealth {
    breaker: Breaker,
    consecutive_failures: u32,
    /// Failures of this kernel here (cleared by a successful kernel probe).
    total_failures: u64,
}

/// Per-device health record, including the device's kernel breakers.
#[derive(Clone, Debug, Default)]
struct DeviceHealth {
    breaker: Breaker,
    /// This device's `(device, kernel)` breakers, by kernel name.
    kernels: BTreeMap<String, KernelHealth>,
    /// Distinct kernels seen in the current consecutive-failure streak.
    streak_kernels: BTreeSet<String>,
    total_failures: u64,
    ooms: u64,
    /// Watchdog overruns recorded (cleared by a successful probe).
    latency_overruns: u32,
    /// Smoothed actual/expected duration ratio of overrunning operations.
    slow_ratio_ewma: f64,
    /// Transfer corruptions detected on this device (cleared by a successful
    /// probe).
    corruptions: u64,
}

impl DeviceHealth {
    fn open_kernels(&self) -> u64 {
        self.kernels
            .values()
            .filter(|k| k.breaker.is_open())
            .count() as u64
    }
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
    /// Kernels currently quarantined (`Open`) on this device.
    pub open_kernels: u64,
    /// Watchdog overruns recorded against this device (why an `Open`
    /// breaker tripped when no kernel failed).
    pub latency_overruns: u32,
    /// Transfer corruptions detected on this device.
    pub corruptions: u64,
}

/// Cross-query device health registry. Owned by the executor; shared across
/// queries (and across concurrently scheduled queries).
#[derive(Clone, Debug, Default)]
pub struct DeviceHealthRegistry {
    devices: BTreeMap<DeviceId, DeviceHealth>,
}

impl DeviceHealthRegistry {
    /// Drops every record for `device` — its device breaker and all of its
    /// `(device, kernel)` breakers. Called when a device is unplugged so the
    /// registry's snapshots never report a ghost device, and a
    /// later hot-add reusing nothing starts with a clean slate.
    pub fn forget_device(&mut self, device: DeviceId) {
        self.devices.remove(&device);
    }

    /// Registers a hot-added `device` in `HalfOpen`: it earns traffic
    /// through the existing probe ramp (one probe pipeline per query,
    /// promoted to `Closed` by [`Self::record_success`]) instead of
    /// instantly absorbing a full share of placement. Kernel breakers
    /// already recorded for the id are kept.
    pub fn admit_half_open(&mut self, device: DeviceId) {
        let h = self.entry(device);
        *h = DeviceHealth {
            breaker: Breaker {
                state: BreakerState::HalfOpen,
                ..Breaker::default()
            },
            kernels: std::mem::take(&mut h.kernels),
            ..DeviceHealth::default()
        };
    }

    fn entry(&mut self, device: DeviceId) -> &mut DeviceHealth {
        self.devices.entry(device).or_default()
    }

    fn kernel(&self, device: DeviceId, kernel: &str) -> Option<&KernelHealth> {
        self.devices.get(&device)?.kernels.get(kernel)
    }

    /// Records a kernel execution failure of `kernel` on `device`. Returns
    /// which breakers this failure tripped: the `(device, kernel)` breaker
    /// after two consecutive failures of that kernel, the device breaker only
    /// when its streak spans two distinct kernels — or either one whose probe
    /// was in flight.
    pub fn record_kernel_failure(&mut self, device: DeviceId, kernel: &str) -> FailureVerdict {
        let h = self.entry(device);
        let k = h.kernels.entry(kernel.to_owned()).or_default();
        k.total_failures += 1;
        k.consecutive_failures += 1;
        let kernel_tripped = k.breaker.fail_probe()
            || k.breaker
                .trip_if_closed(k.consecutive_failures >= KERNEL_TRIP_STREAK);
        h.total_failures += 1;
        h.streak_kernels.insert(kernel.to_owned());
        let device_tripped = h.breaker.fail_probe()
            || h.breaker
                .trip_if_closed(h.streak_kernels.len() >= DEVICE_TRIP_KERNELS);
        FailureVerdict {
            device_tripped,
            kernel_tripped,
        }
    }

    /// Records an out-of-memory event on `device`. An OOM is counted but
    /// does not trip a `Closed` breaker (chunk backoff owns that failure
    /// class); it *does* fail an in-flight `HalfOpen` device probe. Returns
    /// `true` when the probe was failed (breaker re-opened).
    pub fn record_oom(&mut self, device: DeviceId) -> bool {
        let h = self.entry(device);
        h.ooms += 1;
        h.total_failures += 1;
        h.breaker.fail_probe()
    }

    /// Records a successful pipeline execution on `device`. Returns `true`
    /// when this success completed a `HalfOpen` device probe (breaker
    /// restored to `Closed` and the device's failure memory — including its
    /// kernel breakers — cleared).
    pub fn record_success(&mut self, device: DeviceId) -> bool {
        let h = self.entry(device);
        h.streak_kernels.clear();
        if !h.breaker.close_probe() {
            return false;
        }
        *h = DeviceHealth::default();
        true
    }

    /// Records that `kernel` executed successfully on `device` (the executor
    /// reports every kernel a successful pipeline resolved). Resets the
    /// kernel's consecutive-failure streak; returns `true` when this success
    /// completed a `HalfOpen` kernel probe (kernel breaker restored to
    /// `Closed`, its failure memory cleared, and — when no other kernel on
    /// the device is still bad — the device's failure counts cleared too).
    pub fn record_kernel_success(&mut self, device: DeviceId, kernel: &str) -> bool {
        let Some(h) = self.devices.get_mut(&device) else {
            return false;
        };
        let Some(k) = h.kernels.get_mut(kernel) else {
            return false;
        };
        k.consecutive_failures = 0;
        if !k.breaker.close_probe() {
            return false;
        }
        k.total_failures = 0;
        let all_clear = h
            .kernels
            .values()
            .all(|k| k.breaker.state == BreakerState::Closed && k.total_failures == 0);
        if all_clear && h.breaker.state == BreakerState::Closed {
            h.total_failures = 0;
            h.ooms = 0;
        }
        true
    }

    /// Records a watchdog overrun on `device`: an operation the cost model
    /// expected to take `clean_ns` actually took `actual_ns`. Feeds the
    /// smoothed ratio and trips a `Closed` device breaker once the device has
    /// overrun at least three times with a smoothed ratio of at least 4.
    /// Returns `true` when this overrun tripped the breaker.
    pub fn record_latency_overrun(
        &mut self,
        device: DeviceId,
        clean_ns: f64,
        actual_ns: f64,
    ) -> bool {
        let h = self.entry(device);
        let ratio = if clean_ns > 0.0 {
            actual_ns / clean_ns
        } else {
            SLOW_TRIP_RATIO
        };
        h.slow_ratio_ewma = if h.latency_overruns == 0 {
            ratio
        } else {
            0.5 * h.slow_ratio_ewma + 0.5 * ratio
        };
        h.latency_overruns = h.latency_overruns.saturating_add(1);
        h.breaker.trip_if_closed(
            h.latency_overruns >= SLOW_TRIP_OVERRUNS && h.slow_ratio_ewma >= SLOW_TRIP_RATIO,
        )
    }

    /// Records a detected transfer corruption on `device` (checksum
    /// mismatch). Corruptions do not trip a breaker — the hub's retransmit
    /// loop owns recovery — but they are remembered for reports and
    /// snapshots.
    pub fn record_corruption(&mut self, device: DeviceId) {
        self.entry(device).corruptions += 1;
    }

    /// Whether `device` is quarantined (device breaker `Open`).
    pub fn is_quarantined(&self, device: DeviceId) -> bool {
        self.devices
            .get(&device)
            .is_some_and(|h| h.breaker.is_open())
    }

    /// Whether `device` is `HalfOpen` (only a probe pipeline may use it).
    pub fn is_half_open(&self, device: DeviceId) -> bool {
        self.devices
            .get(&device)
            .is_some_and(|h| h.breaker.state == BreakerState::HalfOpen)
    }

    /// Whether `device` is `HalfOpen` with no probe in flight yet — the next
    /// pipeline placed there may be admitted via [`Self::begin_probe`].
    pub fn probe_candidate(&self, device: DeviceId) -> bool {
        self.devices
            .get(&device)
            .is_some_and(|h| h.breaker.probe_candidate())
    }

    /// Marks the `HalfOpen` probe on `device` as in flight.
    pub fn begin_probe(&mut self, device: DeviceId) {
        if let Some(h) = self.devices.get_mut(&device) {
            h.breaker.grant_probe();
        }
    }

    /// Whether the `(device, kernel)` breaker is `Open` — placement and
    /// fallback must not pick such a candidate for work that runs this
    /// kernel, even though the device itself may be healthy.
    pub fn kernel_known_broken(&self, device: DeviceId, kernel: &str) -> bool {
        self.kernel(device, kernel)
            .is_some_and(|k| k.breaker.is_open())
    }

    /// The `(device, kernel)` breaker state, if any failures were recorded.
    pub fn kernel_state(&self, device: DeviceId, kernel: &str) -> Option<BreakerState> {
        self.kernel(device, kernel).map(|k| k.breaker.state)
    }

    /// Whether the `(device, kernel)` breaker is `HalfOpen` with no probe in
    /// flight — the next pipeline resolving this kernel there may be
    /// admitted via [`Self::begin_kernel_probe`].
    pub fn kernel_probe_candidate(&self, device: DeviceId, kernel: &str) -> bool {
        self.kernel(device, kernel)
            .is_some_and(|k| k.breaker.probe_candidate())
    }

    /// Marks the `HalfOpen` probe of `(device, kernel)` as in flight.
    pub fn begin_kernel_probe(&mut self, device: DeviceId, kernel: &str) {
        if let Some(k) = self
            .devices
            .get_mut(&device)
            .and_then(|h| h.kernels.get_mut(kernel))
        {
            k.breaker.grant_probe();
        }
    }

    /// Kernels currently quarantined (`Open`) on `device`.
    pub fn open_kernels(&self, device: DeviceId) -> u64 {
        self.devices
            .get(&device)
            .map_or(0, DeviceHealth::open_kernels)
    }

    /// Ids currently quarantined (device breaker `Open`), ascending.
    pub fn quarantined_ids(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|(_, h)| h.breaker.is_open())
            .map(|(&id, _)| id)
            .collect()
    }

    /// Ticks every device and kernel breaker at the end of a completed
    /// query (see `Breaker::tick`).
    pub fn on_query_completed(&mut self) {
        for h in self.devices.values_mut() {
            h.breaker.tick();
            for k in h.kernels.values_mut() {
                k.breaker.tick();
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
                        state: h.breaker.state,
                        kernel_failures: h.total_failures - h.ooms,
                        ooms: h.ooms,
                        open_kernels: h.open_kernels(),
                        latency_overruns: h.latency_overruns,
                        corruptions: h.corruptions,
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
        DeviceHealthRegistry::default()
    }

    const D: DeviceId = DeviceId(0);

    #[test]
    fn forget_device_drops_every_record() {
        let mut r = reg();
        r.record_kernel_failure(D, "agg_block");
        r.record_kernel_failure(D, "agg_block");
        let other = DeviceId(1);
        r.record_corruption(other);
        assert!(r.snapshot().contains_key(&D), "device 0 is reported");
        r.forget_device(D);
        assert!(
            !r.snapshot().contains_key(&D),
            "ghost device must vanish from the snapshot"
        );
        assert_eq!(
            r.kernel_state(D, "agg_block"),
            None,
            "ghost kernel breakers must vanish too"
        );
        assert!(r.snapshot().contains_key(&other), "other devices are kept");
        assert!(!r.kernel_known_broken(D, "agg_block"));
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
        let v = r.record_kernel_failure(D, "agg_block");
        assert!(!v.kernel_tripped && !v.device_tripped);
        let v = r.record_kernel_failure(D, "agg_block");
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
        let v = r.record_kernel_failure(D, "map");
        assert!(!v.device_tripped);
        let v = r.record_kernel_failure(D, "agg_block");
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
        r.record_kernel_failure(D, "map");
        r.record_success(D);
        let v = r.record_kernel_failure(D, "agg_block");
        assert!(!v.device_tripped, "streak was reset by the success");
        assert!(!r.is_quarantined(D));
    }

    #[test]
    fn kernel_cooldown_probe_restores() {
        let mut r = reg();
        r.record_kernel_failure(D, "k");
        r.record_kernel_failure(D, "k"); // kernel breaker trips, cooldown 2
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
        assert_eq!(
            r.snapshot()[&D].kernel_failures,
            0,
            "last bad kernel recovering clears the device's failure memory"
        );
    }

    #[test]
    fn failed_kernel_probe_reopens() {
        let mut r = reg();
        r.record_kernel_failure(D, "k");
        r.record_kernel_failure(D, "k");
        r.on_query_completed();
        r.on_query_completed();
        r.on_query_completed();
        r.begin_kernel_probe(D, "k");
        let v = r.record_kernel_failure(D, "k");
        assert!(v.kernel_tripped, "failed kernel probe re-trips");
        assert!(r.kernel_known_broken(D, "k"));
        assert_eq!(
            r.kernel_state(D, "k"),
            Some(BreakerState::Open { cooldown_left: 2 }),
            "a failed probe re-opens for a full cool-down"
        );
    }

    #[test]
    fn device_cooldown_then_half_open_then_probe_restores() {
        let mut r = reg();
        r.record_kernel_failure(D, "a");
        r.record_kernel_failure(D, "b"); // device trips, cooldown 2
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
        assert_eq!(
            r.snapshot()[&D].kernel_failures,
            0,
            "failure memory cleared"
        );
        assert!(!r.kernel_known_broken(D, "a"), "kernel memory cleared too");
    }

    #[test]
    fn failed_device_probe_reopens() {
        let mut r = reg();
        r.record_kernel_failure(D, "a");
        r.record_kernel_failure(D, "b");
        r.on_query_completed();
        r.on_query_completed();
        r.on_query_completed();
        r.begin_probe(D);
        let v = r.record_kernel_failure(D, "a");
        assert!(v.device_tripped, "failed probe re-trips");
        assert!(r.is_quarantined(D));
    }

    #[test]
    fn oom_does_not_trip_closed_breaker_but_fails_probe() {
        let mut r = reg();
        for _ in 0..10 {
            assert!(!r.record_oom(D));
        }
        assert!(!r.is_quarantined(D));
        assert_eq!(r.snapshot()[&D].ooms, 10, "OOMs are counted");
        // Trip via kernel failures, cool down, then fail the probe with OOM.
        r.record_kernel_failure(D, "a");
        r.record_kernel_failure(D, "b");
        r.on_query_completed();
        r.on_query_completed();
        r.on_query_completed();
        r.begin_probe(D);
        assert!(r.record_oom(D));
        assert!(r.is_quarantined(D));
    }

    #[test]
    fn known_broken_kernel_threshold() {
        let mut r = reg();
        r.record_kernel_failure(D, "hash_build");
        assert!(!r.kernel_known_broken(D, "hash_build"));
        r.record_kernel_failure(D, "hash_build");
        assert!(r.kernel_known_broken(D, "hash_build"));
        assert!(!r.kernel_known_broken(D, "hash_probe"));
        assert!(!r.kernel_known_broken(DeviceId(1), "hash_build"));
    }

    #[test]
    fn snapshot_is_deterministic_and_split() {
        let mut r = reg();
        r.record_kernel_failure(D, "k");
        r.record_oom(D);
        let snap = r.snapshot();
        let s = &snap[&D];
        assert_eq!(s.kernel_failures, 1);
        assert_eq!(s.ooms, 1);
        assert_eq!(s.state, BreakerState::Closed);
        assert_eq!(s.open_kernels, 0);
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::Open { cooldown_left: 1 }.label(), "open");
        assert_eq!(BreakerState::HalfOpen.label(), "half-open");
    }

    #[test]
    fn slow_breaker_trips_cools_down_and_probe_restores() {
        let mut r = reg(); // slow trip: ratio 4.0, min overruns 3, cooldown 2
        assert!(!r.record_latency_overrun(D, 100.0, 900.0));
        assert!(!r.record_latency_overrun(D, 100.0, 900.0));
        assert!(!r.is_quarantined(D), "two overruns are not chronic yet");
        assert!(
            r.record_latency_overrun(D, 100.0, 900.0),
            "third overrun with 9x smoothed ratio trips the breaker"
        );
        assert!(r.is_quarantined(D));
        assert_eq!(r.quarantined_ids(), vec![D]);
        assert_eq!(r.snapshot()[&D].state.label(), "open");
        assert_eq!(r.snapshot()[&D].latency_overruns, 3);
        r.on_query_completed(); // tripped this query: no decrement
        assert!(r.is_quarantined(D));
        r.on_query_completed(); // 2 -> 1
        r.on_query_completed(); // 1 -> 0 -> HalfOpen
        assert!(!r.is_quarantined(D));
        assert!(r.probe_candidate(D));
        r.begin_probe(D);
        assert!(r.record_success(D), "probe success restores Closed");
        assert_eq!(
            r.snapshot()[&D].latency_overruns,
            0,
            "latency memory cleared"
        );
    }

    #[test]
    fn mild_overruns_never_trip() {
        let mut r = reg();
        for _ in 0..20 {
            // 2x over budget: slow, but under the 4x chronic threshold.
            assert!(!r.record_latency_overrun(D, 100.0, 200.0));
        }
        assert!(!r.is_quarantined(D));
        assert_eq!(r.snapshot()[&D].latency_overruns, 20);
    }

    /// Pins every decision the registry makes over a few thousand seeded
    /// events (2 devices × 3 kernels): after each step the placement-facing
    /// predicates and the trip/close verdicts are folded into one content
    /// hash. A refactor of the breakers must not move it.
    #[test]
    fn seeded_event_sequence_is_pinned() {
        use adamant_storage::fnv::{content_hash, Content};
        use adamant_storage::rng::Rng;

        const KERNELS: [&str; 3] = ["map", "agg_block", "hash_probe"];
        let mut rng = Rng::new(25);
        let mut r = DeviceHealthRegistry::default();
        let mut digest = 0u64;
        // Device probe closes, kernel probe closes, device trips, kernel
        // trips, probes failed by OOM, slow trips: each must occur.
        let mut seen = [0u32; 6];
        for _ in 0..6000 {
            let d = DeviceId(rng.gen_range(0u32..2));
            let k = KERNELS[rng.gen_range(0usize..3)];
            // An unused draw and an empty event slot (0..=19) keep the
            // pinned event sequence.
            let _unused = rng.gen_range(0u32..1000);
            let mut verdict = FailureVerdict::default();
            let mut closed = false;
            let event = rng.gen_range(0u32..100);
            match event {
                0..=19 => {}
                20..=44 => verdict = r.record_kernel_failure(d, k),
                45..=49 => verdict.device_tripped = r.record_oom(d),
                50..=59 => closed = r.record_success(d),
                60..=69 => closed = r.record_kernel_success(d, k),
                70..=74 => {
                    let slow = 100.0 * rng.gen_range(1u32..13) as f64;
                    verdict.device_tripped = r.record_latency_overrun(d, 100.0, slow);
                }
                75..=79 => r.begin_probe(d),
                80..=84 => r.begin_kernel_probe(d, k),
                85..=97 => r.on_query_completed(),
                98 => r.forget_device(d),
                _ => r.admit_half_open(d),
            }
            let tally = [
                closed && event < 60,
                closed && event >= 60,
                verdict.device_tripped && event < 45,
                verdict.kernel_tripped,
                verdict.device_tripped && (45..50).contains(&event),
                verdict.device_tripped && (70..75).contains(&event),
            ];
            for (n, hit) in seen.iter_mut().zip(tally) {
                *n += hit as u32;
            }
            let mut words = vec![digest as i64];
            for dev in [DeviceId(0), DeviceId(1)] {
                let mut bits = [
                    r.is_quarantined(dev),
                    r.is_half_open(dev),
                    r.probe_candidate(dev),
                ]
                .iter()
                .fold(0i64, |w, &b| w << 1 | b as i64);
                for k in KERNELS {
                    bits = bits << 2
                        | (r.kernel_known_broken(dev, k) as i64) << 1
                        | r.kernel_probe_candidate(dev, k) as i64;
                }
                words.extend([bits, r.open_kernels(dev) as i64]);
            }
            words.push(
                (verdict.device_tripped as i64) << 2
                    | (verdict.kernel_tripped as i64) << 1
                    | closed as i64,
            );
            digest = content_hash(Content::I64(&words));
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every transition occurs: {seen:?}"
        );
        assert_eq!(digest, 2_278_290_888_408_093_002);
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
