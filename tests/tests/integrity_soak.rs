//! Integrity soak: straggler and silent-corruption fault plans swept across
//! every chunked execution model. Each run must either match the fault-free
//! reference exactly or fail with a clean typed error — never panic, never
//! return silently corrupted data — and always return every device pool to
//! zero bytes. Same-seed runs must be byte-identical.
//!
//! Also hosts the end-to-end acceptance scenario for the robustness layer
//! (watchdog + hedged chunks + checksum retransmits) and the lying-driver
//! tests: transfers are verified on every transmission whether or not any
//! fault plan exists.
//!
//! The CI `soak` matrix shards the soak by seed through the
//! `INTEGRITY_SEED` environment variable.

use adamant::core::hub::DataTransferHub;
use adamant::device::clock::Lane;
use adamant::device::error::Result as DeviceResult;
use adamant::device::registry::DeviceRegistry;
use adamant::device::transform::TransformKind;
use adamant::prelude::*;
use adamant_examples::NpuDevice;
use adamant_integration_tests::{seeds, CHUNKED_MODELS};

const DEFAULT_SEEDS: [u64; 3] = [1, 7, 42];

/// The straggler × corruption fault matrix applied to device 0.
fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("straggler", FaultPlan::none().with_seed(seed).slowdown(4.0)),
        (
            "stalls",
            FaultPlan::none()
                .with_seed(seed)
                .stall_on_exec(3)
                .stall_on_transfer(2),
        ),
        (
            "corruption",
            FaultPlan::none().with_seed(seed).corrupt_transfer_rate(0.1),
        ),
        (
            "combined",
            FaultPlan::none()
                .with_seed(seed)
                .slowdown(8.0)
                .stall_on_exec(2)
                .corrupt_transfer_rate(0.05),
        ),
    ]
}

/// One engine under a fault plan; returns the run's outcome and the
/// (wall-clock-free) stats JSON of the attempt.
fn soak_run(
    catalog: &Catalog,
    plan: FaultPlan,
    model: ExecutionModel,
    hedging: bool,
) -> (Result<i64, ExecError>, String) {
    let mut builder = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(0, plan)
        .retry_policy(RetryPolicy { max_attempts: 6 });
    if !hedging {
        builder = builder.no_hedging();
    }
    let mut engine = builder.build().unwrap();
    let dev = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev, catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(catalog).unwrap();
    let outcome = engine
        .run(&graph, &inputs, model)
        .map(|(out, _)| adamant::tpch::queries::q6::decode(&out));

    // Whatever happened, nothing may leak.
    for d in engine.device_ids() {
        let pool = engine.executor().devices().get(d).unwrap();
        assert_eq!(
            pool.pool().used(),
            0,
            "{model:?}: leaked {} bytes on {d}",
            pool.pool().used()
        );
        assert_eq!(
            pool.pool().pinned_used(),
            0,
            "{model:?}: leaked pinned bytes on {d}"
        );
    }
    let mut stats = engine
        .executor()
        .last_run_stats()
        .expect("every run leaves stats")
        .clone();
    stats.wall_ns = 0;
    (outcome, stats.to_json())
}

#[test]
fn seeded_integrity_soak_across_chunked_models() {
    let catalog = TpchGenerator::new(0.001, 5).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    for seed in seeds("INTEGRITY_SEED", &DEFAULT_SEEDS) {
        for (name, plan) in fault_plans(seed) {
            for model in CHUNKED_MODELS {
                let (first, first_json) = soak_run(&catalog, plan.clone(), model, true);
                match &first {
                    Ok(result) => assert_eq!(
                        result, &reference,
                        "seed {seed} {name} {model:?}: survived run diverged from reference"
                    ),
                    Err(
                        ExecError::Device(_)
                        | ExecError::KernelFailed { .. }
                        | ExecError::DeadlineExceeded { .. }
                        | ExecError::TransferCorrupted { .. },
                    ) => {} // clean, typed failure is acceptable under faults
                    Err(other) => {
                        panic!("seed {seed} {name} {model:?}: unexpected error class: {other}")
                    }
                }
                // Same seed, fresh engine: identical outcome and stats.
                let (second, second_json) = soak_run(&catalog, plan.clone(), model, true);
                assert_eq!(
                    first.is_ok(),
                    second.is_ok(),
                    "seed {seed} {name} {model:?}: outcome flipped between identical runs"
                );
                if let (Ok(a), Ok(b)) = (&first, &second) {
                    assert_eq!(a, b, "seed {seed} {name} {model:?}: results differ");
                }
                assert_eq!(
                    first_json, second_json,
                    "seed {seed} {name} {model:?}: stats drifted between identical runs"
                );
            }
        }
    }
}

/// Distinct seeds must actually produce distinct corruption schedules
/// somewhere in the sweep — otherwise the matrix tests one schedule n times.
#[test]
fn distinct_seeds_vary_the_schedule() {
    let catalog = TpchGenerator::new(0.001, 5).generate();
    let jsons: Vec<String> = DEFAULT_SEEDS
        .iter()
        .map(|&seed| {
            let plan = FaultPlan::none()
                .with_seed(seed)
                .slowdown(2.0)
                .corrupt_transfer_rate(0.1);
            soak_run(&catalog, plan, ExecutionModel::Chunked, true).1
        })
        .collect();
    assert!(
        jsons.windows(2).any(|w| w[0] != w[1]),
        "all seeds produced identical runs — seeding is broken"
    );
}

/// The acceptance scenario of the robustness tentpole: a device that both
/// straggles (8× slowdown plus a hard stall) and silently corrupts a
/// transfer still completes TPC-H Q6 reference-exact, because
///
/// * the watchdog hedges the stalled chunk onto the healthy device and the
///   hedge wins the race (`hedge_wins >= 1`);
/// * the hub's end-to-end checksum catches the corrupted transfer and
///   retransmits it (`corruption_retransmits >= 1`);
///
/// and the hedged run's simulated makespan beats the identical run with
/// hedging disabled. Nothing leaks, and the whole scenario is byte-stable.
#[test]
fn hedge_rescues_straggler_and_checksums_catch_corruption() {
    let catalog = TpchGenerator::new(0.001, 5).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    let plan = FaultPlan::none()
        .slowdown(8.0)
        .stall_on_exec(5)
        .corrupt_on_place(2);

    let run = |hedging: bool| -> (i64, ExecutionStats) {
        let mut builder = Adamant::builder()
            .chunk_rows(500)
            .device(DeviceProfile::cuda_rtx2080ti())
            .device(DeviceProfile::opencl_cpu_i7())
            .fault_plan(0, plan.clone());
        if !hedging {
            builder = builder.no_hedging();
        }
        let mut engine = builder.build().unwrap();
        let dev = engine.device_ids()[0];
        let graph = TpchQuery::Q6.plan(dev, &catalog).unwrap();
        let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
        let (out, stats) = engine
            .run(&graph, &inputs, ExecutionModel::Chunked)
            .unwrap();
        for d in engine.device_ids() {
            let pool = engine.executor().devices().get(d).unwrap();
            assert_eq!(pool.pool().used(), 0, "hedging={hedging}: leak on {d}");
            assert_eq!(
                pool.pool().pinned_used(),
                0,
                "hedging={hedging}: pinned leak on {d}"
            );
        }
        (adamant::tpch::queries::q6::decode(&out), stats)
    };

    let (result, stats) = run(true);
    assert_eq!(result, reference, "hedged run diverged from reference");
    assert!(stats.watchdog_fires >= 1, "watchdog never fired");
    assert!(stats.hedged_launches >= 1, "no hedge launched");
    assert!(
        stats.hedge_wins >= 1,
        "hedge never beat the stalled primary"
    );
    assert!(
        stats.corruption_retransmits >= 1,
        "checksum mismatch was not caught and retransmitted"
    );
    assert!(
        stats.to_json().contains("\"hedge_wins\":"),
        "hedge counters missing from exported stats"
    );

    let (baseline_result, baseline_stats) = run(false);
    assert_eq!(baseline_result, reference, "unhedged run diverged");
    assert_eq!(
        baseline_stats.hedged_launches, 0,
        "no_hedging run still hedged"
    );
    assert!(
        stats.total_ns < baseline_stats.total_ns,
        "hedging did not shorten the simulated makespan: hedged {} >= unhedged {}",
        stats.total_ns,
        baseline_stats.total_ns
    );

    // Same faults, fresh engine: the whole rescue is deterministic.
    let (result2, mut stats2) = run(true);
    let mut stats1 = stats;
    stats1.wall_ns = 0;
    stats2.wall_ns = 0;
    assert_eq!(result2, result, "hedged rescue result drifted");
    assert_eq!(
        stats1.to_json(),
        stats2.to_json(),
        "hedged rescue stats drifted between identical runs"
    );
}

// ---- verification is unconditional: a driver that lies, no fault plan ----

/// A hand-written driver that damages payloads by itself: it wraps the
/// example NPU driver and flips one bit of what it is about to store
/// (`place_data`) or of what it hands back (`retrieve_data`) on the calls
/// `lie` selects. No `FaultPlan` is installed anywhere, so nothing the hub
/// could consult says a fault is armed — only hashing both ends can tell.
/// It forwards the two calls `NpuDevice` overrides; every other call is the
/// trait's default on the NPU's state.
struct LyingDevice {
    inner: NpuDevice,
    lie_on_place: fn(u32) -> bool,
    lie_on_retrieve: fn(u32) -> bool,
    places: u32,
    retrieves: u32,
}

impl LyingDevice {
    fn new(id: DeviceId, lie_on_place: fn(u32) -> bool, lie_on_retrieve: fn(u32) -> bool) -> Self {
        LyingDevice {
            inner: NpuDevice::new(id),
            lie_on_place,
            lie_on_retrieve,
            places: 0,
            retrieves: 0,
        }
    }
}

impl Device for LyingDevice {
    fn place_data(
        &mut self,
        id: BufferId,
        mut data: BufferData,
        offset: usize,
    ) -> DeviceResult<()> {
        self.places += 1;
        if (self.lie_on_place)(self.places) {
            assert!(data.flip_bit(self.places as usize));
        }
        self.inner.place_data(id, data, offset)
    }
    fn retrieve_data(
        &mut self,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> DeviceResult<BufferData> {
        self.retrieves += 1;
        let mut out = self.inner.retrieve_data(id, len, offset)?;
        if (self.lie_on_retrieve)(self.retrieves) {
            assert!(out.flip_bit(self.retrieves as usize));
        }
        Ok(out)
    }
    fn transform_memory(&mut self, id: BufferId, target: SdkRepr) -> DeviceResult<TransformKind> {
        self.inner.transform_memory(id, target)
    }
    fn prepare_kernel(&mut self, name: &str, source: KernelSource) -> DeviceResult<()> {
        self.inner.prepare_kernel(name, source)
    }
    fn state(&self) -> &DeviceState {
        self.inner.state()
    }
    fn state_mut(&mut self) -> &mut DeviceState {
        self.inner.state_mut()
    }
}

/// One lying device in a registry of its own, a hub with `budget`
/// transmissions per payload, and a reserved buffer to upload into.
fn lying_rig(
    lie_on_place: fn(u32) -> bool,
    lie_on_retrieve: fn(u32) -> bool,
    budget: u32,
) -> (DeviceRegistry, DeviceId, DataTransferHub, BufferId) {
    let mut devices = DeviceRegistry::new();
    let id = devices.peek_next_id();
    let dev = devices.add(Box::new(LyingDevice::new(
        id,
        lie_on_place,
        lie_on_retrieve,
    )));
    devices.get_mut(dev).unwrap().initialize().unwrap();
    let mut hub = DataTransferHub::new();
    hub.set_retransmit_budget(budget);
    let buf = hub.fresh_id();
    devices
        .get_mut(dev)
        .unwrap()
        .prepare_memory(buf, 64)
        .unwrap();
    (devices, dev, hub, buf)
}

fn faults_injected(devices: &DeviceRegistry, dev: DeviceId) -> u64 {
    let counters = devices.get(dev).unwrap().state().faults.counters();
    counters.total()
}

#[test]
fn a_lying_place_is_caught_on_the_first_transmission_without_any_fault_plan() {
    let rows: Vec<i64> = (0..100).map(|i| i * 7919 - 5).collect();
    // The very first store is damaged, the retransmission is clean.
    let (mut devices, dev, mut hub, buf) = lying_rig(|call| call == 1, |_| false, 4);
    hub.place_verified(&mut devices, dev, buf, &rows[..], 0)
        .unwrap();
    assert_eq!(hub.take_corruption_retransmits(), 1);
    assert_eq!(faults_injected(&devices, dev), 0, "nothing was armed");
    let stored = &devices.get(dev).unwrap().pool().get(buf).unwrap().data;
    assert_eq!(
        *stored,
        BufferData::I64(rows.clone()),
        "stored payload is clean"
    );

    // Every store is damaged: the budget is spent transmission by
    // transmission, then the corruption surfaces as a typed error.
    let (mut devices, dev, mut hub, buf) = lying_rig(|_| true, |_| false, 3);
    let before = devices.get(dev).unwrap().clock().transfer_ns();
    let err = hub
        .place_verified(&mut devices, dev, buf, BufferData::I64(rows.clone()), 0)
        .unwrap_err();
    assert!(
        matches!(err, ExecError::TransferCorrupted { device, buffer } if device == dev && buffer == buf),
        "got {err}"
    );
    assert_eq!(hub.take_corruption_retransmits(), 3);
    assert_eq!(faults_injected(&devices, dev), 0);
    let events = devices.get(dev).unwrap().clock().events();
    // The back-off rides the same lane with no payload bytes.
    let stores = events
        .iter()
        .filter(|e| e.lane == Lane::TransferH2D && e.bytes > 0)
        .count();
    assert_eq!(stores, 3, "exactly `retransmit_budget` transmissions");
    // Doubling back-off before the second and the third.
    let spent = devices.get(dev).unwrap().clock().transfer_ns() - before;
    assert!(spent >= 500.0 + 1000.0, "backoff missing: {spent}");
}

#[test]
fn a_lying_retrieve_is_caught_on_the_first_read_without_any_fault_plan() {
    let rows: Vec<i64> = (0..100).map(|i| i * 7919 - 5).collect();
    let (mut devices, dev, mut hub, buf) = lying_rig(|_| false, |call| call == 1, 4);
    hub.place_verified(&mut devices, dev, buf, &rows[..], 0)
        .unwrap();
    let got = hub
        .retrieve_verified(&mut devices, dev, buf, None, 0)
        .unwrap();
    assert_eq!(got, BufferData::I64(rows.clone()));
    assert_eq!(hub.take_corruption_retransmits(), 1);
    assert_eq!(faults_injected(&devices, dev), 0);

    let (mut devices, dev, mut hub, buf) = lying_rig(|_| false, |_| true, 3);
    hub.place_verified(&mut devices, dev, buf, &rows[..], 0)
        .unwrap();
    let err = hub
        .retrieve_verified(&mut devices, dev, buf, Some(40), 7)
        .unwrap_err();
    assert!(
        matches!(err, ExecError::TransferCorrupted { device, .. } if device == dev),
        "got {err}"
    );
    assert_eq!(hub.take_corruption_retransmits(), 3);
    assert_eq!(faults_injected(&devices, dev), 0);
    // The device's own copy was never damaged.
    let stored = &devices.get(dev).unwrap().pool().get(buf).unwrap().data;
    assert_eq!(*stored, BufferData::I64(rows));
}
