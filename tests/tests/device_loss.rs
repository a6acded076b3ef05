//! Permanent device-loss soak: hot-unplug mid-query, full-engine recovery
//! on the survivors, and hot-add between runs. A device
//! that dies stays dead — the engine must write off its buffers without
//! calling into it, re-stage lost inputs from host copies, finish the
//! query reference-exact on the survivors (or fail with a clean typed
//! error when none remain), and leave zero leaked bytes everywhere.
//!
//! The CI `soak` matrix shards the seeded soak by seed through the
//! `DEVLOSS_SEED` environment variable.

use adamant::prelude::*;
use adamant_integration_tests::{assert_no_leaks, seeds, CHUNKED_MODELS};

const DEFAULT_SEEDS: [u64; 4] = [1, 7, 42, 1337];

fn gone_error(err: &ExecError) -> bool {
    use adamant::device::error::DeviceError;
    matches!(
        err,
        ExecError::Device(DeviceError::Gone { .. })
            | ExecError::KernelFailed {
                source: DeviceError::Gone { .. },
                ..
            }
    )
}

/// Acceptance: a three-device engine loses one device permanently
/// mid-query, finishes reference-exact on the survivors, leaks nothing,
/// and a hot-added replacement picks up work on the very next run.
#[test]
fn device_death_mid_query_recovers_and_hot_add_takes_work() {
    let catalog = TpchGenerator::new(0.001, 7).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .device(DeviceProfile::openmp_cpu_i7())
        .fault_plan(0, FaultPlan::none().die_on_exec(3))
        .build()
        .unwrap();
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();

    let (out, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(
        adamant::tpch::queries::q6::decode(&out),
        reference,
        "query diverged from reference after device death"
    );
    assert_eq!(stats.device_deaths, 1, "exactly one device died");
    assert!(
        stats.buffers_written_off > 0,
        "the dead device held buffers that must be written off"
    );
    assert!(
        stats.restaged_bytes > 0,
        "lost input bytes must be re-staged onto survivors"
    );
    // The corpse is unplugged; only the survivors remain.
    let live = engine.executor().devices().ids();
    assert_eq!(live.len(), 2, "dead device must leave the registry");
    assert!(!live.contains(&dev0), "the dead device must be gone");
    assert_no_leaks(&mut engine, "after death recovery");

    // Hot-add a replacement between runs: a plan annotated with it runs
    // there on the very next run, every chunk of it.
    let new_dev = engine
        .attach_profile(&DeviceProfile::cuda_rtx2080ti())
        .unwrap();
    let graph2 = TpchQuery::Q6.plan(new_dev, &catalog).unwrap();
    let (out2, stats2) = engine
        .run(&graph2, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(adamant::tpch::queries::q6::decode(&out2), reference);
    assert_eq!(stats2.hot_adds, 1, "the attach must be counted once");
    assert_eq!(stats2.device_deaths, 0);
    assert_eq!(stats2.fallback_placements, 0);
    assert!(stats2.chunks_processed > 0);
    // Clocks restart with every run, so a device that ran no chunk of this
    // one reads zero.
    for id in engine.device_ids() {
        let ns = engine
            .executor()
            .devices()
            .get(id)
            .unwrap()
            .clock()
            .total_ns();
        if id == new_dev {
            assert!(ns > 0.0, "the hot-added device must have executed work");
        } else {
            assert_eq!(ns, 0.0, "{id:?} ran a chunk the hot-added device owns");
        }
    }
    // The counter is per-run: it must not persist into the next run.
    let (_, stats3) = engine
        .run(&graph2, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(stats3.hot_adds, 0);
    assert_no_leaks(&mut engine, "after hot-add run");
}

/// A plan annotated with a device that died in an earlier run is re-placed
/// on a survivor when the next run starts: the stale annotation neither
/// fails the run nor reaches the corpse, and the result stays exact.
#[test]
fn plan_annotated_with_a_dead_device_runs_on_a_survivor() {
    let catalog = TpchGenerator::new(0.001, 7).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(0, FaultPlan::none().die_on_exec(3))
        .build()
        .unwrap();
    let [dead, survivor] = engine.device_ids()[..] else {
        panic!("two devices plugged");
    };
    let graph = TpchQuery::Q6.plan(dead, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
    let (_, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(stats.device_deaths, 1, "the scripted death must fire");
    assert_eq!(engine.device_ids(), vec![survivor]);

    for model in [ExecutionModel::Chunked, ExecutionModel::OperatorAtATime] {
        let (out, stats) = engine.run(&graph, &inputs, model).unwrap();
        assert_eq!(
            adamant::tpch::queries::q6::decode(&out),
            reference,
            "{model:?}: the re-placed plan diverged from reference"
        );
        assert_eq!(stats.device_deaths, 0, "{model:?}");
        assert!(stats.pipelines > 0, "{model:?}");
        let survivor_ns = engine
            .executor()
            .devices()
            .get(survivor)
            .unwrap()
            .clock()
            .total_ns();
        assert!(
            survivor_ns > 0.0,
            "{model:?}: the survivor must run the plan"
        );
        assert_no_leaks(&mut engine, &format!("stale annotation, {model:?}"));
    }
}

/// The facade keeps no membership list of its own: `device_ids()` is the
/// live registry, so a device that died mid-query drops out, a hot-added
/// replacement appears, and plug indices address what is actually plugged.
#[test]
fn device_ids_follow_the_live_registry() {
    let catalog = TpchGenerator::new(0.001, 3).generate();
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(0, FaultPlan::none().die_on_exec(3))
        .build()
        .unwrap();
    let before = engine.device_ids();
    let graph = TpchQuery::Q6.plan(before[0], &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
    let (_, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(stats.device_deaths, 1, "the scripted death must fire");
    assert_eq!(engine.device_ids(), vec![before[1]], "the corpse is gone");

    let added = engine
        .attach_profile(&DeviceProfile::cuda_rtx2080ti())
        .unwrap();
    assert_eq!(engine.device_ids(), engine.executor().devices().ids());
    assert_eq!(engine.device_ids(), vec![before[1], added]);
    // Plug indices address what is plugged: two devices, so 0 and 1.
    assert!(engine.set_fault_plan(1, FaultPlan::none()).is_ok());
    assert!(engine.set_fault_plan(2, FaultPlan::none()).is_err());
    assert_no_leaks(&mut engine, "after death and hot-add");
}

/// Degenerate topology: the only device dies. The run must fail with the
/// typed `Gone` error — not a panic, not a hang — and nothing may leak
/// (trivially: the registry is empty afterwards).
#[test]
fn sole_device_death_is_a_typed_error() {
    let catalog = TpchGenerator::new(0.001, 1).generate();
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .fault_plan(0, FaultPlan::none().die_on_exec(2))
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
    let err = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap_err();
    assert!(gone_error(&err), "expected a Gone error, got: {err}");
    assert!(
        engine.executor().devices().is_empty(),
        "the corpse must be unplugged even when it was the last device"
    );
    assert_no_leaks(&mut engine, "after sole-device death");
}

/// Boundary cases around the end of a run: a death ordinal past the last
/// execute never fires (the run is untouched), and a death late on the
/// device clock still recovers reference-exact on the survivor.
#[test]
fn death_after_last_chunk_and_late_clock_death() {
    let catalog = TpchGenerator::new(0.001, 42).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();

    // Ordinal far past the workload: the plan is armed but never fires.
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(0, FaultPlan::none().die_on_exec(1_000_000))
        .build()
        .unwrap();
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
    let (out, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(adamant::tpch::queries::q6::decode(&out), reference);
    assert_eq!(stats.device_deaths, 0, "the death must not have fired");
    let clean_ns = engine
        .executor()
        .devices()
        .get(dev0)
        .unwrap()
        .clock()
        .total_ns();
    assert!(clean_ns > 0.0);
    assert_no_leaks(&mut engine, "unfired death plan");

    // Death at 98% of the clean run's device time: the device drops out
    // near the end, and the restart on the survivor must still be exact.
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(0, FaultPlan::none().die_at_ns(clean_ns * 0.98))
        .build()
        .unwrap();
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let (out, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(
        adamant::tpch::queries::q6::decode(&out),
        reference,
        "late-clock death must recover reference-exact"
    );
    assert_eq!(stats.device_deaths, 1);
    assert_no_leaks(&mut engine, "late clock death");
}

/// One engine lifetime under a death plan: three back-to-back runs. The
/// first may lose device 0; later runs re-place the (stale) plan onto the
/// survivor and must stay reference-exact.
fn death_sweep(
    seed: u64,
    name: &str,
    plan: FaultPlan,
    model: ExecutionModel,
    catalog: &Catalog,
    reference: i64,
) -> (Vec<Result<i64, String>>, String) {
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .residency_cache(ResidencyConfig::new(1 << 30))
        .fault_plan(0, plan)
        .retry_policy(RetryPolicy { max_attempts: 6 })
        .build()
        .unwrap();
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(catalog).unwrap();
    let mut outcomes = Vec::new();
    let mut stats_json = String::new();
    for run in 0..3 {
        let context = format!("seed {seed} {name} {model:?} run {run}");
        match engine.run(&graph, &inputs, model) {
            Ok((out, stats)) => {
                let decoded = adamant::tpch::queries::q6::decode(&out);
                assert_eq!(decoded, reference, "{context}: diverged from reference");
                let mut stats = stats;
                stats.wall_ns = 0;
                stats_json.push_str(&stats.to_json());
                stats_json.push('\n');
                outcomes.push(Ok(decoded));
            }
            Err(err) => {
                assert!(
                    matches!(
                        err,
                        ExecError::Device(_)
                            | ExecError::KernelFailed { .. }
                            | ExecError::DeadlineExceeded { .. }
                            | ExecError::TransferCorrupted { .. }
                    ),
                    "{context}: unexpected error class: {err}"
                );
                outcomes.push(Err(err.to_string()));
            }
        }
        assert_no_leaks(&mut engine, &context);
    }
    (outcomes, stats_json)
}

/// Seeded death soak across every chunked model: deaths (alone and mixed
/// with chaos) are survivable, typed, leak-free, and — same seed, fresh
/// engine — byte-identically deterministic.
#[test]
fn seeded_death_soak_is_survivable_and_deterministic() {
    for seed in seeds("DEVLOSS_SEED", &DEFAULT_SEEDS) {
        let catalog = TpchGenerator::new(0.001, seed).generate();
        let reference = adamant::tpch::reference::q6(&catalog).unwrap();
        let plans: Vec<(&str, FaultPlan)> = vec![
            ("exec-death", FaultPlan::none().die_on_exec(5)),
            (
                "seeded-death",
                FaultPlan::none().with_seed(seed).death_rate(0.05),
            ),
            (
                "death+chaos",
                FaultPlan::none()
                    .with_seed(seed)
                    .death_rate(0.03)
                    .slowdown(3.0)
                    .oom_on_allocation(2),
            ),
        ];
        for model in CHUNKED_MODELS {
            for (name, plan) in &plans {
                let first = death_sweep(seed, name, plan.clone(), model, &catalog, reference);
                let second = death_sweep(seed, name, plan.clone(), model, &catalog, reference);
                assert_eq!(
                    first, second,
                    "seed {seed} {name} {model:?}: same-seed sweeps diverged"
                );
            }
        }
    }
}

/// Death *during recovery*: the second device dies while the engine is
/// re-staging checkpointed state onto it. With no survivors left the run
/// must terminate in a clean typed error — never a hang — and the emptied
/// registry trivially holds zero bytes.
#[test]
fn second_death_during_restage_is_a_typed_error() {
    let catalog = TpchGenerator::new(0.001, 7).generate();
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .checkpoints(CheckpointConfig::enabled().cost_factor(0.0))
        .fault_plan(0, FaultPlan::none().die_on_exec(3))
        // The survivor's clock first moves when recovery restores the
        // snapshot onto it — and the first tick kills it.
        .fault_plan(1, FaultPlan::none().die_at_ns(1.0))
        .build()
        .unwrap();
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
    let err = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::Device(_)
                | ExecError::KernelFailed { .. }
                | ExecError::TransferCorrupted { .. }
        ),
        "second death during re-staging must be typed, got: {err}"
    );
    assert!(
        engine.executor().devices().is_empty(),
        "both corpses must be unplugged"
    );
    assert_no_leaks(&mut engine, "second death during re-stage");
}

/// Sequential deaths with a survivor left: device 0 dies, recovery resumes
/// on device 1, which then also dies; the run must finish reference-exact
/// on device 2. This also pins the restart-bound fix: the per-run restart
/// allowance is refreshed after every *successful* recovery rather than
/// captured once at entry, so a second death never trips a stale bound.
#[test]
fn sequential_deaths_exhaust_down_to_the_last_survivor() {
    let catalog = TpchGenerator::new(0.001, 42).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    let build = |second_death: Option<usize>| {
        let mut b = Adamant::builder()
            .chunk_rows(500)
            .device(DeviceProfile::cuda_rtx2080ti())
            .device(DeviceProfile::opencl_cpu_i7())
            .device(DeviceProfile::openmp_cpu_i7())
            .checkpoints(CheckpointConfig::enabled().cost_factor(0.0))
            .fault_plan(0, FaultPlan::none().die_on_exec(3));
        if let Some(idx) = second_death {
            b = b.fault_plan(idx, FaultPlan::none().die_on_exec(4));
        }
        b.build().unwrap()
    };

    // Phase A: only device 0 dies. Recovery re-points the work onto the
    // cost-model's preferred survivor; find out which one by its clock.
    let mut probe = build(None);
    let ids = probe.device_ids().to_vec();
    let dev0 = ids[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
    let (out, stats) = probe.run(&graph, &inputs, ExecutionModel::Chunked).unwrap();
    assert_eq!(adamant::tpch::queries::q6::decode(&out), reference);
    assert_eq!(stats.device_deaths, 1);
    let chosen_idx = (1..ids.len())
        .max_by(|&a, &b| {
            let ns = |i: usize| {
                probe
                    .executor()
                    .devices()
                    .get(ids[i])
                    .map(|d| d.clock().total_ns())
                    .unwrap_or(0.0)
            };
            ns(a).total_cmp(&ns(b))
        })
        .expect("two survivors");

    // Phase B: the same run, but the chosen survivor dies mid-re-run too.
    // The work must hop to the last device and still end reference-exact.
    let mut engine = build(Some(chosen_idx));
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let (out, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(
        adamant::tpch::queries::q6::decode(&out),
        reference,
        "two sequential deaths must still end reference-exact"
    );
    assert_eq!(stats.device_deaths, 2, "both scripted deaths must fire");
    assert_eq!(
        engine.executor().devices().ids().len(),
        1,
        "only the last survivor remains"
    );
    assert_no_leaks(&mut engine, "sequential deaths");
}

/// Death while a checkpoint is being captured: snapshots are assembled
/// off to the side and swapped in whole, so a death mid-capture leaves the
/// *previous* snapshot valid — recovery still terminates reference-exact
/// (resumed or fully restarted), never from a half-written checkpoint.
/// The death clock is swept across the run so some placements land inside
/// capture transfers.
#[test]
fn death_mid_capture_keeps_recovery_exact() {
    let catalog = TpchGenerator::new(0.001, 1).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    // Fault-free run (checkpoints on, so capture time is on the clock).
    let clean_ns = {
        let mut engine = Adamant::builder()
            .chunk_rows(500)
            .device(DeviceProfile::cuda_rtx2080ti())
            .device(DeviceProfile::opencl_cpu_i7())
            .checkpoints(CheckpointConfig::enabled().cost_factor(0.0))
            .build()
            .unwrap();
        let dev0 = engine.device_ids()[0];
        let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
        let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
        engine
            .run(&graph, &inputs, ExecutionModel::Chunked)
            .unwrap();
        engine
            .executor()
            .devices()
            .get(dev0)
            .unwrap()
            .clock()
            .total_ns()
    };
    for frac in [0.3, 0.5, 0.7, 0.9] {
        let mut engine = Adamant::builder()
            .chunk_rows(500)
            .device(DeviceProfile::cuda_rtx2080ti())
            .device(DeviceProfile::opencl_cpu_i7())
            .checkpoints(CheckpointConfig::enabled().cost_factor(0.0))
            .fault_plan(0, FaultPlan::none().die_at_ns(clean_ns * frac))
            .build()
            .unwrap();
        let dev0 = engine.device_ids()[0];
        let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
        let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
        let (out, stats) = engine
            .run(&graph, &inputs, ExecutionModel::Chunked)
            .unwrap();
        assert_eq!(
            adamant::tpch::queries::q6::decode(&out),
            reference,
            "death at {frac} of the clean run must stay exact"
        );
        assert_eq!(stats.device_deaths, 1, "the death at {frac} must fire");
        assert_no_leaks(&mut engine, &format!("death mid-capture at {frac}"));
    }
}

/// Scheduler-level membership: a device death mid-session must never wedge
/// `run_all`. Reservations stranded on the corpse are re-admitted against
/// survivors when they fit; when they cannot, the query is shed with the
/// typed `CapacityLost` reason — and the rest of the session proceeds.
#[test]
fn scheduler_sheds_capacity_lost_and_keeps_serving() {
    let catalog = TpchGenerator::new(0.001, 7).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    // Big primary, deliberately small survivor: a reservation sized over
    // the survivor's whole pool cannot be re-homed after the death.
    let survivor_cap: u64 = 32 << 20;
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7().with_memory(survivor_cap, 8 << 20))
        .fault_plan(0, FaultPlan::none().die_on_exec(3))
        .build()
        .unwrap();
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();

    let mut session = engine.session();
    session.tenant("alpha", 1.0).tenant("beta", 1.0);
    // Ticket 1: a footprint bigger than the survivor's entire pool, so only
    // the doomed device can admit it — unreadmittable once dev0 dies.
    let doomed = session.submit(
        "alpha",
        QuerySpec::new(graph.clone(), inputs.clone(), ExecutionModel::Chunked)
            .with_footprint(2 * survivor_cap),
    );
    // Ticket 2: ordinary query, must complete on the survivor.
    let follower = session.submit(
        "beta",
        QuerySpec::new(graph.clone(), inputs.clone(), ExecutionModel::Chunked),
    );
    let report = session.run_all();
    match report.outcome(doomed) {
        Some(QueryOutcome::Shed {
            reason: ShedReason::CapacityLost,
        }) => {}
        other => panic!("doomed query must be shed for lost capacity, got {other:?}"),
    }
    match report.outcome(follower) {
        Some(QueryOutcome::Completed { output, .. }) => {
            assert_eq!(
                adamant::tpch::queries::q6::decode(output),
                reference,
                "follower diverged from reference"
            );
        }
        other => panic!("follower must complete on the survivor, got {other:?}"),
    }
    let stats = report.stats();
    assert_eq!(stats.shed_capacity_lost, 1);
    assert!(stats.device_deaths >= 1);
    assert!(stats.buffers_written_off >= 1);
    drop(report);
    assert_no_leaks(&mut engine, "scheduler capacity-lost session");
}

/// Scheduler-level re-homing: when the stranded reservation *does* fit a
/// survivor, the query is re-admitted there — completed, not shed.
#[test]
fn scheduler_rehomes_reservations_that_fit_survivors() {
    let catalog = TpchGenerator::new(0.001, 1).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(0, FaultPlan::none().die_on_exec(3))
        .build()
        .unwrap();
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();

    let mut session = engine.session();
    session.tenant("alpha", 1.0);
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            session.submit(
                "alpha",
                QuerySpec::new(graph.clone(), inputs.clone(), ExecutionModel::Chunked),
            )
        })
        .collect();
    let report = session.run_all();
    for &t in &tickets {
        match report.outcome(t) {
            Some(QueryOutcome::Completed { output, .. }) => {
                assert_eq!(adamant::tpch::queries::q6::decode(output), reference);
            }
            other => panic!("query must survive the death re-homed, got {other:?}"),
        }
    }
    let stats = report.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.shed_capacity_lost, 0, "everything fit the survivor");
    assert!(
        stats.device_deaths >= 1,
        "the death must have been absorbed"
    );
    drop(report);
    assert_no_leaks(&mut engine, "scheduler re-home session");
}
