//! Checkpointed partial-progress recovery: seeded checkpoint × death ×
//! chaos soak. With checkpoints enabled the engine snapshots progress at
//! pipeline-breaker and chunk-interval boundaries; a permanent device
//! death mid-query must resume from the last validated boundary — strictly
//! fewer re-executed chunks than the legacy restart-from-row-0 — while
//! staying reference-exact under every execution model, leaking zero
//! bytes (checkpoint storage included), and degrading to a full restart
//! with a typed stat when the snapshot is corrupted.
//!
//! The CI `soak` matrix shards the seeded soak by seed through the
//! `RECOVERY_SEED` environment variable.

use adamant::prelude::*;
use adamant_integration_tests::{assert_no_leaks, seeds, CHUNKED_MODELS};

const DEFAULT_SEEDS: [u64; 4] = [1, 7, 42, 1337];

fn two_device_engine(plan: FaultPlan, checkpoints: Option<CheckpointConfig>) -> Adamant {
    let mut b = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(0, plan)
        .retry_policy(RetryPolicy { max_attempts: 6 });
    if let Some(cfg) = checkpoints {
        b = b.checkpoints(cfg);
    }
    b.build().unwrap()
}

/// Device-0 time of a fault-free Q6 run under `model` — the clock the
/// death triggers below are placed on.
fn clean_q6_ns(catalog: &Catalog, model: ExecutionModel) -> f64 {
    let mut engine = two_device_engine(FaultPlan::none(), None);
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(catalog).unwrap();
    engine.run(&graph, &inputs, model).unwrap();
    engine
        .executor()
        .devices()
        .get(dev0)
        .unwrap()
        .clock()
        .total_ns()
}

/// Acceptance: for a death after ≥50% progress, checkpoint-resume
/// re-executes strictly fewer chunks than restart-from-zero, under every
/// chunked execution model, with reference-exact results both ways.
#[test]
fn checkpoint_resume_reexecutes_fewer_chunks_than_restart() {
    let catalog = TpchGenerator::new(0.001, 7).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    for model in CHUNKED_MODELS {
        let die_at = clean_q6_ns(&catalog, model) * 0.75;

        // Legacy behavior: checkpoints off, recovery restarts from row 0.
        let mut restart = two_device_engine(FaultPlan::none().die_at_ns(die_at), None);
        let dev0 = restart.device_ids()[0];
        let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
        let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
        let (out, base) = restart.run(&graph, &inputs, model).unwrap();
        assert_eq!(adamant::tpch::queries::q6::decode(&out), reference);
        assert_eq!(base.device_deaths, 1, "{model:?}: the death must fire");
        assert_eq!(base.resumes, 0);
        assert_no_leaks(&mut restart, "restart-from-zero");

        // Checkpointed: capture at every chunk boundary, resume on death.
        let mut ckpt = two_device_engine(
            FaultPlan::none().die_at_ns(die_at),
            Some(CheckpointConfig::enabled().cost_factor(0.0)),
        );
        let (out, stats) = ckpt.run(&graph, &inputs, model).unwrap();
        assert_eq!(
            adamant::tpch::queries::q6::decode(&out),
            reference,
            "{model:?}: checkpoint resume diverged from reference"
        );
        assert_eq!(stats.device_deaths, 1, "{model:?}: the death must fire");
        assert!(stats.checkpoints_taken >= 1, "{model:?}: no snapshot taken");
        assert!(stats.checkpoint_bytes > 0);
        assert!(stats.resumes >= 1, "{model:?}: recovery did not resume");
        assert!(
            stats.chunks_skipped_on_resume > 0,
            "{model:?}: the resume skipped nothing"
        );
        assert_eq!(stats.resume_validation_failures, 0);
        assert!(
            stats.chunks_processed < base.chunks_processed,
            "{model:?}: resume must re-execute strictly fewer chunks \
             ({} vs {} restarted)",
            stats.chunks_processed,
            base.chunks_processed
        );
        assert_no_leaks(&mut ckpt, "checkpoint resume");
    }
}

/// Fusion × checkpoints: chunk-interval boundaries come from the scan
/// chunker, not from the kernel structure, so fusing a chain must not move
/// the grid that checkpoints are cut on or that `ResumeCursor` high-water
/// rows validate against. A resume-after-death with fusion on (the
/// default) must be reference-exact, its skipped-chunk count must be
/// consistent with the grid (positive, and strictly below a clean run's
/// chunk total), and the grid itself must be identical to the unfused one.
/// Q3 runs every scan pipeline as one fused kernel, its build sides ending
/// in fused `HASH_BUILD` terminals whose tables the checkpoints capture.
#[test]
fn checkpoint_resume_with_fusion_is_exact_on_the_same_chunk_grid() {
    let catalog = TpchGenerator::new(0.001, 7).generate();
    let decoded = |q: TpchQuery, out: &QueryOutput| match q {
        TpchQuery::Q6 => format!("{:?}", adamant::tpch::queries::q6::decode(out)),
        _ => format!("{:?}", adamant::tpch::queries::q3::decode(out)),
    };
    for (q, model) in CHUNKED_MODELS
        .into_iter()
        .map(|m| (TpchQuery::Q6, m))
        .chain(CHUNKED_MODELS.into_iter().map(|m| (TpchQuery::Q3, m)))
    {
        let reference = match q {
            TpchQuery::Q6 => format!("{:?}", adamant::tpch::reference::q6(&catalog).unwrap()),
            _ => format!("{:?}", adamant::tpch::reference::q3(&catalog).unwrap()),
        };
        let run_one = |fusion: bool| -> (ExecutionStats, usize) {
            let build = |plan: FaultPlan, ckpt: Option<CheckpointConfig>| {
                let mut b = Adamant::builder()
                    .chunk_rows(500)
                    .fusion(fusion)
                    .device(DeviceProfile::cuda_rtx2080ti())
                    .device(DeviceProfile::opencl_cpu_i7())
                    .fault_plan(0, plan)
                    .retry_policy(RetryPolicy { max_attempts: 6 });
                if let Some(cfg) = ckpt {
                    b = b.checkpoints(cfg);
                }
                b.build().unwrap()
            };
            // The death fires on this configuration's *own* clock (a fused
            // chain compresses device time, so 75% means 75% of its run).
            let mut clean = build(FaultPlan::none(), None);
            let dev0 = clean.device_ids()[0];
            let graph = q.plan(dev0, &catalog).unwrap();
            let inputs = q.bind(&catalog).unwrap();
            let (_, clean_stats) = clean.run(&graph, &inputs, model).unwrap();
            let clean_chunks = clean_stats.chunks_processed;
            let die_at = clean
                .executor()
                .devices()
                .get(dev0)
                .unwrap()
                .clock()
                .total_ns()
                * 0.75;

            let mut engine = build(
                FaultPlan::none().die_at_ns(die_at),
                Some(CheckpointConfig::enabled().cost_factor(0.0)),
            );
            let (out, stats) = engine.run(&graph, &inputs, model).unwrap();
            assert_eq!(
                decoded(q, &out),
                reference,
                "{q} {model:?} fusion={fusion}: resume diverged from reference"
            );
            assert_eq!(stats.device_deaths, 1, "{model:?} fusion={fusion}");
            assert!(
                stats.resumes >= 1,
                "{model:?} fusion={fusion}: recovery did not resume"
            );
            assert!(
                stats.chunks_skipped_on_resume > 0,
                "{model:?} fusion={fusion}: the resume skipped nothing"
            );
            assert!(
                stats.chunks_skipped_on_resume < clean_chunks,
                "{model:?} fusion={fusion}: skipped {} of only {} grid chunks",
                stats.chunks_skipped_on_resume,
                clean_chunks
            );
            assert_eq!(stats.resume_validation_failures, 0);
            assert_no_leaks(&mut engine, "fused checkpoint resume");
            (stats, clean_chunks)
        };
        let (fused, fused_grid) = run_one(true);
        let (unfused, unfused_grid) = run_one(false);
        assert!(
            fused.fused_chains >= 1,
            "{model:?}: the resumed run never fused"
        );
        assert_eq!(unfused.fused_chains, 0);
        assert_eq!(
            fused_grid, unfused_grid,
            "{model:?}: fusion moved the chunk grid"
        );
    }
}

/// Operator-at-a-time has no chunk boundaries; checkpoints are captured at
/// pipeline-breaker boundaries instead, and a resume skips the completed
/// pipelines — including restoring a hash-join build table (a `Generic`
/// device payload) onto the survivor.
#[test]
fn operator_at_a_time_resumes_at_pipeline_boundaries() {
    let catalog = TpchGenerator::new(0.001, 7).generate();
    let reference = adamant::tpch::reference::q3(&catalog).unwrap();
    let die_at = {
        let mut engine = two_device_engine(FaultPlan::none(), None);
        let dev0 = engine.device_ids()[0];
        let graph = TpchQuery::Q3.plan(dev0, &catalog).unwrap();
        let inputs = TpchQuery::Q3.bind(&catalog).unwrap();
        engine
            .run(&graph, &inputs, ExecutionModel::OperatorAtATime)
            .unwrap();
        let clean = engine
            .executor()
            .devices()
            .get(dev0)
            .unwrap()
            .clock()
            .total_ns();
        clean * 0.9
    };
    let mut engine = two_device_engine(
        FaultPlan::none().die_at_ns(die_at),
        Some(CheckpointConfig::enabled().cost_factor(0.0)),
    );
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q3.plan(dev0, &catalog).unwrap();
    let inputs = TpchQuery::Q3.bind(&catalog).unwrap();
    let (out, stats) = engine
        .run(&graph, &inputs, ExecutionModel::OperatorAtATime)
        .unwrap();
    assert_eq!(
        adamant::tpch::queries::q3::decode(&out),
        reference,
        "operator-at-a-time checkpoint resume diverged"
    );
    assert_eq!(stats.device_deaths, 1);
    assert!(stats.checkpoints_taken >= 1);
    assert!(stats.resumes >= 1, "death at 90% must resume, not restart");
    assert_no_leaks(&mut engine, "operator-at-a-time resume");
}

/// Scripted checkpoint corruption (`FaultPlan::corrupt_checkpoint`): every
/// snapshot the doomed device observes is damaged in flight, so resume-time
/// validation must reject it and recovery degrades to the full restart —
/// with the typed stat, and never a wrong answer.
#[test]
fn corrupted_checkpoint_degrades_to_full_restart() {
    let catalog = TpchGenerator::new(0.001, 42).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    let die_at = clean_q6_ns(&catalog, ExecutionModel::Chunked) * 0.75;
    let plan = (1u64..=64).fold(FaultPlan::none().die_at_ns(die_at), |p, n| {
        p.corrupt_checkpoint(n)
    });
    let mut engine = two_device_engine(plan, Some(CheckpointConfig::enabled().cost_factor(0.0)));
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
    let (out, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(
        adamant::tpch::queries::q6::decode(&out),
        reference,
        "corrupted checkpoint must never change the answer"
    );
    assert_eq!(stats.device_deaths, 1);
    assert!(stats.checkpoints_taken >= 1, "captures still happen");
    assert_eq!(stats.resumes, 0, "a corrupt snapshot must not be resumed");
    assert!(
        stats.resume_validation_failures >= 1,
        "the rejection must be counted"
    );
    assert_no_leaks(&mut engine, "corrupted checkpoint");
}

/// One engine lifetime under a checkpoint × death × chaos plan: three
/// back-to-back runs, reference-exact or typed error, zero leaks.
fn recovery_sweep(
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
        .checkpoints(
            CheckpointConfig::enabled()
                .chunk_interval(2)
                .cost_factor(0.5),
        )
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

/// Seeded checkpoint × death × chaos soak across every chunked model:
/// survivable, typed, leak-free, and — same seed, fresh engine —
/// byte-identically deterministic (stats JSON with wall time zeroed).
#[test]
fn seeded_recovery_soak_is_survivable_and_deterministic() {
    for seed in seeds("RECOVERY_SEED", &DEFAULT_SEEDS) {
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
                    .oom_on_allocation(2)
                    .corrupt_checkpoint(2),
            ),
        ];
        for model in CHUNKED_MODELS {
            for (name, plan) in &plans {
                let first = recovery_sweep(seed, name, plan.clone(), model, &catalog, reference);
                let second = recovery_sweep(seed, name, plan.clone(), model, &catalog, reference);
                assert_eq!(
                    first, second,
                    "seed {seed} {name} {model:?}: same-seed sweeps diverged"
                );
            }
        }
    }
}

/// Checkpoints off (the default) must be byte-for-byte inert: a run with
/// the default config reports all-zero checkpoint counters.
#[test]
fn checkpoints_are_off_by_default_and_inert() {
    let catalog = TpchGenerator::new(0.001, 1).generate();
    let mut engine = two_device_engine(FaultPlan::none(), None);
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
    let (_, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(stats.checkpoints_taken, 0);
    assert_eq!(stats.checkpoint_bytes, 0);
    assert_eq!(stats.resumes, 0);
    assert_eq!(stats.chunks_skipped_on_resume, 0);
    assert_eq!(stats.resume_validation_failures, 0);
}

/// A session surfaces a capacity-loss shed to the caller as a typed error;
/// it never re-submits a shed query.
#[test]
fn session_sheds_surface_typed() {
    let mut catalog = Catalog::new();
    catalog.register(
        Table::new(
            "sales",
            vec![
                Column::from_i64("qty", (0..4000).map(|i| i % 97).collect()),
                Column::from_i64("price", (0..4000).map(|i| (i % 13) * 100).collect()),
            ],
        )
        .unwrap(),
    );
    // Big doomed primary; the survivor's pool sits between the query's
    // *actual* chunk-bounded working set (so execution itself recovers and
    // completes there) and its conservative admission footprint (so the
    // stranded reservation cannot be re-homed). The run is shed
    // `CapacityLost` after reconciliation, and the shed surfaces typed.
    let mut engine = Adamant::builder()
        .chunk_rows(256)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7().with_memory(16 << 10, 4 << 10))
        .fault_plan(0, FaultPlan::none().die_on_exec(1))
        .build()
        .unwrap();
    let err = Session::new(&mut engine, &catalog)
        .sql("SELECT SUM(price) FROM sales WHERE qty < 50")
        .unwrap_err();
    assert!(
        matches!(err, SessionError::Shed(ShedReason::CapacityLost)),
        "expected a CapacityLost shed, got: {err}"
    );
}
