//! Chaos soak: TPC-H-style plans under seeded probabilistic fault plans,
//! across all execution models and several seeds. Every run must either
//! match the fault-free reference exactly or fail with a clean typed error
//! — never panic — and always return every device pool to zero bytes.
//! Same-seed runs must be byte-identical.
//!
//! The CI `soak` matrix shards this suite by seed through the `CHAOS_SEED`
//! environment variable.

use adamant::prelude::*;
use adamant_integration_tests::seeds;

const DEFAULT_SEEDS: [u64; 3] = [1, 7, 42];

/// One engine under a seeded fault plan; returns the run's outcome and the
/// (wall-clock-free) stats JSON of the attempt.
fn chaos_run(
    catalog: &Catalog,
    seed: u64,
    model: ExecutionModel,
) -> (Result<i64, ExecError>, String) {
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(
            0,
            FaultPlan::none()
                .with_seed(seed)
                .exec_error_rate(0.05)
                .oom_rate(0.05),
        )
        .retry_policy(RetryPolicy { max_attempts: 6 })
        .build()
        .unwrap();
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
            "seed {seed} {model:?}: leaked {} bytes on {d}",
            pool.pool().used()
        );
        assert_eq!(
            pool.pool().pinned_used(),
            0,
            "seed {seed} {model:?}: leaked pinned bytes on {d}"
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
fn seeded_chaos_across_models_is_survivable_and_deterministic() {
    let catalog = TpchGenerator::new(0.001, 5).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    for seed in seeds("CHAOS_SEED", &DEFAULT_SEEDS) {
        for model in ExecutionModel::ALL {
            let (first, first_json) = chaos_run(&catalog, seed, model);
            match &first {
                Ok(result) => assert_eq!(
                    result, &reference,
                    "seed {seed} {model:?}: recovered run diverged from reference"
                ),
                Err(
                    ExecError::Device(_)
                    | ExecError::KernelFailed { .. }
                    | ExecError::DeadlineExceeded { .. },
                ) => {} // clean, typed failure is acceptable under chaos
                Err(other) => {
                    panic!("seed {seed} {model:?}: unexpected error class: {other}")
                }
            }
            // Same seed, fresh engine: identical outcome and identical stats.
            let (second, second_json) = chaos_run(&catalog, seed, model);
            assert_eq!(
                first.is_ok(),
                second.is_ok(),
                "seed {seed} {model:?}: outcome flipped between identical runs"
            );
            if let (Ok(a), Ok(b)) = (&first, &second) {
                assert_eq!(a, b, "seed {seed} {model:?}: results differ");
            }
            assert_eq!(
                first_json, second_json,
                "seed {seed} {model:?}: stats drifted between identical runs"
            );
        }
    }
}

/// Distinct seeds must actually produce distinct fault schedules somewhere
/// in the sweep — otherwise the matrix is testing one schedule n times.
#[test]
fn distinct_seeds_vary_the_schedule() {
    let catalog = TpchGenerator::new(0.001, 5).generate();
    let jsons: Vec<String> = DEFAULT_SEEDS
        .iter()
        .map(|&seed| chaos_run(&catalog, seed, ExecutionModel::Chunked).1)
        .collect();
    assert!(
        jsons.windows(2).any(|w| w[0] != w[1]),
        "all seeds produced identical runs — seeding is broken"
    );
}
