//! Residency-cache soak: the cross-query cache swept against fault plans,
//! eviction pressure, and every chunked execution model. Every run must be
//! reference-exact (or fail with a clean typed error under faults), warm
//! re-runs must actually hit the cache, same-seed runs must be
//! byte-identical, and clearing the cache must return every device pool —
//! regular, pinned, and the admission ledger — to zero bytes.
//!
//! The CI `soak` matrix shards the soak by seed through the
//! `RESIDENCY_SEED` environment variable.

use adamant::prelude::*;
use adamant_integration_tests::{assert_no_leaks, seeds, CHUNKED_MODELS};

const DEFAULT_SEEDS: [u64; 4] = [1, 7, 42, 1337];

fn cached_engine(cache_bytes: u64, plan: Option<FaultPlan>) -> Adamant {
    let mut builder = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .residency_cache(ResidencyConfig::new(cache_bytes))
        .retry_policy(RetryPolicy { max_attempts: 6 });
    if let Some(plan) = plan {
        builder = builder.fault_plan(0, plan);
    }
    builder.build().unwrap()
}

/// The fault matrix applied to device 0 while the cache is live.
fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("straggler", FaultPlan::none().with_seed(seed).slowdown(4.0)),
        (
            "corruption",
            FaultPlan::none().with_seed(seed).corrupt_transfer_rate(0.1),
        ),
        (
            "transient-oom",
            FaultPlan::none().with_seed(seed).oom_on_allocation(3),
        ),
        (
            "combined",
            FaultPlan::none()
                .with_seed(seed)
                .slowdown(6.0)
                .corrupt_transfer_rate(0.05)
                .transient_exec_errors(2),
        ),
    ]
}

#[test]
fn repeated_workloads_hit_the_cache_and_stay_exact() {
    for seed in seeds("RESIDENCY_SEED", &DEFAULT_SEEDS) {
        let catalog = TpchGenerator::new(0.001, seed).generate();
        let reference = adamant::tpch::reference::q6(&catalog).unwrap();
        for model in CHUNKED_MODELS {
            let mut engine = cached_engine(1 << 30, None);
            let dev = engine.device_ids()[0];
            let graph = TpchQuery::Q6.plan(dev, &catalog).unwrap();
            let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
            let mut hits_by_run = Vec::new();
            for run in 0..3 {
                let (out, stats) = engine.run(&graph, &inputs, model).unwrap();
                assert_eq!(
                    adamant::tpch::queries::q6::decode(&out),
                    reference,
                    "seed {seed} {model:?} run {run}: diverged from reference"
                );
                hits_by_run.push(stats.cache_hits);
            }
            assert_eq!(
                hits_by_run[0], 0,
                "seed {seed} {model:?}: a cold run cannot hit the cache"
            );
            assert!(
                hits_by_run[1] > 0 && hits_by_run[2] > 0,
                "seed {seed} {model:?}: warm runs never hit the cache ({hits_by_run:?})"
            );
            assert_no_leaks(&mut engine, &format!("seed {seed} {model:?}"));
        }
    }
}

#[test]
fn eviction_pressure_keeps_results_exact() {
    for seed in seeds("RESIDENCY_SEED", &DEFAULT_SEEDS) {
        let catalog = TpchGenerator::new(0.001, seed).generate();
        let ref_q6 = adamant::tpch::reference::q6(&catalog).unwrap();
        let ref_q14 = adamant::tpch::reference::q14(&catalog).unwrap();
        // A budget below the two queries' combined working set: pinning one
        // workload must evict the other, over and over.
        let budget = (TpchQuery::Q6.input_bytes(&catalog).unwrap()
            + TpchQuery::Q14.input_bytes(&catalog).unwrap())
            / 2;
        let mut engine = cached_engine(budget, None);
        let dev = engine.device_ids()[0];
        let g6 = TpchQuery::Q6.plan(dev, &catalog).unwrap();
        let in6 = TpchQuery::Q6.bind(&catalog).unwrap();
        let g14 = TpchQuery::Q14.plan(dev, &catalog).unwrap();
        let in14 = TpchQuery::Q14.bind(&catalog).unwrap();
        let mut evictions = 0usize;
        for round in 0..3 {
            let (out, s6) = engine.run(&g6, &in6, ExecutionModel::Chunked).unwrap();
            assert_eq!(
                adamant::tpch::queries::q6::decode(&out),
                ref_q6,
                "seed {seed} round {round}: Q6 under pressure diverged"
            );
            let (out, s14) = engine.run(&g14, &in14, ExecutionModel::Chunked).unwrap();
            assert_eq!(
                adamant::tpch::queries::q14::decode(&out),
                ref_q14,
                "seed {seed} round {round}: Q14 under pressure diverged"
            );
            evictions += s6.cache_evictions + s14.cache_evictions;
        }
        assert!(
            evictions > 0,
            "seed {seed}: the alternating workloads never forced an eviction"
        );
        assert_no_leaks(&mut engine, &format!("seed {seed} pressure"));
    }
}

/// Fusion × residency: the cache pins and fingerprints *input* columns
/// only, so the intermediates a fused chain elides must never show up in
/// the pinned footprint — under eviction pressure the fused and unfused
/// runs must pin the same bytes, evict the same way, stay exact, and
/// clearing the cache must return every pool to zero either way.
#[test]
fn eviction_pressure_under_fusion_pins_only_real_inputs() {
    for seed in seeds("RESIDENCY_SEED", &DEFAULT_SEEDS) {
        let catalog = TpchGenerator::new(0.001, seed).generate();
        let ref_q6 = adamant::tpch::reference::q6(&catalog).unwrap();
        let ref_q14 = adamant::tpch::reference::q14(&catalog).unwrap();
        let budget = (TpchQuery::Q6.input_bytes(&catalog).unwrap()
            + TpchQuery::Q14.input_bytes(&catalog).unwrap())
            / 2;
        let sweep = |fusion: bool| -> (u64, usize, usize) {
            let mut engine = Adamant::builder()
                .chunk_rows(500)
                .fusion(fusion)
                .device(DeviceProfile::cuda_rtx2080ti())
                .device(DeviceProfile::opencl_cpu_i7())
                .residency_cache(ResidencyConfig::new(budget))
                .build()
                .unwrap();
            let dev = engine.device_ids()[0];
            let g6 = TpchQuery::Q6.plan(dev, &catalog).unwrap();
            let in6 = TpchQuery::Q6.bind(&catalog).unwrap();
            let g14 = TpchQuery::Q14.plan(dev, &catalog).unwrap();
            let in14 = TpchQuery::Q14.bind(&catalog).unwrap();
            let (mut pinned, mut evictions, mut fused_chains) = (0, 0, 0);
            for round in 0..3 {
                let (out, s6) = engine.run(&g6, &in6, ExecutionModel::Chunked).unwrap();
                assert_eq!(
                    adamant::tpch::queries::q6::decode(&out),
                    ref_q6,
                    "seed {seed} round {round} fusion={fusion}: Q6 diverged"
                );
                let (out, s14) = engine.run(&g14, &in14, ExecutionModel::Chunked).unwrap();
                assert_eq!(
                    adamant::tpch::queries::q14::decode(&out),
                    ref_q14,
                    "seed {seed} round {round} fusion={fusion}: Q14 diverged"
                );
                pinned = s14.cache_pinned_bytes;
                evictions += s6.cache_evictions + s14.cache_evictions;
                fused_chains += s6.fused_chains + s14.fused_chains;
            }
            assert_no_leaks(
                &mut engine,
                &format!("seed {seed} fusion={fusion} pressure"),
            );
            (pinned, evictions, fused_chains)
        };
        let (pinned_f, evictions_f, chains_f) = sweep(true);
        let (pinned_u, evictions_u, chains_u) = sweep(false);
        assert!(chains_f > 0, "seed {seed}: fused sweep never fused");
        assert_eq!(chains_u, 0);
        assert!(pinned_f > 0, "seed {seed}: nothing pinned under pressure");
        assert_eq!(
            pinned_f, pinned_u,
            "seed {seed}: fusion changed the pinned footprint — an elided \
             intermediate leaked into the residency cache"
        );
        // Eviction *ordering* rides the modeled clock (which fusion
        // compresses), so only the pressure itself must be preserved.
        assert!(evictions_f > 0, "seed {seed}: fused pressure never evicted");
        assert!(
            evictions_u > 0,
            "seed {seed}: unfused pressure never evicted"
        );
    }
}

/// One full cached sweep under a fault plan: cold + warm run, outcome
/// classification, leak check — returns the outcomes and wall-clock-free
/// stats JSON for determinism comparison.
fn faulted_sweep(
    catalog: &Catalog,
    plan: FaultPlan,
    model: ExecutionModel,
) -> (Vec<Result<i64, String>>, String) {
    let mut engine = cached_engine(1 << 30, Some(plan));
    let dev = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev, catalog).unwrap();
    let inputs = TpchQuery::Q6.bind(catalog).unwrap();
    let mut outcomes = Vec::new();
    let mut jsons = Vec::new();
    for _ in 0..2 {
        match engine.run(&graph, &inputs, model) {
            Ok((out, _)) => outcomes.push(Ok(adamant::tpch::queries::q6::decode(&out))),
            Err(
                e @ (ExecError::Device(_)
                | ExecError::KernelFailed { .. }
                | ExecError::DeadlineExceeded { .. }
                | ExecError::TransferCorrupted { .. }),
            ) => outcomes.push(Err(e.to_string())),
            Err(other) => panic!("unexpected error class under faults: {other}"),
        }
        let mut stats = engine
            .executor()
            .last_run_stats()
            .expect("every run leaves stats")
            .clone();
        stats.wall_ns = 0;
        jsons.push(stats.to_json());
    }
    assert_no_leaks(&mut engine, &format!("faulted {model:?}"));
    (outcomes, jsons.join("\n"))
}

#[test]
fn faults_with_cache_stay_exact_and_deterministic() {
    for seed in seeds("RESIDENCY_SEED", &DEFAULT_SEEDS) {
        let catalog = TpchGenerator::new(0.001, seed).generate();
        let reference = adamant::tpch::reference::q6(&catalog).unwrap();
        for (name, plan) in fault_plans(seed) {
            for model in CHUNKED_MODELS {
                let (first, first_json) = faulted_sweep(&catalog, plan.clone(), model);
                for (run, outcome) in first.iter().enumerate() {
                    if let Ok(result) = outcome {
                        assert_eq!(
                            result, &reference,
                            "seed {seed} {name} {model:?} run {run}: survived run diverged"
                        );
                    }
                }
                // Same seed, fresh engine: byte-identical stats trajectory.
                let (second, second_json) = faulted_sweep(&catalog, plan.clone(), model);
                assert_eq!(
                    first, second,
                    "seed {seed} {name} {model:?}: outcomes flipped between identical runs"
                );
                assert_eq!(
                    first_json, second_json,
                    "seed {seed} {name} {model:?}: stats drifted between identical runs"
                );
            }
        }
    }
}

/// A cache-enabled engine and a cache-free engine must agree exactly on
/// results — the cache may only change *where bytes come from*, never what
/// the query computes.
#[test]
fn cached_and_uncached_results_agree() {
    let catalog = TpchGenerator::new(0.001, 11).generate();
    for model in CHUNKED_MODELS {
        let run = |cache: bool| -> (i64, i64) {
            let mut engine = if cache {
                cached_engine(1 << 30, None)
            } else {
                Adamant::builder()
                    .chunk_rows(500)
                    .device(DeviceProfile::cuda_rtx2080ti())
                    .device(DeviceProfile::opencl_cpu_i7())
                    .build()
                    .unwrap()
            };
            let dev = engine.device_ids()[0];
            let graph = TpchQuery::Q6.plan(dev, &catalog).unwrap();
            let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
            let (a, _) = engine.run(&graph, &inputs, model).unwrap();
            let (b, _) = engine.run(&graph, &inputs, model).unwrap();
            (
                adamant::tpch::queries::q6::decode(&a),
                adamant::tpch::queries::q6::decode(&b),
            )
        };
        let (cached_cold, cached_warm) = run(true);
        let (plain_cold, plain_warm) = run(false);
        assert_eq!(cached_cold, plain_cold, "{model:?}: cold results differ");
        assert_eq!(cached_warm, plain_warm, "{model:?}: warm results differ");
        assert_eq!(
            cached_cold, cached_warm,
            "{model:?}: cache changed the answer"
        );
    }
}
