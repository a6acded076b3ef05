//! Fusion end-to-end: fused execution must be **reference-exact** against
//! unfused execution for every TPC-H query, under every execution model,
//! for both plan sources (hand-built plans and SQL-lowered plans) — while
//! actually fusing (chains recorded, interior intermediates elided, modeled
//! launch overhead saved).
//!
//! Also here: the straggler-watchdog regression (a fused chain on a healthy
//! device must not trip the watchdog — its budget must come from the fused
//! cost entry, not a per-stage sum), the residency interaction (elided
//! intermediates are never pinned), and a seeded fusion × faults soak
//! (same-seed runs byte-identical, zero leaked bytes), CI-shardable through
//! the `FUSION_SEED` environment variable.

use adamant::prelude::*;
use adamant_integration_tests::{assert_no_leaks, seeds};

const DEFAULT_SEEDS: [u64; 3] = [3, 11, 58];

fn engine(fusion: bool) -> Adamant {
    Adamant::builder()
        .chunk_rows(1000)
        .fusion(fusion)
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .unwrap()
}

/// Canonical, deterministic form of a query output (`QueryOutput` keeps its
/// columns in a `BTreeMap`, so the debug form is stable).
fn canon(out: &QueryOutput) -> String {
    format!("{out:?}")
}

/// SQL-lowered plans bind their scan columns straight from the catalog
/// (the same binding the session serving layer performs).
fn bind_compiled(compiled: &adamant::sql::CompiledQuery, catalog: &Catalog) -> QueryInputs {
    let mut inputs = QueryInputs::new();
    for (table, col) in &compiled.input_columns {
        let t = catalog.table(table).unwrap();
        inputs
            .bind_column(col.as_str(), t.column(col).unwrap())
            .unwrap();
    }
    inputs
}

/// The acceptance matrix: 7 queries × 5 models × both plan sources, fused
/// vs unfused reference-exact, with the fusion counters moving in the right
/// directions.
#[test]
fn fused_matches_unfused_for_every_query_model_and_plan_source() {
    let catalog = TpchGenerator::new(0.002, 0xF05E).generate();
    let mut fused = engine(true);
    let mut unfused = engine(false);
    let dev = fused.device_ids()[0];

    for q in TpchQuery::ALL {
        let hand_graph = q.plan(dev, &catalog).unwrap();
        let hand_inputs = q.bind(&catalog).unwrap();
        let compiled = adamant::sql::compile(adamant::tpch::sql::text(q), &catalog, dev)
            .unwrap_or_else(|e| panic!("{q}: SQL lowering failed: {e}"));
        let sql_inputs = bind_compiled(&compiled, &catalog);
        let sources: [(&str, &PrimitiveGraph, &QueryInputs); 2] = [
            ("hand-built", &hand_graph, &hand_inputs),
            ("sql-lowered", &compiled.graph, &sql_inputs),
        ];
        for model in ExecutionModel::ALL {
            for (source, graph, inputs) in sources {
                let ctx = format!("{q}/{model}/{source}");
                let (out_f, st_f) = fused
                    .run(graph, inputs, model)
                    .unwrap_or_else(|e| panic!("{ctx} fused: {e}"));
                let (out_u, st_u) = unfused
                    .run(graph, inputs, model)
                    .unwrap_or_else(|e| panic!("{ctx} unfused: {e}"));
                assert_eq!(
                    canon(&out_f),
                    canon(&out_u),
                    "{ctx}: fused result diverged from unfused"
                );
                // The pass must actually engage on every query's plan…
                assert!(st_f.fused_chains >= 1, "{ctx}: nothing fused");
                assert!(
                    st_f.nodes_fused >= 2 * st_f.fused_chains,
                    "{ctx}: a chain has fewer than 2 stages"
                );
                assert!(
                    st_f.intermediates_elided_bytes > 0,
                    "{ctx}: no intermediates elided"
                );
                assert!(
                    st_f.fusion_saved_transfer_ns > 0.0,
                    "{ctx}: no modeled saving recorded"
                );
                // …elide exactly what it no longer materializes…
                assert_eq!(
                    st_f.intermediate_bytes + st_f.intermediates_elided_bytes,
                    st_u.intermediate_bytes,
                    "{ctx}: fused materialized + elided != unfused materialized"
                );
                // …materialize strictly fewer intermediate bytes…
                assert!(
                    st_f.intermediate_bytes < st_u.intermediate_bytes,
                    "{ctx}: fused {} !< unfused {} intermediate bytes",
                    st_f.intermediate_bytes,
                    st_u.intermediate_bytes
                );
                // …and never run slower on the modeled timeline.
                assert!(
                    st_f.total_ns <= st_u.total_ns,
                    "{ctx}: fused {} slower than unfused {}",
                    st_f.total_ns,
                    st_u.total_ns
                );
                // The disengaged pass reports nothing.
                assert_eq!(st_u.fused_chains, 0, "{ctx}");
                assert_eq!(st_u.nodes_fused, 0, "{ctx}");
                assert_eq!(st_u.intermediates_elided_bytes, 0, "{ctx}");
                assert_eq!(st_u.fusion_saved_transfer_ns, 0.0, "{ctx}");
            }
        }
    }
    assert_no_leaks(&mut fused, "fused engine");
    assert_no_leaks(&mut unfused, "unfused engine");
}

/// The pipelines of a graph, each as `(scan, node count)`.
fn pipelines(graph: &PrimitiveGraph) -> Vec<(Option<String>, usize)> {
    let split = adamant::core::pipeline::PipelineSet::split(graph).unwrap();
    let shape = split.pipelines.into_iter();
    shape.map(|p| (p.scan, p.nodes.len())).collect()
}

/// Fusion runs whole streaming pipelines through their joins: after the
/// pass every scan pipeline of Q1, Q3, Q4, Q6, Q10 and Q12 — hand-built and
/// SQL-lowered — is exactly one kernel, and the pass never changes how the
/// graph splits into pipelines.
///
/// Q14 is the exception, on purpose: its probe side feeds two `AGG_BLOCK`
/// terminals (total and promo revenue), and a region has one root. Once
/// the first terminal closes the lineitem pipeline, the second sits in
/// another pipeline, so the revenue column both read stays materialized
/// and the probe side keeps more than one node.
#[test]
fn each_scan_pipeline_is_one_node_after_fusion() {
    let catalog = TpchGenerator::new(0.002, 0xF05E).generate();
    let dev = engine(true).device_ids()[0];
    for q in TpchQuery::ALL {
        let compiled = adamant::sql::compile(adamant::tpch::sql::text(q), &catalog, dev).unwrap();
        for (source, graph) in [
            ("hand-built", q.plan(dev, &catalog).unwrap()),
            ("sql-lowered", compiled.graph),
        ] {
            let mut fused = graph.clone();
            adamant::core::fuse_graph(&mut fused);
            let before = pipelines(&graph);
            let after = pipelines(&fused);
            let scans = |p: &[(Option<String>, usize)]| -> Vec<Option<String>> {
                p.iter().map(|(scan, _)| scan.clone()).collect()
            };
            assert_eq!(scans(&after), scans(&before), "{q}/{source}: split moved");
            let wide: Vec<_> = after
                .iter()
                .filter(|(scan, nodes)| scan.is_some() && *nodes > 1)
                .collect();
            if q == TpchQuery::Q14 {
                assert!(!wide.is_empty(), "{q}/{source}: Q14 now fuses whole");
            } else {
                assert!(wide.is_empty(), "{q}/{source}: {wide:?} of {after:?}");
            }
        }
    }
}

/// Wire-format round trip over every fused node the pass produces on the
/// seven TPC-H plans (both plan sources): what the kernel decodes is exactly
/// what the pass merged, and re-encoding it reproduces the scalars.
#[test]
fn every_fused_node_round_trips_through_the_stage_program_codec() {
    use adamant::task::program::{decode, encode};
    let catalog = TpchGenerator::new(0.002, 0xF05E).generate();
    let dev = engine(true).device_ids()[0];
    let mut fused_nodes = 0;
    for q in TpchQuery::ALL {
        let compiled = adamant::sql::compile(adamant::tpch::sql::text(q), &catalog, dev).unwrap();
        for mut graph in [q.plan(dev, &catalog).unwrap(), compiled.graph] {
            adamant::core::fuse_graph(&mut graph);
            for node in graph.nodes() {
                let NodeParams::Fused { stages, .. } = &node.params else {
                    continue;
                };
                fused_nodes += 1;
                let scalars = node.params.to_scalars();
                let wire = decode(&scalars).unwrap_or_else(|e| panic!("{q} {}: {e}", node.label));
                assert_eq!(wire.len(), stages.len(), "{q} {}", node.label);
                for (got, spec) in wire.iter().zip(stages) {
                    assert_eq!(got.kind, spec.kind, "{q} {}", node.label);
                    assert_eq!(got.operands, spec.operands, "{q} {}", node.label);
                    assert_eq!(got.params, spec.params.to_scalars(), "{q} {}", node.label);
                }
                assert_eq!(encode(&wire), scalars, "{q} {}", node.label);
            }
        }
    }
    assert!(fused_nodes >= 14, "only {fused_nodes} fused nodes seen");
}

/// Watchdog regression: the straggler budget of a chunk containing a fused
/// chain must come from the **fused** cost entry. If the watchdog budgeted
/// the fused kernel at its per-stage sum — or worse, budgeted per-stage
/// while the device charged fused — a healthy device would look like a
/// straggler (or get hidden slack). On a healthy two-device engine with a
/// tight multiplier, nothing may fire and nothing may hedge.
#[test]
fn fused_chain_does_not_trip_watchdog_on_healthy_device() {
    let catalog = TpchGenerator::new(0.002, 0xF05E).generate();
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .watchdog_multiplier(1.05)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    for q in [TpchQuery::Q1, TpchQuery::Q6, TpchQuery::Q14] {
        let graph = q.plan(dev, &catalog).unwrap();
        let inputs = q.bind(&catalog).unwrap();
        for model in [ExecutionModel::Chunked, ExecutionModel::Pipelined] {
            let (_, stats) = engine.run(&graph, &inputs, model).unwrap();
            assert!(stats.fused_chains >= 1, "{q}/{model}: nothing fused");
            assert_eq!(
                stats.watchdog_fires, 0,
                "{q}/{model}: healthy fused chunk budgeted as a straggler"
            );
            assert_eq!(
                stats.hedged_launches, 0,
                "{q}/{model}: healthy fused chunk was hedged"
            );
        }
    }
}

/// Residency interaction: the cross-query cache pins *input* columns; the
/// buffers a fused chain elides must never be pinned or fingerprinted. The
/// pinned footprint with fusion on must equal the footprint with fusion off
/// (same inputs, same pins), results stay exact, and eviction pressure
/// under fusion leaks nothing.
#[test]
fn elided_intermediates_are_never_pinned_by_the_residency_cache() {
    let catalog = TpchGenerator::new(0.001, 0xF05E).generate();
    let reference = adamant::tpch::reference::q6(&catalog).unwrap();
    let run_pair = |fusion: bool| -> (u64, usize) {
        let mut engine = Adamant::builder()
            .chunk_rows(500)
            .fusion(fusion)
            .residency_cache(ResidencyConfig::new(1 << 30))
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        let dev = engine.device_ids()[0];
        let graph = TpchQuery::Q6.plan(dev, &catalog).unwrap();
        let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
        let mut pinned = 0;
        let mut hits = 0;
        for _ in 0..2 {
            let (out, stats) = engine
                .run(&graph, &inputs, ExecutionModel::Chunked)
                .unwrap();
            assert_eq!(adamant::tpch::queries::q6::decode(&out), reference);
            pinned = stats.cache_pinned_bytes;
            hits = stats.cache_hits;
        }
        assert_no_leaks(&mut engine, &format!("residency fusion={fusion}"));
        (pinned, hits)
    };
    let (pinned_fused, hits_fused) = run_pair(true);
    let (pinned_unfused, hits_unfused) = run_pair(false);
    assert!(pinned_fused > 0, "cache never pinned the scan columns");
    assert_eq!(
        pinned_fused, pinned_unfused,
        "fusion changed the pinned footprint: fused chains must pin only \
         real inputs, never elided intermediates"
    );
    assert_eq!(hits_fused, hits_unfused, "warm-run hit profile diverged");
}

/// Seeded fusion × faults soak: fused execution under probabilistic fault
/// plans must stay reference-exact on success, fail typed on defeat, leak
/// nothing either way — and same-seed runs must be byte-identical in their
/// exported stats (fusion counters included).
#[test]
fn seeded_fusion_fault_soak_is_exact_and_deterministic() {
    let sweep = |catalog: &Catalog, seed: u64, model: ExecutionModel| -> (Option<i64>, String) {
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
            .map(|(out, stats)| {
                assert!(stats.fused_chains >= 1, "seed {seed} {model}: no fusion");
                adamant::tpch::queries::q6::decode(&out)
            })
            .ok();
        let json = engine
            .executor()
            .last_run_stats()
            .map(|s| {
                let mut s = s.clone();
                s.wall_ns = 0;
                s.to_json()
            })
            .unwrap_or_default();
        assert_no_leaks(&mut engine, &format!("seed {seed} {model}"));
        (outcome, json)
    };

    for seed in seeds("FUSION_SEED", &DEFAULT_SEEDS) {
        let catalog = TpchGenerator::new(0.001, seed).generate();
        let reference = adamant::tpch::reference::q6(&catalog).unwrap();
        for model in ExecutionModel::ALL {
            let (first, json_a) = sweep(&catalog, seed, model);
            let (second, json_b) = sweep(&catalog, seed, model);
            if let Some(v) = first {
                assert_eq!(v, reference, "seed {seed} {model}: survived but diverged");
            }
            assert_eq!(
                first, second,
                "seed {seed} {model}: same-seed outcomes diverged"
            );
            assert_eq!(
                json_a, json_b,
                "seed {seed} {model}: same-seed stats drifted"
            );
        }
    }
}
