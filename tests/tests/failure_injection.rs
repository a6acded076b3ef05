//! Failure injection: scripted device faults must either be survived by
//! the executor's recovery machinery (OOM chunk backoff, device fallback)
//! or fail cleanly (typed errors, no leaked device state), and the engine
//! must stay usable afterwards.

use adamant::prelude::*;
use adamant_integration_tests::assert_no_leaks;

fn tiny_engine(mem: u64, pinned: u64, chunk_rows: usize) -> (Adamant, DeviceId) {
    let engine = Adamant::builder()
        .chunk_rows(chunk_rows)
        .device(DeviceProfile::cuda_rtx2080ti().with_memory(mem, pinned))
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    (engine, dev)
}

fn sum_query(dev: DeviceId) -> PrimitiveGraph {
    let mut pb = PlanBuilder::new(dev);
    let mut s = pb.scan("t", &["x"]);
    let x = s.materialized(&mut pb, "x").unwrap();
    let sum = pb.agg_block(x, AggFunc::Sum, "sum");
    pb.output("sum", sum);
    pb.build().unwrap()
}

/// Filter + project + sum: touches bitmap, map, materialize and agg
/// kernels, so faults can land in several places.
fn filter_map_sum(dev: DeviceId, threshold: i64, factor: i64) -> PrimitiveGraph {
    let mut pb = PlanBuilder::new(dev);
    let mut s = pb.scan("t", &["x"]);
    s.filter(&mut pb, Predicate::cmp("x", CmpOp::Ge, threshold))
        .unwrap();
    s.project(&mut pb, "y", Expr::col("x").mul(Expr::lit(factor)))
        .unwrap();
    let y = s.materialized(&mut pb, "y").unwrap();
    let sum = pb.agg_block(y, AggFunc::Sum, "sum");
    pb.output("sum", sum);
    pb.build().unwrap()
}

fn test_data(n: i64) -> Vec<i64> {
    (0..n).map(|i| (i * 37 + 11) % 500 - 250).collect()
}

fn expected_sum(data: &[i64], threshold: i64, factor: i64) -> i64 {
    data.iter()
        .filter(|&&v| v >= threshold)
        .map(|v| v * factor)
        .sum()
}

// ---- recovery: injected faults are survived -----------------------------

/// An injected OOM mid-stream makes the executor halve the chunk size and
/// re-run the pipeline; the query completes with the exact result.
#[test]
fn oom_fault_backoff_completes_chunked() {
    let data = test_data(200);
    for model in [ExecutionModel::Chunked, ExecutionModel::Pipelined] {
        let mut engine = Adamant::builder()
            .chunk_rows(32)
            // Fault scripting targets the unfused kernel names / allocation
            // ordinals, so run this scenario with fusion off.
            .fusion(false)
            .device(DeviceProfile::cuda_rtx2080ti())
            .fault_plan(0, FaultPlan::none().oom_on_allocation(3))
            .build()
            .unwrap();
        let dev = engine.device_ids()[0];
        let graph = filter_map_sum(dev, 0, 3);
        let mut inputs = QueryInputs::new();
        inputs.bind("x", data.clone());
        let (out, stats) = engine.run(&graph, &inputs, model).unwrap();
        assert_eq!(
            out.i64_column("sum")[0],
            expected_sum(&data, 0, 3),
            "{model:?}"
        );
        assert!(stats.retries > 0, "{model:?}: no retry recorded");
        assert!(stats.chunk_backoffs > 0, "{model:?}: no backoff recorded");
        assert_eq!(stats.fallback_placements, 0, "{model:?}");
        assert!(
            !stats.device_faults.is_empty(),
            "{model:?}: injected fault not attributed to the device"
        );
        // The device itself counted the injection.
        let counters = engine
            .executor()
            .devices()
            .get(dev)
            .unwrap()
            .state()
            .faults
            .counters();
        assert_eq!(counters.oom_injected, 1);
    }
}

/// A kernel broken persistently on one device makes the executor re-place
/// the pipeline onto the second device, which completes the query.
#[test]
fn persistent_kernel_fault_falls_back_to_second_device() {
    let data = test_data(150);
    let mut engine = Adamant::builder()
        .chunk_rows(50)
        // Fault scripting targets the unfused kernel names / allocation
        // ordinals, so run this scenario with fusion off.
        .fusion(false)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(0, FaultPlan::none().broken_kernel("agg_block"))
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    let graph = filter_map_sum(dev, -100, 2);
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data.clone());
    let (out, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(out.i64_column("sum")[0], expected_sum(&data, -100, 2));
    assert!(stats.fallback_placements > 0, "no fallback recorded");
    assert!(stats.retries >= 2, "fallback needs two failed attempts");
    let counters = engine
        .executor()
        .devices()
        .get(dev)
        .unwrap()
        .state()
        .faults
        .counters();
    assert!(counters.broken_kernel_hits >= 2);
}

/// A single transient kernel error is cleared by a plain retry on the same
/// device — no fallback placement happens.
#[test]
fn transient_kernel_fault_retries_without_fallback() {
    let data = test_data(100);
    let mut engine = Adamant::builder()
        .chunk_rows(32)
        .device(DeviceProfile::cuda_rtx2080ti())
        .fault_plan(0, FaultPlan::none().transient_exec_errors(1))
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    let graph = sum_query(dev);
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data.clone());
    let (out, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(out.i64_column("sum")[0], data.iter().sum::<i64>());
    assert!(stats.retries > 0);
    assert_eq!(stats.fallback_placements, 0);
}

/// Every execution model produces results identical to its fault-free run
/// under both fault scenarios (OOM backoff; persistent kernel fault with a
/// capable second device).
#[test]
fn faulted_runs_match_fault_free_across_models() {
    let data = test_data(180);
    let (threshold, factor) = (-50, 3);
    for model in ExecutionModel::ALL {
        let run = |faults: Option<FaultPlan>, two_devices: bool| -> i64 {
            let mut b = Adamant::builder()
                .chunk_rows(41)
                .device(DeviceProfile::cuda_rtx2080ti());
            if two_devices {
                b = b.device(DeviceProfile::opencl_cpu_i7());
            }
            if let Some(plan) = faults {
                b = b.fault_plan(0, plan);
            }
            let mut engine = b.build().unwrap();
            let dev = engine.device_ids()[0];
            let graph = filter_map_sum(dev, threshold, factor);
            let mut inputs = QueryInputs::new();
            inputs.bind("x", data.clone());
            let (out, _) = engine.run(&graph, &inputs, model).unwrap();
            out.i64_column("sum")[0]
        };
        let clean = run(None, false);
        assert_eq!(clean, expected_sum(&data, threshold, factor), "{model:?}");
        let oom = run(Some(FaultPlan::none().oom_on_allocation(3)), false);
        assert_eq!(oom, clean, "{model:?}: OOM recovery changed the result");
        let fallback = run(Some(FaultPlan::none().broken_kernel("agg_block")), true);
        assert_eq!(
            fallback, clean,
            "{model:?}: fallback placement changed the result"
        );
    }
}

/// After faulted runs — recovered or not — every device pool is back to
/// zero bytes: recovery rollback and the delete phase leak nothing.
#[test]
fn no_leaks_after_faulted_runs() {
    let data = test_data(120);
    let mut engine = Adamant::builder()
        .chunk_rows(16)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(
            0,
            FaultPlan::none()
                .oom_on_allocation(3)
                .oom_on_allocation(7)
                .broken_kernel("agg_block"),
        )
        // Two OOM backoffs plus the two strikes before fallback exceed the
        // default attempt budget; give this chaos run more headroom.
        .retry_policy(RetryPolicy { max_attempts: 8 })
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    let graph = filter_map_sum(dev, 0, 2);
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data.clone());
    for model in ExecutionModel::ALL {
        let (out, _) = engine.run(&graph, &inputs, model).unwrap();
        assert_eq!(out.i64_column("sum")[0], expected_sum(&data, 0, 2));
        for d in engine.device_ids() {
            let used = engine.executor().devices().get(d).unwrap().pool().used();
            assert_eq!(used, 0, "{model:?}: leaked {used} bytes on {d}");
            let pinned = engine
                .executor()
                .devices()
                .get(d)
                .unwrap()
                .pool()
                .pinned_used();
            assert_eq!(pinned, 0, "{model:?}: leaked {pinned} pinned bytes on {d}");
        }
    }
}

// ---- overlap stress: many chunks, few staging slots ------------------------

/// Many tiny chunks through the overlapped models, repeatedly, on one
/// engine: every chunk is staged into one of two slots, processed once and
/// in order, and per-pipeline cleanup holds across runs.
#[test]
fn overlap_stress_many_tiny_chunks() {
    let data = test_data(300);
    let expected: i64 = data.iter().sum();
    for model in [
        ExecutionModel::Pipelined,
        ExecutionModel::FourPhasePipelined,
    ] {
        let mut engine = Adamant::builder()
            .chunk_rows(1) // 300 chunks, staging_buffers = 2
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        let dev = engine.device_ids()[0];
        let graph = sum_query(dev);
        let mut inputs = QueryInputs::new();
        inputs.bind("x", data.clone());
        for round in 0..5 {
            let (out, stats) = engine.run(&graph, &inputs, model).unwrap();
            assert_eq!(
                out.i64_column("sum")[0],
                expected,
                "{model:?} round {round}"
            );
            assert_eq!(stats.chunks_processed, 300, "{model:?} round {round}");
            let used = engine.executor().devices().get(dev).unwrap().pool().used();
            assert_eq!(used, 0, "{model:?} round {round}: leaked {used} bytes");
        }
    }
}

/// Scans of one, two (one chunk per staging slot) and three chunks (a slot
/// is reused) all finish, count their chunks and leak nothing.
#[test]
fn overlap_scan_around_the_staging_buffer_count() {
    for model in [
        ExecutionModel::Pipelined,
        ExecutionModel::FourPhasePipelined,
    ] {
        for chunks in [1usize, 2, 3] {
            let data = test_data(chunks as i64 * 4 - 1); // last chunk is short
            let expected: i64 = data.iter().sum();
            let mut engine = Adamant::builder()
                .chunk_rows(4) // staging_buffers = 2
                .device(DeviceProfile::cuda_rtx2080ti())
                .build()
                .unwrap();
            let dev = engine.device_ids()[0];
            let graph = sum_query(dev);
            let mut inputs = QueryInputs::new();
            inputs.bind("x", data);
            let (out, stats) = engine.run(&graph, &inputs, model).unwrap();
            assert_eq!(out.i64_column("sum")[0], expected, "{model:?} {chunks}");
            assert_eq!(stats.chunks_processed, chunks, "{model:?} {chunks}");
            let used = engine.executor().devices().get(dev).unwrap().pool().used();
            assert_eq!(used, 0, "{model:?} {chunks}: leaked {used} bytes");
        }
    }
}

// ---- determinism ---------------------------------------------------------

/// A multi-device query reports byte-identical statistics across repeated
/// runs (modulo the real wall clock): routing sources, placement and
/// accounting must all be deterministic.
#[test]
fn multi_device_stats_byte_identical() {
    let run_once = || -> String {
        let mut engine = Adamant::builder()
            .chunk_rows(64)
            .device(DeviceProfile::cuda_rtx2080ti())
            .device(DeviceProfile::opencl_cpu_i7())
            .build()
            .unwrap();
        let (d0, d1) = (engine.device_ids()[0], engine.device_ids()[1]);
        // Build pipeline on device 0, probe pipeline on device 1: the hash
        // table crosses devices through the hub's router.
        let mut b = GraphBuilder::new();
        let bk = b.scan_input("build", "bk");
        let bp = b.scan_input("build", "bp");
        let ht = b.add(
            PrimitiveKind::HashBuild,
            NodeParams::HashBuild {
                payload_cols: 1,
                expected: 64,
            },
            vec![bk, bp],
            1,
            d0,
            "build",
        );
        let pk = b.scan_input("probe", "pk");
        let probe = b.add(
            PrimitiveKind::HashProbe,
            NodeParams::HashProbe { payload_outs: 1 },
            vec![pk, ht[0]],
            2,
            d1,
            "probe",
        );
        let agg = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![probe[1]],
            1,
            d1,
            "sum_payload",
        );
        b.output("sum", agg[0]);
        let graph = b.build().unwrap();

        let bk: Vec<i64> = (0..50).collect();
        let bp: Vec<i64> = (0..50).map(|k| k * 100).collect();
        let pk: Vec<i64> = (0..200).map(|i| (i % 60) as i64).collect();
        let expected: i64 = pk.iter().filter(|&&k| k < 50).map(|&k| k * 100).sum();
        let mut inputs = QueryInputs::new();
        inputs.bind("bk", bk);
        inputs.bind("bp", bp);
        inputs.bind("pk", pk);
        let (out, mut stats) = engine
            .run(&graph, &inputs, ExecutionModel::Chunked)
            .unwrap();
        assert_eq!(out.i64_column("sum")[0], expected);
        stats.wall_ns = 0; // the only genuinely nondeterministic field
        stats.to_json()
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "stats drifted between identical runs");
}

// ---- clean failures: unrecoverable errors stay typed ---------------------

#[test]
fn engine_reusable_after_oom() {
    let (mut engine, dev) = tiny_engine(1 << 20, 1 << 18, 1 << 20);
    let graph = sum_query(dev);

    // Too big: OAAT needs the whole 8 MiB column on a 1 MiB device, and no
    // amount of retrying helps (the OOM is capacity, not a transient).
    let mut big = QueryInputs::new();
    big.bind("x", vec![1i64; 1 << 20]);
    let err = engine
        .run(&graph, &big, ExecutionModel::OperatorAtATime)
        .unwrap_err();
    assert!(matches!(err, ExecError::Device(_)), "typed OOM, got {err}");

    // The failed run must have cleaned up: a small query now succeeds on
    // the same engine, and its stats are untainted.
    let mut small = QueryInputs::new();
    small.bind("x", vec![1i64; 1000]);
    let (out, stats) = engine
        .run(&graph, &small, ExecutionModel::OperatorAtATime)
        .unwrap();
    assert_eq!(out.i64_column("sum")[0], 1000);
    assert!(stats.total_ns > 0.0);
    // All buffers of both runs released.
    let used = engine.executor().devices().get(dev).unwrap().pool().used();
    assert_eq!(used, 0, "leaked {used} bytes after runs");
}

#[test]
fn oom_mid_pipeline_cleans_up() {
    // Chunked execution that OOMs when the accumulating hash table
    // outgrows the device mid-stream. Chunk backoff cannot help — the
    // table grows with the key count, not the chunk size — so after the
    // bounded retries the typed error surfaces.
    let (mut engine, dev) = tiny_engine(192 << 10, 64 << 10, 1 << 10);
    let mut pb = PlanBuilder::new(dev);
    let mut s = pb.scan("t", &["k"]);
    let ht = s.hash_build(&mut pb, "k", &[], 8).unwrap();
    let mut p = pb.scan("p", &["pk"]);
    p.semi_join(&mut pb, "pk", ht).unwrap();
    let pk = p.materialized(&mut pb, "pk").unwrap();
    let cnt = pb.agg_block(pk, AggFunc::Count, "cnt");
    pb.output("cnt", cnt);
    let graph = pb.build().unwrap();

    let mut inputs = QueryInputs::new();
    inputs.bind("k", (0..100_000i64).collect()); // table grows past 192 KiB
    inputs.bind("pk", vec![1i64; 10]);
    let err = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap_err();
    let oom = match &err {
        ExecError::Device(e) => {
            matches!(e, adamant::device::error::DeviceError::OutOfMemory { .. })
        }
        ExecError::KernelFailed { source, .. } => matches!(
            source,
            adamant::device::error::DeviceError::OutOfMemory { .. }
        ),
        _ => false,
    };
    assert!(oom, "expected an out-of-memory error, got {err}");
    let used = engine.executor().devices().get(dev).unwrap().pool().used();
    assert_eq!(used, 0, "leaked {used} bytes after mid-pipeline OOM");
}

#[test]
fn pinned_pool_exhaustion_is_typed() {
    // 4-phase staging needs pinned memory; a device without enough fails
    // with the pinned-specific error. Recovery is disabled so the first
    // failure surfaces directly.
    let mut engine = Adamant::builder()
        .chunk_rows(1 << 14)
        .device(DeviceProfile::cuda_rtx2080ti().with_memory(64 << 20, 1 << 10))
        .retry_policy(RetryPolicy { max_attempts: 1 })
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    let graph = sum_query(dev);
    let mut inputs = QueryInputs::new();
    inputs.bind("x", vec![1i64; 1 << 16]);
    let err = engine
        .run(&graph, &inputs, ExecutionModel::FourPhaseChunked)
        .unwrap_err();
    match err {
        ExecError::Device(adamant::device::error::DeviceError::OutOfPinnedMemory { .. }) => {}
        other => panic!("expected pinned exhaustion, got {other}"),
    }
    // Pageable chunked execution still works on the same engine.
    let (out, _) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    assert_eq!(out.i64_column("sum")[0], 1 << 16);
}

/// A link that corrupts every transfer exhausts the retransmit budget: the
/// run surfaces a typed `TransferCorrupted` naming the device instead of
/// re-placing the pipeline on the healthy second device, and leaks nothing.
#[test]
fn exhausted_retransmit_budget_is_a_typed_error() {
    let mut engine = Adamant::builder()
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::cuda_rtx2080ti())
        .fault_plan(0, FaultPlan::none().corrupt_transfer_rate(1.0))
        .build()
        .unwrap();
    let dev0 = engine.device_ids()[0];
    let graph = sum_query(dev0);
    let mut inputs = QueryInputs::new();
    inputs.bind("x", test_data(100));
    for model in [ExecutionModel::OperatorAtATime, ExecutionModel::Chunked] {
        let err = engine.run(&graph, &inputs, model).unwrap_err();
        assert!(
            matches!(err, ExecError::TransferCorrupted { device, .. } if device == dev0),
            "{model:?}: got {err}"
        );
        assert_no_leaks(&mut engine, &format!("{model:?}"));
    }
}

#[test]
fn missing_kernel_without_fallback_is_reported_not_panicked() {
    // A device whose SDK has no registered kernels yields
    // `NoImplementation` at execution time; with no second device to fall
    // back to, the error surfaces on the first attempt.
    let mut engine = Adamant::builder()
        .tasks(TaskRegistry::new()) // empty registry
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    let graph = sum_query(dev);
    let mut inputs = QueryInputs::new();
    inputs.bind("x", vec![1i64; 10]);
    let err = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap_err();
    assert!(
        matches!(err, ExecError::NoImplementation { .. }),
        "got {err}"
    );
}

#[test]
fn stats_survive_repeated_runs() {
    // Clock resets between runs: totals must not accumulate across runs.
    let (mut engine, dev) = tiny_engine(1 << 30, 1 << 28, 512);
    let graph = sum_query(dev);
    let mut inputs = QueryInputs::new();
    inputs.bind("x", (0..10_000i64).collect());
    let (_, first) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    let (_, second) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    let ratio = second.total_ns / first.total_ns;
    assert!(
        (0.99..1.01).contains(&ratio),
        "run-to-run drift: {} vs {}",
        first.total_ns,
        second.total_ns
    );
}
