//! End-to-end runtime tests: small queries executed under every model on
//! every driver profile, validated against host-computed references.

use adamant_core::executor::QueryInputs;
use adamant_core::prelude::*;
use adamant_device::device::DeviceId;
use adamant_device::error::DeviceError;
use adamant_device::profiles::DeviceProfile;
use adamant_device::sdk::SdkKind;
use adamant_task::params::{AggFunc, BitmapOp, CmpOp, MapOp};
use adamant_task::primitive::PrimitiveKind;
use adamant_task::registry::TaskRegistry;

fn executor_with(profile: DeviceProfile) -> (Executor, DeviceId) {
    let tasks = TaskRegistry::with_defaults(&[
        SdkKind::Cuda,
        SdkKind::OpenCl,
        SdkKind::OpenMp,
        SdkKind::Host,
    ]);
    let mut exec = Executor::new(
        tasks,
        ExecutorConfig {
            chunk_rows: 100,
            ..Default::default()
        },
    );
    let dev = exec.add_profile(&profile).unwrap();
    (exec, dev)
}

/// Q6-like: sum(price * disc) over rows passing three filters.
fn q6_like_graph(dev: DeviceId) -> PrimitiveGraph {
    let mut b = GraphBuilder::new();
    let date = b.scan_input("lineitem", "date");
    let disc = b.scan_input("lineitem", "disc");
    let qty = b.scan_input("lineitem", "qty");
    let price = b.scan_input("lineitem", "price");
    let bm_date = b.add(
        PrimitiveKind::FilterBitmap,
        NodeParams::Filter {
            cmp: CmpOp::Between,
            value: 100,
            hi: 200,
        },
        vec![date],
        1,
        dev,
        "filter_date",
    );
    let bm_disc = b.add(
        PrimitiveKind::FilterBitmap,
        NodeParams::Filter {
            cmp: CmpOp::Between,
            value: 5,
            hi: 7,
        },
        vec![disc],
        1,
        dev,
        "filter_disc",
    );
    let bm_qty = b.add(
        PrimitiveKind::FilterBitmap,
        NodeParams::Filter {
            cmp: CmpOp::Lt,
            value: 24,
            hi: 0,
        },
        vec![qty],
        1,
        dev,
        "filter_qty",
    );
    let bm1 = b.add(
        PrimitiveKind::BitmapOp,
        NodeParams::Bitmap { op: BitmapOp::And },
        vec![bm_date[0], bm_disc[0]],
        1,
        dev,
        "and1",
    );
    let bm = b.add(
        PrimitiveKind::BitmapOp,
        NodeParams::Bitmap { op: BitmapOp::And },
        vec![bm1[0], bm_qty[0]],
        1,
        dev,
        "and2",
    );
    let rev = b.add(
        PrimitiveKind::Map,
        NodeParams::Map {
            op: MapOp::Mul,
            constant: 0,
        },
        vec![price, disc],
        1,
        dev,
        "mul",
    );
    let sel = b.add(
        PrimitiveKind::Materialize,
        NodeParams::None,
        vec![rev[0], bm[0]],
        1,
        dev,
        "materialize",
    );
    let sum = b.add(
        PrimitiveKind::AggBlock,
        NodeParams::AggBlock { agg: AggFunc::Sum },
        vec![sel[0]],
        1,
        dev,
        "sum",
    );
    b.output("revenue", sum[0]);
    b.build().unwrap()
}

fn q6_inputs(n: usize) -> (QueryInputs, i64) {
    let (inputs, expected, _) = q6_inputs_full(n);
    (inputs, expected)
}

fn q6_inputs_full(n: usize) -> (QueryInputs, i64, i64) {
    let date: Vec<i64> = (0..n).map(|i| (i * 7 % 365) as i64).collect();
    let disc: Vec<i64> = (0..n).map(|i| (i % 11) as i64).collect();
    let qty: Vec<i64> = (0..n).map(|i| (i * 3 % 50) as i64).collect();
    let price: Vec<i64> = (0..n).map(|i| (1000 + i * 13 % 9000) as i64).collect();
    let mut expected = 0i64;
    let mut selected = 0i64;
    for i in 0..n {
        if (100..=200).contains(&date[i]) && (5..=7).contains(&disc[i]) && qty[i] < 24 {
            expected += price[i] * disc[i];
            selected += 1;
        }
    }
    let mut inputs = QueryInputs::new();
    inputs.bind("date", date);
    inputs.bind("disc", disc);
    inputs.bind("qty", qty);
    inputs.bind("price", price);
    (inputs, expected, selected)
}

#[test]
fn q6_like_all_models_all_profiles() {
    let n = 1000;
    for profile in [
        DeviceProfile::cuda_rtx2080ti(),
        DeviceProfile::opencl_rtx2080ti(),
        DeviceProfile::opencl_cpu_i7(),
        DeviceProfile::openmp_cpu_i7(),
    ] {
        for model in ExecutionModel::ALL {
            let (mut exec, dev) = executor_with(profile.clone());
            let graph = q6_like_graph(dev);
            let (inputs, expected, selected) = q6_inputs_full(n);
            let (out, stats) = exec.run(&graph, &inputs, model).unwrap();
            let acc = out.i64_column("revenue");
            assert_eq!(acc[0], expected, "model {model} on {} wrong", profile.name);
            assert_eq!(acc[1], selected, "row count mismatch");
            assert!(stats.total_ns > 0.0);
            if model != ExecutionModel::OperatorAtATime {
                assert_eq!(stats.chunks_processed, 10);
            }
        }
    }
}

#[test]
fn chunked_models_agree_with_oaat() {
    let (inputs, _) = q6_inputs(777); // ragged final chunk
    let mut results = Vec::new();
    for model in ExecutionModel::ALL {
        let (mut exec, dev) = executor_with(DeviceProfile::cuda_rtx2080ti());
        let graph = q6_like_graph(dev);
        let (out, _) = exec.run(&graph, &inputs, model).unwrap();
        results.push(out.i64_column("revenue").to_vec());
    }
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
}

#[test]
fn join_query_across_models() {
    // build: keys 0..50 with payload key*100; probe: 200 rows of key i%60.
    let dev_id = DeviceId(0);
    let build_graph = |dev: DeviceId| {
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
            dev,
            "build",
        );
        let pk = b.scan_input("probe", "pk");
        let probe = b.add(
            PrimitiveKind::HashProbe,
            NodeParams::HashProbe { payload_outs: 1 },
            vec![pk, ht[0]],
            2,
            dev,
            "probe",
        );
        let agg = b.add(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg: AggFunc::Sum },
            vec![probe[1]],
            1,
            dev,
            "sum_payload",
        );
        b.output("sum", agg[0]);
        b.build().unwrap()
    };
    let bk: Vec<i64> = (0..50).collect();
    let bp: Vec<i64> = (0..50).map(|k| k * 100).collect();
    let pk: Vec<i64> = (0..200).map(|i| (i % 60) as i64).collect();
    let expected: i64 = pk.iter().filter(|&&k| k < 50).map(|&k| k * 100).sum();

    for model in ExecutionModel::ALL {
        let (mut exec, dev) = executor_with(DeviceProfile::cuda_rtx2080ti());
        assert_eq!(dev, dev_id);
        let graph = build_graph(dev);
        let mut inputs = QueryInputs::new();
        inputs.bind("bk", bk.clone());
        inputs.bind("bp", bp.clone());
        inputs.bind("pk", pk.clone());
        let (out, _) = exec.run(&graph, &inputs, model).unwrap();
        assert_eq!(out.i64_column("sum")[0], expected, "model {model}");
    }
}

#[test]
fn escaped_positions_are_rebased_globally() {
    // Filter positions as the graph output, streamed in chunks of 100:
    // chunk-relative positions must come back rebased.
    let (mut exec, dev) = executor_with(DeviceProfile::opencl_cpu_i7());
    let mut b = GraphBuilder::new();
    let x = b.scan_input("t", "x");
    let pos = b.add(
        PrimitiveKind::FilterPosition,
        NodeParams::Filter {
            cmp: CmpOp::Eq,
            value: 1,
            hi: 0,
        },
        vec![x],
        1,
        dev,
        "filter_pos",
    );
    b.output("positions", pos[0]);
    let graph = b.build().unwrap();
    let data: Vec<i64> = (0..350).map(|i| (i % 150 == 0) as i64).collect();
    let expected: Vec<u32> = vec![0, 150, 300];
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data);
    let (out, stats) = exec.run(&graph, &inputs, ExecutionModel::Chunked).unwrap();
    assert_eq!(out.get("positions").unwrap().as_u32().unwrap(), &expected);
    assert_eq!(stats.chunks_processed, 4);
}

#[test]
fn oaat_ooms_where_chunked_survives() {
    // The paper's Fig. 7 point: whole-input execution exceeds device
    // memory; chunked execution of the same query succeeds.
    let profile = DeviceProfile::cuda_rtx2080ti().with_memory(200_000, 100_000);
    let n = 10_000; // 4 columns * 80 KB = 320 KB > 200 KB device
    let (inputs, expected) = q6_inputs(n);

    let (mut exec, dev) = executor_with(profile.clone());
    let graph = q6_like_graph(dev);
    let err = exec
        .run(&graph, &inputs, ExecutionModel::OperatorAtATime)
        .unwrap_err();
    assert!(
        matches!(err, ExecError::Device(DeviceError::OutOfMemory { .. })),
        "expected OOM, got {err}"
    );

    let (mut exec, dev) = executor_with(profile);
    let graph = q6_like_graph(dev);
    let (out, _) = exec.run(&graph, &inputs, ExecutionModel::Chunked).unwrap();
    assert_eq!(out.i64_column("revenue")[0], expected);
}

#[test]
fn overlap_reduces_modeled_time() {
    let n = 20_000;
    let (inputs, _) = q6_inputs(n);
    let run_model = |model: ExecutionModel| {
        let tasks = TaskRegistry::with_defaults(&[SdkKind::Cuda, SdkKind::Host]);
        let config = ExecutorConfig {
            chunk_rows: 1000,
            ..Default::default()
        };
        let mut exec = Executor::new(tasks, config);
        let dev = exec.add_profile(&DeviceProfile::cuda_rtx2080ti()).unwrap();
        let graph = q6_like_graph(dev);
        let (_, stats) = exec.run(&graph, &inputs, model).unwrap();
        stats
    };
    let chunked = run_model(ExecutionModel::Chunked);
    let pipelined = run_model(ExecutionModel::Pipelined);
    let four_phase = run_model(ExecutionModel::FourPhasePipelined);
    assert!(
        pipelined.total_ns < chunked.total_ns,
        "pipelined {} !< chunked {}",
        pipelined.total_ns,
        chunked.total_ns
    );
    assert!(
        four_phase.total_ns < chunked.total_ns,
        "4-phase {} !< chunked {}",
        four_phase.total_ns,
        chunked.total_ns
    );
}

#[test]
fn stats_accounting_is_consistent() {
    let (inputs, _) = q6_inputs(5_000);
    let (mut exec, dev) = executor_with(DeviceProfile::cuda_rtx2080ti());
    let graph = q6_like_graph(dev);
    let (_, stats) = exec.run(&graph, &inputs, ExecutionModel::Chunked).unwrap();
    assert!(stats.bytes_h2d > 0);
    assert!(stats.bytes_d2h > 0); // final result retrieval
    assert!(stats.transfer_ns > 0.0);
    assert!(stats.compute_ns > 0.0);
    assert!(stats.primitive_total_ns() <= stats.total_ns);
    assert!(stats.overhead_ns() > 0.0);
    assert_eq!(stats.pipelines, 1);
    assert!(!stats.peak_device_bytes.is_empty());
    // Kernel time is attributed per node label; fused chains carry their
    // member labels inside `fused(...)`.
    assert!(stats
        .per_primitive_ns
        .keys()
        .any(|k| k.contains("materialize")));
    assert!(stats.per_primitive_ns.keys().any(|k| k.contains("sum")));
}

#[test]
fn missing_input_is_reported() {
    let (mut exec, dev) = executor_with(DeviceProfile::opencl_cpu_i7());
    let graph = q6_like_graph(dev);
    let mut inputs = QueryInputs::new();
    inputs.bind("date", vec![1]);
    let err = exec
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap_err();
    assert!(matches!(err, ExecError::MissingInput(_)));
}

#[test]
fn scan_length_mismatch_is_reported() {
    let (mut exec, dev) = executor_with(DeviceProfile::opencl_cpu_i7());
    let graph = q6_like_graph(dev);
    let mut inputs = QueryInputs::new();
    inputs.bind("date", vec![1, 2]);
    inputs.bind("disc", vec![1]);
    inputs.bind("qty", vec![1, 2]);
    inputs.bind("price", vec![1, 2]);
    let err = exec
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap_err();
    assert!(matches!(err, ExecError::InputLengthMismatch { .. }));
}

#[test]
fn sort_rejected_in_multichunk_stream() {
    let (mut exec, dev) = executor_with(DeviceProfile::opencl_cpu_i7());
    let mut b = GraphBuilder::new();
    let x = b.scan_input("t", "x");
    let perm = b.add(
        PrimitiveKind::Sort,
        NodeParams::Sort { desc_mask: 0 },
        vec![x],
        1,
        dev,
        "sort",
    );
    b.output("perm", perm[0]);
    let graph = b.build().unwrap();
    let mut inputs = QueryInputs::new();
    inputs.bind("x", (0..500).rev().collect());
    // 5 chunks of 100 -> rejected.
    let err = exec
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap_err();
    assert!(matches!(err, ExecError::InvalidGraph(_)));
    // Single-chunk OAAT is fine.
    let (out, _) = exec
        .run(&graph, &inputs, ExecutionModel::OperatorAtATime)
        .unwrap();
    let perm = out.get("perm").unwrap().as_u32().unwrap();
    assert_eq!(perm[0], 499);
    assert_eq!(perm[499], 0);
}

#[test]
fn empty_input_produces_empty_outputs() {
    let (mut exec, dev) = executor_with(DeviceProfile::opencl_cpu_i7());
    let mut b = GraphBuilder::new();
    let x = b.scan_input("t", "x");
    let pos = b.add(
        PrimitiveKind::FilterPosition,
        NodeParams::Filter {
            cmp: CmpOp::Gt,
            value: 0,
            hi: 0,
        },
        vec![x],
        1,
        dev,
        "f",
    );
    b.output("positions", pos[0]);
    let graph = b.build().unwrap();
    let mut inputs = QueryInputs::new();
    inputs.bind("x", vec![]);
    let (out, stats) = exec.run(&graph, &inputs, ExecutionModel::Chunked).unwrap();
    assert!(out.get("positions").unwrap().is_empty());
    assert_eq!(stats.chunks_processed, 0);
}

#[test]
fn variant_selection_runs() {
    let (mut exec, dev) = executor_with(DeviceProfile::cuda_rtx2080ti());
    let mut b = GraphBuilder::new();
    let x = b.scan_input("t", "x");
    let bm = b.add_variant(
        PrimitiveKind::FilterBitmap,
        NodeParams::Filter {
            cmp: CmpOp::Ge,
            value: 50,
            hi: 0,
        },
        vec![x],
        1,
        dev,
        Some("branchless".to_string()),
        "filter_branchless",
    );
    let m = b.add(
        PrimitiveKind::Materialize,
        NodeParams::None,
        vec![x, bm[0]],
        1,
        dev,
        "mat",
    );
    let s = b.add(
        PrimitiveKind::AggBlock,
        NodeParams::AggBlock {
            agg: AggFunc::Count,
        },
        vec![m[0]],
        1,
        dev,
        "count",
    );
    b.output("count", s[0]);
    let graph = b.build().unwrap();
    let mut inputs = QueryInputs::new();
    inputs.bind("x", (0..100).collect());
    let (out, _) = exec.run(&graph, &inputs, ExecutionModel::Chunked).unwrap();
    assert_eq!(out.i64_column("count")[0], 50);
}

#[test]
fn unknown_variant_errors() {
    let (mut exec, dev) = executor_with(DeviceProfile::cuda_rtx2080ti());
    let mut b = GraphBuilder::new();
    let x = b.scan_input("t", "x");
    let bm = b.add_variant(
        PrimitiveKind::FilterBitmap,
        NodeParams::Filter {
            cmp: CmpOp::Ge,
            value: 0,
            hi: 0,
        },
        vec![x],
        1,
        dev,
        Some("does-not-exist".to_string()),
        "f",
    );
    b.output("bm", bm[0]);
    let graph = b.build().unwrap();
    let mut inputs = QueryInputs::new();
    inputs.bind("x", vec![1, 2, 3]);
    let err = exec
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap_err();
    assert!(matches!(err, ExecError::NoImplementation { .. }));
}

#[test]
fn cross_device_routing_works() {
    // Build on the CPU device, probe on the GPU device: the hub must move
    // the hash table across.
    let tasks = TaskRegistry::with_defaults(&[SdkKind::Cuda, SdkKind::OpenCl]);
    let mut exec = Executor::new(
        tasks,
        ExecutorConfig {
            chunk_rows: 64,
            ..Default::default()
        },
    );
    let cpu = exec.add_profile(&DeviceProfile::opencl_cpu_i7()).unwrap();
    let gpu = exec.add_profile(&DeviceProfile::cuda_rtx2080ti()).unwrap();

    let mut b = GraphBuilder::new();
    let bk = b.scan_input("build", "bk");
    let ht = b.add(
        PrimitiveKind::HashBuild,
        NodeParams::HashBuild {
            payload_cols: 0,
            expected: 32,
        },
        vec![bk],
        1,
        cpu,
        "build@cpu",
    );
    let pk = b.scan_input("probe", "pk");
    let semi = b.add(
        PrimitiveKind::HashProbeSemi,
        NodeParams::None,
        vec![pk, ht[0]],
        1,
        gpu,
        "semi@gpu",
    );
    let mat = b.add(
        PrimitiveKind::Materialize,
        NodeParams::None,
        vec![pk, semi[0]],
        1,
        gpu,
        "mat@gpu",
    );
    let cnt = b.add(
        PrimitiveKind::AggBlock,
        NodeParams::AggBlock {
            agg: AggFunc::Count,
        },
        vec![mat[0]],
        1,
        gpu,
        "count@gpu",
    );
    b.output("matches", cnt[0]);
    let graph = b.build().unwrap();

    let mut inputs = QueryInputs::new();
    inputs.bind("bk", (0..40).collect());
    inputs.bind("pk", (0..100).collect());
    let (out, _) = exec.run(&graph, &inputs, ExecutionModel::Chunked).unwrap();
    assert_eq!(out.i64_column("matches")[0], 40);
}
