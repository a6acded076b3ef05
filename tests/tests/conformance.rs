//! Device conformance suite: validates that ANY `Device` implementation
//! honors the contracts of the ten pluggable interfaces — the executable
//! form of the paper's claim that a new co-processor can be plugged in
//! without reworking the engine.
//!
//! Run against every built-in profile *and* the hand-written `NpuDevice`
//! of the examples package — the repo's one `impl Device` that is not the
//! simulator, so a new required trait method breaks this build.

use adamant::device::error::DeviceError;
use adamant::prelude::*;
use adamant_examples::{NpuDevice, NPU_SDK};
use adamant_integration_tests::{assert_matches_reference, assert_no_leaks};

/// Exercises every interface of a freshly-initialized device.
fn conformance_suite(dev: &mut dyn Device, supports_jit: bool) {
    let name = dev.info().name.clone();
    let ctx = |m: &str| format!("{name}: {m}");

    // place / retrieve round trip.
    dev.place_data(BufferId(1), BufferData::I64(vec![5, 6, 7, 8]), 0)
        .unwrap_or_else(|e| panic!("{} ({e})", ctx("place_data")));
    let back = dev
        .retrieve_data(BufferId(1), None, 0)
        .unwrap_or_else(|e| panic!("{} ({e})", ctx("retrieve_data")));
    assert_eq!(
        back,
        BufferData::I64(vec![5, 6, 7, 8]),
        "{}",
        ctx("roundtrip")
    );

    // Partial retrieval with offset.
    let part = dev.retrieve_data(BufferId(1), Some(2), 1).unwrap();
    assert_eq!(part, BufferData::I64(vec![6, 7]), "{}", ctx("offset read"));

    // A range whose end overflows is a typed error — never a panic, a
    // wrapped offset or a silently short payload.
    let overflow = |r: Result<(), DeviceError>, what: &str| {
        assert!(
            matches!(r, Err(DeviceError::RangeOutOfBounds { .. })),
            "{}: got {r:?}",
            ctx(what)
        )
    };
    overflow(
        dev.retrieve_data(BufferId(1), Some(usize::MAX), 1)
            .map(drop),
        "retrieve_data overflow",
    );
    overflow(
        dev.create_chunk(BufferId(1), BufferId(3), 1, usize::MAX),
        "create_chunk overflow",
    );
    overflow(
        dev.pool()
            .checksum(BufferId(1), Some(usize::MAX), 1)
            .map(drop),
        "checksum overflow",
    );

    // prepare_memory reserves; the reservation is visible in the pool.
    let used_before = dev.pool().used();
    dev.prepare_memory(BufferId(2), 1024).unwrap();
    assert!(
        dev.pool().used() >= used_before + 1024,
        "{}",
        ctx("reservation accounted")
    );

    // create_chunk produces a device-side copy.
    dev.create_chunk(BufferId(1), BufferId(3), 1, 2).unwrap();
    assert_eq!(
        dev.retrieve_data(BufferId(3), None, 0).unwrap(),
        BufferData::I64(vec![6, 7]),
        "{}",
        ctx("create_chunk")
    );

    // Pinned memory is tracked separately.
    dev.add_pinned_memory(BufferId(4), 2048).unwrap();
    assert!(dev.pool().pinned_used() >= 2048, "{}", ctx("pinned pool"));

    // transform_memory returns a path and keeps data intact.
    let _ = dev
        .transform_memory(BufferId(1), SdkRepr::native_of(dev.info().sdk))
        .unwrap();
    assert_eq!(
        dev.retrieve_data(BufferId(1), None, 0).unwrap(),
        BufferData::I64(vec![5, 6, 7, 8]),
        "{}",
        ctx("transform preserves data")
    );

    // Kernel binding + execution.
    let f: adamant::device::kernel::KernelFn = std::sync::Arc::new(|pool, bufs, params| {
        let c = params[0];
        let input = pool.get(bufs[0])?.data.as_i64().unwrap().to_vec();
        let mut out = pool.take(bufs[1])?;
        out.data = BufferData::I64(input.iter().map(|x| x * c).collect());
        pool.restore(bufs[1], out)?;
        Ok(KernelStats::new(input.len() as u64, CostClass::MapLike))
    });
    dev.prepare_kernel("conf_mul", KernelSource::Builtin(f.clone()))
        .unwrap();
    let stats = dev
        .execute(&ExecuteSpec::new(
            "conf_mul",
            vec![BufferId(1), BufferId(2)],
            vec![10],
        ))
        .unwrap();
    assert_eq!(stats.elements, 4, "{}", ctx("kernel stats"));
    assert_eq!(
        dev.retrieve_data(BufferId(2), None, 0).unwrap(),
        BufferData::I64(vec![50, 60, 70, 80]),
        "{}",
        ctx("kernel result")
    );

    // Runtime compilation is optional — but the answer must be consistent.
    let jit = dev.prepare_kernel(
        "conf_jit",
        KernelSource::Source {
            source: "kernel void conf_jit() {}".into(),
            entry: f,
        },
    );
    assert_eq!(jit.is_ok(), supports_jit, "{}", ctx("JIT support flag"));

    // init_structure allocates without host transfer.
    let h2d_before = dev.clock().bytes_h2d();
    dev.init_structure(BufferId(5), BufferData::I64(vec![0; 16]))
        .unwrap();
    assert_eq!(
        dev.clock().bytes_h2d(),
        h2d_before,
        "{}",
        ctx("init no H2D")
    );

    // delete_memory releases bytes; unknown buffers error.
    dev.delete_memory(BufferId(3)).unwrap();
    assert!(
        dev.delete_memory(BufferId(3)).is_err(),
        "{}",
        ctx("double free")
    );

    // Costs were recorded throughout.
    assert!(dev.clock().total_ns() > 0.0, "{}", ctx("clock records"));

    // A state reset leaves a clean, reusable device.
    dev.state_mut().reset();
    assert_eq!(dev.pool().used(), 0, "{}", ctx("reset pool"));
    assert_eq!(dev.clock().total_ns(), 0.0, "{}", ctx("reset clock"));
    dev.place_data(BufferId(9), BufferData::I64(vec![1]), 0)
        .unwrap_or_else(|e| panic!("{} ({e})", ctx("usable after reset")));
}

#[test]
fn all_builtin_profiles_conform() {
    for profile in DeviceProfile::setup1()
        .into_iter()
        .chain(DeviceProfile::setup2())
        .chain([DeviceProfile::host()])
    {
        let jit = profile.supports_compilation;
        let mut dev = profile.build(DeviceId(0));
        conformance_suite(&mut dev, jit);
    }
}

#[test]
fn custom_device_conforms() {
    // A hand-written driver with its own SDK tag: the plug-in path.
    let mut dev = NpuDevice::new(DeviceId(0));
    dev.initialize().unwrap();
    conformance_suite(&mut dev, false);
}

#[test]
fn custom_device_runs_full_query_suite() {
    // The stronger claim: a hand-written driver + its SDK executes the
    // TPC-H suite under every model with exact results.
    let mut npu = NpuDevice::new(DeviceId(0));
    npu.initialize().unwrap();

    let mut tasks = TaskRegistry::new();
    tasks.register_defaults_for(NPU_SDK);
    let mut engine = Adamant::builder()
        .tasks(tasks)
        .chunk_rows(900)
        .custom_device(Box::new(npu))
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];

    let catalog = TpchGenerator::new(0.001, 13).generate();
    for q in TpchQuery::ALL {
        for model in ExecutionModel::ALL {
            let graph = q.plan(dev, &catalog).unwrap();
            let inputs = q.bind(&catalog).unwrap();
            let (out, _) = engine
                .run(&graph, &inputs, model)
                .unwrap_or_else(|e| panic!("{q} under {model}: {e}"));
            assert_matches_reference(q, &catalog, &out, &format!("{q} under {model}"));
        }
    }
}

#[test]
fn custom_device_prices_like_the_simulator() {
    // One call script on the hand-written driver and on a fault-free
    // simulator built from its description and cost model: every call
    // must charge the same lane, duration, clean duration and bytes, in
    // the same order. Fusion's saved-time estimate and placement price
    // every device as the simulator does, so a driver that prices
    // differently would be mis-scheduled.
    use adamant::device::clock::CostEvent;
    use adamant::device::kernel::KernelFn;
    use adamant::device::{SimDevice, TransformTable};
    use std::sync::Arc;

    let mut npu = NpuDevice::new(DeviceId(0));
    let mut sim = SimDevice::new(
        npu.info().clone(),
        npu.state().cost.clone(),
        TransformTable::new(),
        false,
    );
    let plain: KernelFn = Arc::new(|pool, bufs, _| {
        let n = pool.get(bufs[0])?.data.len() as u64;
        Ok(KernelStats::new(n, CostClass::MapLike))
    });
    let fused: KernelFn = Arc::new(|_, _, _| {
        let stages = vec![(CostClass::FilterBitmap, 64), (CostClass::HashProbe, 40)];
        Ok(KernelStats::fused(
            64,
            CostClass::MapLike,
            stages,
            vec![64, 64],
        ))
    });
    let script = |dev: &mut dyn Device| -> Vec<CostEvent> {
        dev.initialize().unwrap();
        for (name, f) in [("plain", &plain), ("fused", &fused)] {
            dev.prepare_kernel(name, KernelSource::Builtin(f.clone()))
                .unwrap();
        }
        dev.place_data(BufferId(1), BufferData::I64((0..64).collect()), 0)
            .unwrap();
        dev.place_data(BufferId(1), BufferData::I64(vec![7; 8]), 16)
            .unwrap();
        dev.retrieve_data(BufferId(1), None, 0).unwrap();
        dev.retrieve_data(BufferId(1), Some(10), 5).unwrap();
        dev.prepare_memory(BufferId(2), 4096).unwrap();
        dev.add_pinned_memory(BufferId(3), 1024).unwrap();
        dev.place_data(BufferId(3), BufferData::I64(vec![1; 32]), 0)
            .unwrap();
        dev.retrieve_data(BufferId(3), Some(16), 8).unwrap();
        dev.create_chunk(BufferId(1), BufferId(4), 8, 24).unwrap();
        dev.execute(&ExecuteSpec::new(
            "plain",
            vec![BufferId(1), BufferId(2)],
            vec![3],
        ))
        .unwrap();
        dev.execute(&ExecuteSpec::new(
            "fused",
            vec![BufferId(1), BufferId(4), BufferId(2)],
            vec![1, 2],
        ))
        .unwrap();
        dev.init_structure(BufferId(5), BufferData::I64(vec![0; 128]))
            .unwrap();
        dev.delete_memory(BufferId(4)).unwrap();
        dev.transform_memory(BufferId(1), SdkRepr::native_of(NPU_SDK))
            .unwrap();
        dev.clock_mut().drain_events().collect()
    };
    let (custom, simulated) = (script(&mut npu), script(&mut sim));
    assert_eq!(custom.len(), 15, "{custom:?}");
    assert_eq!(custom, simulated);
}

#[test]
fn custom_device_takes_fault_plans() {
    // The hand-written driver holds no fault code, yet a plan installed on
    // it takes effect: an injected OOM backs the chunk size off, and a
    // scripted death moves the query onto the simulated survivor. Both
    // runs stay reference-exact and leak nothing.
    let catalog = TpchGenerator::new(0.001, 13).generate();
    let q = TpchQuery::Q6;
    let inputs = q.bind(&catalog).unwrap();
    let run = |plan: FaultPlan| {
        let mut npu = NpuDevice::new(DeviceId(1));
        npu.initialize().unwrap();
        let mut tasks = TaskRegistry::new();
        tasks.register_defaults_for(SdkKind::Cuda);
        tasks.register_defaults_for(NPU_SDK);
        let mut engine = Adamant::builder()
            .tasks(tasks)
            .chunk_rows(500)
            .device(DeviceProfile::cuda_rtx2080ti())
            .custom_device(Box::new(npu))
            .fault_plan(1, plan)
            .build()
            .unwrap();
        let (survivor, npu) = (engine.device_ids()[0], engine.device_ids()[1]);
        let graph = q.plan(npu, &catalog).unwrap();
        let (out, stats) = engine
            .run(&graph, &inputs, ExecutionModel::Chunked)
            .unwrap_or_else(|e| panic!("{q} on the faulty NPU: {e}"));
        assert_matches_reference(q, &catalog, &out, &format!("{q} on the faulty NPU"));
        assert_no_leaks(&mut engine, "faulty NPU");
        (engine, stats, survivor, npu)
    };

    let (engine, stats, _, npu) = run(FaultPlan::none().oom_on_allocation(4));
    assert!(stats.chunk_backoffs > 0, "no backoff recorded: {stats:?}");
    assert_eq!(stats.device_deaths, 0);
    let npu_state = engine.executor().devices().get(npu).unwrap().state();
    let oom_injected = npu_state.faults.counters().oom_injected;
    assert_eq!(oom_injected, 1, "the OOM fired on the NPU");

    let (engine, stats, survivor, _) = run(FaultPlan::none().die_on_exec(3));
    assert_eq!(stats.device_deaths, 1, "the scripted death must fire");
    assert_eq!(engine.device_ids(), vec![survivor], "the NPU is gone");
    let survivor_state = engine.executor().devices().get(survivor).unwrap().state();
    let survivor_ns = survivor_state.clock.total_ns();
    assert!(survivor_ns > 0.0, "the survivor finished the query");
}
