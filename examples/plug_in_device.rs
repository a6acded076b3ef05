//! Plugging a brand-new co-processor into ADAMANT — the paper's core claim
//! ("couple a new co-processor or API … without re-working the complete
//! query engine").
//!
//! This example integrates an imaginary "NPU" with its own vendor SDK:
//! a hand-written `Device` implementation ([`NpuDevice`], in this package's
//! `lib.rs` — the required trait methods and nothing else) plus kernel
//! registrations for the new SDK. *No executor, runtime or planner code
//! changes.*
//!
//! Run: `cargo run --release -p adamant-examples --example plug_in_device`

use adamant::prelude::*;
use adamant_examples::{NpuDevice, NPU_SDK};

fn main() {
    // 1. Register kernels for the new SDK. The reference implementations
    //    already adhere to the primitive I/O signatures, so the vendor can
    //    reuse them wholesale — or register specialized variants.
    let mut tasks = TaskRegistry::new();
    tasks.register_defaults_for(NPU_SDK);
    println!(
        "registered {} kernel containers for the NPU SDK",
        tasks.len()
    );

    // 2. Plug the device. Nothing else in the engine changes.
    let mut npu = NpuDevice::new(DeviceId(0));
    npu.initialize().expect("init");
    let mut engine = Adamant::builder()
        .tasks(tasks)
        .chunk_rows(8192)
        .custom_device(Box::new(npu))
        .build()
        .expect("engine");
    let npu = engine.device_ids()[0];

    // 3. Run a join on the new co-processor under every execution model.
    let mut pb = PlanBuilder::new(npu);
    let mut dim = pb.scan("dim", &["d_key", "d_weight"]);
    let ht = dim
        .hash_build(&mut pb, "d_key", &["d_weight"], 1000)
        .expect("build");
    let mut fact = pb.scan("fact", &["f_key", "f_val"]);
    fact.filter(&mut pb, Predicate::cmp("f_val", CmpOp::Gt, 10))
        .expect("filter");
    fact.hash_probe(&mut pb, "f_key", ht, &["d_weight"])
        .expect("probe");
    fact.project(
        &mut pb,
        "weighted",
        Expr::col("f_val").mul(Expr::col("d_weight")),
    )
    .expect("project");
    let weighted = fact.materialized(&mut pb, "weighted").expect("mat");
    let total = pb.agg_block(weighted, AggFunc::Sum, "total");
    pb.output("total", total);
    let graph = pb.build().expect("graph");

    let mut inputs = QueryInputs::new();
    inputs.bind("d_key", (0..1000).collect());
    inputs.bind("d_weight", (0..1000).map(|k| k % 7 + 1).collect());
    inputs.bind("f_key", (0..50_000).map(|i| i % 1500).collect());
    inputs.bind("f_val", (0..50_000).map(|i| i % 100).collect());

    for model in ExecutionModel::ALL {
        let (out, stats) = engine.run(&graph, &inputs, model).expect("run");
        println!(
            "{:<18} on NPU -> total={}  ({:.3} ms modeled)",
            model.name(),
            out.i64_column("total")[0],
            stats.total_ms()
        );
    }
    println!("\nA new co-processor + SDK ran the full model suite — zero engine changes.");
}
