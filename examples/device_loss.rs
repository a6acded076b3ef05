//! Hot-unplug and hot-add: surviving permanent device loss mid-query.
//!
//! A three-device engine runs TPC-H Q6 while its primary GPU dies for good
//! partway through (a hard unplug: every later call would return `Gone`).
//! The engine writes off the corpse's buffers without touching it,
//! re-stages the lost inputs from host copies, finishes the query
//! reference-exact on the survivors, and unplugs the dead device from the
//! registry. A replacement is then hot-added between runs, and the very
//! next run of a plan annotated with it runs there. The engine remembers no
//! device state across runs: what a run starts on is the plan's annotation
//! (re-pointed only when that device is gone) and the cost model.
//!
//! Run: `cargo run --release -p adamant-examples --example device_loss`

use adamant::prelude::*;

fn main() {
    let catalog = TpchGenerator::new(0.01, 7).generate();
    let reference = adamant::tpch::reference::q6(&catalog).expect("reference");

    // Device 0 dies permanently on its 5th kernel launch.
    let mut engine = Adamant::builder()
        .chunk_rows(2 << 10)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .device(DeviceProfile::openmp_cpu_i7())
        .fault_plan(0, FaultPlan::none().die_on_exec(5))
        .build()
        .expect("engine");
    let dev0 = engine.device_ids()[0];
    let graph = TpchQuery::Q6.plan(dev0, &catalog).expect("plan");
    let inputs = TpchQuery::Q6.bind(&catalog).expect("bind");

    println!("== run 1: the primary GPU dies mid-query ==");
    let (out, stats) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .expect("survivors finish the query");
    assert_eq!(adamant::tpch::queries::q6::decode(&out), reference);
    println!(
        "  q6 revenue exact on survivors: deaths={}, buffers written off={}, \
         bytes re-staged={}",
        stats.device_deaths, stats.buffers_written_off, stats.restaged_bytes
    );
    println!(
        "  devices still plugged: {:?}",
        engine.executor().devices().ids()
    );

    println!("== hot-add a replacement GPU ==");
    let new_dev = engine
        .attach_profile(&DeviceProfile::cuda_rtx2080ti())
        .expect("attach");
    println!(
        "  {new_dev} attached; devices plugged: {:?}",
        engine.device_ids()
    );

    println!("== run 2: work routes onto the replacement ==");
    let graph2 = TpchQuery::Q6.plan(new_dev, &catalog).expect("plan");
    let (out2, stats2) = engine
        .run(&graph2, &inputs, ExecutionModel::Chunked)
        .expect("replacement serves the query");
    assert_eq!(adamant::tpch::queries::q6::decode(&out2), reference);
    let new_ns = engine
        .executor()
        .devices()
        .get(new_dev)
        .expect("plugged")
        .clock()
        .total_ns();
    println!(
        "  q6 revenue exact again: hot_adds={}, chunks={}, \
         replacement device time={:.3} ms",
        stats2.hot_adds,
        stats2.chunks_processed,
        new_ns / 1e6
    );
}
