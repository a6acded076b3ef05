//! Straggler tolerance: watchdogs, hedged chunks, and transfer checksums.
//!
//! One device of two is a chronic straggler — every operation runs 8× slow
//! and one kernel launch stalls outright — and it silently corrupts one
//! transfer. The executor's chunk watchdog notices the overrun, hedges the
//! chunk onto the healthy device, and the hedge wins the race; the hub's
//! end-to-end checksum catches the corrupted transfer and retransmits it.
//! Both rescues are per chunk and per transfer: the run keeps no record of
//! the straggler for later queries. The same query under the same faults
//! *misses its deadline* when hedging is disabled.
//!
//! Run: `cargo run --release -p adamant-examples --example stragglers`

use adamant::prelude::*;

fn build_query(dev: DeviceId) -> PrimitiveGraph {
    let mut pb = PlanBuilder::new(dev);
    let mut t = pb.scan("events", &["value"]);
    t.filter(&mut pb, Predicate::cmp("value", CmpOp::Ge, 100))
        .expect("filter");
    let v = t.materialized(&mut pb, "value").expect("mat");
    let s = pb.agg_block(v, AggFunc::Sum, "sum_value");
    pb.output("sum_value", s);
    pb.build().expect("graph")
}

fn run(hedging: bool, deadline_ns: f64) -> Result<ExecutionStats, ExecError> {
    // The straggler: 8× slowdown everywhere, a hard stall on its 4th kernel
    // launch, and a silently corrupted payload on its 2nd upload.
    let straggler = FaultPlan::none()
        .slowdown(8.0)
        .stall_on_exec(4)
        .corrupt_on_place(2);
    let mut builder = Adamant::builder()
        .chunk_rows(4 << 10)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        .fault_plan(0, straggler);
    if !hedging {
        builder = builder.no_hedging();
    }
    let mut engine = builder.build().expect("engine");
    let dev = engine.device_ids()[0];
    let graph = build_query(dev);
    let n = 64 << 10;
    let mut inputs = QueryInputs::new();
    inputs.bind("value", (0..n).map(|i| i % 1_000).collect());
    engine
        .executor_mut()
        .run_with_deadline(&graph, &inputs, ExecutionModel::Chunked, Some(deadline_ns))
        .map(|(out, stats)| {
            println!(
                "  sum={} in {:.3} ms modeled",
                out.i64_column("sum_value")[0],
                stats.total_ms()
            );
            stats
        })
}

fn main() {
    // Generous for a healthy run, hopeless if any chunk stalls un-hedged.
    let deadline_ns = 1e9;

    println!("with hedging (watchdog at 3x the fault-free chunk budget):");
    match run(true, deadline_ns) {
        Ok(stats) => println!(
            "  deadline met: watchdog_fires={} hedged_launches={} hedge_wins={} \
             corruption_retransmits={}",
            stats.watchdog_fires,
            stats.hedged_launches,
            stats.hedge_wins,
            stats.corruption_retransmits
        ),
        Err(e) => panic!("hedged run failed: {e}"),
    }

    println!("\nwithout hedging (same faults, same deadline):");
    match run(false, deadline_ns) {
        Ok(stats) => panic!(
            "unhedged run met the deadline in {:.3} ms",
            stats.total_ms()
        ),
        Err(e) => println!("  {e}"),
    }

    println!(
        "\nthe watchdog duplicates an overrunning chunk onto the healthy\n\
         device and takes whichever copy finishes first, so one stalled\n\
         kernel costs a hedge instead of the whole deadline; checksums turn\n\
         silent transfer corruption into a bounded retransmit."
    );
}
