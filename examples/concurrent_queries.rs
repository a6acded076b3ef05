//! Two tenants share one simulated GPU through the multi-query scheduler:
//! admission control keeps their reservations from colliding, and weighted
//! fair queuing splits the device time 2:1 on the simulated timeline while
//! every query still returns exact results. It asserts both: every query
//! completes with the host-computed revenue, and the contended device time
//! splits within 0.05 of 2:1.
//!
//! Run: `cargo run --release -p adamant-examples --example concurrent_queries`

use adamant::prelude::*;

fn revenue_query(dev: DeviceId, threshold: i64) -> PrimitiveGraph {
    let mut pb = PlanBuilder::new(dev);
    let mut t = pb.scan("sales", &["amount"]);
    t.filter(&mut pb, Predicate::cmp("amount", CmpOp::Ge, threshold))
        .expect("filter");
    let v = t.materialized(&mut pb, "amount").expect("mat");
    let s = pb.agg_block(v, AggFunc::Sum, "revenue");
    pb.output("revenue", s);
    pb.build().expect("graph")
}

fn main() {
    // One GPU with 1 MiB of memory serves both tenants.
    let mut engine = Adamant::builder()
        .chunk_rows(512)
        .device(DeviceProfile::cuda_rtx2080ti().with_memory(1 << 20, 256 << 10))
        .build()
        .expect("engine");
    let gpu = engine.device_ids()[0];

    let n = 20_000i64;
    let amounts: Vec<i64> = (0..n).map(|i| (i * 31 + 7) % 1_000).collect();
    let mut inputs = QueryInputs::new();
    inputs.bind("amount", amounts.clone());

    // "analytics" pays for 2x the fair share of "reporting".
    let mut session = engine.session();
    session.tenant("analytics", 2.0).tenant("reporting", 1.0);

    let mut tickets = Vec::new();
    for round in 0..4 {
        for tenant in ["analytics", "reporting"] {
            let spec = QuerySpec::new(
                revenue_query(gpu, 100 + round * 50),
                inputs.clone(),
                ExecutionModel::Chunked,
            )
            // 384 KiB reservations: at most two queries fit at once, so
            // admissions genuinely queue.
            .with_footprint(384 << 10);
            tickets.push((tenant, round, session.submit(tenant, spec)));
        }
    }
    let report = session.run_all();

    println!("query outcomes (all results exact):");
    for (tenant, round, ticket) in &tickets {
        let Some(QueryOutcome::Completed {
            output,
            wait_ns,
            finish_ns,
            ..
        }) = report.outcome(*ticket)
        else {
            panic!(
                "{tenant} round {round} did not complete: {:?}",
                report.outcome(*ticket)
            );
        };
        let revenue = output.i64_column("revenue")[0];
        let threshold = 100 + round * 50;
        let expected: i64 = amounts.iter().filter(|&&a| a >= threshold).sum();
        assert_eq!(revenue, expected, "{tenant} round {round}: inexact revenue");
        println!(
            "  {tenant:<10} round {round}: revenue={revenue:<8} waited {wait_ns:>10.0} ns, \
             finished at {finish_ns:>12.0} ns"
        );
    }

    let stats = report.stats();
    println!("\nper-tenant device time under contention:");
    for (name, t) in &stats.tenants {
        println!(
            "  {name:<10} weight {:.1}: ran {:>12.0} ns total, {:>12.0} ns contended, \
             waited {:>12.0} ns",
            t.weight, t.run_ns, t.contended_run_ns, t.wait_ns
        );
    }
    let heavy = &stats.tenants["analytics"];
    let light = &stats.tenants["reporting"];
    let ratio = heavy.contended_run_ns / light.contended_run_ns;
    println!("\ncontended-time ratio analytics:reporting = {ratio:.2} (weights say 2.0)");
    assert!(
        (ratio - 2.0).abs() < 0.05,
        "contended device time must split 2:1, got {ratio:.3}"
    );
    println!(
        "makespan {:.3} ms across {} slices; {} admissions held at the gate",
        stats.makespan_ns / 1e6,
        stats.slices,
        stats.held
    );
    println!("\nscheduler stats JSON:\n{}", stats.to_json());
}
