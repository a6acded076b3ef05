//! Scheduler-level preemption A/B: a tight-deadline "realtime" query is
//! submitted behind a long-running "bulk" tenant. Under pure weighted fair
//! queuing its chunks interleave 1:1 with the bulk query and it finishes
//! past its deadline (reported, never silent). With preemption enabled the
//! bulk query is suspended — its remaining slices parked — until the
//! urgent slices drain, the deadline is met, and the bulk query resumes
//! and completes reference-exact. The example asserts both outcomes.
//!
//! Run: `cargo run --release -p adamant-examples --example preemption`

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

fn bulk_amounts() -> Vec<i64> {
    (0..200_000i64).map(|i| (i * 31 + 7) % 1_000).collect()
}

fn rt_amounts() -> Vec<i64> {
    (0..20_000i64).map(|i| (i * 13 + 3) % 1_000).collect()
}

/// Runs the bulk + realtime contention scenario with preemption at
/// `slack_ns` (`None`: off); returns the report and the two tickets.
fn run(slack_ns: Option<f64>, deadline_ns: f64) -> (SchedReport, QueryTicket, QueryTicket) {
    let mut builder = Adamant::builder()
        .chunk_rows(512)
        .device(DeviceProfile::cuda_rtx2080ti());
    if let Some(slack) = slack_ns {
        builder = builder.preempt_slack_ns(slack);
    }
    let mut engine = builder.build().expect("engine");
    let gpu = engine.device_ids()[0];

    let mut bulk_inputs = QueryInputs::new();
    bulk_inputs.bind("amount", bulk_amounts());
    let mut rt_inputs = QueryInputs::new();
    rt_inputs.bind("amount", rt_amounts());

    let mut session = engine.session();
    session.tenant("bulk", 1.0).tenant("realtime", 1.0);
    let bulk = session.submit(
        "bulk",
        QuerySpec::new(
            revenue_query(gpu, 100),
            bulk_inputs,
            ExecutionModel::Chunked,
        ),
    );
    let rt = session.submit(
        "realtime",
        QuerySpec::new(revenue_query(gpu, 500), rt_inputs, ExecutionModel::Chunked)
            .with_deadline_ns(deadline_ns),
    );
    (session.run_all(), bulk, rt)
}

fn main() {
    // Measure the realtime query's solo service demand to pick a deadline
    // that is generous solo but unmeetable under 1:1 interleaving.
    let mut probe = Adamant::builder()
        .chunk_rows(512)
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .expect("engine");
    let gpu = probe.device_ids()[0];
    let mut rt_inputs = QueryInputs::new();
    rt_inputs.bind("amount", rt_amounts());
    let (_, stats) = probe
        .run(
            &revenue_query(gpu, 500),
            &rt_inputs,
            ExecutionModel::Chunked,
        )
        .expect("probe run");
    let solo: f64 = stats.slice_ns.iter().sum();
    let deadline = 1.5 * solo;
    println!(
        "realtime query needs {:.3} ms of device time; deadline set to {:.3} ms\n",
        solo / 1e6,
        deadline / 1e6
    );

    let bulk_revenue: i64 = bulk_amounts().into_iter().filter(|&a| a >= 100).sum();
    for (label, slack_ns) in [
        ("preemption OFF (pure WFQ)", None),
        ("preemption ON  (slack = deadline)", Some(deadline)),
    ] {
        let (report, bulk, rt) = run(slack_ns, deadline);
        let stats = report.stats();
        let Some(QueryOutcome::Completed {
            finish_ns,
            missed_deadline,
            ..
        }) = report.outcome(rt)
        else {
            panic!(
                "{label}: realtime query did not complete: {:?}",
                report.outcome(rt)
            );
        };
        println!(
            "{label}: finished at {:.3} ms → {} | preemptions={} resumed={} \
             deadline_misses={}",
            finish_ns / 1e6,
            if *missed_deadline {
                "MISSED its deadline (reported, not silent)"
            } else {
                "met its deadline"
            },
            stats.preemptions,
            stats.resumed,
            stats.deadline_misses
        );
        println!("  stats: {}\n", stats.to_json());

        let bulk_out = report.output(bulk).expect("bulk query completes");
        assert_eq!(bulk_out.i64_column("revenue")[0], bulk_revenue);
        if slack_ns.is_none() {
            assert!(*finish_ns > deadline && *missed_deadline);
            assert_eq!(stats.deadline_misses, 1);
        } else {
            assert!(*finish_ns <= deadline && !*missed_deadline);
            assert!(stats.preemptions >= 1);
            assert_eq!(stats.preemptions, stats.resumed);
        }
    }
}
