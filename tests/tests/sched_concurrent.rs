//! Multi-query scheduler end-to-end: admission control holds an
//! over-footprint query instead of letting it OOM a running one, weighted
//! fair queuing delivers proportional device time under contention, and
//! deadline-infeasible queries are shed before wasting device time.

use adamant::prelude::*;

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

/// Two tenants share one simulated GPU whose memory fits only one query's
/// reservation at a time: the second query is *held* at admission (not
/// OOM-killed mid-flight), runs after the first frees its reservation, and
/// both produce reference-exact results. The queued tenant's wait shows up
/// in `SchedulerStats::to_json()`.
#[test]
fn admission_holds_second_query_until_reservation_frees() {
    let data = test_data(2_000);
    let mut engine = Adamant::builder()
        .chunk_rows(100)
        // Small enough that two 150 KiB reservations cannot coexist.
        .device(DeviceProfile::cuda_rtx2080ti().with_memory(256 << 10, 64 << 10))
        .build()
        .unwrap();
    let gpu = engine.device_ids()[0];
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data.clone());

    let mut session = engine.session();
    session.tenant("alpha", 1.0).tenant("beta", 1.0);
    let t1 = session.submit(
        "alpha",
        QuerySpec::new(
            filter_map_sum(gpu, -100, 2),
            inputs.clone(),
            ExecutionModel::Chunked,
        )
        .with_footprint(150 << 10),
    );
    let t2 = session.submit(
        "beta",
        QuerySpec::new(
            filter_map_sum(gpu, 0, 3),
            inputs.clone(),
            ExecutionModel::Chunked,
        )
        .with_footprint(150 << 10),
    );
    let report = session.run_all();

    let out1 = report.output(t1).expect("alpha query must complete");
    assert_eq!(out1.i64_column("sum")[0], expected_sum(&data, -100, 2));
    let out2 = report.output(t2).expect("beta query must complete");
    assert_eq!(out2.i64_column("sum")[0], expected_sum(&data, 0, 3));

    // The second query waited for the first's reservation: admission held
    // it rather than risking an OOM race.
    assert_eq!(
        report.wait_ns(t1),
        Some(0.0),
        "first admission must be free"
    );
    assert!(
        report.wait_ns(t2).unwrap() > 0.0,
        "held query must record queue wait"
    );
    let stats = report.stats();
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.completed, 2);
    assert!(stats.held >= 1, "the gate never held anyone");
    let beta = &stats.tenants["beta"];
    assert!(beta.wait_ns > 0.0);
    let json = stats.to_json();
    assert!(
        json.contains("\"beta\":{"),
        "tenant missing from JSON: {json}"
    );
    assert!(
        !json.contains(
            "\"beta\":{\"weight\":1.000,\"submitted\":1,\"completed\":1,\
                        \"failed\":0,\"shed\":0,\"rejected\":0,\"wait_ns\":0.0"
        ),
        "queued tenant's wait must be nonzero in JSON: {json}"
    );

    // No reservation outlives its query, and no bytes leak.
    let pool = engine.executor().devices().get(gpu).unwrap().pool();
    assert_eq!(pool.admission_reserved(), 0, "reservation leaked");
    assert_eq!(pool.used(), 0, "buffer bytes leaked");
}

/// A 2:1-weight tenant receives ≈2× the device time of a 1:1 tenant while
/// both are runnable, within 10% on the simulated timeline.
#[test]
fn weighted_tenants_share_device_time_proportionally() {
    let data = test_data(3_000);
    let mut engine = Adamant::builder()
        .chunk_rows(100)
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .unwrap();
    let gpu = engine.device_ids()[0];
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data.clone());

    let mut session = engine.session();
    session.tenant("heavy", 2.0).tenant("light", 1.0);
    let per_tenant = 5;
    let mut tickets = Vec::new();
    for _ in 0..per_tenant {
        // Identical work for both tenants, so time ratios are meaningful.
        for tenant in ["heavy", "light"] {
            tickets.push((
                tenant,
                session.submit(
                    tenant,
                    QuerySpec::new(
                        filter_map_sum(gpu, -100, 2),
                        inputs.clone(),
                        ExecutionModel::Chunked,
                    ),
                ),
            ));
        }
    }
    let report = session.run_all();
    for (tenant, t) in &tickets {
        let out = report.output(*t).unwrap_or_else(|| {
            panic!(
                "{tenant} query {t:?} did not complete: {:?}",
                report.outcome(*t)
            )
        });
        assert_eq!(out.i64_column("sum")[0], expected_sum(&data, -100, 2));
    }

    let stats = report.stats();
    let heavy = &stats.tenants["heavy"];
    let light = &stats.tenants["light"];
    assert!(
        heavy.contended_run_ns > 0.0 && light.contended_run_ns > 0.0,
        "tenants never actually contended"
    );
    let ratio = heavy.contended_run_ns / light.contended_run_ns;
    assert!(
        (1.8..=2.2).contains(&ratio),
        "2:1 weights should yield ≈2x contended device time, got {ratio:.3} \
         (heavy {:.0} ns vs light {:.0} ns)",
        heavy.contended_run_ns,
        light.contended_run_ns
    );
    // Equal work submitted: total run time per tenant matches regardless of
    // weights; only its *placement in time* differs.
    let total_ratio = heavy.run_ns / light.run_ns;
    assert!(
        (0.99..=1.01).contains(&total_ratio),
        "equal workloads must cost equal total device time, got {total_ratio:.3}"
    );
}

/// Weighted fair sharing survives a straggling device: with the primary
/// device running 2× slow, every chunk overruns a tightened watchdog budget
/// and hedges onto the second device — and because hedge duplicates are
/// charged to the *owning* query's stream, the 2:1 contended-time ratio
/// still holds and the straggler counters surface in the scheduler stats.
#[test]
fn fair_share_holds_under_straggling_device() {
    let data = test_data(3_000);
    let mut engine = Adamant::builder()
        .chunk_rows(100)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7())
        // A chronic 2× straggler: slow enough to overrun the 1.5× watchdog
        // budget on every chunk, mild enough to stay below the device
        // breaker's slow-trip ratio — so the device keeps straggling all run.
        .fault_plan(0, FaultPlan::none().slowdown(2.0))
        .watchdog_multiplier(1.5)
        .build()
        .unwrap();
    let gpu = engine.device_ids()[0];
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data.clone());

    let mut session = engine.session();
    session.tenant("heavy", 2.0).tenant("light", 1.0);
    let per_tenant = 5;
    let mut tickets = Vec::new();
    for _ in 0..per_tenant {
        for tenant in ["heavy", "light"] {
            tickets.push((
                tenant,
                session.submit(
                    tenant,
                    QuerySpec::new(
                        filter_map_sum(gpu, -100, 2),
                        inputs.clone(),
                        ExecutionModel::Chunked,
                    ),
                ),
            ));
        }
    }
    let report = session.run_all();
    for (tenant, t) in &tickets {
        let out = report.output(*t).unwrap_or_else(|| {
            panic!(
                "{tenant} query {t:?} did not complete: {:?}",
                report.outcome(*t)
            )
        });
        assert_eq!(out.i64_column("sum")[0], expected_sum(&data, -100, 2));
    }

    let stats = report.stats();
    assert!(
        stats.watchdog_fires >= 1,
        "straggling chunks never tripped the watchdog"
    );
    assert!(
        stats.hedged_launches >= 1,
        "overrunning chunks never hedged onto the healthy device"
    );
    let json = stats.to_json();
    assert!(
        json.contains("\"watchdog_fires\":") && json.contains("\"hedged_launches\":"),
        "straggler counters missing from scheduler JSON: {json}"
    );

    let heavy = &stats.tenants["heavy"];
    let light = &stats.tenants["light"];
    assert!(
        heavy.contended_run_ns > 0.0 && light.contended_run_ns > 0.0,
        "tenants never actually contended"
    );
    let ratio = heavy.contended_run_ns / light.contended_run_ns;
    assert!(
        (1.8..=2.2).contains(&ratio),
        "2:1 weights should survive a straggling device, got {ratio:.3} \
         (heavy {:.0} ns vs light {:.0} ns)",
        heavy.contended_run_ns,
        light.contended_run_ns
    );
    // Hedge duplicates are billed to their owners, not dropped on the
    // floor: every query completed, so both tenants paid real device time.
    // (Admission may place some queries on the healthy device outright, so
    // equal workloads need not cost equal totals here — the fair-share
    // guarantee is the contended ratio above.)
    assert_eq!(heavy.completed, per_tenant as u64);
    assert_eq!(light.completed, per_tenant as u64);
    assert!(heavy.run_ns > 0.0 && light.run_ns > 0.0);
}

/// A query whose deadline cannot cover even the cheapest modeled placement
/// is shed at admission; a generous deadline sails through.
#[test]
fn infeasible_deadlines_shed_at_admission() {
    let data = test_data(500);
    let mut engine = Adamant::builder()
        .chunk_rows(100)
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .unwrap();
    let gpu = engine.device_ids()[0];
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data.clone());

    let mut session = engine.session();
    let doomed = session.submit(
        "t",
        QuerySpec::new(
            filter_map_sum(gpu, 0, 2),
            inputs.clone(),
            ExecutionModel::Chunked,
        )
        // Far below any modeled transfer cost: unmeetable from the start.
        .with_deadline_ns(0.5),
    );
    let fine = session.submit(
        "t",
        QuerySpec::new(
            filter_map_sum(gpu, 0, 2),
            inputs.clone(),
            ExecutionModel::Chunked,
        )
        .with_deadline_ns(1e12),
    );
    let report = session.run_all();

    assert!(
        matches!(report.outcome(doomed), Some(QueryOutcome::Shed { .. })),
        "unmeetable deadline must shed, got {:?}",
        report.outcome(doomed)
    );
    let out = report.output(fine).expect("feasible query must complete");
    assert_eq!(out.i64_column("sum")[0], expected_sum(&data, 0, 2));
    assert_eq!(report.stats().shed_deadline, 1);
    assert_eq!(report.stats().tenants["t"].shed, 1);
}

/// A query whose footprint exceeds every device's capacity is rejected
/// outright — waiting can never admit it — while a fitting query on the
/// same session proceeds.
#[test]
fn oversized_footprint_is_rejected_not_queued_forever() {
    let data = test_data(300);
    let mut engine = Adamant::builder()
        .chunk_rows(100)
        .device(DeviceProfile::cuda_rtx2080ti().with_memory(128 << 10, 32 << 10))
        .build()
        .unwrap();
    let gpu = engine.device_ids()[0];
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data.clone());

    let mut session = engine.session();
    let whale = session.submit(
        "t",
        QuerySpec::new(
            filter_map_sum(gpu, 0, 2),
            inputs.clone(),
            ExecutionModel::Chunked,
        )
        .with_footprint(1 << 30),
    );
    let minnow = session.submit(
        "t",
        QuerySpec::new(
            filter_map_sum(gpu, 0, 2),
            inputs.clone(),
            ExecutionModel::Chunked,
        ),
    );
    let report = session.run_all();
    assert!(
        matches!(report.outcome(whale), Some(QueryOutcome::Rejected { .. })),
        "over-capacity footprint must reject, got {:?}",
        report.outcome(whale)
    );
    let out = report.output(minnow).expect("small query must complete");
    assert_eq!(out.i64_column("sum")[0], expected_sum(&data, 0, 2));
    assert_eq!(report.stats().rejected_capacity, 1);
}

/// The scheduler ranks devices by the cost model alone: a tie between two
/// identical devices goes to the lowest id.
#[test]
fn scheduler_ties_go_to_the_lowest_id() {
    let data = test_data(1_000);
    let placed_on = || -> usize {
        let mut engine = Adamant::builder()
            .device(DeviceProfile::cuda_rtx2080ti())
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        let ids = engine.device_ids();
        let mut inputs = QueryInputs::new();
        inputs.bind("x", data.clone());
        let mut session = engine.session();
        let ticket = session.submit(
            "t",
            QuerySpec::new(
                filter_map_sum(ids[0], -100, 2),
                inputs,
                ExecutionModel::Chunked,
            ),
        );
        let report = session.run_all();
        let out = report.output(ticket).expect("query must complete");
        assert_eq!(out.i64_column("sum")[0], expected_sum(&data, -100, 2));
        drop(session);
        let uploaded: Vec<u64> = ids
            .iter()
            .map(|&d| {
                engine
                    .executor()
                    .devices()
                    .get(d)
                    .unwrap()
                    .clock()
                    .bytes_h2d()
            })
            .collect();
        assert_eq!(
            uploaded.iter().filter(|&&b| b > 0).count(),
            1,
            "one device ran the query: {uploaded:?}"
        );
        uploaded.iter().position(|&b| b > 0).unwrap()
    };
    assert_eq!(placed_on(), 0, "a tie goes to the lowest id");
}

/// Tenant, device and node names are caller-supplied, so both JSON exports
/// must escape every control character, and an infinite tenant weight must
/// not reach the export as `inf`.
#[test]
fn stats_json_stays_valid_for_any_caller_supplied_name() {
    let mut engine = Adamant::builder()
        .chunk_rows(100)
        .device(DeviceProfile {
            name: "gpu\u{7}\r".into(),
            ..DeviceProfile::cuda_rtx2080ti()
        })
        .build()
        .unwrap();
    let gpu = engine.device_ids()[0];
    let mut pb = PlanBuilder::new(gpu);
    let mut s = pb.scan("t", &["x"]);
    let x = s.materialized(&mut pb, "x").unwrap();
    let sum = pb.agg_block(x, AggFunc::Sum, "sum\u{2}\n");
    pb.output("sum", sum);
    let graph = pb.build().unwrap();
    let mut inputs = QueryInputs::new();
    inputs.bind("x", test_data(500));

    let tenant = "a\"b\\c\nd\te\u{1}";
    let mut session = engine.session();
    session.tenant(tenant, f64::INFINITY);
    let ticket = session.submit(
        tenant,
        QuerySpec::new(graph, inputs, ExecutionModel::Chunked),
    );
    let report = session.run_all();
    let Some(QueryOutcome::Completed { stats, .. }) = report.outcome(ticket) else {
        panic!("query must complete: {:?}", report.outcome(ticket));
    };
    let sched_json = report.stats().to_json();
    let exec_json = stats.to_json();
    assert!(sched_json.contains(r#""a\"b\\c\nd\te\u0001":{"weight":"#));
    assert!(exec_json.contains(r#"gpu\u0007\r"#), "{exec_json}");
    assert!(exec_json.contains(r#"sum\u0002\n"#), "{exec_json}");
    for json in [&sched_json, &exec_json] {
        assert!(
            !json.chars().any(|c| c < '\u{20}'),
            "raw control character in {json}"
        );
        assert!(!json.contains("inf"), "non-finite number in {json}");
    }
}
