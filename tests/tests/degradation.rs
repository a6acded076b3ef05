//! Graceful degradation end-to-end: chunk backoff and query deadlines.

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

/// A wedged device (every kernel execution fails) under a simulated-timeline
/// deadline: the run unwinds cleanly with `DeadlineExceeded` instead of
/// burning the full retry budget, releases every buffer, and the aborted
/// run's stats stay observable and byte-stable.
#[test]
fn deadline_bounds_wedged_device() {
    let run_once = || -> (String, u64) {
        let mut engine = Adamant::builder()
            .chunk_rows(32)
            .device(DeviceProfile::cuda_rtx2080ti())
            .fault_plan(0, FaultPlan::none().transient_exec_errors(u64::MAX))
            .retry_policy(RetryPolicy {
                max_attempts: 10_000,
            })
            .build()
            .unwrap();
        let dev = engine.device_ids()[0];
        let graph = filter_map_sum(dev, 0, 2);
        let mut inputs = QueryInputs::new();
        inputs.bind("x", test_data(200));
        let err = engine
            .executor_mut()
            .run_with_deadline(
                &graph,
                &inputs,
                ExecutionModel::Chunked,
                // Small enough that the second attempt's pre-check trips it,
                // large enough that the first attempt is admitted.
                Some(1_000.0),
            )
            .unwrap_err();
        match err {
            ExecError::DeadlineExceeded {
                budget_ns,
                spent_ns,
            } => {
                assert_eq!(budget_ns, 1_000.0);
                assert!(spent_ns > budget_ns);
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        let used = engine.executor().devices().get(dev).unwrap().pool().used();
        assert_eq!(used, 0, "leaked {used} bytes after deadline abort");
        let stats = engine
            .executor()
            .last_run_stats()
            .expect("aborted run must leave stats behind")
            .clone();
        assert_eq!(stats.deadline_aborts, 1);
        assert!(
            stats.to_json().contains("\"deadline_aborts\":1"),
            "abort not exported"
        );
        let mut stats = stats;
        stats.wall_ns = 0;
        let attempts = engine
            .executor()
            .devices()
            .get(dev)
            .unwrap()
            .state()
            .faults
            .counters()
            .transient_exec_injected;
        (stats.to_json(), attempts)
    };
    let (first, attempts) = run_once();
    let (second, _) = run_once();
    assert_eq!(first, second, "aborted-run stats drifted between runs");
    assert!(
        attempts < 100,
        "deadline should cut the retry spiral short, saw {attempts} attempts"
    );
}

/// A stalled whole-mode launch: `stall_on_exec` charges
/// `adamant::device::fault::STALL_NS` (10^15 modeled ns) to an
/// operator-at-a-time node, which no watchdog budgets (the watchdog times
/// streamed chunks only). The one deadline is what bounds it:
///
/// * unbounded, the run succeeds and reports the stall in its total;
/// * `run_with_deadline(.., Some(budget))` unwinds with `DeadlineExceeded`
///   at the next between-node check, every buffer released;
/// * a scheduled query with `with_deadline_ns` ends as a typed `Failed`
///   outcome carrying `DeadlineExceeded`, counted in the scheduler's
///   `failed`;
/// * when the stalled node is the query's last (here: fusion merges all
///   four nodes into one), no check follows it; the scheduled query then
///   completes as a counted deadline miss — never a silent success.
#[test]
fn whole_mode_stall_is_bounded_by_the_deadline() {
    const STALL_NS: f64 = adamant::device::fault::STALL_NS;
    let budget_ns = 1e9;
    let data = test_data(200);
    let engine = |fusion: bool| {
        Adamant::builder()
            .chunk_rows(64)
            .device(DeviceProfile::cuda_rtx2080ti())
            // The first kernel launch stalls: unfused that is the filter,
            // and three nodes follow it.
            .fault_plan(0, FaultPlan::none().stall_on_exec(1))
            .fusion(fusion)
            .build()
            .unwrap()
    };
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data.clone());
    let model = ExecutionModel::OperatorAtATime;
    let leaked = |e: &Adamant| -> u64 {
        e.device_ids()
            .iter()
            .map(|&d| e.executor().devices().get(d).unwrap().pool().used())
            .sum()
    };

    let mut unbounded = engine(false);
    let dev = unbounded.device_ids()[0];
    let graph = filter_map_sum(dev, 0, 2);
    let (out, stats) = unbounded.run(&graph, &inputs, model).unwrap();
    assert_eq!(out.i64_column("sum")[0], expected_sum(&data, 0, 2));
    assert!(stats.total_ns >= STALL_NS, "total {}", stats.total_ns);
    assert_eq!(
        stats.watchdog_fires, 0,
        "whole-mode launches have no watchdog"
    );

    let mut bounded = engine(false);
    let err = bounded
        .executor_mut()
        .run_with_deadline(&graph, &inputs, model, Some(budget_ns))
        .unwrap_err();
    match err {
        ExecError::DeadlineExceeded {
            budget_ns: b,
            spent_ns,
        } => {
            assert_eq!(b, budget_ns);
            assert!(spent_ns >= STALL_NS, "spent {spent_ns}");
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    assert_eq!(leaked(&bounded), 0, "leaked bytes after the deadline abort");
    assert_eq!(
        bounded.executor().last_run_stats().unwrap().deadline_aborts,
        1
    );

    for fusion in [false, true] {
        let mut scheduled = engine(fusion);
        let mut session = scheduled.session();
        let ticket = session.submit(
            "t",
            QuerySpec::new(graph.clone(), inputs.clone(), model).with_deadline_ns(budget_ns),
        );
        let report = session.run_all();
        match (fusion, report.outcome(ticket)) {
            (
                false,
                Some(QueryOutcome::Failed {
                    error: ExecError::DeadlineExceeded { spent_ns, .. },
                }),
            ) => assert!(*spent_ns >= STALL_NS, "spent {spent_ns}"),
            (
                true,
                Some(QueryOutcome::Completed {
                    missed_deadline: true,
                    finish_ns,
                    ..
                }),
            ) => assert!(*finish_ns >= STALL_NS, "finish {finish_ns}"),
            (_, other) => panic!("fusion {fusion}: unexpected outcome {other:?}"),
        }
        let stats = report.stats();
        assert_eq!(
            (stats.failed, stats.deadline_misses),
            (1 - fusion as u64, fusion as u64)
        );
        drop(report);
        drop(session);
        assert_eq!(leaked(&scheduled), 0, "fusion {fusion}: leaked bytes");
    }
}

/// An OOM chunk backoff halves the chunk size for the rest of the
/// pipeline attempt, in both the serial and the overlapped streaming loops:
/// the retried attempt streams every row at the halved size.
#[test]
fn backed_off_attempt_keeps_its_chunk_size() {
    let data = test_data(400);
    let expected = expected_sum(&data, 0, 3);
    for model in [ExecutionModel::Chunked, ExecutionModel::Pipelined] {
        let mut engine = Adamant::builder()
            .chunk_rows(64)
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
        assert_eq!(out.i64_column("sum")[0], expected, "{model:?}");
        assert!(stats.chunk_backoffs > 0, "{model:?}: no backoff recorded");
        assert_eq!(
            stats.chunks_processed,
            data.len().div_ceil(32),
            "{model:?}: the backed-off attempt changed its chunk size"
        );
        let used = engine.executor().devices().get(dev).unwrap().pool().used();
        assert_eq!(used, 0, "{model:?}: leaked {used} bytes");
    }
}
