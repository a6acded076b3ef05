//! Golden modeled-stats snapshot.
//!
//! `stats.to_json()` minus `wall_ns` is deterministic, so the whole modeled
//! accounting of the engine can be pinned: 7 TPC-H queries × 5 execution
//! models × {fused, unfused} at SF 0.001, plus an *all-on* scenario (seeded
//! fault plan + checkpoints every 2nd chunk + a scripted death behind a
//! straggler + residency cache + hot-add) whose rows carry the retry,
//! hedge, resume and write-off counters, plus a *degraded* scenario for the
//! fallback-placement and restart-from-row-0 branches. Expected lines live in
//! `tests/golden/stats.txt`; any diff must be explained in the PR that
//! causes it. A failure prints the first differing key of the first
//! differing row.
//!
//! Regenerate with `GOLDEN_UPDATE=1 cargo test --test golden_stats`.

use adamant::prelude::*;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/stats.txt");

/// The stats JSON without its one non-deterministic member.
fn modeled_json(stats: &ExecutionStats) -> String {
    let json = stats.to_json();
    let start = json.find("\"wall_ns\":").expect("wall_ns member");
    let end = start + json[start..].find(',').expect("wall_ns is not last") + 1;
    format!("{}{}", &json[..start], &json[end..])
}

/// Top-level `"key":value` members of a JSON object (nested objects are
/// returned whole as values).
fn members(obj: &str) -> Vec<(&str, &str)> {
    let body = &obj[1..obj.len() - 1];
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    let mut out = Vec::new();
    let mut start = 0;
    let mut colon = None;
    for (i, ch) in body.char_indices() {
        if in_str {
            match ch {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '{' => depth += 1,
            '}' => depth -= 1,
            ':' if depth == 0 && colon.is_none() => colon = Some(i),
            ',' if depth == 0 => {
                let c = colon.take().expect("member has a colon");
                out.push((&body[start..c], &body[c + 1..i]));
                start = i + 1;
            }
            _ => {}
        }
    }
    if let Some(c) = colon {
        out.push((&body[start..c], &body[c + 1..]));
    }
    out
}

/// Path and values of the first member that differs between two objects.
fn first_diff(path: &str, want: &str, got: &str) -> Option<String> {
    let (w, g) = (members(want), members(got));
    for (&(wk, wv), &(gk, gv)) in w.iter().zip(&g) {
        if wk != gk {
            return Some(format!("{path}: expected key {wk}, got key {gk}"));
        }
        if wv != gv {
            let here = format!("{path}.{}", wk.trim_matches('"'));
            if wv.starts_with('{') && gv.starts_with('{') {
                return first_diff(&here, wv, gv);
            }
            return Some(format!("{here}: expected {wv}, got {gv}"));
        }
    }
    (w.len() != g.len()).then(|| format!("{path}: {} members, got {}", w.len(), g.len()))
}

/// Conservation: every drained cost event is charged to exactly one stats
/// lane, once. The device clocks keep their own running totals (reset at
/// run start), so summed over the plugged devices they must equal the
/// lanes — and kernel time is the compute lane's floor.
fn assert_lanes_conserve(engine: &Adamant, stats: &ExecutionStats, label: &str) {
    let (mut total, mut transfer, mut compute) = (0.0, 0.0, 0.0);
    for d in engine.device_ids() {
        let clock = engine.executor().devices().get(d).unwrap().clock();
        total += clock.total_ns();
        transfer += clock.transfer_ns();
        compute += clock.compute_ns();
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let lanes = stats.transfer_ns + stats.compute_ns + stats.other_ns;
    assert!(
        close(lanes, total),
        "{label}: lanes {lanes} vs events {total}"
    );
    assert!(
        close(stats.transfer_ns, transfer) && close(stats.compute_ns, compute),
        "{label}: transfer {} vs {transfer}, compute {} vs {compute}",
        stats.transfer_ns,
        stats.compute_ns
    );
    assert!(
        stats.compute_ns >= stats.primitive_total_ns() * (1.0 - 1e-9),
        "{label}: compute {} below the primitives' sum {}",
        stats.compute_ns,
        stats.primitive_total_ns()
    );
}

/// 7 queries × 5 models × {fused, unfused}, a fresh engine per row so a
/// diff stays local to the row that caused it.
fn matrix_rows(rows: &mut Vec<(String, String)>) {
    let catalog = TpchGenerator::new(0.001, 5).generate();
    for q in TpchQuery::ALL {
        for model in ExecutionModel::ALL {
            for fusion in [true, false] {
                let mut engine = Adamant::builder()
                    .chunk_rows(500)
                    .fusion(fusion)
                    .device(DeviceProfile::cuda_rtx2080ti())
                    .build()
                    .unwrap();
                let dev = engine.device_ids()[0];
                let graph = q.plan(dev, &catalog).unwrap();
                let inputs = q.bind(&catalog).unwrap();
                let (_, stats) = engine.run(&graph, &inputs, model).unwrap();
                let label = format!("{q}/{model}/{}", if fusion { "fused" } else { "unfused" });
                assert_lanes_conserve(&engine, &stats, &label);
                rows.push((label, modeled_json(&stats)));
            }
        }
    }
}

/// Everything on at once, one engine, consecutive runs: a seeded standing
/// fault plan (scripted first-launch failure, 9th-allocation OOM, 3rd-upload
/// corruption, plus low seeded rates), warm residency hits, then a 40×
/// straggler that dies on its 12th launch mid-Q1 (hedges, a death, a
/// checkpoint resume on the survivor, buffers written off), then a hot-add.
fn all_on_rows(rows: &mut Vec<(String, String)>) {
    let catalog = TpchGenerator::new(0.001, 5).generate();
    let standing = |seed: u64| {
        FaultPlan::none()
            .with_seed(seed)
            .exec_error_rate(0.002)
            .oom_rate(0.001)
            .corrupt_transfer_rate(0.002)
            .transient_exec_errors(1)
            .oom_on_allocation(9)
            .corrupt_on_place(3)
    };
    let mut engine = Adamant::builder()
        .chunk_rows(500)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_rtx2080ti())
        .checkpoints(CheckpointConfig::enabled().chunk_interval(2))
        .retry_policy(RetryPolicy { max_attempts: 6 })
        .residency_cache(ResidencyConfig::new(1 << 30))
        .fault_plan(0, standing(0xA11))
        .build()
        .unwrap();
    let mut primary = engine.device_ids()[0];
    let mut runs: Vec<ExecutionStats> = Vec::new();
    let mut step = |engine: &mut Adamant, primary: DeviceId, tag: &str, q: TpchQuery, model| {
        let graph = q.plan(primary, &catalog).unwrap();
        let inputs = q.bind(&catalog).unwrap();
        let (_, stats) = engine
            .run(&graph, &inputs, model)
            .unwrap_or_else(|e| panic!("all-on/{tag}: {e}"));
        if stats.device_deaths == 0 {
            // (A corpse takes its clock with it.)
            assert_lanes_conserve(engine, &stats, tag);
        }
        rows.push((format!("all-on/{tag}"), modeled_json(&stats)));
        runs.push(stats);
    };
    for (i, model) in ExecutionModel::ALL.into_iter().enumerate() {
        let q = [TpchQuery::Q1, TpchQuery::Q6, TpchQuery::Q3][i % 3];
        step(&mut engine, primary, &format!("standing-{i}"), q, model);
    }
    engine
        .executor_mut()
        .set_fault_plan(primary, FaultPlan::none().slowdown(40.0).die_on_exec(12))
        .unwrap();
    step(
        &mut engine,
        primary,
        "death",
        TpchQuery::Q1,
        ExecutionModel::FourPhasePipelined,
    );
    primary = engine
        .attach_profile(&DeviceProfile::cuda_rtx2080ti())
        .unwrap();
    engine
        .executor_mut()
        .set_fault_plan(primary, standing(0xA12))
        .unwrap();
    for (i, model) in [ExecutionModel::Chunked, ExecutionModel::Pipelined]
        .into_iter()
        .enumerate()
    {
        step(
            &mut engine,
            primary,
            &format!("hot-add-{i}"),
            TpchQuery::Q6,
            model,
        );
    }
    // The scenario only earns its place while every recovery path fires.
    type Counter = fn(&ExecutionStats) -> usize;
    let must_fire: [(&str, Counter); 12] = [
        ("retries", |s| s.retries),
        ("chunk_backoffs", |s| s.chunk_backoffs),
        ("corruption_retransmits", |s| s.corruption_retransmits),
        ("cache_hits", |s| s.cache_hits),
        ("checkpoints_taken", |s| s.checkpoints_taken),
        ("hedged_launches", |s| s.hedged_launches),
        ("hedge_wins", |s| s.hedge_wins),
        ("device_deaths", |s| s.device_deaths),
        ("resumes", |s| s.resumes),
        ("chunks_skipped_on_resume", |s| s.chunks_skipped_on_resume),
        ("buffers_written_off", |s| s.buffers_written_off),
        ("hot_adds", |s| s.hot_adds),
    ];
    for (name, counter) in must_fire {
        let fired: usize = runs.iter().map(counter).sum();
        assert!(fired > 0, "all-on scenario never exercised `{name}`");
    }
}

/// The recovery branches the all-on scenario does not reach: a persistently
/// broken kernel (two strikes, then a fallback placement, in every query:
/// nothing is remembered across queries), and a device
/// death with checkpoints off / with every snapshot corrupted in flight
/// (both restart from row 0, the latter counting the rejection).
fn degraded_rows(rows: &mut Vec<(String, String)>) {
    let catalog = TpchGenerator::new(0.001, 5).generate();
    let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
    let two_devices = || {
        Adamant::builder()
            .chunk_rows(500)
            .device(DeviceProfile::cuda_rtx2080ti())
            .device(DeviceProfile::opencl_cpu_i7())
    };
    let mut broken = two_devices()
        .fusion(false)
        .fault_plan(0, FaultPlan::none().broken_kernel("agg_block"))
        .build()
        .unwrap();
    let graph = TpchQuery::Q6
        .plan(broken.device_ids()[0], &catalog)
        .unwrap();
    for (i, model) in [
        ExecutionModel::Chunked,
        ExecutionModel::FourPhasePipelined,
        ExecutionModel::OperatorAtATime,
    ]
    .into_iter()
    .enumerate()
    {
        let (_, stats) = broken.run(&graph, &inputs, model).unwrap();
        assert!(
            stats.fallback_placements > 0,
            "broken-kernel-{i}: the kernel failed without a fallback"
        );
        rows.push((format!("degraded/broken-kernel-{i}"), modeled_json(&stats)));
    }

    let death = FaultPlan::none().die_on_exec(8);
    let corrupted = (1u64..=64).fold(death.clone(), |p, n| p.corrupt_checkpoint(n));
    for (tag, plan, checkpoints) in [
        ("death-no-checkpoints", death, CheckpointConfig::default()),
        (
            "death-corrupt-checkpoints",
            corrupted,
            CheckpointConfig::enabled().cost_factor(0.0),
        ),
    ] {
        let mut engine = two_devices()
            .fault_plan(0, plan)
            .checkpoints(checkpoints)
            .build()
            .unwrap();
        let graph = TpchQuery::Q6
            .plan(engine.device_ids()[0], &catalog)
            .unwrap();
        let (_, stats) = engine
            .run(&graph, &inputs, ExecutionModel::Pipelined)
            .unwrap();
        assert_eq!((stats.device_deaths, stats.resumes), (1, 0), "{tag}");
        assert_eq!(
            stats.resume_validation_failures > 0,
            checkpoints.enabled,
            "{tag}"
        );
        rows.push((format!("degraded/{tag}"), modeled_json(&stats)));
    }
}

#[test]
fn modeled_stats_match_the_golden_snapshot() {
    let mut rows = Vec::new();
    matrix_rows(&mut rows);
    all_on_rows(&mut rows);
    degraded_rows(&mut rows);
    let actual: String = rows
        .iter()
        .map(|(label, json)| format!("{label}\t{json}\n"))
        .collect();
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e} (regenerate with GOLDEN_UPDATE=1)"));
    let mut want = expected.lines();
    for (label, json) in &rows {
        let line = want
            .next()
            .unwrap_or_else(|| panic!("golden file ends before row {label}"));
        let (want_label, want_json) = line.split_once('\t').expect("label<TAB>json");
        assert_eq!(want_label, label, "golden rows out of order");
        if want_json != json {
            let diff = first_diff(label, want_json, json).expect("strings differ");
            panic!("golden stats diverged at {diff}");
        }
    }
    assert_eq!(
        want.next(),
        None,
        "golden file has rows the test no longer runs"
    );
}

#[test]
fn first_diff_names_the_innermost_key() {
    let a = r#"{"model":"a,b","x":1.0,"m":{"k \"q\"":1,"j":2},"z":3}"#;
    assert_eq!(first_diff("r", a, a), None);
    let b = a.replace("\"j\":2", "\"j\":5");
    assert_eq!(first_diff("r", a, &b).unwrap(), "r.m.j: expected 2, got 5");
    let c = a.replace("\"x\":1.0", "\"x\":1.5");
    assert_eq!(
        first_diff("r", a, &c).unwrap(),
        "r.x: expected 1.0, got 1.5"
    );
}
