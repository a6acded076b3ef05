//! Figure 11 — execution-model comparison on the GPU drivers (chunked vs
//! pipelined vs 4-phase, OpenCL vs CUDA, Q3/Q4/Q6), plus the HeavyDB-style
//! baseline with cold start ("w transfer") and in-place ("w/o transfer"),
//! including the Q3 out-of-memory failure, plus the steady-state cold/warm
//! comparison with the cross-query residency cache enabled (Part C).
//! Parts A and B are the paper's sections and run in its configuration
//! (fusion off, through `engine_with`); Part C is an extension and runs
//! with fusion on.
//!
//! Gates, checked after `BENCH_fig11.json` is written; each panics naming
//! the rows that missed:
//!
//! * cold/warm: at least 4 of the 7 Part C rows run warm < cold with cache
//!   hits > 0;
//! * §V: Q6 is CUDA's best case in Part A; every Part A row's best speedup
//!   over chunked lies in `shape_checks`' band 1.2..4.5; Q3 runs out of
//!   memory on the Part B baseline while ADAMANT runs it under both models;
//!   and CUDA is faster than OpenCL in every (query, model) cell of Part A.
//!
//! Scaling note (EXPERIMENTS.md): the paper runs SF 100–140 against an
//! 11 GiB GPU with 2^25-int chunks. We scale data and chunk size by the
//! same factor (SF 0.05, 2^14-row chunks) so the chunks-per-input ratio —
//! what the execution models react to — is preserved; for the baseline OOM
//! the device memory is scaled with the data as well.
//!
//! Run: `cargo run --release -p adamant-bench --bin fig11_exec_models`

use adamant::prelude::*;
use adamant_bench::{
    catalog, engine_with, jnum, jobj, jstr, ms, standard_tasks, write_bench_json, Report,
};

const SF: f64 = 0.05;
const CHUNK_ROWS: usize = 1 << 14;
/// `shape_checks`' band for a GPU row's best speedup over chunked.
const SPEEDUP_BAND: std::ops::Range<f64> = 1.2..4.5;

/// A Part A row's best speedup over chunked (`times[0]`).
fn speedup(times: &[f64]) -> f64 {
    times[0] / times[1..].iter().fold(f64::INFINITY, |a, &b| a.min(b))
}

fn main() {
    println!("# Figure 11 — execution models and HeavyDB-style baseline (SF {SF})");
    let cat = catalog(SF);

    // ---- Part A: execution models × SDK × query ------------------------
    let models = [
        ExecutionModel::Chunked,
        ExecutionModel::Pipelined,
        ExecutionModel::FourPhaseChunked,
        ExecutionModel::FourPhasePipelined,
    ];
    let gpus = [
        DeviceProfile::opencl_rtx2080ti(),
        DeviceProfile::cuda_rtx2080ti(),
    ];
    let mut rep = Report::new(&[
        "query",
        "driver",
        "chunked (ms)",
        "pipelined (ms)",
        "4p-chunked (ms)",
        "4p-pipelined (ms)",
        "best vs chunked",
    ]);
    // Part A's rows: query, driver, modeled time per model.
    let mut part_a: Vec<(TpchQuery, &DeviceProfile, Vec<f64>)> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    for q in TpchQuery::PAPER_SET {
        for profile in &gpus {
            let mut row = vec![q.to_string(), profile.name.clone()];
            let mut times = Vec::new();
            for model in models {
                let (mut engine, dev) = engine_with(profile, CHUNK_ROWS);
                let graph = q.plan(dev, &cat).unwrap();
                let inputs = q.bind(&cat).unwrap();
                let (_, stats) = engine.run(&graph, &inputs, model).unwrap();
                times.push(stats.total_ns);
                row.push(ms(stats.total_ns));
                json_rows.push(jobj(&[
                    ("section", jstr("models")),
                    ("query", jstr(&q.to_string())),
                    ("profile", jstr(&profile.name)),
                    ("model", jstr(&model.to_string())),
                    ("modeled_ns", jnum(stats.total_ns)),
                ]));
            }
            row.push(format!("{:.2}x", speedup(&times)));
            part_a.push((q, profile, times));
            rep.row(row);
        }
    }
    rep.print("A. modeled query time per execution model (fusion off, the paper's configuration)");

    let by_speedup =
        |a: &&(_, _, Vec<f64>), b: &&(_, _, Vec<f64>)| speedup(&a.2).total_cmp(&speedup(&b.2));
    let best = part_a.iter().max_by(by_speedup).unwrap();
    let worst = part_a.iter().min_by(by_speedup).unwrap();
    println!(
        "\nbest-case 4-phase speedup over chunked: {:.2}x ({} on {});",
        speedup(&best.2),
        best.0,
        best.1.name
    );
    println!(
        "worst case: {:.2}x ({} on {}) — shallow pipelines give transfer\n\
         hiding nothing to hide behind (the paper's Q4 observation).",
        speedup(&worst.2),
        worst.0,
        worst.1.name
    );

    // ---- Part B: HeavyDB-style baseline --------------------------------
    // The paper runs the baseline at scale factors where Q4/Q6 fit in the
    // 11 GiB card but Q3's hash table no longer does. We scale the device
    // memory with the data to the same regime: measure each query's
    // whole-table-resident requirement and size the device between
    // max(Q4, Q6) and Q3.
    let measure = |q: TpchQuery| -> u64 {
        let profile = DeviceProfile::cuda_rtx2080ti();
        let baseline = BaselineExecutor::new(profile);
        let resident = baseline.resident_bytes(&cat, q).unwrap();
        let run = baseline.run(&cat, q).expect("fits in 11 GiB");
        resident
            + run
                .stats
                .peak_device_bytes
                .values()
                .max()
                .copied()
                .unwrap_or(0)
    };
    let req_q3 = measure(TpchQuery::Q3);
    let req_q4 = measure(TpchQuery::Q4);
    let req_q6 = measure(TpchQuery::Q6);
    let dev_mem = (req_q4.max(req_q6) + req_q3) / 2;
    let pinned = dev_mem / 4;
    println!(
        "\nB. baseline requirements: Q3 {:.1} MiB, Q4 {:.1} MiB, Q6 {:.1} MiB;\n\
         device memory scaled to {:.1} MiB (between max(Q4,Q6) and Q3 — the\n\
         paper's SF 100–140 vs 11 GiB regime)",
        req_q3 as f64 / (1 << 20) as f64,
        req_q4 as f64 / (1 << 20) as f64,
        req_q6 as f64 / (1 << 20) as f64,
        dev_mem as f64 / (1 << 20) as f64
    );

    let mut rep = Report::new(&[
        "query",
        "adamant chunked (ms)",
        "adamant 4p-pipelined (ms)",
        "baseline in-place (ms)",
        "baseline cold (ms)",
    ]);
    let mut q3_ok = false;
    for q in TpchQuery::PAPER_SET {
        let profile = DeviceProfile::cuda_rtx2080ti().with_memory(dev_mem, pinned);
        let run_adamant = |model: ExecutionModel| -> Option<f64> {
            let (mut engine, dev) = engine_with(&profile, CHUNK_ROWS);
            let graph = q.plan(dev, &cat).ok()?;
            let inputs = q.bind(&cat).ok()?;
            engine
                .run(&graph, &inputs, model)
                .ok()
                .map(|(_, s)| s.total_ns)
        };
        let chunked = run_adamant(ExecutionModel::Chunked);
        let four_phase = run_adamant(ExecutionModel::FourPhasePipelined);
        let baseline = BaselineExecutor::new(profile.clone());
        let base = baseline.run(&cat, q);
        if q == TpchQuery::Q3 {
            q3_ok = base.is_err() && chunked.is_some() && four_phase.is_some();
        }
        let fmt = |v: Option<f64>| v.map(ms).unwrap_or_else(|| "OOM".into());
        rep.row(vec![
            q.to_string(),
            fmt(chunked),
            fmt(four_phase),
            fmt(base.as_ref().ok().map(|r| r.hot_ns)),
            fmt(base.as_ref().ok().map(|r| r.cold_ns)),
        ]);
    }
    rep.print(
        "B. ADAMANT vs whole-table-resident baseline (fusion off, the paper's configuration)",
    );
    println!(
        "\nShape check vs paper: Q3 fails on the baseline (hash table exceeds\n\
         device memory) while ADAMANT streams it; baseline cold start is far\n\
         slower than ADAMANT (whole tables vs needed columns); in-place\n\
         baseline is comparable to chunked; 4-phase wins up to ~3x on deep\n\
         pipelines."
    );

    // ---- Part C: steady state with the cross-query residency cache -----
    // Each query runs twice on the same engine with a residency cache: the
    // cold run pins the input columns device-side, the warm run stages its
    // chunks from the pinned copies (device-internal copy instead of a PCIe
    // transfer). Rows land in BENCH_fig11.json; the gate below asserts
    // warm < cold with hits for most queries.
    let mut rep = Report::new(&[
        "query",
        "cold (ms)",
        "warm (ms)",
        "warm/cold",
        "hits",
        "misses",
        "evictions",
        "saved (ms)",
    ]);
    let mut warm_misses: Vec<String> = Vec::new();
    for q in TpchQuery::ALL {
        let profile = DeviceProfile::cuda_rtx2080ti();
        let mut engine = Adamant::builder()
            .tasks(standard_tasks())
            .chunk_rows(CHUNK_ROWS)
            .device(profile.clone())
            .residency_cache(ResidencyConfig::new(1 << 30))
            .build()
            .expect("engine construction");
        let dev = engine.device_ids()[0];
        let graph = q.plan(dev, &cat).unwrap();
        let inputs = q.bind(&cat).unwrap();
        let (_, cold) = engine
            .run(&graph, &inputs, ExecutionModel::Chunked)
            .unwrap();
        let (_, warm) = engine
            .run(&graph, &inputs, ExecutionModel::Chunked)
            .unwrap();
        if !(warm.total_ns < cold.total_ns && warm.cache_hits > 0) {
            warm_misses.push(q.to_string());
        }
        rep.row(vec![
            q.to_string(),
            ms(cold.total_ns),
            ms(warm.total_ns),
            format!("{:.2}", warm.total_ns / cold.total_ns),
            warm.cache_hits.to_string(),
            warm.cache_misses.to_string(),
            warm.cache_evictions.to_string(),
            ms(warm.cache_saved_transfer_ns),
        ]);
        json_rows.push(jobj(&[
            ("section", jstr("cold_warm")),
            ("query", jstr(&q.to_string())),
            ("profile", jstr(&profile.name)),
            ("model", jstr(&ExecutionModel::Chunked.to_string())),
            ("cold_ns", jnum(cold.total_ns)),
            ("warm_ns", jnum(warm.total_ns)),
            ("cache_hits", warm.cache_hits.to_string()),
            ("cache_misses", warm.cache_misses.to_string()),
            ("cache_evictions", warm.cache_evictions.to_string()),
            ("saved_transfer_ns", jnum(warm.cache_saved_transfer_ns)),
        ]));
    }
    rep.print("C. cold vs warm with the cross-query residency cache (fusion on, extension)");
    let warm_wins = TpchQuery::ALL.len() - warm_misses.len();
    println!(
        "\nwarm run beats cold with cache hits on {warm_wins}/{} queries — pinned\n\
         inputs turn PCIe uploads into device-internal copies at memory bandwidth.",
        TpchQuery::ALL.len()
    );

    let path = write_bench_json("fig11", &json_rows).expect("write BENCH_fig11.json");
    println!("\nwrote {}", path.display());
    assert!(
        warm_wins >= 4,
        "fig11 cold_warm gate: warm < cold with cache hits on only {warm_wins}/{} \
         queries (need >= 4); missed: {}",
        TpchQuery::ALL.len(),
        warm_misses.join(", ")
    );

    // §V gate: Q6 is CUDA's best case, every row is in the band, Q3 is OOM
    // on the baseline alone, and CUDA beats OpenCL in every cell.
    let mut bad: Vec<String> = Vec::new();
    let on = |sdk| part_a.iter().filter(move |r| r.1.sdk == sdk);
    let cuda_best = on(SdkKind::Cuda).max_by(by_speedup).map(|r| r.0);
    if cuda_best != Some(TpchQuery::Q6) {
        bad.push(format!("CUDA's best case is {cuda_best:?}, not Q6"));
    }
    for (q, profile, times) in &part_a {
        let x = speedup(times);
        if !SPEEDUP_BAND.contains(&x) {
            bad.push(format!(
                "{q} on {}: {x:.2}x outside {SPEEDUP_BAND:?}",
                profile.name
            ));
        }
    }
    if !q3_ok {
        bad.push("Q3 must be OOM on the baseline and run on ADAMANT".to_string());
    }
    // Both drivers' rows are in query order.
    for ((q, _, cuda), (_, _, ocl)) in on(SdkKind::Cuda).zip(on(SdkKind::OpenCl)) {
        for ((model, c), o) in models.iter().zip(cuda).zip(ocl) {
            if c >= o {
                let (c, o) = (ms(*c), ms(*o));
                bad.push(format!("{q}/{model}: CUDA {c} !< OpenCL {o} ms"));
            }
        }
    }
    assert!(bad.is_empty(), "fig11 §V gate missed: {}", bad.join("; "));
}
