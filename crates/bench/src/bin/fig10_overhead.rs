//! Figure 10 — abstraction-layer overhead per driver per query.
//!
//! The paper measures "the difference between the overall execution time
//! and the total sum of processing time of the individual primitives of a
//! query" and finds the maximum overhead under OpenCL (explicit per-launch
//! data mapping), with CUDA and OpenMP lower.
//!
//! Run: `cargo run --release -p adamant-bench --bin fig10_overhead`

use adamant::prelude::*;
use adamant_bench::{catalog, engine_with, ms, setup1_profiles, Report};

fn main() {
    println!("# Figure 10 — abstraction overhead (chunked execution, SF 0.01)");
    let cat = catalog(0.01);

    let mut rep = Report::new(&[
        "driver",
        "query",
        "total (ms)",
        "Σ primitives (ms)",
        "overhead (ms)",
        "overhead %",
    ]);
    let mut per_driver_overhead: Vec<(String, f64)> = Vec::new();
    for profile in setup1_profiles() {
        let mut driver_total = 0.0f64;
        for q in TpchQuery::PAPER_SET {
            let (mut engine, dev) = engine_with(&profile, 1 << 14);
            let graph = q.plan(dev, &cat).unwrap();
            let inputs = q.bind(&cat).unwrap();
            let (_, stats) = engine
                .run(&graph, &inputs, ExecutionModel::Chunked)
                .unwrap();
            rep.row(vec![
                profile.name.clone(),
                q.to_string(),
                ms(stats.total_ns),
                ms(stats.primitive_total_ns()),
                ms(stats.overhead_ns()),
                format!("{:.1}", stats.overhead_fraction() * 100.0),
            ]);
            driver_total += stats.overhead_ns();
        }
        per_driver_overhead.push((profile.name.clone(), driver_total));
    }
    rep.print("overhead = total − Σ primitive kernel time (fusion off, the paper's configuration)");

    let max = per_driver_overhead
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    println!(
        "\nlargest total overhead: {} ({} ms across Q3/Q4/Q6)",
        max.0,
        ms(max.1)
    );
    println!(
        "Shape check vs paper: OpenCL drivers carry the largest abstraction\n\
         overhead (explicit kernel-argument mapping); CUDA and OpenMP are lower."
    );
}
