//! Figure 5 — `MAP` and `AGG_BLOCK` (reduce) throughput across the four
//! drivers, versus input size.
//!
//! Paper shape: both primitives are bandwidth-bound; OpenCL and the
//! device-aware implementations (CUDA, OpenMP) land close together, with
//! the GPUs far above the CPUs thanks to internal memory bandwidth.
//!
//! Run: `cargo run --release -p adamant-bench --bin fig05_map_reduce`

use adamant::prelude::*;
use adamant_bench::{engine_with, gips, random_ints, setup1_profiles, Report};

fn run_primitive(profile: &DeviceProfile, data: &[i64], reduce: bool) -> f64 {
    let (mut engine, dev) = engine_with(profile, data.len().max(1));
    let mut pb = PlanBuilder::new(dev);
    let mut s = pb.scan("t", &["x"]);
    if reduce {
        let x = s.materialized(&mut pb, "x").unwrap();
        let out = pb.agg_block(x, AggFunc::Sum, "reduce");
        pb.output("out", out);
    } else {
        s.project(&mut pb, "y", Expr::col("x").mul(Expr::lit(3)))
            .unwrap();
        let y = s.materialized(&mut pb, "y").unwrap();
        // Reduce the mapped column so the map output never leaves the
        // device (we only time the map kernel itself below).
        let out = pb.agg_block(y, AggFunc::Sum, "sink");
        pb.output("out", out);
    }
    let graph = pb.build().unwrap();
    let mut inputs = QueryInputs::new();
    inputs.bind("x", data.to_vec());
    let (_, stats) = engine
        .run(&graph, &inputs, ExecutionModel::OperatorAtATime)
        .unwrap();
    // Kernel time of the primitive under test only.
    let key = if reduce { "reduce" } else { "map" };
    stats
        .per_primitive_ns
        .iter()
        .filter(|(k, _)| k.contains(key))
        .map(|(_, v)| *v)
        .sum()
}

fn main() {
    println!("# Figure 5 — map & reduce throughput (Setup 1 drivers)");
    for (title, reduce) in [("MAP (x * 3)", false), ("AGG_BLOCK (sum)", true)] {
        let mut report = Report::new(&[
            "n (elements)",
            "opencl@cpu",
            "openmp@cpu",
            "opencl@gpu",
            "cuda@gpu",
        ]);
        for exp in [20u32, 22, 24] {
            let n = 1usize << exp;
            let data = random_ints(n, 1 << 20, 42);
            let mut cells = vec![format!("2^{exp}")];
            for profile in setup1_profiles() {
                let kernel_ns = run_primitive(&profile, &data, reduce);
                cells.push(gips(n as u64, kernel_ns));
            }
            report.row(cells);
        }
        report.print(&format!(
            "{title} throughput (Gi elements/s; fusion off, the paper's configuration)"
        ));
    }
    println!(
        "\nShape check vs paper: GPUs >> CPUs; CUDA ≈ OpenCL on GPU;\n\
         OpenCL slightly above OpenMP on CPU."
    );
}
