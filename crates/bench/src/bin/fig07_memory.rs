//! Figure 7 — why operator-at-a-time does not scale.
//!
//! * Left: per-query input footprints and the full TPC-H dataset vs GPU
//!   memory capacities, across scale factors.
//! * Middle/right: the Q6 plan's device-memory footprint over execution
//!   (operator-at-a-time), from the executor's memory trace.
//!
//! Run: `cargo run --release -p adamant-bench --bin fig07_memory`

use adamant::prelude::*;
use adamant::tpch::footprint;
use adamant_bench::{catalog, engine_with, Report};

fn gib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 30) as f64)
}

fn main() {
    println!("# Figure 7 — TPC-H footprints vs device memory");

    // Left: query input sizes at several scale factors.
    let sfs = [1.0, 10.0, 30.0, 100.0, 140.0];
    let mut report = Report::new(&["query", "SF1", "SF10", "SF30", "SF100", "SF140"]);
    for q in 1..=22 {
        let mut cells = vec![format!("Q{q}")];
        for &sf in &sfs {
            cells.push(gib(footprint::query_input_bytes(q, sf)));
        }
        report.row(cells);
    }
    let mut dataset = vec!["full dataset".to_string()];
    for &sf in &sfs {
        dataset.push(gib(footprint::dataset_bytes(sf)));
    }
    report.row(dataset);
    report.print("query input footprints (GiB)");

    let mut caps = Report::new(&["device", "memory (GiB)"]);
    for (name, bytes) in footprint::gpu_capacities() {
        caps.row(vec![name.to_string(), gib(bytes)]);
    }
    caps.print("GPU memory capacities");

    // How many query inputs exceed an 11 GiB card per SF.
    let mut fits = Report::new(&["SF", "inputs > 11 GiB", "dataset fits 40 GiB?"]);
    for &sf in &sfs {
        let over = (1..=22)
            .filter(|&q| footprint::query_input_bytes(q, sf) > 11 * (1u64 << 30))
            .count();
        let dataset_fits = footprint::dataset_bytes(sf) <= 40 * (1u64 << 30);
        fits.row(vec![
            format!("{sf}"),
            format!("{over}/22"),
            format!("{dataset_fits}"),
        ]);
    }
    fits.print("scalability summary (the Fig. 7-left argument)");

    // Middle/right: Q6 memory footprint during OAAT execution.
    let cat = catalog(0.01);
    let (mut engine, dev) = engine_with(&DeviceProfile::cuda_rtx2080ti(), 1 << 20);
    let graph = TpchQuery::Q6.plan(dev, &cat).unwrap();
    let inputs = TpchQuery::Q6.bind(&cat).unwrap();
    let (_, stats) = engine
        .run(&graph, &inputs, ExecutionModel::OperatorAtATime)
        .unwrap();
    let mut trace = Report::new(&["after primitive", "device memory (MiB)"]);
    for (label, bytes) in &stats.memory_trace {
        trace.row(vec![
            label.clone(),
            format!("{:.2}", *bytes as f64 / (1 << 20) as f64),
        ]);
    }
    trace.print(
        "Q6 (SF 0.01) operator-at-a-time memory footprint trace (fusion off, the paper's configuration)",
    );
    println!(
        "\npeak device memory: {:.2} MiB — intermediate results stack on top of\n\
         the resident input columns, the Fig. 7-right effect.",
        stats.peak_device_bytes.values().max().copied().unwrap_or(0) as f64 / (1 << 20) as f64
    );
}
