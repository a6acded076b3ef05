//! Fusion trajectory — fused vs unfused execution over the full TPC-H set.
//!
//! For every query and every execution model the same plan runs twice on
//! the same device profile: once with the fusion pass disengaged and once
//! with it on (the default). Rows land in `BENCH_fusion.json`. Gate: after
//! the file is written, **every** row must have fused at least one chain,
//! elided intermediates, materialized strictly fewer intermediate bytes,
//! elided exactly what it did not materialize (fused + elided == unfused)
//! and never run slower on the modeled timeline; chunked rows of every
//! query but Q14 must materialize at most 1 % of the unfused bytes.
//! Otherwise the bin panics naming the rows that failed.
//!
//! Run: `cargo run --release -p adamant-bench --bin fusion`

use adamant::prelude::*;
use adamant_bench::{catalog, jnum, jobj, jstr, ms, standard_tasks, write_bench_json, Report};

const SF: f64 = 0.01;
const CHUNK_ROWS: usize = 1 << 11;

fn engine(fusion: bool) -> Adamant {
    Adamant::builder()
        .tasks(standard_tasks())
        .chunk_rows(CHUNK_ROWS)
        .fusion(fusion)
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .expect("engine construction")
}

fn main() {
    println!("# Fusion — fused vs unfused execution (SF {SF})");
    let cat = catalog(SF);
    let mut fused_engine = engine(true);
    let mut unfused_engine = engine(false);
    let dev = fused_engine.device_ids()[0];

    let mut rep = Report::new(&[
        "query",
        "model",
        "chains",
        "stages",
        "elided (B)",
        "interm fused (B)",
        "interm unfused (B)",
        "unfused (ms)",
        "fused (ms)",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut failed: Vec<String> = Vec::new();
    for q in TpchQuery::ALL {
        let graph = q.plan(dev, &cat).unwrap();
        let inputs = q.bind(&cat).unwrap();
        for model in ExecutionModel::ALL {
            let (out_f, fused) = fused_engine.run(&graph, &inputs, model).expect("fused run");
            let (out_u, unfused) = unfused_engine
                .run(&graph, &inputs, model)
                .expect("unfused run");
            assert_eq!(
                format!("{out_f:?}"),
                format!("{out_u:?}"),
                "{q}/{model}: fused result diverged from unfused"
            );
            // Every scan pipeline of these queries fuses to one kernel, so
            // chunked runs materialize next to nothing (Q14 keeps two
            // terminals apart; see tests/tests/fusion.rs).
            let whole = q != TpchQuery::Q14 && model == ExecutionModel::Chunked;
            let gate_ok = fused.fused_chains >= 1
                && fused.intermediate_bytes < unfused.intermediate_bytes
                && fused.intermediates_elided_bytes > 0
                && fused.intermediate_bytes + fused.intermediates_elided_bytes
                    == unfused.intermediate_bytes
                && (!whole || fused.intermediate_bytes * 100 <= unfused.intermediate_bytes)
                && fused.total_ns <= unfused.total_ns;
            if !gate_ok {
                failed.push(format!("{q}/{model}"));
            }
            rep.row(vec![
                q.to_string(),
                model.to_string(),
                fused.fused_chains.to_string(),
                fused.nodes_fused.to_string(),
                fused.intermediates_elided_bytes.to_string(),
                fused.intermediate_bytes.to_string(),
                unfused.intermediate_bytes.to_string(),
                ms(unfused.total_ns),
                ms(fused.total_ns),
            ]);
            json_rows.push(jobj(&[
                ("section", jstr("fused_vs_unfused")),
                ("query", jstr(&q.to_string())),
                ("model", jstr(&model.to_string())),
                ("fused_chains", fused.fused_chains.to_string()),
                ("nodes_fused", fused.nodes_fused.to_string()),
                ("elided_bytes", fused.intermediates_elided_bytes.to_string()),
                (
                    "fused_intermediate_bytes",
                    fused.intermediate_bytes.to_string(),
                ),
                (
                    "unfused_intermediate_bytes",
                    unfused.intermediate_bytes.to_string(),
                ),
                ("saved_ns", jnum(fused.fusion_saved_transfer_ns)),
                ("fused_ns", jnum(fused.total_ns)),
                ("unfused_ns", jnum(unfused.total_ns)),
            ]));
        }
    }
    rep.print("fused vs unfused, per query x execution model (extension: fusion on vs off)");
    println!(
        "\nEvery row is gated (after the file is written): the fused run must\n\
         materialize strictly fewer intermediate bytes, elide exactly the\n\
         difference, and never be slower than the unfused run on the modeled\n\
         timeline; chunked, every query but Q14 materializes <= 1 % of the\n\
         unfused bytes."
    );

    let path = write_bench_json("fusion", &json_rows).expect("write BENCH_fusion.json");
    println!("\nwrote {}", path.display());
    assert!(
        failed.is_empty(),
        "fusion gate (chains >= 1, fewer intermediate bytes, elided > 0, fused + elided \
         == unfused bytes, chunked <= 1 % but Q14, never slower) failed on {} \
         (values in BENCH_fusion.json)",
        failed.join(", ")
    );
}
