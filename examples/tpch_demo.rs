//! TPC-H end to end: generate data, run all seven queries (Q1, Q3, Q4, Q6,
//! Q10, Q12, Q14) on the simulated GPU, and assert every result equals the
//! host reference implementation's.
//!
//! Run: `cargo run --release -p adamant-examples --example tpch_demo`

use adamant::prelude::*;
use adamant::storage::datatype::format_date;
use adamant::tpch::{queries, reference};

fn main() {
    let sf = 0.01;
    println!("generating TPC-H data at SF {sf}...");
    let catalog = TpchGenerator::new(sf, 7).generate();
    for t in catalog.table_names() {
        let table = catalog.table(t).unwrap();
        println!(
            "  {:<9} {:>8} rows  {:>7.2} MiB",
            t,
            table.row_count(),
            table.byte_len() as f64 / (1 << 20) as f64
        );
    }

    let mut engine = Adamant::builder()
        .chunk_rows(16 << 10)
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .expect("engine");
    let gpu = engine.device_ids()[0];

    for q in TpchQuery::ALL {
        let graph = q.plan(gpu, &catalog).expect("plan");
        let inputs = q.bind(&catalog).expect("bind");
        let (out, stats) = engine
            .run(&graph, &inputs, ExecutionModel::FourPhasePipelined)
            .expect("run");
        println!(
            "\n== {q} ==  {:.3} ms modeled, {} pipelines, {} chunks",
            stats.total_ms(),
            stats.pipelines,
            stats.chunks_processed
        );
        match q {
            TpchQuery::Q1 => {
                let rows = queries::q1::decode(&catalog, &out).unwrap();
                assert_eq!(rows, reference::q1(&catalog).unwrap(), "Q1 mismatch");
                for r in &rows {
                    println!(
                        "  {} {} | qty={} base={:.2} disc_price={:.2} count={}",
                        r.returnflag,
                        r.linestatus,
                        r.sum_qty,
                        r.sum_base_price as f64 / 100.0,
                        r.sum_disc_price as f64 / 10_000.0,
                        r.count
                    );
                }
            }
            TpchQuery::Q3 => {
                let rows = queries::q3::decode(&out);
                assert_eq!(rows, reference::q3(&catalog).unwrap(), "Q3 mismatch");
                for r in rows.iter().take(5) {
                    println!(
                        "  order {} | revenue={:.2} date={} prio={}",
                        r.orderkey,
                        r.revenue as f64 / 10_000.0,
                        format_date(r.orderdate as i32),
                        r.shippriority
                    );
                }
            }
            TpchQuery::Q4 => {
                let rows = queries::q4::decode(&catalog, &out).unwrap();
                assert_eq!(rows, reference::q4(&catalog).unwrap(), "Q4 mismatch");
                for r in &rows {
                    println!("  {:<16} {}", r.priority, r.count);
                }
            }
            TpchQuery::Q6 => {
                let rev = queries::q6::decode(&out);
                assert_eq!(rev, reference::q6(&catalog).unwrap(), "Q6 mismatch");
                println!("  revenue = {:.2}", rev as f64 / 10_000.0);
            }
            TpchQuery::Q10 => {
                let rows = queries::q10::decode(&out);
                assert_eq!(rows, reference::q10(&catalog).unwrap(), "Q10 mismatch");
                for r in rows.iter().take(5) {
                    println!(
                        "  customer {} | revenue={:.2}",
                        r.custkey,
                        r.revenue as f64 / 100.0
                    );
                }
            }
            TpchQuery::Q12 => {
                let rows = queries::q12::decode(&catalog, &out).unwrap();
                assert_eq!(rows, reference::q12(&catalog).unwrap(), "Q12 mismatch");
                for r in &rows {
                    println!(
                        "  {:<6} high={} low={}",
                        r.shipmode, r.high_line_count, r.low_line_count
                    );
                }
            }
            TpchQuery::Q14 => {
                let (promo, total) = queries::q14::decode(&out);
                assert_eq!(
                    (promo, total),
                    reference::q14(&catalog).unwrap(),
                    "Q14 mismatch"
                );
                println!(
                    "  promo_revenue = {:.2}%",
                    queries::q14::promo_percent(promo, total)
                );
            }
        }
    }
    println!("\nall results match the reference implementations exactly.");
}
