//! SQL ↔ hand-built equivalence: every TPC-H query the paper evaluates,
//! written as SQL text (`adamant::tpch::sql`), compiled through the full
//! front door (parse → bind → rewrite → lower) and served by a [`Session`]
//! — i.e. scheduled through `QueryScheduler` admission — must produce
//! exactly the rows the hand-built primitive graph produces, under every
//! execution model. The lowered graphs must also cost no more modeled time
//! than the hand-built ones.

use adamant::prelude::*;
use adamant::storage::datatype::format_date;
use adamant::tpch;

fn as_int(v: &SqlValue) -> i64 {
    match v {
        SqlValue::Int(x) => *x,
        other => panic!("expected int, got {other:?}"),
    }
}

fn as_text(v: &SqlValue) -> &str {
    match v {
        SqlValue::Str(s) | SqlValue::Date(s) => s,
        other => panic!("expected text, got {other:?}"),
    }
}

#[test]
fn sql_matches_hand_built_plans_under_every_model() {
    let catalog = tpch::TpchGenerator::new(0.002, 20260707).generate();
    let mut engine = Adamant::builder()
        .chunk_rows(1000)
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];

    for q in TpchQuery::ALL {
        for model in ExecutionModel::ALL {
            // Hand-built path, straight through the executor.
            let graph = q.plan(dev, &catalog).unwrap();
            let inputs = q.bind(&catalog).unwrap();
            let (hand, _) = engine
                .run(&graph, &inputs, model)
                .unwrap_or_else(|e| panic!("{q} hand-built under {model}: {e}"));

            // SQL path, through the session serving layer (compile +
            // footprint estimation + scheduler admission + decode).
            let rs = Session::new(&mut engine, &catalog)
                .model(model)
                .sql(tpch::sql::text(q))
                .unwrap_or_else(|e| panic!("{q} via SQL under {model}: {e}"));
            assert!(rs.footprint_bytes > 0, "{q}: footprint fed to admission");

            compare(q, &catalog, &hand, &rs, model);
        }
    }
}

fn compare(
    q: TpchQuery,
    catalog: &Catalog,
    hand: &QueryOutput,
    rs: &adamant::SqlResultSet,
    model: ExecutionModel,
) {
    let ctx = |m: &str| format!("{q} under {model}: {m}");
    match q {
        TpchQuery::Q1 => {
            let want = tpch::queries::q1::decode(catalog, hand).unwrap();
            // The SQL plan orders by dictionary code; the decode contract
            // orders by string. Re-sort the same way before comparing.
            let mut got: Vec<_> = rs
                .rows
                .iter()
                .map(|r| {
                    (
                        as_text(&r[0]).to_string(),
                        as_text(&r[1]).to_string(),
                        as_int(&r[2]),
                        as_int(&r[3]),
                        as_int(&r[4]),
                        as_int(&r[5]),
                        as_int(&r[6]),
                        as_int(&r[7]),
                    )
                })
                .collect();
            got.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            let want: Vec<_> = want
                .into_iter()
                .map(|r| {
                    (
                        r.returnflag,
                        r.linestatus,
                        r.sum_qty,
                        r.sum_base_price,
                        r.sum_disc_price,
                        r.sum_charge,
                        r.sum_disc,
                        r.count,
                    )
                })
                .collect();
            assert_eq!(got, want, "{}", ctx("rows"));
        }
        TpchQuery::Q3 => {
            let want: Vec<_> = tpch::queries::q3::decode(hand)
                .into_iter()
                .map(|r| {
                    (
                        r.orderkey,
                        r.revenue,
                        format_date(r.orderdate as i32),
                        r.shippriority,
                    )
                })
                .collect();
            let got: Vec<_> = rs
                .rows
                .iter()
                .map(|r| {
                    (
                        as_int(&r[0]),
                        as_int(&r[1]),
                        as_text(&r[2]).to_string(),
                        as_int(&r[3]),
                    )
                })
                .collect();
            assert_eq!(got, want, "{}", ctx("top-10 rows"));
        }
        TpchQuery::Q4 => {
            let want: Vec<_> = tpch::queries::q4::decode(catalog, hand)
                .unwrap()
                .into_iter()
                .map(|r| (r.priority, r.count))
                .collect();
            let mut got: Vec<_> = rs
                .rows
                .iter()
                .map(|r| (as_text(&r[0]).to_string(), as_int(&r[1])))
                .collect();
            got.sort();
            assert_eq!(got, want, "{}", ctx("rows"));
        }
        TpchQuery::Q6 => {
            let want = tpch::queries::q6::decode(hand);
            assert_eq!(rs.rows.len(), 1, "{}", ctx("one row"));
            assert_eq!(as_int(&rs.rows[0][0]), want, "{}", ctx("revenue"));
        }
        TpchQuery::Q10 => {
            let want: Vec<_> = tpch::queries::q10::decode(hand)
                .into_iter()
                .map(|r| (r.custkey, r.revenue))
                .collect();
            let got: Vec<_> = rs
                .rows
                .iter()
                .map(|r| (as_int(&r[0]), as_int(&r[1])))
                .collect();
            assert_eq!(got, want, "{}", ctx("top-20 rows"));
        }
        TpchQuery::Q12 => {
            let want: Vec<_> = tpch::queries::q12::decode(catalog, hand)
                .unwrap()
                .into_iter()
                .map(|r| (r.shipmode, r.high_line_count, r.low_line_count))
                .collect();
            let mut got: Vec<_> = rs
                .rows
                .iter()
                .map(|r| (as_text(&r[0]).to_string(), as_int(&r[1]), as_int(&r[2])))
                .collect();
            got.sort();
            assert_eq!(got, want, "{}", ctx("rows"));
        }
        TpchQuery::Q14 => {
            let (promo, total) = tpch::queries::q14::decode(hand);
            assert_eq!(rs.rows.len(), 1, "{}", ctx("one row"));
            assert_eq!(as_int(&rs.rows[0][0]), promo, "{}", ctx("promo_revenue"));
            assert_eq!(as_int(&rs.rows[0][1]), total, "{}", ctx("total_revenue"));
        }
    }
}

/// The compiled SQL plans read exactly the same `(table, column)` inputs as
/// the hand-built plans declare — projection pruning drops everything else,
/// so footprint estimation and admission see the same scan set.
#[test]
fn sql_input_columns_match_declared_footprints() {
    let catalog = tpch::TpchGenerator::new(0.002, 20260707).generate();
    for q in TpchQuery::ALL {
        let compiled = adamant::sql::compile(tpch::sql::text(q), &catalog, DeviceId(0)).unwrap();
        let mut got: Vec<(String, String)> = compiled.input_columns.clone();
        got.sort();
        got.dedup();
        let mut want: Vec<(String, String)> = q
            .input_columns()
            .iter()
            .map(|(t, c)| (t.to_string(), c.to_string()))
            .collect();
        want.sort();
        assert_eq!(got, want, "{q}: pruned scan set");
    }
}

/// The seven TPC-H texts lower to graphs that cost no more modeled time
/// than the hand-built plans of the same queries: SF 0.01, `chunk_rows`
/// 2^14, the CUDA profile, every execution model. The bound is SQL ≤ hand
/// in every cell with fusion off, the paper's configuration; the fused
/// ratios are printed beside it. `--nocapture` prints the table
/// (SQL / hand modeled total per model, and the node counts).
#[test]
fn sql_graphs_cost_no_more_than_the_hand_built_plans() {
    let catalog = tpch::TpchGenerator::new(0.01, 20260707).generate();
    let mut over = Vec::new();
    println!(
        "| fusion | query | nodes, SQL → hand | {} |",
        model_header()
    );
    println!("|---|---|---|{}", "---|".repeat(ExecutionModel::ALL.len()));
    for fusion in [false, true] {
        let mut engine = Adamant::builder()
            .chunk_rows(1 << 14)
            .fusion(fusion)
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        let dev = engine.device_ids()[0];
        for q in TpchQuery::ALL {
            let sql = adamant::sql::compile(tpch::sql::text(q), &catalog, dev).unwrap();
            let columns: Vec<(&str, &str)> = sql
                .input_columns
                .iter()
                .map(|(t, c)| (t.as_str(), c.as_str()))
                .collect();
            let sql_inputs = tpch::queries::bind_columns(&catalog, &columns).unwrap();
            let hand = q.plan(dev, &catalog).unwrap();
            let hand_inputs = q.bind(&catalog).unwrap();
            let mut cells = Vec::new();
            for model in ExecutionModel::ALL {
                let (_, s) = engine.run(&sql.graph, &sql_inputs, model).unwrap();
                let (_, h) = engine.run(&hand, &hand_inputs, model).unwrap();
                let ratio = s.total_ns / h.total_ns;
                if !fusion && s.total_ns > h.total_ns {
                    over.push(format!("{q} under {model}: SQL/hand {ratio:.4}"));
                }
                cells.push(format!("{ratio:.3}"));
            }
            println!(
                "| {} | {q} | {} → {} | {} |",
                if fusion { "on" } else { "off" },
                sql.graph.nodes().len(),
                hand.nodes().len(),
                cells.join(" | ")
            );
        }
    }
    assert!(over.is_empty(), "SQL graphs above hand-built: {over:#?}");
}

fn model_header() -> String {
    ExecutionModel::ALL
        .iter()
        .map(|m| m.name())
        .collect::<Vec<_>>()
        .join(" | ")
}
