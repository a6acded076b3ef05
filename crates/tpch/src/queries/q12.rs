//! TPC-H Q12 — shipping modes and order priority.
//!
//! Exercises `IN`-list predicates (lowered to `BITMAP_OP(Or)` chains),
//! column-column date comparisons, an inner join carrying a payload, and
//! CASE-style conditional counting via indicator `MAP`s:
//!
//! ```sql
//! SELECT l_shipmode,
//!        sum(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
//!                 THEN 1 ELSE 0 END) AS high_line_count,
//!        sum(CASE … ELSE 1 END)      AS low_line_count
//! FROM orders JOIN lineitem ON o_orderkey = l_orderkey
//! WHERE l_shipmode IN ('MAIL', 'SHIP')
//!   AND l_commitdate < l_receiptdate
//!   AND l_shipdate < l_commitdate
//!   AND l_receiptdate >= DATE '1994-01-01'
//!   AND l_receiptdate <  DATE '1995-01-01'
//! GROUP BY l_shipmode ORDER BY l_shipmode;
//! ```

use adamant_core::error::Result;
use adamant_core::graph::PrimitiveGraph;
use adamant_core::result::QueryOutput;
use adamant_device::device::DeviceId;
use adamant_plan::prelude::*;
use adamant_storage::datatype::date_to_days;
use adamant_storage::prelude::Catalog;
use adamant_task::params::AggFunc;

use crate::reference::Q12Row;

/// Columns Q12 reads.
pub const COLUMNS: &[(&str, &str)] = &[
    ("orders", "o_orderkey"),
    ("orders", "o_orderpriority"),
    ("lineitem", "l_orderkey"),
    ("lineitem", "l_shipmode"),
    ("lineitem", "l_commitdate"),
    ("lineitem", "l_receiptdate"),
    ("lineitem", "l_shipdate"),
];

/// Builds the Q12 primitive graph.
pub fn plan(device: DeviceId, catalog: &Catalog) -> Result<PrimitiveGraph> {
    let lo = date_to_days(1994, 1, 1) as i64;
    let hi = date_to_days(1995, 1, 1) as i64; // exclusive
    let orders_table = catalog
        .table("orders")
        .map_err(adamant_core::ExecError::from)?;
    let prio = orders_table
        .column("o_orderpriority")
        .map_err(adamant_core::ExecError::from)?;
    let urgent = prio.dict_code("1-URGENT").expect("priority exists") as i64;
    let high = prio.dict_code("2-HIGH").expect("priority exists") as i64;
    let li_table = catalog
        .table("lineitem")
        .map_err(adamant_core::ExecError::from)?;
    let mode = li_table
        .column("l_shipmode")
        .map_err(adamant_core::ExecError::from)?;
    let mail = mode.dict_code("MAIL").expect("MAIL exists") as i64;
    let ship = mode.dict_code("SHIP").expect("SHIP exists") as i64;
    let n_orders = orders_table.row_count();

    let mut pb = PlanBuilder::new(device);

    // Pipeline 1: all orders into a keyed table carrying the priority.
    let mut orders = pb.scan("orders", &["o_orderkey", "o_orderpriority"]);
    let ht = orders.hash_build(&mut pb, "o_orderkey", &["o_orderpriority"], n_orders + 8)?;

    // Pipeline 2: filtered lineitems probe and count per ship mode.
    let mut li = pb.scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_shipmode",
            "l_commitdate",
            "l_receiptdate",
            "l_shipdate",
        ],
    );
    li.filter(
        &mut pb,
        Predicate::and(vec![
            Predicate::in_set("l_shipmode", &[mail, ship]),
            Predicate::cmp_cols(
                "l_commitdate",
                adamant_task::params::CmpOp::Lt,
                "l_receiptdate",
            ),
            Predicate::cmp_cols(
                "l_shipdate",
                adamant_task::params::CmpOp::Lt,
                "l_commitdate",
            ),
            Predicate::between("l_receiptdate", lo, hi - 1),
        ]),
    )?;
    li.hash_probe(&mut pb, "l_orderkey", ht, &["o_orderpriority"])?;
    // Indicator columns over the joined priority.
    li.project(
        &mut pb,
        "is_high",
        Expr::col("o_orderpriority")
            .eq_const(urgent)
            .add(Expr::col("o_orderpriority").eq_const(high)),
    )?;
    li.project(&mut pb, "is_low", Expr::lit(1).sub(Expr::col("is_high")))?;
    let ht_counts = li.hash_agg(
        &mut pb,
        "l_shipmode",
        &[],
        &[(AggFunc::Sum, "is_high"), (AggFunc::Sum, "is_low")],
        8,
    )?;

    // Post stage: export and order by ship-mode code.
    let groups = pb.group_result(ht_counts, 0, 2);
    let perm = pb.sort(&[(groups.keys, false)]);
    let mode_out = pb.take(groups.keys, perm);
    let high_out = pb.take(groups.states[0], perm);
    let low_out = pb.take(groups.states[1], perm);
    pb.output("l_shipmode", mode_out);
    pb.output("high_line_count", high_out);
    pb.output("low_line_count", low_out);
    pb.build()
}

/// Decodes executor output into [`Q12Row`]s ordered by mode string.
pub fn decode(catalog: &Catalog, out: &QueryOutput) -> Result<Vec<Q12Row>> {
    let dict = catalog
        .table("lineitem")
        .map_err(adamant_core::ExecError::from)?
        .column("l_shipmode")
        .map_err(adamant_core::ExecError::from)?
        .dictionary()
        .expect("dict column")
        .to_vec();
    let codes = out.i64_column("l_shipmode");
    let high = out.i64_column("high_line_count");
    let low = out.i64_column("low_line_count");
    let mut rows: Vec<Q12Row> = codes
        .iter()
        .enumerate()
        .map(|(i, &c)| Q12Row {
            shipmode: dict[c as usize].clone(),
            high_line_count: high[i],
            low_line_count: low[i],
        })
        .collect();
    rows.sort_by(|a, b| a.shipmode.cmp(&b.shipmode));
    Ok(rows)
}
