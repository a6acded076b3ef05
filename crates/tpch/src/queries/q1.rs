//! TPC-H Q1 — pricing summary report (multi-aggregate group-by).
//!
//! Groups the filtered `lineitem` by `(l_returnflag, l_linestatus)` —
//! lowered to a packed integer key — and computes six aggregates in one
//! `HASH_AGG` pass; the group results are exported, sorted by key and
//! returned.

use adamant_core::error::Result;
use adamant_core::graph::PrimitiveGraph;
use adamant_core::result::QueryOutput;
use adamant_device::device::DeviceId;
use adamant_plan::prelude::*;
use adamant_storage::datatype::date_to_days;
use adamant_storage::prelude::Catalog;
use adamant_task::params::{AggFunc, CmpOp};

use crate::reference::Q1Row;

/// Columns Q1 reads.
pub const COLUMNS: &[(&str, &str)] = &[
    ("lineitem", "l_shipdate"),
    ("lineitem", "l_quantity"),
    ("lineitem", "l_extendedprice"),
    ("lineitem", "l_discount"),
    ("lineitem", "l_tax"),
    ("lineitem", "l_returnflag"),
    ("lineitem", "l_linestatus"),
];

/// Builds the Q1 primitive graph.
pub fn plan(device: DeviceId, _catalog: &Catalog) -> Result<PrimitiveGraph> {
    let cutoff = date_to_days(1998, 9, 2) as i64;
    let mut pb = PlanBuilder::new(device);
    let mut li = pb.scan(
        "lineitem",
        &[
            "l_shipdate",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_returnflag",
            "l_linestatus",
        ],
    );
    li.filter(&mut pb, Predicate::cmp("l_shipdate", CmpOp::Le, cutoff))?;
    // Packed group key: returnflag_code * 16 + linestatus_code.
    li.project(
        &mut pb,
        "gkey",
        Expr::col("l_returnflag")
            .mul(Expr::lit(16))
            .add(Expr::col("l_linestatus")),
    )?;
    // disc_price = price * (100 - disc); charge = disc_price * (100 + tax).
    li.project(
        &mut pb,
        "disc_price",
        Expr::col("l_extendedprice").mul(Expr::lit(100).sub(Expr::col("l_discount"))),
    )?;
    li.project(
        &mut pb,
        "charge",
        Expr::col("disc_price").mul(Expr::col("l_tax").add(Expr::lit(100))),
    )?;
    let ht = li.hash_agg(
        &mut pb,
        "gkey",
        &[],
        &[
            (AggFunc::Sum, "l_quantity"),
            (AggFunc::Sum, "l_extendedprice"),
            (AggFunc::Sum, "disc_price"),
            (AggFunc::Sum, "charge"),
            (AggFunc::Sum, "l_discount"),
            (AggFunc::Count, "gkey"),
        ],
        8,
    )?;
    let groups = pb.group_result(ht, 0, 6);
    let perm = pb.sort(&[(groups.keys, false)]);
    let keys = pb.take(groups.keys, perm);
    pb.output("gkey", keys);
    let names = [
        "sum_qty",
        "sum_base_price",
        "sum_disc_price",
        "sum_charge",
        "sum_disc",
        "count",
    ];
    for (i, name) in names.iter().enumerate() {
        let sorted = pb.take(groups.states[i], perm);
        pb.output(*name, sorted);
    }
    pb.build()
}

/// Decodes executor output into [`Q1Row`]s ordered by
/// `(returnflag, linestatus)` strings (re-sorted: the device sorts by the
/// packed code, dictionary order may differ).
pub fn decode(catalog: &Catalog, out: &QueryOutput) -> Result<Vec<Q1Row>> {
    let li = catalog
        .table("lineitem")
        .map_err(adamant_core::ExecError::from)?;
    let rf_dict = li
        .column("l_returnflag")
        .map_err(adamant_core::ExecError::from)?
        .dictionary()
        .expect("dict column")
        .to_vec();
    let ls_dict = li
        .column("l_linestatus")
        .map_err(adamant_core::ExecError::from)?
        .dictionary()
        .expect("dict column")
        .to_vec();
    let keys = out.i64_column("gkey");
    let mut rows: Vec<Q1Row> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| Q1Row {
            returnflag: rf_dict[(k / 16) as usize].clone(),
            linestatus: ls_dict[(k % 16) as usize].clone(),
            sum_qty: out.i64_column("sum_qty")[i],
            sum_base_price: out.i64_column("sum_base_price")[i],
            sum_disc_price: out.i64_column("sum_disc_price")[i],
            sum_charge: out.i64_column("sum_charge")[i],
            sum_disc: out.i64_column("sum_disc")[i],
            count: out.i64_column("count")[i],
        })
        .collect();
    rows.sort_by(|a, b| {
        (a.returnflag.as_str(), a.linestatus.as_str())
            .cmp(&(b.returnflag.as_str(), b.linestatus.as_str()))
    });
    Ok(rows)
}
