//! TPC-H Q10 — returned item reporting (reduced form).
//!
//! The full Q10 joins customer and nation for display columns; the
//! co-processor-relevant core is the orders⋈lineitem revenue aggregation
//! over returned items, which is what this plan (and the reference) keeps:
//!
//! ```sql
//! SELECT o_custkey, sum(l_extendedprice * (1 - l_discount)) AS revenue
//! FROM orders JOIN lineitem ON l_orderkey = o_orderkey
//! WHERE o_orderdate >= DATE '1993-10-01'
//!   AND o_orderdate <  DATE '1994-01-01'
//!   AND l_returnflag = 'R'
//! GROUP BY o_custkey
//! ORDER BY revenue DESC LIMIT 20;
//! ```
//!
//! Two pipelines: qualifying orders build a keyed table carrying
//! `o_custkey` as payload; returned lineitems probe it and aggregate
//! revenue per customer, with a full-buffer sort/take stage for the top-20.

use adamant_core::error::Result;
use adamant_core::graph::PrimitiveGraph;
use adamant_core::result::QueryOutput;
use adamant_device::device::DeviceId;
use adamant_plan::prelude::*;
use adamant_storage::datatype::date_to_days;
use adamant_storage::prelude::Catalog;
use adamant_task::params::{AggFunc, CmpOp};

use crate::reference::Q10Row;

/// Columns Q10 (reduced) reads.
pub const COLUMNS: &[(&str, &str)] = &[
    ("orders", "o_orderkey"),
    ("orders", "o_custkey"),
    ("orders", "o_orderdate"),
    ("lineitem", "l_orderkey"),
    ("lineitem", "l_returnflag"),
    ("lineitem", "l_extendedprice"),
    ("lineitem", "l_discount"),
];

/// Builds the Q10 primitive graph.
pub fn plan(device: DeviceId, catalog: &Catalog) -> Result<PrimitiveGraph> {
    let lo = date_to_days(1993, 10, 1) as i64;
    let hi = date_to_days(1994, 1, 1) as i64; // exclusive
    let returned = catalog
        .table("lineitem")
        .map_err(adamant_core::ExecError::from)?
        .column("l_returnflag")
        .map_err(adamant_core::ExecError::from)?
        .dict_code("R")
        .expect("R flag exists") as i64;
    let n_orders = catalog
        .table("orders")
        .map_err(adamant_core::ExecError::from)?
        .row_count();
    let n_li = catalog
        .table("lineitem")
        .map_err(adamant_core::ExecError::from)?
        .row_count();

    let mut pb = PlanBuilder::new(device);

    // Pipeline 1: orders in the quarter, keyed by o_orderkey with the
    // customer key as join payload.
    let mut orders = pb.scan("orders", &["o_orderkey", "o_custkey", "o_orderdate"]);
    orders.filter(&mut pb, Predicate::between("o_orderdate", lo, hi - 1))?;
    let ht_orders = orders.hash_build(&mut pb, "o_orderkey", &["o_custkey"], n_orders / 4 + 8)?;

    // Pipeline 2: returned lineitems probe and aggregate per customer.
    let mut li = pb.scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_returnflag",
            "l_extendedprice",
            "l_discount",
        ],
    );
    li.filter(&mut pb, Predicate::cmp("l_returnflag", CmpOp::Eq, returned))?;
    li.project(
        &mut pb,
        "rev",
        Expr::col("l_extendedprice").mul(Expr::lit(100).sub(Expr::col("l_discount"))),
    )?;
    li.hash_probe(&mut pb, "l_orderkey", ht_orders, &["o_custkey"])?;
    let ht_rev = li.hash_agg(
        &mut pb,
        "o_custkey",
        &[],
        &[(AggFunc::Sum, "rev")],
        n_li / 16 + 8,
    )?;

    // Post stage: export, ORDER BY revenue DESC (custkey ASC on ties).
    let groups = pb.group_result(ht_rev, 0, 1);
    let perm = pb.sort(&[(groups.states[0], true), (groups.keys, false)]);
    let cust = pb.take(groups.keys, perm);
    let rev = pb.take(groups.states[0], perm);
    pb.output("o_custkey", cust);
    pb.output("revenue", rev);
    pb.build()
}

/// Decodes executor output into the top-20 [`Q10Row`]s.
pub fn decode(out: &QueryOutput) -> Vec<Q10Row> {
    let custs = out.i64_column("o_custkey");
    let revs = out.i64_column("revenue");
    let n = custs.len().min(20);
    (0..n)
        .map(|i| Q10Row {
            custkey: custs[i],
            revenue: revs[i],
        })
        .collect()
}
