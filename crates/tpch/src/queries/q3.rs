//! TPC-H Q3 — shipping priority (the paper's "multiple joins" query).
//!
//! Three pipelines, exactly the paper's decomposition:
//!
//! 1. `customer` filtered to the BUILDING segment → `HASH_BUILD`;
//! 2. `orders` filtered by date → semi-probe against the customer table →
//!    `HASH_BUILD` keyed by `o_orderkey`, carrying `(o_orderdate,
//!    o_shippriority)` as payload;
//! 3. `lineitem` filtered by ship date → probe → revenue map →
//!    `HASH_AGG` by order key; then a full-buffer export/sort stage.

use adamant_core::error::Result;
use adamant_core::graph::PrimitiveGraph;
use adamant_core::result::QueryOutput;
use adamant_device::device::DeviceId;
use adamant_plan::prelude::*;
use adamant_storage::datatype::date_to_days;
use adamant_storage::prelude::Catalog;
use adamant_task::params::{AggFunc, CmpOp};

use crate::reference::Q3Row;

/// Columns Q3 reads.
pub const COLUMNS: &[(&str, &str)] = &[
    ("customer", "c_custkey"),
    ("customer", "c_mktsegment"),
    ("orders", "o_orderkey"),
    ("orders", "o_custkey"),
    ("orders", "o_orderdate"),
    ("orders", "o_shippriority"),
    ("lineitem", "l_orderkey"),
    ("lineitem", "l_extendedprice"),
    ("lineitem", "l_discount"),
    ("lineitem", "l_shipdate"),
];

/// Builds the Q3 primitive graph.
pub fn plan(device: DeviceId, catalog: &Catalog) -> Result<PrimitiveGraph> {
    let date = date_to_days(1995, 3, 15) as i64;
    let customer = catalog
        .table("customer")
        .map_err(adamant_core::ExecError::from)?;
    let building = customer
        .column("c_mktsegment")
        .map_err(adamant_core::ExecError::from)?
        .dict_code("BUILDING")
        .expect("BUILDING segment exists") as i64;
    let n_cust = customer.row_count();
    let n_orders = catalog
        .table("orders")
        .map_err(adamant_core::ExecError::from)?
        .row_count();
    let n_li = catalog
        .table("lineitem")
        .map_err(adamant_core::ExecError::from)?
        .row_count();

    let mut pb = PlanBuilder::new(device);

    // Pipeline 1: BUILDING customers.
    let mut cust = pb.scan("customer", &["c_custkey", "c_mktsegment"]);
    cust.filter(&mut pb, Predicate::cmp("c_mktsegment", CmpOp::Eq, building))?;
    let ht_cust = cust.hash_build(&mut pb, "c_custkey", &[], n_cust / 4 + 8)?;

    // Pipeline 2: qualifying orders into a keyed table with payload.
    let mut orders = pb.scan(
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
    );
    orders.filter(&mut pb, Predicate::cmp("o_orderdate", CmpOp::Lt, date))?;
    orders.semi_join(&mut pb, "o_custkey", ht_cust)?;
    let ht_orders = orders.hash_build(
        &mut pb,
        "o_orderkey",
        &["o_orderdate", "o_shippriority"],
        n_orders / 8 + 8,
    )?;

    // Pipeline 3: lineitem probe + revenue aggregation.
    let mut li = pb.scan(
        "lineitem",
        &["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    );
    li.filter(&mut pb, Predicate::cmp("l_shipdate", CmpOp::Gt, date))?;
    li.project(
        &mut pb,
        "rev",
        Expr::col("l_extendedprice").mul(Expr::lit(100).sub(Expr::col("l_discount"))),
    )?;
    li.hash_probe(
        &mut pb,
        "l_orderkey",
        ht_orders,
        &["o_orderdate", "o_shippriority"],
    )?;
    let ht_rev = li.hash_agg(
        &mut pb,
        "l_orderkey",
        &["o_orderdate", "o_shippriority"],
        &[(AggFunc::Sum, "rev")],
        n_li / 16 + 8,
    )?;

    // Post stage: export, ORDER BY revenue DESC, o_orderdate ASC.
    let groups = pb.group_result(ht_rev, 2, 1);
    let perm = pb.sort(&[
        (groups.states[0], true),
        (groups.payloads[0], false),
        (groups.keys, false),
    ]);
    let okey = pb.take(groups.keys, perm);
    let odate = pb.take(groups.payloads[0], perm);
    let oship = pb.take(groups.payloads[1], perm);
    let rev = pb.take(groups.states[0], perm);
    pb.output("l_orderkey", okey);
    pb.output("o_orderdate", odate);
    pb.output("o_shippriority", oship);
    pb.output("revenue", rev);
    pb.build()
}

/// Decodes executor output into the top-10 [`Q3Row`]s.
pub fn decode(out: &QueryOutput) -> Vec<Q3Row> {
    let keys = out.i64_column("l_orderkey");
    let dates = out.i64_column("o_orderdate");
    let ships = out.i64_column("o_shippriority");
    let revs = out.i64_column("revenue");
    let n = keys.len().min(10);
    (0..n)
        .map(|i| Q3Row {
            orderkey: keys[i],
            revenue: revs[i],
            orderdate: dates[i],
            shippriority: ships[i],
        })
        .collect()
}
