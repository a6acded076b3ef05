//! TPC-H Q4 — order priority checking (the paper's "subquery" query).
//!
//! The EXISTS subquery becomes a semi-join: `lineitem` rows with
//! `l_commitdate < l_receiptdate` build a key-set table; `orders` in the
//! date window semi-probe it and are counted per priority. The paper notes
//! this query "starts with building a hash table" with little compute to
//! hide the transfer behind — which is why 4-phase execution struggles on
//! it under OpenCL (Fig. 11).

use adamant_core::error::Result;
use adamant_core::graph::PrimitiveGraph;
use adamant_core::result::QueryOutput;
use adamant_device::device::DeviceId;
use adamant_plan::prelude::*;
use adamant_storage::datatype::date_to_days;
use adamant_storage::prelude::Catalog;
use adamant_task::params::{AggFunc, CmpOp};

use crate::reference::Q4Row;

/// Columns Q4 reads.
pub const COLUMNS: &[(&str, &str)] = &[
    ("lineitem", "l_orderkey"),
    ("lineitem", "l_commitdate"),
    ("lineitem", "l_receiptdate"),
    ("orders", "o_orderkey"),
    ("orders", "o_orderdate"),
    ("orders", "o_orderpriority"),
];

/// Builds the Q4 primitive graph.
pub fn plan(device: DeviceId, catalog: &Catalog) -> Result<PrimitiveGraph> {
    let lo = date_to_days(1993, 7, 1) as i64;
    let hi = date_to_days(1993, 10, 1) as i64; // exclusive
    let n_li = catalog
        .table("lineitem")
        .map_err(adamant_core::ExecError::from)?
        .row_count();

    let mut pb = PlanBuilder::new(device);

    // Pipeline 1: late lineitems — the big build.
    let mut li = pb.scan("lineitem", &["l_orderkey", "l_commitdate", "l_receiptdate"]);
    li.filter(
        &mut pb,
        Predicate::cmp_cols("l_commitdate", CmpOp::Lt, "l_receiptdate"),
    )?;
    let ht_late = li.hash_build(&mut pb, "l_orderkey", &[], n_li / 2 + 8)?;

    // Pipeline 2: orders in the window, semi-probe, count per priority.
    let mut orders = pb.scan("orders", &["o_orderkey", "o_orderdate", "o_orderpriority"]);
    orders.filter(&mut pb, Predicate::between("o_orderdate", lo, hi - 1))?;
    orders.semi_join(&mut pb, "o_orderkey", ht_late)?;
    let ht_counts = orders.hash_agg(
        &mut pb,
        "o_orderpriority",
        &[],
        &[(AggFunc::Count, "o_orderpriority")],
        8,
    )?;

    // Post stage: export and order by priority code.
    let groups = pb.group_result(ht_counts, 0, 1);
    let perm = pb.sort(&[(groups.keys, false)]);
    let prio = pb.take(groups.keys, perm);
    let count = pb.take(groups.states[0], perm);
    pb.output("o_orderpriority", prio);
    pb.output("order_count", count);
    pb.build()
}

/// Decodes executor output into [`Q4Row`]s ordered by priority string.
pub fn decode(catalog: &Catalog, out: &QueryOutput) -> Result<Vec<Q4Row>> {
    let dict = catalog
        .table("orders")
        .map_err(adamant_core::ExecError::from)?
        .column("o_orderpriority")
        .map_err(adamant_core::ExecError::from)?
        .dictionary()
        .expect("dict column")
        .to_vec();
    let codes = out.i64_column("o_orderpriority");
    let counts = out.i64_column("order_count");
    let mut rows: Vec<Q4Row> = codes
        .iter()
        .zip(counts)
        .map(|(&c, &n)| Q4Row {
            priority: dict[c as usize].clone(),
            count: n,
        })
        .collect();
    rows.sort_by(|a, b| a.priority.cmp(&b.priority));
    Ok(rows)
}
