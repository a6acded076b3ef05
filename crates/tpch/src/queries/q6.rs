//! TPC-H Q6 — revenue forecast (the paper's "heavy aggregation" query).
//!
//! ```sql
//! SELECT sum(l_extendedprice * l_discount) AS revenue
//! FROM lineitem
//! WHERE l_shipdate >= DATE '1994-01-01'
//!   AND l_shipdate <  DATE '1995-01-01'
//!   AND l_discount BETWEEN 0.05 AND 0.07
//!   AND l_quantity < 24;
//! ```
//!
//! Lowered shape (paper Fig. 7-middle): three filters → bitmap AND chain →
//! map (`price * disc`) → materialize → block-sum. One pipeline.

use adamant_core::error::Result;
use adamant_core::graph::PrimitiveGraph;
use adamant_core::result::QueryOutput;
use adamant_device::device::DeviceId;
use adamant_plan::prelude::*;
use adamant_storage::datatype::date_to_days;
use adamant_storage::prelude::Catalog;
use adamant_task::params::{AggFunc, CmpOp};

/// Columns Q6 reads.
pub const COLUMNS: &[(&str, &str)] = &[
    ("lineitem", "l_shipdate"),
    ("lineitem", "l_discount"),
    ("lineitem", "l_quantity"),
    ("lineitem", "l_extendedprice"),
];

/// Builds the Q6 primitive graph.
pub fn plan(device: DeviceId, _catalog: &Catalog) -> Result<PrimitiveGraph> {
    let lo = date_to_days(1994, 1, 1) as i64;
    let hi = date_to_days(1995, 1, 1) as i64;
    let mut pb = PlanBuilder::new(device);
    let mut li = pb.scan(
        "lineitem",
        &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    );
    li.filter(
        &mut pb,
        Predicate::and(vec![
            Predicate::between("l_shipdate", lo, hi - 1),
            Predicate::between("l_discount", 5, 7),
            Predicate::cmp("l_quantity", CmpOp::Lt, 24),
        ]),
    )?;
    li.project(
        &mut pb,
        "rev",
        Expr::col("l_extendedprice").mul(Expr::col("l_discount")),
    )?;
    let rev = li.materialized(&mut pb, "rev")?;
    let sum = pb.agg_block(rev, AggFunc::Sum, "q6_revenue");
    pb.output("revenue", sum);
    pb.build()
}

/// Decodes the executor output into the scaled revenue sum.
pub fn decode(out: &QueryOutput) -> i64 {
    out.i64_column("revenue")[0]
}
