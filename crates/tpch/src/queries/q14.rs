//! TPC-H Q14 — promotion effect.
//!
//! Exercises build-side *derived* payloads (the PROMO indicator is computed
//! on the `part` stream and materialized into the join table) and two
//! block aggregations over one probe pipeline:
//!
//! ```sql
//! SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
//!                          THEN l_extendedprice * (1 - l_discount)
//!                          ELSE 0 END)
//!               / sum(l_extendedprice * (1 - l_discount))
//! FROM lineitem JOIN part ON l_partkey = p_partkey
//! WHERE l_shipdate >= DATE '1995-09-01'
//!   AND l_shipdate <  DATE '1995-10-01';
//! ```

use adamant_core::error::Result;
use adamant_core::graph::PrimitiveGraph;
use adamant_core::result::QueryOutput;
use adamant_device::device::DeviceId;
use adamant_plan::prelude::*;
use adamant_storage::datatype::date_to_days;
use adamant_storage::prelude::Catalog;
use adamant_task::params::AggFunc;

/// Columns Q14 reads.
pub const COLUMNS: &[(&str, &str)] = &[
    ("lineitem", "l_partkey"),
    ("lineitem", "l_shipdate"),
    ("lineitem", "l_extendedprice"),
    ("lineitem", "l_discount"),
    ("part", "p_partkey"),
    ("part", "p_type"),
];

/// Builds the Q14 primitive graph.
pub fn plan(device: DeviceId, catalog: &Catalog) -> Result<PrimitiveGraph> {
    let lo = date_to_days(1995, 9, 1) as i64;
    let hi = date_to_days(1995, 10, 1) as i64; // exclusive
    let part_table = catalog
        .table("part")
        .map_err(adamant_core::ExecError::from)?;
    let ptype = part_table
        .column("p_type")
        .map_err(adamant_core::ExecError::from)?;
    // `LIKE 'PROMO%'` over a dictionary column = the set of codes whose
    // entry has the prefix (prefix matching is a dictionary lookup).
    let promo_codes: Vec<i64> = ptype
        .dictionary()
        .expect("dict column")
        .iter()
        .enumerate()
        .filter(|(_, t)| t.starts_with("PROMO"))
        .map(|(c, _)| c as i64)
        .collect();
    assert!(
        !promo_codes.is_empty(),
        "generator always emits PROMO types"
    );
    let n_part = part_table.row_count();

    let mut pb = PlanBuilder::new(device);

    // Pipeline 1: parts with a derived PROMO indicator as join payload.
    let mut part = pb.scan("part", &["p_partkey", "p_type"]);
    let mut promo_expr = Expr::col("p_type").eq_const(promo_codes[0]);
    for &c in &promo_codes[1..] {
        promo_expr = promo_expr.add(Expr::col("p_type").eq_const(c));
    }
    part.project(&mut pb, "is_promo", promo_expr)?;
    let ht = part.hash_build(&mut pb, "p_partkey", &["is_promo"], n_part + 8)?;

    // Pipeline 2: lineitems in the ship-date window probe and aggregate.
    let mut li = pb.scan(
        "lineitem",
        &["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    );
    li.filter(&mut pb, Predicate::between("l_shipdate", lo, hi - 1))?;
    li.project(
        &mut pb,
        "rev",
        Expr::col("l_extendedprice").mul(Expr::lit(100).sub(Expr::col("l_discount"))),
    )?;
    li.hash_probe(&mut pb, "l_partkey", ht, &["is_promo"])?;
    // promo_rev mixes a raw projection with a joined payload — the plan
    // layer materializes `rev` through the join chain automatically.
    li.project(
        &mut pb,
        "promo_rev",
        Expr::col("rev").mul(Expr::col("is_promo")),
    )?;
    let rev = li.materialized(&mut pb, "rev")?;
    let promo_rev = li.materialized(&mut pb, "promo_rev")?;
    let total = pb.agg_block(rev, AggFunc::Sum, "total_revenue");
    let promo = pb.agg_block(promo_rev, AggFunc::Sum, "promo_revenue");
    pb.output("total_revenue", total);
    pb.output("promo_revenue", promo);
    pb.build()
}

/// Decodes executor output into `(promo_revenue, total_revenue)` scaled
/// integers; `promo_percent` computes the reported percentage.
pub fn decode(out: &QueryOutput) -> (i64, i64) {
    (
        out.i64_column("promo_revenue")[0],
        out.i64_column("total_revenue")[0],
    )
}

/// The percentage Q14 reports.
pub fn promo_percent(promo: i64, total: i64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * promo as f64 / total as f64
    }
}
