//! Logical rewrite passes: constant folding, predicate pushdown, range
//! merging and projection pruning.
//!
//! A freshly bound [`BoundQuery`] keeps every WHERE conjunct in one
//! unrouted list and scans every column of every table. [`rewrite`] runs
//! the passes that normalize it into the shape [`crate::lower`] expects:
//! scalar expressions with literal subtrees folded, each conjunct routed to
//! the single scan it covers, the bounds a conjunction puts on one column
//! merged into one two-sided filter, and per-scan column sets shrunk to
//! what the plan actually reads (the engine's late-materialization design
//! makes over-scanning pure waste).

use crate::error::{SqlError, SqlResult};
use crate::logical::{BoundQuery, BoundSelect};
use adamant_plan::expr::{Expr, Predicate};
use adamant_task::params::CmpOp;

/// Runs all rewrite passes in order.
pub fn rewrite(q: &mut BoundQuery) -> SqlResult<()> {
    fold_constants(q);
    push_down_predicates(q)?;
    merge_ranges(q);
    prune_projections(q);
    Ok(())
}

/// Folds literal subtrees in every scalar expression, mirroring the
/// engine's wrapping arithmetic and guarded division (`x / 0 = 0`).
pub fn fold_constants(q: &mut BoundQuery) {
    match &mut q.select {
        BoundSelect::Plain(items) => {
            for item in items {
                item.expr = fold_expr(item.expr.clone());
            }
        }
        BoundSelect::Aggregate { aggs, .. } => {
            for agg in aggs {
                if let Some(e) = agg.arg.take() {
                    agg.arg = Some(fold_expr(e));
                }
            }
        }
    }
}

fn fold_expr(e: Expr) -> Expr {
    match e {
        Expr::Add(l, r) => binary(fold_expr(*l), fold_expr(*r), Expr::Add, i64::wrapping_add),
        Expr::Sub(l, r) => binary(fold_expr(*l), fold_expr(*r), Expr::Sub, i64::wrapping_sub),
        Expr::Mul(l, r) => binary(fold_expr(*l), fold_expr(*r), Expr::Mul, i64::wrapping_mul),
        Expr::Div(l, r) => binary(fold_expr(*l), fold_expr(*r), Expr::Div, |a, b| {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }),
        Expr::Indicator(inner, op, v) => {
            let inner = fold_expr(*inner);
            if let Expr::Lit(a) = inner {
                Expr::lit(op.apply(a, v))
            } else {
                Expr::Indicator(Box::new(inner), op, v)
            }
        }
        leaf @ (Expr::Col(_) | Expr::Lit(_)) => leaf,
    }
}

fn binary(
    l: Expr,
    r: Expr,
    rebuild: fn(Box<Expr>, Box<Expr>) -> Expr,
    fold: fn(i64, i64) -> i64,
) -> Expr {
    if let (Expr::Lit(a), Expr::Lit(b)) = (&l, &r) {
        return Expr::lit(fold(*a, *b));
    }
    rebuild(Box::new(l), Box::new(r))
}

/// Routes every unrouted conjunct to the single scan whose columns it
/// reads. The engine applies filters before joins (filters build the
/// pipeline's selection bitmap), so a conjunct spanning several tables has
/// no home — it gets a typed `Unsupported` error rather than a silently
/// wrong plan.
pub fn push_down_predicates(q: &mut BoundQuery) -> SqlResult<()> {
    let conjuncts = std::mem::take(&mut q.conjuncts);
    for pred in conjuncts {
        let tables = q.pred_tables(&pred);
        match tables.len() {
            1 => {
                let t = *tables.iter().next().expect("len checked");
                q.scan_preds[t].push(pred);
            }
            _ => {
                return Err(SqlError::unsupported(
                    "WHERE conjuncts spanning multiple tables (beyond the join \
                     keys) are not supported",
                    q.span,
                ))
            }
        }
    }
    Ok(())
}

/// Merges the bounds a conjunction puts on one column (`<`, `<=`, `>`,
/// `>=`, `=` and BETWEEN) into one BETWEEN with the tightest bounds, at the
/// place of the column's first bound: `d >= a AND d < b` lowers to one
/// two-sided `FILTER_BITMAP` instead of two filters and a `BITMAP_OP`. A
/// column with a single bound keeps it as written. Runs over every routed
/// scan conjunct list, the EXISTS subquery's conjuncts and each AND nested
/// under an OR.
pub fn merge_ranges(q: &mut BoundQuery) {
    for preds in &mut q.scan_preds {
        merge_conjuncts(preds);
    }
    if let Some(ex) = &mut q.exists {
        merge_conjuncts(&mut ex.conjuncts);
    }
}

fn merge_conjuncts(preds: &mut Vec<Predicate>) {
    preds.iter_mut().for_each(merge_nested);
    let mut i = 0;
    while i < preds.len() {
        let Some((_, mut range)) = bound_of(&preds[i]) else {
            i += 1;
            continue;
        };
        let mut merged = false;
        let mut j = i + 1;
        while j < preds.len() {
            match (bound_of(&preds[i]), bound_of(&preds[j])) {
                (Some((a, _)), Some((b, (lo, hi)))) if a == b => {
                    // Intersect. An empty range (lo > hi) stays empty: max
                    // and min never re-open it.
                    range = (range.0.max(lo), range.1.min(hi));
                    merged = true;
                }
                _ => {
                    j += 1;
                    continue;
                }
            }
            preds.remove(j);
        }
        if merged {
            let col = bound_of(&preds[i]).map_or(String::new(), |(c, _)| c.to_string());
            preds[i] = Predicate::between(col, range.0, range.1);
        }
        i += 1;
    }
}

fn merge_nested(p: &mut Predicate) {
    match p {
        Predicate::And(ps) => merge_conjuncts(ps),
        Predicate::Or(ps) => ps.iter_mut().for_each(merge_nested),
        Predicate::Cmp { .. } | Predicate::CmpCols { .. } => {}
    }
}

/// The inclusive range `lo..=hi` a leaf admits on its column. A bound past
/// the end of `i64` (`> i64::MAX`, `< i64::MIN`) admits nothing: `(1, 0)`,
/// never a wrapped bound.
fn bound_of(p: &Predicate) -> Option<(&str, (i64, i64))> {
    const EMPTY: (i64, i64) = (1, 0);
    let Predicate::Cmp {
        col,
        cmp,
        value: v,
        hi,
    } = p
    else {
        return None;
    };
    let range = match cmp {
        CmpOp::Lt => v.checked_sub(1).map_or(EMPTY, |h| (i64::MIN, h)),
        CmpOp::Le => (i64::MIN, *v),
        CmpOp::Gt => v.checked_add(1).map_or(EMPTY, |l| (l, i64::MAX)),
        CmpOp::Ge => (*v, i64::MAX),
        CmpOp::Eq => (*v, *v),
        CmpOp::Between => (*v, *hi),
        CmpOp::Ne => return None,
    };
    Some((col, range))
}

/// Shrinks each scan's column set to what the plan actually reads. A table
/// referenced by nothing downstream (e.g. `SELECT COUNT(*) FROM t`) keeps
/// one arbitrary column so its scan still drives the pipeline.
pub fn prune_projections(q: &mut BoundQuery) {
    let mut needed = q.required_columns();
    for (t, set) in needed.iter_mut().enumerate() {
        if set.is_empty() {
            if let Some((col, _)) = q.col_table.iter().find(|(_, &owner)| owner == t) {
                set.insert(col.clone());
            }
        }
    }
    q.scan_cols = needed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind;
    use crate::parser::parse;
    use adamant_storage::catalog::Catalog;
    use adamant_storage::column::Column;
    use adamant_storage::table::Table;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            Table::new(
                "t",
                vec![
                    Column::from_i64("a", vec![1, 2, 3]),
                    Column::from_i64("b", vec![4, 5, 6]),
                    Column::from_i64("c", vec![7, 8, 9]),
                ],
            )
            .unwrap(),
        );
        c.register(
            Table::new(
                "u",
                vec![
                    Column::from_i64("k", vec![1, 2]),
                    Column::from_i64("v", vec![10, 20]),
                ],
            )
            .unwrap(),
        );
        c
    }

    fn bound(sql: &str) -> BoundQuery {
        bind(&parse(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn folds_literal_subtrees() {
        let mut q = bound("SELECT a * (2 + 3) AS x FROM t");
        fold_constants(&mut q);
        match &q.select {
            BoundSelect::Plain(items) => {
                assert_eq!(items[0].expr, Expr::col("a").mul(Expr::lit(5)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn folds_division_by_zero_to_zero() {
        let mut q = bound("SELECT a + (7 / 0) AS x FROM t");
        fold_constants(&mut q);
        match &q.select {
            BoundSelect::Plain(items) => {
                assert_eq!(items[0].expr, Expr::col("a").add(Expr::lit(0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pushdown_routes_per_table() {
        let mut q = bound("SELECT a, v FROM t JOIN u ON k = a WHERE b > 1 AND v < 100");
        push_down_predicates(&mut q).unwrap();
        assert!(q.conjuncts.is_empty());
        assert_eq!(q.scan_preds[0].len(), 1);
        assert_eq!(q.scan_preds[1].len(), 1);
    }

    #[test]
    fn cross_table_conjunct_is_unsupported() {
        let mut q = bound("SELECT a, v FROM t JOIN u ON k = a WHERE b < v");
        let err = push_down_predicates(&mut q).unwrap_err();
        assert_eq!(err.kind, crate::error::SqlErrorKind::Unsupported);
    }

    fn scan_preds(sql: &str) -> Vec<Predicate> {
        let mut q = bound(sql);
        rewrite(&mut q).unwrap();
        q.scan_preds[0].clone()
    }

    #[test]
    fn bounds_on_one_column_merge_into_one_between() {
        assert_eq!(
            scan_preds("SELECT a FROM t WHERE a >= 2 AND b = 1 AND a < 5"),
            vec![
                Predicate::between("a", 2, 4),
                Predicate::cmp("b", CmpOp::Eq, 1)
            ]
        );
        // Three bounds keep the tightest; a lone bound stays as written.
        assert_eq!(
            scan_preds("SELECT a FROM t WHERE a > 1 AND a BETWEEN 0 AND 9 AND a <= 6 AND b < 3"),
            vec![
                Predicate::between("a", 2, 6),
                Predicate::cmp("b", CmpOp::Lt, 3)
            ]
        );
        // An AND under an OR merges too.
        assert_eq!(
            scan_preds("SELECT a FROM t WHERE (a >= 2 AND a <= 2) OR b = 1"),
            vec![Predicate::or(vec![
                Predicate::and(vec![Predicate::between("a", 2, 2)]),
                Predicate::cmp("b", CmpOp::Eq, 1)
            ])]
        );
    }

    #[test]
    fn bounds_past_the_i64_ends_admit_nothing() {
        for sql in [
            "SELECT a FROM t WHERE a > 9223372036854775807 AND a < 5",
            "SELECT a FROM t WHERE a >= 0 AND a < -9223372036854775808",
        ] {
            match &scan_preds(sql)[0] {
                Predicate::Cmp {
                    cmp: CmpOp::Between,
                    value,
                    hi,
                    ..
                } => assert!(value > hi, "{sql}: empty, not wrapped"),
                other => panic!("{sql}: {other:?}"),
            }
        }
    }

    #[test]
    fn pruning_keeps_only_referenced_columns() {
        let mut q = bound("SELECT a + b AS x FROM t WHERE c > 7");
        rewrite(&mut q).unwrap();
        let cols: Vec<&str> = q.scan_cols[0].iter().map(|s| s.as_str()).collect();
        assert_eq!(cols, vec!["a", "b", "c"]);
    }

    #[test]
    fn count_star_keeps_one_driver_column() {
        let mut q = bound("SELECT COUNT(*) AS n FROM t");
        rewrite(&mut q).unwrap();
        assert_eq!(q.scan_cols[0].len(), 1);
    }
}
