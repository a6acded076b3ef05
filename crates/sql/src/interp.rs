//! A scalar host interpreter for [`BoundQuery`] — the reference oracle.
//!
//! Evaluates a bound query directly over catalog columns with the same
//! integer semantics as the device kernels (wrapping arithmetic, guarded
//! division, the aggregate identity/fold pairs), and the same output
//! ordering contract as the lowered graphs: aggregate results sort by the
//! ORDER BY keys with the group-value tuple ascending as a tie-break.
//! Randomized soak tests run every generated query through both this
//! interpreter and the full engine and require byte-exact agreement.

use crate::error::{SqlError, SqlResult};
use crate::logical::{BoundQuery, BoundSelect, OutputSource};
use adamant_plan::expr::{Expr, Predicate};
use adamant_storage::catalog::Catalog;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A small columnar working set: named i64 columns of equal length.
struct Rel {
    cols: BTreeMap<String, Vec<i64>>,
    len: usize,
}

impl Rel {
    fn get(&self, name: &str) -> &[i64] {
        self.cols.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Keeps only the rows at `keep` (in order).
    fn select_rows(&mut self, keep: &[usize]) {
        for col in self.cols.values_mut() {
            *col = keep.iter().map(|&i| col[i]).collect();
        }
        self.len = keep.len();
    }
}

/// Evaluates `q` on the host, returning result rows of raw i64 values in
/// select-list order (one row total for whole-input aggregates).
pub fn execute_host(q: &BoundQuery, catalog: &Catalog) -> SqlResult<Vec<Vec<i64>>> {
    let needed = q.required_columns();

    // Scan + per-table predicates.
    let mut rels = Vec::new();
    for (t, bt) in q.tables.iter().enumerate() {
        let mut rel = load(catalog, &bt.name, needed[t].iter().map(|s| s.as_str()), q)?;
        apply_preds(&mut rel, &q.scan_preds[t]);
        rels.push(rel);
    }

    // Left-folded inner joins, stream row order × build row order.
    let mut rels = rels.into_iter();
    let mut stream = rels
        .next()
        .ok_or_else(|| SqlError::lower("query has no tables", q.span))?;
    for (join, build) in q.joins.iter().zip(rels) {
        let mut index: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        for (i, &k) in build.get(&join.table_key).iter().enumerate() {
            index.entry(k).or_default().push(i);
        }
        let stream_keys = stream.get(&join.stream_key).to_vec();
        let mut keep_stream = Vec::new();
        let mut keep_build = Vec::new();
        for (si, k) in stream_keys.iter().enumerate() {
            if let Some(matches) = index.get(k) {
                for &bi in matches {
                    keep_stream.push(si);
                    keep_build.push(bi);
                }
            }
        }
        stream.select_rows(&keep_stream);
        for (name, col) in build.cols {
            let gathered: Vec<i64> = keep_build.iter().map(|&i| col[i]).collect();
            stream.cols.insert(name, gathered);
        }
        stream.len = keep_stream.len();
    }

    // EXISTS semi-join.
    if let Some(ex) = &q.exists {
        let mut cols: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        cols.insert(ex.inner_key.as_str());
        for p in &ex.conjuncts {
            for leaf in p.leaves() {
                match leaf {
                    Predicate::Cmp { col, .. } => {
                        cols.insert(col.as_str());
                    }
                    Predicate::CmpCols { left, right, .. } => {
                        cols.insert(left.as_str());
                        cols.insert(right.as_str());
                    }
                    _ => {}
                }
            }
        }
        let mut inner = load(catalog, &ex.table, cols.into_iter(), q)?;
        apply_preds(&mut inner, &ex.conjuncts);
        let keys: std::collections::BTreeSet<i64> =
            inner.get(&ex.inner_key).iter().copied().collect();
        let keep: Vec<usize> = stream
            .get(&ex.outer_key)
            .iter()
            .enumerate()
            .filter(|(_, k)| keys.contains(k))
            .map(|(i, _)| i)
            .collect();
        stream.select_rows(&keep);
    }

    // Conjuncts not routed to a scan (pre-rewrite queries) apply on the
    // joined rows.
    apply_preds(&mut stream, &q.conjuncts);

    // Select layer.
    match &q.select {
        BoundSelect::Plain(items) => {
            let cols: Vec<Vec<i64>> = items
                .iter()
                .map(|item| eval_expr(&stream, &item.expr))
                .collect();
            let n = q.limit.unwrap_or(usize::MAX).min(stream.len);
            Ok((0..n)
                .map(|i| cols.iter().map(|c| c[i]).collect())
                .collect())
        }
        BoundSelect::Aggregate {
            group,
            aggs,
            outputs,
        } => {
            let arg_cols: Vec<Vec<i64>> = aggs
                .iter()
                .map(|a| match &a.arg {
                    Some(e) => eval_expr(&stream, e),
                    None => vec![0; stream.len],
                })
                .collect();

            if group.is_empty() {
                // Whole-input aggregation: one row (none under `LIMIT 0`),
                // identity on empty input (matching the AGG_BLOCK kernel).
                let mut states: Vec<i64> = aggs.iter().map(|a| a.func.identity()).collect();
                for i in 0..stream.len {
                    for (s, (a, vals)) in states.iter_mut().zip(aggs.iter().zip(&arg_cols)) {
                        *s = a.func.fold(*s, vals[i]);
                    }
                }
                return Ok(std::iter::once(states).take(q.limit.unwrap_or(1)).collect());
            }

            let group_cols: Vec<&[i64]> = group.iter().map(|g| stream.get(&g.column)).collect();
            let mut table: BTreeMap<Vec<i64>, Vec<i64>> = BTreeMap::new();
            for i in 0..stream.len {
                let key: Vec<i64> = group_cols.iter().map(|c| c[i]).collect();
                let states = table
                    .entry(key)
                    .or_insert_with(|| aggs.iter().map(|a| a.func.identity()).collect());
                for (s, (a, vals)) in states.iter_mut().zip(aggs.iter().zip(&arg_cols)) {
                    *s = a.func.fold(*s, vals[i]);
                }
            }

            // BTreeMap iteration is already group-tuple ascending — the
            // engine's tie-break order. Stable-sort by the ORDER BY keys on
            // top of it.
            let mut rows: Vec<(Vec<i64>, Vec<i64>)> = table.into_iter().collect();
            rows.sort_by(|(ka, sa), (kb, sb)| {
                for o in &q.order_by {
                    let (a, b) = match o.source {
                        OutputSource::Group(gi) => (ka[gi], kb[gi]),
                        OutputSource::Agg(ai) => (sa[ai], sb[ai]),
                    };
                    let ord = if o.desc { b.cmp(&a) } else { a.cmp(&b) };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                ka.cmp(kb)
            });

            let n = q.limit.unwrap_or(usize::MAX).min(rows.len());
            Ok(rows[..n]
                .iter()
                .map(|(key, states)| {
                    outputs
                        .iter()
                        .map(|o| match o.source {
                            OutputSource::Group(gi) => key[gi],
                            OutputSource::Agg(ai) => states[ai],
                        })
                        .collect()
                })
                .collect())
        }
    }
}

fn load<'c>(
    catalog: &Catalog,
    table: &str,
    columns: impl Iterator<Item = &'c str>,
    q: &BoundQuery,
) -> SqlResult<Rel> {
    let t = catalog
        .table(table)
        .map_err(|e| SqlError::bind(format!("unknown table `{table}`: {e}"), q.span))?;
    let mut cols = BTreeMap::new();
    for c in columns {
        let data = t
            .column(c)
            .map(|col| col.to_i64_vec())
            .map_err(|e| SqlError::bind(format!("cannot read `{table}.{c}`: {e}"), q.span))?;
        cols.insert(c.to_string(), data);
    }
    Ok(Rel {
        len: t.row_count(),
        cols,
    })
}

fn apply_preds(rel: &mut Rel, preds: &[Predicate]) {
    if preds.is_empty() {
        return;
    }
    let keep: Vec<usize> = (0..rel.len)
        .filter(|&i| preds.iter().all(|p| eval_pred(rel, p, i)))
        .collect();
    rel.select_rows(&keep);
}

fn eval_pred(rel: &Rel, p: &Predicate, i: usize) -> bool {
    match p {
        Predicate::Cmp {
            col,
            cmp,
            value,
            hi,
        } => cmp.eval(rel.get(col)[i], *value, *hi),
        Predicate::CmpCols { left, cmp, right } => cmp.eval(rel.get(left)[i], rel.get(right)[i], 0),
        Predicate::And(ps) => ps.iter().all(|p| eval_pred(rel, p, i)),
        Predicate::Or(ps) => ps.iter().any(|p| eval_pred(rel, p, i)),
    }
}

/// Evaluates `e` element-wise with the kernels' wrapping/guarded integer
/// semantics ([`adamant_task::params::MapOp::apply`]).
fn eval_expr(rel: &Rel, e: &Expr) -> Vec<i64> {
    fn eval_at(rel: &Rel, e: &Expr, i: usize) -> i64 {
        match e {
            Expr::Col(c) => rel.get(c)[i],
            Expr::Lit(v) => *v,
            Expr::Add(a, b) => eval_at(rel, a, i).wrapping_add(eval_at(rel, b, i)),
            Expr::Sub(a, b) => eval_at(rel, a, i).wrapping_sub(eval_at(rel, b, i)),
            Expr::Mul(a, b) => eval_at(rel, a, i).wrapping_mul(eval_at(rel, b, i)),
            Expr::Div(a, b) => {
                let d = eval_at(rel, b, i);
                if d == 0 {
                    0
                } else {
                    eval_at(rel, a, i).wrapping_div(d)
                }
            }
            Expr::Indicator(a, op, c) => op.apply(eval_at(rel, a, i), *c),
        }
    }
    (0..rel.len).map(|i| eval_at(rel, e, i)).collect()
}

/// Convenience wrapper used by tests and the soak oracle: parse, bind and
/// evaluate `sql` on the host (no rewrite passes required — the
/// interpreter accepts the naive form too).
pub fn run_sql_host(sql: &str, catalog: &Catalog) -> SqlResult<Vec<Vec<i64>>> {
    let stmt = crate::parser::parse(sql)?;
    let q = crate::binder::bind(&stmt, catalog)?;
    execute_host(&q, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_storage::column::Column;
    use adamant_storage::table::Table;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            Table::new(
                "t",
                vec![
                    Column::from_i64("k", vec![1, 2, 1, 3, 2]),
                    Column::from_i64("v", vec![10, 20, 30, 40, 50]),
                ],
            )
            .unwrap(),
        );
        c.register(
            Table::new(
                "d",
                vec![
                    Column::from_i64("dk", vec![1, 2]),
                    Column::from_i64("dv", vec![100, 200]),
                ],
            )
            .unwrap(),
        );
        c
    }

    #[test]
    fn plain_projection_with_filter() {
        let rows = run_sql_host("SELECT v * 2 AS x FROM t WHERE k = 1", &catalog()).unwrap();
        assert_eq!(rows, vec![vec![20], vec![60]]);
    }

    #[test]
    fn grouped_aggregate_sorts_by_key() {
        let rows = run_sql_host(
            "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
            &catalog(),
        )
        .unwrap();
        assert_eq!(rows, vec![vec![1, 40, 2], vec![2, 70, 2], vec![3, 40, 1]]);
    }

    #[test]
    fn order_by_desc_with_tiebreak() {
        let rows = run_sql_host(
            "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY n DESC LIMIT 2",
            &catalog(),
        )
        .unwrap();
        // k=1 and k=2 both have n=2; tie-break is key ascending.
        assert_eq!(rows, vec![vec![1, 2], vec![2, 2]]);
    }

    #[test]
    fn scalar_aggregate_on_empty_input_is_identity() {
        let rows = run_sql_host(
            "SELECT SUM(v) AS s, COUNT(*) AS n, MIN(v) AS lo FROM t WHERE k > 100",
            &catalog(),
        )
        .unwrap();
        assert_eq!(rows, vec![vec![0, 0, i64::MAX]]);
    }

    #[test]
    fn join_fans_out_and_filters() {
        let rows = run_sql_host(
            "SELECT SUM(dv) AS s FROM t JOIN d ON dk = k WHERE v < 45",
            &catalog(),
        )
        .unwrap();
        // Rows with k in {1,2} and v<45: v=10 (k=1,dv=100), v=20 (k=2,dv=200),
        // v=30 (k=1,dv=100) → 400.
        assert_eq!(rows, vec![vec![400]]);
    }
}
