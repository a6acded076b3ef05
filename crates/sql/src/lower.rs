//! Physical lowering: [`BoundQuery`] → [`PrimitiveGraph`].
//!
//! The lowering reuses the same [`PlanBuilder`]/[`Stream`] machinery as the
//! hand-built TPC-H plans, so SQL queries inherit every downstream layer
//! unchanged — placement, chunked scheduling, fault recovery, residency
//! caching and device membership all operate on the produced graph exactly
//! as they do on hand-written ones.
//!
//! Join order is a greedy left fold with a build-side choice per join: the
//! smaller side (by bind-time row count) builds the hash table, the larger
//! side streams through `HASH_PROBE`. This reproduces the paper's TPC-H
//! decompositions (e.g. Q3: customer → orders → lineitem with the first
//! two building). Aggregation keys over several GROUP BY columns are
//! packed into one integer key using the binder's per-column value ranges;
//! group output is always sorted (ORDER BY keys first, then the group key
//! ascending as a tie-break) so results are deterministic across device
//! models and chunk sizes.

use crate::error::{SqlError, SqlResult};
use crate::logical::{BoundQuery, BoundSelect, ColumnDecode, OutputSource};
use adamant_core::error::ExecError;
use adamant_core::graph::{DataRef, PrimitiveGraph};
use adamant_device::device::DeviceId;
use adamant_plan::expr::{Expr, Predicate};
use adamant_plan::stream::{PlanBuilder, Stream};
use adamant_task::hashtable::EMPTY_KEY;
use std::collections::BTreeSet;

/// One declared output column of a compiled query.
#[derive(Clone, Debug)]
pub struct OutputColumn {
    /// Output (and graph output) name.
    pub name: String,
    /// How the delivered values decode.
    pub decode: ColumnDecode,
}

/// A SQL query lowered to an executable primitive graph.
#[derive(Debug)]
pub struct CompiledQuery {
    /// The primitive graph, ready for the executor/scheduler.
    pub graph: PrimitiveGraph,
    /// `(table, column)` scan inputs the graph binds, in binding order.
    pub input_columns: Vec<(String, String)>,
    /// Output columns in select-list order.
    pub outputs: Vec<OutputColumn>,
    /// LIMIT row count, applied host-side after decode.
    pub limit: Option<usize>,
    /// True for whole-input aggregates: each output is an accumulator
    /// buffer `[state, rows]` and the result is a single row.
    pub scalar: bool,
}

/// Lowers a rewritten bound query to a primitive graph on `device`.
///
/// Expects [`crate::rewrite::rewrite`] to have run: all WHERE conjuncts
/// routed to scans and projection pruning applied.
pub fn lower(q: &BoundQuery, device: DeviceId) -> SqlResult<CompiledQuery> {
    if !q.conjuncts.is_empty() {
        return Err(SqlError::lower(
            "query has unrouted predicates; run the rewrite passes first",
            q.span,
        ));
    }
    Lowerer { q, device }.run()
}

struct Lowerer<'a> {
    q: &'a BoundQuery,
    device: DeviceId,
}

impl<'a> Lowerer<'a> {
    fn err(&self, e: ExecError) -> SqlError {
        SqlError::lower(
            format!("cannot lower to a primitive graph: {e}"),
            self.q.span,
        )
    }

    fn run(self) -> SqlResult<CompiledQuery> {
        let q = self.q;
        let mut pb = PlanBuilder::new(self.device);
        let mut input_columns = Vec::new();

        let post = q.post_scan_columns();

        // Plan the join chain first: per join, does the new table build
        // (stream keeps probing) or does the accumulated stream build (the
        // new table's scan becomes the stream)? Pure row-count arithmetic,
        // no nodes emitted yet.
        let mut members: BTreeSet<usize> = BTreeSet::new();
        members.insert(0);
        let mut rows_est = q.tables[0].rows;
        // For each join: (new_table_builds, payload column names).
        let mut orient: Vec<(bool, Vec<String>)> = Vec::with_capacity(q.joins.len());
        for (i, _) in q.joins.iter().enumerate() {
            let ni = i + 1;
            let table_rows = q.tables[ni].rows;
            if table_rows <= rows_est {
                orient.push((true, post[ni].iter().cloned().collect()));
            } else {
                let payload: BTreeSet<String> = members
                    .iter()
                    .flat_map(|&t| post[t].iter().cloned())
                    .collect();
                orient.push((false, payload.into_iter().collect()));
            }
            members.insert(ni);
            rows_est = rows_est.max(table_rows);
        }

        // Emit every independent build-side pipeline FIRST — pipelines
        // execute in creation order, so a hash table must be built by an
        // earlier pipeline than the one probing it (the hand-built plans
        // follow the same discipline).
        let mut built: Vec<Option<DataRef>> = vec![None; q.joins.len()];
        for (i, join) in q.joins.iter().enumerate() {
            let (new_builds, payload) = &orient[i];
            if *new_builds {
                let ni = i + 1;
                let mut build = self.scan_table(&mut pb, ni, &mut input_columns)?;
                let payload: Vec<&str> = payload.iter().map(|s| s.as_str()).collect();
                let ht = build
                    .hash_build(
                        &mut pb,
                        &join.table_key,
                        &payload,
                        q.tables[ni].rows / 4 + 8,
                    )
                    .map_err(|e| self.err(e))?;
                built[i] = Some(ht);
            }
        }
        let ht_exists = match &q.exists {
            Some(ex) => {
                let mut inner_cols: BTreeSet<&str> =
                    ex.conjuncts.iter().flat_map(Predicate::columns).collect();
                inner_cols.insert(&ex.inner_key);
                let cols: Vec<&str> = inner_cols.into_iter().collect();
                for c in &cols {
                    input_columns.push((ex.table.clone(), c.to_string()));
                }
                let mut inner = pb.scan(ex.table.clone(), &cols);
                if !ex.conjuncts.is_empty() {
                    inner
                        .filter(&mut pb, Predicate::and(ex.conjuncts.clone()))
                        .map_err(|e| self.err(e))?;
                }
                let ht = inner
                    .hash_build(&mut pb, &ex.inner_key, &[], ex.rows / 4 + 8)
                    .map_err(|e| self.err(e))?;
                Some(ht)
            }
            None => None,
        };

        // Now the probe chain: stream over table 0, folding joins left to
        // right; a stream-builds join closes the current segment with its
        // own hash table and re-opens the stream on the new table's scan.
        let mut stream = self.scan_table(&mut pb, 0, &mut input_columns)?;
        let mut seg_rows = q.tables[0].rows;
        // Index of the table whose scan the stream currently runs over —
        // the select stage needs a raw column of *that* scan as the
        // COUNT(*) driver.
        let mut stream_table = 0;
        for (i, join) in q.joins.iter().enumerate() {
            let ni = i + 1;
            let (new_builds, payload) = &orient[i];
            let payload: Vec<&str> = payload.iter().map(|s| s.as_str()).collect();
            if *new_builds {
                let ht = built[i].expect("build emitted above");
                stream
                    .hash_probe(&mut pb, &join.stream_key, ht, &payload)
                    .map_err(|e| self.err(e))?;
            } else {
                let ht = stream
                    .hash_build(&mut pb, &join.stream_key, &payload, seg_rows / 4 + 8)
                    .map_err(|e| self.err(e))?;
                stream = self.scan_table(&mut pb, ni, &mut input_columns)?;
                stream
                    .hash_probe(&mut pb, &join.table_key, ht, &payload)
                    .map_err(|e| self.err(e))?;
                stream_table = ni;
            }
            seg_rows = seg_rows.max(q.tables[ni].rows);
        }

        // EXISTS semi-join (single-table outer queries only, per binder).
        if let Some(ex) = &q.exists {
            stream
                .semi_join(&mut pb, &ex.outer_key, ht_exists.expect("built above"))
                .map_err(|e| self.err(e))?;
        }

        let (outputs, scalar) = self.lower_select(&mut pb, &mut stream, stream_table, rows_est)?;

        let graph = pb.build().map_err(|e| self.err(e))?;
        Ok(CompiledQuery {
            graph,
            input_columns,
            outputs,
            limit: q.limit,
            scalar,
        })
    }

    /// Opens the scan for table `t` (pruned columns, routed predicates).
    fn scan_table(
        &self,
        pb: &mut PlanBuilder,
        t: usize,
        input_columns: &mut Vec<(String, String)>,
    ) -> SqlResult<Stream> {
        let q = self.q;
        let name = &q.tables[t].name;
        let cols: Vec<&str> = q.scan_cols[t].iter().map(|s| s.as_str()).collect();
        if cols.is_empty() {
            return Err(SqlError::lower(
                format!("scan of `{name}` reads no columns; run projection pruning"),
                q.span,
            ));
        }
        for c in &cols {
            input_columns.push((name.clone(), c.to_string()));
        }
        let mut stream = pb.scan(name.clone(), &cols);
        if !q.scan_preds[t].is_empty() {
            stream
                .filter(pb, Predicate::and(q.scan_preds[t].clone()))
                .map_err(|e| self.err(e))?;
        }
        Ok(stream)
    }

    fn lower_select(
        &self,
        pb: &mut PlanBuilder,
        stream: &mut Stream,
        stream_table: usize,
        rows_est: usize,
    ) -> SqlResult<(Vec<OutputColumn>, bool)> {
        let q = self.q;
        match &q.select {
            BoundSelect::Plain(items) => {
                for (i, item) in items.iter().enumerate() {
                    let r = match &item.expr {
                        Expr::Col(c) => stream.materialized(pb, c).map_err(|e| self.err(e))?,
                        expr => {
                            // Project under an internal name so an alias can
                            // never shadow a real scan column.
                            let tmp = format!("__out{i}");
                            stream
                                .project(pb, &tmp, expr.clone())
                                .map_err(|e| self.err(e))?;
                            stream.materialized(pb, &tmp).map_err(|e| self.err(e))?
                        }
                    };
                    pb.output(item.name.clone(), r);
                }
                let outputs = items
                    .iter()
                    .map(|i| OutputColumn {
                        name: i.name.clone(),
                        decode: i.decode.clone(),
                    })
                    .collect();
                Ok((outputs, false))
            }
            BoundSelect::Aggregate {
                group,
                aggs,
                outputs,
            } => {
                // Aggregate inputs: a bare column feeds straight in, a
                // derived expression is projected first. COUNT(*) folds over
                // an arbitrary driver column (the kernel ignores the value).
                let driver = q.scan_cols[stream_table]
                    .iter()
                    .next()
                    .cloned()
                    .ok_or_else(|| SqlError::lower("scan reads no columns", q.span))?;
                let mut agg_inputs = Vec::new();
                for (i, a) in aggs.iter().enumerate() {
                    let input = match &a.arg {
                        None => driver.clone(),
                        Some(Expr::Col(c)) => c.clone(),
                        Some(expr) => {
                            let tmp = format!("__agg{i}");
                            stream
                                .project(pb, &tmp, expr.clone())
                                .map_err(|e| self.err(e))?;
                            tmp
                        }
                    };
                    agg_inputs.push(input);
                }

                if group.is_empty() {
                    // Whole-input aggregation: one AGG_BLOCK per aggregate.
                    // Materialize every input BEFORE emitting any AGG_BLOCK:
                    // AGG_BLOCK is a pipeline breaker, so a materialization
                    // emitted after the first one would re-open the scan as a
                    // fresh streaming pipeline and gather per-chunk values
                    // against the closed pipeline's whole-buffer positions.
                    let mut mats = Vec::with_capacity(aggs.len());
                    for input in &agg_inputs {
                        mats.push(stream.materialized(pb, input).map_err(|e| self.err(e))?);
                    }
                    for (a, r) in aggs.iter().zip(mats) {
                        let acc = pb.agg_block(r, a.func, &a.name);
                        pb.output(a.name.clone(), acc);
                    }
                    let out_cols = outputs
                        .iter()
                        .map(|o| OutputColumn {
                            name: o.name.clone(),
                            decode: ColumnDecode::Int,
                        })
                        .collect();
                    return Ok((out_cols, true));
                }

                // Grouped aggregation: single-column keys group directly,
                // multi-column keys pack into one integer using the
                // binder's value ranges.
                let (key_col, payload): (String, Vec<&str>) = if group.len() == 1 {
                    if group[0].lo == EMPTY_KEY {
                        return Err(SqlError::unsupported(
                            "GROUP BY value range collides with the hash sentinel",
                            q.span,
                        ));
                    }
                    (group[0].column.clone(), Vec::new())
                } else {
                    let mut span_product: i128 = 1;
                    let mut key_expr: Option<Expr> = None;
                    for g in group {
                        let span = (g.hi as i128 - g.lo as i128 + 1).max(1);
                        span_product = span_product.saturating_mul(span);
                        if span_product > i64::MAX as i128 {
                            return Err(SqlError::unsupported(
                                "combined GROUP BY value range is too large to \
                                 pack into one key",
                                q.span,
                            ));
                        }
                        let mut part = Expr::col(g.column.clone());
                        if g.lo != 0 {
                            part = part.sub(Expr::lit(g.lo));
                        }
                        key_expr = Some(match key_expr {
                            None => part,
                            Some(acc) => acc.mul(Expr::lit(span as i64)).add(part),
                        });
                    }
                    let key_expr = key_expr.expect("non-empty group");
                    stream
                        .project(pb, "__gkey", key_expr)
                        .map_err(|e| self.err(e))?;
                    (
                        "__gkey".to_string(),
                        group.iter().map(|g| g.column.as_str()).collect(),
                    )
                };

                let agg_specs: Vec<(adamant_task::params::AggFunc, &str)> = aggs
                    .iter()
                    .zip(&agg_inputs)
                    .map(|(a, input)| (a.func, input.as_str()))
                    .collect();
                let ht = stream
                    .hash_agg(pb, &key_col, &payload, &agg_specs, rows_est / 16 + 8)
                    .map_err(|e| self.err(e))?;
                let groups = pb.group_result(ht, payload.len(), aggs.len());

                let group_ref = |gi: usize| -> DataRef {
                    if payload.is_empty() {
                        groups.keys
                    } else {
                        groups.payloads[gi]
                    }
                };

                // Sort: ORDER BY keys first, then the (unique) group key
                // ascending so ties — and unordered queries — come out
                // deterministic across devices and chunk sizes.
                let mut sort_keys: Vec<(DataRef, bool)> = q
                    .order_by
                    .iter()
                    .map(|o| {
                        let r = match o.source {
                            OutputSource::Group(gi) => group_ref(gi),
                            OutputSource::Agg(ai) => groups.states[ai],
                        };
                        (r, o.desc)
                    })
                    .collect();
                sort_keys.push((groups.keys, false));
                let perm = pb.sort(&sort_keys);

                let mut out_cols = Vec::new();
                for o in outputs {
                    let (r, decode) = match o.source {
                        OutputSource::Group(gi) => (group_ref(gi), group[gi].decode.clone()),
                        OutputSource::Agg(ai) => (groups.states[ai], ColumnDecode::Int),
                    };
                    let taken = pb.take(r, perm);
                    pb.output(o.name.clone(), taken);
                    out_cols.push(OutputColumn {
                        name: o.name.clone(),
                        decode,
                    });
                }
                Ok((out_cols, false))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind;
    use crate::parser::parse;
    use crate::rewrite::rewrite;
    use adamant_core::pipeline::PipelineSet;
    use adamant_storage::catalog::Catalog;
    use adamant_storage::column::Column;
    use adamant_storage::table::Table;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            Table::new(
                "small",
                vec![
                    Column::from_i64("s_key", vec![1, 2]),
                    Column::from_i64("s_val", vec![5, 6]),
                ],
            )
            .unwrap(),
        );
        c.register(
            Table::new(
                "big",
                vec![
                    Column::from_i64("b_key", vec![1, 1, 2, 2, 3]),
                    Column::from_i64("b_val", vec![10, 20, 30, 40, 50]),
                    Column::from_i64("b_flag", vec![0, 1, 0, 1, 0]),
                ],
            )
            .unwrap(),
        );
        c.register(
            Table::new(
                "other",
                vec![
                    Column::from_i64("o_key", vec![1, 3]),
                    Column::from_i64("o_w", vec![100, 300]),
                ],
            )
            .unwrap(),
        );
        c
    }

    fn compiled(sql: &str) -> CompiledQuery {
        let cat = catalog();
        let mut q = bind(&parse(sql).unwrap(), &cat).unwrap();
        rewrite(&mut q).unwrap();
        lower(&q, DeviceId(0)).unwrap()
    }

    #[test]
    fn scalar_aggregate_lowers_to_agg_block() {
        let c = compiled("SELECT SUM(b_val) AS total, COUNT(*) AS n FROM big");
        assert!(c.scalar);
        assert_eq!(c.outputs.len(), 2);
        assert!(
            c.graph
                .nodes()
                .iter()
                .filter(|n| n.label.contains("agg_block"))
                .count()
                == 2,
            "one AGG_BLOCK per aggregate"
        );
        PipelineSet::split(&c.graph).unwrap();
    }

    #[test]
    fn grouped_aggregate_sorts_deterministically() {
        let c = compiled(
            "SELECT b_key, SUM(b_val) AS total FROM big GROUP BY b_key ORDER BY total DESC",
        );
        assert!(!c.scalar);
        assert_eq!(
            c.outputs
                .iter()
                .map(|o| o.name.as_str())
                .collect::<Vec<_>>(),
            vec!["b_key", "total"]
        );
        // hash_agg breaker, then an export/sort/take stage.
        assert!(c.graph.nodes().iter().any(|n| n.label.starts_with("sort")));
        assert!(PipelineSet::split(&c.graph).unwrap().len() >= 2);
    }

    #[test]
    fn smaller_side_builds_the_hash_table() {
        // `small` (2 rows) joins `big` (5 rows): small must build.
        let c = compiled("SELECT SUM(b_val) AS total FROM big JOIN small ON s_key = b_key");
        let builds: Vec<_> = c
            .graph
            .nodes()
            .iter()
            .filter(|n| n.label.starts_with("hash_build"))
            .collect();
        assert_eq!(builds.len(), 1);
        assert!(
            builds[0].label.contains("s_key"),
            "small side builds: {}",
            builds[0].label
        );
    }

    #[test]
    fn build_side_flips_when_stream_is_smaller() {
        // FROM small JOIN big: the accumulated stream (small) builds and
        // big's scan becomes the probe stream.
        let c = compiled("SELECT SUM(b_val) AS total FROM small JOIN big ON b_key = s_key");
        let builds: Vec<_> = c
            .graph
            .nodes()
            .iter()
            .filter(|n| n.label.starts_with("hash_build"))
            .collect();
        assert_eq!(builds.len(), 1);
        assert!(builds[0].label.contains("s_key"), "{}", builds[0].label);
    }

    #[test]
    fn multi_column_group_packs_one_key() {
        let c = compiled("SELECT b_key, b_flag, COUNT(*) AS n FROM big GROUP BY b_key, b_flag");
        assert!(c
            .graph
            .nodes()
            .iter()
            .any(|n| n.label.starts_with("hash_agg(__gkey)")));
        assert_eq!(c.outputs.len(), 3);
    }

    #[test]
    fn input_columns_are_pruned() {
        let c = compiled("SELECT SUM(b_val) AS total FROM big WHERE b_flag = 1");
        let mut cols = c.input_columns.clone();
        cols.sort();
        assert_eq!(
            cols,
            vec![
                ("big".to_string(), "b_flag".to_string()),
                ("big".to_string(), "b_val".to_string()),
            ]
        );
    }

    #[test]
    fn unrouted_predicates_are_rejected() {
        let cat = catalog();
        let q = bind(
            &parse("SELECT s_val FROM small WHERE s_key = 1").unwrap(),
            &cat,
        )
        .unwrap();
        let err = lower(&q, DeviceId(0)).unwrap_err();
        assert_eq!(err.kind, crate::error::SqlErrorKind::Lower);
    }
}
