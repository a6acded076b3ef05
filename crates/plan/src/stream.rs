//! Lowering relational operations to primitive graphs.
//!
//! [`PlanBuilder`] owns the underlying `GraphBuilder`; [`Stream`] tracks one
//! scan's lowering state — which columns exist in the *raw* domain, the
//! chain of selection bitmaps and join position lists that map raw rows to
//! the current row domain, and a cache of already-materialized columns.
//! Late materialization falls out naturally: a column is only pushed
//! through `MATERIALIZE`/`MATERIALIZE_POSITION` when something consumes it.

use crate::expr::{Expr, Predicate};
use adamant_core::error::{ExecError, Result};
use adamant_core::graph::{DataRef, GraphBuilder, NodeParams, PrimitiveGraph};
use adamant_device::device::DeviceId;
use adamant_task::params::{AggFunc, BitmapOp, MapOp};
use adamant_task::primitive::PrimitiveKind;
use std::collections::BTreeMap;

/// One link in a stream's row-domain chain.
#[derive(Clone, Copy, Debug)]
enum Link {
    /// A selection bitmap: apply with `MATERIALIZE`.
    Sel(DataRef),
    /// A join position list: apply with `MATERIALIZE_POSITION`.
    Pos(DataRef),
}

/// Builds a primitive graph from relational operations.
#[derive(Debug)]
pub struct PlanBuilder {
    gb: GraphBuilder,
    device: DeviceId,
    counter: usize,
}

impl PlanBuilder {
    /// Creates a builder targeting one device.
    pub fn new(device: DeviceId) -> Self {
        PlanBuilder {
            gb: GraphBuilder::new(),
            device,
            counter: 0,
        }
    }

    fn label(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}#{}", self.counter)
    }

    /// Adds a single-output node on the target device and returns its
    /// output. Callers take `label` from [`Self::label`] first, so the `#n`
    /// counter advances in node order.
    fn node(
        &mut self,
        kind: PrimitiveKind,
        params: NodeParams,
        inputs: Vec<DataRef>,
        label: String,
    ) -> DataRef {
        self.gb
            .add(kind, params, inputs, 1, self.device, label)
            .remove(0)
    }

    /// Starts a stream over `table`, registering its columns as chunked
    /// scan inputs. Input binding names are the bare column names.
    pub fn scan(&mut self, table: impl Into<String>, columns: &[&str]) -> Stream {
        let table = table.into();
        let mut cols = BTreeMap::new();
        for &c in columns {
            let r = self.gb.scan_input(table.clone(), c);
            cols.insert(c.to_string(), (r, 0usize));
        }
        Stream {
            scan: table,
            cols,
            chain: Vec::new(),
            cache: BTreeMap::new(),
        }
    }

    /// Block aggregation (no grouping): returns the accumulator ref
    /// (`[state, rows]`).
    pub fn agg_block(&mut self, input: DataRef, agg: AggFunc, label: &str) -> DataRef {
        let label = format!("{label}:{}", self.label("agg_block"));
        self.node(
            PrimitiveKind::AggBlock,
            NodeParams::AggBlock { agg },
            vec![input],
            label,
        )
    }

    /// Exports an aggregation hash table's dense columns.
    pub fn group_result(
        &mut self,
        table: DataRef,
        payload_cols: usize,
        agg_count: usize,
    ) -> GroupResult {
        let label = self.label("agg_export");
        let outs = self.gb.add(
            PrimitiveKind::AggExport,
            NodeParams::AggExport {
                payload_cols,
                agg_count,
            },
            vec![table],
            1 + payload_cols + agg_count,
            self.device,
            label,
        );
        GroupResult {
            keys: outs[0],
            payloads: outs[1..1 + payload_cols].to_vec(),
            states: outs[1 + payload_cols..].to_vec(),
        }
    }

    /// Sorts by the given key columns (`true` = descending); returns the
    /// permutation (a `POSITION` list usable with [`PlanBuilder::take`]).
    pub fn sort(&mut self, keys: &[(DataRef, bool)]) -> DataRef {
        let desc_mask = keys
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, (_, d))| m | ((*d as u64) << i));
        let inputs: Vec<DataRef> = keys.iter().map(|(r, _)| *r).collect();
        let label = self.label("sort");
        self.node(
            PrimitiveKind::Sort,
            NodeParams::Sort { desc_mask },
            inputs,
            label,
        )
    }

    /// Sort-based aggregation (the paper's `SORT_AGG` path, the
    /// alternative to `HASH_AGG` for materialized group-by inputs): sorts
    /// by `keys`, gathers `vals` through the permutation and reduces the
    /// sorted runs. Returns `(group_keys, aggregates)`.
    pub fn sort_agg(&mut self, keys: DataRef, vals: DataRef, agg: AggFunc) -> (DataRef, DataRef) {
        let perm = self.sort(&[(keys, false)]);
        let sorted_keys = self.take(keys, perm);
        let sorted_vals = self.take(vals, perm);
        let label = self.label("sort_agg");
        let outs = self.gb.add(
            PrimitiveKind::SortAgg,
            NodeParams::SortAgg { agg },
            vec![sorted_keys, sorted_vals],
            2,
            self.device,
            label,
        );
        (outs[0], outs[1])
    }

    /// Gathers `values` at `positions` (`MATERIALIZE_POSITION`).
    pub fn take(&mut self, values: DataRef, positions: DataRef) -> DataRef {
        let label = self.label("take");
        self.node(
            PrimitiveKind::MaterializePosition,
            NodeParams::None,
            vec![values, positions],
            label,
        )
    }

    /// Declares a named graph output.
    pub fn output(&mut self, name: impl Into<String>, data: DataRef) {
        self.gb.output(name, data);
    }

    /// Validates and finalizes the primitive graph.
    pub fn build(self) -> Result<PrimitiveGraph> {
        self.gb.build()
    }
}

/// Dense columns exported from a group-by aggregation.
#[derive(Clone, Debug)]
pub struct GroupResult {
    /// Group keys, first-seen order.
    pub keys: DataRef,
    /// Carried payload columns.
    pub payloads: Vec<DataRef>,
    /// Aggregate state columns (one per aggregate function).
    pub states: Vec<DataRef>,
}

/// Lowering state for one scan.
#[derive(Debug)]
pub struct Stream {
    scan: String,
    /// Column name → (ref, index into `chain` from which links still apply).
    cols: BTreeMap<String, (DataRef, usize)>,
    chain: Vec<Link>,
    cache: BTreeMap<String, DataRef>,
}

impl Stream {
    fn raw_col(&self, name: &str) -> Result<DataRef> {
        match self.cols.get(name) {
            Some(&(r, 0)) => Ok(r),
            Some(_) => Err(ExecError::InvalidGraph(format!(
                "column `{name}` is join-derived; project/filter it before the join"
            ))),
            None => Err(ExecError::InvalidGraph(format!(
                "unknown column `{name}` in scan `{}`",
                self.scan
            ))),
        }
    }

    /// Applies a filter predicate. A stream takes one filter, before any
    /// join (predicate pushdown — the standard TPC-H shape): conjoin the
    /// conditions with [`Predicate::and`]. The boolean tree is lowered to
    /// `FILTER_BITMAP`/`FILTER_BITMAP_COL` leaves combined by
    /// `BITMAP_OP(And/Or)` chains.
    pub fn filter(&mut self, pb: &mut PlanBuilder, predicate: Predicate) -> Result<()> {
        if !self.chain.is_empty() {
            return Err(ExecError::InvalidGraph(
                "filters must be applied before joins on this stream".into(),
            ));
        }
        if let Some(bm) = self.lower_predicate(pb, &predicate)? {
            self.chain.push(Link::Sel(bm));
            self.cache.clear();
        }
        Ok(())
    }

    /// Recursively lowers a predicate tree to a bitmap ref (`None` for an
    /// empty conjunction/disjunction).
    fn lower_predicate(
        &mut self,
        pb: &mut PlanBuilder,
        predicate: &Predicate,
    ) -> Result<Option<DataRef>> {
        match predicate {
            Predicate::Cmp {
                col,
                cmp,
                value,
                hi,
            } => {
                let input = self.raw_col(col)?;
                let label = format!("filter({col}):{}", pb.label("f"));
                Ok(Some(pb.node(
                    PrimitiveKind::FilterBitmap,
                    NodeParams::Filter {
                        cmp: *cmp,
                        value: *value,
                        hi: *hi,
                    },
                    vec![input],
                    label,
                )))
            }
            Predicate::CmpCols { left, cmp, right } => {
                let a = self.raw_col(left)?;
                let b = self.raw_col(right)?;
                let label = format!("filter({left},{right}):{}", pb.label("f"));
                Ok(Some(pb.node(
                    PrimitiveKind::FilterBitmapCol,
                    NodeParams::FilterCol { cmp: *cmp },
                    vec![a, b],
                    label,
                )))
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                let op = if matches!(predicate, Predicate::And(_)) {
                    BitmapOp::And
                } else {
                    BitmapOp::Or
                };
                let mut acc: Option<DataRef> = None;
                for p in ps {
                    if let Some(bm) = self.lower_predicate(pb, p)? {
                        acc = Some(match acc {
                            None => bm,
                            Some(prev) => combine(pb, op, prev, bm),
                        });
                    }
                }
                Ok(acc)
            }
        }
    }

    /// Projects a derived column computed element-wise.
    ///
    /// When every referenced column is still in the raw scan domain the
    /// expression is computed there (late materialization — selections
    /// apply when the result is consumed, the paper's Q6 shape). When any
    /// referenced column is join-derived, all inputs are materialized into
    /// the current row domain first and the result lives there.
    pub fn project(&mut self, pb: &mut PlanBuilder, name: &str, expr: Expr) -> Result<()> {
        let all_raw = expr
            .columns()
            .iter()
            .all(|c| matches!(self.cols.get(*c), Some(&(_, 0))));
        let r = self.lower_expr(pb, &expr, !all_raw)?;
        if all_raw {
            self.cols.insert(name.to_string(), (r, 0));
        } else {
            let upto = self.chain.len();
            self.cols.insert(name.to_string(), (r, upto));
            self.cache.insert(name.to_string(), r);
        }
        Ok(())
    }

    /// Lowers an element-wise expression to `MAP` nodes. Column leaves
    /// resolve in the raw scan domain, or — with `current` — materialized
    /// into the current row domain.
    fn lower_expr(&mut self, pb: &mut PlanBuilder, expr: &Expr, current: bool) -> Result<DataRef> {
        // Each binary op with its constant-on-the-right form and, where one
        // exists, its constant-on-the-left form (commutative ops reuse the
        // right-hand form).
        let (a, b, binary, rhs_const, lhs_const) = match expr {
            Expr::Col(c) if current => return self.materialized(pb, c),
            Expr::Col(c) => return self.raw_col(c),
            Expr::Lit(_) => {
                return Err(ExecError::InvalidGraph(
                    "a bare literal is not a column expression".into(),
                ))
            }
            Expr::Indicator(a, op, c) => {
                let inner = self.lower_expr(pb, a, current)?;
                let label = pb.label("map");
                let params = NodeParams::Map {
                    op: *op,
                    constant: *c,
                };
                return Ok(pb.node(PrimitiveKind::Map, params, vec![inner], label));
            }
            Expr::Add(a, b) => (a, b, MapOp::Add, MapOp::AddConst, Some(MapOp::AddConst)),
            Expr::Sub(a, b) => (a, b, MapOp::Sub, MapOp::SubConst, Some(MapOp::RsubConst)),
            Expr::Mul(a, b) => (a, b, MapOp::Mul, MapOp::MulConst, Some(MapOp::MulConst)),
            Expr::Div(a, b) => (a, b, MapOp::Div, MapOp::DivConst, None),
        };
        let (op, constant, inputs) = match (const_of(a), const_of(b)) {
            (None, Some(c)) => (rhs_const, c, vec![self.lower_expr(pb, a, current)?]),
            (Some(c), None) => {
                let rhs = self.lower_expr(pb, b, current)?;
                let op = lhs_const.ok_or_else(|| {
                    ExecError::InvalidGraph("literal-on-left division is not lowerable".into())
                })?;
                (op, c, vec![rhs])
            }
            (None, None) => {
                let lhs = self.lower_expr(pb, a, current)?;
                let rhs = self.lower_expr(pb, b, current)?;
                (binary, 0, vec![lhs, rhs])
            }
            (Some(_), Some(_)) => {
                return Err(ExecError::InvalidGraph(
                    "constant-only expressions have no row domain".into(),
                ))
            }
        };
        let label = pb.label("map");
        Ok(pb.node(
            PrimitiveKind::Map,
            NodeParams::Map { op, constant },
            inputs,
            label,
        ))
    }

    /// The column fully materialized into the current row domain.
    pub fn materialized(&mut self, pb: &mut PlanBuilder, name: &str) -> Result<DataRef> {
        if let Some(&r) = self.cache.get(name) {
            return Ok(r);
        }
        let &(mut r, upto) = self.cols.get(name).ok_or_else(|| {
            ExecError::InvalidGraph(format!("unknown column `{name}` in scan `{}`", self.scan))
        })?;
        let pending: Vec<Link> = self.chain[upto..].to_vec();
        for link in pending {
            r = match link {
                Link::Sel(bm) => {
                    let label = format!("mat({name}):{}", pb.label("m"));
                    pb.node(
                        PrimitiveKind::Materialize,
                        NodeParams::None,
                        vec![r, bm],
                        label,
                    )
                }
                Link::Pos(pos) => {
                    let label = format!("gather({name}):{}", pb.label("g"));
                    let kind = PrimitiveKind::MaterializePosition;
                    pb.node(kind, NodeParams::None, vec![r, pos], label)
                }
            };
        }
        self.cache.insert(name.to_string(), r);
        Ok(r)
    }

    /// Builds a join hash table keyed by `key`, materializing the named
    /// payload columns into it. Ends this stream's pipeline (breaker).
    pub fn hash_build(
        &mut self,
        pb: &mut PlanBuilder,
        key: &str,
        payload: &[&str],
        expected: usize,
    ) -> Result<DataRef> {
        let mut inputs = vec![self.materialized(pb, key)?];
        for p in payload {
            inputs.push(self.materialized(pb, p)?);
        }
        let label = format!("hash_build({key}):{}", pb.label("hb"));
        let params = NodeParams::HashBuild {
            payload_cols: payload.len(),
            expected,
        };
        Ok(pb.node(PrimitiveKind::HashBuild, params, inputs, label))
    }

    /// Inner-join probe against `table`, pulling `payload_names.len()`
    /// payload columns out of the table into this stream under the given
    /// names. Multi-match keys fan out rows.
    pub fn hash_probe(
        &mut self,
        pb: &mut PlanBuilder,
        key: &str,
        table: DataRef,
        payload_names: &[&str],
    ) -> Result<()> {
        let key_ref = self.materialized(pb, key)?;
        let label = format!("hash_probe({key}):{}", pb.label("hp"));
        let outs = pb.gb.add(
            PrimitiveKind::HashProbe,
            NodeParams::HashProbe {
                payload_outs: payload_names.len(),
            },
            vec![key_ref, table],
            1 + payload_names.len(),
            pb.device,
            label,
        );
        self.chain.push(Link::Pos(outs[0]));
        let upto = self.chain.len();
        for (i, &name) in payload_names.iter().enumerate() {
            self.cols.insert(name.to_string(), (outs[1 + i], upto));
        }
        self.cache.clear();
        Ok(())
    }

    /// EXISTS semi-join: keeps rows whose `key` appears in `table`
    /// (lowered to `HASH_PROBE_SEMI` + a selection link).
    pub fn semi_join(&mut self, pb: &mut PlanBuilder, key: &str, table: DataRef) -> Result<()> {
        let key_ref = self.materialized(pb, key)?;
        let label = format!("semi({key}):{}", pb.label("sj"));
        let kind = PrimitiveKind::HashProbeSemi;
        let bm = pb.node(kind, NodeParams::None, vec![key_ref, table], label);
        self.chain.push(Link::Sel(bm));
        self.cache.clear();
        Ok(())
    }

    /// Group-by aggregation keyed by `group`, carrying `payload` columns
    /// and computing `aggs` (each `(func, value_column)`; `Count` may use
    /// any column). Returns the `HASH_TABLE` ref. Ends the pipeline.
    pub fn hash_agg(
        &mut self,
        pb: &mut PlanBuilder,
        group: &str,
        payload: &[&str],
        aggs: &[(AggFunc, &str)],
        expected_groups: usize,
    ) -> Result<DataRef> {
        let mut inputs = vec![self.materialized(pb, group)?];
        for p in payload {
            inputs.push(self.materialized(pb, p)?);
        }
        for (_, col) in aggs {
            inputs.push(self.materialized(pb, col)?);
        }
        let label = format!("hash_agg({group}):{}", pb.label("ha"));
        let params = NodeParams::HashAgg {
            payload_cols: payload.len(),
            aggs: aggs.iter().map(|(f, _)| *f).collect(),
            expected_groups,
        };
        Ok(pb.node(PrimitiveKind::HashAgg, params, inputs, label))
    }
}

/// Combines two selection bitmaps with `BITMAP_OP` (predicate trees).
fn combine(pb: &mut PlanBuilder, op: BitmapOp, a: DataRef, b: DataRef) -> DataRef {
    let label = pb.label(if op == BitmapOp::And { "and" } else { "or" });
    pb.node(
        PrimitiveKind::BitmapOp,
        NodeParams::Bitmap { op },
        vec![a, b],
        label,
    )
}

fn const_of(e: &Expr) -> Option<i64> {
    match e {
        Expr::Lit(v) => Some(*v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_core::pipeline::PipelineSet;
    use adamant_task::params::CmpOp;

    fn dev() -> DeviceId {
        DeviceId(0)
    }

    #[test]
    fn q6_shape_lowers_to_one_pipeline() {
        let mut pb = PlanBuilder::new(dev());
        let mut li = pb.scan("lineitem", &["date", "disc", "qty", "price"]);
        li.filter(
            &mut pb,
            Predicate::and(vec![
                Predicate::between("date", 100, 200),
                Predicate::between("disc", 5, 7),
                Predicate::cmp("qty", CmpOp::Lt, 24),
            ]),
        )
        .unwrap();
        li.project(&mut pb, "rev", Expr::col("price").mul(Expr::col("disc")))
            .unwrap();
        let rev = li.materialized(&mut pb, "rev").unwrap();
        let sum = pb.agg_block(rev, AggFunc::Sum, "revenue");
        pb.output("revenue", sum);
        let g = pb.build().unwrap();
        let ps = PipelineSet::split(&g).unwrap();
        assert_eq!(ps.len(), 1, "Q6 is a single pipeline");
        // 3 filters + 2 ands + 1 map + 1 materialize + 1 agg = 8 nodes.
        assert_eq!(g.nodes().len(), 8);
    }

    #[test]
    fn filter_after_join_rejected() {
        let mut pb = PlanBuilder::new(dev());
        let mut build = pb.scan("b", &["k"]);
        let ht = build.hash_build(&mut pb, "k", &[], 16).unwrap();
        let mut probe = pb.scan("p", &["k", "v"]);
        probe.hash_probe(&mut pb, "k", ht, &[]).unwrap();
        let err = probe
            .filter(&mut pb, Predicate::cmp("v", CmpOp::Lt, 5))
            .unwrap_err();
        assert!(matches!(err, ExecError::InvalidGraph(_)));
    }

    #[test]
    fn unknown_column_rejected() {
        let mut pb = PlanBuilder::new(dev());
        let mut s = pb.scan("t", &["x"]);
        assert!(s.materialized(&mut pb, "nope").is_err());
        assert!(s
            .filter(&mut pb, Predicate::cmp("nope", CmpOp::Eq, 1))
            .is_err());
    }

    #[test]
    fn expr_lowering_const_forms() {
        let mut pb = PlanBuilder::new(dev());
        let mut s = pb.scan("t", &["x", "y"]);
        // 100 - x (literal on the left of Sub -> RsubConst)
        s.project(&mut pb, "a", Expr::lit(100).sub(Expr::col("x")))
            .unwrap();
        // x * 3 and 3 * x both lower.
        s.project(&mut pb, "b", Expr::col("x").mul(Expr::lit(3)))
            .unwrap();
        s.project(&mut pb, "c", Expr::lit(3).mul(Expr::col("x")))
            .unwrap();
        // x + y binary.
        s.project(&mut pb, "d", Expr::col("x").add(Expr::col("y")))
            .unwrap();
        // Nested: (100 - x) * y.
        s.project(
            &mut pb,
            "e",
            Expr::lit(100).sub(Expr::col("x")).mul(Expr::col("y")),
        )
        .unwrap();
        // Constant-only rejected.
        assert!(s
            .project(&mut pb, "f", Expr::lit(1).add(Expr::lit(2)))
            .is_err());
        // Bare literal rejected.
        assert!(s.project(&mut pb, "g", Expr::lit(1)).is_err());
        let r = s.materialized(&mut pb, "e").unwrap();
        pb.output("e", r);
        assert!(pb.build().is_ok());
    }

    #[test]
    fn materialization_cache_reuses_nodes() {
        let mut pb = PlanBuilder::new(dev());
        let mut s = pb.scan("t", &["x"]);
        s.filter(&mut pb, Predicate::cmp("x", CmpOp::Gt, 0))
            .unwrap();
        let a = s.materialized(&mut pb, "x").unwrap();
        let b = s.materialized(&mut pb, "x").unwrap();
        assert_eq!(a, b, "second materialization hits the cache");
    }

    #[test]
    fn sort_agg_path_builds() {
        // hash_agg and sort_agg are alternative aggregation strategies over
        // the same inputs; both must lower to valid graphs.
        let mut pb = PlanBuilder::new(dev());
        let mut s = pb.scan("t", &["k", "v"]);
        let k = s.materialized(&mut pb, "k").unwrap();
        let v = s.materialized(&mut pb, "v").unwrap();
        let (gk, ga) = pb.sort_agg(k, v, AggFunc::Sum);
        pb.output("keys", gk);
        pb.output("sums", ga);
        let g = pb.build().unwrap();
        // sort + 2 takes + sort_agg = 4 nodes.
        assert_eq!(g.nodes().len(), 4);
    }

    #[test]
    fn join_chain_materializes_through_positions() {
        let mut pb = PlanBuilder::new(dev());
        let mut build = pb.scan("b", &["bk", "bv"]);
        let ht = build.hash_build(&mut pb, "bk", &["bv"], 8).unwrap();
        let mut probe = pb.scan("p", &["pk", "pv"]);
        probe
            .filter(&mut pb, Predicate::cmp("pv", CmpOp::Gt, 0))
            .unwrap();
        probe.hash_probe(&mut pb, "pk", ht, &["bv"]).unwrap();
        // bv is already in the joined domain; pv needs sel + positions.
        let bv = probe.materialized(&mut pb, "bv").unwrap();
        let pv = probe.materialized(&mut pb, "pv").unwrap();
        pb.output("bv", bv);
        pb.output("pv", pv);
        let g = pb.build().unwrap();
        // pv path: materialize (sel) for probe key, then another for pv,
        // then gather by positions. Just validate it builds & splits.
        let ps = PipelineSet::split(&g).unwrap();
        assert_eq!(ps.len(), 2);
    }
}
