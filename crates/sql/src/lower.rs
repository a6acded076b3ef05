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
//! two building). Group output is always sorted (ORDER BY keys first, then
//! the group key ascending as a tie-break) so results are deterministic
//! across device models and chunk sizes.
//!
//! Five rules give the lowered graphs the hand-built plans' shapes, each
//! after the binder so the host oracle checks it: a build that only
//! filters becomes a semi-join (`join_shapes`); one-table subexpressions
//! are computed before the join (`split_early`); COUNT(*) folds over a
//! column the plan materializes anyway; several GROUP BY columns become one
//! key the outputs decode from (`GroupKey`); and a repeated subexpression
//! is computed once (`share_repeats`). Range merging is a rewrite
//! ([`crate::rewrite::merge_ranges`]).

use crate::error::{SqlError, SqlResult};
use crate::logical::{BoundGroup, BoundJoin, BoundQuery, BoundSelect, ColumnDecode, OutputSource};
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
    /// Output name; also the graph output holding the values, unless
    /// `packed` names another.
    pub name: String,
    /// How the delivered values decode.
    pub decode: ColumnDecode,
    /// A GROUP BY column of a multi-column group: its values are a field
    /// of the packed group key.
    pub packed: Option<PackedColumn>,
}

impl OutputColumn {
    /// The graph output this column's values are read from.
    pub fn source(&self) -> &str {
        self.packed.as_ref().map_or(&self.name, |p| &p.key)
    }

    /// This column's value in a row whose `source` output holds `raw`.
    pub fn value(&self, raw: i64) -> i64 {
        self.packed
            .as_ref()
            .map_or(raw, |p| raw / p.stride % p.span + p.lo)
    }
}

/// Where a GROUP BY column sits in the packed group key:
/// `key / stride % span + lo`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedColumn {
    /// The graph output holding the packed key.
    pub key: String,
    /// The product of the spans of the columns packed after this one.
    pub stride: i64,
    /// The column's value span (1 for a column with a single value, which
    /// the key leaves out).
    pub span: i64,
    /// The column's smallest value at bind time.
    pub lo: i64,
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
    let mut roots: Vec<Option<Expr>> = match &q.select {
        BoundSelect::Plain(items) => items.iter().map(|i| Some(i.expr.clone())).collect(),
        BoundSelect::Aggregate { aggs, .. } => aggs.iter().map(|a| a.arg.clone()).collect(),
    };
    let shapes = join_shapes(q);
    let early = split_early(q, &shapes, &mut roots);
    let shared = share_repeats(&mut roots);
    let key = match &q.select {
        BoundSelect::Aggregate { group, .. } if !group.is_empty() => {
            Some(GroupKey::new(q, group, &shapes)?)
        }
        _ => None,
    };
    Lowerer {
        q,
        device,
        roots,
        early,
        shared,
        shapes,
        key,
    }
    .run()
}

/// How one join lowers, apart from what its build carries: which side
/// builds, the tables whose columns the build rows hold, and whether the
/// build key is unique among those rows (see [`join_shapes`]).
struct JoinShape {
    /// The joined table builds (else the stream so far builds and the
    /// joined table's scan becomes the stream).
    new_builds: bool,
    /// Tables whose columns ride in the build rows.
    builders: Vec<usize>,
    /// No build key value repeats among the build rows: each probe row
    /// meets at most one build row.
    unique_key: bool,
}

impl JoinShape {
    /// `(probe key, build key)` of `join`.
    fn keys<'j>(&self, join: &'j BoundJoin) -> (&'j str, &'j str) {
        if self.new_builds {
            (&join.stream_key, &join.table_key)
        } else {
            (&join.table_key, &join.stream_key)
        }
    }
}

/// Plans the join chain's shape before any node is emitted. Pure
/// row-count arithmetic over the bound query, plus the binder's key
/// uniqueness flags.
///
/// The smaller side (by bind-time row count) builds. The build key is
/// unique among the build rows when the key column is unique in its table
/// and the build rows are that table's rows, not a join's: a new table's
/// scan always is, and the stream is while it has only met builds with
/// unique keys.
fn join_shapes(q: &BoundQuery) -> Vec<JoinShape> {
    let mut rows_est = q.tables[0].rows;
    let mut shapes = Vec::with_capacity(q.joins.len());
    // The table the stream scans, and whether each stream row is still a
    // distinct row of it.
    let (mut stream_table, mut distinct_rows) = (0, true);
    for (i, join) in q.joins.iter().enumerate() {
        let ni = i + 1;
        let new_builds = q.tables[ni].rows <= rows_est;
        rows_est = rows_est.max(q.tables[ni].rows);
        let shape = if new_builds {
            distinct_rows &= join.table_key_unique;
            JoinShape {
                new_builds,
                builders: vec![ni],
                unique_key: join.table_key_unique,
            }
        } else {
            let own_key = q.col_table.get(&join.stream_key) == Some(&stream_table);
            let unique_key = distinct_rows && own_key && join.stream_key_unique;
            (stream_table, distinct_rows) = (ni, unique_key);
            JoinShape {
                new_builds,
                builders: (0..ni).collect(),
                unique_key,
            }
        };
        shapes.push(shape);
    }
    shapes
}

struct Lowerer<'a> {
    q: &'a BoundQuery,
    device: DeviceId,
    /// The select layer's expressions (plain items, or aggregate arguments
    /// with `None` for `COUNT(*)`), with every subexpression in `early`
    /// replaced by its column.
    roots: Vec<Option<Expr>>,
    /// `(table, column, expression)`: computed on the table's scan before
    /// any join.
    early: Vec<(usize, String, Expr)>,
    /// `(column, expression)`: subexpressions `roots` repeat, computed
    /// once each at the select stage, in this order.
    shared: Vec<(String, Expr)>,
    /// The join chain's shape.
    shapes: Vec<JoinShape>,
    /// The GROUP BY's hash key, for a grouped aggregate.
    key: Option<GroupKey>,
}

/// How a GROUP BY becomes one hash key.
///
/// One group column is the key itself. Of several:
/// - a column that a unique-key join ties to an earlier group column has
///   one value per group: the one build row with that key holds it. It
///   stays out of the key and rides along as hash-table payload, as the
///   hand-built Q3 groups by `l_orderkey` and carries the order's date;
/// - a column with one value in the data stays out of the key too;
/// - the rest pack into one integer from the binder's value ranges: each
///   column less its smallest value, times the product of the spans packed
///   after it (a single such column is the key itself). The packing order
///   is ORDER BY's trailing run of ascending key columns, then the others
///   in GROUP BY order, so sorting by the key sorts by that run and breaks
///   ties by the group tuple.
///
/// Columns in the key, and one-value columns, decode from the key
/// host-side ([`OutputColumn::value`]), as the hand-built Q1 decodes its
/// flags: none is materialized and taken beside it. A key column named by
/// an ORDER BY key before that run rides along as payload for the sort.
struct GroupKey {
    /// The packed key's expression; `None` when one column is the key.
    packed: Option<Expr>,
    /// Per group column, `(stride, span)` in the packed key; `(1, 1)` for
    /// a one-value column.
    fields: Vec<(i64, i64)>,
    /// The group columns the key reads, in packing order.
    read: Vec<usize>,
    /// Group columns carried as hash-table payload.
    carried: Vec<usize>,
    /// ORDER BY keys from this index on are served by the key.
    sorted_from: usize,
    /// An upper bound on the number of groups: the key's value span.
    groups: usize,
}

/// Where a group column's output values come from.
enum GroupRole {
    /// The hash key itself.
    Key,
    /// A field `(stride, span)` of the key.
    Field(i64, i64),
    /// The i-th hash-table payload column.
    Payload(usize),
}

impl GroupKey {
    fn new(q: &BoundQuery, group: &[BoundGroup], shapes: &[JoinShape]) -> SqlResult<GroupKey> {
        let span = |gi: usize| (group[gi].hi as i128 - group[gi].lo as i128 + 1).max(1);
        let mut product: i128 = 1;
        for gi in 0..group.len() {
            product = product.saturating_mul(span(gi));
            if group.len() > 1 && product > i64::MAX as i128 {
                return Err(SqlError::unsupported(
                    "combined GROUP BY value range is too large to pack into one key",
                    q.span,
                ));
            }
        }
        // Tied: a unique-key join equates an earlier, untied group column
        // with its build key, and this column rides in the build rows.
        let mut tied = vec![false; group.len()];
        for gi in 1..group.len() {
            let owner = q.col_table.get(&group[gi].column);
            tied[gi] = (0..gi).filter(|&k| !tied[k]).any(|k| {
                q.joins.iter().zip(shapes).any(|(join, shape)| {
                    let (probe, build) = shape.keys(join);
                    let key = group[k].column.as_str();
                    shape.unique_key
                        && (key == probe || key == build)
                        && owner.is_some_and(|t| shape.builders.contains(t))
                })
            });
        }
        let sorted_from = q
            .order_by
            .iter()
            .rposition(|o| o.desc || group_index(o.source).is_none_or(|gi| tied[gi]))
            .map_or(0, |i| i + 1);
        let mut order: Vec<usize> = Vec::new();
        let named = q.order_by[sorted_from..].iter().map(|o| o.source);
        for gi in named.filter_map(group_index).chain(0..group.len()) {
            if !order.contains(&gi) && !tied[gi] {
                order.push(gi);
            }
        }
        let varies = |gi: &usize| group[*gi].lo < group[*gi].hi;
        let mut read: Vec<usize> = order.iter().copied().filter(varies).collect();
        if read.is_empty() {
            read.push(order[0]);
        }
        let mut fields = vec![(1, 1); group.len()];
        let mut stride = 1;
        for &gi in read.iter().rev() {
            fields[gi] = (stride, span(gi) as i64);
            stride *= span(gi) as i64;
        }
        // One column is the key itself, unless its smallest value is the
        // hash tables' empty-slot marker: packing offsets it away.
        let packed = if read.len() == 1 && (group.len() == 1 || group[read[0]].lo != EMPTY_KEY) {
            if group[read[0]].lo == EMPTY_KEY {
                return Err(SqlError::unsupported(
                    "GROUP BY value range collides with the hash sentinel",
                    q.span,
                ));
            }
            None
        } else {
            let mut acc: Option<Expr> = None;
            for &gi in &read {
                let g = &group[gi];
                let mut part = Expr::col(g.column.clone());
                if g.lo != 0 {
                    part = part.sub(Expr::lit(g.lo));
                }
                acc = Some(match acc {
                    None => part,
                    Some(acc) => acc.mul(Expr::lit(fields[gi].1)).add(part),
                });
            }
            acc
        };
        let mut carried: Vec<usize> = (0..group.len())
            .filter(|gi| tied[*gi] && varies(gi))
            .collect();
        if packed.is_some() {
            let before = q.order_by[..sorted_from].iter().map(|o| o.source);
            for gi in before.filter_map(group_index) {
                if read.contains(&gi) && !carried.contains(&gi) {
                    carried.push(gi);
                }
            }
        }
        let groups = read.iter().map(|&gi| span(gi)).product::<i128>();
        Ok(GroupKey {
            packed,
            fields,
            read,
            carried,
            sorted_from,
            groups: groups.min(usize::MAX as i128) as usize,
        })
    }

    /// Where group column `gi`'s output values come from.
    fn role(&self, gi: usize) -> GroupRole {
        if self.packed.is_none() && self.read == [gi] {
            GroupRole::Key
        } else if self.read.contains(&gi) || !self.carried.contains(&gi) {
            let (stride, span) = self.fields[gi];
            GroupRole::Field(stride, span)
        } else {
            GroupRole::Payload(self.carried.iter().position(|&c| c == gi).expect("carried"))
        }
    }
}

fn group_index(source: OutputSource) -> Option<usize> {
    match source {
        OutputSource::Group(gi) => Some(gi),
        OutputSource::Agg(_) => None,
    }
}

/// Picks the subexpressions to compute before the joins, and replaces them
/// in `roots` by the columns that carry them.
///
/// A subexpression over one table's columns (the largest such one; a bare
/// column is not a subexpression) can be computed on that table's scan,
/// before the probe or build, and then travels through the joins as one
/// column instead of one per operand. Per table, the lowering does so for
/// all of them when that makes fewer columns travel, or as many, on a
/// table that crosses a hash build (maps then run once over the build
/// scan, not per probe chunk). Otherwise the table's subexpressions are
/// computed after the joins, from the columns they read.
fn split_early(
    q: &BoundQuery,
    shapes: &[JoinShape],
    roots: &mut [Option<Expr>],
) -> Vec<(usize, String, Expr)> {
    if q.joins.is_empty() {
        return Vec::new();
    }
    let final_stream = shapes
        .iter()
        .rposition(|s| !s.new_builds)
        .map_or(0, |i| i + 1);
    let mut subs: Vec<(usize, Expr)> = Vec::new();
    let mut bare: BTreeSet<&str> = BTreeSet::new();
    if let BoundSelect::Aggregate { group, .. } = &q.select {
        bare.extend(group.iter().map(|g| g.column.as_str()));
    }
    for root in roots.iter().flatten() {
        one_table_parts(q, root, &mut subs, &mut bare);
    }
    let mut early = Vec::new();
    for t in 0..q.tables.len() {
        let mine: Vec<&Expr> = subs.iter().filter(|s| s.0 == t).map(|s| &s.1).collect();
        let kept: Vec<&str> = bare
            .iter()
            .copied()
            .filter(|c| q.col_table.get(*c) == Some(&t))
            .collect();
        let operands: BTreeSet<&str> = mine
            .iter()
            .flat_map(|e| e.columns())
            .chain(kept.iter().copied())
            .collect();
        let (before, after) = (mine.len() + kept.len(), operands.len());
        if !mine.is_empty() && (before < after || before == after && t != final_stream) {
            for e in mine {
                early.push((t, format!("__pre{}", early.len()), e.clone()));
            }
        }
    }
    let name_of = |e: &Expr| early.iter().find(|d| d.2 == *e).map(|d| d.1.clone());
    for root in roots.iter_mut().flatten() {
        *root = substitute(root.clone(), &name_of);
    }
    early
}

/// Collects the largest one-table subexpressions of `e` into `subs` (each
/// once) and the columns read outside them into `bare`.
fn one_table_parts<'e>(
    q: &BoundQuery,
    e: &'e Expr,
    subs: &mut Vec<(usize, Expr)>,
    bare: &mut BTreeSet<&'e str>,
) {
    match e {
        Expr::Col(c) => {
            bare.insert(c);
        }
        Expr::Lit(_) => {}
        _ => match one_table(q, e) {
            Some(t) if !subs.iter().any(|(_, s)| s == e) => subs.push((t, e.clone())),
            Some(_) => {}
            None => operands(e)
                .into_iter()
                .for_each(|o| one_table_parts(q, o, subs, bare)),
        },
    }
}

/// The one table whose columns `e` reads, if there is exactly one.
fn one_table(q: &BoundQuery, e: &Expr) -> Option<usize> {
    let mut tables = e.columns().into_iter().map(|c| q.col_table.get(c).copied());
    let first = tables.next()??;
    tables.all(|t| t == Some(first)).then_some(first)
}

fn operands(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => vec![a, b],
        Expr::Indicator(a, _, _) => vec![a],
        Expr::Col(_) | Expr::Lit(_) => Vec::new(),
    }
}

/// `e` with each occurrence of an expression `name_of` names replaced by
/// that column.
fn substitute(e: Expr, name_of: &impl Fn(&Expr) -> Option<String>) -> Expr {
    if let Some(name) = name_of(&e) {
        return Expr::col(name);
    }
    let sub = |x: Box<Expr>| Box::new(substitute(*x, name_of));
    match e {
        Expr::Add(a, b) => Expr::Add(sub(a), sub(b)),
        Expr::Sub(a, b) => Expr::Sub(sub(a), sub(b)),
        Expr::Mul(a, b) => Expr::Mul(sub(a), sub(b)),
        Expr::Div(a, b) => Expr::Div(sub(a), sub(b)),
        Expr::Indicator(a, op, c) => Expr::Indicator(sub(a), op, c),
        leaf @ (Expr::Col(_) | Expr::Lit(_)) => leaf,
    }
}

/// Finds the subexpressions the select layer computes more than once and
/// replaces them in `roots` by columns that compute each once: Q12's IN
/// indicator feeds both of its CASE arms, Q1's discounted price both the
/// sum and the charge. Larger subexpressions are shared first, and a
/// smaller one only if it still repeats outside them. Returns the
/// `(column, expression)` definitions, each after those it reads.
fn share_repeats(roots: &mut [Option<Expr>]) -> Vec<(String, Expr)> {
    // Only a subexpression that repeats before any sharing can repeat
    // after it.
    let mut counts: Vec<(&Expr, usize)> = Vec::new();
    for root in roots.iter().flatten() {
        count_subtrees(root, &mut counts);
    }
    let mut candidates: Vec<Expr> = counts
        .into_iter()
        .filter(|c| c.1 > 1)
        .map(|c| c.0.clone())
        .collect();
    candidates.sort_by_cached_key(|e| std::cmp::Reverse(node_count(e)));
    let mut defs: Vec<(String, Expr)> = Vec::new();
    for cand in candidates {
        let forest = roots.iter().flatten().chain(defs.iter().map(|d| &d.1));
        if forest.map(|e| occurrences(e, &cand)).sum::<usize>() < 2 {
            continue;
        }
        let name = format!("__sub{}", defs.len());
        let name_of = |e: &Expr| (*e == cand).then(|| name.clone());
        for root in roots.iter_mut().flatten() {
            *root = substitute(root.clone(), &name_of);
        }
        for def in &mut defs {
            def.1 = substitute(def.1.clone(), &name_of);
        }
        defs.push((name, cand));
    }
    defs.reverse();
    defs
}

/// Counts each non-leaf subexpression of `e` into `counts`.
fn count_subtrees<'e>(e: &'e Expr, counts: &mut Vec<(&'e Expr, usize)>) {
    let inner = operands(e);
    if inner.is_empty() {
        return;
    }
    match counts.iter_mut().find(|c| c.0 == e) {
        Some(c) => c.1 += 1,
        None => counts.push((e, 1)),
    }
    inner.into_iter().for_each(|o| count_subtrees(o, counts));
}

fn node_count(e: &Expr) -> usize {
    1 + operands(e).into_iter().map(node_count).sum::<usize>()
}

/// How often `sub` occurs in `e` (an occurrence's inside not counted).
fn occurrences(e: &Expr, sub: &Expr) -> usize {
    if e == sub {
        return 1;
    }
    operands(e).into_iter().map(|o| occurrences(o, sub)).sum()
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

        let payloads = self.payloads();

        // Emit every independent build-side pipeline FIRST — pipelines
        // execute in creation order, so a hash table must be built by an
        // earlier pipeline than the one probing it (the hand-built plans
        // follow the same discipline).
        let mut built: Vec<Option<DataRef>> = vec![None; q.joins.len()];
        for (i, join) in q.joins.iter().enumerate() {
            if self.shapes[i].new_builds {
                let ni = i + 1;
                let mut build = self.scan_table(&mut pb, ni, &mut input_columns)?;
                let payload: Vec<&str> = payloads[i].iter().map(|s| s.as_str()).collect();
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
            let shape = &self.shapes[i];
            let payload: Vec<&str> = payloads[i].iter().map(|s| s.as_str()).collect();
            let (key, build_key) = shape.keys(join);
            let ht = if shape.new_builds {
                built[i].expect("build emitted above")
            } else {
                let ht = stream
                    .hash_build(&mut pb, build_key, &payload, seg_rows / 4 + 8)
                    .map_err(|e| self.err(e))?;
                stream = self.scan_table(&mut pb, ni, &mut input_columns)?;
                stream_table = ni;
                ht
            };
            if payload.is_empty() && shape.unique_key {
                stream.semi_join(&mut pb, key, ht)
            } else {
                stream.hash_probe(&mut pb, key, ht, &payload)
            }
            .map_err(|e| self.err(e))?;
            seg_rows = seg_rows.max(q.tables[ni].rows);
        }

        // EXISTS semi-join (single-table outer queries only, per binder).
        if let Some(ex) = &q.exists {
            stream
                .semi_join(&mut pb, &ex.outer_key, ht_exists.expect("built above"))
                .map_err(|e| self.err(e))?;
        }

        let rows_est = q.tables.iter().map(|t| t.rows).max().unwrap_or(0);
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

    /// What each join's build carries: the columns of its tables read
    /// after the join, by the select layer or by a later join's stream
    /// key. A build that carries nothing and whose key is unique among its
    /// rows only filters the stream: it becomes `HASH_PROBE_SEMI`, with no
    /// position gathers. A repeated key keeps the inner join, which counts
    /// each match.
    fn payloads(&self) -> Vec<Vec<String>> {
        let q = self.q;
        let select = self.select_columns();
        let mut payloads = Vec::with_capacity(q.joins.len());
        for (i, shape) in self.shapes.iter().enumerate() {
            let later_keys = q.joins[i + 1..].iter().map(|j| j.stream_key.as_str());
            let after: BTreeSet<&str> = select.iter().copied().chain(later_keys).collect();
            let builds = |c: &&str| {
                self.table_of(c)
                    .is_some_and(|t| shape.builders.contains(&t))
            };
            payloads.push(
                after
                    .into_iter()
                    .filter(builds)
                    .map(str::to_string)
                    .collect(),
            );
        }
        payloads
    }

    /// The columns the select layer reads once `early` is split off.
    fn select_columns(&self) -> BTreeSet<&str> {
        let exprs = self
            .roots
            .iter()
            .flatten()
            .chain(self.shared.iter().map(|d| &d.1));
        let mut cols: BTreeSet<&str> = exprs.flat_map(Expr::columns).collect();
        if let (BoundSelect::Aggregate { group, .. }, Some(key)) = (&self.q.select, &self.key) {
            let read = key.read.iter().chain(&key.carried);
            cols.extend(read.map(|&gi| group[gi].column.as_str()));
        }
        cols
    }

    /// The table owning a scan column or an `early` column.
    fn table_of(&self, col: &str) -> Option<usize> {
        let early = self.early.iter().find(|(_, name, _)| name == col);
        early
            .map(|e| e.0)
            .or_else(|| self.q.col_table.get(col).copied())
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
        for (_, col, expr) in self.early.iter().filter(|e| e.0 == t) {
            stream
                .project(pb, col, expr.clone())
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
        for (name, expr) in &self.shared {
            stream
                .project(pb, name, expr.clone())
                .map_err(|e| self.err(e))?;
        }
        match &q.select {
            BoundSelect::Plain(items) => {
                for (i, (item, expr)) in items.iter().zip(&self.roots).enumerate() {
                    let r = match expr.as_ref().expect("a plain item has an expression") {
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
                        packed: None,
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
                // derived expression is projected first. COUNT(*) (`None`)
                // folds over a column the plan materializes anyway (the
                // kernel ignores the value): the group key, else another
                // aggregate's input. Only with neither does it read a scan
                // column of its own, which may be one only a filter read.
                let mut agg_inputs = Vec::new();
                for (i, arg) in self.roots.iter().enumerate() {
                    agg_inputs.push(match arg {
                        None => None,
                        Some(Expr::Col(c)) => Some(c.clone()),
                        Some(expr) => {
                            let tmp = format!("__agg{i}");
                            stream
                                .project(pb, &tmp, expr.clone())
                                .map_err(|e| self.err(e))?;
                            Some(tmp)
                        }
                    });
                }
                let count_input = |driver: &str| -> Vec<String> {
                    let fill = |input: &Option<String>| input.clone().unwrap_or(driver.to_string());
                    agg_inputs.iter().map(fill).collect()
                };

                if group.is_empty() {
                    // Whole-input aggregation: one AGG_BLOCK per aggregate.
                    // Materialize every input BEFORE emitting any AGG_BLOCK:
                    // AGG_BLOCK is a pipeline breaker, so a materialization
                    // emitted after the first one would re-open the scan as a
                    // fresh streaming pipeline and gather per-chunk values
                    // against the closed pipeline's whole-buffer positions.
                    let driver = match agg_inputs.iter().flatten().next() {
                        Some(input) => input.clone(),
                        None => q.scan_cols[stream_table]
                            .iter()
                            .next()
                            .cloned()
                            .ok_or_else(|| SqlError::lower("scan reads no columns", q.span))?,
                    };
                    let mut mats = Vec::with_capacity(aggs.len());
                    for input in &count_input(&driver) {
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
                            packed: None,
                        })
                        .collect();
                    return Ok((out_cols, true));
                }

                // Grouped aggregation: one GROUP BY column is the key
                // itself; several pack into one key (see `GroupKey`).
                let key = self.key.as_ref().expect("a grouped aggregate has a key");
                let key_col = match &key.packed {
                    None => group[key.read[0]].column.clone(),
                    Some(expr) => {
                        stream
                            .project(pb, "__gkey", expr.clone())
                            .map_err(|e| self.err(e))?;
                        "__gkey".to_string()
                    }
                };
                let payload: Vec<&str> = key
                    .carried
                    .iter()
                    .map(|&gi| group[gi].column.as_str())
                    .collect();
                let agg_inputs = count_input(&key_col);
                let agg_specs: Vec<(adamant_task::params::AggFunc, &str)> = aggs
                    .iter()
                    .zip(&agg_inputs)
                    .map(|(a, input)| (a.func, input.as_str()))
                    .collect();
                let expected = (rows_est / 16 + 8).min(key.groups);
                let ht = stream
                    .hash_agg(pb, &key_col, &payload, &agg_specs, expected)
                    .map_err(|e| self.err(e))?;
                let groups = pb.group_result(ht, payload.len(), aggs.len());

                // Sort: the ORDER BY keys the group key does not stand for,
                // then the (unique) group key ascending, so ties, and
                // unordered queries, come out deterministic across devices
                // and chunk sizes.
                let mut sort_keys: Vec<(DataRef, bool)> = Vec::new();
                for o in &q.order_by[..key.sorted_from] {
                    let r = match o.source {
                        OutputSource::Agg(ai) => groups.states[ai],
                        OutputSource::Group(gi) => {
                            match key.carried.iter().position(|&c| c == gi) {
                                Some(p) => groups.payloads[p],
                                None if matches!(key.role(gi), GroupRole::Key) => groups.keys,
                                None => continue, // one value only: orders nothing
                            }
                        }
                    };
                    sort_keys.push((r, o.desc));
                }
                if !sort_keys.iter().any(|&(r, _)| r == groups.keys) {
                    sort_keys.push((groups.keys, false));
                }
                let perm = pb.sort(&sort_keys);

                // Group columns decoded from the key read it from one
                // output: the key column's own, else the key under a name
                // no output takes.
                let own = outputs.iter().find(|o| {
                    group_index(o.source).is_some_and(|gi| matches!(key.role(gi), GroupRole::Key))
                });
                let mut key_name = own.map_or("__gkey".to_string(), |o| o.name.clone());
                while own.is_none() && outputs.iter().any(|o| o.name == key_name) {
                    key_name.push('_');
                }
                let mut key_out = false;
                let mut out_cols = Vec::new();
                for o in outputs {
                    let mut packed = None;
                    let (r, decode) = match o.source {
                        OutputSource::Agg(ai) => (Some(groups.states[ai]), ColumnDecode::Int),
                        OutputSource::Group(gi) => {
                            let r = match key.role(gi) {
                                GroupRole::Key => Some(groups.keys),
                                GroupRole::Payload(p) => Some(groups.payloads[p]),
                                GroupRole::Field(stride, span) => {
                                    packed = Some(PackedColumn {
                                        key: key_name.clone(),
                                        stride,
                                        span,
                                        lo: group[gi].lo,
                                    });
                                    None
                                }
                            };
                            (r, group[gi].decode.clone())
                        }
                    };
                    if let Some(r) = r {
                        let taken = pb.take(r, perm);
                        pb.output(o.name.clone(), taken);
                        key_out |= r == groups.keys;
                    }
                    out_cols.push(OutputColumn {
                        name: o.name.clone(),
                        decode,
                        packed,
                    });
                }
                if !key_out && out_cols.iter().any(|o| o.packed.is_some()) {
                    let taken = pb.take(groups.keys, perm);
                    pb.output(key_name, taken);
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
    use adamant_core::graph::NodeParams;
    use adamant_core::pipeline::PipelineSet;
    use adamant_storage::catalog::Catalog;
    use adamant_storage::column::Column;
    use adamant_storage::table::Table;
    use adamant_task::primitive::PrimitiveKind;

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

    fn kinds(c: &CompiledQuery) -> Vec<PrimitiveKind> {
        c.graph.nodes().iter().map(|n| n.kind).collect()
    }

    #[test]
    fn a_build_that_only_filters_becomes_a_semi_join() {
        use PrimitiveKind::{HashProbe, HashProbeSemi};
        // `small` builds either way round; it carries nothing and `s_key`
        // is unique, so both orientations probe with HASH_PROBE_SEMI.
        for sql in [
            "SELECT SUM(b_val) AS total FROM big JOIN small ON s_key = b_key",
            "SELECT COUNT(*) AS n FROM small JOIN big ON b_key = s_key",
        ] {
            let k = kinds(&compiled(sql));
            assert!(
                k.contains(&HashProbeSemi) && !k.contains(&HashProbe),
                "{sql}: {k:?}"
            );
        }
        // A build that carries a column stays an inner join.
        let k = kinds(&compiled(
            "SELECT SUM(s_val) AS total FROM big JOIN small ON s_key = b_key",
        ));
        assert!(
            k.contains(&HashProbe) && !k.contains(&HashProbeSemi),
            "{k:?}"
        );
    }

    #[test]
    fn one_table_subexpressions_are_computed_before_the_join() {
        let c = compiled(
            "SELECT SUM((b_val + b_flag) * (o_w - 1)) AS t FROM big JOIN other ON o_key = b_key",
        );
        let labels: Vec<&str> = c.graph.nodes().iter().map(|n| n.label.as_str()).collect();
        // `big`'s sum travels as one gathered column, not two.
        assert!(
            labels.iter().any(|l| l.starts_with("gather(__pre0)")),
            "{labels:?}"
        );
        assert!(
            !labels.iter().any(|l| l.starts_with("gather(b_")),
            "{labels:?}"
        );
        // `other`'s `o_w - 1` is computed on its scan and carried by the build.
        let build = c
            .graph
            .nodes()
            .iter()
            .find(|n| n.label.starts_with("hash_build"));
        let payload = build.unwrap().inputs[1];
        let DataRef::Output { node, .. } = payload else {
            panic!("{payload:?}")
        };
        assert_eq!(
            c.graph.nodes()[node.0].kind,
            adamant_task::primitive::PrimitiveKind::Map
        );
    }

    #[test]
    fn count_star_folds_over_a_column_already_materialized() {
        for sql in [
            "SELECT b_flag, COUNT(*) AS n FROM big WHERE b_key > 1 GROUP BY b_flag",
            "SELECT COUNT(*) AS n, SUM(b_val) AS s FROM big WHERE b_key > 1",
        ] {
            let c = compiled(sql);
            let labels: Vec<&str> = c.graph.nodes().iter().map(|n| n.label.as_str()).collect();
            assert!(
                !labels.iter().any(|l| l.starts_with("mat(b_key)")),
                "{sql}: {labels:?}"
            );
        }
    }

    #[test]
    fn a_repeated_subexpression_is_computed_once() {
        let maps = |sql: &str| {
            kinds(&compiled(sql))
                .iter()
                .filter(|k| **k == PrimitiveKind::Map)
                .count()
        };
        // The indicator feeds both CASE arms: `b_flag = 1` and `1 - it`.
        let arms = "SELECT SUM(CASE WHEN b_flag = 1 THEN 1 ELSE 0 END) AS hi, \
                    SUM(CASE WHEN b_flag = 1 THEN 0 ELSE 1 END) AS lo FROM big";
        assert_eq!(maps(arms), 2);
        // `b_val * (10 - b_flag)` once, then `+ b_key` on top of it.
        let nested = "SELECT SUM(b_val * (10 - b_flag)) AS a, \
                      SUM(b_val * (10 - b_flag) + b_key) AS b FROM big";
        assert_eq!(maps(nested), 3);
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
        // key = (b_key - 1) * 2 + b_flag; each column decodes from it.
        let (key, flag) = (&c.outputs[0], &c.outputs[1]);
        assert_eq!((key.source(), flag.source()), ("__gkey", "__gkey"));
        assert_eq!((key.value(5), flag.value(5)), (3, 1));
        assert_eq!((key.value(2), flag.value(2)), (2, 0));
        assert_eq!(c.outputs[2].value(5), 5);
    }

    #[test]
    fn a_column_tied_by_a_unique_join_rides_beside_the_key() {
        let c = compiled(
            "SELECT b_key, s_val, SUM(b_val) AS t FROM big JOIN small ON s_key = b_key \
             GROUP BY b_key, s_val",
        );
        let agg = c
            .graph
            .nodes()
            .iter()
            .find(|n| n.kind == PrimitiveKind::HashAgg);
        let agg = agg.unwrap();
        assert!(agg.label.starts_with("hash_agg(b_key)"), "{}", agg.label);
        assert!(matches!(
            agg.params,
            NodeParams::HashAgg {
                payload_cols: 1,
                ..
            }
        ));
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
