//! The bound logical query representation.
//!
//! The binder resolves a parsed [`crate::ast::SelectStmt`] against the
//! catalog into a [`BoundQuery`]: base-table scans, a left-folded inner-join
//! chain, an optional EXISTS semi-join, WHERE conjuncts, and a typed select
//! layer (plain projection or group-by aggregation). Scalar expressions and
//! predicates reuse the executor's [`Expr`]/[`Predicate`] types so lowering
//! and the hand-built TPC-H plans share one vocabulary.
//!
//! A freshly bound query is *naive*: WHERE conjuncts sit in
//! [`BoundQuery::conjuncts`] unrouted and every scan reads all table
//! columns. The rewrite passes in [`crate::rewrite`] (constant folding,
//! predicate pushdown, projection pruning) normalize it into the form
//! [`crate::lower`] consumes; [`crate::interp`] evaluates either form and is
//! used as the oracle in randomized soak tests.

use crate::error::Span;
use adamant_plan::expr::{Expr, Predicate};
use adamant_task::params::AggFunc;
use std::collections::{BTreeMap, BTreeSet};

/// How a delivered output column decodes to a client-facing value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColumnDecode {
    /// Plain integer (includes all aggregate results).
    Int,
    /// Days since 1970-01-01, rendered as `yyyy-mm-dd`.
    Date,
    /// Dictionary code into `table.column`'s dictionary.
    Dict {
        /// Owning table.
        table: String,
        /// Dictionary column.
        column: String,
    },
}

/// One base table in the join tree.
#[derive(Clone, Debug)]
pub struct BoundTable {
    /// Catalog table name.
    pub name: String,
    /// Row count at bind time (drives build-side choice and sizing hints).
    pub rows: usize,
}

/// Joins table `i + 1` into the stream accumulated over tables `0..=i`.
#[derive(Clone, Debug)]
pub struct BoundJoin {
    /// Equi-join key on the accumulated side.
    pub stream_key: String,
    /// Equi-join key on the newly joined table.
    pub table_key: String,
    /// No value of `stream_key` repeats in its own table at bind time.
    pub stream_key_unique: bool,
    /// No value of `table_key` repeats in the joined table at bind time.
    /// Lowering reads the two flags to turn a join whose build side
    /// contributes no column into a semi-join; a repeated key keeps the
    /// inner join, which counts each match.
    pub table_key_unique: bool,
}

/// An `EXISTS (SELECT ... FROM inner WHERE inner.k = outer.k AND ...)`
/// semi-join. Only single-table outer queries support it (the TPC-H Q4
/// shape).
#[derive(Clone, Debug)]
pub struct BoundExists {
    /// The inner (subquery) table.
    pub table: String,
    /// Inner table row count at bind time.
    pub rows: usize,
    /// Correlation key on the outer table.
    pub outer_key: String,
    /// Correlation key on the inner table.
    pub inner_key: String,
    /// Conjuncts over inner-table columns only.
    pub conjuncts: Vec<Predicate>,
}

/// A projected output column of a non-aggregate query.
#[derive(Clone, Debug)]
pub struct BoundItem {
    /// Output name.
    pub name: String,
    /// The projected expression.
    pub expr: Expr,
    /// How the values decode.
    pub decode: ColumnDecode,
}

/// One aggregate computation.
#[derive(Clone, Debug)]
pub struct BoundAgg {
    /// Output name.
    pub name: String,
    /// The fold.
    pub func: AggFunc,
    /// Aggregated expression; `None` means `COUNT(*)`.
    pub arg: Option<Expr>,
}

/// One GROUP BY column with its bind-time value range (for key packing and
/// hash-table sizing).
#[derive(Clone, Debug)]
pub struct BoundGroup {
    /// The grouping column.
    pub column: String,
    /// How the values decode.
    pub decode: ColumnDecode,
    /// Smallest value observed at bind time.
    pub lo: i64,
    /// Largest value observed at bind time.
    pub hi: i64,
}

/// Where a select-list entry of an aggregate query comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputSource {
    /// The i-th GROUP BY column.
    Group(usize),
    /// The i-th aggregate.
    Agg(usize),
}

/// A select-list entry of an aggregate query.
#[derive(Clone, Debug)]
pub struct BoundOutput {
    /// Output name.
    pub name: String,
    /// Group column or aggregate index.
    pub source: OutputSource,
}

/// The select layer of a bound query.
#[derive(Clone, Debug)]
pub enum BoundSelect {
    /// Row-wise projection, no aggregation.
    Plain(Vec<BoundItem>),
    /// Group-by (or whole-input) aggregation.
    Aggregate {
        /// GROUP BY columns (empty for whole-input aggregates).
        group: Vec<BoundGroup>,
        /// The aggregates.
        aggs: Vec<BoundAgg>,
        /// Select-list order over groups and aggregates.
        outputs: Vec<BoundOutput>,
    },
}

/// One ORDER BY key over the aggregate outputs.
#[derive(Clone, Copy, Debug)]
pub struct BoundOrder {
    /// What to sort by.
    pub source: OutputSource,
    /// Descending?
    pub desc: bool,
}

/// A fully bound logical query.
#[derive(Clone, Debug)]
pub struct BoundQuery {
    /// Base tables; index 0 is the FROM table, the rest join in order.
    pub tables: Vec<BoundTable>,
    /// Join links; `joins[i]` joins `tables[i + 1]`.
    pub joins: Vec<BoundJoin>,
    /// Optional EXISTS semi-join.
    pub exists: Option<BoundExists>,
    /// WHERE conjuncts not yet routed to a scan (the naive form; emptied by
    /// predicate pushdown).
    pub conjuncts: Vec<Predicate>,
    /// Per-table predicates routed by predicate pushdown.
    pub scan_preds: Vec<Vec<Predicate>>,
    /// Columns each scan reads (all columns until projection pruning).
    pub scan_cols: Vec<BTreeSet<String>>,
    /// The select layer.
    pub select: BoundSelect,
    /// ORDER BY keys (aggregate queries only).
    pub order_by: Vec<BoundOrder>,
    /// LIMIT row count.
    pub limit: Option<usize>,
    /// Column name → owning table index (names are globally unique).
    pub col_table: BTreeMap<String, usize>,
    /// Span of the whole statement, for rewrite/lowering diagnostics.
    pub span: Span,
}

impl BoundQuery {
    /// Table indices referenced by a predicate's leaf columns.
    pub fn pred_tables(&self, pred: &Predicate) -> BTreeSet<usize> {
        pred.columns()
            .into_iter()
            .filter_map(|c| self.col_table.get(c).copied())
            .collect()
    }

    /// The minimal set of columns each table must scan: those the select
    /// layer reads, both keys of every join, the EXISTS outer key and the
    /// columns of the routed and unrouted predicates.
    pub fn required_columns(&self) -> Vec<BTreeSet<String>> {
        let mut cols = self.select_columns();
        let keys = self
            .joins
            .iter()
            .flat_map(|j| [&j.stream_key, &j.table_key]);
        cols.extend(keys.map(String::as_str));
        cols.extend(self.exists.iter().map(|ex| ex.outer_key.as_str()));
        let preds = self
            .conjuncts
            .iter()
            .chain(self.scan_preds.iter().flatten());
        cols.extend(preds.flat_map(Predicate::columns));
        self.by_table(cols)
    }

    /// The columns the select layer reads: projected expressions, or group
    /// columns and aggregate arguments.
    pub(crate) fn select_columns(&self) -> Vec<&str> {
        match &self.select {
            BoundSelect::Plain(items) => items.iter().flat_map(|i| i.expr.columns()).collect(),
            BoundSelect::Aggregate { group, aggs, .. } => group
                .iter()
                .map(|g| g.column.as_str())
                .chain(
                    aggs.iter()
                        .filter_map(|a| a.arg.as_ref())
                        .flat_map(Expr::columns),
                )
                .collect(),
        }
    }

    /// Sorts column names into per-table sets, dropping names no table owns.
    fn by_table<'c>(&self, cols: impl IntoIterator<Item = &'c str>) -> Vec<BTreeSet<String>> {
        let mut out = vec![BTreeSet::new(); self.tables.len()];
        for c in cols {
            if let Some(&t) = self.col_table.get(c) {
                out[t].insert(c.to_string());
            }
        }
        out
    }
}
