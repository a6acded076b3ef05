//! The SQL serving layer: text in, typed rows out.
//!
//! A [`Session`] ties the SQL front door (`adamant-sql`) to a catalog and
//! an engine. [`Session::sql`] compiles the text to a primitive graph,
//! binds the pruned input columns from the catalog, estimates the
//! admission footprint, and submits the query through the multi-query
//! scheduler — so SQL queries pass the same admission control, fair
//! queuing and (when enabled) preemption as hand-built submissions — then
//! decodes the outputs into typed [`SqlValue`] rows using the compiled
//! column decoders (dictionary strings, dates, scaled integers).
//!
//! The engine, not the session, keeps what a text compiles to: a bounded
//! cache maps the exact SQL text to its compiled query, admission footprint
//! and [prepared plan](Prepared), valid for one catalog
//! [stamp](Catalog::stamp). It is valid on any device: the scheduler starts
//! every pipeline of the plan on the device it picks, and the footprint
//! reads no device. A repeated text skips parse, bind, rewrite, lower,
//! footprint estimation, fusion, pipeline splitting and scalar encoding,
//! from any session on the same engine, and its query carries the kept plan
//! by reference; everything after the lookup is the same path for a hit and
//! a miss.

use crate::Adamant;
use adamant_core::executor::QueryInputs;
use adamant_core::models::ExecutionModel;
use adamant_core::prepared::Prepared;
use adamant_core::result::QueryOutput;
use adamant_core::stats::ExecutionStats;
use adamant_core::ExecError;
use adamant_sched::{estimate_footprint_bytes, QueryOutcome, QuerySpec, ShedReason};
use adamant_sql::{ColumnDecode, CompiledQuery, SqlError};
use adamant_storage::datatype::format_date;
use adamant_storage::prelude::Catalog;
use std::collections::HashMap;
use std::sync::Arc;

/// Statements the engine keeps compiled; a new text beyond this many
/// evicts the least recently used.
const STATEMENT_CACHE_ENTRIES: usize = 256;

/// What one SQL text compiled to.
struct Statement {
    query: CompiledQuery,
    /// Admission footprint. It depends on the graph, on the bound input
    /// lengths (fixed by the catalog stamp) and on `chunk_rows` (fixed when
    /// the engine is built).
    footprint: u64,
    /// `query.graph` prepared by the engine's executor (fused when it fuses;
    /// fixed when the engine is built), what every serve runs.
    prepared: Arc<Prepared>,
}

struct CacheEntry {
    statement: Arc<Statement>,
    /// The catalog stamp the statement was compiled against.
    stamp: u64,
    last_use: u64,
}

/// The engine's SQL statement cache: exact text → compiled statement,
/// bounded at [`STATEMENT_CACHE_ENTRIES`] with least-recently-used
/// eviction. Errors (a text that does not compile, a graph that does not
/// prepare) are never cached, and neither are input columns: a replaced
/// table's columns are not kept alive.
#[derive(Default)]
pub(crate) struct StatementCache {
    entries: HashMap<String, CacheEntry>,
    tick: u64,
}

impl StatementCache {
    /// The statement `text` compiled to against a catalog stamped `stamp`,
    /// marked used; `None` when there is none or it was compiled for
    /// another stamp.
    fn get(&mut self, text: &str, stamp: u64) -> Option<Arc<Statement>> {
        self.tick += 1;
        let entry = self.entries.get_mut(text)?;
        if entry.stamp != stamp {
            return None;
        }
        entry.last_use = self.tick;
        Some(Arc::clone(&entry.statement))
    }

    /// Records what `text` compiled to, replacing a stale entry for it or
    /// evicting the least recently used one when full.
    fn insert(&mut self, text: &str, stamp: u64, statement: Arc<Statement>) {
        let entry = CacheEntry {
            statement,
            stamp,
            last_use: self.tick,
        };
        if let Some(stale) = self.entries.get_mut(text) {
            *stale = entry;
            return;
        }
        if self.entries.len() >= STATEMENT_CACHE_ENTRIES {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(text, _)| text.clone());
            if let Some(lru) = lru {
                self.entries.remove(&lru);
            }
        }
        self.entries.insert(text.to_owned(), entry);
    }
}

/// One decoded cell of a SQL result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SqlValue {
    /// An integer (or scaled-integer) value.
    Int(i64),
    /// A dictionary-decoded string.
    Str(String),
    /// A date, formatted `yyyy-mm-dd`.
    Date(String),
}

impl std::fmt::Display for SqlValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlValue::Int(v) => write!(f, "{v}"),
            SqlValue::Str(s) | SqlValue::Date(s) => f.write_str(s),
        }
    }
}

/// The decoded result of one SQL query, plus its scheduling telemetry.
#[derive(Clone, Debug)]
pub struct SqlResultSet {
    /// Output column names, in select-list order.
    pub columns: Vec<String>,
    /// Decoded rows (LIMIT already applied).
    pub rows: Vec<Vec<SqlValue>>,
    /// Executor statistics for the run.
    pub stats: ExecutionStats,
    /// Admission footprint the scheduler reserved, in bytes.
    pub footprint_bytes: u64,
    /// Modeled ns the query waited for admission.
    pub wait_ns: f64,
}

/// Why a session query produced no rows.
#[derive(Debug)]
pub enum SessionError {
    /// The text failed to parse, bind, rewrite or lower.
    Sql(SqlError),
    /// Admitted but failed during execution.
    Exec(ExecError),
    /// Shed by the scheduler (capacity loss).
    Shed(ShedReason),
    /// Rejected at admission: the footprint exceeds every device.
    Rejected(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Sql(e) => write!(f, "sql error: {e}"),
            SessionError::Exec(e) => write!(f, "execution error: {e}"),
            SessionError::Shed(r) => write!(f, "query shed: {r}"),
            SessionError::Rejected(r) => write!(f, "query rejected: {r}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<SqlError> for SessionError {
    fn from(e: SqlError) -> Self {
        SessionError::Sql(e)
    }
}

/// A SQL serving session over one engine and one catalog.
///
/// Holds per-session defaults — tenant identity and weight, execution
/// model — applied to every query it serves. The
/// session borrows the engine exclusively; queries on the same session
/// run sequentially on the shared simulated timeline.
pub struct Session<'a> {
    engine: &'a mut Adamant,
    catalog: &'a Catalog,
    tenant: String,
    weight: f64,
    model: ExecutionModel,
}

impl<'a> Session<'a> {
    /// Opens a session with default settings: tenant `"default"` at weight
    /// 1.0, chunked execution.
    pub fn new(engine: &'a mut Adamant, catalog: &'a Catalog) -> Self {
        Session {
            engine,
            catalog,
            tenant: "default".to_string(),
            weight: 1.0,
            model: ExecutionModel::Chunked,
        }
    }

    /// Sets the tenant this session submits as, and its fair-share weight.
    pub fn tenant(mut self, name: impl Into<String>, weight: f64) -> Self {
        self.tenant = name.into();
        self.weight = weight;
        self
    }

    /// Sets the execution model queries run under.
    pub fn model(mut self, model: ExecutionModel) -> Self {
        self.model = model;
        self
    }

    /// Serves one SQL query through the scheduler.
    ///
    /// The first call with a text compiles it, estimates its admission
    /// footprint and prepares its graph; the engine keeps all three. A
    /// later call with the same text, from any session on this engine,
    /// reuses them when the catalog has the same [stamp](Catalog::stamp),
    /// whichever devices are plugged; otherwise the text is compiled again
    /// and replaces the entry.
    /// The input columns are bound from the catalog on every call, and a
    /// text that fails to compile or prepare is not kept.
    pub fn sql(&mut self, text: &str) -> Result<SqlResultSet, SessionError> {
        let device =
            self.engine.device_ids().first().copied().ok_or_else(|| {
                SessionError::Exec(ExecError::Internal("no devices plugged".into()))
            })?;
        let stamp = self.catalog.stamp();
        let (statement, inputs) = match self.engine.statements.get(text, stamp) {
            Some(statement) => {
                let inputs = self.bind_inputs(&statement.query)?;
                (statement, inputs)
            }
            None => {
                let query = adamant_sql::compile(text, self.catalog, device)?;
                let inputs = self.bind_inputs(&query)?;
                let chunk_rows = self.engine.executor().config().chunk_rows;
                let footprint = estimate_footprint_bytes(&query.graph, &inputs, chunk_rows);
                let prepared = self.engine.executor_mut().prepare(&query.graph);
                let prepared = Arc::new(prepared.map_err(SessionError::Exec)?);
                let statement = Arc::new(Statement {
                    query,
                    footprint,
                    prepared,
                });
                let entry = Arc::clone(&statement);
                self.engine.statements.insert(text, stamp, entry);
                (statement, inputs)
            }
        };
        let prepared = Arc::clone(&statement.prepared);
        let spec =
            QuerySpec::prepared(prepared, inputs, self.model).with_footprint(statement.footprint);

        let mut sched = self.engine.session();
        sched.tenant(&self.tenant, self.weight);
        let ticket = sched.submit(&self.tenant, spec);
        let mut report = sched.run_all();
        match report.take_outcome(ticket) {
            Some(QueryOutcome::Completed {
                output,
                stats,
                wait_ns,
                ..
            }) => {
                let (columns, rows) = self.decode(&statement.query, &output)?;
                Ok(SqlResultSet {
                    columns,
                    rows,
                    stats: *stats,
                    footprint_bytes: statement.footprint,
                    wait_ns,
                })
            }
            Some(QueryOutcome::Failed { error }) => Err(SessionError::Exec(error)),
            Some(QueryOutcome::Shed { reason }) => Err(SessionError::Shed(reason)),
            Some(QueryOutcome::Rejected { reason }) => Err(SessionError::Rejected(reason)),
            None => Err(SessionError::Exec(ExecError::Internal(
                "scheduler returned no outcome for the submitted ticket".into(),
            ))),
        }
    }

    /// Binds the input columns `compiled` scans from the catalog.
    fn bind_inputs(&self, compiled: &CompiledQuery) -> Result<QueryInputs, SessionError> {
        let mut inputs = QueryInputs::new();
        for (table, col) in &compiled.input_columns {
            let t = self.catalog.table(table).map_err(exec_err)?;
            let c = t.column(col).map_err(exec_err)?;
            inputs
                .bind_column(col.as_str(), c)
                .map_err(SessionError::Exec)?;
        }
        Ok(inputs)
    }

    /// Decodes executor outputs into typed rows per the compiled decoders.
    fn decode(
        &self,
        compiled: &CompiledQuery,
        output: &QueryOutput,
    ) -> Result<(Vec<String>, Vec<Vec<SqlValue>>), SessionError> {
        let columns: Vec<String> = compiled.outputs.iter().map(|o| o.name.clone()).collect();
        let mut cols: Vec<&[i64]> = Vec::with_capacity(compiled.outputs.len());
        for o in &compiled.outputs {
            let data = output
                .get(o.source())
                .and_then(|d| d.as_i64())
                .ok_or_else(|| {
                    SessionError::Exec(ExecError::Internal(format!(
                        "output `{}` missing or not integer data",
                        o.source()
                    )))
                })?;
            cols.push(data);
        }

        let n_rows = if compiled.scalar {
            // Each output is an accumulator buffer `[state, rows]`: one
            // row, or none under `LIMIT 0`.
            compiled.limit.map_or(1, |l| l.min(1))
        } else {
            let n = cols.iter().map(|c| c.len()).min().unwrap_or(0);
            compiled.limit.map_or(n, |l| n.min(l))
        };

        let mut rows = Vec::with_capacity(n_rows);
        for r in 0..n_rows {
            let mut row = Vec::with_capacity(cols.len());
            for (c, o) in cols.iter().zip(&compiled.outputs) {
                let raw = o.value(c[if compiled.scalar { 0 } else { r }]);
                row.push(self.decode_value(raw, &o.decode)?);
            }
            rows.push(row);
        }
        Ok((columns, rows))
    }

    fn decode_value(&self, raw: i64, decode: &ColumnDecode) -> Result<SqlValue, SessionError> {
        match decode {
            ColumnDecode::Int => Ok(SqlValue::Int(raw)),
            ColumnDecode::Date => Ok(SqlValue::Date(format_date(raw as i32))),
            ColumnDecode::Dict { table, column } => {
                let t = self.catalog.table(table).map_err(exec_err)?;
                let c = t.column(column).map_err(exec_err)?;
                let dict = c.dictionary().ok_or_else(|| {
                    SessionError::Exec(ExecError::Internal(format!(
                        "column `{table}.{column}` lost its dictionary"
                    )))
                })?;
                let s = dict.get(raw as usize).ok_or_else(|| {
                    SessionError::Exec(ExecError::Internal(format!(
                        "code {raw} out of range for dictionary `{table}.{column}`"
                    )))
                })?;
                Ok(SqlValue::Str(s.clone()))
            }
        }
    }
}

fn exec_err(e: adamant_storage::error::StorageError) -> SessionError {
    SessionError::Exec(ExecError::from(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_device::fault::FaultPlan;
    use adamant_device::profiles::DeviceProfile;
    use adamant_storage::column::Column;
    use adamant_storage::table::Table;

    fn setup() -> (Adamant, Catalog) {
        let engine = Adamant::builder()
            .chunk_rows(256)
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.register(
            Table::new(
                "sales",
                vec![
                    Column::from_i64("amount", vec![50, 150, 250, 350]),
                    Column::from_strings("region", &["east", "west", "east", "west"]),
                    Column::from_dates(
                        "day",
                        vec![
                            ("1995-01-01", 1995, 1, 1),
                            ("1995-01-02", 1995, 1, 2),
                            ("1995-01-01", 1995, 1, 1),
                            ("1995-01-03", 1995, 1, 3),
                        ]
                        .into_iter()
                        .map(|(_, y, m, d)| adamant_storage::datatype::date_to_days(y, m, d))
                        .collect(),
                    ),
                ],
            )
            .unwrap(),
        );
        (engine, catalog)
    }

    #[test]
    fn scalar_query_returns_one_typed_row() {
        let (mut engine, catalog) = setup();
        let mut session = Session::new(&mut engine, &catalog).tenant("analytics", 2.0);
        let rs = session
            .sql("SELECT SUM(amount) AS total, COUNT(*) AS n FROM sales WHERE amount > 100")
            .unwrap();
        assert_eq!(rs.columns, vec!["total", "n"]);
        assert_eq!(rs.rows, vec![vec![SqlValue::Int(750), SqlValue::Int(3)]]);
        assert!(rs.footprint_bytes > 0);
        assert!(rs.stats.total_ns > 0.0);
    }

    /// `LIMIT` caps a whole-input aggregate's one row like any other
    /// result, on the device path and in the host oracle alike.
    #[test]
    fn limit_applies_to_whole_input_aggregates() {
        let (mut engine, catalog) = setup();
        let mut session = Session::new(&mut engine, &catalog);
        for (suffix, rows) in [(" LIMIT 0", 0), (" LIMIT 1", 1), (" LIMIT 5", 1), ("", 1)] {
            let sql = format!("SELECT SUM(amount) AS total FROM sales{suffix}");
            let rs = session.sql(&sql).unwrap();
            assert_eq!(rs.rows.len(), rows, "session: {sql}");
            let host = adamant_sql::prelude::run_sql_host(&sql, &catalog).unwrap();
            assert_eq!(host.len(), rows, "host oracle: {sql}");
        }
    }

    #[test]
    fn grouped_query_decodes_dict_and_date() {
        let (mut engine, catalog) = setup();
        let mut session = Session::new(&mut engine, &catalog);
        let rs = session
            .sql(
                "SELECT region, day, SUM(amount) AS total FROM sales \
                 GROUP BY region, day ORDER BY total DESC LIMIT 2",
            )
            .unwrap();
        assert_eq!(rs.columns, vec!["region", "day", "total"]);
        assert_eq!(
            rs.rows,
            vec![
                vec![
                    SqlValue::Str("west".into()),
                    SqlValue::Date("1995-01-03".into()),
                    SqlValue::Int(350),
                ],
                vec![
                    SqlValue::Str("east".into()),
                    SqlValue::Date("1995-01-01".into()),
                    SqlValue::Int(300),
                ],
            ]
        );
    }

    /// A catalog holding one `sales(amount, region)` table.
    fn sales(amount: Vec<i64>, region: &[&str]) -> Catalog {
        let mut catalog = Catalog::new();
        catalog.register(
            Table::new(
                "sales",
                vec![
                    Column::from_i64("amount", amount),
                    Column::from_strings("region", region),
                ],
            )
            .unwrap(),
        );
        catalog
    }

    /// The address of the statement the engine holds for `text`.
    fn cached(engine: &Adamant, text: &str) -> Option<*const Statement> {
        engine
            .statements
            .entries
            .get(text)
            .map(|e| Arc::as_ptr(&e.statement))
    }

    /// The address of the prepared plan the engine holds for `text`, and how
    /// many holders it has.
    fn prepared(engine: &Adamant, text: &str) -> (*const Prepared, usize) {
        let plan = &engine.statements.entries[text].statement.prepared;
        (Arc::as_ptr(plan), Arc::strong_count(plan))
    }

    /// A repeat runs the plan the first serve prepared, by reference: the
    /// same allocation, and no copy of the pointer outlives the serve.
    #[test]
    fn a_repeat_runs_the_kept_prepared_plan() {
        let (mut engine, catalog) = setup();
        let sql = "SELECT SUM(amount) AS total FROM sales WHERE amount > 100";
        let mut serves = Vec::new();
        for _ in 0..3 {
            let rs = Session::new(&mut engine, &catalog).sql(sql).unwrap();
            assert_eq!(rs.rows, vec![vec![SqlValue::Int(750)]]);
            serves.push(prepared(&engine, sql));
        }
        assert_eq!(serves[0].1, 1, "only the cache holds the plan");
        assert!(serves.iter().all(|&s| s == serves[0]), "{serves:?}");
    }

    #[test]
    fn repeated_text_is_served_from_the_cache() {
        let (mut engine, catalog) = setup();
        let sql = "SELECT SUM(amount) AS total FROM sales WHERE amount > 100";
        let first = Session::new(&mut engine, &catalog).sql(sql).unwrap();
        let compiled = cached(&engine, sql).expect("the first serve compiles and keeps");
        // A new session, another model and tenant: still the same entry.
        let second = Session::new(&mut engine, &catalog)
            .tenant("other", 3.0)
            .model(ExecutionModel::FourPhasePipelined)
            .sql(sql)
            .unwrap();
        assert_eq!(
            cached(&engine, sql),
            Some(compiled),
            "served, not recompiled"
        );
        assert_eq!(engine.statements.entries.len(), 1);
        assert_eq!(second.rows, first.rows);
        assert_eq!(second.rows, vec![vec![SqlValue::Int(750)]]);
        assert_eq!(second.footprint_bytes, first.footprint_bytes);
    }

    /// The scheduler retargets a statement to the device it picks, so a
    /// change of the first plugged device keeps the statement.
    #[test]
    fn a_new_first_device_keeps_the_statement() {
        let (_, catalog) = setup();
        let mut engine = Adamant::builder()
            .chunk_rows(256)
            .device(DeviceProfile::cuda_rtx2080ti())
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        let sql = "SELECT SUM(amount) AS total FROM sales WHERE amount > 100";
        let want = vec![vec![SqlValue::Int(750)]];
        let [first, second] = engine.device_ids()[..] else {
            panic!("two devices plugged")
        };
        let rs = Session::new(&mut engine, &catalog).sql(sql).unwrap();
        assert_eq!(rs.rows, want);
        let compiled = cached(&engine, sql).expect("the first serve compiles and keeps");
        // The next query dies on the first device and finishes on the second.
        engine
            .set_fault_plan(0, FaultPlan::none().die_on_exec(1))
            .unwrap();
        let rs = Session::new(&mut engine, &catalog).sql(sql).unwrap();
        assert_eq!((rs.rows, rs.stats.device_deaths), (want.clone(), 1));
        assert_eq!(engine.device_ids(), vec![second], "{first} is gone");
        let rs = Session::new(&mut engine, &catalog).sql(sql).unwrap();
        assert_eq!(rs.rows, want);
        assert_eq!(
            cached(&engine, sql),
            Some(compiled),
            "served, not recompiled"
        );
    }

    #[test]
    fn re_registering_a_table_recompiles() {
        let mut engine = Adamant::builder()
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        let sql = "SELECT SUM(amount) AS total, COUNT(*) AS n FROM sales";
        let mut catalog = sales(vec![50, 150, 250, 350], &["east", "west", "east", "west"]);
        let rs = Session::new(&mut engine, &catalog).sql(sql).unwrap();
        assert_eq!(rs.rows, vec![vec![SqlValue::Int(800), SqlValue::Int(4)]]);
        let before = cached(&engine, sql);
        catalog
            .register(Table::new("sales", vec![Column::from_i64("amount", vec![7, 8])]).unwrap());
        let rs = Session::new(&mut engine, &catalog).sql(sql).unwrap();
        assert_eq!(rs.rows, vec![vec![SqlValue::Int(15), SqlValue::Int(2)]]);
        assert_ne!(cached(&engine, sql), before, "the stale entry is replaced");
        assert_eq!(engine.statements.entries.len(), 1);
    }

    /// A dictionary literal compiles to a code of one catalog's dictionary:
    /// a plan kept across catalogs would compare against the wrong code.
    #[test]
    fn each_catalog_gets_its_own_dictionary_codes() {
        let mut engine = Adamant::builder()
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        let sql = "SELECT SUM(amount) AS total FROM sales WHERE region = 'east'";
        let amounts = vec![50, 150, 250, 350];
        let a = sales(amounts.clone(), &["east", "west", "east", "west"]);
        let b = sales(amounts, &["west", "east", "west", "west"]);
        for _ in 0..2 {
            for (catalog, want) in [(&a, 300), (&b, 150)] {
                let rs = Session::new(&mut engine, catalog).sql(sql).unwrap();
                assert_eq!(rs.rows, vec![vec![SqlValue::Int(want)]]);
            }
        }
    }

    #[test]
    fn statement_cache_keeps_the_most_recently_used() {
        let (mut engine, catalog) = setup();
        let text = |i: usize| format!("SELECT SUM(amount) AS total FROM sales WHERE amount > {i}");
        let mut serve = |i: usize| {
            let rs = Session::new(&mut engine, &catalog).sql(&text(i)).unwrap();
            let want: i64 = [50, 150, 250, 350].iter().filter(|&&a| a > i as i64).sum();
            assert_eq!(rs.rows, vec![vec![SqlValue::Int(want)]], "{}", text(i));
        };
        for i in 0..STATEMENT_CACHE_ENTRIES {
            serve(i);
        }
        serve(0); // a hit: text 0 is now the most recently used
        let extra = 3;
        for i in STATEMENT_CACHE_ENTRIES..STATEMENT_CACHE_ENTRIES + extra {
            serve(i);
        }
        let entries = &engine.statements.entries;
        assert_eq!(entries.len(), STATEMENT_CACHE_ENTRIES);
        for i in 0..STATEMENT_CACHE_ENTRIES + extra {
            let evicted = (1..=extra).contains(&i);
            assert_eq!(entries.contains_key(&text(i)), !evicted, "{}", text(i));
        }
    }

    #[test]
    fn sql_errors_surface_typed() {
        let (mut engine, catalog) = setup();
        let mut session = Session::new(&mut engine, &catalog);
        let err = session.sql("SELECT nope FROM sales").unwrap_err();
        match err {
            SessionError::Sql(e) => {
                assert_eq!(e.kind, adamant_sql::SqlErrorKind::Bind)
            }
            other => panic!("expected sql error, got {other}"),
        }
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let (mut engine, catalog) = setup();
        for _ in 0..2 {
            match Session::new(&mut engine, &catalog).sql("SELECT nope FROM sales") {
                Err(SessionError::Sql(e)) => assert_eq!(e.kind, adamant_sql::SqlErrorKind::Bind),
                Err(other) => panic!("expected sql error, got {other}"),
                Ok(_) => panic!("expected sql error, got rows"),
            }
            assert!(engine.statements.entries.is_empty());
        }
    }
}
