//! The SQL serving layer: text in, typed rows out.
//!
//! A [`Session`] ties the SQL front door (`adamant-sql`) to a catalog and
//! an engine. Each [`Session::sql`] call compiles the text to a primitive
//! graph, binds the pruned input columns from the catalog, estimates the
//! admission footprint, and submits the query through the multi-query
//! scheduler — so SQL queries pass the same admission control, fair
//! queuing and (when enabled) preemption as hand-built submissions — then
//! decodes the outputs into typed [`SqlValue`] rows using the compiled
//! column decoders (dictionary strings, dates, scaled integers).

use crate::Adamant;
use adamant_core::executor::QueryInputs;
use adamant_core::models::ExecutionModel;
use adamant_core::result::QueryOutput;
use adamant_core::stats::ExecutionStats;
use adamant_core::ExecError;
use adamant_sched::{estimate_footprint_bytes, QueryOutcome, QuerySpec, ShedReason};
use adamant_sql::{ColumnDecode, CompiledQuery, SqlError};
use adamant_storage::datatype::format_date;
use adamant_storage::prelude::Catalog;

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

    /// Compiles and serves one SQL query through the scheduler.
    pub fn sql(&mut self, text: &str) -> Result<SqlResultSet, SessionError> {
        let device =
            self.engine.device_ids().first().copied().ok_or_else(|| {
                SessionError::Exec(ExecError::Internal("no devices plugged".into()))
            })?;
        let compiled = adamant_sql::compile(text, self.catalog, device)?;

        let mut inputs = QueryInputs::new();
        for (table, col) in &compiled.input_columns {
            let t = self.catalog.table(table).map_err(exec_err)?;
            let c = t.column(col).map_err(exec_err)?;
            inputs
                .bind_column(col.as_str(), c)
                .map_err(SessionError::Exec)?;
        }

        let chunk_rows = self.engine.executor().config().chunk_rows;
        let footprint = estimate_footprint_bytes(&compiled.graph, &inputs, chunk_rows);
        let spec =
            QuerySpec::new(compiled.graph.clone(), inputs, self.model).with_footprint(footprint);

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
                let (columns, rows) = self.decode(&compiled, &output)?;
                Ok(SqlResultSet {
                    columns,
                    rows,
                    stats: *stats,
                    footprint_bytes: footprint,
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
                .get(&o.name)
                .and_then(|d| d.as_i64())
                .ok_or_else(|| {
                    SessionError::Exec(ExecError::Internal(format!(
                        "output `{}` missing or not integer data",
                        o.name
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
                let raw = c[if compiled.scalar { 0 } else { r }];
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
}
