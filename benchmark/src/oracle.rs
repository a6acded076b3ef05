//! Expected results, computed once in set-up from implementations that
//! share no code with the engine's kernels: `adamant::tpch::reference` for
//! the hand-built plans and the scalar host interpreter for SQL texts.

use adamant::prelude::*;
use adamant::sql::prelude::run_sql_host;
use adamant::sql::ColumnDecode;
use adamant::storage::datatype::format_date;
use adamant::tpch::queries::{q1, q10, q12, q14, q3, q4, q6};
use adamant::tpch::reference::{self, Q10Row, Q12Row, Q1Row, Q3Row, Q4Row};

/// A decoded query result, comparable between engine and oracle.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Q1(Vec<Q1Row>),
    Q3(Vec<Q3Row>),
    Q4(Vec<Q4Row>),
    Q6(i64),
    Q10(Vec<Q10Row>),
    Q12(Vec<Q12Row>),
    Q14((i64, i64)),
    Rows(Vec<Vec<SqlValue>>),
}

/// The reference answer of a hand-built TPC-H plan.
pub fn reference(q: TpchQuery, cat: &Catalog) -> Result<Answer, String> {
    let e = |e: adamant::storage::error::StorageError| format!("reference {q}: {e}");
    Ok(match q {
        TpchQuery::Q1 => Answer::Q1(reference::q1(cat).map_err(e)?),
        TpchQuery::Q3 => Answer::Q3(reference::q3(cat).map_err(e)?),
        TpchQuery::Q4 => Answer::Q4(reference::q4(cat).map_err(e)?),
        TpchQuery::Q6 => Answer::Q6(reference::q6(cat).map_err(e)?),
        TpchQuery::Q10 => Answer::Q10(reference::q10(cat).map_err(e)?),
        TpchQuery::Q12 => Answer::Q12(reference::q12(cat).map_err(e)?),
        TpchQuery::Q14 => Answer::Q14(reference::q14(cat).map_err(e)?),
    })
}

/// Decodes an executor output into the query's typed rows (the last step
/// of the timed region: a client wants rows, not buffers).
pub fn decode(q: TpchQuery, cat: &Catalog, out: &QueryOutput) -> Result<Answer, ExecError> {
    Ok(match q {
        TpchQuery::Q1 => Answer::Q1(q1::decode(cat, out)?),
        TpchQuery::Q3 => Answer::Q3(q3::decode(out)),
        TpchQuery::Q4 => Answer::Q4(q4::decode(cat, out)?),
        TpchQuery::Q6 => Answer::Q6(q6::decode(out)),
        TpchQuery::Q10 => Answer::Q10(q10::decode(out)),
        TpchQuery::Q12 => Answer::Q12(q12::decode(cat, out)?),
        TpchQuery::Q14 => Answer::Q14(q14::decode(out)),
    })
}

/// The host interpreter's answer to `sql`, decoded with the compiled
/// query's own column decoders so it compares exactly against
/// `Session::sql` rows.
pub fn sql_reference(sql: &str, cat: &Catalog, device: DeviceId) -> Result<Answer, String> {
    let compiled =
        adamant::sql::compile(sql, cat, device).map_err(|e| format!("compile `{sql}`: {e}"))?;
    let raw = run_sql_host(sql, cat).map_err(|e| format!("oracle `{sql}`: {e}"))?;
    let mut rows = Vec::with_capacity(raw.len());
    for r in &raw {
        let mut row = Vec::with_capacity(r.len());
        for (&v, o) in r.iter().zip(&compiled.outputs) {
            row.push(match &o.decode {
                ColumnDecode::Int => SqlValue::Int(v),
                ColumnDecode::Date => SqlValue::Date(format_date(v as i32)),
                ColumnDecode::Dict { table, column } => {
                    let dict = cat
                        .table(table)
                        .and_then(|t| t.column(column))
                        .ok()
                        .and_then(|c| c.dictionary())
                        .ok_or_else(|| {
                            format!("oracle `{sql}`: no dictionary on {table}.{column}")
                        })?;
                    let s = dict.get(v as usize).ok_or_else(|| {
                        format!("oracle `{sql}`: code {v} outside {table}.{column}")
                    })?;
                    SqlValue::Str(s.clone())
                }
            });
        }
        rows.push(row);
    }
    Ok(Answer::Rows(rows))
}
