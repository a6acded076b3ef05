//! Primitive-graph plans for the paper's evaluated queries.
//!
//! Each query module provides `plan` (lowered via `adamant-plan`), `bind`
//! (host columns → executor inputs) and `decode` (query output → typed
//! rows comparable with [`crate::reference`]).

pub mod q1;
pub mod q10;
pub mod q12;
pub mod q14;
pub mod q3;
pub mod q4;
pub mod q6;

use adamant_core::error::Result;
use adamant_core::executor::QueryInputs;
use adamant_core::graph::PrimitiveGraph;
use adamant_device::device::DeviceId;
use adamant_storage::prelude::Catalog;

/// The TPC-H queries the paper evaluates (Q3: multiple joins, Q4: subquery,
/// Q6: heavy aggregation; Q1 exercises the multi-aggregate path).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TpchQuery {
    /// Pricing summary report.
    Q1,
    /// Shipping priority (multiple joins).
    Q3,
    /// Order priority checking (EXISTS subquery).
    Q4,
    /// Revenue forecast (heavy aggregation).
    Q6,
    /// Returned item reporting, reduced form (join + grouped revenue).
    Q10,
    /// Shipping modes and order priority (IN-lists + conditional counts).
    Q12,
    /// Promotion effect (derived join payload + conditional revenue).
    Q14,
}

impl TpchQuery {
    /// All implemented queries.
    pub const ALL: [TpchQuery; 7] = [
        TpchQuery::Q1,
        TpchQuery::Q3,
        TpchQuery::Q4,
        TpchQuery::Q6,
        TpchQuery::Q10,
        TpchQuery::Q12,
        TpchQuery::Q14,
    ];

    /// The queries the paper's Fig. 10/11 evaluate.
    pub const PAPER_SET: [TpchQuery; 3] = [TpchQuery::Q3, TpchQuery::Q4, TpchQuery::Q6];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TpchQuery::Q1 => "Q1",
            TpchQuery::Q3 => "Q3",
            TpchQuery::Q4 => "Q4",
            TpchQuery::Q6 => "Q6",
            TpchQuery::Q10 => "Q10",
            TpchQuery::Q12 => "Q12",
            TpchQuery::Q14 => "Q14",
        }
    }

    /// Builds the primitive graph targeting one device.
    pub fn plan(self, device: DeviceId, catalog: &Catalog) -> Result<PrimitiveGraph> {
        match self {
            TpchQuery::Q1 => q1::plan(device, catalog),
            TpchQuery::Q3 => q3::plan(device, catalog),
            TpchQuery::Q4 => q4::plan(device, catalog),
            TpchQuery::Q6 => q6::plan(device, catalog),
            TpchQuery::Q10 => q10::plan(device, catalog),
            TpchQuery::Q12 => q12::plan(device, catalog),
            TpchQuery::Q14 => q14::plan(device, catalog),
        }
    }

    /// Binds the query's input columns from the catalog.
    pub fn bind(self, catalog: &Catalog) -> Result<QueryInputs> {
        bind_columns(catalog, self.input_columns())
    }

    /// `(table, column)` pairs the query reads — its *input footprint*
    /// (the quantity of Fig. 7-left).
    pub fn input_columns(self) -> &'static [(&'static str, &'static str)] {
        match self {
            TpchQuery::Q1 => q1::COLUMNS,
            TpchQuery::Q3 => q3::COLUMNS,
            TpchQuery::Q4 => q4::COLUMNS,
            TpchQuery::Q6 => q6::COLUMNS,
            TpchQuery::Q10 => q10::COLUMNS,
            TpchQuery::Q12 => q12::COLUMNS,
            TpchQuery::Q14 => q14::COLUMNS,
        }
    }

    /// Input footprint in bytes against a generated catalog.
    pub fn input_bytes(self, catalog: &Catalog) -> Result<u64> {
        let mut total = 0u64;
        for (table, col) in self.input_columns() {
            let t = catalog
                .table(table)
                .map_err(adamant_core::ExecError::from)?;
            let c = t.column(col).map_err(adamant_core::ExecError::from)?;
            total += c.byte_len() as u64;
        }
        Ok(total)
    }
}

impl std::fmt::Display for TpchQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Binds `(table, column)` pairs as executor inputs named by bare column.
pub fn bind_columns(catalog: &Catalog, specs: &[(&str, &str)]) -> Result<QueryInputs> {
    let mut inputs = QueryInputs::new();
    for (table, col) in specs {
        let t = catalog
            .table(table)
            .map_err(adamant_core::ExecError::from)?;
        let c = t.column(col).map_err(adamant_core::ExecError::from)?;
        inputs.bind_column(*col, c)?;
    }
    Ok(inputs)
}
