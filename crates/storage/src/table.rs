//! Tables and schemas.

use crate::column::Column;
use crate::datatype::DataType;
use crate::error::StorageError;

/// One field of a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered collection of fields.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }
}

/// Size and type summary of one column, as reported by
/// [`Table::describe`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnInfo {
    /// Column name.
    pub name: String,
    /// Logical type.
    pub data_type: DataType,
    /// Bytes of row data (dictionary columns count codes only).
    pub bytes: usize,
    /// Number of distinct dictionary entries, for dictionary columns.
    pub dict_size: Option<usize>,
}

/// Schema and size summary of one table, as reported by
/// [`Table::describe`] and `Catalog::describe`. This is what a SQL binder
/// needs to resolve and type column references without touching row data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Total bytes of row data.
    pub bytes: usize,
    /// Per-column name/type/size, in column order.
    pub columns: Vec<ColumnInfo>,
}

/// A named table: a schema plus equal-length columns.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    row_count: usize,
}

impl Table {
    /// Creates a table from columns; all columns must agree in length.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<Self, StorageError> {
        let row_count = columns.first().map(|c| c.len()).unwrap_or(0);
        for c in &columns {
            if c.len() != row_count {
                return Err(StorageError::LengthMismatch {
                    expected: row_count,
                    actual: c.len(),
                });
            }
        }
        Ok(Table {
            name: name.into(),
            columns,
            row_count,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The schema derived from the columns.
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Field::new(c.name(), c.data_type()))
                .collect(),
        )
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column, StorageError> {
        self.columns
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| StorageError::ColumnNotFound {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// Total bytes of row data across all columns.
    pub fn byte_len(&self) -> usize {
        self.columns.iter().map(|c| c.byte_len()).sum()
    }

    /// Schema introspection: name, row count and per-column type/size
    /// summary (no row data is copied).
    pub fn describe(&self) -> TableInfo {
        TableInfo {
            name: self.name.clone(),
            rows: self.row_count,
            bytes: self.byte_len(),
            columns: self
                .columns
                .iter()
                .map(|c| ColumnInfo {
                    name: c.name().to_string(),
                    data_type: c.data_type(),
                    bytes: c.byte_len(),
                    dict_size: c.dictionary().map(|d| d.len()),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(
            "t",
            vec![
                Column::from_i64("k", vec![1, 2, 3]),
                Column::from_i32("v", vec![10, 20, 30]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths() {
        let bad = Table::new(
            "t",
            vec![
                Column::from_i64("a", vec![1]),
                Column::from_i64("b", vec![1, 2]),
            ],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn lookup_and_schema() {
        let t = sample();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column("v").unwrap().data_type(), DataType::Int32);
        assert!(t.column("zzz").is_err());
        let s = t.schema();
        assert_eq!(s.fields()[1].name, "v");
        assert_eq!(s.fields().len(), 2);
    }

    #[test]
    fn footprints() {
        let t = sample();
        assert_eq!(t.byte_len(), 3 * 8 + 3 * 4);
    }

    #[test]
    fn describe_reports_schema_and_sizes() {
        let t = Table::new(
            "t",
            vec![
                Column::from_i64("k", vec![1, 2, 3]),
                Column::from_i32("v", vec![10, 20, 30]),
                Column::from_strings("s", &["x", "y", "x"]),
            ],
        )
        .unwrap();
        let info = t.describe();
        assert_eq!(info.name, "t");
        assert_eq!(info.rows, 3);
        assert_eq!(info.bytes, t.byte_len());
        assert_eq!(info.columns.len(), 3);
        assert_eq!(info.columns[0].name, "k");
        assert_eq!(info.columns[0].data_type, DataType::Int64);
        assert_eq!(info.columns[0].bytes, 24);
        assert_eq!(info.columns[0].dict_size, None);
        assert_eq!(info.columns[2].data_type, DataType::DictStr);
        assert_eq!(info.columns[2].dict_size, Some(2));
    }
}
