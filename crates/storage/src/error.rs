//! Error type for the storage substrate.

use std::fmt;

/// Errors produced by storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A column was requested that does not exist in the table.
    ColumnNotFound {
        /// Table the lookup ran against.
        table: String,
        /// Missing column name.
        column: String,
    },
    /// A table was requested that does not exist in the catalog.
    TableNotFound(String),
    /// Columns of a table (or inputs of an operation) disagree in length.
    LengthMismatch {
        /// First length observed.
        expected: usize,
        /// Conflicting length observed.
        actual: usize,
    },
    /// An index was out of bounds.
    OutOfBounds {
        /// Requested index.
        index: usize,
        /// Container length.
        len: usize,
    },
    /// A dictionary code did not resolve to a dictionary entry.
    BadDictCode(u32),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ColumnNotFound { table, column } => {
                write!(f, "column `{column}` not found in table `{table}`")
            }
            StorageError::TableNotFound(t) => write!(f, "table `{t}` not found in catalog"),
            StorageError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            StorageError::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            StorageError::BadDictCode(c) => write!(f, "dictionary code {c} has no entry"),
        }
    }
}

impl std::error::Error for StorageError {}
