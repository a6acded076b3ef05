//! # adamant-storage
//!
//! Columnar storage substrate for the ADAMANT query executor.
//!
//! This crate provides the host-side data representation used throughout the
//! system: typed [`Column`]s and [`Table`]s grouped in a [`Catalog`].
//!
//! The paper (ADAMANT, ICDE 2023) assumes a columnar engine feeding the
//! executor; this crate is that substrate, built from scratch.
//!
//! ```
//! use adamant_storage::prelude::*;
//!
//! let col = Column::from_i64("qty", vec![5, 12, 30, 7]);
//! assert_eq!(col.len(), 4);
//! assert_eq!(col.value(2).unwrap(), Value::I64(30));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod column;
pub mod datatype;
pub mod error;
pub mod fnv;
pub mod rng;
pub mod table;

pub use catalog::Catalog;
pub use column::{Column, ColumnData, SharedRows};
pub use datatype::{DataType, Value};
pub use error::StorageError;
pub use rng::Rng;
pub use table::{ColumnInfo, Field, Schema, Table, TableInfo};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::catalog::Catalog;
    pub use crate::column::{Column, ColumnData, SharedRows};
    pub use crate::datatype::{DataType, Value};
    pub use crate::error::StorageError;
    pub use crate::rng::Rng;
    pub use crate::table::{ColumnInfo, Field, Schema, Table, TableInfo};
}
