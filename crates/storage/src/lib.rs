//! # adamant-storage
//!
//! Columnar storage substrate for the ADAMANT query executor.
//!
//! This crate provides the host-side data representation used throughout the
//! system: typed [`Column`]s, [`Table`]s grouped in a [`Catalog`], bit-packed
//! [`Bitmap`]s (the selection format of the paper's `FILTER_BITMAP`
//! primitive).
//!
//! The paper (ADAMANT, ICDE 2023) assumes a columnar engine feeding the
//! executor; this crate is that substrate, built from scratch.
//!
//! ```
//! use adamant_storage::prelude::*;
//!
//! let col = Column::from_i64("qty", vec![5, 12, 30, 7]);
//! let bm = Bitmap::from_bools(&[false, true, true, false]);
//! assert_eq!(bm.count_ones(), 2);
//! assert_eq!(col.len(), 4);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitmap;
pub mod catalog;
pub mod column;
pub mod datatype;
pub mod error;
pub mod fnv;
pub mod rng;
pub mod table;

pub use bitmap::Bitmap;
pub use catalog::Catalog;
pub use column::{Column, ColumnData, SharedRows};
pub use datatype::{DataType, Value};
pub use error::StorageError;
pub use rng::Rng;
pub use table::{ColumnInfo, Field, Schema, Table, TableInfo};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::bitmap::Bitmap;
    pub use crate::catalog::Catalog;
    pub use crate::column::{Column, ColumnData, SharedRows};
    pub use crate::datatype::{DataType, Value};
    pub use crate::error::StorageError;
    pub use crate::rng::Rng;
    pub use crate::table::{ColumnInfo, Field, Schema, Table, TableInfo};
}
