//! # adamant-storage
//!
//! Columnar storage substrate for the ADAMANT query executor.
//!
//! This crate provides the host-side data representation used throughout the
//! system: typed [`Column`]s, [`Table`]s grouped in a [`Catalog`], bit-packed
//! [`Bitmap`]s and [`PositionList`]s (the two intermediate result formats the
//! paper's `FILTER_*` primitives produce), and chunk views used by the chunked
//! execution models.
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
pub mod chunk;
pub mod column;
pub mod datatype;
pub mod error;
pub mod fnv;
pub mod position;
pub mod rng;
pub mod table;

pub use bitmap::Bitmap;
pub use catalog::Catalog;
pub use chunk::ChunkView;
pub use column::{Column, ColumnData, SharedRows};
pub use datatype::{DataType, Value};
pub use error::StorageError;
pub use position::PositionList;
pub use rng::Rng;
pub use table::{ColumnInfo, Field, Schema, Table, TableInfo};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::bitmap::Bitmap;
    pub use crate::catalog::Catalog;
    pub use crate::chunk::ChunkView;
    pub use crate::column::{Column, ColumnData, SharedRows};
    pub use crate::datatype::{DataType, Value};
    pub use crate::error::StorageError;
    pub use crate::fnv::{FnvHashMap, FnvHashSet};
    pub use crate::position::PositionList;
    pub use crate::rng::Rng;
    pub use crate::table::{ColumnInfo, Field, Schema, Table, TableInfo};
}
