//! # adamant-task
//!
//! The **task layer** of ADAMANT (paper §III-B): it encapsulates multiple
//! implementations of each database *primitive* behind fixed functional
//! signatures, so any SDK's implementation can be plugged in and freely
//! combined with others.
//!
//! * [`primitive::PrimitiveKind`] — the primitive definitions of Table I
//!   (plus documented extensions), with their I/O signatures.
//! * [`semantics::DataSemantic`] — the I/O semantics (`NUMERIC`, `BITMAP`,
//!   `POSITION`, `PREFIX_SUM`, `HASH_TABLE`, `GENERIC`).
//! * [`kernels`] — the reference kernel implementations (they run on every
//!   simulated SDK; per-SDK *performance* differences come from the device
//!   cost models, per-SDK *variants* can be registered alongside).
//! * [`program`] — the wire format a fused chain's stages travel in
//!   (encoder for the runtime, decoder for the interpreter kernel).
//! * [`registry::TaskRegistry`] — the kernel/data containers keyed by
//!   `(primitive, SDK)`, consulted by the runtime when binding a plan.
//! * [`hashtable`] — device-resident join and aggregation hash tables
//!   (open addressing, linear probing, as in the paper's §V-A).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod container;
pub mod hashtable;
pub mod kernels;
pub mod params;
pub mod primitive;
pub mod program;
pub mod registry;
pub mod semantics;

pub use container::{DataContainer, KernelContainer};
pub use hashtable::{AggHashTable, JoinHashTable};
pub use params::{AggFunc, BitmapOp, CmpOp, MapOp};
pub use primitive::{PrimitiveKind, PrimitiveSignature};
pub use registry::TaskRegistry;
pub use semantics::DataSemantic;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::container::{DataContainer, KernelContainer};
    pub use crate::hashtable::{AggHashTable, JoinHashTable};
    pub use crate::params::{AggFunc, BitmapOp, CmpOp, MapOp};
    pub use crate::primitive::{PrimitiveKind, PrimitiveSignature};
    pub use crate::registry::TaskRegistry;
    pub use crate::semantics::DataSemantic;
}
