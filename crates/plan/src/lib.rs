//! # adamant-plan
//!
//! A small logical-plan layer in front of the ADAMANT runtime.
//!
//! The paper's runtime "takes a query plan (generated from any existing
//! optimizer) translated into a primitive graph with annotations". This
//! crate is that translation: a [`PlanBuilder`] with relational operations
//! (scan, filter, project, hash join, aggregation, sort) that lowers to an
//! `adamant-core` [`PrimitiveGraph`](adamant_core::graph::PrimitiveGraph),
//! handling the fiddly parts — late materialization through selection
//! bitmaps, join position chains, group-by export — so query authors don't
//! build primitive graphs by hand.
//!
//! ```
//! use adamant_plan::prelude::*;
//! use adamant_device::device::DeviceId;
//! use adamant_task::params::{AggFunc, CmpOp};
//!
//! let mut pb = PlanBuilder::new(DeviceId(0));
//! let mut t = pb.scan("t", &["x", "y"]);
//! t.filter(&mut pb, Predicate::cmp("x", CmpOp::Gt, 10)).unwrap();
//! t.project(&mut pb, "xy", Expr::col("x").mul(Expr::col("y"))).unwrap();
//! let xy = t.materialized(&mut pb, "xy").unwrap();
//! let sum = pb.agg_block(xy, AggFunc::Sum, "sum_xy");
//! pb.output("sum_xy", sum);
//! let graph = pb.build().unwrap();
//! assert!(graph.nodes().len() >= 3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod expr;
pub mod stream;

pub use expr::{Expr, Predicate};
pub use stream::{GroupResult, PlanBuilder, Stream};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::expr::{Expr, Predicate};
    pub use crate::stream::{GroupResult, PlanBuilder, Stream};
}
