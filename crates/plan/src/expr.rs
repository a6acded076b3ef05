//! Scalar expressions and predicates over scan columns.

use adamant_task::params::{CmpOp, MapOp};

/// An arithmetic expression over columns and integer literals.
///
/// Expressions are evaluated element-wise by lowering to `MAP` primitives;
/// fixed-point decimal arithmetic is expressed with scaled integers as in
/// the paper's all-integer evaluation (e.g. `1 - discount` becomes
/// `100 - disc_pct`).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A scan (or projected) column by name.
    Col(String),
    /// An integer literal.
    Lit(i64),
    /// `left + right`.
    Add(Box<Expr>, Box<Expr>),
    /// `left - right`.
    Sub(Box<Expr>, Box<Expr>),
    /// `left * right`.
    Mul(Box<Expr>, Box<Expr>),
    /// `left / right` (guarded: x/0 = 0).
    Div(Box<Expr>, Box<Expr>),
    /// `(inner <op> constant) as 0/1` — indicator for CASE-style
    /// conditional aggregation (`sum(case when … then 1 else 0 end)`).
    Indicator(Box<Expr>, MapOp, i64),
}

#[allow(clippy::should_implement_trait)] // DSL builders named after SQL ops
impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Integer literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Lit(v)
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    /// `(self == c) as 0/1`.
    pub fn eq_const(self, c: i64) -> Expr {
        Expr::Indicator(Box::new(self), MapOp::EqConst, c)
    }

    /// `(self >= c) as 0/1`.
    pub fn ge_const(self, c: i64) -> Expr {
        Expr::Indicator(Box::new(self), MapOp::GeConst, c)
    }

    /// Column names referenced by this expression.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Col(c) => out.push(c),
            Expr::Lit(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Indicator(a, _, _) => a.collect_columns(out),
        }
    }
}

/// A filter predicate over scan columns.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// `col <cmp> value` (for `Between`, `value..=hi`).
    Cmp {
        /// Column name.
        col: String,
        /// Comparison.
        cmp: CmpOp,
        /// Constant (lower bound for `Between`).
        value: i64,
        /// Upper bound for `Between`.
        hi: i64,
    },
    /// `left <cmp> right` over two columns.
    CmpCols {
        /// Left column.
        left: String,
        /// Comparison.
        cmp: CmpOp,
        /// Right column.
        right: String,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction (e.g. `l_shipmode IN ('MAIL','SHIP')`).
    Or(Vec<Predicate>),
}

impl Predicate {
    /// `col <cmp> value`.
    pub fn cmp(col: impl Into<String>, cmp: CmpOp, value: i64) -> Predicate {
        Predicate::Cmp {
            col: col.into(),
            cmp,
            value,
            hi: 0,
        }
    }

    /// `lo <= col <= hi`.
    pub fn between(col: impl Into<String>, lo: i64, hi: i64) -> Predicate {
        Predicate::Cmp {
            col: col.into(),
            cmp: CmpOp::Between,
            value: lo,
            hi,
        }
    }

    /// `left <cmp> right` over two columns.
    pub fn cmp_cols(left: impl Into<String>, cmp: CmpOp, right: impl Into<String>) -> Predicate {
        Predicate::CmpCols {
            left: left.into(),
            cmp,
            right: right.into(),
        }
    }

    /// Conjunction of predicates.
    pub fn and(preds: Vec<Predicate>) -> Predicate {
        Predicate::And(preds)
    }

    /// Disjunction of predicates.
    pub fn or(preds: Vec<Predicate>) -> Predicate {
        Predicate::Or(preds)
    }

    /// `col IN (values…)` as a disjunction of equalities.
    pub fn in_set(col: impl Into<String>, values: &[i64]) -> Predicate {
        let col = col.into();
        Predicate::Or(
            values
                .iter()
                .map(|&v| Predicate::cmp(col.clone(), CmpOp::Eq, v))
                .collect(),
        )
    }

    /// The leaf predicates of this (possibly nested) boolean tree.
    pub fn leaves(&self) -> Vec<&Predicate> {
        match self {
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().flat_map(|p| p.leaves()).collect(),
            leaf => vec![leaf],
        }
    }

    /// Column names read by this predicate's leaves.
    pub fn columns(&self) -> Vec<&str> {
        match self {
            Predicate::Cmp { col, .. } => vec![col],
            Predicate::CmpCols { left, right, .. } => vec![left, right],
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().flat_map(|p| p.columns()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders() {
        let e = Expr::col("price").mul(Expr::lit(100).sub(Expr::col("disc")));
        assert_eq!(e.columns(), vec!["price", "disc"]);
        match &e {
            Expr::Mul(a, b) => {
                assert_eq!(**a, Expr::Col("price".into()));
                assert!(matches!(**b, Expr::Sub(_, _)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn predicate_builders() {
        let p = Predicate::and(vec![
            Predicate::between("date", 10, 20),
            Predicate::cmp("qty", CmpOp::Lt, 24),
            Predicate::cmp_cols("commit", CmpOp::Lt, "receipt"),
        ]);
        let leaves = p.leaves();
        assert_eq!(leaves.len(), 3);
        assert!(matches!(
            leaves[0],
            Predicate::Cmp {
                cmp: CmpOp::Between,
                ..
            }
        ));
        assert!(matches!(leaves[2], Predicate::CmpCols { .. }));
        assert_eq!(p.columns(), vec!["date", "qty", "commit", "receipt"]);
    }

    #[test]
    fn indicator_builders() {
        let e = Expr::col("prio").eq_const(3);
        assert_eq!(e.columns(), vec!["prio"]);
        assert!(matches!(e, Expr::Indicator(_, MapOp::EqConst, 3)));
        assert!(matches!(
            Expr::col("x").ge_const(5),
            Expr::Indicator(_, MapOp::GeConst, 5)
        ));
    }

    #[test]
    fn in_set_builds_disjunction() {
        let p = Predicate::in_set("mode", &[3, 7]);
        match &p {
            Predicate::Or(ps) => {
                assert_eq!(ps.len(), 2);
                assert!(matches!(
                    &ps[0],
                    Predicate::Cmp {
                        cmp: CmpOp::Eq,
                        value: 3,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(p.leaves().len(), 2);
    }

    #[test]
    fn nested_and_flattens() {
        let p = Predicate::and(vec![
            Predicate::and(vec![
                Predicate::cmp("a", CmpOp::Eq, 1),
                Predicate::cmp("b", CmpOp::Eq, 2),
            ]),
            Predicate::cmp("c", CmpOp::Eq, 3),
        ]);
        assert_eq!(p.leaves().len(), 3);
    }
}
