//! Operator parameters and their scalar encodings.
//!
//! Kernels receive scalar parameters as `&[i64]` (the analogue of
//! `clSetKernelArg` scalar arguments in the paper's Listing 5). Each
//! parameter enum here provides a stable `to_code`/`from_code` pair so the
//! runtime can encode plan parameters and kernels can decode them without
//! sharing Rust types across the interface boundary.
//!
//! **Once-per-launch dispatch.** `eval`, `apply` and `fold` decide the
//! operator per call, which is what a scalar caller wants and what a kernel's
//! inner loop must not do. The crate-private macros `per_cmp!`,
//! `per_map_op!` and `per_agg!` sit next to them for the kernels: each
//! matches the operator *once* and compiles the caller's loop once per arm
//! around a closure that is nothing but that operator's expression. Every
//! operator's expression is still written once: `eval` and `fold` are
//! defined through their macro, `per_map_op!` through `apply`.

/// Arithmetic map operations (`MAP` primitive).
///
/// Binary ops take two input columns; `*Const` ops take one column and a
/// constant parameter. `RsubConst` computes `c - x`, which expresses
/// `(1 - discount)` in fixed-point form (`100 - disc`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MapOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b` (b=0 yields 0, matching typical GPU guarded division)
    Div,
    /// `a % b` (b=0 yields 0)
    Mod,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `a + c`
    AddConst,
    /// `a - c`
    SubConst,
    /// `a * c`
    MulConst,
    /// `a / c`
    DivConst,
    /// `c - a`
    RsubConst,
    /// `(a == c) as i64` — 0/1 indicator (CASE-style conditional sums).
    EqConst,
    /// `(a != c) as i64`
    NeConst,
    /// `(a < c) as i64`
    LtConst,
    /// `(a <= c) as i64`
    LeConst,
    /// `(a > c) as i64`
    GtConst,
    /// `(a >= c) as i64`
    GeConst,
}

impl MapOp {
    /// Whether this op consumes a constant instead of a second column.
    pub fn is_const(self) -> bool {
        matches!(
            self,
            MapOp::AddConst
                | MapOp::SubConst
                | MapOp::MulConst
                | MapOp::DivConst
                | MapOp::RsubConst
                | MapOp::EqConst
                | MapOp::NeConst
                | MapOp::LtConst
                | MapOp::LeConst
                | MapOp::GtConst
                | MapOp::GeConst
        )
    }

    /// Scalar code for kernel parameters.
    pub fn to_code(self) -> i64 {
        match self {
            MapOp::Add => 0,
            MapOp::Sub => 1,
            MapOp::Mul => 2,
            MapOp::Div => 3,
            MapOp::Mod => 4,
            MapOp::Min => 5,
            MapOp::Max => 6,
            MapOp::AddConst => 7,
            MapOp::SubConst => 8,
            MapOp::MulConst => 9,
            MapOp::DivConst => 10,
            MapOp::RsubConst => 11,
            MapOp::EqConst => 12,
            MapOp::NeConst => 13,
            MapOp::LtConst => 14,
            MapOp::LeConst => 15,
            MapOp::GtConst => 16,
            MapOp::GeConst => 17,
        }
    }

    /// Decodes a scalar code.
    pub fn from_code(code: i64) -> Option<MapOp> {
        Some(match code {
            0 => MapOp::Add,
            1 => MapOp::Sub,
            2 => MapOp::Mul,
            3 => MapOp::Div,
            4 => MapOp::Mod,
            5 => MapOp::Min,
            6 => MapOp::Max,
            7 => MapOp::AddConst,
            8 => MapOp::SubConst,
            9 => MapOp::MulConst,
            10 => MapOp::DivConst,
            11 => MapOp::RsubConst,
            12 => MapOp::EqConst,
            13 => MapOp::NeConst,
            14 => MapOp::LtConst,
            15 => MapOp::LeConst,
            16 => MapOp::GtConst,
            17 => MapOp::GeConst,
            _ => return None,
        })
    }

    /// Applies the op to two operands (for const ops, `b` is the constant).
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            MapOp::Add | MapOp::AddConst => a.wrapping_add(b),
            MapOp::Sub | MapOp::SubConst => a.wrapping_sub(b),
            MapOp::Mul | MapOp::MulConst => a.wrapping_mul(b),
            MapOp::Div | MapOp::DivConst => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            MapOp::Mod => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            MapOp::Min => a.min(b),
            MapOp::Max => a.max(b),
            MapOp::RsubConst => b.wrapping_sub(a),
            MapOp::EqConst => (a == b) as i64,
            MapOp::NeConst => (a != b) as i64,
            MapOp::LtConst => (a < b) as i64,
            MapOp::LeConst => (a <= b) as i64,
            MapOp::GtConst => (a > b) as i64,
            MapOp::GeConst => (a >= b) as i64,
        }
    }
}

/// Evaluates `$body` with `$f` bound to `$op`'s arithmetic, a closure of its
/// own type per operator: the `match` happens here, once per launch, and in
/// every arm [`MapOp::apply`] is called on a *constant* operator, so it
/// inlines to that operator's one expression and `$body` — the caller's
/// loop — compiles around it (the `match` itself proves the list complete).
macro_rules! per_map_op {
    ($op:expr, $f:ident => $body:expr) => {
        per_map_op!(@each $op, $f, $body;
            Add Sub Mul Div Mod Min Max
            AddConst SubConst MulConst DivConst RsubConst
            EqConst NeConst LtConst LeConst GtConst GeConst)
    };
    (@each $op:expr, $f:ident, $body:expr; $($variant:ident)*) => {
        match $op {
            $($crate::params::MapOp::$variant => {
                let $f = |x: i64, y: i64| $crate::params::MapOp::$variant.apply(x, y);
                $body
            })*
        }
    };
}
pub(crate) use per_map_op;

/// Evaluates `$body` with `$pred` bound to the comparison `$cmp` names, a
/// closure `(x, v, hi) -> bool` of its own type per operator: the `match`
/// happens here, once per launch, and every arm compiles `$body` — the
/// caller's loop — around one inlined compare. These arms *are* the
/// comparisons' definition ([`CmpOp::eval`] is the per-call view of them).
/// `Between` tests both bounds (`&`, not `&&`), so it is branch-free too.
macro_rules! per_cmp {
    ($cmp:expr, $pred:ident => $body:expr) => {
        match $cmp {
            $crate::params::CmpOp::Lt => per_cmp!(@arm $pred, $body, |x: i64, v: i64, _: i64| x < v),
            $crate::params::CmpOp::Le => per_cmp!(@arm $pred, $body, |x: i64, v: i64, _: i64| x <= v),
            $crate::params::CmpOp::Gt => per_cmp!(@arm $pred, $body, |x: i64, v: i64, _: i64| x > v),
            $crate::params::CmpOp::Ge => per_cmp!(@arm $pred, $body, |x: i64, v: i64, _: i64| x >= v),
            $crate::params::CmpOp::Eq => per_cmp!(@arm $pred, $body, |x: i64, v: i64, _: i64| x == v),
            $crate::params::CmpOp::Ne => per_cmp!(@arm $pred, $body, |x: i64, v: i64, _: i64| x != v),
            $crate::params::CmpOp::Between => {
                per_cmp!(@arm $pred, $body, |x: i64, lo: i64, hi: i64| (lo <= x) & (x <= hi))
            }
        }
    };
    (@arm $pred:ident, $body:expr, $test:expr) => {{
        let $pred = $test;
        $body
    }};
}

pub(crate) use per_cmp;

/// Comparison operators (`FILTER_*` primitives).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `x < v`
    Lt,
    /// `x <= v`
    Le,
    /// `x > v`
    Gt,
    /// `x >= v`
    Ge,
    /// `x == v`
    Eq,
    /// `x != v`
    Ne,
    /// `lo <= x && x <= hi` (two parameters)
    Between,
}

impl CmpOp {
    /// Scalar code for kernel parameters.
    pub fn to_code(self) -> i64 {
        match self {
            CmpOp::Lt => 0,
            CmpOp::Le => 1,
            CmpOp::Gt => 2,
            CmpOp::Ge => 3,
            CmpOp::Eq => 4,
            CmpOp::Ne => 5,
            CmpOp::Between => 6,
        }
    }

    /// Decodes a scalar code.
    pub fn from_code(code: i64) -> Option<CmpOp> {
        Some(match code {
            0 => CmpOp::Lt,
            1 => CmpOp::Le,
            2 => CmpOp::Gt,
            3 => CmpOp::Ge,
            4 => CmpOp::Eq,
            5 => CmpOp::Ne,
            6 => CmpOp::Between,
            _ => return None,
        })
    }

    /// Evaluates the predicate (`hi` is ignored except for `Between`).
    #[inline]
    pub fn eval(self, x: i64, v: i64, hi: i64) -> bool {
        per_cmp!(self, pred => pred(x, v, hi))
    }
}

/// Bitmap combination operators (extension primitive `BITMAP_OP`, used to
/// conjoin the per-predicate bitmaps of multi-predicate filters like Q6's).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BitmapOp {
    /// `a & b`
    And,
    /// `a | b`
    Or,
    /// `a & !b`
    AndNot,
    /// `a ^ b`
    Xor,
}

impl BitmapOp {
    /// Scalar code for kernel parameters.
    pub fn to_code(self) -> i64 {
        match self {
            BitmapOp::And => 0,
            BitmapOp::Or => 1,
            BitmapOp::AndNot => 2,
            BitmapOp::Xor => 3,
        }
    }

    /// Decodes a scalar code.
    pub fn from_code(code: i64) -> Option<BitmapOp> {
        Some(match code {
            0 => BitmapOp::And,
            1 => BitmapOp::Or,
            2 => BitmapOp::AndNot,
            3 => BitmapOp::Xor,
            _ => return None,
        })
    }

    /// Applies the op to two words.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            BitmapOp::And => a & b,
            BitmapOp::Or => a | b,
            BitmapOp::AndNot => a & !b,
            BitmapOp::Xor => a ^ b,
        }
    }
}

/// Evaluates `$body` with `$fold` bound to the aggregate `$agg` names, a
/// closure `(acc, v) -> acc` of its own type per function. These arms *are*
/// the folds' definition ([`AggFunc::fold`] is the per-call view of them).
macro_rules! per_agg {
    ($agg:expr, $fold:ident => $body:expr) => {
        match $agg {
            $crate::params::AggFunc::Sum => per_agg!(@arm $fold, $body, |acc: i64, v: i64| acc.wrapping_add(v)),
            $crate::params::AggFunc::Count => per_agg!(@arm $fold, $body, |acc: i64, _: i64| acc + 1),
            $crate::params::AggFunc::Min => per_agg!(@arm $fold, $body, |acc: i64, v: i64| acc.min(v)),
            $crate::params::AggFunc::Max => per_agg!(@arm $fold, $body, |acc: i64, v: i64| acc.max(v)),
        }
    };
    (@arm $fold:ident, $body:expr, $step:expr) => {{
        let $fold = $step;
        $body
    }};
}
pub(crate) use per_agg;

/// Aggregation functions (`AGG_BLOCK`, `HASH_AGG`, `SORT_AGG`).
///
/// `Avg` is decomposed into `Sum` + `Count` by the planner and finalized on
/// the host, as the paper's integer primitives do.
///
/// **At the `i64` boundary `Sum` wraps** (two's complement, in debug and
/// release alike) — in every kernel body, in [`AggFunc::fold`] and
/// [`AggFunc::merge`], and so in the host interpreter, which folds through
/// them. That makes every aggregate associative and commutative, which is
/// what lets partial states be merged in any grouping (chunks, hedged
/// duplicates, the hash table's lane fold) with a bit-identical result.
/// `Count` adds one per row and cannot overflow: a count is bounded by the
/// rows a query can address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum of values.
    Sum,
    /// Row count (the value column is ignored).
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AggFunc {
    /// Scalar code for kernel parameters.
    pub fn to_code(self) -> i64 {
        match self {
            AggFunc::Sum => 0,
            AggFunc::Count => 1,
            AggFunc::Min => 2,
            AggFunc::Max => 3,
        }
    }

    /// Decodes a scalar code.
    pub fn from_code(code: i64) -> Option<AggFunc> {
        Some(match code {
            0 => AggFunc::Sum,
            1 => AggFunc::Count,
            2 => AggFunc::Min,
            3 => AggFunc::Max,
            _ => return None,
        })
    }

    /// The identity element of this aggregate.
    pub fn identity(self) -> i64 {
        match self {
            AggFunc::Sum | AggFunc::Count => 0,
            AggFunc::Min => i64::MAX,
            AggFunc::Max => i64::MIN,
        }
    }

    /// Folds one value into an accumulator.
    #[inline]
    pub fn fold(self, acc: i64, v: i64) -> i64 {
        per_agg!(self, fold => fold(acc, v))
    }

    /// Merges two partial accumulators (chunk combination).
    #[inline]
    pub fn merge(self, a: i64, b: i64) -> i64 {
        match self {
            AggFunc::Sum | AggFunc::Count => a.wrapping_add(b),
            AggFunc::Min => a.min(b),
            AggFunc::Max => a.max(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_codes_roundtrip() {
        for code in 0..18 {
            let op = MapOp::from_code(code).unwrap();
            assert_eq!(op.to_code(), code);
        }
        assert!(MapOp::from_code(99).is_none());
    }

    #[test]
    fn map_semantics() {
        assert_eq!(MapOp::Add.apply(2, 3), 5);
        assert_eq!(MapOp::Mul.apply(4, -2), -8);
        assert_eq!(MapOp::Div.apply(7, 0), 0);
        assert_eq!(MapOp::Mod.apply(7, 0), 0);
        assert_eq!(MapOp::Mod.apply(7, 3), 1);
        assert_eq!(MapOp::RsubConst.apply(6, 100), 94);
        assert_eq!(MapOp::Min.apply(3, -1), -1);
        assert_eq!(MapOp::Max.apply(3, -1), 3);
        assert!(MapOp::MulConst.is_const());
        assert!(!MapOp::Mul.is_const());
        assert_eq!(MapOp::EqConst.apply(5, 5), 1);
        assert_eq!(MapOp::EqConst.apply(5, 6), 0);
        assert_eq!(MapOp::LtConst.apply(3, 5), 1);
        assert_eq!(MapOp::GeConst.apply(3, 5), 0);
        assert!(MapOp::EqConst.is_const());
    }

    #[test]
    fn cmp_codes_roundtrip() {
        for code in 0..7 {
            let op = CmpOp::from_code(code).unwrap();
            assert_eq!(op.to_code(), code);
        }
        assert!(CmpOp::from_code(-1).is_none());
    }

    #[test]
    fn cmp_semantics() {
        assert!(CmpOp::Lt.eval(1, 2, 0));
        assert!(!CmpOp::Lt.eval(2, 2, 0));
        assert!(CmpOp::Le.eval(2, 2, 0));
        assert!(CmpOp::Between.eval(5, 1, 10));
        assert!(CmpOp::Between.eval(1, 1, 10));
        assert!(CmpOp::Between.eval(10, 1, 10));
        assert!(!CmpOp::Between.eval(0, 1, 10));
        assert!(CmpOp::Ne.eval(1, 2, 0));
    }

    #[test]
    fn bitmap_op_semantics() {
        assert_eq!(BitmapOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(BitmapOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(BitmapOp::AndNot.apply(0b1100, 0b1010), 0b0100);
        assert_eq!(BitmapOp::Xor.apply(0b1100, 0b1010), 0b0110);
        for code in 0..4 {
            assert_eq!(BitmapOp::from_code(code).unwrap().to_code(), code);
        }
    }

    #[test]
    fn agg_semantics() {
        assert_eq!(AggFunc::Sum.fold(10, 5), 15);
        assert_eq!(AggFunc::Count.fold(3, 999), 4);
        assert_eq!(AggFunc::Min.fold(i64::MAX, 7), 7);
        assert_eq!(AggFunc::Max.fold(i64::MIN, -7), -7);
        assert_eq!(AggFunc::Min.merge(3, 5), 3);
        assert_eq!(AggFunc::Count.merge(3, 5), 8);
        for code in 0..4 {
            assert_eq!(AggFunc::from_code(code).unwrap().to_code(), code);
        }
        assert!(AggFunc::from_code(4).is_none());
    }
}
