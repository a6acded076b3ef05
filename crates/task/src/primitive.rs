//! Primitive definitions (paper Table I).
//!
//! Primitives are the granular functions database operators are built from.
//! Each has a fixed I/O signature; any implementation adhering to the
//! signature can be plugged into the registry — including mixing SDKs within
//! one device (e.g. an OpenCL arithmetic feeding a CUDA reduce).
//!
//! Pipeline breakers (marked † in the paper) materialize their output in
//! device memory and end a query pipeline; the runtime splits plans at them.
//!
//! Extensions beyond Table I, required to express the TPC-H plans and
//! documented in DESIGN.md: `BITMAP_OP` (conjunction of filter bitmaps),
//! `FILTER_BITMAP_COL` (column-column predicates, Q4's
//! `l_commitdate < l_receiptdate`), `HASH_PROBE_SEMI` (EXISTS semi-join,
//! Q4), and `SORT` (ORDER BY / top-N breaker, Q3).

use crate::semantics::DataSemantic;
use std::fmt;

/// The primitive vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimitiveKind {
    /// `MAP(NUMERIC in[n] {, NUMERIC in2[n]}, NUMERIC out[n])` —
    /// one-to-one arithmetic.
    Map,
    /// `BITMAP_OP(BITMAP a[k], BITMAP b[k], BITMAP out[k])` — combine
    /// filter bitmaps (extension).
    BitmapOp,
    /// `FILTER_BITMAP(NUMERIC in[n], BITMAP out[k], NUMERIC parameter)`.
    FilterBitmap,
    /// `FILTER_BITMAP_COL(NUMERIC a[n], NUMERIC b[n], BITMAP out[k])` —
    /// column-column comparison (extension).
    FilterBitmapCol,
    /// `FILTER_POSITION(NUMERIC in[n], POSITION out[k], NUMERIC parameter)`.
    FilterPosition,
    /// `MATERIALIZE(NUMERIC in[n], BITMAP bitmap[k], NUMERIC out[m])`.
    Materialize,
    /// `MATERIALIZE_POSITION(NUMERIC in[n], POSITION pos[k], NUMERIC out[m])`.
    MaterializePosition,
    /// `PREFIX_SUM(NUMERIC in[n], PREFIX_SUM out[n])` †.
    PrefixSum,
    /// `AGG_BLOCK(NUMERIC in[n], NUMERIC out)` † — block-wise reduction.
    AggBlock,
    /// `HASH_BUILD(NUMERIC keys[n] {, NUMERIC payload[n]…}, HASH_TABLE t)` †.
    HashBuild,
    /// `HASH_PROBE(NUMERIC keys[n], HASH_TABLE t, POSITION probe_pos[m]
    /// {, NUMERIC payload_out[m]…})` — inner-join probe.
    HashProbe,
    /// `HASH_PROBE_SEMI(NUMERIC keys[n], HASH_TABLE t, BITMAP out[k])` —
    /// EXISTS probe (extension).
    HashProbeSemi,
    /// `HASH_AGG(NUMERIC keys[n] {, NUMERIC vals[n]…}, HASH_TABLE t)` † —
    /// group-by aggregation on a shared table.
    HashAgg,
    /// `SORT_AGG(NUMERIC keys[n], NUMERIC vals[n], NUMERIC out_keys[g],
    /// NUMERIC out_vals[g])` † — aggregation over sorted input.
    SortAgg,
    /// `SORT(NUMERIC key[n] {, NUMERIC key2[n]…}, POSITION perm[n])` † —
    /// produces the sorted permutation (extension).
    Sort,
    /// `AGG_EXPORT(HASH_TABLE t, NUMERIC keys[g] {, NUMERIC out…})` —
    /// exports an aggregation table's dense columns (extension; feeds
    /// ORDER BY over group-by results without a host round-trip).
    AggExport,
    /// `FUSED(GENERIC in[n]…, GENERIC out)` — a producer→consumer chain of
    /// streamable primitives merged by the fusion pass (extension, DESIGN.md
    /// §16). Stage structure travels in `NodeParams`; the kernel interprets
    /// it in-registers without materializing interior intermediates.
    Fused,
    /// `FUSED_AGG(GENERIC in[n]…, GENERIC acc)` † — a fused chain whose
    /// terminal stage is an accumulating aggregation (`AGG_BLOCK` or
    /// `HASH_AGG`); a pipeline breaker like its terminal.
    FusedAgg,
}

/// Where a primitive may sit in a fused chain (DESIGN.md §16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusionRole {
    /// Any position: a streamable stage whose result stays in kernel-local
    /// memory (or, last in a `FUSED` chain, becomes its scratch output).
    Interior,
    /// Last position only: an accumulating aggregation, which makes the
    /// chain a `FUSED_AGG` pipeline breaker.
    Terminal,
}

/// The I/O signature of a primitive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrimitiveSignature {
    /// Semantics of the fixed input slots (variadic slots noted in docs
    /// repeat the last entry).
    pub inputs: Vec<DataSemantic>,
    /// Semantics of the output slots.
    pub outputs: Vec<DataSemantic>,
    /// Whether trailing inputs of the last semantic may repeat
    /// (payload/value columns of `HASH_BUILD`/`HASH_AGG`, keys of `SORT`).
    pub variadic_inputs: bool,
    /// Whether trailing outputs may repeat (`HASH_PROBE` payload outputs).
    pub variadic_outputs: bool,
}

impl PrimitiveSignature {
    /// The semantic of output `port`; ports past the fixed slots repeat the
    /// last one.
    pub fn output(&self, port: usize) -> DataSemantic {
        match self.outputs.get(port) {
            Some(&semantic) => semantic,
            None => *self.outputs.last().expect("primitives have outputs"),
        }
    }
}

impl PrimitiveKind {
    /// All primitives, in Table I order followed by the extensions.
    pub const ALL: [PrimitiveKind; 18] = [
        PrimitiveKind::Map,
        PrimitiveKind::AggBlock,
        PrimitiveKind::HashAgg,
        PrimitiveKind::HashBuild,
        PrimitiveKind::HashProbe,
        PrimitiveKind::SortAgg,
        PrimitiveKind::FilterBitmap,
        PrimitiveKind::FilterPosition,
        PrimitiveKind::PrefixSum,
        PrimitiveKind::Materialize,
        PrimitiveKind::MaterializePosition,
        PrimitiveKind::BitmapOp,
        PrimitiveKind::FilterBitmapCol,
        PrimitiveKind::HashProbeSemi,
        PrimitiveKind::Sort,
        PrimitiveKind::AggExport,
        PrimitiveKind::Fused,
        PrimitiveKind::FusedAgg,
    ];

    /// The kernel name this primitive dispatches to.
    pub fn kernel_name(self) -> &'static str {
        match self {
            PrimitiveKind::Map => "map",
            PrimitiveKind::BitmapOp => "bitmap_op",
            PrimitiveKind::FilterBitmap => "filter_bitmap",
            PrimitiveKind::FilterBitmapCol => "filter_bitmap_col",
            PrimitiveKind::FilterPosition => "filter_position",
            PrimitiveKind::Materialize => "materialize",
            PrimitiveKind::MaterializePosition => "materialize_position",
            PrimitiveKind::PrefixSum => "prefix_sum",
            PrimitiveKind::AggBlock => "agg_block",
            PrimitiveKind::HashBuild => "hash_build",
            PrimitiveKind::HashProbe => "hash_probe",
            PrimitiveKind::HashProbeSemi => "hash_probe_semi",
            PrimitiveKind::HashAgg => "hash_agg",
            PrimitiveKind::SortAgg => "sort_agg",
            PrimitiveKind::Sort => "sort",
            PrimitiveKind::AggExport => "agg_export",
            PrimitiveKind::Fused => "fused",
            PrimitiveKind::FusedAgg => "fused_agg",
        }
    }

    /// Stable scalar code for this kind, used to flatten fused stage lists
    /// into `ExecuteSpec` parameters. Codes are append-only.
    pub fn op_code(self) -> i64 {
        match self {
            PrimitiveKind::Map => 0,
            PrimitiveKind::BitmapOp => 1,
            PrimitiveKind::FilterBitmap => 2,
            PrimitiveKind::FilterBitmapCol => 3,
            PrimitiveKind::FilterPosition => 4,
            PrimitiveKind::Materialize => 5,
            PrimitiveKind::MaterializePosition => 6,
            PrimitiveKind::PrefixSum => 7,
            PrimitiveKind::AggBlock => 8,
            PrimitiveKind::HashBuild => 9,
            PrimitiveKind::HashProbe => 10,
            PrimitiveKind::HashProbeSemi => 11,
            PrimitiveKind::HashAgg => 12,
            PrimitiveKind::SortAgg => 13,
            PrimitiveKind::Sort => 14,
            PrimitiveKind::AggExport => 15,
            PrimitiveKind::Fused => 16,
            PrimitiveKind::FusedAgg => 17,
        }
    }

    /// Inverse of [`PrimitiveKind::op_code`].
    pub fn from_op_code(code: i64) -> Option<PrimitiveKind> {
        PrimitiveKind::ALL
            .iter()
            .copied()
            .find(|k| k.op_code() == code)
    }

    /// The fusion table: which primitives fuse, in which role, and the
    /// semantic of the stage's port 0 as a materialized edge (a
    /// multi-output kind's other ports follow its signature). The fusion
    /// pass reads it for eligibility and `FUSED` vs `FUSED_AGG`; the
    /// interpreter kernel reads it to accept or reject a stage at its
    /// position, and the hub to give a `FUSED_AGG` its terminal's
    /// accumulator. A new fusible primitive is one row here plus one body
    /// for the interpreter to call.
    pub fn fusion(self) -> Option<(FusionRole, DataSemantic)> {
        use DataSemantic::{Bitmap, HashTable, Numeric, Position};
        use FusionRole::{Interior, Terminal};
        Some(match self {
            PrimitiveKind::FilterBitmap
            | PrimitiveKind::FilterBitmapCol
            | PrimitiveKind::BitmapOp
            | PrimitiveKind::HashProbeSemi => (Interior, Bitmap),
            PrimitiveKind::Map
            | PrimitiveKind::Materialize
            | PrimitiveKind::MaterializePosition => (Interior, Numeric),
            // Positions on port 0, one payload column per further port.
            PrimitiveKind::HashProbe => (Interior, Position),
            PrimitiveKind::AggBlock => (Terminal, Numeric),
            PrimitiveKind::HashAgg | PrimitiveKind::HashBuild => (Terminal, HashTable),
            _ => return None,
        })
    }

    /// Whether this primitive is a pipeline breaker (Table I's †).
    ///
    /// Breakers materialize into device memory and end the pipeline; the
    /// runtime synchronizes chunks at them.
    pub fn is_pipeline_breaker(self) -> bool {
        matches!(
            self,
            PrimitiveKind::PrefixSum
                | PrimitiveKind::AggBlock
                | PrimitiveKind::HashBuild
                | PrimitiveKind::HashAgg
                | PrimitiveKind::SortAgg
                | PrimitiveKind::Sort
                | PrimitiveKind::FusedAgg
        )
    }

    /// The I/O signature.
    pub fn signature(self) -> PrimitiveSignature {
        use DataSemantic::*;
        let (inputs, outputs, vi, vo) = match self {
            PrimitiveKind::Map => (vec![Numeric], vec![Numeric], true, false),
            PrimitiveKind::BitmapOp => (vec![Bitmap, Bitmap], vec![Bitmap], false, false),
            PrimitiveKind::FilterBitmap => (vec![Numeric], vec![Bitmap], false, false),
            PrimitiveKind::FilterBitmapCol => (vec![Numeric, Numeric], vec![Bitmap], false, false),
            PrimitiveKind::FilterPosition => (vec![Numeric], vec![Position], false, false),
            PrimitiveKind::Materialize => (vec![Numeric, Bitmap], vec![Numeric], false, false),
            PrimitiveKind::MaterializePosition => {
                (vec![Numeric, Position], vec![Numeric], false, false)
            }
            PrimitiveKind::PrefixSum => (vec![Numeric], vec![PrefixSum], false, false),
            PrimitiveKind::AggBlock => (vec![Numeric], vec![Numeric], false, false),
            PrimitiveKind::HashBuild => (vec![Numeric], vec![HashTable], true, false),
            PrimitiveKind::HashProbe => (
                vec![Numeric, HashTable],
                vec![Position, Numeric],
                false,
                true,
            ),
            PrimitiveKind::HashProbeSemi => (vec![Numeric, HashTable], vec![Bitmap], false, false),
            PrimitiveKind::HashAgg => (vec![Numeric], vec![HashTable], true, false),
            PrimitiveKind::SortAgg => {
                (vec![Numeric, Numeric], vec![Numeric, Numeric], false, false)
            }
            PrimitiveKind::Sort => (vec![Numeric], vec![Position], true, false),
            PrimitiveKind::AggExport => (vec![HashTable], vec![Numeric], false, true),
            // Fused chains carry their true per-stage semantics in
            // `NodeParams`; at the signature level they are generic so any
            // upstream edge type-checks (the fusion pass only merges edges
            // the unfused graph already validated).
            PrimitiveKind::Fused | PrimitiveKind::FusedAgg => {
                (vec![Generic], vec![Generic], true, false)
            }
        };
        PrimitiveSignature {
            inputs,
            outputs,
            variadic_inputs: vi,
            variadic_outputs: vo,
        }
    }

    /// Validates that input edge semantics satisfy the signature.
    pub fn accepts_inputs(self, actual: &[DataSemantic]) -> bool {
        let sig = self.signature();
        if actual.len() < sig.inputs.len() {
            return false;
        }
        if actual.len() > sig.inputs.len() && !sig.variadic_inputs {
            return false;
        }
        for (i, &a) in actual.iter().enumerate() {
            let expected = if i < sig.inputs.len() {
                sig.inputs[i]
            } else {
                *sig.inputs.last().expect("nonempty signature")
            };
            if !a.compatible_with(expected) {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for PrimitiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kernel_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DataSemantic::*;

    #[test]
    fn breakers_match_table_one() {
        // Table I marks AGG_BLOCK, HASH_AGG, HASH_BUILD, SORT_AGG and
        // PREFIX_SUM with †; SORT and FUSED_AGG are our breaker extensions.
        let breakers: Vec<_> = PrimitiveKind::ALL
            .iter()
            .filter(|p| p.is_pipeline_breaker())
            .collect();
        assert_eq!(breakers.len(), 7);
        assert!(PrimitiveKind::AggBlock.is_pipeline_breaker());
        assert!(PrimitiveKind::HashBuild.is_pipeline_breaker());
        assert!(PrimitiveKind::FusedAgg.is_pipeline_breaker());
        assert!(!PrimitiveKind::HashProbe.is_pipeline_breaker());
        assert!(!PrimitiveKind::Materialize.is_pipeline_breaker());
        assert!(!PrimitiveKind::FilterBitmap.is_pipeline_breaker());
        assert!(!PrimitiveKind::Fused.is_pipeline_breaker());
    }

    #[test]
    fn fusion_table_agrees_with_signatures() {
        for kind in PrimitiveKind::ALL {
            let Some((role, semantic)) = kind.fusion() else {
                continue;
            };
            let sig = kind.signature();
            assert_eq!(sig.output(0), semantic, "{kind}");
            if sig.outputs.len() > 1 || sig.variadic_outputs {
                // A multi-output stage can only feed later stages: a chain's
                // last stage is the fused node's one output.
                assert_eq!(role, FusionRole::Interior, "{kind}");
            } else {
                assert_eq!(sig.outputs, vec![semantic], "{kind}");
            }
            // Accumulating terminals are exactly the fusible breakers.
            assert_eq!(
                role == FusionRole::Terminal,
                kind.is_pipeline_breaker(),
                "{kind}"
            );
        }
        assert_eq!(PrimitiveKind::Sort.fusion(), None);
        assert_eq!(PrimitiveKind::Fused.fusion(), None);
    }

    #[test]
    fn op_codes_round_trip() {
        for kind in PrimitiveKind::ALL {
            assert_eq!(PrimitiveKind::from_op_code(kind.op_code()), Some(kind));
        }
        assert_eq!(PrimitiveKind::from_op_code(-1), None);
        assert_eq!(PrimitiveKind::from_op_code(18), None);
    }

    #[test]
    fn kernel_names_unique() {
        let mut names: Vec<_> = PrimitiveKind::ALL.iter().map(|p| p.kernel_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PrimitiveKind::ALL.len());
    }

    #[test]
    fn signatures() {
        let s = PrimitiveKind::HashProbe.signature();
        assert_eq!(s.inputs, vec![Numeric, HashTable]);
        assert_eq!(s.outputs, vec![Position, Numeric]);
        assert!(s.variadic_outputs);

        let s = PrimitiveKind::Materialize.signature();
        assert_eq!(s.inputs, vec![Numeric, Bitmap]);
        assert_eq!(s.outputs, vec![Numeric]);
    }

    #[test]
    fn input_validation() {
        assert!(PrimitiveKind::Map.accepts_inputs(&[Numeric]));
        assert!(PrimitiveKind::Map.accepts_inputs(&[Numeric, Numeric]));
        assert!(!PrimitiveKind::Map.accepts_inputs(&[Bitmap]));
        assert!(!PrimitiveKind::Map.accepts_inputs(&[]));
        assert!(PrimitiveKind::Materialize.accepts_inputs(&[Numeric, Bitmap]));
        assert!(!PrimitiveKind::Materialize.accepts_inputs(&[Numeric, Position]));
        // Non-variadic rejects extras.
        assert!(!PrimitiveKind::Materialize.accepts_inputs(&[Numeric, Bitmap, Bitmap]));
        // Variadic hash build takes key + payloads.
        assert!(PrimitiveKind::HashBuild.accepts_inputs(&[Numeric, Numeric, Numeric]));
        // PrefixSum result usable as numeric input.
        assert!(PrimitiveKind::Map.accepts_inputs(&[PrefixSum]));
    }
}
