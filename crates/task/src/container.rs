//! Kernel and data containers (paper §III-B1).

use crate::hashtable::{AggHashTable, JoinHashTable};
use crate::params::AggFunc;
use crate::primitive::PrimitiveKind;
use crate::semantics::DataSemantic;
use adamant_device::buffer::BufferData;
use adamant_device::kernel::{KernelFn, KernelSource};
use adamant_device::sdk::SdkKind;

/// The default variant name.
pub const DEFAULT_VARIANT: &str = "default";

/// A kernel container: one implementation of one primitive for one SDK,
/// "a simple adapter with additional runtime information required for
/// executing a custom written function".
#[derive(Clone)]
pub struct KernelContainer {
    /// Which primitive this implements.
    pub primitive: PrimitiveKind,
    /// Which SDK the implementation targets.
    pub sdk: SdkKind,
    /// Variant label (`"default"`, `"branchless"`, …) — the task layer holds
    /// multiple implementations of one primitive side by side.
    pub variant: String,
    /// The executable entry point.
    pub entry: KernelFn,
    /// Kernel source, when the implementation is runtime-compiled
    /// ("in case of runtime compilation, the kernel string … is present in
    /// the container").
    pub source: Option<String>,
}

impl KernelContainer {
    /// Creates a built-in (pre-compiled) container.
    pub fn builtin(primitive: PrimitiveKind, sdk: SdkKind, entry: KernelFn) -> Self {
        KernelContainer {
            primitive,
            sdk,
            variant: DEFAULT_VARIANT.to_string(),
            entry,
            source: None,
        }
    }

    /// Creates a named variant.
    pub fn variant(
        primitive: PrimitiveKind,
        sdk: SdkKind,
        variant: impl Into<String>,
        entry: KernelFn,
    ) -> Self {
        KernelContainer {
            primitive,
            sdk,
            variant: variant.into(),
            entry,
            source: None,
        }
    }

    /// The name this kernel is bound under on a device
    /// (`primitive` for the default variant, `primitive@variant` otherwise).
    pub fn kernel_name(&self) -> String {
        if self.variant == DEFAULT_VARIANT {
            self.primitive.kernel_name().to_string()
        } else {
            format!("{}@{}", self.primitive.kernel_name(), self.variant)
        }
    }

    /// The [`KernelSource`] handed to `Device::prepare_kernel`.
    pub fn kernel_source(&self) -> KernelSource {
        match &self.source {
            Some(src) => KernelSource::Source {
                source: src.clone(),
                entry: self.entry.clone(),
            },
            None => KernelSource::Builtin(self.entry.clone()),
        }
    }
}

impl std::fmt::Debug for KernelContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelContainer")
            .field("primitive", &self.primitive)
            .field("sdk", &self.sdk)
            .field("variant", &self.variant)
            .field("has_source", &self.source.is_some())
            .finish()
    }
}

/// The data container: manages data formats for tasks — allocating
/// correctly-typed output payloads per I/O semantic and constructing the
/// device-resident table structures.
#[derive(Clone, Copy, Debug, Default)]
pub struct DataContainer;

impl DataContainer {
    /// An empty output payload for the given semantic (filled by kernels).
    pub fn empty_payload(semantic: DataSemantic) -> BufferData {
        match semantic {
            DataSemantic::Numeric | DataSemantic::PrefixSum => BufferData::I64(Vec::new()),
            DataSemantic::Bitmap => BufferData::BitWords(Vec::new()),
            DataSemantic::Position => BufferData::U32(Vec::new()),
            DataSemantic::HashTable | DataSemantic::Generic => BufferData::Raw(Vec::new()),
        }
    }

    /// A fresh join hash table payload.
    pub fn join_table(expected: usize, payload_cols: usize) -> BufferData {
        BufferData::Generic(Box::new(JoinHashTable::with_capacity(
            expected,
            payload_cols,
        )))
    }

    /// A fresh aggregation hash table payload.
    pub fn agg_table(
        expected_groups: usize,
        aggs: Vec<AggFunc>,
        payload_cols: usize,
    ) -> BufferData {
        BufferData::Generic(Box::new(AggHashTable::with_capacity(
            expected_groups,
            aggs,
            payload_cols,
        )))
    }

    /// Estimated output bytes for a primitive's result over `n` input rows
    /// (the runtime's `prepare_output_buffer` sizing).
    pub fn estimate_output_bytes(semantic: DataSemantic, n: usize) -> u64 {
        match semantic {
            DataSemantic::Numeric => (n * 8) as u64,
            DataSemantic::PrefixSum => ((n + 1) * 8) as u64,
            DataSemantic::Bitmap => (n.div_ceil(64) * 8) as u64,
            DataSemantic::Position => (n * 4) as u64,
            // Tables size themselves; reserve nothing up front.
            DataSemantic::HashTable | DataSemantic::Generic => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_device::cost::CostClass;
    use adamant_device::kernel::KernelStats;
    use std::sync::Arc;

    fn noop() -> KernelFn {
        Arc::new(|_, _, _| Ok(KernelStats::new(0, CostClass::MapLike)))
    }

    #[test]
    fn kernel_names() {
        let c = KernelContainer::builtin(PrimitiveKind::Map, SdkKind::Cuda, noop());
        assert_eq!(c.kernel_name(), "map");
        let v = KernelContainer::variant(
            PrimitiveKind::FilterBitmap,
            SdkKind::OpenCl,
            "branchless",
            noop(),
        );
        assert_eq!(v.kernel_name(), "filter_bitmap@branchless");
    }

    #[test]
    fn source_marks_runtime_compiled() {
        let mut c = KernelContainer::builtin(PrimitiveKind::Map, SdkKind::OpenCl, noop());
        c.source = Some("__kernel void map() {}".into());
        assert!(matches!(c.kernel_source(), KernelSource::Source { .. }));
        let b = KernelContainer::builtin(PrimitiveKind::Map, SdkKind::Cuda, noop());
        assert!(matches!(b.kernel_source(), KernelSource::Builtin(_)));
    }

    #[test]
    fn payload_kinds() {
        assert_eq!(
            DataContainer::empty_payload(DataSemantic::Bitmap).kind(),
            "bitwords"
        );
        assert_eq!(
            DataContainer::empty_payload(DataSemantic::Position).kind(),
            "u32"
        );
        assert_eq!(
            DataContainer::empty_payload(DataSemantic::Numeric).kind(),
            "i64"
        );
        assert_eq!(DataContainer::join_table(8, 1).kind(), "generic");
        assert_eq!(
            DataContainer::agg_table(8, vec![AggFunc::Sum], 0).kind(),
            "generic"
        );
    }

    #[test]
    fn output_estimates() {
        assert_eq!(
            DataContainer::estimate_output_bytes(DataSemantic::Numeric, 100),
            800
        );
        assert_eq!(
            DataContainer::estimate_output_bytes(DataSemantic::Bitmap, 100),
            16
        );
        assert_eq!(
            DataContainer::estimate_output_bytes(DataSemantic::Position, 100),
            400
        );
        assert_eq!(
            DataContainer::estimate_output_bytes(DataSemantic::HashTable, 100),
            0
        );
    }
}
