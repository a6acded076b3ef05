//! SDK-representation transforms (paper Fig. 4).
//!
//! Two SDKs on the same physical device interpret the same memory through
//! different handle types (e.g. `CUdeviceptr` vs `cl_mem`). A naive engine
//! round-trips through the host to convert; ADAMANT's `transform_memory`
//! re-tags the memory **in place** when a zero-copy path is known. The
//! [`TransformTable`] is the data-container lookup table from §III-B1.

use crate::sdk::SdkRepr;
use std::collections::HashMap;

/// How a conversion between two representations is realized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransformKind {
    /// Handle re-interpretation; no data moves.
    ZeroCopy,
    /// Transfer to host, convert, transfer back (the naive fallback the
    /// paper's Fig. 4 discussion warns about). Costs two bus crossings.
    HostRoundTrip,
}

/// Lookup table of known representation conversions.
#[derive(Clone, Debug, Default)]
pub struct TransformTable {
    paths: HashMap<(SdkRepr, SdkRepr), TransformKind>,
}

impl TransformTable {
    /// An empty table: every conversion falls back to a host round-trip.
    pub fn new() -> Self {
        TransformTable::default()
    }

    /// The table a GPU device ships with: CUDA-family and OpenCL-family
    /// handles inter-convert zero-copy within their families, and
    /// CUDA↔OpenCL is also zero-copy on the same physical device (both are
    /// views of the same VRAM).
    pub fn gpu_default() -> Self {
        let mut t = TransformTable::new();
        let reprs = [
            SdkRepr::CudaDevPtr,
            SdkRepr::ThrustDevVec,
            SdkRepr::ClBuffer,
            SdkRepr::BoostComputeVec,
        ];
        for &a in &reprs {
            for &b in &reprs {
                if a != b {
                    t.register(a, b, TransformKind::ZeroCopy);
                }
            }
        }
        t
    }

    /// Registers a conversion path.
    pub fn register(&mut self, from: SdkRepr, to: SdkRepr, kind: TransformKind) {
        self.paths.insert((from, to), kind);
    }

    /// Resolves a conversion. Identity is always zero-copy; unknown pairs
    /// fall back to [`TransformKind::HostRoundTrip`].
    pub fn resolve(&self, from: SdkRepr, to: SdkRepr) -> TransformKind {
        if from == to {
            return TransformKind::ZeroCopy;
        }
        self.paths
            .get(&(from, to))
            .copied()
            .unwrap_or(TransformKind::HostRoundTrip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_zero_copy() {
        let t = TransformTable::new();
        assert_eq!(
            t.resolve(SdkRepr::ClBuffer, SdkRepr::ClBuffer),
            TransformKind::ZeroCopy
        );
    }

    #[test]
    fn unknown_falls_back_to_roundtrip() {
        let t = TransformTable::new();
        assert_eq!(
            t.resolve(SdkRepr::ClBuffer, SdkRepr::CudaDevPtr),
            TransformKind::HostRoundTrip
        );
    }

    #[test]
    fn gpu_default_is_zero_copy_between_sdk_families() {
        let t = TransformTable::gpu_default();
        assert_eq!(
            t.resolve(SdkRepr::CudaDevPtr, SdkRepr::ClBuffer),
            TransformKind::ZeroCopy
        );
        assert_eq!(
            t.resolve(SdkRepr::ThrustDevVec, SdkRepr::BoostComputeVec),
            TransformKind::ZeroCopy
        );
        // Host representation is not part of the GPU family.
        assert_eq!(
            t.resolve(SdkRepr::CudaDevPtr, SdkRepr::HostVec),
            TransformKind::HostRoundTrip
        );
        assert_eq!(t.paths.len(), 12);
    }

    #[test]
    fn register_overrides() {
        let mut t = TransformTable::new();
        t.register(
            SdkRepr::Custom(1),
            SdkRepr::Custom(2),
            TransformKind::ZeroCopy,
        );
        assert_eq!(
            t.resolve(SdkRepr::Custom(1), SdkRepr::Custom(2)),
            TransformKind::ZeroCopy
        );
        // Reverse direction was not registered.
        assert_eq!(
            t.resolve(SdkRepr::Custom(2), SdkRepr::Custom(1)),
            TransformKind::HostRoundTrip
        );
    }
}
