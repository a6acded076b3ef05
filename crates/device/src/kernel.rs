//! Kernel plumbing: how compiled functions are bound to a device and invoked.
//!
//! The paper's task layer hands the device a *kernel container* (either a
//! pre-built function or source to compile at init). Here a kernel is a
//! `Send + Sync` closure over the device's [`BufferPool`]; `execute()`
//! dispatches to it and charges the returned [`KernelStats`] to the cost
//! model.

use crate::buffer::BufferId;
use crate::cost::CostClass;
use crate::error::Result;
use crate::pool::BufferPool;
use std::sync::Arc;

/// What a kernel reports back for costing.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelStats {
    /// Elements processed (drives bandwidth-bound cost terms).
    pub elements: u64,
    /// Cost class (drives the per-class formula).
    pub cost_class: CostClass,
    /// Per-stage `(class, elements)` breakdown reported by fused kernels.
    /// Empty for ordinary kernels. When non-empty the device prices the
    /// launch through [`crate::cost::CostModel::fused_kernel_ns`] — one
    /// launch overhead plus discounted per-stage bodies — instead of the
    /// single-class formula.
    pub stages: Vec<(CostClass, u64)>,
    /// Per stage of a fused kernel, its longest operand's length: the row
    /// count the runtime would have sized that stage's outputs by had it
    /// launched unfused over whole buffers. Empty for ordinary kernels.
    pub stage_rows: Vec<usize>,
}

impl KernelStats {
    /// Convenience constructor.
    pub fn new(elements: u64, cost_class: CostClass) -> Self {
        KernelStats {
            elements,
            cost_class,
            stages: Vec::new(),
            stage_rows: Vec::new(),
        }
    }

    /// Constructor for fused kernels reporting a per-stage breakdown.
    pub fn fused(
        elements: u64,
        cost_class: CostClass,
        stages: Vec<(CostClass, u64)>,
        stage_rows: Vec<usize>,
    ) -> Self {
        KernelStats {
            elements,
            cost_class,
            stages,
            stage_rows,
        }
    }
}

/// A kernel implementation bound into a device.
///
/// Kernels receive the device's pool (take/restore buffers to mutate them)
/// plus the invocation's buffer arguments and scalar parameters — mirroring
/// `clSetKernelArg`'s buffer/scalar split in the paper's Listing 5.
pub type KernelFn =
    Arc<dyn Fn(&mut BufferPool, &[BufferId], &[i64]) -> Result<KernelStats> + Send + Sync>;

/// How a kernel arrives at the device (paper §III-B1: hand-written,
/// library, or generated/compiled at runtime).
#[derive(Clone)]
pub enum KernelSource {
    /// A pre-built function (hand-written or from a library).
    Builtin(KernelFn),
    /// Source code compiled by the driver at `prepare_kernel` time.
    ///
    /// The simulator charges the model's compile cost and then binds the
    /// provided function, standing in for a JIT: the *interface contract*
    /// (optional runtime compilation, compile-at-init) is what matters to
    /// the runtime.
    Source {
        /// Source text (kept for introspection).
        source: String,
        /// Compiled entry point.
        entry: KernelFn,
    },
}

impl std::fmt::Debug for KernelSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelSource::Builtin(_) => f.write_str("KernelSource::Builtin(..)"),
            KernelSource::Source { source, .. } => f
                .debug_struct("KernelSource::Source")
                .field("source_len", &source.len())
                .finish(),
        }
    }
}

/// One `execute()` request: a named kernel, buffer arguments and scalar
/// parameters.
#[derive(Clone, Debug)]
pub struct ExecuteSpec {
    /// Name of a kernel previously bound with `prepare_kernel`.
    pub kernel: String,
    /// Buffer arguments, positional.
    pub buffers: Vec<BufferId>,
    /// Scalar parameters, positional.
    pub params: Vec<i64>,
}

impl ExecuteSpec {
    /// Creates a spec.
    pub fn new(kernel: impl Into<String>, buffers: Vec<BufferId>, params: Vec<i64>) -> Self {
        ExecuteSpec {
            kernel: kernel.into(),
            buffers,
            params,
        }
    }

    /// Number of launch arguments (buffers + scalars), the quantity OpenCL
    /// pays per-argument mapping for (Fig. 10).
    pub fn arg_count(&self) -> usize {
        self.buffers.len() + self.params.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_count() {
        let spec = ExecuteSpec::new("map", vec![BufferId(1), BufferId(2)], vec![7]);
        assert_eq!(spec.arg_count(), 3);
        assert_eq!(spec.kernel, "map");
    }

    #[test]
    fn debug_impls() {
        let f: KernelFn = Arc::new(|_, _, _| Ok(KernelStats::new(0, CostClass::MapLike)));
        let b = KernelSource::Builtin(f.clone());
        let s = KernelSource::Source {
            source: "__kernel void f()".into(),
            entry: f,
        };
        assert!(format!("{b:?}").contains("Builtin"));
        assert!(format!("{s:?}").contains("source_len"));
    }
}
