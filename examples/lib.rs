//! Examples support library: the hand-written driver for the imaginary
//! "NPU" that `plug_in_device` plugs in and `tests/tests/conformance.rs`
//! runs the conformance suite and the full TPC-H grid on.
//!
//! [`NpuDevice`] is what a vendor writes to join ADAMANT: one struct
//! embedding a [`DeviceState`], and one `impl Device` holding nothing but
//! the trait's four required methods — the state hand-off, and the two
//! calls where the NPU's SDK differs from the simulator's (one memory
//! representation, no compiler). Every other call is the trait's default:
//! the state's charging method of the same name, which gates the call,
//! consults the installed [`FaultPlan`], keeps the payload in the state's
//! bounded pool, runs the bound kernel and charges the call from the
//! state's cost model — the same way the simulator's calls are handled. A
//! real driver would override those whose SDK call (`npuMemcpy`,
//! `npuLaunch` …) it must make, and hand its result to the same method. So
//! the NPU can be fault-injected like the simulator, with no driver code
//! for it.

use adamant::device::error::{DeviceError, Result};
use adamant::device::transform::TransformKind;
use adamant::prelude::*;

/// The NPU's SDK tag — unknown to every built-in component.
pub const NPU_SDK: SdkKind = SdkKind::Custom(42);

/// Driver for the NPU: huge compute bandwidth behind a narrow transfer bus,
/// a single memory representation (`SdkRepr::Custom(42)`), no runtime
/// kernel compilation.
pub struct NpuDevice {
    state: DeviceState,
}

impl NpuDevice {
    /// An NPU that will be plugged under registry id `id`.
    pub fn new(id: DeviceId) -> Self {
        let info = DeviceInfo {
            id,
            name: "npu0 (imaginary-vendor-sdk)".into(),
            kind: DeviceKind::Accelerator,
            sdk: NPU_SDK,
            memory_capacity: 2 << 30,
            pinned_capacity: 512 << 20,
        };
        let cost = CostModel {
            h2d_pageable_gibs: 3.0,
            h2d_pinned_gibs: 8.0,
            d2h_pageable_gibs: 3.0,
            d2h_pinned_gibs: 8.0,
            mem_bandwidth_gibs: 900.0,
            launch_overhead_ns: 4_000.0,
            discrete: true,
            ..CostModel::default()
        };
        NpuDevice {
            state: DeviceState::new(info, cost),
        }
    }
}

impl Device for NpuDevice {
    fn transform_memory(&mut self, id: BufferId, target: SdkRepr) -> Result<TransformKind> {
        // One representation: the identity transform is the only path.
        self.state.transform_memory(id, target, |from| {
            if from == target {
                Ok(TransformKind::ZeroCopy)
            } else {
                Err(DeviceError::NoTransformPath { from, to: target })
            }
        })
    }

    fn prepare_kernel(&mut self, name: &str, source: KernelSource) -> Result<()> {
        match source {
            KernelSource::Builtin(entry) => self.state.prepare_kernel(name, entry),
            KernelSource::Source { .. } => Err(DeviceError::CompilationUnsupported {
                device: self.info().name.clone(),
            }),
        }
    }

    fn state(&self) -> &DeviceState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut DeviceState {
        &mut self.state
    }
}
