//! Examples support library: the hand-written driver for the imaginary
//! "NPU" that `plug_in_device` plugs in and `tests/tests/conformance.rs`
//! runs the conformance suite and the full TPC-H grid on.
//!
//! [`NpuDevice`] is what a vendor writes to join ADAMANT: one struct
//! embedding a [`DeviceState`], and one `impl Device` holding nothing but
//! the trait's required methods. Where a real driver would call its SDK
//! (`npuMemcpy`, `npuLaunch` …) this one calls the state's charging method
//! of the same name, which keeps the payload in the state's bounded pool
//! and charges the call from the state's cost model — the same way the
//! simulator's calls are charged.

use adamant::device::error::{DeviceError, Result};
use adamant::device::kernel::KernelFn;
use adamant::device::transform::TransformKind;
use adamant::prelude::*;
use std::collections::HashMap;

/// The NPU's SDK tag — unknown to every built-in component.
pub const NPU_SDK: SdkKind = SdkKind::Custom(42);

/// Driver for the NPU: huge compute bandwidth behind a narrow transfer bus,
/// a single memory representation (`SdkRepr::Custom(42)`), no runtime
/// kernel compilation.
pub struct NpuDevice {
    info: DeviceInfo,
    state: DeviceState,
    kernels: HashMap<String, KernelFn>,
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
            state: DeviceState::new(&info, cost),
            info,
            kernels: HashMap::new(),
        }
    }
}

impl Device for NpuDevice {
    fn info(&self) -> &DeviceInfo {
        &self.info
    }

    fn initialize(&mut self) -> Result<()> {
        self.state.initialize();
        Ok(())
    }

    fn place_data(&mut self, id: BufferId, data: BufferData, offset: usize) -> Result<()> {
        self.state.place_data(id, data, offset, |_, t| t)
    }

    fn retrieve_data(
        &mut self,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> Result<BufferData> {
        self.state.retrieve_data(id, len, offset, |_, t| t)
    }

    fn prepare_memory(&mut self, id: BufferId, bytes: u64) -> Result<()> {
        self.state.prepare_memory(id, bytes)
    }

    fn transform_memory(&mut self, id: BufferId, target: SdkRepr) -> Result<TransformKind> {
        self.state.ensure_initialized()?;
        let from = self.state.pool.get(id)?.repr;
        if target != from {
            return Err(DeviceError::NoTransformPath { from, to: target });
        }
        Ok(TransformKind::ZeroCopy)
    }

    fn delete_memory(&mut self, id: BufferId) -> Result<()> {
        self.state.delete_memory(id)
    }

    fn prepare_kernel(&mut self, name: &str, source: KernelSource) -> Result<()> {
        match source {
            KernelSource::Builtin(entry) => {
                self.kernels.insert(name.to_string(), entry);
                Ok(())
            }
            KernelSource::Source { .. } => Err(DeviceError::CompilationUnsupported {
                device: self.info.name.clone(),
            }),
        }
    }

    fn create_chunk(
        &mut self,
        src: BufferId,
        dst: BufferId,
        offset: usize,
        len: usize,
    ) -> Result<()> {
        self.state
            .create_chunk(src, dst, offset, len, |_, _, _| Ok(()))
    }

    fn add_pinned_memory(&mut self, id: BufferId, bytes: u64) -> Result<()> {
        self.state.add_pinned_memory(id, bytes)
    }

    fn execute(&mut self, spec: &ExecuteSpec) -> Result<KernelStats> {
        let kernel = self
            .kernels
            .get(&spec.kernel)
            .ok_or_else(|| DeviceError::KernelNotFound(spec.kernel.clone()))?;
        self.state.execute(kernel, spec, |_, t| t)
    }

    fn init_structure(&mut self, id: BufferId, data: BufferData) -> Result<()> {
        self.state.init_structure(id, data)
    }

    fn state(&self) -> &DeviceState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut DeviceState {
        &mut self.state
    }
}
