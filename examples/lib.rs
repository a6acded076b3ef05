//! Examples support library: the hand-written driver for the imaginary
//! "NPU" that `plug_in_device` plugs in and `tests/tests/conformance.rs`
//! runs the conformance suite and the full TPC-H grid on.
//!
//! [`NpuDevice`] is what a vendor writes to join ADAMANT: one struct
//! embedding a [`DeviceState`], and one `impl Device` holding nothing but
//! the trait's required methods. Where a real driver would call its SDK
//! (`npuMemcpy`, `npuLaunch` …) this one moves the payload into the state's
//! bounded pool and charges the state's clock from the state's cost model.

use adamant::device::clock::Lane;
use adamant::device::error::{DeviceError, Result};
use adamant::device::kernel::KernelFn;
use adamant::device::transform::TransformKind;
use adamant::prelude::*;
use std::collections::HashMap;

/// The NPU's SDK tag — unknown to every built-in component.
pub const NPU_SDK: SdkKind = SdkKind::Custom(42);

/// The one memory representation the NPU SDK knows.
const NPU_REPR: SdkRepr = SdkRepr::Custom(42);

/// Driver for the NPU: huge compute bandwidth behind a narrow transfer bus,
/// a single memory representation, no runtime kernel compilation.
pub struct NpuDevice {
    info: DeviceInfo,
    state: DeviceState,
    kernels: HashMap<String, KernelFn>,
    ready: bool,
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
            ready: false,
        }
    }

    fn ensure_ready(&self) -> Result<()> {
        if self.ready {
            Ok(())
        } else {
            Err(DeviceError::NotInitialized)
        }
    }

    /// Allocates `buffer` under `id` and charges the allocation plus
    /// `extra_ns` of on-device work on the `Alloc` lane.
    fn alloc(&mut self, id: BufferId, buffer: Buffer, extra_ns: f64) -> Result<()> {
        let (bytes, pinned) = (buffer.footprint(), buffer.pinned);
        self.state.pool.insert(id, buffer)?;
        let ns = self.state.cost.alloc_ns(bytes, pinned) + extra_ns;
        self.state.clock.record(Lane::Alloc, ns, 0);
        Ok(())
    }
}

fn buffer(data: BufferData, pinned: bool, reserved_bytes: u64) -> Buffer {
    Buffer {
        data,
        repr: NPU_REPR,
        pinned,
        reserved_bytes,
    }
}

impl Device for NpuDevice {
    fn info(&self) -> &DeviceInfo {
        &self.info
    }

    fn initialize(&mut self) -> Result<()> {
        self.ready = true;
        Ok(())
    }

    fn place_data(&mut self, id: BufferId, data: BufferData, offset: usize) -> Result<()> {
        self.ensure_ready()?;
        let bytes = data.byte_len();
        let pinned = if self.state.pool.contains(id) {
            let pinned = self.state.pool.get(id)?.pinned;
            self.state.pool.write(id, data, offset)?;
            pinned
        } else if offset == 0 {
            self.alloc(id, buffer(data, false, 0), 0.0)?;
            false
        } else {
            return Err(DeviceError::UnknownBuffer(id));
        };
        let ns = self.state.cost.h2d_ns(bytes, pinned);
        self.state.clock.record(Lane::TransferH2D, ns, bytes);
        Ok(())
    }

    fn retrieve_data(
        &mut self,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> Result<BufferData> {
        self.ensure_ready()?;
        let out = self.state.pool.read(id, len, offset)?;
        let pinned = self.state.pool.get(id)?.pinned;
        let ns = self.state.cost.d2h_ns(out.byte_len(), pinned);
        self.state
            .clock
            .record(Lane::TransferD2H, ns, out.byte_len());
        Ok(out)
    }

    fn prepare_memory(&mut self, id: BufferId, bytes: u64) -> Result<()> {
        self.ensure_ready()?;
        let reserved = buffer(BufferData::Raw(Vec::new()), false, bytes);
        self.alloc(id, reserved, 0.0)
    }

    fn transform_memory(&mut self, id: BufferId, target: SdkRepr) -> Result<TransformKind> {
        self.ensure_ready()?;
        let from = self.state.pool.get(id)?.repr;
        if target != from {
            return Err(DeviceError::NoTransformPath { from, to: target });
        }
        Ok(TransformKind::ZeroCopy)
    }

    fn delete_memory(&mut self, id: BufferId) -> Result<()> {
        self.ensure_ready()?;
        self.state.pool.remove(id)?;
        let ns = self.state.cost.free_overhead_ns;
        self.state.clock.record(Lane::Alloc, ns, 0);
        Ok(())
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
        self.ensure_ready()?;
        let chunk = self.state.pool.read(src, Some(len), offset)?;
        let bytes = chunk.byte_len();
        self.state.pool.insert(dst, buffer(chunk, false, 0))?;
        let ns = self.state.cost.alloc_overhead_ns + self.state.cost.device_copy_ns(bytes);
        self.state.clock.record(Lane::Compute, ns, bytes);
        Ok(())
    }

    fn add_pinned_memory(&mut self, id: BufferId, bytes: u64) -> Result<()> {
        self.ensure_ready()?;
        let reserved = buffer(BufferData::Raw(Vec::new()), true, bytes);
        self.alloc(id, reserved, 0.0)
    }

    fn execute(&mut self, spec: &ExecuteSpec) -> Result<KernelStats> {
        self.ensure_ready()?;
        let kernel = self
            .kernels
            .get(&spec.kernel)
            .ok_or_else(|| DeviceError::KernelNotFound(spec.kernel.clone()))?;
        let stats = kernel(&mut self.state.pool, &spec.buffers, &spec.params)?;
        let cost = &self.state.cost;
        let ns = if stats.stages.is_empty() {
            cost.kernel_ns(stats.cost_class, stats.elements, spec.arg_count())
        } else {
            cost.fused_kernel_ns(&stats.stages, spec.arg_count())
        };
        self.state.clock.record(Lane::Compute, ns, 0);
        Ok(stats)
    }

    fn init_structure(&mut self, id: BufferId, data: BufferData) -> Result<()> {
        self.ensure_ready()?;
        let memset_ns = self.state.cost.device_copy_ns(data.byte_len());
        self.alloc(id, buffer(data, false, 0), memset_ns)
    }

    fn state(&self) -> &DeviceState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut DeviceState {
        &mut self.state
    }
}
