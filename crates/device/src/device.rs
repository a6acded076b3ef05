//! The `Device` trait — ADAMANT's ten pluggable interfaces — and the
//! [`DeviceState`] every driver embeds.

use crate::buffer::{Buffer, BufferData, BufferId};
use crate::clock::{Lane, SimClock};
use crate::cost::CostModel;
use crate::error::{DeviceError, Result};
use crate::fault::FaultState;
use crate::kernel::{ExecuteSpec, KernelFn, KernelSource, KernelStats};
use crate::pool::BufferPool;
use crate::sdk::{SdkKind, SdkRepr};
use crate::transform::TransformKind;
use std::fmt;

/// Identifier for a device within the engine's registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev#{}", self.0)
    }
}

/// Broad device class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Host CPU (possibly many cores).
    Cpu,
    /// Discrete GPU behind a bus.
    Gpu,
    /// Anything else a user plugs in (FPGA, NPU, smart NIC front end…).
    Accelerator,
}

/// Static description of a plugged device.
#[derive(Clone, Debug)]
pub struct DeviceInfo {
    /// Registry id.
    pub id: DeviceId,
    /// Human-readable name, e.g. `"gpu0 (cuda, rtx2080ti-class)"`.
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// SDK this driver speaks.
    pub sdk: SdkKind,
    /// Device memory capacity in bytes.
    pub memory_capacity: u64,
    /// Pinned (host-accessible) pool capacity in bytes.
    pub pinned_capacity: u64,
}

/// The state every driver keeps beside its SDK handles: the cost clock the
/// runtime drains for statistics, the bounded buffer pool, the
/// fault-injection state and the analytical cost model the runtime prices
/// placement and fusion savings with.
///
/// This is the one concrete struct behind [`Device::state`]; the runtime
/// reads it directly instead of reaching through per-concern trait hooks.
/// A driver embeds one and calls its charging methods (`place_data` …
/// `init_structure`): each does the call's pool work and charges the
/// call's lane, duration and bytes from `cost`, so every driver prices a
/// call the way fusion's estimate and placement assume.
///
/// A driver that injects faults passes its hooks in: `dilate` maps a
/// call's fault-free duration to the charged one, `admit` vets a
/// mid-call allocation. A driver without fault injection passes
/// `|_, t| t` and `|_, _, _| Ok(())`.
pub struct DeviceState {
    /// Cost clock (statistics, timelines).
    pub clock: SimClock,
    /// Bounded device + pinned memory pool.
    pub pool: BufferPool,
    /// Installed fault plan, its ordinals and counters. Drivers with
    /// nothing to inject simply never consult it.
    pub faults: FaultState,
    /// Transfer/allocation/kernel cost model.
    pub cost: CostModel,
    /// Representation of the buffers this device creates.
    repr: SdkRepr,
    /// Set by `initialize()`; the charging methods refuse work before it.
    initialized: bool,
}

impl DeviceState {
    /// Fresh state for a device: an empty pool sized from `info`, a zeroed
    /// clock, no fault plan, not yet initialized.
    pub fn new(info: &DeviceInfo, cost: CostModel) -> Self {
        DeviceState {
            clock: SimClock::new(),
            pool: BufferPool::new(info.memory_capacity, info.pinned_capacity),
            faults: FaultState::default(),
            cost,
            repr: SdkRepr::native_of(info.sdk),
            initialized: false,
        }
    }

    /// Frees all buffers and zeroes the clock and the peak watermark
    /// (between queries/experiments).
    ///
    /// Fault state survives: the plan is configuration, and its ordinals
    /// are per-plan (reinstall the plan to rewind them). A driver's
    /// permanent death lives outside this struct and survives too, and so
    /// does initialization.
    pub fn reset(&mut self) {
        self.pool.clear();
        self.pool.reset_peak();
        self.clock.reset();
    }

    /// `initialize()`'s bookkeeping: lifts the [`DeviceError::NotInitialized`]
    /// refusal of every charging method.
    pub fn initialize(&mut self) {
        self.initialized = true;
    }

    /// [`DeviceError::NotInitialized`] until [`Self::initialize`] ran.
    pub fn ensure_initialized(&self) -> Result<()> {
        self.initialized
            .then_some(())
            .ok_or(DeviceError::NotInitialized)
    }

    /// An unpinned, unreserved buffer over `data` in the native representation.
    fn buffer(&self, data: BufferData) -> Buffer {
        Buffer {
            data,
            repr: self.repr,
            pinned: false,
            reserved_bytes: 0,
        }
    }

    /// [`Device::place_data`]: overwrites an existing buffer from
    /// `offset`, or creates it (charging the allocation) when `offset` is 0,
    /// then charges the upload at the target's pinned or pageable rate.
    pub fn place_data(
        &mut self,
        id: BufferId,
        data: BufferData,
        offset: usize,
        dilate: impl FnOnce(&mut FaultState, f64) -> f64,
    ) -> Result<()> {
        self.ensure_initialized()?;
        let bytes = data.byte_len();
        let pinned = if self.pool.contains(id) {
            let pinned = self.pool.get(id)?.pinned;
            self.pool.write(id, data, offset)?;
            pinned
        } else if offset == 0 {
            self.pool.insert(id, self.buffer(data))?;
            self.clock
                .record(Lane::Alloc, self.cost.alloc_ns(bytes, false), 0);
            false
        } else {
            return Err(DeviceError::UnknownBuffer(id));
        };
        let t = self.cost.h2d_ns(bytes, pinned);
        let actual = dilate(&mut self.faults, t);
        self.clock
            .record_dilated(Lane::TransferH2D, t, actual, bytes);
        Ok(())
    }

    /// [`Device::retrieve_data`]: copies the range out and charges the
    /// download at the buffer's pinned or pageable rate.
    pub fn retrieve_data(
        &mut self,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
        dilate: impl FnOnce(&mut FaultState, f64) -> f64,
    ) -> Result<BufferData> {
        self.ensure_initialized()?;
        let out = self.pool.read(id, len, offset)?;
        let pinned = self.pool.get(id)?.pinned;
        let bytes = out.byte_len();
        let t = self.cost.d2h_ns(bytes, pinned);
        let actual = dilate(&mut self.faults, t);
        self.clock
            .record_dilated(Lane::TransferD2H, t, actual, bytes);
        Ok(out)
    }

    /// [`Device::prepare_memory`]: reserves `bytes` of device memory.
    pub fn prepare_memory(&mut self, id: BufferId, bytes: u64) -> Result<()> {
        self.reserve(id, bytes, false)
    }

    /// [`Device::add_pinned_memory`]: reserves `bytes` of pinned memory.
    pub fn add_pinned_memory(&mut self, id: BufferId, bytes: u64) -> Result<()> {
        self.reserve(id, bytes, true)
    }

    fn reserve(&mut self, id: BufferId, bytes: u64, pinned: bool) -> Result<()> {
        self.ensure_initialized()?;
        self.pool.reserve(id, bytes, self.repr, pinned)?;
        self.clock
            .record(Lane::Alloc, self.cost.alloc_ns(bytes, pinned), 0);
        Ok(())
    }

    /// [`Device::transform_memory`]: `resolve` picks the path from the
    /// buffer's current representation; a zero-copy path costs the model's
    /// fixed overhead, a host round trip crosses the bus both ways.
    pub fn transform_memory(
        &mut self,
        id: BufferId,
        target: SdkRepr,
        resolve: impl FnOnce(SdkRepr) -> TransformKind,
    ) -> Result<TransformKind> {
        self.ensure_initialized()?;
        let buf = self.pool.get_mut(id)?;
        let kind = resolve(buf.repr);
        buf.repr = target;
        let (bytes, pinned) = (buf.data.byte_len(), buf.pinned);
        match kind {
            TransformKind::ZeroCopy => {
                self.clock
                    .record(Lane::Transform, self.cost.transform_zero_copy_ns, 0);
            }
            TransformKind::HostRoundTrip => {
                // Data crosses the bus twice; representation changes on host.
                let down = self.cost.d2h_ns(bytes, pinned);
                let up = self.cost.h2d_ns(bytes, pinned);
                self.clock.record(Lane::TransferD2H, down, bytes);
                self.clock.record(Lane::TransferH2D, up, bytes);
            }
        }
        Ok(kind)
    }

    /// [`Device::delete_memory`]: frees the buffer.
    pub fn delete_memory(&mut self, id: BufferId) -> Result<()> {
        self.ensure_initialized()?;
        self.pool.remove(id)?;
        self.clock
            .record(Lane::Alloc, self.cost.free_overhead_ns, 0);
        Ok(())
    }

    /// [`Device::create_chunk`]: copies the range into a new buffer `dst`
    /// (in `src`'s representation) on the device, after `admit` vets the
    /// chunk's bytes.
    pub fn create_chunk(
        &mut self,
        src: BufferId,
        dst: BufferId,
        offset: usize,
        len: usize,
        admit: impl FnOnce(&mut FaultState, &BufferPool, u64) -> Result<()>,
    ) -> Result<()> {
        self.ensure_initialized()?;
        let chunk = self.pool.read(src, Some(len), offset)?;
        let repr = self.pool.get(src)?.repr;
        let bytes = chunk.byte_len();
        admit(&mut self.faults, &self.pool, bytes)?;
        let buffer = Buffer {
            repr,
            ..self.buffer(chunk)
        };
        self.pool.insert(dst, buffer)?;
        let t = self.cost.alloc_overhead_ns + self.cost.device_copy_ns(bytes);
        self.clock.record(Lane::Compute, t, bytes);
        Ok(())
    }

    /// [`Device::execute`]: runs `kernel` over the pool and charges its
    /// launch — through the fused cost entry when the kernel reports
    /// stages, so a fused chunk is charged what fusion estimated.
    pub fn execute(
        &mut self,
        kernel: &KernelFn,
        spec: &ExecuteSpec,
        dilate: impl FnOnce(&mut FaultState, f64) -> f64,
    ) -> Result<KernelStats> {
        self.ensure_initialized()?;
        let stats = kernel(&mut self.pool, &spec.buffers, &spec.params)?;
        let t = if stats.stages.is_empty() {
            self.cost
                .kernel_ns(stats.cost_class, stats.elements, spec.arg_count())
        } else {
            self.cost.fused_kernel_ns(&stats.stages, spec.arg_count())
        };
        let actual = dilate(&mut self.faults, t);
        self.clock.record_dilated(Lane::Compute, t, actual, 0);
        Ok(stats)
    }

    /// [`Device::init_structure`]: allocates `data` device-side and
    /// charges the allocation plus a memset at memory bandwidth.
    pub fn init_structure(&mut self, id: BufferId, data: BufferData) -> Result<()> {
        self.ensure_initialized()?;
        let bytes = data.byte_len();
        self.pool.insert(id, self.buffer(data))?;
        let memset = self.cost.device_copy_ns(bytes);
        self.clock
            .record(Lane::Alloc, self.cost.alloc_ns(bytes, false) + memset, 0);
        Ok(())
    }
}

/// ADAMANT's device-layer interface (paper §III-A).
///
/// Implementing this trait is all that is required to plug a new
/// co-processor or SDK into the executor; the runtime layer only ever talks
/// through these methods. The required surface is [`Device::info`], the ten
/// paper interfaces (`initialize` … `execute`), [`Device::init_structure`]
/// and the [`Device::state`] pair; `clock`/`pool` are provided shorthands
/// for the matching [`DeviceState`] fields. A driver wraps its SDK calls
/// and prices each through the [`DeviceState`] method of the same name.
pub trait Device: Send {
    /// Static device description.
    fn info(&self) -> &DeviceInfo;

    /// `initialize()`: set device properties, compile pre-registered
    /// kernels. Must be called before any other operation.
    fn initialize(&mut self) -> Result<()>;

    /// `place_data(data, size, offset)`: push data into device memory.
    ///
    /// With `offset == 0` and no existing buffer, creates the buffer. With an
    /// existing buffer, overwrites elements starting at `offset` (chunk
    /// uploads into pinned staging buffers use this).
    fn place_data(&mut self, id: BufferId, data: BufferData, offset: usize) -> Result<()>;

    /// `retrieve_data(id, size, offset)`: read `len` elements back to the
    /// host (`None` = the whole buffer).
    fn retrieve_data(
        &mut self,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> Result<BufferData>;

    /// `prepare_memory(size)`: allocate `bytes` of device memory for `id`.
    fn prepare_memory(&mut self, id: BufferId, bytes: u64) -> Result<()>;

    /// `transform_memory(source, target)`: convert a buffer's SDK
    /// representation, zero-copy when the transform table allows.
    fn transform_memory(&mut self, id: BufferId, target: SdkRepr) -> Result<TransformKind>;

    /// `delete_memory(id)`: free a buffer.
    fn delete_memory(&mut self, id: BufferId) -> Result<()>;

    /// `prepare_kernel(name, location)`: bind (and for source kernels,
    /// compile) a kernel under `name`. Optional per the paper — drivers
    /// without runtime compilation reject [`KernelSource::Source`].
    fn prepare_kernel(&mut self, name: &str, source: KernelSource) -> Result<()>;

    /// `create_chunk(ID, chunk size, offset)`: materialize a device-side
    /// sub-buffer `dst` holding `len` elements of `src` starting at `offset`.
    fn create_chunk(
        &mut self,
        src: BufferId,
        dst: BufferId,
        offset: usize,
        len: usize,
    ) -> Result<()>;

    /// `add_pinned_memory(ID, chunk size, offset)`: reserve host-accessible
    /// pinned memory for `id` (fast staging for the 4-phase model).
    fn add_pinned_memory(&mut self, id: BufferId, bytes: u64) -> Result<()>;

    /// `execute()`: run a prepared kernel against device buffers.
    fn execute(&mut self, spec: &ExecuteSpec) -> Result<KernelStats>;

    /// Allocates and initializes a device-resident structure (empty hash
    /// table, zeroed accumulator) **without** a host transfer — the
    /// device-side half of the runtime's `prepare_output_buffer`, kept
    /// apart from `prepare_memory` because it is modeled as its own
    /// allocation event.
    ///
    /// Cost: one allocation plus an on-device initialization at memory
    /// bandwidth (like `cudaMemset` after `cudaMalloc`).
    fn init_structure(&mut self, id: BufferId, data: BufferData) -> Result<()>;

    /// The driver's [`DeviceState`]. Stays readable on a dead device so
    /// write-off accounting can still inspect the corpse.
    fn state(&self) -> &DeviceState;

    /// Mutable [`DeviceState`] access: the runtime drains clock events,
    /// installs fault plans and drives the admission ledger through it.
    fn state_mut(&mut self) -> &mut DeviceState;

    /// Shorthand for `&self.state().clock`.
    fn clock(&self) -> &SimClock {
        &self.state().clock
    }

    /// Shorthand for `&mut self.state_mut().clock`.
    fn clock_mut(&mut self) -> &mut SimClock {
        &mut self.state_mut().clock
    }

    /// Shorthand for `&self.state().pool`.
    fn pool(&self) -> &BufferPool {
        &self.state().pool
    }

    /// Shorthand for `&mut self.state_mut().pool`.
    fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.state_mut().pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(DeviceId(3).to_string(), "dev#3");
    }
}
