//! The `Device` trait — ADAMANT's ten pluggable interfaces — and the
//! [`DeviceState`] every driver embeds.

use crate::buffer::{BufferData, BufferId};
use crate::clock::SimClock;
use crate::cost::CostModel;
use crate::error::Result;
use crate::fault::FaultState;
use crate::kernel::{ExecuteSpec, KernelSource, KernelStats};
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
/// A driver embeds one and charges `clock` from `cost` as it works.
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
}

impl DeviceState {
    /// Fresh state for a device: an empty pool sized from `info`, a zeroed
    /// clock, no fault plan.
    pub fn new(info: &DeviceInfo, cost: CostModel) -> Self {
        DeviceState {
            clock: SimClock::new(),
            pool: BufferPool::new(info.memory_capacity, info.pinned_capacity),
            faults: FaultState::default(),
            cost,
        }
    }

    /// Frees all buffers and zeroes the clock and the peak watermark
    /// (between queries/experiments).
    ///
    /// Fault state survives: the plan is configuration, and its ordinals
    /// are per-plan (reinstall the plan to rewind them). A driver's
    /// permanent death lives outside this struct and survives too.
    pub fn reset(&mut self) {
        self.pool.clear();
        self.pool.reset_peak();
        self.clock.reset();
    }
}

/// ADAMANT's device-layer interface (paper §III-A).
///
/// Implementing this trait is all that is required to plug a new
/// co-processor or SDK into the executor; the runtime layer only ever talks
/// through these methods. The required surface is [`Device::info`], the ten
/// paper interfaces (`initialize` … `execute`), [`Device::init_structure`]
/// and the [`Device::state`] pair; `clock`/`pool` are provided shorthands
/// for the matching [`DeviceState`] fields.
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
