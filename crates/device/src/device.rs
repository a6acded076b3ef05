//! The `Device` trait — ADAMANT's ten pluggable interfaces — and the
//! [`DeviceState`] every driver embeds. The state owns everything a
//! driver's SDK does not: the pool, the clock and its pricing, fault
//! injection, death and the kernel table.

use crate::buffer::{Buffer, BufferData, BufferId};
use crate::clock::{Lane, SimClock};
use crate::cost::CostModel;
use crate::error::{DeviceError, Result};
use crate::fault::FaultState;
use crate::kernel::{ExecuteSpec, KernelFn, KernelSource, KernelStats};
use crate::pool::BufferPool;
use crate::sdk::{SdkKind, SdkRepr};
use crate::transform::TransformKind;
use std::collections::HashMap;
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
/// fault-injection state, the analytical cost model the runtime prices
/// placement and fusion savings with, and the table of prepared kernels.
///
/// This is the one concrete struct behind [`Device::state`]; the runtime
/// reads it directly instead of reaching through per-concern trait hooks.
/// A driver embeds one; its charging methods (`initialize` …
/// `init_structure`) are the default bodies of the [`Device`] calls of the
/// same name, and a driver that overrides a call hands its SDK's result to
/// the matching method. Each gates the call (a dead device answers
/// [`DeviceError::Gone`], an uninitialized one
/// [`DeviceError::NotInitialized`], both before any fault ordinal moves),
/// consults the installed fault plan, does the call's pool work and
/// charges the call's lane, duration and bytes from `cost`. So every
/// driver prices a call the way fusion's estimate and placement assume,
/// and every driver can be fault-injected with no code of its own.
pub struct DeviceState {
    /// Cost clock (statistics, timelines).
    pub clock: SimClock,
    /// Bounded device + pinned memory pool.
    pub pool: BufferPool,
    /// Installed fault plan, its ordinals and counters; the charging
    /// methods consult it.
    pub faults: FaultState,
    /// Transfer/allocation/kernel cost model.
    pub cost: CostModel,
    /// The description the state was built from; [`Device::info`] reads it.
    info: DeviceInfo,
    /// Representation of the buffers this device creates.
    repr: SdkRepr,
    /// Kernels bound by [`Self::prepare_kernel`], by name.
    kernels: HashMap<String, KernelFn>,
    /// Set by `initialize()`; the charging methods refuse work before it.
    initialized: bool,
    /// Permanent death (hot-unplug / terminal fault): once set, every call
    /// fails with [`DeviceError::Gone`] forever.
    dead: bool,
}

impl DeviceState {
    /// Fresh state for a device: an empty pool sized from `info`, a zeroed
    /// clock, no fault plan, no kernels, not yet initialized.
    pub fn new(info: DeviceInfo, cost: CostModel) -> Self {
        DeviceState {
            clock: SimClock::new(),
            pool: BufferPool::new(info.memory_capacity, info.pinned_capacity),
            faults: FaultState::default(),
            cost,
            repr: SdkRepr::native_of(info.sdk),
            info,
            kernels: HashMap::new(),
            initialized: false,
            dead: false,
        }
    }

    /// Frees all buffers and zeroes the clock and the peak watermark
    /// (between queries/experiments).
    ///
    /// Fault state survives: the plan is configuration, and its ordinals
    /// are per-plan (reinstall the plan to rewind them). Death,
    /// initialization and the prepared kernels survive too: a reset never
    /// revives a dead device.
    pub fn reset(&mut self) {
        self.pool.clear();
        self.pool.reset_peak();
        self.clock.reset();
    }

    /// The device's static description.
    pub fn info(&self) -> &DeviceInfo {
        &self.info
    }

    /// Names of prepared kernels, sorted (for diagnostics).
    pub fn kernel_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.kernels.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Kills a live device permanently, counting the injected death, and
    /// returns the terminal error. Both callers run behind the alive
    /// check, so a death is counted exactly once.
    fn die(&mut self) -> DeviceError {
        self.dead = true;
        self.faults.note_death();
        DeviceError::Gone {
            device: self.info.id,
        }
    }

    /// A dead device only ever answers [`DeviceError::Gone`], and the plan's
    /// clock death trigger fires on the first call at or past its instant.
    /// The fields stay readable, so write-off accounting can still read the
    /// corpse's clock, pool and fault counters.
    fn ensure_alive(&mut self) -> Result<()> {
        if self.dead {
            return Err(DeviceError::Gone {
                device: self.info.id,
            });
        }
        if self.faults.death_due(self.clock.total_ns()) {
            return Err(self.die());
        }
        Ok(())
    }

    /// Alive, then initialized — both before the fault plan is consulted,
    /// so a refused call advances no fault ordinal.
    fn ensure_ready(&mut self) -> Result<()> {
        self.ensure_alive()?;
        self.initialized
            .then_some(())
            .ok_or(DeviceError::NotInitialized)
    }

    /// The fault plan's verdict on allocating `bytes` of device memory.
    fn admit(&mut self, bytes: u64) -> Result<()> {
        self.faults
            .on_alloc(bytes, self.pool.used(), self.pool.capacity())
    }

    /// Charges `clean` on `lane`, dilated by the plan: `clean × slowdown +
    /// stall`.
    fn charge_dilated(&mut self, lane: Lane, clean: f64, stall_ns: f64, bytes: u64) {
        let actual = clean * self.faults.time_multiplier() + stall_ns;
        self.clock.record_dilated(lane, clean, actual, bytes);
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

    /// [`Device::initialize`]: lifts the [`DeviceError::NotInitialized`]
    /// refusal of every charging method.
    pub fn initialize(&mut self) -> Result<()> {
        self.ensure_alive()?;
        self.initialized = true;
        Ok(())
    }

    /// [`Device::prepare_kernel`]: binds `entry` under `name`. Allowed
    /// before `initialize()`; a driver that compiles charges the compile
    /// itself.
    pub fn prepare_kernel(&mut self, name: &str, entry: KernelFn) -> Result<()> {
        self.ensure_alive()?;
        self.kernels.insert(name.to_string(), entry);
        Ok(())
    }

    /// [`Device::place_data`]: overwrites an existing buffer from
    /// `offset`, or creates it (charging the allocation) when `offset` is 0,
    /// then charges the upload at the target's pinned or pageable rate.
    pub fn place_data(&mut self, id: BufferId, mut data: BufferData, offset: usize) -> Result<()> {
        self.ensure_ready()?;
        let fault = self.faults.on_place();
        if fault.corrupt {
            // A bit flipped on the bus: the device stores the damaged
            // payload. The hub's checksum echo is what catches this.
            data.flip_bit(fault.corrupt_at as usize);
        }
        let bytes = data.byte_len();
        let pinned = if self.pool.contains(id) {
            let pinned = self.pool.get(id)?.pinned;
            self.pool.write(id, data, offset)?;
            pinned
        } else if offset == 0 {
            self.admit(bytes)?;
            self.pool.insert(id, self.buffer(data))?;
            self.clock
                .record(Lane::Alloc, self.cost.alloc_ns(bytes, false), 0);
            false
        } else {
            return Err(DeviceError::UnknownBuffer(id));
        };
        let t = self.cost.h2d_ns(bytes, pinned);
        self.charge_dilated(Lane::TransferH2D, t, fault.stall_ns, bytes);
        Ok(())
    }

    /// [`Device::retrieve_data`]: reads the range out ([`BufferPool::read`]:
    /// a copy, or a view of shared rows) and charges the download at the
    /// buffer's pinned or pageable rate. A corrupted download flips a bit in
    /// what it returns, never in the stored payload or the rows it shares.
    pub fn retrieve_data(
        &mut self,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> Result<BufferData> {
        self.ensure_ready()?;
        let fault = self.faults.on_retrieve();
        let mut out = self.pool.read(id, len, offset)?;
        let pinned = self.pool.get(id)?.pinned;
        let bytes = out.byte_len();
        let t = self.cost.d2h_ns(bytes, pinned);
        self.charge_dilated(Lane::TransferD2H, t, fault.stall_ns, bytes);
        if fault.corrupt {
            // The device copy stays intact; the payload was damaged in
            // flight, so a retransmit can succeed.
            out.flip_bit(fault.corrupt_at as usize);
        }
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
        self.ensure_ready()?;
        if pinned {
            let (used, capacity) = (self.pool.pinned_used(), self.pool.pinned_capacity());
            self.faults.on_alloc(bytes, used, capacity)?;
        } else {
            self.admit(bytes)?;
        }
        self.pool.reserve(id, bytes, self.repr, pinned)?;
        self.clock
            .record(Lane::Alloc, self.cost.alloc_ns(bytes, pinned), 0);
        Ok(())
    }

    /// [`Device::transform_memory`]: `resolve` picks the path from the
    /// buffer's current representation (or refuses it); a zero-copy path
    /// costs the model's fixed overhead, a host round trip crosses the bus
    /// both ways.
    pub fn transform_memory(
        &mut self,
        id: BufferId,
        target: SdkRepr,
        resolve: impl FnOnce(SdkRepr) -> Result<TransformKind>,
    ) -> Result<TransformKind> {
        self.ensure_ready()?;
        let buf = self.pool.get_mut(id)?;
        let kind = resolve(buf.repr)?;
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
        self.ensure_ready()?;
        self.pool.remove(id)?;
        self.clock
            .record(Lane::Alloc, self.cost.free_overhead_ns, 0);
        Ok(())
    }

    /// [`Device::create_chunk`]: materializes the range as a new buffer
    /// `dst` (in `src`'s representation) on the device, once the fault plan
    /// admits the chunk's bytes. The range is read as [`BufferPool::read`]
    /// reads it, so a chunk of a shared payload (a residency pin) is a
    /// sub-view of the same rows; the device-internal copy is charged in
    /// full either way.
    pub fn create_chunk(
        &mut self,
        src: BufferId,
        dst: BufferId,
        offset: usize,
        len: usize,
    ) -> Result<()> {
        self.ensure_ready()?;
        let chunk = self.pool.read(src, Some(len), offset)?;
        let repr = self.pool.get(src)?.repr;
        let bytes = chunk.byte_len();
        self.admit(bytes)?;
        let buffer = Buffer {
            repr,
            ..self.buffer(chunk)
        };
        self.pool.insert(dst, buffer)?;
        let t = self.cost.alloc_overhead_ns + self.cost.device_copy_ns(bytes);
        self.clock.record(Lane::Compute, t, bytes);
        Ok(())
    }

    /// [`Device::execute`]: runs the kernel bound under `spec.kernel` over
    /// the pool and charges its launch — through the fused cost entry when
    /// the kernel reports stages, so a fused chunk is charged what fusion
    /// estimated, and the watchdog's fault-free budget sees the same figure.
    pub fn execute(&mut self, spec: &ExecuteSpec) -> Result<KernelStats> {
        self.ensure_ready()?;
        // The terminal trigger is checked before `on_execute` advances the
        // ordinal, so `die_on_exec(n)` kills the n-th call itself.
        if self.faults.exec_death_due() {
            return Err(self.die());
        }
        self.faults.on_execute(&spec.kernel)?;
        let kernel = self
            .kernels
            .get(&spec.kernel)
            .ok_or_else(|| DeviceError::KernelNotFound(spec.kernel.clone()))?;
        let stats = kernel(&mut self.pool, &spec.buffers, &spec.params)?;
        let t = if stats.stages.is_empty() {
            self.cost
                .kernel_ns(stats.cost_class, stats.elements, spec.arg_count())
        } else {
            self.cost.fused_kernel_ns(&stats.stages, spec.arg_count())
        };
        let stall_ns = self.faults.take_exec_stall();
        self.charge_dilated(Lane::Compute, t, stall_ns, 0);
        Ok(stats)
    }

    /// [`Device::init_structure`]: allocates `data` device-side and
    /// charges the allocation plus a memset at memory bandwidth.
    pub fn init_structure(&mut self, id: BufferId, data: BufferData) -> Result<()> {
        self.ensure_ready()?;
        let bytes = data.byte_len();
        self.admit(bytes)?;
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
/// through these methods. A driver writes four of them: the
/// [`Device::state`] pair, which hands the runtime the [`DeviceState`] it
/// embeds, and the two calls where SDKs differ, [`Device::transform_memory`]
/// (which representation changes are possible) and
/// [`Device::prepare_kernel`] (whether it compiles). Every other call has a
/// default body: the [`DeviceState`] method of the same name, i.e. the
/// simulated SDK call, which gates the call, injects the installed fault
/// plan's faults, does the pool work and prices it. A driver whose SDK does
/// one of them differently overrides it and still hands the call to that
/// method. A driver that wraps another must forward every method its inner
/// driver overrides; the defaults would skip the inner driver's code.
/// `info` and `clock`/`pool` are provided shorthands for [`DeviceState`]
/// fields.
pub trait Device: Send {
    /// Static device description.
    fn info(&self) -> &DeviceInfo {
        self.state().info()
    }

    /// `initialize()`: set device properties, compile pre-registered
    /// kernels. Must be called before any other operation.
    fn initialize(&mut self) -> Result<()> {
        self.state_mut().initialize()
    }

    /// `place_data(data, size, offset)`: push data into device memory.
    ///
    /// With `offset == 0` and no existing buffer, creates the buffer. With an
    /// existing buffer, overwrites elements starting at `offset` (chunk
    /// uploads into pinned staging buffers use this).
    fn place_data(&mut self, id: BufferId, data: BufferData, offset: usize) -> Result<()> {
        self.state_mut().place_data(id, data, offset)
    }

    /// `retrieve_data(id, size, offset)`: read `len` elements back to the
    /// host (`None` = the whole buffer).
    fn retrieve_data(
        &mut self,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> Result<BufferData> {
        self.state_mut().retrieve_data(id, len, offset)
    }

    /// `prepare_memory(size)`: allocate `bytes` of device memory for `id`.
    fn prepare_memory(&mut self, id: BufferId, bytes: u64) -> Result<()> {
        self.state_mut().prepare_memory(id, bytes)
    }

    /// `transform_memory(source, target)`: convert a buffer's SDK
    /// representation, zero-copy when the driver's transform paths allow.
    fn transform_memory(&mut self, id: BufferId, target: SdkRepr) -> Result<TransformKind>;

    /// `delete_memory(id)`: free a buffer.
    fn delete_memory(&mut self, id: BufferId) -> Result<()> {
        self.state_mut().delete_memory(id)
    }

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
    ) -> Result<()> {
        self.state_mut().create_chunk(src, dst, offset, len)
    }

    /// `add_pinned_memory(ID, chunk size, offset)`: reserve host-accessible
    /// pinned memory for `id` (fast staging for the 4-phase model).
    fn add_pinned_memory(&mut self, id: BufferId, bytes: u64) -> Result<()> {
        self.state_mut().add_pinned_memory(id, bytes)
    }

    /// `execute()`: run a prepared kernel against device buffers.
    fn execute(&mut self, spec: &ExecuteSpec) -> Result<KernelStats> {
        self.state_mut().execute(spec)
    }

    /// Allocates and initializes a device-resident structure (empty hash
    /// table, zeroed accumulator) **without** a host transfer — the
    /// device-side half of the runtime's `prepare_output_buffer`, kept
    /// apart from `prepare_memory` because it is modeled as its own
    /// allocation event.
    ///
    /// Cost: one allocation plus an on-device initialization at memory
    /// bandwidth (like `cudaMemset` after `cudaMalloc`).
    fn init_structure(&mut self, id: BufferId, data: BufferData) -> Result<()> {
        self.state_mut().init_structure(id, data)
    }

    /// The driver's [`DeviceState`]. Stays readable on a dead device so
    /// write-off accounting can still inspect the corpse.
    fn state(&self) -> &DeviceState;

    /// Mutable [`DeviceState`] access: the default calls run through it,
    /// and the runtime drains clock events, installs fault plans and drives
    /// the admission ledger through it.
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
