//! # adamant-device
//!
//! The **device layer** of ADAMANT (paper §III-A): pluggable interfaces that
//! let arbitrary co-processors and SDKs be integrated into the query executor
//! without touching the runtime.
//!
//! The paper defines ten interface functions per device driver; the
//! [`Device`] trait is their Rust form:
//!
//! | Paper interface | Trait method |
//! |---|---|
//! | `place_data(data, size, offset)` | [`Device::place_data`] |
//! | `retrieve_data(id, size, offset)` | [`Device::retrieve_data`] |
//! | `prepare_memory(size)` | [`Device::prepare_memory`] |
//! | `transform_memory(source, target)` | [`Device::transform_memory`] |
//! | `delete_memory(id)` | [`Device::delete_memory`] |
//! | `prepare_kernel(name, location)` | [`Device::prepare_kernel`] |
//! | `initialize()` | [`Device::initialize`] |
//! | `create_chunk(ID, chunk size, offset)` | [`Device::create_chunk`] |
//! | `add_pinned_memory(ID, chunk size, offset)` | [`Device::add_pinned_memory`] |
//! | `execute()` | [`Device::execute`] |
//!
//! Beside those, the trait names the device ([`Device::info`]),
//! initializes device-resident structures ([`Device::init_structure`]) and
//! hands the runtime the driver's [`DeviceState`] — description, clock,
//! pool, fault state and cost model in one concrete struct, so the trait
//! carries no per-concern hooks. The state's charging methods gate each
//! call, consult the installed fault plan, do the call's pool work and
//! price it from the cost model, so every driver prices a call the same way
//! and can be fault-injected with no code of its own.
//!
//! A driver writes four methods: the `state`/`state_mut` pair, and the two
//! calls where SDKs differ, `transform_memory` and `prepare_kernel`. Every
//! other call defaults to the [`DeviceState`] method of the same name —
//! the simulated SDK call. A driver whose SDK does one differently
//! overrides it and hands the result to that method; a driver that wraps
//! another must forward every method its inner driver overrides.
//!
//! ## Hardware simulation
//!
//! This reproduction runs without GPUs. [`sim::SimDevice`] is a faithful
//! *simulated* driver: buffers live in a bounded host-memory [`pool::BufferPool`]
//! (so out-of-memory behaviour is real), kernels really execute (results are
//! exact), and elapsed time is produced by a calibrated [`cost::CostModel`]
//! recorded on a [`clock::SimClock`]. Driver profiles for CUDA-, OpenCL- and
//! OpenMP-style SDKs live in [`profiles`]; their parameters encode the
//! relative differences the paper measures (Fig. 3, 5, 9, 10).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod clock;
pub mod cost;
pub mod device;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod pool;
pub mod profiles;
pub mod registry;
pub mod sdk;
pub mod sim;
pub mod transform;

pub use buffer::{Buffer, BufferData, BufferId, GenericPayload};
pub use clock::{CostEvent, Lane, SimClock};
pub use cost::{CostClass, CostModel};
pub use device::{Device, DeviceId, DeviceInfo, DeviceKind, DeviceState};
pub use error::DeviceError;
pub use fault::{FaultCounters, FaultPlan};
pub use kernel::{ExecuteSpec, KernelFn, KernelSource, KernelStats};
pub use pool::BufferPool;
pub use profiles::DeviceProfile;
pub use registry::DeviceRegistry;
pub use sdk::{SdkKind, SdkRepr};
pub use sim::SimDevice;
pub use transform::{TransformKind, TransformTable};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::buffer::{Buffer, BufferData, BufferId, GenericPayload};
    pub use crate::clock::{CostEvent, Lane, SimClock};
    pub use crate::cost::{CostClass, CostModel};
    pub use crate::device::{Device, DeviceId, DeviceInfo, DeviceKind, DeviceState};
    pub use crate::error::DeviceError;
    pub use crate::fault::{FaultCounters, FaultPlan};
    pub use crate::kernel::{ExecuteSpec, KernelFn, KernelSource, KernelStats};
    pub use crate::pool::BufferPool;
    pub use crate::profiles::DeviceProfile;
    pub use crate::registry::DeviceRegistry;
    pub use crate::sdk::{SdkKind, SdkRepr};
    pub use crate::sim::SimDevice;
    pub use crate::transform::{TransformKind, TransformTable};
}
