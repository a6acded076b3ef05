//! Runtime-layer errors.

use adamant_device::device::DeviceId;
use adamant_device::error::DeviceError;
use adamant_storage::error::StorageError;
use std::fmt;

/// Errors produced while building or executing a primitive graph.
#[derive(Debug)]
pub enum ExecError {
    /// A device operation failed (including device out-of-memory).
    Device(DeviceError),
    /// A kernel execution failed on a specific device.
    ///
    /// Unlike [`ExecError::Device`], this carries *which* device failed and
    /// which kernel, for the error report.
    KernelFailed {
        /// The device the kernel ran on.
        device: DeviceId,
        /// The kernel name.
        kernel: String,
        /// The underlying driver error.
        source: DeviceError,
    },
    /// A storage operation failed while binding inputs.
    Storage(StorageError),
    /// The graph failed validation.
    InvalidGraph(String),
    /// No kernel implementation is registered for a primitive on the
    /// target device's SDK.
    NoImplementation {
        /// The primitive.
        primitive: String,
        /// The SDK.
        sdk: String,
        /// Requested variant.
        variant: String,
    },
    /// A named graph input was not bound.
    MissingInput(String),
    /// Input columns of one scan disagree in length.
    InputLengthMismatch {
        /// The scan group.
        scan: String,
        /// First length observed.
        expected: usize,
        /// Conflicting length.
        actual: usize,
    },
    /// The query's simulated-timeline budget was exhausted mid-run. The
    /// attempt was unwound like any failed attempt (buffers released, ids
    /// untracked) before this error surfaced.
    DeadlineExceeded {
        /// The configured budget in modeled nanoseconds.
        budget_ns: f64,
        /// Modeled nanoseconds actually spent when the deadline check fired.
        spent_ns: f64,
    },
    /// A host↔device transfer kept failing its end-to-end checksum after the
    /// full retransmit budget — the link to this device is lying. The
    /// recovery loop does not retry it: the run returns this error.
    TransferCorrupted {
        /// The device whose transfers cannot be trusted.
        device: DeviceId,
        /// The buffer whose verification failed.
        buffer: adamant_device::buffer::BufferId,
    },
    /// Internal invariant violation (a bug in an execution model).
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Device(e) => write!(f, "device error: {e}"),
            ExecError::KernelFailed {
                device,
                kernel,
                source,
            } => write!(f, "kernel `{kernel}` failed on {device}: {source}"),
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::InvalidGraph(msg) => write!(f, "invalid primitive graph: {msg}"),
            ExecError::NoImplementation {
                primitive,
                sdk,
                variant,
            } => write!(
                f,
                "no implementation of `{primitive}` (variant `{variant}`) for SDK `{sdk}`"
            ),
            ExecError::MissingInput(name) => write!(f, "graph input `{name}` not bound"),
            ExecError::InputLengthMismatch {
                scan,
                expected,
                actual,
            } => write!(
                f,
                "scan `{scan}` columns disagree in length: {expected} vs {actual}"
            ),
            ExecError::DeadlineExceeded {
                budget_ns,
                spent_ns,
            } => write!(
                f,
                "query deadline exceeded: spent {spent_ns:.0} ns of a {budget_ns:.0} ns budget"
            ),
            ExecError::TransferCorrupted { device, buffer } => write!(
                f,
                "transfer of {buffer} to/from {device} failed checksum verification \
                 after exhausting the retransmit budget"
            ),
            ExecError::Internal(msg) => write!(f, "internal executor error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Device(e) => Some(e),
            ExecError::KernelFailed { source, .. } => Some(source),
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for ExecError {
    fn from(e: DeviceError) -> Self {
        ExecError::Device(e)
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

/// Shorthand result alias for runtime operations.
pub type Result<T> = std::result::Result<T, ExecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: ExecError = DeviceError::NotInitialized.into();
        assert!(e.to_string().contains("device error"));
        let e: ExecError = StorageError::TableNotFound("t".into()).into();
        assert!(e.to_string().contains("storage error"));
        let e = ExecError::MissingInput("l_qty".into());
        assert!(e.to_string().contains("l_qty"));
        let e = ExecError::DeadlineExceeded {
            budget_ns: 1000.0,
            spent_ns: 1500.0,
        };
        assert!(e.to_string().contains("deadline exceeded"));
        let e = ExecError::TransferCorrupted {
            device: DeviceId(1),
            buffer: adamant_device::buffer::BufferId(7),
        };
        assert!(e.to_string().contains("checksum"));
    }

    #[test]
    fn oom_is_preserved() {
        let e: ExecError = DeviceError::OutOfMemory {
            requested: 10,
            available: 5,
            capacity: 100,
        }
        .into();
        assert!(matches!(
            e,
            ExecError::Device(DeviceError::OutOfMemory { .. })
        ));
    }
}
