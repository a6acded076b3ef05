//! The simulated device driver.
//!
//! [`SimDevice`] implements [`Device`] exactly as a real driver would wrap
//! CUDA or OpenCL — every operation goes through [`DeviceState`]'s charging
//! methods, which gate the call, consult the fault plan, use the bounded
//! buffer pool and charge the profile's cost model on the clock. Nine calls
//! are the trait's default bodies; what the simulator writes is what its
//! SDK has: a transform table, optional runtime compilation and the compile
//! charge. Because the pool is real
//! (allocations fail when full) and kernels really run, the executor above
//! cannot tell it apart from hardware except by wall-clock speed.

use crate::buffer::BufferId;
use crate::clock::Lane;
use crate::cost::CostModel;
use crate::device::{Device, DeviceInfo, DeviceState};
use crate::error::{DeviceError, Result};
use crate::kernel::KernelSource;
use crate::sdk::SdkRepr;
use crate::transform::{TransformKind, TransformTable};

/// A simulated co-processor driver.
pub struct SimDevice {
    state: DeviceState,
    transforms: TransformTable,
    supports_compilation: bool,
}

impl SimDevice {
    /// Creates a device from its description, cost model and transform table.
    pub fn new(
        info: DeviceInfo,
        cost: CostModel,
        transforms: TransformTable,
        supports_compilation: bool,
    ) -> Self {
        SimDevice {
            state: DeviceState::new(info, cost),
            transforms,
            supports_compilation,
        }
    }
}

impl Device for SimDevice {
    fn transform_memory(&mut self, id: BufferId, target: SdkRepr) -> Result<TransformKind> {
        let transforms = &self.transforms;
        self.state
            .transform_memory(id, target, |from| Ok(transforms.resolve(from, target)))
    }

    fn prepare_kernel(&mut self, name: &str, source: KernelSource) -> Result<()> {
        let (entry, compiled) = match source {
            KernelSource::Builtin(f) => (f, false),
            KernelSource::Source { entry, .. } if self.supports_compilation => (entry, true),
            KernelSource::Source { .. } => {
                return Err(DeviceError::CompilationUnsupported {
                    device: self.info().name.clone(),
                })
            }
        };
        self.state.prepare_kernel(name, entry)?;
        if compiled {
            // Binding kernels before initialize() is allowed (paper compiles
            // at initialization); compilation cost is charged when it happens.
            self.state
                .clock
                .record(Lane::Compile, self.state.cost.compile_ns, 0);
        }
        Ok(())
    }

    fn state(&self) -> &DeviceState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut DeviceState {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferData;
    use crate::cost::CostClass;
    use crate::device::{DeviceId, DeviceKind};
    use crate::fault::{FaultCounters, FaultPlan};
    use crate::kernel::{ExecuteSpec, KernelFn, KernelStats};
    use crate::sdk::SdkKind;
    use std::sync::Arc;

    fn gpu() -> SimDevice {
        let info = DeviceInfo {
            id: DeviceId(0),
            name: "test-gpu".into(),
            kind: DeviceKind::Gpu,
            sdk: SdkKind::Cuda,
            memory_capacity: 1 << 20,
            pinned_capacity: 1 << 18,
        };
        let cost = CostModel {
            discrete: true,
            ..CostModel::default()
        };
        let mut d = SimDevice::new(info, cost, TransformTable::gpu_default(), true);
        d.initialize().unwrap();
        d
    }

    #[test]
    fn requires_initialize() {
        let info = DeviceInfo {
            id: DeviceId(0),
            name: "g".into(),
            kind: DeviceKind::Gpu,
            sdk: SdkKind::Cuda,
            memory_capacity: 1024,
            pinned_capacity: 0,
        };
        let mut d = SimDevice::new(info, CostModel::default(), TransformTable::new(), false);
        assert!(matches!(
            d.place_data(BufferId(1), BufferData::I64(vec![1]), 0),
            Err(DeviceError::NotInitialized)
        ));
        d.initialize().unwrap();
        d.place_data(BufferId(1), BufferData::I64(vec![1]), 0)
            .unwrap();
    }

    #[test]
    fn place_retrieve_roundtrip() {
        let mut d = gpu();
        d.place_data(BufferId(1), BufferData::I64(vec![1, 2, 3, 4]), 0)
            .unwrap();
        let out = d.retrieve_data(BufferId(1), None, 0).unwrap();
        assert_eq!(out, BufferData::I64(vec![1, 2, 3, 4]));
        let part = d.retrieve_data(BufferId(1), Some(2), 1).unwrap();
        assert_eq!(part, BufferData::I64(vec![2, 3]));
        assert!(d.retrieve_data(BufferId(1), Some(9), 0).is_err());
        // A range whose end overflows is a typed error, not a panic or a
        // silently short payload.
        assert!(matches!(
            d.retrieve_data(BufferId(1), Some(usize::MAX), 1),
            Err(DeviceError::RangeOutOfBounds { .. })
        ));
        assert!(d.clock().bytes_h2d() > 0);
        assert!(d.clock().bytes_d2h() > 0);
    }

    #[test]
    fn place_at_offset_overwrites() {
        let mut d = gpu();
        d.place_data(BufferId(1), BufferData::I64(vec![0; 6]), 0)
            .unwrap();
        d.place_data(BufferId(1), BufferData::I64(vec![7, 8]), 2)
            .unwrap();
        let out = d.retrieve_data(BufferId(1), None, 0).unwrap();
        assert_eq!(out, BufferData::I64(vec![0, 0, 7, 8, 0, 0]));
        // Offset into a nonexistent buffer is an error.
        assert!(d
            .place_data(BufferId(9), BufferData::I64(vec![1]), 3)
            .is_err());
        // Kind mismatch is an error.
        assert!(d
            .place_data(BufferId(1), BufferData::U32(vec![1]), 0)
            .is_err());
    }

    #[test]
    fn oom_on_capacity() {
        let mut d = gpu(); // 1 MiB
        let big = vec![0i64; 200_000]; // 1.6 MB
        assert!(matches!(
            d.place_data(BufferId(1), BufferData::I64(big), 0),
            Err(DeviceError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn prepare_then_fill_reserved() {
        let mut d = gpu();
        d.prepare_memory(BufferId(1), 1024).unwrap();
        assert_eq!(d.pool().used(), 1024);
        d.place_data(BufferId(1), BufferData::I64(vec![5; 10]), 0)
            .unwrap();
        assert_eq!(
            d.retrieve_data(BufferId(1), None, 0).unwrap(),
            BufferData::I64(vec![5; 10])
        );
        // Still accounted at the reservation (80 < 1024).
        assert_eq!(d.pool().used(), 1024);
    }

    #[test]
    fn transform_zero_copy_vs_roundtrip() {
        let mut d = gpu();
        d.place_data(BufferId(1), BufferData::I64(vec![1; 1000]), 0)
            .unwrap();
        let before = d.clock().bytes_d2h();
        let k = d.transform_memory(BufferId(1), SdkRepr::ClBuffer).unwrap();
        assert_eq!(k, TransformKind::ZeroCopy);
        assert_eq!(d.clock().bytes_d2h(), before, "zero-copy moved no data");

        // HostVec is not in the GPU family -> round-trip.
        let k = d.transform_memory(BufferId(1), SdkRepr::HostVec).unwrap();
        assert_eq!(k, TransformKind::HostRoundTrip);
        assert!(d.clock().bytes_d2h() > before);
    }

    #[test]
    fn chunk_creation() {
        let mut d = gpu();
        d.place_data(BufferId(1), BufferData::I64((0..100).collect()), 0)
            .unwrap();
        d.create_chunk(BufferId(1), BufferId(2), 10, 5).unwrap();
        assert_eq!(
            d.retrieve_data(BufferId(2), None, 0).unwrap(),
            BufferData::I64(vec![10, 11, 12, 13, 14])
        );
        assert!(d.create_chunk(BufferId(1), BufferId(3), 99, 5).is_err());
        assert!(matches!(
            d.create_chunk(BufferId(1), BufferId(3), 1, usize::MAX),
            Err(DeviceError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn kernel_dispatch() {
        let mut d = gpu();
        d.place_data(BufferId(1), BufferData::I64(vec![1, 2, 3]), 0)
            .unwrap();
        d.prepare_memory(BufferId(2), 24).unwrap();
        let add_const: KernelFn = Arc::new(|pool, bufs, params| {
            let c = params[0];
            let input = pool.get(bufs[0])?.data.as_i64().unwrap().to_vec();
            let mut out = pool.take(bufs[1])?;
            out.data = BufferData::I64(input.iter().map(|x| x + c).collect());
            let n = input.len() as u64;
            pool.restore(bufs[1], out)?;
            Ok(KernelStats::new(n, CostClass::MapLike))
        });
        d.prepare_kernel("add_const", KernelSource::Builtin(add_const))
            .unwrap();
        let stats = d
            .execute(&ExecuteSpec::new(
                "add_const",
                vec![BufferId(1), BufferId(2)],
                vec![10],
            ))
            .unwrap();
        assert_eq!(stats.elements, 3);
        assert_eq!(
            d.retrieve_data(BufferId(2), None, 0).unwrap(),
            BufferData::I64(vec![11, 12, 13])
        );
        assert!(d.clock().compute_ns() > 0.0);
        assert!(d
            .execute(&ExecuteSpec::new("nope", vec![], vec![]))
            .is_err());
    }

    #[test]
    fn compilation_support_flag() {
        let mut d = gpu();
        let f: KernelFn = Arc::new(|_, _, _| Ok(KernelStats::new(0, CostClass::MapLike)));
        d.prepare_kernel(
            "jit",
            KernelSource::Source {
                source: "__kernel void jit() {}".into(),
                entry: f.clone(),
            },
        )
        .unwrap();
        assert_eq!(d.state().kernel_names(), vec!["jit"]);

        let info = DeviceInfo {
            id: DeviceId(1),
            name: "no-jit".into(),
            kind: DeviceKind::Cpu,
            sdk: SdkKind::OpenMp,
            memory_capacity: 1024,
            pinned_capacity: 0,
        };
        let mut nc = SimDevice::new(info, CostModel::default(), TransformTable::new(), false);
        assert!(matches!(
            nc.prepare_kernel(
                "jit",
                KernelSource::Source {
                    source: "x".into(),
                    entry: f
                }
            ),
            Err(DeviceError::CompilationUnsupported { .. })
        ));
    }

    #[test]
    fn fault_plan_oom_on_nth_allocation() {
        let mut d = gpu();
        d.state_mut()
            .faults
            .install(FaultPlan::none().oom_on_allocation(2));
        d.prepare_memory(BufferId(1), 64).unwrap();
        assert!(matches!(
            d.prepare_memory(BufferId(2), 64),
            Err(DeviceError::OutOfMemory { .. })
        ));
        // The ordinal fired once; later allocations succeed again.
        d.prepare_memory(BufferId(3), 64).unwrap();
        assert_eq!(d.state().faults.counters().oom_injected, 1);
    }

    #[test]
    fn fault_plan_transient_execute_errors() {
        let mut d = gpu();
        let f: KernelFn = Arc::new(|_, _, _| Ok(KernelStats::new(0, CostClass::MapLike)));
        d.prepare_kernel("noop", KernelSource::Builtin(f)).unwrap();
        d.state_mut()
            .faults
            .install(FaultPlan::none().transient_exec_errors(1));
        let spec = ExecuteSpec::new("noop", vec![], vec![]);
        assert!(matches!(d.execute(&spec), Err(DeviceError::Driver(_))));
        d.execute(&spec).unwrap();
        assert_eq!(d.state().faults.counters().transient_exec_injected, 1);
    }

    #[test]
    fn fault_plan_broken_kernel_is_persistent() {
        let mut d = gpu();
        let f: KernelFn = Arc::new(|_, _, _| Ok(KernelStats::new(0, CostClass::MapLike)));
        d.prepare_kernel("bad", KernelSource::Builtin(f.clone()))
            .unwrap();
        d.prepare_kernel("good", KernelSource::Builtin(f)).unwrap();
        d.state_mut()
            .faults
            .install(FaultPlan::none().broken_kernel("bad"));
        for _ in 0..3 {
            assert!(d.execute(&ExecuteSpec::new("bad", vec![], vec![])).is_err());
        }
        d.execute(&ExecuteSpec::new("good", vec![], vec![]))
            .unwrap();
        assert_eq!(d.state().faults.counters().broken_kernel_hits, 3);
    }

    #[test]
    fn fault_plan_capacity_cap() {
        let mut d = gpu(); // real capacity 1 MiB
        d.state_mut()
            .faults
            .install(FaultPlan::none().capacity_cap(128));
        d.prepare_memory(BufferId(1), 100).unwrap();
        assert!(matches!(
            d.prepare_memory(BufferId(2), 100),
            Err(DeviceError::OutOfMemory { capacity: 128, .. })
        ));
        // Freeing makes room under the cap again.
        d.delete_memory(BufferId(1)).unwrap();
        d.prepare_memory(BufferId(2), 100).unwrap();
    }

    #[test]
    fn slowdown_dilates_transfers_and_kernels_but_not_clean_ns() {
        let mut fast = gpu();
        let mut slow = gpu();
        slow.state_mut()
            .faults
            .install(FaultPlan::none().slowdown(8.0));
        let payload = BufferData::I64((0..1000).collect());
        fast.place_data(BufferId(1), payload.clone(), 0).unwrap();
        slow.place_data(BufferId(1), payload, 0).unwrap();
        let clean_t: f64 = fast
            .clock()
            .events()
            .iter()
            .filter(|e| e.lane.is_transfer())
            .map(|e| e.duration_ns)
            .sum();
        let slow_events: Vec<_> = slow
            .clock()
            .events()
            .iter()
            .filter(|e| e.lane.is_transfer())
            .copied()
            .collect();
        let slow_t: f64 = slow_events.iter().map(|e| e.duration_ns).sum();
        let slow_clean: f64 = slow_events.iter().map(|e| e.clean_ns).sum();
        assert!((slow_t - 8.0 * clean_t).abs() < 1e-6, "8x dilation");
        assert!(
            (slow_clean - clean_t).abs() < 1e-6,
            "clean_ns reports the undilated model"
        );
        // Data itself is unharmed by a pure straggler.
        assert_eq!(
            slow.retrieve_data(BufferId(1), None, 0).unwrap(),
            fast.retrieve_data(BufferId(1), None, 0).unwrap()
        );
    }

    #[test]
    fn transfer_stall_injects_unbounded_duration() {
        use crate::fault::STALL_NS;
        let mut d = gpu();
        d.state_mut()
            .faults
            .install(FaultPlan::none().stall_on_transfer(2));
        d.place_data(BufferId(1), BufferData::I64(vec![1, 2, 3]), 0)
            .unwrap();
        let before = d.clock().transfer_ns();
        assert!(before < STALL_NS);
        let _ = d.retrieve_data(BufferId(1), None, 0).unwrap();
        assert!(d.clock().transfer_ns() >= STALL_NS, "retrieve #2 stalled");
        assert_eq!(d.state().faults.counters().stalls_injected, 1);
    }

    #[test]
    fn place_corruption_is_visible_in_checksum_echo() {
        let mut d = gpu();
        let payload = BufferData::I64((0..100).collect());
        let sent = payload.checksum();
        d.state_mut()
            .faults
            .install(FaultPlan::none().corrupt_on_place(1));
        d.place_data(BufferId(1), payload.clone(), 0).unwrap();
        let echo = d.pool().checksum(BufferId(1), None, 0).unwrap();
        assert_ne!(echo, sent, "stored payload must differ from what we sent");
        // Retransmit (transfer #2, not scripted) heals the buffer.
        d.place_data(BufferId(1), payload, 0).unwrap();
        assert_eq!(d.pool().checksum(BufferId(1), None, 0).unwrap(), sent);
        assert_eq!(d.state().faults.counters().corruptions_injected, 1);
    }

    #[test]
    fn retrieve_corruption_leaves_device_copy_intact() {
        let mut d = gpu();
        let payload = BufferData::I64((0..100).collect());
        d.place_data(BufferId(1), payload.clone(), 0).unwrap();
        d.state_mut()
            .faults
            .install(FaultPlan::none().corrupt_on_retrieve(1));
        let dirty = d.retrieve_data(BufferId(1), None, 0).unwrap();
        assert_ne!(dirty, payload, "first retrieve was corrupted in flight");
        assert_ne!(
            dirty.checksum(),
            d.pool().checksum(BufferId(1), None, 0).unwrap()
        );
        let clean = d.retrieve_data(BufferId(1), None, 0).unwrap();
        assert_eq!(clean, payload, "device copy was never damaged");
    }

    #[test]
    fn checksum_echo_respects_range() {
        let mut d = gpu();
        d.place_data(BufferId(1), BufferData::I64((0..10).collect()), 0)
            .unwrap();
        let whole = d.pool().checksum(BufferId(1), None, 0).unwrap();
        let prefix = d.pool().checksum(BufferId(1), Some(4), 0).unwrap();
        assert_ne!(whole, prefix);
        assert_eq!(prefix, BufferData::I64((0..4).collect()).checksum());
        assert_eq!(
            d.pool().checksum(BufferId(1), Some(3), 4).unwrap(),
            BufferData::I64((4..7).collect()).checksum()
        );
        assert!(d.pool().checksum(BufferId(9), None, 0).is_err());
        assert!(matches!(
            d.pool().checksum(BufferId(1), Some(usize::MAX), 1),
            Err(DeviceError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn exec_death_is_permanent_and_survives_reset() {
        let mut d = gpu();
        let f: KernelFn = Arc::new(|_, _, _| Ok(KernelStats::new(0, CostClass::MapLike)));
        d.prepare_kernel("noop", KernelSource::Builtin(f)).unwrap();
        d.state_mut()
            .faults
            .install(FaultPlan::none().die_on_exec(2));
        let spec = ExecuteSpec::new("noop", vec![], vec![]);
        d.execute(&spec).unwrap();
        assert_eq!(d.state().faults.counters().deaths_injected, 0);
        assert!(matches!(d.execute(&spec), Err(DeviceError::Gone { .. })));
        // Every data-plane operation is now Gone — including re-initialize.
        assert!(matches!(
            d.place_data(BufferId(1), BufferData::I64(vec![1]), 0),
            Err(DeviceError::Gone { .. })
        ));
        assert!(matches!(
            d.delete_memory(BufferId(1)),
            Err(DeviceError::Gone { .. })
        ));
        // A reset must not revive a dead device.
        d.state_mut().reset();
        assert!(matches!(d.initialize(), Err(DeviceError::Gone { .. })));
        // The death was counted exactly once, even after more attempts.
        assert_eq!(d.state().faults.counters().deaths_injected, 1);
        // Host-side accessors still work on the corpse.
        assert_eq!(d.pool().used(), 0);
        assert_eq!(d.info().name, "test-gpu");
    }

    #[test]
    fn clock_death_fires_once_simulated_time_passes() {
        let mut d = gpu();
        d.place_data(BufferId(1), BufferData::I64(vec![1, 2, 3]), 0)
            .unwrap();
        let now = d.clock().total_ns();
        assert!(now > 0.0);
        d.state_mut()
            .faults
            .install(FaultPlan::none().die_at_ns(now / 2.0));
        // The very next operation observes the clock past the instant.
        assert!(matches!(
            d.retrieve_data(BufferId(1), None, 0),
            Err(DeviceError::Gone { .. })
        ));
        assert!(matches!(
            d.retrieve_data(BufferId(1), None, 0),
            Err(DeviceError::Gone { .. })
        ));
        assert_eq!(d.state().faults.counters().deaths_injected, 1);
    }

    #[test]
    fn future_clock_death_does_not_fire_early() {
        let mut d = gpu();
        d.state_mut()
            .faults
            .install(FaultPlan::none().die_at_ns(1.0e18));
        d.place_data(BufferId(1), BufferData::I64(vec![1]), 0)
            .unwrap();
        assert_eq!(d.state().faults.counters().deaths_injected, 0);
    }

    #[test]
    fn reset_fault_counters_clears_accumulated_counts() {
        let mut d = gpu();
        d.state_mut()
            .faults
            .install(FaultPlan::none().oom_on_allocation(1));
        assert!(d.prepare_memory(BufferId(1), 64).is_err());
        assert_eq!(d.state().faults.counters().oom_injected, 1);
        d.state_mut().faults.reset_counters();
        assert_eq!(d.state().faults.counters(), FaultCounters::default());
    }

    #[test]
    fn pinned_memory_and_reset() {
        let mut d = gpu();
        d.add_pinned_memory(BufferId(1), 4096).unwrap();
        assert_eq!(d.pool().pinned_used(), 4096);
        d.delete_memory(BufferId(1)).unwrap();
        assert_eq!(d.pool().pinned_used(), 0);
        d.place_data(BufferId(2), BufferData::I64(vec![1]), 0)
            .unwrap();
        d.state_mut().reset();
        assert_eq!(d.pool().used(), 0);
        assert_eq!(d.clock().total_ns(), 0.0);
    }
}
