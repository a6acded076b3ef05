//! Calibrated device/SDK profiles.
//!
//! The paper evaluates two environments (Table II):
//!
//! * **Setup 1** — Intel i7-8700 + GeForce RTX 2080 Ti (11 GiB), CUDA 11.
//! * **Setup 2** — Xeon Gold 5220R + NVIDIA A100 (40 GiB), CUDA 10.1.
//!
//! Each environment exposes four drivers — CUDA (GPU), OpenCL (GPU),
//! OpenCL (CPU), OpenMP (CPU) — whose parameters are calibrated to the
//! paper's relative observations:
//!
//! * CUDA transfer bandwidth above OpenCL's, pinned above pageable (Fig. 3);
//! * OpenCL per-argument launch overhead largest (Fig. 10);
//! * OpenCL hash aggregation degrading with group count, CUDA flat (Fig. 9c);
//! * GPU bitmap-materialization penalty ≈3x (Fig. 9b);
//! * OpenMP slightly below OpenCL on CPU filters (explicit thread
//!   scheduling, Fig. 9a);
//! * pinned allocation costly — more so under OpenCL — which drives the
//!   Q4/OpenCL 4-phase regression (Fig. 11).
//!
//! Experiments that need the *larger-than-memory* regime at laptop scale use
//! [`DeviceProfile::with_memory`] to shrink the device proportionally to the
//! scaled-down dataset (documented per experiment in EXPERIMENTS.md).

use crate::cost::CostModel;
use crate::device::{Device, DeviceId, DeviceInfo, DeviceKind};
use crate::sdk::SdkKind;
use crate::sim::SimDevice;
use crate::transform::TransformTable;

const GIB: u64 = 1024 * 1024 * 1024;

/// A buildable description of a driver+device pair.
#[derive(Clone, Debug)]
pub struct DeviceProfile {
    /// Profile name, e.g. `"cuda@rtx2080ti"`.
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// SDK the driver speaks.
    pub sdk: SdkKind,
    /// Device memory capacity in bytes.
    pub memory_capacity: u64,
    /// Pinned pool capacity in bytes.
    pub pinned_capacity: u64,
    /// Calibrated cost model.
    pub cost: CostModel,
    /// Whether `prepare_kernel` accepts source kernels.
    pub supports_compilation: bool,
}

impl DeviceProfile {
    /// Builds the simulated device under the given registry id.
    pub fn build(&self, id: DeviceId) -> SimDevice {
        let transforms = match self.kind {
            DeviceKind::Gpu => TransformTable::gpu_default(),
            _ => TransformTable::new(),
        };
        let info = DeviceInfo {
            id,
            name: self.name.clone(),
            kind: self.kind,
            sdk: self.sdk,
            memory_capacity: self.memory_capacity,
            pinned_capacity: self.pinned_capacity,
        };
        let mut dev = SimDevice::new(
            info,
            self.cost.clone(),
            transforms,
            self.supports_compilation,
        );
        dev.initialize().expect("sim device initialize cannot fail");
        dev
    }

    /// Returns the profile with device and pinned capacity overridden —
    /// used to scale the larger-than-memory experiments down with the data.
    pub fn with_memory(mut self, capacity: u64, pinned: u64) -> Self {
        self.memory_capacity = capacity;
        self.pinned_capacity = pinned;
        self
    }

    // ---- Setup 1 (i7-8700 + RTX 2080 Ti) -------------------------------

    /// CUDA driver on the RTX 2080 Ti-class GPU.
    pub fn cuda_rtx2080ti() -> Self {
        DeviceProfile {
            name: "cuda@rtx2080ti".into(),
            kind: DeviceKind::Gpu,
            sdk: SdkKind::Cuda,
            memory_capacity: 11 * GIB,
            pinned_capacity: 4 * GIB,
            supports_compilation: true,
            cost: CostModel {
                h2d_pageable_gibs: 6.2,
                h2d_pinned_gibs: 12.1,
                d2h_pageable_gibs: 6.6,
                d2h_pinned_gibs: 12.8,
                transfer_latency_ns: 9_000.0,
                launch_overhead_ns: 7_500.0,
                per_arg_overhead_ns: 200.0,
                alloc_overhead_ns: 6_000.0,
                pinned_alloc_per_mib_ns: 45_000.0,
                free_overhead_ns: 2_000.0,
                compile_ns: 60e6,
                mem_bandwidth_gibs: 550.0,
                random_access_ns: 1.9,
                atomic_ns: 1.4,
                group_penalty: 0.04,
                build_size_penalty: 0.16,
                probe_penalty: 1.35,
                bitmap_extract_penalty: 3.1,
                transform_zero_copy_ns: 500.0,
                fused_discount: 0.75,
                discrete: true,
            },
        }
    }

    /// OpenCL driver on the RTX 2080 Ti-class GPU.
    pub fn opencl_rtx2080ti() -> Self {
        DeviceProfile {
            name: "opencl@rtx2080ti".into(),
            kind: DeviceKind::Gpu,
            sdk: SdkKind::OpenCl,
            memory_capacity: 11 * GIB,
            pinned_capacity: 4 * GIB,
            supports_compilation: true,
            cost: CostModel {
                h2d_pageable_gibs: 4.6,
                h2d_pinned_gibs: 9.8,
                d2h_pageable_gibs: 5.0,
                d2h_pinned_gibs: 10.4,
                transfer_latency_ns: 16_000.0,
                launch_overhead_ns: 21_000.0,
                per_arg_overhead_ns: 2_600.0,
                alloc_overhead_ns: 9_000.0,
                pinned_alloc_per_mib_ns: 95_000.0,
                free_overhead_ns: 3_000.0,
                compile_ns: 120e6,
                mem_bandwidth_gibs: 510.0,
                random_access_ns: 2.1,
                atomic_ns: 2.3,
                group_penalty: 0.36,
                build_size_penalty: 0.17,
                probe_penalty: 1.0,
                bitmap_extract_penalty: 3.0,
                transform_zero_copy_ns: 800.0,
                fused_discount: 0.75,
                discrete: true,
            },
        }
    }

    /// OpenCL driver on the i7-8700-class CPU.
    pub fn opencl_cpu_i7() -> Self {
        DeviceProfile {
            name: "opencl@i7-8700".into(),
            kind: DeviceKind::Cpu,
            sdk: SdkKind::OpenCl,
            memory_capacity: 32 * GIB,
            pinned_capacity: 8 * GIB,
            supports_compilation: true,
            cost: CostModel {
                h2d_pageable_gibs: 35.0,
                h2d_pinned_gibs: 35.0,
                d2h_pageable_gibs: 35.0,
                d2h_pinned_gibs: 35.0,
                transfer_latency_ns: 2_000.0,
                launch_overhead_ns: 14_000.0,
                per_arg_overhead_ns: 2_200.0,
                alloc_overhead_ns: 3_000.0,
                pinned_alloc_per_mib_ns: 0.0,
                free_overhead_ns: 1_000.0,
                compile_ns: 90e6,
                mem_bandwidth_gibs: 34.0,
                random_access_ns: 7.5,
                atomic_ns: 5.5,
                group_penalty: 0.12,
                build_size_penalty: 0.015,
                probe_penalty: 1.0,
                bitmap_extract_penalty: 1.12,
                transform_zero_copy_ns: 300.0,
                fused_discount: 0.85,
                discrete: false,
            },
        }
    }

    /// OpenMP driver on the i7-8700-class CPU.
    ///
    /// Explicit thread scheduling costs show up as a slightly lower
    /// effective bandwidth and higher launch overhead than the OpenCL CPU
    /// driver (paper Fig. 9a discussion).
    pub fn openmp_cpu_i7() -> Self {
        DeviceProfile {
            name: "openmp@i7-8700".into(),
            kind: DeviceKind::Cpu,
            sdk: SdkKind::OpenMp,
            memory_capacity: 32 * GIB,
            pinned_capacity: 8 * GIB,
            supports_compilation: false,
            cost: CostModel {
                h2d_pageable_gibs: 35.0,
                h2d_pinned_gibs: 35.0,
                d2h_pageable_gibs: 35.0,
                d2h_pinned_gibs: 35.0,
                transfer_latency_ns: 1_500.0,
                launch_overhead_ns: 26_000.0,
                per_arg_overhead_ns: 120.0,
                alloc_overhead_ns: 2_500.0,
                pinned_alloc_per_mib_ns: 0.0,
                free_overhead_ns: 800.0,
                compile_ns: 0.0,
                mem_bandwidth_gibs: 29.5,
                random_access_ns: 7.8,
                atomic_ns: 5.8,
                group_penalty: 0.10,
                build_size_penalty: 0.015,
                probe_penalty: 1.05,
                bitmap_extract_penalty: 1.15,
                transform_zero_copy_ns: 200.0,
                fused_discount: 0.85,
                discrete: false,
            },
        }
    }

    // ---- Setup 2 (Xeon Gold 5220R + A100) ------------------------------

    /// CUDA driver on the A100-class GPU.
    pub fn cuda_a100() -> Self {
        let mut p = Self::cuda_rtx2080ti();
        p.name = "cuda@a100".into();
        p.memory_capacity = 40 * GIB;
        p.pinned_capacity = 8 * GIB;
        p.cost.h2d_pageable_gibs = 9.4;
        p.cost.h2d_pinned_gibs = 23.8;
        p.cost.d2h_pageable_gibs = 10.1;
        p.cost.d2h_pinned_gibs = 24.6;
        p.cost.mem_bandwidth_gibs = 1400.0;
        p.cost.random_access_ns = 1.2;
        p.cost.atomic_ns = 0.9;
        p
    }

    /// OpenCL driver on the A100-class GPU.
    pub fn opencl_a100() -> Self {
        let mut p = Self::opencl_rtx2080ti();
        p.name = "opencl@a100".into();
        p.memory_capacity = 40 * GIB;
        p.pinned_capacity = 8 * GIB;
        p.cost.h2d_pageable_gibs = 6.9;
        p.cost.h2d_pinned_gibs = 19.2;
        p.cost.d2h_pageable_gibs = 7.4;
        p.cost.d2h_pinned_gibs = 20.0;
        p.cost.mem_bandwidth_gibs = 1280.0;
        p.cost.random_access_ns = 1.35;
        p.cost.atomic_ns = 1.4;
        p
    }

    /// OpenCL driver on the Xeon Gold 5220R-class CPU.
    pub fn opencl_cpu_xeon() -> Self {
        let mut p = Self::opencl_cpu_i7();
        p.name = "opencl@xeon5220r".into();
        p.memory_capacity = 96 * GIB;
        p.pinned_capacity = 16 * GIB;
        p.cost.mem_bandwidth_gibs = 105.0;
        p.cost.h2d_pageable_gibs = 105.0;
        p.cost.h2d_pinned_gibs = 105.0;
        p.cost.d2h_pageable_gibs = 105.0;
        p.cost.d2h_pinned_gibs = 105.0;
        p.cost.random_access_ns = 6.8;
        p
    }

    /// OpenMP driver on the Xeon Gold 5220R-class CPU.
    pub fn openmp_cpu_xeon() -> Self {
        let mut p = Self::openmp_cpu_i7();
        p.name = "openmp@xeon5220r".into();
        p.memory_capacity = 96 * GIB;
        p.pinned_capacity = 16 * GIB;
        p.cost.mem_bandwidth_gibs = 92.0;
        p.cost.h2d_pageable_gibs = 92.0;
        p.cost.h2d_pinned_gibs = 92.0;
        p.cost.d2h_pageable_gibs = 92.0;
        p.cost.d2h_pinned_gibs = 92.0;
        p.cost.random_access_ns = 7.0;
        p
    }

    /// A plain host device with negligible modeled costs; useful in tests
    /// and as a fallback target.
    pub fn host() -> Self {
        DeviceProfile {
            name: "host".into(),
            kind: DeviceKind::Cpu,
            sdk: SdkKind::Host,
            memory_capacity: 64 * GIB,
            pinned_capacity: 16 * GIB,
            supports_compilation: false,
            cost: CostModel::default(),
        }
    }

    /// The four drivers of Setup 1, in the paper's presentation order:
    /// OpenCL (CPU), OpenMP, OpenCL (GPU), CUDA.
    pub fn setup1() -> Vec<DeviceProfile> {
        vec![
            Self::opencl_cpu_i7(),
            Self::openmp_cpu_i7(),
            Self::opencl_rtx2080ti(),
            Self::cuda_rtx2080ti(),
        ]
    }

    /// The four drivers of Setup 2.
    pub fn setup2() -> Vec<DeviceProfile> {
        vec![
            Self::opencl_cpu_xeon(),
            Self::openmp_cpu_xeon(),
            Self::opencl_a100(),
            Self::cuda_a100(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostClass;

    #[test]
    fn cuda_faster_than_opencl_transfers() {
        // Fig. 3 shape: CUDA above OpenCL, pinned above pageable, both GPUs.
        for (cuda, opencl) in [
            (
                DeviceProfile::cuda_rtx2080ti(),
                DeviceProfile::opencl_rtx2080ti(),
            ),
            (DeviceProfile::cuda_a100(), DeviceProfile::opencl_a100()),
        ] {
            // Same bytes, so higher bandwidth is less time.
            let size = 256u64 << 20;
            assert!(cuda.cost.h2d_ns(size, false) < opencl.cost.h2d_ns(size, false));
            assert!(cuda.cost.h2d_ns(size, true) < opencl.cost.h2d_ns(size, true));
            assert!(cuda.cost.h2d_ns(size, true) < cuda.cost.h2d_ns(size, false));
        }
    }

    #[test]
    fn opencl_has_largest_arg_overhead() {
        // Fig. 10 shape.
        let ocl = DeviceProfile::opencl_rtx2080ti();
        let cuda = DeviceProfile::cuda_rtx2080ti();
        let omp = DeviceProfile::openmp_cpu_i7();
        assert!(ocl.cost.per_arg_overhead_ns > 10.0 * cuda.cost.per_arg_overhead_ns);
        assert!(ocl.cost.per_arg_overhead_ns > 10.0 * omp.cost.per_arg_overhead_ns);
    }

    #[test]
    fn hash_agg_shapes() {
        // Fig. 9c: OpenCL GPU degrades with group count much more than CUDA.
        let ocl = DeviceProfile::opencl_rtx2080ti().cost;
        let cuda = DeviceProfile::cuda_rtx2080ti().cost;
        let n = 1u64 << 26;
        let ratio = |m: &CostModel| {
            m.kernel_ns(CostClass::HashAgg { groups: 1 << 22 }, n, 3)
                / m.kernel_ns(CostClass::HashAgg { groups: 16 }, n, 3)
        };
        assert!(
            ratio(&ocl) > 1.5 * ratio(&cuda),
            "ocl {} cuda {}",
            ratio(&ocl),
            ratio(&cuda)
        );
    }

    #[test]
    fn cpu_openmp_filter_below_opencl() {
        // Fig. 9a: OpenCL CPU above OpenMP on filters.
        let ocl = DeviceProfile::opencl_cpu_i7().cost;
        let omp = DeviceProfile::openmp_cpu_i7().cost;
        let n = 1u64 << 28;
        assert!(
            ocl.kernel_ns(CostClass::FilterBitmap, n, 3)
                < omp.kernel_ns(CostClass::FilterBitmap, n, 3)
        );
    }

    #[test]
    fn gpu_materialize_penalty() {
        // Fig. 9b: bitmap materialization ~3x slower than the bitmap-only
        // filter on SIMT devices, mild on CPUs.
        let gpu = DeviceProfile::cuda_rtx2080ti().cost;
        let cpu = DeviceProfile::opencl_cpu_i7().cost;
        assert!(gpu.bitmap_extract_penalty > 2.5);
        assert!(cpu.bitmap_extract_penalty < 1.5);
    }

    #[test]
    fn builds_and_initializes() {
        for p in DeviceProfile::setup1()
            .into_iter()
            .chain(DeviceProfile::setup2())
        {
            let dev = p.build(DeviceId(0));
            assert_eq!(dev.info().memory_capacity, dev.pool().capacity());
        }
    }

    #[test]
    fn with_memory_overrides() {
        let p = DeviceProfile::cuda_rtx2080ti().with_memory(1 << 28, 1 << 26);
        assert_eq!(p.memory_capacity, 1 << 28);
        assert_eq!(p.pinned_capacity, 1 << 26);
    }

    #[test]
    fn openmp_has_no_jit() {
        assert!(!DeviceProfile::openmp_cpu_i7().supports_compilation);
        assert!(DeviceProfile::opencl_cpu_i7().supports_compilation);
        assert!(DeviceProfile::cuda_rtx2080ti().supports_compilation);
    }
}
