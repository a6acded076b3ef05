//! Analytic cost model for simulated devices.
//!
//! The model's purpose is to reproduce the *relative* performance effects the
//! paper measures without the physical hardware:
//!
//! * Fig. 3 — CUDA transfers faster than OpenCL; pinned faster than pageable.
//! * Fig. 5 — map/reduce roughly bandwidth-bound and similar across SDKs.
//! * Fig. 9 — filter ≈ map; materialization penalty on SIMT devices;
//!   OpenCL hash-aggregation degrading with group count while CUDA stays
//!   flat; hash build degrading with input size; CUDA probe slightly worse
//!   than OpenCL.
//! * Fig. 10 — per-launch argument-mapping overhead makes OpenCL's
//!   abstraction cost the largest.
//! * Fig. 11 — pinned-memory allocation is expensive (especially under
//!   OpenCL), which is what makes 4-phase execution *lose* on shallow
//!   pipelines (Q4/OpenCL) while winning elsewhere.
//!
//! All parameters are plain struct fields so ablation benches can sweep them.

/// Classifies a kernel for costing. Produced by kernels in their
/// [`crate::kernel::KernelStats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CostClass {
    /// One-to-one mapping (arithmetic `MAP`, bitmap logic).
    MapLike,
    /// Block-wise reduction (`AGG_BLOCK`).
    ReduceLike,
    /// Predicate evaluation producing a bitmap (`FILTER_BITMAP`).
    FilterBitmap,
    /// Predicate evaluation producing positions (`FILTER_POSITION`).
    FilterPosition,
    /// Value extraction via bitmap (`MATERIALIZE`); pays the SIMT
    /// bit-extraction penalty on GPUs.
    MaterializeBitmap,
    /// Value extraction via position list (`MATERIALIZE_POSITION`).
    MaterializePosition,
    /// Prefix sum (`PREFIX_SUM`), two bandwidth-bound passes.
    PrefixSum,
    /// Hash-table insertion (`HASH_BUILD`); atomic contention on one shared
    /// table.
    HashBuild,
    /// Hash-table probing (`HASH_PROBE`).
    HashProbe,
    /// Group-by aggregation on a shared table (`HASH_AGG`); `groups` drives
    /// the contention/locality penalty.
    HashAgg {
        /// Number of distinct groups observed.
        groups: u64,
    },
    /// Aggregation over sorted runs (`SORT_AGG`).
    SortAgg,
    /// Sorting (used by top-N / ORDER BY breakers).
    Sort,
    /// Caller-provided nanoseconds per element (custom plugged kernels).
    Custom(f64),
}

impl CostClass {
    /// Whether the body streams through device memory, so that keeping its
    /// values in registers makes it cheaper. Random-access and atomic
    /// bodies — hash builds, probes and aggregation, position gathers —
    /// cost what they cost fused or not.
    fn is_bandwidth_bound(self) -> bool {
        !matches!(
            self,
            CostClass::HashBuild
                | CostClass::HashProbe
                | CostClass::HashAgg { .. }
                | CostClass::MaterializePosition
        )
    }
}

/// Per-driver cost parameters. All bandwidths in GiB/s, times in ns.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Host-to-device bandwidth, pageable memory.
    pub h2d_pageable_gibs: f64,
    /// Host-to-device bandwidth, pinned memory.
    pub h2d_pinned_gibs: f64,
    /// Device-to-host bandwidth, pageable memory.
    pub d2h_pageable_gibs: f64,
    /// Device-to-host bandwidth, pinned memory.
    pub d2h_pinned_gibs: f64,
    /// Fixed per-transfer latency (driver call + DMA setup).
    pub transfer_latency_ns: f64,
    /// Fixed kernel-launch overhead.
    pub launch_overhead_ns: f64,
    /// Per-argument overhead at launch (OpenCL's explicit `clSetKernelArg`
    /// mapping; near-zero for CUDA/OpenMP). This term dominates Fig. 10.
    pub per_arg_overhead_ns: f64,
    /// Device memory allocation overhead (fixed).
    pub alloc_overhead_ns: f64,
    /// Pinned-memory registration cost per MiB (page-locking is expensive).
    pub pinned_alloc_per_mib_ns: f64,
    /// Buffer free overhead.
    pub free_overhead_ns: f64,
    /// Runtime kernel compilation cost (0 disables `prepare_kernel` support).
    pub compile_ns: f64,
    /// Device-internal memory bandwidth.
    pub mem_bandwidth_gibs: f64,
    /// Cost of one dependent random access (hash probe step).
    pub random_access_ns: f64,
    /// Cost of one uncontended atomic operation.
    pub atomic_ns: f64,
    /// Group-count sensitivity of shared-table aggregation
    /// (`1 + group_penalty * log2(groups)` multiplier). High for OpenCL's
    /// static scheduling, low for CUDA (paper Fig. 9c).
    pub group_penalty: f64,
    /// Input-size sensitivity of hash build
    /// (`1 + build_size_penalty * log2(n / 2^20)` for n above 1 Mi).
    pub build_size_penalty: f64,
    /// Probe-side multiplier (CUDA slightly worse than OpenCL per Fig. 9e).
    pub probe_penalty: f64,
    /// Bit-extraction multiplier for `MATERIALIZE` from bitmaps; ~3x on SIMT
    /// devices (paper: "about 30% the performance"), ~1.1x on CPUs.
    pub bitmap_extract_penalty: f64,
    /// Zero-copy representation transform cost (bookkeeping only).
    pub transform_zero_copy_ns: f64,
    /// Body-time multiplier for the bandwidth-bound stages of a fused
    /// kernel (< 1.0). Fusing keeps interior values in registers instead of
    /// streaming them through device memory, so each such body gets cheaper
    /// on top of saving the per-stage launch overheads (hash and position
    /// gather bodies are random-access and get no discount).
    pub fused_discount: f64,
    /// Whether this device is a SIMT-style co-processor behind a bus
    /// (transfers are billed) or shares host memory (transfers ~free).
    pub discrete: bool,
}

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

impl CostModel {
    /// Time to move `bytes` host→device.
    pub fn h2d_ns(&self, bytes: u64, pinned: bool) -> f64 {
        if !self.discrete {
            // Integrated device: placement is a pointer hand-off.
            return self.transfer_latency_ns;
        }
        let bw = if pinned {
            self.h2d_pinned_gibs
        } else {
            self.h2d_pageable_gibs
        };
        self.transfer_latency_ns + bytes as f64 / (bw * GIB) * 1e9
    }

    /// Time to move `bytes` device→host.
    pub fn d2h_ns(&self, bytes: u64, pinned: bool) -> f64 {
        if !self.discrete {
            return self.transfer_latency_ns;
        }
        let bw = if pinned {
            self.d2h_pinned_gibs
        } else {
            self.d2h_pageable_gibs
        };
        self.transfer_latency_ns + bytes as f64 / (bw * GIB) * 1e9
    }

    /// Time for the allocation of `bytes` (pinned allocations pay
    /// page-locking per MiB).
    pub fn alloc_ns(&self, bytes: u64, pinned: bool) -> f64 {
        if pinned {
            self.alloc_overhead_ns
                + self.pinned_alloc_per_mib_ns * (bytes as f64 / (1 << 20) as f64)
        } else {
            self.alloc_overhead_ns
        }
    }

    /// Time for a device-internal copy or memset of `bytes` at memory
    /// bandwidth (`create_chunk`, `init_structure`).
    pub fn device_copy_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.mem_bandwidth_gibs * GIB) * 1e9
    }

    /// Kernel execution time for `elements` inputs of the given class.
    ///
    /// `arg_count` models the launch-time argument mapping (Fig. 10).
    pub fn kernel_ns(&self, class: CostClass, elements: u64, arg_count: usize) -> f64 {
        self.launch_ns(arg_count) + self.body_ns(class, elements)
    }

    /// The fixed launch cost for a kernel with `arg_count` arguments.
    pub fn launch_ns(&self, arg_count: usize) -> f64 {
        self.launch_overhead_ns + self.per_arg_overhead_ns * arg_count as f64
    }

    /// Fused-kernel execution time: **one** launch for the whole chain plus
    /// each stage's body — discounted by [`CostModel::fused_discount`] when
    /// it is bandwidth-bound, in full when it is a random-access or atomic
    /// body. This is the fused cost entry — placement, watchdog budgets and
    /// WFQ billing all price a fused chain through it, never by summing
    /// per-primitive `kernel_ns` (which would over-charge k-1 launches).
    pub fn fused_kernel_ns(&self, stages: &[(CostClass, u64)], arg_count: usize) -> f64 {
        // Two sums, so a chain of streaming stages prices to the bit what
        // `launch + discount * Σ bodies` did before hash stages could fuse.
        let (mut streamed, mut full) = (0.0, 0.0);
        for &(class, elements) in stages {
            let body = self.body_ns(class, elements);
            if class.is_bandwidth_bound() {
                streamed += body;
            } else {
                full += body;
            }
        }
        self.launch_ns(arg_count) + self.fused_discount * streamed + full
    }

    /// The per-class, per-element body term of [`CostModel::kernel_ns`]
    /// (everything except the launch).
    pub fn body_ns(&self, class: CostClass, elements: u64) -> f64 {
        let n = elements as f64;
        let stream =
            |bytes_per_elem: f64| n * bytes_per_elem / (self.mem_bandwidth_gibs * GIB) * 1e9;
        match class {
            // read 8B + write 8B per element
            CostClass::MapLike => stream(16.0),
            // read 8B, negligible write
            CostClass::ReduceLike => stream(8.0),
            // read 8B + write 1 bit
            CostClass::FilterBitmap => stream(8.125),
            // position output costs a compacted write
            CostClass::FilterPosition => stream(8.0) + n * 0.5 * self.atomic_ns * 0.1 + stream(4.0),
            CostClass::MaterializeBitmap => stream(16.0) * self.bitmap_extract_penalty,
            CostClass::MaterializePosition => n * self.random_access_ns + stream(8.0),
            CostClass::PrefixSum => stream(16.0) * 2.0,
            CostClass::HashBuild => {
                let size_factor = if elements > (1 << 20) {
                    1.0 + self.build_size_penalty * ((elements >> 20) as f64).log2()
                } else {
                    1.0
                };
                n * (self.random_access_ns + self.atomic_ns) * size_factor
            }
            CostClass::HashProbe => n * self.random_access_ns * self.probe_penalty + stream(8.0),
            CostClass::HashAgg { groups } => {
                let g = groups.max(1) as f64;
                // Few groups => mild atomic serialization on hot slots (the
                // hardware coalesces); many groups => locality/scheduling
                // penalty that is strongly SDK-dependent (`group_penalty` —
                // OpenCL's static scheduling degrades drastically, Fig. 9c).
                let contention = 1.0 + (n / g).min(32.0) / 32.0;
                let locality = 1.0 + self.group_penalty * g.log2().max(0.0);
                n * (self.random_access_ns + self.atomic_ns * contention) * locality
            }
            CostClass::SortAgg => stream(24.0),
            CostClass::Sort => n.max(1.0).log2().max(1.0) * stream(8.0),
            CostClass::Custom(ns_per_elem) => n * ns_per_elem,
        }
    }

    /// Placement cost: what moving a `working_set_bytes` working set onto
    /// this device is expected to cost. Every placement ranking uses this
    /// value.
    pub fn placement_cost_ns(&self, working_set_bytes: u64) -> f64 {
        self.h2d_ns(working_set_bytes, false)
    }
}

impl Default for CostModel {
    /// A neutral host-like model (integrated, moderate bandwidth).
    fn default() -> Self {
        CostModel {
            h2d_pageable_gibs: 10.0,
            h2d_pinned_gibs: 10.0,
            d2h_pageable_gibs: 10.0,
            d2h_pinned_gibs: 10.0,
            transfer_latency_ns: 1_000.0,
            launch_overhead_ns: 2_000.0,
            per_arg_overhead_ns: 0.0,
            alloc_overhead_ns: 2_000.0,
            pinned_alloc_per_mib_ns: 0.0,
            free_overhead_ns: 500.0,
            compile_ns: 0.0,
            mem_bandwidth_gibs: 30.0,
            random_access_ns: 6.0,
            atomic_ns: 4.0,
            group_penalty: 0.05,
            build_size_penalty: 0.05,
            probe_penalty: 1.0,
            bitmap_extract_penalty: 1.1,
            transform_zero_copy_ns: 300.0,
            fused_discount: 0.8,
            discrete: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn discrete() -> CostModel {
        CostModel {
            discrete: true,
            h2d_pageable_gibs: 10.0,
            h2d_pinned_gibs: 20.0,
            ..CostModel::default()
        }
    }

    #[test]
    fn pinned_transfer_faster() {
        let m = discrete();
        let big = 1u64 << 30;
        assert!(m.h2d_ns(big, true) < m.h2d_ns(big, false));
        // Roughly 2x for large transfers.
        let ratio = m.h2d_ns(big, false) / m.h2d_ns(big, true);
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn effective_bandwidth_rises_with_size() {
        // Effective bandwidth in GiB/s: latency makes small transfers slower.
        let m = discrete();
        let gibs = |bytes: u64| bytes as f64 / GIB / (m.h2d_ns(bytes, false) / 1e9);
        let small = gibs(1 << 20);
        let large = gibs(1 << 30);
        assert!(large > small);
        assert!(large <= 10.0 + 1e-9);
    }

    #[test]
    fn integrated_transfers_flat() {
        let m = CostModel::default();
        assert_eq!(m.h2d_ns(1 << 30, false), m.transfer_latency_ns);
    }

    #[test]
    fn hash_agg_group_penalty_monotone() {
        let m = CostModel {
            group_penalty: 0.35,
            ..CostModel::default()
        };
        let few = m.kernel_ns(CostClass::HashAgg { groups: 16 }, 1 << 24, 3);
        let many = m.kernel_ns(CostClass::HashAgg { groups: 1 << 20 }, 1 << 24, 3);
        assert!(
            many > few,
            "many-group agg should be slower: {many} vs {few}"
        );
    }

    #[test]
    fn build_degrades_with_size() {
        let m = CostModel {
            build_size_penalty: 0.2,
            ..CostModel::default()
        };
        let per_elem_small = m.kernel_ns(CostClass::HashBuild, 1 << 20, 2) / (1u64 << 20) as f64;
        let per_elem_big = m.kernel_ns(CostClass::HashBuild, 1 << 28, 2) / (1u64 << 28) as f64;
        assert!(per_elem_big > per_elem_small);
    }

    #[test]
    fn materialize_penalty_applied() {
        let simt = CostModel {
            bitmap_extract_penalty: 3.0,
            ..CostModel::default()
        };
        let map = simt.kernel_ns(CostClass::MapLike, 1 << 24, 2);
        let mat = simt.kernel_ns(CostClass::MaterializeBitmap, 1 << 24, 3);
        assert!(mat > 2.5 * map);
    }

    #[test]
    fn pinned_alloc_charged_per_mib() {
        let m = CostModel {
            pinned_alloc_per_mib_ns: 100_000.0,
            ..CostModel::default()
        };
        let a = m.alloc_ns(1 << 20, true);
        let b = m.alloc_ns(1 << 24, true);
        assert!(b > a);
        assert_eq!(m.alloc_ns(1 << 24, false), m.alloc_overhead_ns);
    }

    #[test]
    fn arg_overhead_in_launch() {
        let m = CostModel {
            per_arg_overhead_ns: 1_000.0,
            ..CostModel::default()
        };
        let few = m.kernel_ns(CostClass::MapLike, 1024, 1);
        let many = m.kernel_ns(CostClass::MapLike, 1024, 9);
        assert!((many - few - 8_000.0).abs() < 1e-6);
    }

    #[test]
    fn fused_strictly_cheaper_than_stage_sum() {
        let m = CostModel {
            per_arg_overhead_ns: 1_000.0,
            ..CostModel::default()
        };
        let stages = [
            (CostClass::FilterBitmap, 1u64 << 20),
            (CostClass::MaterializeBitmap, 1 << 20),
            (CostClass::ReduceLike, 1 << 19),
        ];
        // Unfused: each stage pays its own launch (3 args each, say).
        let unfused: f64 = stages.iter().map(|&(c, n)| m.kernel_ns(c, n, 3)).sum();
        // Fused: one launch (more args) + discounted bodies.
        let fused = m.fused_kernel_ns(&stages, 9);
        assert!(fused < unfused, "fused {fused} >= unfused {unfused}");
        // And the decomposition holds exactly.
        let bodies: f64 = stages.iter().map(|&(c, n)| m.body_ns(c, n)).sum();
        assert!((fused - (m.launch_ns(9) + m.fused_discount * bodies)).abs() < 1e-9);
        // Random-access and atomic bodies are charged in full, fused or not.
        let probe = [
            (CostClass::FilterBitmap, 1u64 << 20),
            (CostClass::HashProbe, 1 << 20),
            (CostClass::MaterializePosition, 1 << 19),
            (CostClass::HashAgg { groups: 64 }, 1 << 19),
        ];
        let streamed = m.body_ns(CostClass::FilterBitmap, 1 << 20);
        let full: f64 = probe[1..].iter().map(|&(c, n)| m.body_ns(c, n)).sum();
        let fused = m.fused_kernel_ns(&probe, 9);
        assert!((fused - (m.launch_ns(9) + m.fused_discount * streamed + full)).abs() < 1e-6);
        let unfused: f64 = probe.iter().map(|&(c, n)| m.kernel_ns(c, n, 3)).sum();
        assert!(fused < unfused, "fused {fused} >= unfused {unfused}");
        // kernel_ns is launch + body.
        let k = m.kernel_ns(CostClass::MapLike, 1024, 4);
        assert!((k - (m.launch_ns(4) + m.body_ns(CostClass::MapLike, 1024))).abs() < 1e-9);
    }
}
