//! The task registry: implementations keyed by `(primitive, SDK)`.

use crate::container::{KernelContainer, DEFAULT_VARIANT};
use crate::kernels;
use crate::primitive::PrimitiveKind;
use adamant_device::device::Device;
use adamant_device::error::Result;
use adamant_device::kernel::KernelFn;
use adamant_device::sdk::SdkKind;
use std::collections::HashMap;
use std::sync::Arc;

/// Holds every registered kernel implementation.
///
/// The runtime resolves `(primitive, device SDK)` here when binding a plan;
/// [`TaskRegistry::install_on`] pushes the matching containers into a device
/// via its `prepare_kernel` interface ("our system compiles all the
/// pre-existing kernels during initialization").
#[derive(Default)]
pub struct TaskRegistry {
    containers: HashMap<(PrimitiveKind, SdkKind), Vec<KernelContainer>>,
}

impl TaskRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TaskRegistry::default()
    }

    /// A registry pre-populated with the reference implementation of every
    /// primitive for each given SDK, plus the demonstration variants
    /// (`map@blocked`, `filter_bitmap@branchless`).
    pub fn with_defaults(sdks: &[SdkKind]) -> Self {
        let mut reg = TaskRegistry::new();
        for &sdk in sdks {
            reg.register_defaults_for(sdk);
        }
        reg
    }

    /// Registers the reference implementations for one SDK. This is what a
    /// driver author calls after plugging a new SDK whose kernels follow the
    /// standard signatures.
    pub fn register_defaults_for(&mut self, sdk: SdkKind) {
        use PrimitiveKind::*;
        let defaults: [(PrimitiveKind, KernelFn); 18] = [
            (Map, Arc::new(kernels::map::map)),
            (BitmapOp, Arc::new(kernels::map::bitmap_op)),
            (FilterBitmap, Arc::new(kernels::filter::filter_bitmap)),
            (
                FilterBitmapCol,
                Arc::new(kernels::filter::filter_bitmap_col),
            ),
            (FilterPosition, Arc::new(kernels::filter::filter_position)),
            (Materialize, Arc::new(kernels::materialize::materialize)),
            (
                MaterializePosition,
                Arc::new(kernels::materialize::materialize_position),
            ),
            (PrefixSum, Arc::new(kernels::prefix::prefix_sum)),
            (AggBlock, Arc::new(kernels::agg::agg_block)),
            (HashAgg, Arc::new(kernels::agg::hash_agg)),
            (SortAgg, Arc::new(kernels::agg::sort_agg)),
            (HashBuild, Arc::new(kernels::join::hash_build)),
            (HashProbe, Arc::new(kernels::join::hash_probe)),
            (HashProbeSemi, Arc::new(kernels::join::hash_probe_semi)),
            (Sort, Arc::new(kernels::sort::sort)),
            (AggExport, Arc::new(kernels::agg::agg_export)),
            (Fused, Arc::new(kernels::fused::fused)),
            (FusedAgg, Arc::new(kernels::fused::fused_agg)),
        ];
        for (kind, entry) in defaults {
            self.register(KernelContainer::builtin(kind, sdk, entry));
        }
        // Demonstration variants: alternative implementations of the same
        // primitive, selectable per plan node.
        self.register(KernelContainer::variant(
            Map,
            sdk,
            "blocked",
            Arc::new(kernels::map::map_blocked),
        ));
        self.register(KernelContainer::variant(
            FilterBitmap,
            sdk,
            "branchless",
            Arc::new(kernels::filter::filter_bitmap_branchless),
        ));
    }

    /// Registers a container (new SDKs, new variants, user kernels).
    pub fn register(&mut self, container: KernelContainer) {
        self.containers
            .entry((container.primitive, container.sdk))
            .or_default()
            .push(container);
    }

    /// Resolves an implementation. `variant = None` selects the default.
    pub fn resolve(
        &self,
        primitive: PrimitiveKind,
        sdk: SdkKind,
        variant: Option<&str>,
    ) -> Option<&KernelContainer> {
        let variant = variant.unwrap_or(DEFAULT_VARIANT);
        self.containers
            .get(&(primitive, sdk))?
            .iter()
            .find(|c| c.variant == variant)
    }

    /// All containers registered for an SDK.
    pub fn containers_for(&self, sdk: SdkKind) -> Vec<&KernelContainer> {
        let mut out: Vec<&KernelContainer> = self
            .containers
            .iter()
            .filter(|((_, s), _)| *s == sdk)
            .flat_map(|(_, v)| v)
            .collect();
        out.sort_by_key(|c| (c.primitive.kernel_name(), c.variant.clone()));
        out
    }

    /// Binds every container matching the device's SDK onto the device.
    /// Returns the number of kernels installed.
    pub fn install_on(&self, device: &mut dyn Device) -> Result<usize> {
        let sdk = device.info().sdk;
        let mut count = 0;
        for container in self.containers_for(sdk) {
            device.prepare_kernel(&container.kernel_name(), container.kernel_source())?;
            count += 1;
        }
        Ok(count)
    }

    /// Total number of registered containers.
    pub fn len(&self) -> usize {
        self.containers.values().map(|v| v.len()).sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_device::device::DeviceId;
    use adamant_device::profiles::DeviceProfile;

    #[test]
    fn defaults_cover_all_primitives() {
        let reg = TaskRegistry::with_defaults(&[SdkKind::Cuda, SdkKind::OpenCl]);
        for kind in PrimitiveKind::ALL {
            assert!(
                reg.resolve(kind, SdkKind::Cuda, None).is_some(),
                "missing {kind} for cuda"
            );
            assert!(
                reg.resolve(kind, SdkKind::OpenCl, None).is_some(),
                "missing {kind} for opencl"
            );
        }
        // 18 defaults + 2 variants per SDK.
        assert_eq!(reg.len(), 2 * 20);
    }

    #[test]
    fn variant_resolution() {
        let reg = TaskRegistry::with_defaults(&[SdkKind::OpenMp]);
        let v = reg
            .resolve(
                PrimitiveKind::FilterBitmap,
                SdkKind::OpenMp,
                Some("branchless"),
            )
            .unwrap();
        assert_eq!(v.kernel_name(), "filter_bitmap@branchless");
        assert!(reg
            .resolve(PrimitiveKind::FilterBitmap, SdkKind::OpenMp, Some("nope"))
            .is_none());
        assert!(reg
            .resolve(PrimitiveKind::FilterBitmap, SdkKind::Cuda, None)
            .is_none());
    }

    #[test]
    fn install_on_device() {
        let reg = TaskRegistry::with_defaults(&[SdkKind::Cuda]);
        let mut dev = DeviceProfile::cuda_rtx2080ti().build(DeviceId(0));
        let installed = reg.install_on(&mut dev).unwrap();
        assert_eq!(installed, 20);
        assert!(dev.state().kernel_names().contains(&"hash_probe"));
        assert!(dev.state().kernel_names().contains(&"map@blocked"));
    }

    #[test]
    fn install_skips_foreign_sdk() {
        let reg = TaskRegistry::with_defaults(&[SdkKind::OpenCl]);
        let mut dev = DeviceProfile::cuda_rtx2080ti().build(DeviceId(0));
        assert_eq!(reg.install_on(&mut dev).unwrap(), 0);
    }
}
