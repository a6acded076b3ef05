//! Device placement policies.
//!
//! The runtime executes primitive graphs whose nodes carry *device
//! annotations* "generated from any existing optimizer" (paper §III). This
//! module is a minimal such optimizer front end: given the plugged devices'
//! descriptions, a [`PlacementPolicy`] picks the target device a plan is
//! built against — by kind preference, by SDK, by memory headroom, or
//! pinned explicitly.

use adamant_core::error::{ExecError, Result};
use adamant_device::device::{DeviceId, DeviceInfo, DeviceKind};
use adamant_device::sdk::SdkKind;

/// How to choose the device a plan targets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// A fixed device id.
    Fixed(DeviceId),
    /// The first device of the given kind (falls back to any device).
    PreferKind(DeviceKind),
    /// The first device speaking the given SDK (no fallback — SDK choice
    /// changes which kernels run).
    RequireSdk(SdkKind),
    /// The device with the most free *capacity* for the given estimated
    /// working set; devices too small are skipped.
    FitWorkingSet {
        /// Estimated resident bytes the query needs at once.
        estimated_bytes: u64,
    },
}

impl PlacementPolicy {
    /// Resolves the policy against the plugged devices.
    pub fn choose(&self, devices: &[DeviceInfo]) -> Result<DeviceId> {
        if devices.is_empty() {
            return Err(ExecError::InvalidGraph(
                "placement: no devices plugged".into(),
            ));
        }
        match self {
            PlacementPolicy::Fixed(id) => devices
                .iter()
                .find(|d| d.id == *id)
                .map(|d| d.id)
                .ok_or_else(|| {
                    ExecError::InvalidGraph(format!("placement: device {id} not plugged"))
                }),
            PlacementPolicy::PreferKind(kind) => Ok(devices
                .iter()
                .find(|d| d.kind == *kind)
                .unwrap_or(&devices[0])
                .id),
            PlacementPolicy::RequireSdk(sdk) => devices
                .iter()
                .find(|d| d.sdk == *sdk)
                .map(|d| d.id)
                .ok_or_else(|| {
                    ExecError::InvalidGraph(format!("placement: no plugged device speaks {sdk}"))
                }),
            PlacementPolicy::FitWorkingSet { estimated_bytes } => devices
                .iter()
                .filter(|d| d.memory_capacity >= *estimated_bytes)
                .max_by_key(|d| d.memory_capacity)
                .map(|d| d.id)
                .ok_or_else(|| {
                    ExecError::InvalidGraph(format!(
                        "placement: no device fits a {estimated_bytes}-byte working set"
                    ))
                }),
        }
    }

    /// Like [`PlacementPolicy::choose`], but prefers devices outside `avoid`
    /// (quarantined by the executor's health registry). The policy is first
    /// resolved against the non-avoided devices; when that leaves nothing to
    /// choose from (or the filtered resolution fails), the full set is used
    /// — a degraded device beats no device. [`PlacementPolicy::Fixed`] is
    /// honored as-is: an explicit pin overrides health.
    pub fn choose_avoiding(&self, devices: &[DeviceInfo], avoid: &[DeviceId]) -> Result<DeviceId> {
        if matches!(self, PlacementPolicy::Fixed(_)) || avoid.is_empty() {
            return self.choose(devices);
        }
        let preferred: Vec<DeviceInfo> = devices
            .iter()
            .filter(|d| !avoid.contains(&d.id))
            .cloned()
            .collect();
        if !preferred.is_empty() {
            if let Ok(id) = self.choose(&preferred) {
                return Ok(id);
            }
        }
        self.choose(devices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infos() -> Vec<DeviceInfo> {
        vec![
            DeviceInfo {
                id: DeviceId(0),
                name: "cpu".into(),
                kind: DeviceKind::Cpu,
                sdk: SdkKind::OpenMp,
                memory_capacity: 32 << 30,
                pinned_capacity: 0,
            },
            DeviceInfo {
                id: DeviceId(1),
                name: "gpu".into(),
                kind: DeviceKind::Gpu,
                sdk: SdkKind::Cuda,
                memory_capacity: 11 << 30,
                pinned_capacity: 4 << 30,
            },
        ]
    }

    #[test]
    fn fixed_and_kind() {
        let d = infos();
        assert_eq!(
            PlacementPolicy::Fixed(DeviceId(1)).choose(&d).unwrap(),
            DeviceId(1)
        );
        assert!(PlacementPolicy::Fixed(DeviceId(9)).choose(&d).is_err());
        assert_eq!(
            PlacementPolicy::PreferKind(DeviceKind::Gpu)
                .choose(&d)
                .unwrap(),
            DeviceId(1)
        );
        // Missing kind falls back to the first device.
        assert_eq!(
            PlacementPolicy::PreferKind(DeviceKind::Accelerator)
                .choose(&d)
                .unwrap(),
            DeviceId(0)
        );
    }

    #[test]
    fn sdk_requirement_is_strict() {
        let d = infos();
        assert_eq!(
            PlacementPolicy::RequireSdk(SdkKind::Cuda)
                .choose(&d)
                .unwrap(),
            DeviceId(1)
        );
        assert!(PlacementPolicy::RequireSdk(SdkKind::OpenCl)
            .choose(&d)
            .is_err());
    }

    #[test]
    fn working_set_fit() {
        let d = infos();
        // Fits both: the roomier CPU wins.
        assert_eq!(
            PlacementPolicy::FitWorkingSet {
                estimated_bytes: 1 << 30
            }
            .choose(&d)
            .unwrap(),
            DeviceId(0)
        );
        // Fits only the CPU.
        assert_eq!(
            PlacementPolicy::FitWorkingSet {
                estimated_bytes: 20 << 30
            }
            .choose(&d)
            .unwrap(),
            DeviceId(0)
        );
        // Fits nothing.
        assert!(PlacementPolicy::FitWorkingSet {
            estimated_bytes: 100 << 30
        }
        .choose(&d)
        .is_err());
    }

    #[test]
    fn avoiding_skips_quarantined_devices() {
        let d = infos();
        // The GPU is quarantined: kind preference degrades to the CPU.
        assert_eq!(
            PlacementPolicy::PreferKind(DeviceKind::Gpu)
                .choose_avoiding(&d, &[DeviceId(1)])
                .unwrap(),
            DeviceId(0)
        );
        // Everything quarantined: fall back to the full set rather than fail.
        assert_eq!(
            PlacementPolicy::PreferKind(DeviceKind::Gpu)
                .choose_avoiding(&d, &[DeviceId(0), DeviceId(1)])
                .unwrap(),
            DeviceId(1)
        );
        // A strict SDK requirement that only a quarantined device satisfies
        // still resolves (degraded beats impossible).
        assert_eq!(
            PlacementPolicy::RequireSdk(SdkKind::Cuda)
                .choose_avoiding(&d, &[DeviceId(1)])
                .unwrap(),
            DeviceId(1)
        );
        // An explicit pin overrides health.
        assert_eq!(
            PlacementPolicy::Fixed(DeviceId(1))
                .choose_avoiding(&d, &[DeviceId(1)])
                .unwrap(),
            DeviceId(1)
        );
    }

    #[test]
    fn empty_registry_rejected() {
        assert!(PlacementPolicy::PreferKind(DeviceKind::Gpu)
            .choose(&[])
            .is_err());
    }
}
