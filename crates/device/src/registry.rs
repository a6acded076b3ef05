//! Registry of plugged devices.

use crate::device::{Device, DeviceId, DeviceInfo};
use crate::error::{DeviceError, Result};
use std::collections::BTreeMap;

/// The set of devices plugged into the engine.
///
/// The runtime layer addresses devices purely by [`DeviceId`] (the primitive
/// graph's device annotations), so adding a device here is the *only* step
/// needed to make it schedulable.
#[derive(Default)]
pub struct DeviceRegistry {
    devices: BTreeMap<DeviceId, Box<dyn Device>>,
    next_id: u32,
}

impl DeviceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// Plugs a device, assigning it the next free id.
    pub fn add(&mut self, device: Box<dyn Device>) -> DeviceId {
        let id = DeviceId(self.next_id);
        self.next_id += 1;
        self.devices.insert(id, device);
        id
    }

    /// The id the next [`DeviceRegistry::add`] will assign. Ids are never
    /// reused: a removed device's id stays retired, so callers building a
    /// device ahead of plugging it (profiles bake the id into
    /// [`DeviceInfo`]) must use this instead of counting live devices.
    pub fn peek_next_id(&self) -> DeviceId {
        DeviceId(self.next_id)
    }

    /// Borrows a device.
    pub fn get(&self, id: DeviceId) -> Result<&dyn Device> {
        self.devices
            .get(&id)
            .map(|d| d.as_ref())
            .ok_or(DeviceError::Driver(format!("no device {id}")))
    }

    /// Mutably borrows a device.
    pub fn get_mut(&mut self, id: DeviceId) -> Result<&mut Box<dyn Device>> {
        self.devices
            .get_mut(&id)
            .ok_or(DeviceError::Driver(format!("no device {id}")))
    }

    /// Unplugs a device, returning it.
    pub fn remove(&mut self, id: DeviceId) -> Option<Box<dyn Device>> {
        self.devices.remove(&id)
    }

    /// Infos of all plugged devices, ordered by id.
    pub fn infos(&self) -> Vec<DeviceInfo> {
        self.devices.values().map(|d| d.info().clone()).collect()
    }

    /// Ids of all plugged devices, ascending.
    pub fn ids(&self) -> Vec<DeviceId> {
        self.devices.keys().copied().collect()
    }

    /// True when no devices are plugged.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::DeviceProfile;

    #[test]
    fn add_get_remove() {
        let mut reg = DeviceRegistry::new();
        assert!(reg.is_empty());
        let id0 = reg.add(Box::new(DeviceProfile::host().build(DeviceId(0))));
        let id1 = reg.add(Box::new(DeviceProfile::cuda_rtx2080ti().build(DeviceId(1))));
        assert_eq!(id0, DeviceId(0));
        assert_eq!(id1, DeviceId(1));
        assert_eq!(reg.ids(), vec![id0, id1]);
        assert!(reg.get(id1).is_ok());
        assert!(reg.get(DeviceId(99)).is_err());
        assert!(reg.remove(id0).is_some());
        assert_eq!(reg.ids(), vec![id1]);
    }

    #[test]
    fn ids_are_never_reused_after_remove() {
        let mut reg = DeviceRegistry::new();
        let id0 = reg.add(Box::new(DeviceProfile::host().build(DeviceId(0))));
        assert_eq!(reg.peek_next_id(), DeviceId(1));
        reg.remove(id0);
        // The retired id stays retired; the next add gets a fresh one.
        assert_eq!(reg.peek_next_id(), DeviceId(1));
        let id1 = reg.add(Box::new(DeviceProfile::host().build(reg.peek_next_id())));
        assert_eq!(id1, DeviceId(1));
    }

    #[test]
    fn infos_ordered() {
        let mut reg = DeviceRegistry::new();
        reg.add(Box::new(DeviceProfile::opencl_cpu_i7().build(DeviceId(0))));
        reg.add(Box::new(DeviceProfile::cuda_rtx2080ti().build(DeviceId(1))));
        let infos = reg.infos();
        assert_eq!(infos.len(), 2);
        assert!(infos[0].name.contains("opencl"));
        assert!(infos[1].name.contains("cuda"));
    }
}
