//! Bounded device memory pools.
//!
//! Capacity enforcement is load-bearing for the evaluation: the paper's
//! Fig. 7 argument (operator-at-a-time does not scale) and the HeavyDB Q3
//! out-of-memory result both hinge on allocations failing when the device is
//! full. The pool therefore accounts every buffer against the profile's
//! capacity and refuses overcommit with [`DeviceError::OutOfMemory`].
//!
//! The pool is also the device's end of the transfer-integrity protocol:
//! [`BufferPool::checksum`] echoes the content hash of a stored range,
//! computed in place under the same range contract as [`BufferPool::read`].
//! It knows nothing about fault plans — it hashes what it holds.

use crate::buffer::{Buffer, BufferData, BufferId};
use crate::error::{DeviceError, Result};
use crate::sdk::SdkRepr;
use std::collections::HashMap;

/// A bounded pool of device buffers plus a separate pinned (host-accessible)
/// region, as on a discrete GPU.
#[derive(Debug)]
pub struct BufferPool {
    buffers: HashMap<BufferId, Buffer>,
    capacity: u64,
    pinned_capacity: u64,
    used: u64,
    pinned_used: u64,
    peak: u64,
    /// Buffers temporarily taken by an executing kernel (see [`Self::take`]).
    taken: HashMap<BufferId, (bool, u64)>,
    /// Bytes promised to admitted queries by the multi-query scheduler's
    /// admission ledger (see [`Self::admission_reserve`]). Advisory:
    /// tracked separately from `used` and not charged by [`Self::insert`].
    admission_reserved: u64,
}

impl BufferPool {
    /// Creates a pool with the given device and pinned capacities in bytes.
    pub fn new(capacity: u64, pinned_capacity: u64) -> Self {
        BufferPool {
            buffers: HashMap::new(),
            capacity,
            pinned_capacity,
            used: 0,
            pinned_used: 0,
            peak: 0,
            taken: HashMap::new(),
            admission_reserved: 0,
        }
    }

    /// Total device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Total pinned capacity in bytes.
    pub fn pinned_capacity(&self) -> u64 {
        self.pinned_capacity
    }

    /// Bytes currently allocated from the device region.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently allocated from the pinned region.
    pub fn pinned_used(&self) -> u64 {
        self.pinned_used
    }

    /// Highest device usage observed (for the Fig. 7 footprint traces).
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Inserts a new buffer, charging its footprint against the right region.
    pub fn insert(&mut self, id: BufferId, buffer: Buffer) -> Result<()> {
        if self.buffers.contains_key(&id) || self.taken.contains_key(&id) {
            return Err(DeviceError::DuplicateBuffer(id));
        }
        self.recharge(buffer.pinned, 0, buffer.footprint())?;
        self.buffers.insert(id, buffer);
        Ok(())
    }

    /// Re-charges a buffer whose footprint goes from `old` to `new` bytes
    /// against its region, or refuses the growth — changing nothing — when
    /// the region cannot hold it.
    fn recharge(&mut self, pinned: bool, old: u64, new: u64) -> Result<()> {
        let requested = new.saturating_sub(old);
        if pinned {
            let available = self.pinned_capacity.saturating_sub(self.pinned_used);
            if requested > available {
                return Err(DeviceError::OutOfPinnedMemory {
                    requested,
                    available,
                });
            }
            self.pinned_used = self.pinned_used - old + new;
        } else {
            let available = self.capacity.saturating_sub(self.used);
            if requested > available {
                return Err(DeviceError::OutOfMemory {
                    requested,
                    available,
                    capacity: self.capacity,
                });
            }
            self.used = self.used - old + new;
            self.peak = self.peak.max(self.used);
        }
        Ok(())
    }

    /// Borrows a buffer.
    pub fn get(&self, id: BufferId) -> Result<&Buffer> {
        self.buffers.get(&id).ok_or(DeviceError::UnknownBuffer(id))
    }

    /// Mutably borrows a buffer.
    ///
    /// It must not change the buffer's footprint: uploads go through
    /// [`Self::write`], and kernels that resize payloads use
    /// [`Self::take`]/[`Self::restore`]; both re-account.
    pub fn get_mut(&mut self, id: BufferId) -> Result<&mut Buffer> {
        self.buffers
            .get_mut(&id)
            .ok_or(DeviceError::UnknownBuffer(id))
    }

    /// Whether the pool holds `id` (taken buffers count as held).
    pub fn contains(&self, id: BufferId) -> bool {
        self.buffers.contains_key(&id) || self.taken.contains_key(&id)
    }

    /// Removes a buffer, releasing its bytes.
    pub fn remove(&mut self, id: BufferId) -> Result<Buffer> {
        let buffer = self
            .buffers
            .remove(&id)
            .ok_or(DeviceError::UnknownBuffer(id))?;
        let bytes = buffer.footprint();
        if buffer.pinned {
            self.pinned_used -= bytes;
        } else {
            self.used -= bytes;
        }
        Ok(buffer)
    }

    /// Temporarily removes a buffer for kernel execution.
    ///
    /// The bytes stay charged (the memory is still allocated on the device);
    /// [`Self::restore`] re-inserts the buffer and adjusts accounting if the
    /// kernel grew or shrank the payload.
    pub fn take(&mut self, id: BufferId) -> Result<Buffer> {
        let buffer = self
            .buffers
            .remove(&id)
            .ok_or(DeviceError::UnknownBuffer(id))?;
        self.taken.insert(id, (buffer.pinned, buffer.footprint()));
        Ok(buffer)
    }

    /// Restores a buffer previously [`Self::take`]n, re-checking capacity
    /// for any growth.
    ///
    /// On failure (the grown buffer no longer fits) the buffer is
    /// **consumed and its slot freed** — like a failed `realloc`, the
    /// allocation cannot exist on the device, so keeping its bytes charged
    /// would leak pool capacity across error recovery.
    pub fn restore(&mut self, id: BufferId, buffer: Buffer) -> Result<()> {
        let (was_pinned, old_bytes) = self
            .taken
            .remove(&id)
            .ok_or(DeviceError::UnknownBuffer(id))?;
        debug_assert_eq!(was_pinned, buffer.pinned, "pinnedness changed on restore");
        if let Err(e) = self.recharge(buffer.pinned, old_bytes, buffer.footprint()) {
            // Free the slot entirely (failed-realloc semantics).
            self.recharge(buffer.pinned, old_bytes, 0)?;
            return Err(e);
        }
        self.buffers.insert(id, buffer);
        Ok(())
    }

    /// Resolves the element range `offset..offset+len` of buffer `id`
    /// (`len == None` = through the end of the buffer) — the one range
    /// contract [`Self::read`] and [`Self::checksum`] share. A range past
    /// the end — or one whose end overflows — is
    /// [`DeviceError::RangeOutOfBounds`], never a silently short one.
    fn range(
        &self,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> Result<(&BufferData, usize)> {
        let data = &self.get(id)?.data;
        let total = data.len();
        let len = len.unwrap_or(total.saturating_sub(offset));
        match offset.checked_add(len) {
            Some(end) if end <= total => Ok((data, len)),
            end => Err(DeviceError::RangeOutOfBounds {
                id,
                requested_end: end.unwrap_or(usize::MAX),
                len: total,
            }),
        }
    }

    /// Elements `offset..offset+len` of buffer `id` (`len == None` =
    /// through the end of the buffer), as [`BufferData::slice`] makes them:
    /// a copy, or a sub-view of a shared payload. A range past the end — or
    /// one whose end overflows — is [`DeviceError::RangeOutOfBounds`], never
    /// a silently short payload.
    pub fn read(&self, id: BufferId, len: Option<usize>, offset: usize) -> Result<BufferData> {
        let (data, len) = self.range(id, len, offset)?;
        Ok(data.slice(offset, len))
    }

    /// Echoes the checksum of the stored elements `offset..offset+len` of
    /// buffer `id`, as the device sees them — *after* any transfer
    /// corruption. Same range contract as [`Self::read`], but the elements
    /// are hashed where they lie: nothing is copied, and an opaque
    /// structure is not cloned to hash its three-integer marker.
    ///
    /// The hub compares this echo against the checksum of what it sent to
    /// detect silent corruption end-to-end. The echo is an 8-byte control
    /// message, so it is deliberately free on the simulated clock.
    pub fn checksum(&self, id: BufferId, len: Option<usize>, offset: usize) -> Result<u64> {
        let (data, len) = self.range(id, len, offset)?;
        Ok(data.checksum_range(offset, len))
    }

    /// Writes `data` into the existing buffer `id` starting at element
    /// `offset`, re-accounting any footprint growth.
    ///
    /// `offset == 0` replaces the payload wholesale (the chunk-upload case —
    /// a shorter final chunk must not leave a stale tail); `offset > 0`
    /// splices into the existing payload, growing it if needed — into an
    /// owned copy of a shared payload (copy on write), never into the rows
    /// it shares. Payload kinds must match (an owned and a shared `i64`
    /// payload are one kind); a reserved-but-empty buffer accepts any kind.
    /// The grown footprint is checked against the buffer's region before
    /// anything is stored, so a refused write changes nothing.
    pub fn write(&mut self, id: BufferId, data: BufferData, offset: usize) -> Result<()> {
        let dst = self.get(id)?;
        let mismatch = |dst: &BufferData, src: &BufferData| DeviceError::TypeMismatch {
            id,
            expected: dst.kind(),
            actual: src.kind(),
        };
        let end = offset
            .checked_add(data.len())
            .ok_or(DeviceError::RangeOutOfBounds {
                id,
                requested_end: usize::MAX,
                len: dst.data.len(),
            })?;
        let byte_len = if offset == 0 {
            if dst.data.kind() != data.kind() && !dst.data.is_empty() {
                return Err(mismatch(&dst.data, &data));
            }
            data.byte_len()
        } else {
            let width = match (&dst.data, &data) {
                (d, s) if d.kind() != s.kind() => return Err(mismatch(d, s)),
                (BufferData::I64(_) | BufferData::Shared(_) | BufferData::BitWords(_), _) => 8,
                (BufferData::U32(_), _) => 4,
                (BufferData::Raw(_), _) => 1,
                (d, s) => return Err(mismatch(d, s)),
            };
            dst.data.byte_len().max((end as u64).saturating_mul(width))
        };
        let (pinned, old) = (dst.pinned, dst.footprint());
        self.recharge(pinned, old, dst.reserved_bytes.max(byte_len))?;
        let dst = &mut self.get_mut(id)?.data;
        if offset == 0 {
            *dst = data;
            return Ok(());
        }
        dst.make_owned();
        macro_rules! splice {
            ($dv:expr, $sv:expr) => {{
                if $dv.len() < end {
                    $dv.resize(end, Default::default());
                }
                $dv[offset..end].copy_from_slice(&$sv);
            }};
        }
        match (dst, data) {
            (BufferData::I64(d), BufferData::I64(s)) => splice!(d, s),
            (BufferData::I64(d), BufferData::Shared(s)) => splice!(d, s.as_slice()),
            (BufferData::U32(d), BufferData::U32(s)) => splice!(d, s),
            (BufferData::BitWords(d), BufferData::BitWords(s)) => splice!(d, s),
            (BufferData::Raw(d), BufferData::Raw(s)) => splice!(d, s),
            _ => unreachable!("the kinds were matched above"),
        }
        Ok(())
    }

    /// Removes every buffer (end-of-query cleanup / delete phase).
    pub fn clear(&mut self) {
        self.buffers.clear();
        self.taken.clear();
        self.used = 0;
        self.pinned_used = 0;
    }

    /// Resets the peak-usage watermark (between experiments).
    pub fn reset_peak(&mut self) {
        self.peak = self.used;
    }

    /// Reserves `bytes` of capacity in the admission ledger, failing with
    /// [`DeviceError::OutOfMemory`] when the outstanding reservations plus
    /// this one would exceed the device capacity.
    ///
    /// Admission reservations are **advisory**: they cap what the
    /// multi-query scheduler concurrently admits so admitted queries cannot
    /// OOM each other, but [`Self::insert`] does not consult them — each
    /// admitted query allocates freely within the capacity its own
    /// reservation already vouched for, and queries that over-run their
    /// estimate still hit the hard `used`-vs-`capacity` check.
    pub fn admission_reserve(&mut self, bytes: u64) -> Result<()> {
        if self.admission_reserved + bytes > self.capacity {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                available: self.capacity.saturating_sub(self.admission_reserved),
                capacity: self.capacity,
            });
        }
        self.admission_reserved += bytes;
        Ok(())
    }

    /// Releases `bytes` from the admission ledger (saturating, so a
    /// double-release cannot underflow).
    pub fn admission_release(&mut self, bytes: u64) {
        self.admission_reserved = self.admission_reserved.saturating_sub(bytes);
    }

    /// Bytes currently promised to admitted queries.
    pub fn admission_reserved(&self) -> u64 {
        self.admission_reserved
    }

    /// Capacity not yet promised to any admitted query.
    pub fn admission_available(&self) -> u64 {
        self.capacity.saturating_sub(self.admission_reserved)
    }

    /// Convenience: allocates a reserved-but-empty buffer.
    pub fn reserve(&mut self, id: BufferId, bytes: u64, repr: SdkRepr, pinned: bool) -> Result<()> {
        self.insert(
            id,
            Buffer {
                data: BufferData::Raw(Vec::new()),
                repr,
                pinned,
                reserved_bytes: bytes,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(n: usize) -> Buffer {
        Buffer {
            data: BufferData::I64(vec![0; n]),
            repr: SdkRepr::HostVec,
            pinned: false,
            reserved_bytes: 0,
        }
    }

    #[test]
    fn capacity_enforced() {
        let mut pool = BufferPool::new(100, 0);
        pool.insert(BufferId(1), buf(10)).unwrap(); // 80 bytes
        let err = pool.insert(BufferId(2), buf(10)).unwrap_err();
        match err {
            DeviceError::OutOfMemory {
                requested,
                available,
                capacity,
            } => {
                assert_eq!(requested, 80);
                assert_eq!(available, 20);
                assert_eq!(capacity, 100);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(pool.used(), 80);
    }

    #[test]
    fn pinned_capacity_separate() {
        let mut pool = BufferPool::new(100, 50);
        let pinned = Buffer {
            pinned: true,
            ..buf(5)
        };
        pool.insert(BufferId(1), pinned.clone()).unwrap(); // 40 pinned
        assert_eq!(pool.pinned_used(), 40);
        assert_eq!(pool.used(), 0);
        assert!(matches!(
            pool.insert(BufferId(2), pinned).unwrap_err(),
            DeviceError::OutOfPinnedMemory { .. }
        ));
    }

    #[test]
    fn duplicate_rejected() {
        let mut pool = BufferPool::new(1000, 0);
        pool.insert(BufferId(1), buf(1)).unwrap();
        assert!(matches!(
            pool.insert(BufferId(1), buf(1)).unwrap_err(),
            DeviceError::DuplicateBuffer(_)
        ));
    }

    #[test]
    fn remove_releases() {
        let mut pool = BufferPool::new(100, 0);
        pool.insert(BufferId(1), buf(10)).unwrap();
        pool.remove(BufferId(1)).unwrap();
        assert_eq!(pool.used(), 0);
        assert!(pool.remove(BufferId(1)).is_err());
        // Peak remembers the high-water mark.
        assert_eq!(pool.peak(), 80);
        pool.reset_peak();
        assert_eq!(pool.peak(), 0);
    }

    #[test]
    fn take_restore_reaccounts_growth() {
        let mut pool = BufferPool::new(100, 0);
        pool.insert(BufferId(1), buf(2)).unwrap(); // 16
        let mut b = pool.take(BufferId(1)).unwrap();
        assert!(pool.contains(BufferId(1)), "taken buffers still held");
        if let BufferData::I64(v) = &mut b.data {
            v.extend_from_slice(&[0; 8]); // now 80 bytes
        }
        pool.restore(BufferId(1), b).unwrap();
        assert_eq!(pool.used(), 80);
    }

    #[test]
    fn restore_rejects_overgrowth() {
        let mut pool = BufferPool::new(100, 0);
        pool.insert(BufferId(1), buf(2)).unwrap();
        let mut b = pool.take(BufferId(1)).unwrap();
        if let BufferData::I64(v) = &mut b.data {
            v.extend_from_slice(&[0; 20]); // 176 bytes > 100
        }
        assert!(pool.restore(BufferId(1), b).is_err());
    }

    #[test]
    fn reserve_counts_reservation() {
        let mut pool = BufferPool::new(100, 0);
        pool.reserve(BufferId(7), 64, SdkRepr::ClBuffer, false)
            .unwrap();
        assert_eq!(pool.used(), 64);
        assert_eq!(pool.get(BufferId(7)).unwrap().repr, SdkRepr::ClBuffer);
    }

    #[test]
    fn read_write_checksum_share_one_range_contract() {
        let mut pool = BufferPool::new(1000, 0);
        pool.insert(BufferId(1), buf(4)).unwrap(); // 32 bytes
        pool.write(BufferId(1), BufferData::I64(vec![7, 8]), 3)
            .unwrap();
        assert_eq!(
            pool.read(BufferId(1), None, 2).unwrap(),
            BufferData::I64(vec![0, 7, 8])
        );
        assert_eq!(pool.used(), 40, "the splice grew the buffer by one element");
        assert_eq!(
            pool.checksum(BufferId(1), Some(2), 3).unwrap(),
            BufferData::I64(vec![7, 8]).checksum()
        );
        // Offset 0 replaces wholesale: no stale tail, kinds must match.
        pool.write(BufferId(1), BufferData::I64(vec![1]), 0)
            .unwrap();
        assert_eq!(
            pool.read(BufferId(1), None, 0).unwrap(),
            BufferData::I64(vec![1])
        );
        assert!(matches!(
            pool.write(BufferId(1), BufferData::U32(vec![1]), 0),
            Err(DeviceError::TypeMismatch { .. })
        ));
        // Past-the-end and overflowing ranges are typed errors everywhere.
        for (len, offset) in [
            (Some(2), 0),
            (None, 2),
            (Some(usize::MAX), 1),
            (Some(1), usize::MAX),
            (Some(0), 2),
        ] {
            assert!(matches!(
                pool.read(BufferId(1), len, offset),
                Err(DeviceError::RangeOutOfBounds { .. })
            ));
            assert!(matches!(
                pool.checksum(BufferId(1), len, offset),
                Err(DeviceError::RangeOutOfBounds { .. })
            ));
        }
        assert!(matches!(
            pool.write(BufferId(1), BufferData::I64(vec![1]), usize::MAX),
            Err(DeviceError::RangeOutOfBounds { .. })
        ));
        // A splice whose grown byte length overflows is refused, not
        // allocated.
        assert!(matches!(
            pool.write(BufferId(1), BufferData::I64(vec![1]), usize::MAX / 4),
            Err(DeviceError::OutOfMemory { .. })
        ));
        // The empty range at the very end is in bounds for both.
        assert_eq!(
            pool.checksum(BufferId(1), Some(0), 1).unwrap(),
            pool.read(BufferId(1), None, 1).unwrap().checksum()
        );
    }

    #[test]
    fn writes_onto_shared_rows_copy_them_first() {
        use crate::buffer::tests::shared;
        use std::sync::Arc;
        let rows = Arc::new((0..8).collect::<Vec<i64>>());
        let mut pool = BufferPool::new(1000, 0);
        let id = BufferId(1);
        pool.insert(
            id,
            Buffer {
                data: shared(&rows, 0..8),
                ..buf(0)
            },
        )
        .unwrap();
        assert_eq!(pool.used(), 64);
        // A splice past offset 0 writes an owned copy, grown by one element.
        pool.write(id, BufferData::I64(vec![-1, -2]), 7).unwrap();
        assert_eq!(pool.used(), 72);
        assert!(matches!(pool.get(id).unwrap().data, BufferData::I64(_)));
        assert_eq!(
            pool.read(id, Some(4), 5).unwrap(),
            BufferData::I64(vec![5, 6, -1, -2])
        );
        // A shared source splices into an owned buffer.
        pool.write(id, shared(&rows, 2..4), 1).unwrap();
        assert_eq!(
            pool.read(id, Some(4), 0).unwrap(),
            BufferData::I64(vec![0, 2, 3, 3])
        );
        // Offset 0 replaces across ownership both ways, and still refuses
        // another kind.
        pool.write(id, shared(&rows, 0..8), 0).unwrap();
        assert!(matches!(pool.get(id).unwrap().data, BufferData::Shared(_)));
        pool.write(id, BufferData::I64(vec![4]), 0).unwrap();
        pool.write(id, shared(&rows, 0..8), 0).unwrap();
        for offset in [0, 3] {
            assert!(matches!(
                pool.write(id, BufferData::U32(vec![1]), offset),
                Err(DeviceError::TypeMismatch {
                    expected: "i64",
                    actual: "u32",
                    ..
                })
            ));
        }
        assert_eq!(*rows, (0..8).collect::<Vec<i64>>());
    }

    /// A chunk of a shared pin is a view of the pin's rows, and the clock
    /// charges it exactly what a copy out of an owned pin costs.
    #[test]
    fn a_chunk_of_a_shared_pin_is_a_view_charged_like_a_copy() {
        use crate::buffer::tests::shared;
        use crate::device::Device;
        use std::sync::Arc;
        let rows = Arc::new((0..1000).collect::<Vec<i64>>());
        let mut runs = Vec::new();
        for pin in [BufferData::I64(rows.to_vec()), shared(&rows, 0..1000)] {
            let mut dev = sim(1 << 20, 0);
            dev.place_data(BufferId(1), pin, 0).unwrap();
            dev.create_chunk(BufferId(1), BufferId(2), 100, 250)
                .unwrap();
            let chunk = dev.pool().get(BufferId(2)).unwrap().data.clone();
            runs.push((dev.clock().events().to_vec(), chunk));
        }
        let [(owned_events, owned_chunk), (shared_events, shared_chunk)] = &runs[..] else {
            unreachable!()
        };
        assert_eq!(shared_events, owned_events);
        assert_eq!(shared_events.last().unwrap().bytes, 2000);
        assert_eq!(shared_chunk, owned_chunk);
        match shared_chunk {
            BufferData::Shared(view) => assert_eq!(view.as_slice().as_ptr(), rows[100..].as_ptr()),
            other => panic!("a chunk of a shared pin is {other:?}"),
        }
        assert!(matches!(owned_chunk, BufferData::I64(_)));
    }

    #[test]
    fn generic_echo_is_the_marker_checksum() {
        use crate::buffer::tests::Blob;
        let mut pool = BufferPool::new(1000, 0);
        let table = BufferData::Generic(Box::new(Blob(5)));
        let marker = table.checksum();
        pool.insert(
            BufferId(1),
            Buffer {
                data: table,
                ..buf(0)
            },
        )
        .unwrap();
        assert_eq!(pool.checksum(BufferId(1), None, 0).unwrap(), marker);
        assert_eq!(pool.checksum(BufferId(1), Some(5), 0).unwrap(), marker);
        assert_eq!(marker, BufferData::Generic(Box::new(Blob(5))).checksum());
        assert_ne!(marker, BufferData::Generic(Box::new(Blob(6))).checksum());
        assert!(matches!(
            pool.checksum(BufferId(1), Some(6), 0),
            Err(DeviceError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn admission_ledger_caps_at_capacity() {
        let mut pool = BufferPool::new(100, 0);
        pool.admission_reserve(60).unwrap();
        assert_eq!(pool.admission_reserved(), 60);
        assert_eq!(pool.admission_available(), 40);
        assert!(matches!(
            pool.admission_reserve(50).unwrap_err(),
            DeviceError::OutOfMemory {
                requested: 50,
                available: 40,
                ..
            }
        ));
        // Reservations are advisory: allocation still succeeds regardless.
        pool.insert(BufferId(1), buf(10)).unwrap();
        assert_eq!(pool.used(), 80);
        pool.admission_release(60);
        assert_eq!(pool.admission_reserved(), 0);
        pool.admission_release(1); // saturating, no underflow
        assert_eq!(pool.admission_reserved(), 0);
        // End-of-query buffer cleanup leaves the cross-query ledger alone.
        pool.admission_reserve(30).unwrap();
        pool.clear();
        assert_eq!(pool.admission_reserved(), 30);
    }

    /// A simulated device with `capacity` bytes of device memory and
    /// `pinned` bytes of pinned memory, initialized.
    fn sim(capacity: u64, pinned: u64) -> crate::sim::SimDevice {
        use crate::device::{Device, DeviceId, DeviceInfo, DeviceKind};
        let info = DeviceInfo {
            id: DeviceId(0),
            name: "pool-test".into(),
            kind: DeviceKind::Gpu,
            sdk: crate::sdk::SdkKind::Cuda,
            memory_capacity: capacity,
            pinned_capacity: pinned,
        };
        let cost = crate::cost::CostModel::default();
        let mut dev = crate::sim::SimDevice::new(info, cost, Default::default(), false);
        dev.initialize().unwrap();
        dev
    }

    #[test]
    fn a_write_past_the_pinned_region_is_refused_and_changes_nothing() {
        use crate::device::Device;
        let mut dev = sim(1 << 20, 64);
        dev.add_pinned_memory(BufferId(1), 16).unwrap();
        dev.place_data(BufferId(1), BufferData::I64(vec![1, 2]), 0)
            .unwrap();
        let clock = dev.clock().total_ns();
        // 16 i64 = 128 B into the 64 B region, then a reservation that
        // does not fit: typed errors, not an underflow.
        let grown = dev.place_data(BufferId(1), BufferData::I64(vec![1; 16]), 0);
        let next = dev.add_pinned_memory(BufferId(2), 56);
        assert!(matches!(
            grown,
            Err(DeviceError::OutOfPinnedMemory {
                requested: 112,
                available: 48
            })
        ));
        assert!(matches!(
            next,
            Err(DeviceError::OutOfPinnedMemory {
                requested: 56,
                available: 48
            })
        ));
        // A splice that would grow the buffer to 72 B is refused too.
        assert!(matches!(
            dev.place_data(BufferId(1), BufferData::I64(vec![9]), 8),
            Err(DeviceError::OutOfPinnedMemory {
                requested: 56,
                available: 48
            })
        ));
        assert_eq!(
            dev.clock().total_ns(),
            clock,
            "a refused call charges nothing"
        );
        assert_eq!(dev.pool().pinned_used(), 16);
        assert_eq!(
            dev.retrieve_data(BufferId(1), None, 0).unwrap(),
            BufferData::I64(vec![1, 2])
        );
        dev.add_pinned_memory(BufferId(3), 48).unwrap();
        assert_eq!(dev.pool().pinned_used(), 64);
    }

    #[test]
    fn a_write_past_the_device_region_is_refused_and_changes_nothing() {
        use crate::device::Device;
        let mut dev = sim(1024, 0);
        dev.prepare_memory(BufferId(1), 64).unwrap();
        dev.place_data(BufferId(1), BufferData::I64(vec![7; 8]), 0)
            .unwrap();
        // 200 i64 = 1600 B wholesale, and a splice out to element 200.
        for (data, offset) in [(vec![1; 200], 0), (vec![1], 200)] {
            let grown = dev.place_data(BufferId(1), BufferData::I64(data), offset);
            assert_eq!((dev.pool().used(), dev.pool().peak()), (64, 64));
            assert_eq!(
                dev.retrieve_data(BufferId(1), None, 0).unwrap(),
                BufferData::I64(vec![7; 8])
            );
            assert!(matches!(
                grown,
                Err(DeviceError::OutOfMemory {
                    available: 960,
                    capacity: 1024,
                    ..
                })
            ));
        }
        dev.prepare_memory(BufferId(2), 960).unwrap();
        assert_eq!(dev.pool().used(), 1024);
    }

    #[test]
    fn clear_resets() {
        let mut pool = BufferPool::new(1000, 100);
        pool.insert(BufferId(1), buf(10)).unwrap();
        pool.clear();
        assert_eq!(pool.used(), 0);
        assert!(pool.buffers.is_empty() && pool.taken.is_empty());
    }
}
