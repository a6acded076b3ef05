//! Device-resident buffers.
//!
//! Buffers are *typed* (the I/O semantics of the task layer map onto payload
//! kinds) and tagged with the [`SdkRepr`] they are currently interpreted as.
//! In this simulation the payload physically lives in host memory, but it is
//! owned by the device's bounded pool and can only be read back through
//! `retrieve_data` — the runtime never reaches around the interface.
//!
//! [`BufferData::checksum`] is what both ends of a transfer compare. It is
//! the engine's one content hash (`adamant_storage::fnv::content_hash`):
//! word-parallel, tagged with the payload kind and the element count, and
//! computable over a sub-range in place ([`BufferData::checksum_range`]) so
//! the device's echo never copies what it vouches for.

use crate::sdk::SdkRepr;
use adamant_storage::fnv::{content_hash, Content};
use std::any::Any;
use std::fmt;

/// Identifier for a buffer within one device's pool.
///
/// The paper's listings use a `short alias`; a `u64` newtype plays the same
/// role without collision risk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u64);

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf#{}", self.0)
    }
}

/// A device-resident opaque structure (the paper's `HASH_TABLE` and
/// `GENERIC` I/O semantics — hash tables, custom tree indexes, …).
///
/// The device layer only needs to know its size (for pool accounting) and
/// how to clone it; the task layer downcasts through `as_any` to operate on
/// the concrete structure.
pub trait GenericPayload: Send + Sync + fmt::Debug {
    /// Bytes the structure occupies in device memory.
    fn byte_len(&self) -> u64;
    /// Logical element count (entries for a hash table).
    fn len(&self) -> usize;
    /// True when the structure holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Clones the structure behind the trait object.
    fn clone_box(&self) -> Box<dyn GenericPayload>;
    /// Downcasting support.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Typed buffer payload.
///
/// Kernels operate on these payloads directly, which keeps the whole engine
/// free of `unsafe` byte-casting while preserving per-element byte accounting
/// for the cost model.
#[derive(Debug)]
pub enum BufferData {
    /// 64-bit integers (`NUMERIC` semantics; 32-bit inputs are widened on
    /// placement, with the *transfer* still billed at their true width).
    I64(Vec<i64>),
    /// 32-bit positions (`POSITION` semantics).
    U32(Vec<u32>),
    /// Packed bitmap words (`BITMAP` semantics).
    BitWords(Vec<u64>),
    /// Raw bytes (`GENERIC` semantics, e.g. serialized custom structures).
    Raw(Vec<u8>),
    /// An opaque device-resident structure (`HASH_TABLE`/`GENERIC`).
    Generic(Box<dyn GenericPayload>),
}

impl Clone for BufferData {
    fn clone(&self) -> Self {
        match self {
            BufferData::I64(v) => BufferData::I64(v.clone()),
            BufferData::U32(v) => BufferData::U32(v.clone()),
            BufferData::BitWords(v) => BufferData::BitWords(v.clone()),
            BufferData::Raw(v) => BufferData::Raw(v.clone()),
            BufferData::Generic(g) => BufferData::Generic(g.clone_box()),
        }
    }
}

impl PartialEq for BufferData {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (BufferData::I64(a), BufferData::I64(b)) => a == b,
            (BufferData::U32(a), BufferData::U32(b)) => a == b,
            (BufferData::BitWords(a), BufferData::BitWords(b)) => a == b,
            (BufferData::Raw(a), BufferData::Raw(b)) => a == b,
            // Opaque structures are never considered equal.
            _ => false,
        }
    }
}

impl BufferData {
    /// Number of logical elements.
    pub fn len(&self) -> usize {
        match self {
            BufferData::I64(v) => v.len(),
            BufferData::U32(v) => v.len(),
            BufferData::BitWords(v) => v.len(),
            BufferData::Raw(v) => v.len(),
            BufferData::Generic(g) => g.len(),
        }
    }

    /// True when the payload holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied in device memory.
    pub fn byte_len(&self) -> u64 {
        match self {
            BufferData::I64(v) => (v.len() * 8) as u64,
            BufferData::U32(v) => (v.len() * 4) as u64,
            BufferData::BitWords(v) => (v.len() * 8) as u64,
            BufferData::Raw(v) => v.len() as u64,
            BufferData::Generic(g) => g.byte_len(),
        }
    }

    /// Short kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            BufferData::I64(_) => "i64",
            BufferData::U32(_) => "u32",
            BufferData::BitWords(_) => "bitwords",
            BufferData::Raw(_) => "raw",
            BufferData::Generic(_) => "generic",
        }
    }

    /// Copies elements `offset..offset+len` into a new payload.
    ///
    /// `Generic` payloads do not support slicing; they are cloned whole
    /// (chunking a hash table has no meaning — the runtime never does it).
    pub fn slice(&self, offset: usize, len: usize) -> BufferData {
        let end = offset.saturating_add(len).min(self.len());
        let offset = offset.min(end);
        match self {
            BufferData::I64(v) => BufferData::I64(v[offset..end].to_vec()),
            BufferData::U32(v) => BufferData::U32(v[offset..end].to_vec()),
            BufferData::BitWords(v) => BufferData::BitWords(v[offset..end].to_vec()),
            BufferData::Raw(v) => BufferData::Raw(v[offset..end].to_vec()),
            BufferData::Generic(g) => BufferData::Generic(g.clone_box()),
        }
    }

    /// Borrows the payload as `i64`s.
    pub fn as_i64(&self) -> Option<&Vec<i64>> {
        match self {
            BufferData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the payload as positions.
    pub fn as_u32(&self) -> Option<&Vec<u32>> {
        match self {
            BufferData::U32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the payload as bitmap words.
    pub fn as_bitwords(&self) -> Option<&Vec<u64>> {
        match self {
            BufferData::BitWords(v) => Some(v),
            _ => None,
        }
    }

    /// Downcasts a generic payload to a concrete type.
    pub fn as_generic<T: 'static>(&self) -> Option<&T> {
        match self {
            BufferData::Generic(g) => g.as_any().downcast_ref::<T>(),
            _ => None,
        }
    }

    /// Mutably downcasts a generic payload to a concrete type.
    pub fn as_generic_mut<T: 'static>(&mut self) -> Option<&mut T> {
        match self {
            BufferData::Generic(g) => g.as_any_mut().downcast_mut::<T>(),
            _ => None,
        }
    }

    /// Content checksum of the whole payload: [`Self::checksum_range`] over
    /// every element.
    ///
    /// The transfer-integrity protocol compares this on both ends of a
    /// host↔device copy: the hub checksums what it sent, the device echoes
    /// the checksum of what it stored, and a mismatch triggers a retransmit.
    pub fn checksum(&self) -> u64 {
        self.checksum_range(0, self.len())
    }

    /// Content checksum of elements `offset..offset+len`, hashed where they
    /// lie — equal to `self.slice(offset, len).checksum()` without the copy
    /// (and saturating at the end of the payload as `slice` does).
    ///
    /// The hash covers the payload kind and the element count besides the
    /// elements, so payloads of different kinds or lengths never verify
    /// against each other. `Generic` payloads hash a structural marker
    /// (kind, element count, byte length) only, whatever the range — opaque
    /// structures are built *on* the device, never shipped over the
    /// simulated bus, so their content never transits.
    pub fn checksum_range(&self, offset: usize, len: usize) -> u64 {
        let end = offset.saturating_add(len).min(self.len());
        let range = offset.min(end)..end;
        content_hash(match self {
            BufferData::I64(v) => Content::I64(&v[range]),
            BufferData::U32(v) => Content::U32(&v[range]),
            BufferData::BitWords(v) => Content::BitWords(&v[range]),
            BufferData::Raw(v) => Content::Raw(&v[range]),
            BufferData::Generic(g) => Content::Opaque {
                len: g.len() as u64,
                byte_len: g.byte_len(),
            },
        })
    }

    /// Flips the low bit of the element at `element % len` (fault injection:
    /// a single-bit DMA error). Returns `false` when there is nothing to
    /// corrupt (empty or opaque payload), so the injector can count only
    /// flips that actually happened.
    pub fn flip_bit(&mut self, element: usize) -> bool {
        if self.is_empty() {
            return false;
        }
        let i = element % self.len();
        match self {
            BufferData::I64(v) => v[i] ^= 1,
            BufferData::U32(v) => v[i] ^= 1,
            BufferData::BitWords(v) => v[i] ^= 1,
            BufferData::Raw(v) => v[i] ^= 1,
            BufferData::Generic(_) => return false,
        }
        true
    }
}

/// A buffer held by a device pool.
#[derive(Clone, Debug)]
pub struct Buffer {
    /// Current payload.
    pub data: BufferData,
    /// SDK representation this buffer is currently tagged as.
    pub repr: SdkRepr,
    /// Whether the buffer lives in the pinned (host-accessible) pool.
    pub pinned: bool,
    /// Bytes *reserved* in the pool for this buffer.
    ///
    /// `prepare_memory`/`add_pinned_memory` reserve a fixed region up front
    /// (as a real device allocation does); the payload may be smaller. Pool
    /// accounting always uses `reserved_bytes.max(data.byte_len())`.
    pub reserved_bytes: u64,
}

impl Buffer {
    /// Bytes this buffer occupies in pool accounting.
    pub fn footprint(&self) -> u64 {
        self.reserved_bytes.max(self.data.byte_len())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn byte_lengths() {
        assert_eq!(BufferData::I64(vec![1, 2]).byte_len(), 16);
        assert_eq!(BufferData::U32(vec![1, 2, 3]).byte_len(), 12);
        assert_eq!(BufferData::BitWords(vec![0]).byte_len(), 8);
        assert_eq!(BufferData::Raw(vec![0; 5]).byte_len(), 5);
    }

    #[test]
    fn slicing() {
        let d = BufferData::I64((0..10).collect());
        assert_eq!(d.slice(8, 5), BufferData::I64(vec![8, 9]));
        assert_eq!(d.slice(20, 5).len(), 0);
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let clean = BufferData::I64((0..64).collect());
        let base = clean.checksum();
        assert_eq!(base, clean.clone().checksum(), "checksum is pure");
        let mut dirty = clean.clone();
        assert!(dirty.flip_bit(13));
        assert_ne!(dirty.checksum(), base);
        assert!(dirty.flip_bit(13), "flip is an involution");
        assert_eq!(dirty.checksum(), base);
        // Out-of-range element indexes wrap instead of panicking.
        let mut d2 = clean.clone();
        assert!(d2.flip_bit(64 + 13));
        assert_eq!(d2, dirty_at(&clean, 13));
    }

    fn dirty_at(d: &BufferData, i: usize) -> BufferData {
        let mut c = d.clone();
        c.flip_bit(i);
        c
    }

    #[test]
    fn checksums_differ_across_kinds_and_contents() {
        let a = BufferData::I64(vec![1, 2, 3]).checksum();
        let b = BufferData::I64(vec![1, 2, 4]).checksum();
        let c = BufferData::U32(vec![1, 2, 3]).checksum();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            BufferData::Raw(vec![]).checksum(),
            BufferData::Raw(Vec::new()).checksum()
        );
    }

    /// Checksums are compared across the simulated bus, sealed into
    /// checkpoints and pinned by the golden stats: the hash must not drift.
    #[test]
    fn checksum_values_are_pinned() {
        let pinned: [(BufferData, u64); 6] = [
            (BufferData::I64(vec![1, -2, 3]), 11357866896077846762),
            (BufferData::U32(vec![7, 8, 9]), 7385504724775396070),
            (
                BufferData::BitWords(vec![0xdead_beef, 1]),
                13642631494642883280,
            ),
            (BufferData::Raw(b"adamant".to_vec()), 16667896223839231331),
            (BufferData::I64(Vec::new()), 12490462554737973041),
            (BufferData::Generic(Box::new(Blob(3))), 1208769418905113923),
        ];
        for (data, want) in pinned {
            assert_eq!(data.checksum(), want, "{data:?}");
        }
    }

    /// An opaque structure of `n` 32-byte entries.
    #[derive(Clone, Debug)]
    pub(crate) struct Blob(pub usize);

    impl GenericPayload for Blob {
        fn byte_len(&self) -> u64 {
            32 * self.0 as u64
        }
        fn len(&self) -> usize {
            self.0
        }
        fn clone_box(&self) -> Box<dyn GenericPayload> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The checksum covers kind and element count: an echo of the wrong kind
    /// or length with the same bits must not verify.
    #[test]
    fn checksum_covers_kind_and_count() {
        let x = 0x4045_0000_0000_0007u64;
        let same_bits = [
            BufferData::I64(vec![x as i64]),
            BufferData::BitWords(vec![x]),
            BufferData::Raw(x.to_le_bytes().to_vec()),
            BufferData::U32(vec![x as u32, (x >> 32) as u32]),
        ];
        let empties = [
            BufferData::I64(vec![]),
            BufferData::U32(vec![]),
            BufferData::BitWords(vec![]),
            BufferData::Raw(vec![]),
        ];
        let zeros = [
            BufferData::I64(vec![]),
            BufferData::I64(vec![0]),
            BufferData::I64(vec![0, 0]),
        ];
        for set in [&same_bits[..], &empties[..], &zeros[..]] {
            for (i, a) in set.iter().enumerate() {
                for b in &set[i + 1..] {
                    assert_ne!(a.checksum(), b.checksum(), "{a:?} vs {b:?}");
                }
            }
        }
    }

    /// Hashing a range in place is hashing its copy.
    #[test]
    fn checksum_range_is_the_checksum_of_the_slice() {
        let n = 37; // four whole rounds of lanes and an unaligned tail
        let payloads = [
            BufferData::I64((0..n).map(|i| i * 7919 - 5).collect()),
            BufferData::U32((0..n as u32).map(|i| i.wrapping_mul(40503)).collect()),
            BufferData::BitWords((0..n as u64).map(|i| !i << 7).collect()),
            BufferData::Raw((0..n as u8).map(|i| i.wrapping_mul(37)).collect()),
            BufferData::Generic(Box::new(Blob(n as usize))),
        ];
        let n = n as usize;
        // Empty, whole, prefix, lane-unaligned tail, last element, and the
        // past-the-end ranges `slice` saturates on.
        let ranges = [
            (0, 0),
            (5, 0),
            (0, n),
            (0, 9),
            (3, 8),
            (11, n - 11),
            (n - 1, 1),
            (n, 0),
            (n - 2, 5),
            (n + 3, 1),
            (1, usize::MAX),
        ];
        for data in &payloads {
            for (offset, len) in ranges {
                assert_eq!(
                    data.checksum_range(offset, len),
                    data.slice(offset, len).checksum(),
                    "{} [{offset}, +{len})",
                    data.kind()
                );
            }
            assert_eq!(data.checksum(), data.checksum_range(0, n));
        }
    }

    #[test]
    fn empty_payloads_cannot_be_corrupted() {
        assert!(!BufferData::I64(vec![]).flip_bit(0));
        let mut f = BufferData::U32(vec![5]);
        assert!(f.flip_bit(0));
        assert_ne!(f, BufferData::U32(vec![5]));
    }

    #[test]
    fn footprint_uses_max() {
        let b = Buffer {
            data: BufferData::I64(vec![1, 2, 3]),
            repr: SdkRepr::HostVec,
            pinned: false,
            reserved_bytes: 100,
        };
        assert_eq!(b.footprint(), 100);
        let b2 = Buffer {
            data: BufferData::I64(vec![0; 100]),
            repr: SdkRepr::HostVec,
            pinned: false,
            reserved_bytes: 8,
        };
        assert_eq!(b2.footprint(), 800);
    }
}
