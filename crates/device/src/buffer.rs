//! Device-resident buffers.
//!
//! Buffers are *typed* (the I/O semantics of the task layer map onto payload
//! kinds) and tagged with the [`SdkRepr`] they are currently interpreted as.
//! In this simulation the payload physically lives in host memory, but it is
//! owned by the device's bounded pool and can only be read back through
//! `retrieve_data` — the runtime never reaches around the interface.
//!
//! Because the payload lives in host memory, an upload of rows nobody writes
//! need not copy them: [`BufferData::Shared`] is a view of immutable `i64`
//! rows held by reference ([`SharedI64`]), the same kind as
//! [`BufferData::I64`] to every reader, the pool's accounting and the cost
//! model. A slice of it is a sub-view, and whatever writes it — a splice, an
//! injected bit flip — first makes it an owned copy, so a write lands on the
//! device's rows and never on the host's. The modeled transfer is charged
//! exactly as for an owned payload; only the host's `memcpy` is gone.
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
use std::ops::Range;
use std::sync::Arc;

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

/// Rows `range` of an immutable `i64` vector shared by reference — the
/// payload of [`BufferData::Shared`]. A clone bumps a reference count, a
/// sub-view narrows the range, and nothing ever writes the rows.
#[derive(Clone)]
pub struct SharedI64 {
    rows: Arc<Vec<i64>>,
    range: Range<usize>,
}

impl SharedI64 {
    /// Rows `range` of `rows`, clamped to their length.
    pub fn new(rows: Arc<Vec<i64>>, range: Range<usize>) -> Self {
        let end = range.end.min(rows.len());
        let start = range.start.min(end);
        SharedI64 {
            rows,
            range: start..end,
        }
    }

    /// The viewed rows.
    pub fn as_slice(&self) -> &[i64] {
        &self.rows[self.range.clone()]
    }

    /// Rows `offset..offset+len` of the view, saturating at its end: a
    /// sub-view of the same vector.
    fn slice(&self, offset: usize, len: usize) -> SharedI64 {
        let start = self.range.start.saturating_add(offset);
        SharedI64::new(
            Arc::clone(&self.rows),
            start..start.saturating_add(len).min(self.range.end),
        )
    }
}

/// The range and its length, not the rows: a chunk's view would otherwise
/// print the whole column behind it.
impl fmt::Debug for SharedI64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedI64")
            .field("range", &self.range)
            .field("len", &self.range.len())
            .finish()
    }
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
    /// 64-bit integers shared by reference with the host's immutable rows:
    /// the same kind as [`BufferData::I64`] (equal length, byte length,
    /// checksum and `kind()` for equal rows), made an owned `I64` before
    /// anything writes it.
    Shared(SharedI64),
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
            BufferData::Shared(v) => BufferData::Shared(v.clone()),
            BufferData::U32(v) => BufferData::U32(v.clone()),
            BufferData::BitWords(v) => BufferData::BitWords(v.clone()),
            BufferData::Raw(v) => BufferData::Raw(v.clone()),
            BufferData::Generic(g) => BufferData::Generic(g.clone_box()),
        }
    }
}

/// Content equality; an owned and a shared `i64` payload of the same rows
/// are equal.
impl PartialEq for BufferData {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (BufferData::U32(a), BufferData::U32(b)) => a == b,
            (BufferData::BitWords(a), BufferData::BitWords(b)) => a == b,
            (BufferData::Raw(a), BufferData::Raw(b)) => a == b,
            // `i64` rows compare by content, owned or shared; opaque
            // structures are never considered equal.
            _ => matches!((self.as_i64(), other.as_i64()), (Some(a), Some(b)) if a == b),
        }
    }
}

impl BufferData {
    /// Number of logical elements.
    pub fn len(&self) -> usize {
        match self {
            BufferData::I64(v) => v.len(),
            BufferData::Shared(v) => v.range.len(),
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
            BufferData::Shared(v) => (v.range.len() * 8) as u64,
            BufferData::U32(v) => (v.len() * 4) as u64,
            BufferData::BitWords(v) => (v.len() * 8) as u64,
            BufferData::Raw(v) => v.len() as u64,
            BufferData::Generic(g) => g.byte_len(),
        }
    }

    /// Short kind name, for error messages and for the pool's rule that a
    /// write matches its buffer's kind (owned and shared `i64` rows are one
    /// kind).
    pub fn kind(&self) -> &'static str {
        match self {
            BufferData::I64(_) | BufferData::Shared(_) => "i64",
            BufferData::U32(_) => "u32",
            BufferData::BitWords(_) => "bitwords",
            BufferData::Raw(_) => "raw",
            BufferData::Generic(_) => "generic",
        }
    }

    /// Elements `offset..offset+len` as a new payload: a copy, except for a
    /// shared payload, whose slice is a sub-view of the same rows.
    ///
    /// `Generic` payloads do not support slicing; they are cloned whole
    /// (chunking a hash table has no meaning — the runtime never does it).
    pub fn slice(&self, offset: usize, len: usize) -> BufferData {
        let end = offset.saturating_add(len).min(self.len());
        let offset = offset.min(end);
        match self {
            BufferData::I64(v) => BufferData::I64(v[offset..end].to_vec()),
            BufferData::Shared(v) => BufferData::Shared(v.slice(offset, end - offset)),
            BufferData::U32(v) => BufferData::U32(v[offset..end].to_vec()),
            BufferData::BitWords(v) => BufferData::BitWords(v[offset..end].to_vec()),
            BufferData::Raw(v) => BufferData::Raw(v[offset..end].to_vec()),
            BufferData::Generic(g) => BufferData::Generic(g.clone_box()),
        }
    }

    /// Borrows the payload as `i64`s, owned or shared.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            BufferData::I64(v) => Some(v),
            BufferData::Shared(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Copy on write: replaces a shared payload with an owned copy of its
    /// rows, so what writes it next writes this payload's own rows and never
    /// the ones it shares. Every other payload is owned already.
    pub(crate) fn make_owned(&mut self) {
        if let BufferData::Shared(v) = self {
            *self = BufferData::I64(v.as_slice().to_vec());
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
            BufferData::Shared(v) => Content::I64(&v.as_slice()[range]),
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
    /// flips that actually happened. A shared payload is copied first (copy
    /// on write): the flip damages this payload's own rows, not the host's.
    pub fn flip_bit(&mut self, element: usize) -> bool {
        if self.is_empty() {
            return false;
        }
        let i = element % self.len();
        self.make_owned();
        match self {
            BufferData::I64(v) => v[i] ^= 1,
            BufferData::U32(v) => v[i] ^= 1,
            BufferData::BitWords(v) => v[i] ^= 1,
            BufferData::Raw(v) => v[i] ^= 1,
            // A shared payload was made owned above.
            BufferData::Generic(_) | BufferData::Shared(_) => return false,
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

    /// Rows `range` of `rows`, as a shared payload.
    pub(crate) fn shared(rows: &Arc<Vec<i64>>, range: Range<usize>) -> BufferData {
        BufferData::Shared(SharedI64::new(Arc::clone(rows), range))
    }

    /// To every reader, a view of rows is an owned payload of those rows.
    #[test]
    fn a_shared_payload_reads_as_an_owned_one() {
        let rows = Arc::new((0..37).map(|i| i * 7919 - 5).collect::<Vec<i64>>());
        for range in [0..37, 0..0, 3..11, 36..37, 11..37] {
            let view = shared(&rows, range.clone());
            let owned = BufferData::I64(rows[range.clone()].to_vec());
            let facts = |d: &BufferData| (d.len(), d.byte_len(), d.kind(), d.checksum());
            assert_eq!(facts(&view), facts(&owned), "{range:?}");
            for (offset, len) in [(0, 0), (0, 5), (2, 3), (1, usize::MAX), (40, 1)] {
                assert_eq!(
                    view.checksum_range(offset, len),
                    owned.checksum_range(offset, len),
                    "{range:?} [{offset}, +{len})"
                );
                assert_eq!(view.slice(offset, len), owned.slice(offset, len));
            }
            assert_eq!(view.as_i64(), owned.as_i64());
            assert_eq!(view, owned, "{range:?}");
            assert_eq!(owned, view, "{range:?}");
        }
        assert_ne!(shared(&rows, 0..3), BufferData::I64(vec![-5, 7914, 7915]));
        assert_ne!(shared(&rows, 0..0), BufferData::U32(vec![]));
        // A range past the end is clamped, as `slice` saturates.
        assert_eq!(shared(&rows, 30..99), BufferData::I64(rows[30..].to_vec()));
        assert_eq!(shared(&rows, 50..60).len(), 0);
    }

    #[test]
    fn a_shared_payload_slices_and_clones_into_views_of_the_same_rows() {
        let rows = Arc::new((0..100).collect::<Vec<i64>>());
        let view = shared(&rows, 10..90);
        let (BufferData::Shared(sub), BufferData::Shared(copy)) = (view.slice(5, 10), view.clone())
        else {
            panic!("a slice or a clone of a view is a view");
        };
        assert!(Arc::ptr_eq(&sub.rows, &rows) && Arc::ptr_eq(&copy.rows, &rows));
        assert_eq!(sub.as_slice(), &rows[15..25]);
        assert_eq!(copy.as_slice(), &rows[10..90]);
        assert_eq!(view.slice(75, 10).as_i64(), Some(&rows[85..90]));
        assert_eq!(Arc::strong_count(&rows), 4);
    }

    #[test]
    fn a_bit_flip_lands_on_a_copy_of_shared_rows() {
        let rows = Arc::new((0..64).collect::<Vec<i64>>());
        let before = rows.to_vec();
        let mut view = shared(&rows, 8..40);
        assert!(view.flip_bit(13));
        assert_eq!(*rows, before, "the shared rows are untouched");
        assert!(matches!(view, BufferData::I64(_)), "the flip made it owned");
        assert_eq!(view, dirty_at(&BufferData::I64(before[8..40].to_vec()), 13));
        assert_eq!(Arc::strong_count(&rows), 1);
        assert!(!shared(&rows, 3..3).flip_bit(0));
    }

    /// A chunk's view prints where it lies, not the column behind it.
    #[test]
    fn a_shared_payload_prints_its_range_not_its_rows() {
        let rows = Arc::new(vec![7i64; 10_000]);
        assert_eq!(
            format!("{:?}", shared(&rows, 100..612)),
            "Shared(SharedI64 { range: 100..612, len: 512 })"
        );
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
