//! Cross-query device-residency cache.
//!
//! Every run used to re-ship its input columns to the device from scratch
//! (the hub's `load_bound_input` placed the whole column per run), so steady-state
//! traffic paid the cold transfer cost forever. The [`ResidencyCache`] pins
//! hot input columns device-side *across* queries: the hub consults it
//! before any transfer, serves hits without touching the bus, and stages
//! chunks out of a pinned column with a device-internal copy instead of a
//! fresh host→device upload.
//!
//! # Pin / evict lifecycle
//!
//! * **Pin** — on a miss the hub asks the cache to reserve space
//!   ([`ResidencyCache::begin_pin`]). The reservation is charged against the
//!   device pool's *admission* ledger — the same per-device budget the
//!   multi-query scheduler's query reservations draw from — so cache pins
//!   and admitted queries can never jointly overcommit a device. The hub
//!   then uploads the column through its checksummed `place_verified` path
//!   and commits ([`ResidencyCache::commit_pin`]) or aborts
//!   ([`ResidencyCache::abort_pin`]) the entry.
//! * **Hit** — a valid entry (fingerprint match, buffer still in the pool)
//!   is served in place; nothing crosses the bus.
//! * **Fingerprint** — an entry remembers the element count and the content
//!   hash of the column it was pinned from, and every lookup compares both
//!   with the column bound now, so a rebound input with different contents
//!   can never hit. The fingerprint *is* the upload's sender-side checksum
//!   (`adamant_storage::fnv::content_hash` over the `i64` rows). Hashing a
//!   column once per lookup made the cache cost the host more than it saved,
//!   so the rows are hashed at most once per *column*: their block digests
//!   live in a cell beside the immutable `Arc<Vec<i64>>` they were computed
//!   from (an `adamant_storage::column::SharedRows`, made by the catalog
//!   column and shared by every [`crate::executor::QueryInputs`] bound from
//!   it), the fingerprint is their fold, and the pair travels down as a
//!   `BoundRows`. The same digests answer the sender checksum of every chunk
//!   upload on the block grid. They are keyed by nothing — re-binding a
//!   name replaces rows and cell together.
//! * **Evict** — pins are evicted in LRU order (ties broken by the lowest
//!   modeled re-transfer cost, then name) whenever the per-device budget or
//!   the admission ledger needs room. Eviction frees the device buffer and
//!   releases the admission charge, so admission can always reclaim pinned
//!   bytes — pins yield, queries are never starved (no deadlock).
//! * **Invalidate** — fault recovery (an attempt that ran out of memory on
//!   a device, the device's death) drops the device's entries instead of
//!   trusting — or leaking — them.
//!
//! Cache-owned buffer ids live in their own id range (`1 << 48` up) so they
//! can never collide with the hub's per-run ids, which restart at 1 each
//! run.

use crate::hub::Payload;
use adamant_device::buffer::{BufferData, BufferId, SharedI64};
use adamant_device::device::DeviceId;
use adamant_device::registry::DeviceRegistry;
use adamant_storage::column::SharedRows;
use adamant_storage::fnv::{content_hash, Content};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// First buffer id the cache allocates from — far above any per-run hub id.
const CACHE_ID_BASE: u64 = 1 << 48;

/// Configuration for the [`ResidencyCache`].
#[derive(Clone, Copy, Debug)]
pub struct ResidencyConfig {
    max_bytes_per_device: u64,
}

impl ResidencyConfig {
    /// A cache allowed to pin up to `max_bytes_per_device` bytes of input
    /// columns on each device.
    pub fn new(max_bytes_per_device: u64) -> Self {
        ResidencyConfig {
            max_bytes_per_device,
        }
    }
}

/// Counters the executor drains into `ExecutionStats` after each run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResidencyCounters {
    /// Inputs served from a pin created by an *earlier* run (first touch per
    /// run per `(device, input)`).
    pub hits: usize,
    /// First-touch lookups that found no usable pin.
    pub misses: usize,
    /// Entries evicted to make room (budget or admission pressure).
    pub evictions: usize,
    /// Entries dropped by fault recovery or staleness detection.
    pub invalidations: usize,
    /// Modeled host→device nanoseconds the cache avoided (whole-input hits
    /// and chunk stagings served device-internally).
    pub saved_transfer_ns: f64,
}

#[derive(Clone, Debug)]
struct Entry {
    id: BufferId,
    bytes: u64,
    /// Input fingerprint: element count + content hash of the column. A
    /// rebound input with different contents must never serve a stale hit.
    len: usize,
    fingerprint: u64,
    /// Recency stamp for LRU ordering.
    last_used: u64,
    /// Modeled cost of re-uploading this column, the eviction tie-breaker:
    /// among equally old entries the cheapest to restore goes first.
    transfer_cost_ns: f64,
    /// Generation (run number) the entry was pinned in — hits only count
    /// once the pin survives into a later run.
    pinned_gen: u64,
}

/// The fingerprint of a column: the content hash of its rows, i.e. exactly
/// the sender-side checksum of uploading it whole.
fn fingerprint(column: &[i64]) -> u64 {
    content_hash(Content::I64(column))
}

/// A bound column as the cache and the uploads see it: the rows, and whoever
/// keeps their block digests once something asked for them.
///
/// Nobody outside [`SharedRows`] pairs rows with a memo: a binding
/// ([`crate::executor::QueryInputs`], and behind it the catalog column)
/// arrives as [`BoundRows::kept`] and answers from the cell it has carried
/// since the pair was made; the slice-taking public forms of the cache and
/// the hub have no cell and hash when asked ([`BoundRows::bare`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BoundRows<'a> {
    pub(crate) rows: &'a [i64],
    kept: Option<&'a SharedRows>,
}

/// Rows `range` of a bound column on their way to a device (a
/// [`crate::hub::Payload`]): a chunk, or the whole column.
///
/// A kept binding's rows are immutable and held by reference, so the device
/// is handed a view of them ([`BufferData::Shared`]) on every transmission,
/// and nothing is copied; a write on the device side copies first. The
/// sender checksum is folded from the column's memo when the memo serves the
/// range and hashed in place otherwise; the memo vouches for exactly what
/// that hash would. A bare slice has no `Arc` to share: it is copied, and
/// hashed in the same pass.
#[derive(Debug)]
pub struct BoundRange<'a> {
    column: BoundRows<'a>,
    range: Range<usize>,
}

impl<'a> BoundRange<'a> {
    /// Rows `range` of `rows`, checksummed from their memo where it serves.
    pub fn new(rows: &'a SharedRows, range: Range<usize>) -> Self {
        BoundRows::kept(rows).range(range)
    }

    /// Rows `range` of `shared`, as a view of its vector.
    fn view(&self, shared: &SharedRows) -> BufferData {
        BufferData::Shared(SharedI64::new(
            Arc::clone(shared.rows()),
            self.range.clone(),
        ))
    }
}

impl Payload for BoundRange<'_> {
    fn to_buffer_and_checksum(&self) -> (BufferData, u64) {
        let Some(shared) = self.column.kept else {
            return self.column.rows[self.range.clone()].to_buffer_and_checksum();
        };
        let view = self.view(shared);
        let checksum = shared
            .range_hash(self.range.clone())
            .unwrap_or_else(|| view.checksum());
        (view, checksum)
    }
    fn to_buffer(&self) -> BufferData {
        match self.column.kept {
            Some(shared) => self.view(shared),
            None => self.column.rows[self.range.clone()].to_buffer(),
        }
    }
}

impl<'a> BoundRows<'a> {
    /// Rows whose block digests, and so fingerprint, are remembered beside
    /// them.
    pub(crate) fn kept(shared: &'a SharedRows) -> Self {
        BoundRows {
            rows: shared.rows(),
            kept: Some(shared),
        }
    }

    /// A bare slice: hashed each time its fingerprint is needed.
    pub(crate) fn bare(rows: &'a [i64]) -> Self {
        BoundRows { rows, kept: None }
    }

    /// Rows `range`, as an upload payload.
    pub(crate) fn range(self, range: Range<usize>) -> BoundRange<'a> {
        BoundRange {
            column: self,
            range,
        }
    }

    /// Every row, as an upload payload.
    pub(crate) fn whole(self) -> BoundRange<'a> {
        self.range(0..self.rows.len())
    }

    /// The rows' fingerprint: remembered if the binding keeps it, hashed on
    /// the spot otherwise.
    fn fingerprint(&self) -> u64 {
        match self.kept {
            Some(shared) => shared.content_hash(),
            None => fingerprint(self.rows),
        }
    }

    /// Whether `entry` was pinned from exactly these rows. The length is
    /// compared first, so a column of another length is never hashed.
    fn matches(&self, entry: &Entry) -> bool {
        entry.len == self.rows.len() && entry.fingerprint == self.fingerprint()
    }
}

/// The cross-query device-residency cache. Owned by the executor between
/// runs and lent to the hub during one; see the module docs for the
/// lifecycle.
#[derive(Debug)]
pub struct ResidencyCache {
    config: ResidencyConfig,
    next_id: u64,
    seq: u64,
    generation: u64,
    entries: BTreeMap<(DeviceId, String), Entry>,
    /// `(device, input)` pairs already counted toward hit/miss this run.
    seen_this_run: BTreeSet<(DeviceId, String)>,
    /// Buffers freed by eviction/invalidation since the last
    /// [`ResidencyCache::take_freed`] drain — the hub purges any per-run
    /// residency entries still pointing at them.
    freed: Vec<(DeviceId, BufferId)>,
    counters: ResidencyCounters,
    pinned: BTreeMap<DeviceId, u64>,
}

impl ResidencyCache {
    /// Creates an empty cache with the given per-device budget.
    pub fn new(config: ResidencyConfig) -> Self {
        ResidencyCache {
            config,
            next_id: CACHE_ID_BASE,
            seq: 0,
            generation: 0,
            entries: BTreeMap::new(),
            seen_this_run: BTreeSet::new(),
            freed: Vec::new(),
            counters: ResidencyCounters::default(),
            pinned: BTreeMap::new(),
        }
    }

    /// Whether nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently pinned on `device`.
    pub fn pinned_bytes_on(&self, device: DeviceId) -> u64 {
        self.pinned.get(&device).copied().unwrap_or(0)
    }

    /// Bytes currently pinned across all devices.
    pub fn total_pinned_bytes(&self) -> u64 {
        self.pinned.values().sum()
    }

    /// Marks the start of a new run: bumps the hit-accounting generation and
    /// forgets which inputs this run already touched.
    pub fn begin_run(&mut self) {
        self.generation += 1;
        self.seen_this_run.clear();
    }

    /// Looks up a valid pin of `(device, name)` matching `column`,
    /// counting a cross-run hit or a miss on the first touch per run.
    ///
    /// A stale entry (fingerprint mismatch, or its buffer vanished from the
    /// pool — e.g. a device reset) is invalidated on the spot, releasing its
    /// admission charge, and reported as a miss.
    ///
    /// This is the thin public form: it fingerprints `column` when an entry
    /// of its length is there to compare with. The hub goes through the
    /// crate-internal `lookup_bound` with the fingerprint kept beside the
    /// binding.
    pub fn lookup(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        name: &str,
        column: &[i64],
    ) -> Option<BufferId> {
        self.lookup_bound(devices, device, name, BoundRows::bare(column))
    }

    /// [`Self::lookup`] for a column whose fingerprint is kept with its
    /// binding: the same validation (stored length and fingerprint against
    /// the bound column's, buffer still pooled) and the same recency and
    /// hit/miss accounting on every call — only the hashing is not repeated.
    pub(crate) fn lookup_bound(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        name: &str,
        column: BoundRows<'_>,
    ) -> Option<BufferId> {
        let key = (device, name.to_string());
        let valid = match self.entries.get(&key) {
            Some(e) => {
                column.matches(e)
                    && devices
                        .get(device)
                        .map(|d| d.pool().contains(e.id))
                        .unwrap_or(false)
            }
            None => false,
        };
        if !valid && self.entries.contains_key(&key) {
            self.remove_entry(devices, &key, true);
        }
        let first_touch = self.seen_this_run.insert(key.clone());
        if !valid {
            if first_touch {
                self.counters.misses += 1;
            }
            return None;
        }
        self.seq += 1;
        let gen = self.generation;
        let entry = self.entries.get_mut(&key).expect("validated above");
        entry.last_used = self.seq;
        if first_touch && entry.pinned_gen < gen {
            self.counters.hits += 1;
        }
        Some(entry.id)
    }

    /// Records modeled host→device nanoseconds a cache-served transfer
    /// avoided.
    pub fn note_saved_transfer_ns(&mut self, ns: f64) {
        self.counters.saved_transfer_ns += ns;
    }

    /// Reserves room to pin `column` on `device`: evicts LRU entries until
    /// the column fits the per-device budget *and* the pool's admission
    /// ledger accepts the charge, then allocates a cache-owned buffer id.
    ///
    /// Returns `None` (bypass — the caller uploads uncached) when the column
    /// exceeds the budget outright or admission cannot take it even with
    /// every own pin evicted. On `Some(id)` the admission charge is held;
    /// the caller must follow up with [`ResidencyCache::commit_pin`] or
    /// [`ResidencyCache::abort_pin`].
    pub fn begin_pin(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        column: &[i64],
    ) -> Option<BufferId> {
        let bytes = (column.len() as u64) * 8;
        if bytes == 0 || bytes > self.config.max_bytes_per_device {
            return None;
        }
        while self.pinned_bytes_on(device) + bytes > self.config.max_bytes_per_device {
            if self.evict_lru_on(devices, device) == 0 {
                return None;
            }
        }
        loop {
            let reserved = devices
                .get_mut(device)
                .ok()?
                .pool_mut()
                .admission_reserve(bytes);
            match reserved {
                Ok(()) => break,
                Err(_) => {
                    if self.evict_lru_on(devices, device) == 0 {
                        return None;
                    }
                }
            }
        }
        self.next_id += 1;
        Some(BufferId(self.next_id))
    }

    /// Commits a pin whose upload succeeded (the thin public form: it
    /// fingerprints `column` here).
    pub fn commit_pin(
        &mut self,
        device: DeviceId,
        name: &str,
        column: &[i64],
        id: BufferId,
        transfer_cost_ns: f64,
    ) {
        self.commit_pin_bound(device, name, BoundRows::bare(column), id, transfer_cost_ns)
    }

    /// Commits a pin whose upload succeeded, remembering the length and the
    /// fingerprint of the column it was uploaded from.
    pub(crate) fn commit_pin_bound(
        &mut self,
        device: DeviceId,
        name: &str,
        column: BoundRows<'_>,
        id: BufferId,
        transfer_cost_ns: f64,
    ) {
        let bytes = (column.rows.len() as u64) * 8;
        self.seq += 1;
        self.entries.insert(
            (device, name.to_string()),
            Entry {
                id,
                bytes,
                len: column.rows.len(),
                fingerprint: column.fingerprint(),
                last_used: self.seq,
                transfer_cost_ns,
                pinned_gen: self.generation,
            },
        );
        *self.pinned.entry(device).or_insert(0) += bytes;
    }

    /// Unwinds a pin whose upload failed: releases the admission charge and
    /// frees whatever partial buffer the upload left behind.
    pub fn abort_pin(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        id: BufferId,
        bytes: u64,
    ) {
        if let Ok(dev) = devices.get_mut(device) {
            dev.pool_mut().admission_release(bytes);
            if dev.pool().contains(id) {
                let _ = dev.delete_memory(id);
            }
        }
    }

    /// Evicts the least-recently-used entry on `device` (ties broken by
    /// lowest modeled re-transfer cost, then name). Returns the bytes freed
    /// (0 when nothing was pinned there).
    pub fn evict_lru_on(&mut self, devices: &mut DeviceRegistry, device: DeviceId) -> u64 {
        let victim = self
            .entries
            .iter()
            .filter(|((d, _), _)| *d == device)
            .min_by(|(ka, a), (kb, b)| {
                a.last_used
                    .cmp(&b.last_used)
                    .then(a.transfer_cost_ns.total_cmp(&b.transfer_cost_ns))
                    .then(ka.1.cmp(&kb.1))
            })
            .map(|(k, _)| k.clone());
        match victim {
            Some(key) => {
                self.counters.evictions += 1;
                self.remove_entry(devices, &key, false)
            }
            None => 0,
        }
    }

    /// Evicts pins on `device` until its admission ledger can take `bytes`
    /// more (or no pins remain). Returns the bytes freed — the scheduler
    /// calls this before giving up on a query's reservation, so cache pins
    /// always yield to admission instead of starving it.
    pub fn evict_for_admission(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        bytes: u64,
    ) -> u64 {
        let mut total = 0u64;
        loop {
            let available = devices
                .get(device)
                .map(|d| d.pool().admission_available())
                .unwrap_or(u64::MAX);
            if available >= bytes {
                return total;
            }
            let freed = self.evict_lru_on(devices, device);
            if freed == 0 {
                return total;
            }
            total += freed;
        }
    }

    /// Drops every entry on `device` (fault recovery: an out-of-memory
    /// attempt on that device). Returns the bytes freed.
    pub fn invalidate_device(&mut self, devices: &mut DeviceRegistry, device: DeviceId) -> u64 {
        let keys: Vec<_> = self
            .entries
            .keys()
            .filter(|(d, _)| *d == device)
            .cloned()
            .collect();
        let mut total = 0;
        for key in keys {
            total += self.remove_entry(devices, &key, true);
        }
        total
    }

    /// Writes off every pin on a permanently dead device **without calling
    /// into it**: entries and the pinned-bytes ledger are dropped, and the
    /// freed ids are logged for the hub, but no `delete_memory` or
    /// admission release touches the corpse — its pool accounting is
    /// reconciled by the device write-off, not by the cache. Returns the
    /// pinned bytes written off.
    pub fn write_off_device(&mut self, device: DeviceId) -> u64 {
        let keys: Vec<_> = self
            .entries
            .keys()
            .filter(|(d, _)| *d == device)
            .cloned()
            .collect();
        let mut total = 0;
        for key in keys {
            let Some(entry) = self.entries.remove(&key) else {
                continue;
            };
            self.counters.invalidations += 1;
            self.freed.push((device, entry.id));
            total += entry.bytes;
        }
        self.pinned.remove(&device);
        total
    }

    /// Drops every entry on every device, freeing all pinned buffers and
    /// admission charges (engine teardown). Returns the bytes freed.
    pub fn clear(&mut self, devices: &mut DeviceRegistry) -> u64 {
        let keys: Vec<_> = self.entries.keys().cloned().collect();
        let mut total = 0;
        for key in keys {
            total += self.remove_entry(devices, &key, true);
        }
        total
    }

    /// Buffers freed since the last drain (the hub purges stale per-run
    /// residency entries pointing at them).
    pub fn take_freed(&mut self) -> Vec<(DeviceId, BufferId)> {
        std::mem::take(&mut self.freed)
    }

    /// Takes (and resets) the per-run counters.
    pub fn take_counters(&mut self) -> ResidencyCounters {
        std::mem::take(&mut self.counters)
    }

    /// Removes one entry: frees its device buffer (tolerating buffers a
    /// device reset already wiped), releases its admission charge, and logs
    /// the freed id for the hub.
    fn remove_entry(
        &mut self,
        devices: &mut DeviceRegistry,
        key: &(DeviceId, String),
        invalidation: bool,
    ) -> u64 {
        let Some(entry) = self.entries.remove(key) else {
            return 0;
        };
        if invalidation {
            self.counters.invalidations += 1;
        }
        let device = key.0;
        if let Some(p) = self.pinned.get_mut(&device) {
            *p = p.saturating_sub(entry.bytes);
        }
        if let Ok(dev) = devices.get_mut(device) {
            dev.pool_mut().admission_release(entry.bytes);
            if dev.pool().contains(entry.id) {
                let _ = dev.delete_memory(entry.id);
            }
        }
        self.freed.push((device, entry.id));
        entry.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_device::profiles::DeviceProfile;

    #[test]
    fn fingerprint_values_are_pinned() {
        assert_eq!(fingerprint(&[1, -2, 3]), 11357866896077846762);
        assert_eq!(fingerprint(&[]), 12490462554737973041);
        // The fingerprint of a column is the sender-side checksum of
        // uploading it whole: one value, one function.
        let col = [1, -2, 3];
        let upload = adamant_device::buffer::BufferData::I64(col.to_vec());
        assert_eq!(fingerprint(&col), upload.checksum());
    }

    #[test]
    fn bound_fingerprint_is_hashed_once_and_only_on_demand() {
        let (mut reg, dev) = one_device();
        let mut cache = ResidencyCache::new(ResidencyConfig::new(1 << 20));
        let col: Vec<i64> = (0..64).collect();
        let shared = SharedRows::new(col.clone());
        let bound = BoundRows::kept(&shared);
        cache.begin_run();
        // No entry, or an entry of another length: nothing to compare with,
        // nothing hashed.
        assert!(cache.lookup_bound(&mut reg, dev, "x", bound).is_none());
        pin(&mut cache, &mut reg, dev, "x", &col[..32]);
        assert!(cache.lookup_bound(&mut reg, dev, "x", bound).is_none());
        assert!(
            shared.known_content_hash().is_none(),
            "length mismatch decided it"
        );
        // Pinning asks for it; from then on the cell answers.
        let id = cache.begin_pin(&mut reg, dev, &col).unwrap();
        cache.commit_pin_bound(dev, "x", bound, id, 1_000.0);
        assert_eq!(shared.known_content_hash(), Some(fingerprint(&col)));
        let upload = adamant_device::buffer::BufferData::I64(col.clone());
        reg.get_mut(dev).unwrap().place_data(id, upload, 0).unwrap();
        assert_eq!(cache.lookup_bound(&mut reg, dev, "x", bound), Some(id));
        // The slice-taking public form and the bound form agree.
        assert!(cache.lookup_bound(&mut reg, dev, "y", bound).is_none());
        let y = pin(&mut cache, &mut reg, dev, "y", &col);
        assert_eq!(cache.lookup_bound(&mut reg, dev, "y", bound), Some(y));
    }

    fn one_device() -> (DeviceRegistry, DeviceId) {
        let mut reg = DeviceRegistry::new();
        let d = reg.add(Box::new(DeviceProfile::cuda_rtx2080ti().build(DeviceId(0))));
        (reg, d)
    }

    fn pin(
        cache: &mut ResidencyCache,
        devices: &mut DeviceRegistry,
        dev: DeviceId,
        name: &str,
        col: &[i64],
    ) -> BufferId {
        let id = cache.begin_pin(devices, dev, col).expect("fits budget");
        devices
            .get_mut(dev)
            .unwrap()
            .place_data(id, adamant_device::buffer::BufferData::I64(col.to_vec()), 0)
            .unwrap();
        cache.commit_pin(dev, name, col, id, 1_000.0);
        id
    }

    #[test]
    fn pin_then_cross_run_hit() {
        let (mut reg, dev) = one_device();
        let mut cache = ResidencyCache::new(ResidencyConfig::new(1 << 20));
        let col: Vec<i64> = (0..128).collect();
        cache.begin_run();
        assert!(cache.lookup(&mut reg, dev, "l_qty", &col).is_none());
        let id = pin(&mut cache, &mut reg, dev, "l_qty", &col);
        // Same run: served, but not a cross-run hit.
        assert_eq!(cache.lookup(&mut reg, dev, "l_qty", &col), Some(id));
        let c1 = cache.take_counters();
        assert_eq!((c1.hits, c1.misses), (0, 1));
        // Next run: a hit, counted once despite repeated touches.
        cache.begin_run();
        assert_eq!(cache.lookup(&mut reg, dev, "l_qty", &col), Some(id));
        assert_eq!(cache.lookup(&mut reg, dev, "l_qty", &col), Some(id));
        let c2 = cache.take_counters();
        assert_eq!((c2.hits, c2.misses), (1, 0));
    }

    #[test]
    fn stale_fingerprint_is_invalidated() {
        let (mut reg, dev) = one_device();
        let mut cache = ResidencyCache::new(ResidencyConfig::new(1 << 20));
        let col: Vec<i64> = (0..64).collect();
        cache.begin_run();
        pin(&mut cache, &mut reg, dev, "x", &col);
        let reserved = reg.get(dev).unwrap().pool().admission_reserved();
        assert_eq!(reserved, 64 * 8);
        cache.begin_run();
        let changed: Vec<i64> = (1..65).collect();
        assert!(cache.lookup(&mut reg, dev, "x", &changed).is_none());
        assert!(cache.is_empty(), "stale entry dropped");
        assert_eq!(reg.get(dev).unwrap().pool().admission_reserved(), 0);
        assert_eq!(reg.get(dev).unwrap().pool().used(), 0);
        let c = cache.take_counters();
        assert_eq!(c.invalidations, 1);
    }

    /// The fingerprint lives beside the bound column and nowhere else: the
    /// same name bound again, with other contents of the same length, misses
    /// and invalidates — also when the old vector was freed first, so that
    /// the allocator may hand its address to the new one.
    #[test]
    fn rebound_column_never_serves_the_old_pin() {
        use crate::executor::QueryInputs;
        let (mut reg, dev) = one_device();
        let mut cache = ResidencyCache::new(ResidencyConfig::new(1 << 20));
        let mut inputs = QueryInputs::new();
        inputs.bind("x", (0..64).collect());
        cache.begin_run();
        let bound = inputs.bound("x").unwrap();
        let id = cache.begin_pin(&mut reg, dev, bound.rows).unwrap();
        let upload = adamant_device::buffer::BufferData::I64(bound.rows.to_vec());
        reg.get_mut(dev).unwrap().place_data(id, upload, 0).unwrap();
        cache.commit_pin_bound(dev, "x", bound, id, 1_000.0);
        assert_eq!(cache.lookup_bound(&mut reg, dev, "x", bound), Some(id));

        // Free the old binding first, then bind the name again: the new
        // vector usually lands on the old one's address.
        drop(inputs);
        let mut inputs = QueryInputs::new();
        inputs.bind("x", (1..65).collect());
        let rebound = inputs.bound("x").unwrap();
        assert!(cache.lookup_bound(&mut reg, dev, "x", rebound).is_none());
        assert!(cache.is_empty(), "stale pin invalidated");
        assert_eq!(cache.take_counters().invalidations, 1);
        assert_eq!(reg.get(dev).unwrap().pool().used(), 0);

        // Re-binding in place replaces the cell together with the column.
        let first = inputs.bound("x").unwrap().fingerprint();
        inputs.bind("x", (2..66).collect());
        let second = inputs.bound("x").unwrap().fingerprint();
        assert_ne!(first, second);
        assert_eq!(second, fingerprint(&(2..66).collect::<Vec<i64>>()));
        // A clone shares the column and carries the value along.
        assert_eq!(inputs.clone().bound("x").unwrap().fingerprint(), second);
    }

    #[test]
    fn budget_pressure_evicts_lru_first() {
        let (mut reg, dev) = one_device();
        // Budget fits exactly two 64-element columns.
        let mut cache = ResidencyCache::new(ResidencyConfig::new(2 * 64 * 8));
        let a: Vec<i64> = (0..64).collect();
        let b: Vec<i64> = (100..164).collect();
        let c: Vec<i64> = (200..264).collect();
        cache.begin_run();
        pin(&mut cache, &mut reg, dev, "a", &a);
        pin(&mut cache, &mut reg, dev, "b", &b);
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.lookup(&mut reg, dev, "a", &a).is_some());
        pin(&mut cache, &mut reg, dev, "c", &c);
        assert!(cache.lookup(&mut reg, dev, "a", &a).is_some());
        assert!(cache.lookup(&mut reg, dev, "b", &b).is_none(), "b evicted");
        assert!(cache.lookup(&mut reg, dev, "c", &c).is_some());
        assert_eq!(cache.take_counters().evictions, 1);
        assert_eq!(cache.total_pinned_bytes(), 2 * 64 * 8);
    }

    #[test]
    fn admission_pressure_yields_pins() {
        let (mut reg, dev) = one_device();
        let capacity = reg.get(dev).unwrap().pool().capacity();
        let mut cache = ResidencyCache::new(ResidencyConfig::new(1 << 20));
        let col: Vec<i64> = (0..1024).collect();
        cache.begin_run();
        pin(&mut cache, &mut reg, dev, "x", &col);
        // A reservation for 100% of capacity cannot coexist with the pin —
        // evict_for_admission reclaims it.
        assert!(reg
            .get_mut(dev)
            .unwrap()
            .pool_mut()
            .admission_reserve(capacity)
            .is_err());
        let freed = cache.evict_for_admission(&mut reg, dev, capacity);
        assert_eq!(freed, 1024 * 8);
        reg.get_mut(dev)
            .unwrap()
            .pool_mut()
            .admission_reserve(capacity)
            .unwrap();
        assert!(cache.is_empty());
    }

    #[test]
    fn invalidate_device_frees_everything() {
        let (mut reg, dev) = one_device();
        let mut cache = ResidencyCache::new(ResidencyConfig::new(1 << 20));
        cache.begin_run();
        let a: Vec<i64> = (0..32).collect();
        let b: Vec<i64> = (0..48).collect();
        let ida = pin(&mut cache, &mut reg, dev, "a", &a);
        let idb = pin(&mut cache, &mut reg, dev, "b", &b);
        let freed = cache.invalidate_device(&mut reg, dev);
        assert_eq!(freed, (32 + 48) * 8);
        assert!(cache.is_empty());
        assert_eq!(reg.get(dev).unwrap().pool().used(), 0);
        let mut drained = cache.take_freed();
        drained.sort_unstable();
        let mut expected = vec![(dev, ida), (dev, idb)];
        expected.sort_unstable();
        assert_eq!(drained, expected);
    }

    #[test]
    fn write_off_device_never_touches_the_corpse() {
        use adamant_device::fault::FaultPlan;
        let (mut reg, dev) = one_device();
        let mut cache = ResidencyCache::new(ResidencyConfig::new(1 << 20));
        cache.begin_run();
        let col: Vec<i64> = (0..32).collect();
        let id = pin(&mut cache, &mut reg, dev, "a", &col);
        // Kill the device: any data-plane call would now fail.
        reg.get_mut(dev)
            .unwrap()
            .state_mut()
            .faults
            .install(FaultPlan::none().die_on_exec(1).die_at_ns(0.0));
        let freed = cache.write_off_device(dev);
        assert_eq!(freed, 32 * 8, "pinned bytes written off");
        assert!(cache.is_empty());
        assert_eq!(cache.pinned_bytes_on(dev), 0);
        assert_eq!(cache.take_freed(), vec![(dev, id)]);
        assert_eq!(cache.take_counters().invalidations, 1);
    }

    #[test]
    fn oversized_column_bypasses() {
        let (mut reg, dev) = one_device();
        let mut cache = ResidencyCache::new(ResidencyConfig::new(64));
        let col: Vec<i64> = (0..1024).collect();
        assert!(cache.begin_pin(&mut reg, dev, &col).is_none());
        assert!(cache.is_empty());
    }
}
