//! The data transfer hub (paper §III-C).
//!
//! Three responsibilities, matching the paper's description:
//!
//! * `load_data()` — loading (whole) inputs onto a target device;
//! * `router()` — all device-to-device transfers: it produces a buffer
//!   holding a data ref on the requested device by reusing a copy already
//!   there, else retrieving the copy of the lowest-id device holding one and
//!   placing it, else uploading the host accumulation;
//! * `prepare_output_buffer()` — estimating and creating result space for a
//!   primitive, with the correct data semantics (numeric scratch, bitmap
//!   words, position lists, join/aggregation hash tables).
//!
//! The hub also owns the host-side accumulation of streamed scratch results
//! that escape their pipeline (graph outputs or cross-pipeline consumers).
//!
//! # Verified transfers
//!
//! Every host↔device copy goes through [`DataTransferHub::place_verified`]
//! or [`DataTransferHub::retrieve_verified`]: the host hashes the bytes it
//! sends (or received), the device's pool echoes the hash of the range it
//! holds, and a mismatch retransmits with doubling back-off. Both hashes are
//! computed on **every** transmission, the first included — the hub never
//! consults a fault plan or a fault counter to decide whether to check; a
//! check that depends on the injector is no check. What keeps this cheap is
//! that the host copies only what it must. Uploads are fed from a borrowed
//! [`Payload`]. A range of a bound column is handed to `place_data` as a
//! view of the column's immutable rows (`BufferData::Shared`), on the first
//! transmission and on every retransmission, so nothing is copied: the
//! device copies only if something writes its buffer, an injected bit flip
//! included. Its sender hash is folded from the digests the column keeps of
//! those rows (`adamant_storage::fnv::BlockDigests`) on the block grid and
//! hashed in place off it. A bare slice, a host accumulation or a
//! checkpointed payload is copied for the device in the same loop that
//! hashes it. The echo is hashed in place on the device's side, on every
//! transmission. The modeled clock charges every transmission the same
//! either way: sharing removes a host `memcpy`, not a modeled transfer.

use crate::error::{ExecError, Result};
use crate::graph::{DataRef, NodeParams, PrimitiveNode};
use crate::residency::{BoundRows, ResidencyCache};
use adamant_device::buffer::{BufferData, BufferId};
use adamant_device::clock::Lane;
use adamant_device::device::DeviceId;
use adamant_device::error::DeviceError;
use adamant_device::registry::DeviceRegistry;
use adamant_storage::fnv::copy_and_hash;
use adamant_task::container::DataContainer;
use adamant_task::primitive::{FusionRole, PrimitiveKind};
use adamant_task::semantics::DataSemantic;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Appends one chunk of an escaped streamed result to its host
/// accumulation, which holds scan rows `0..chunk_offset`: numeric rows are
/// appended, positions are rebased to global row numbers, and bitmap bits
/// are written from scan row `chunk_offset` (a bitmap accumulation holds one
/// bit per scan row, so its logical length is the contiguity watermark).
/// Hash tables and generic structures are never host-accumulated.
fn append_chunk(
    acc: &mut BufferData,
    data: BufferData,
    chunk_offset: usize,
    chunk_len: usize,
) -> Result<()> {
    match (acc, data) {
        (BufferData::I64(acc), BufferData::I64(v)) => acc.extend_from_slice(&v),
        (BufferData::I64(acc), BufferData::Shared(v)) => acc.extend_from_slice(v.as_slice()),
        (BufferData::U32(acc), BufferData::U32(v)) => {
            // Rebasing to global row numbers must not wrap: a silent
            // overflow would produce positions pointing at the wrong
            // rows, which is far worse than failing the query.
            let base = u32::try_from(chunk_offset).map_err(|_| {
                ExecError::Internal(format!(
                    "position rebase overflow: chunk offset {chunk_offset} exceeds u32 range"
                ))
            })?;
            for p in v {
                let global = p.checked_add(base).ok_or_else(|| {
                    ExecError::Internal(format!(
                        "position rebase overflow: {p} + chunk offset {base} exceeds u32 range"
                    ))
                })?;
                acc.push(global);
            }
        }
        (BufferData::BitWords(acc), BufferData::BitWords(words)) => {
            acc.resize((chunk_offset + chunk_len).div_ceil(64), 0);
            // Chunk bit `i` is scan row `chunk_offset + i`; bits at or past
            // `chunk_len` are not rows and are dropped.
            for (w, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    if i >= chunk_len {
                        break;
                    }
                    let row = chunk_offset + i;
                    acc[row / 64] |= 1 << (row % 64);
                    bits &= bits - 1;
                }
            }
        }
        (acc @ (BufferData::Raw(_) | BufferData::Generic(_)), _) => {
            return Err(ExecError::Internal(format!(
                "cannot host-accumulate {} results",
                acc.kind()
            )))
        }
        (acc, data) => {
            return Err(ExecError::Internal(format!(
                "host accumulation kind mismatch: {} <- {}",
                acc.kind(),
                data.kind()
            )))
        }
    }
    Ok(())
}

/// What [`DataTransferHub::place_verified`] uploads: something that can
/// produce the payload the device stores — with the checksum of what it
/// sends for the first transmission, plain for a retransmission. Borrowed
/// sources — a range of a bound column, a host accumulation, a checkpointed
/// payload — implement it so that no caller has to build an owned payload
/// only for the hub to copy it again. A source of immutable shared rows
/// hands over a view of them (`BufferData::Shared`) and copies nothing;
/// every other source hands over a copy.
pub trait Payload {
    /// The payload the first transmission hands to the device, and the
    /// sender-side checksum every echo must equal. Owned `i64` rows are
    /// copied and hashed in one pass (`adamant_storage::fnv::copy_and_hash`);
    /// a range of a bound column is a view, its checksum read from the
    /// column's memo on the block grid and hashed in place off it.
    fn to_buffer_and_checksum(&self) -> (BufferData, u64);
    /// The payload a retransmission hands to the device.
    fn to_buffer(&self) -> BufferData;
}

impl Payload for BufferData {
    fn to_buffer_and_checksum(&self) -> (BufferData, u64) {
        match self {
            BufferData::I64(rows) => rows.as_slice().to_buffer_and_checksum(),
            // A shared payload's clone is a view of the same rows.
            other => (other.clone(), other.checksum()),
        }
    }
    fn to_buffer(&self) -> BufferData {
        self.clone()
    }
}

/// `i64` rows (`NUMERIC` semantics), hashed as they are copied.
impl Payload for [i64] {
    fn to_buffer_and_checksum(&self) -> (BufferData, u64) {
        let (copy, checksum) = copy_and_hash(self);
        (BufferData::I64(copy), checksum)
    }
    fn to_buffer(&self) -> BufferData {
        BufferData::I64(self.to_vec())
    }
}

impl<P: Payload + ?Sized> Payload for &P {
    fn to_buffer_and_checksum(&self) -> (BufferData, u64) {
        (**self).to_buffer_and_checksum()
    }
    fn to_buffer(&self) -> BufferData {
        (**self).to_buffer()
    }
}

/// Base modeled back-off charged before a checksum-failed transfer is
/// retried; doubles with each further retransmit of the same payload.
const RETRANSMIT_BACKOFF_NS: f64 = 500.0;

/// Modeled cost of uploading `bytes` to `device` — what a residency-cache
/// hit avoids (zero for a device no longer plugged in).
fn upload_ns(devices: &DeviceRegistry, device: DeviceId, bytes: u64) -> f64 {
    devices
        .get(device)
        .map_or(0.0, |d| d.state().cost.placement_cost_ns(bytes))
}

/// Before retransmission number `attempt` (nothing before the first): the
/// link already lied, so wait out a doubling back-off before re-occupying
/// it — charged as copy-engine time on `lane`, no payload bytes.
fn charge_backoff(
    devices: &mut DeviceRegistry,
    device: DeviceId,
    lane: Lane,
    attempt: u32,
) -> Result<()> {
    if attempt > 0 {
        let backoff = RETRANSMIT_BACKOFF_NS * f64::from(1u32 << (attempt - 1).min(16));
        devices
            .get_mut(device)?
            .clock_mut()
            .record(lane, backoff, 0);
    }
    Ok(())
}

/// The one upload loop behind [`DataTransferHub::place_verified`]: the
/// payload yields what the device stores and the checksum of what is about
/// to be sent ([`Payload::to_buffer_and_checksum`]); then per transmission
/// hand the device its payload (a fresh one for a retransmission), ask the
/// pool to echo the checksum of the range it now holds, and compare — on
/// every transmission, the first included. A mismatch is counted and
/// retransmitted until `budget` transmissions are spent.
///
/// A free function over the hub's two fields it needs, so a payload borrowed
/// from another field of the hub (a host accumulation) can be uploaded
/// without copying it out first.
fn transmit(
    budget: u32,
    corruption_retransmits: &mut u64,
    devices: &mut DeviceRegistry,
    device: DeviceId,
    id: BufferId,
    data: &(impl Payload + ?Sized),
    offset: usize,
) -> Result<()> {
    let (first, expected) = data.to_buffer_and_checksum();
    let mut first = Some(first);
    for attempt in 0..budget.max(1) {
        charge_backoff(devices, device, Lane::TransferH2D, attempt)?;
        let sent = first.take().unwrap_or_else(|| data.to_buffer());
        let len = sent.len();
        devices.get_mut(device)?.place_data(id, sent, offset)?;
        let echo = devices
            .get(device)?
            .pool()
            .checksum(id, Some(len), offset)?;
        if echo == expected {
            return Ok(());
        }
        *corruption_retransmits += 1;
    }
    Err(ExecError::TransferCorrupted { device, buffer: id })
}

/// The hub: buffer-id allocation, residency tracking, routing and output
/// buffer preparation.
#[derive(Debug)]
pub struct DataTransferHub {
    next_id: u64,
    /// Where each materialized data ref lives: `(ref, device) -> buffer`.
    resident: HashMap<(DataRef, DeviceId), BufferId>,
    /// Host-side accumulations of escaped streamed results, each with the
    /// next expected chunk offset — chunks must arrive in order,
    /// contiguously.
    host: HashMap<DataRef, (BufferData, usize)>,
    /// Every buffer created per device, in creation order. Append-only so
    /// [`DataTransferHub::mark`] positions stay stable; [`Self::release`]
    /// clears `live` membership instead of splicing this list.
    created: Vec<(DeviceId, BufferId)>,
    /// Created buffers not yet freed. The delete phase and rollback only
    /// delete buffers still in here, so a mid-run `release` can never lead
    /// to a double free.
    live: BTreeSet<(DeviceId, BufferId)>,
    /// Reverse residency index: `(device, buffer) -> data refs resident in
    /// it`. Keeps [`Self::release`] O(log n) per buffer instead of a full
    /// scan of the residency map.
    by_buffer: BTreeMap<(DeviceId, BufferId), Vec<DataRef>>,
    /// Work counter for the release paths: entries examined while
    /// untracking. Tests assert bulk eviction does bounded work with this
    /// (a counter, not a wall clock).
    release_probes: u64,
    /// `delete_memory` failures during rollback that were *not* the
    /// tolerated died-mid-allocation case (see
    /// [`DataTransferHub::rollback_to`]).
    rollback_delete_errors: usize,
    /// Maximum transmissions of one payload before a checksum mismatch
    /// becomes [`ExecError::TransferCorrupted`].
    retransmit_budget: u32,
    /// Retransmits caused by checksum mismatches since the last
    /// [`DataTransferHub::take_corruption_retransmits`] drain.
    corruption_retransmits: u64,
    /// The cross-query residency cache, lent by the executor for the
    /// duration of one run (`None` when caching is disabled).
    cache: Option<ResidencyCache>,
}

impl Default for DataTransferHub {
    fn default() -> Self {
        DataTransferHub {
            next_id: 0,
            resident: HashMap::new(),
            host: HashMap::new(),
            created: Vec::new(),
            live: BTreeSet::new(),
            by_buffer: BTreeMap::new(),
            release_probes: 0,
            rollback_delete_errors: 0,
            retransmit_budget: 4,
            corruption_retransmits: 0,
            cache: None,
        }
    }
}

impl DataTransferHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        DataTransferHub::default()
    }

    /// Sets how many times one payload may be (re)transmitted before a
    /// checksum mismatch becomes [`ExecError::TransferCorrupted`]. The
    /// executor wires this to its `RetryPolicy::max_attempts`.
    pub fn set_retransmit_budget(&mut self, budget: u32) {
        self.retransmit_budget = budget.max(1);
    }

    /// Takes (and resets) the count of retransmits caused by checksum
    /// mismatches, for the run's stats.
    pub fn take_corruption_retransmits(&mut self) -> u64 {
        std::mem::take(&mut self.corruption_retransmits)
    }

    /// Checksummed `place_data`: uploads `data`, asks the device to echo the
    /// checksum of what it stored, and retransmits with doubling modeled
    /// back-off on mismatch. After [`Self::set_retransmit_budget`]
    /// transmissions the payload still not arriving intact becomes
    /// [`ExecError::TransferCorrupted`], which the run returns.
    ///
    /// `data` is any [`Payload`]: an owned or borrowed [`BufferData`], a
    /// borrowed slice of rows, a host accumulation, a range of a bound
    /// column. A bound range reaches the device as a view of the column's
    /// rows on every transmission and is hashed at most once, in place (on
    /// the block grid not at all: its column's memo answers). Anything else
    /// is hashed once, in the pass that makes the first transmission's copy,
    /// and copied once more for each retransmission.
    pub fn place_verified(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        id: BufferId,
        data: impl Payload,
        offset: usize,
    ) -> Result<()> {
        transmit(
            self.retransmit_budget,
            &mut self.corruption_retransmits,
            devices,
            device,
            id,
            &data,
            offset,
        )
    }

    /// Checksummed `retrieve_data`: reads the payload back, compares its
    /// checksum against the device's echo of what it holds, and re-reads
    /// with doubling modeled back-off on mismatch. Exhausting the budget
    /// becomes [`ExecError::TransferCorrupted`].
    pub fn retrieve_verified(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        id: BufferId,
        len: Option<usize>,
        offset: usize,
    ) -> Result<BufferData> {
        for attempt in 0..self.retransmit_budget.max(1) {
            charge_backoff(devices, device, Lane::TransferD2H, attempt)?;
            let payload = devices.get_mut(device)?.retrieve_data(id, len, offset)?;
            let echo = devices
                .get(device)?
                .pool()
                .checksum(id, Some(payload.len()), offset)?;
            if payload.checksum() == echo {
                return Ok(payload);
            }
            self.corruption_retransmits += 1;
        }
        Err(ExecError::TransferCorrupted { device, buffer: id })
    }

    /// Allocates a fresh buffer id (unique across all devices in this run).
    pub fn fresh_id(&mut self) -> BufferId {
        self.next_id += 1;
        BufferId(self.next_id)
    }

    /// Records that `data` is materialized on `device` under `id`.
    pub fn register_resident(&mut self, data: DataRef, device: DeviceId, id: BufferId) {
        if let Some(old) = self.resident.insert((data, device), id) {
            if old != id {
                if let Some(refs) = self.by_buffer.get_mut(&(device, old)) {
                    refs.retain(|r| *r != data);
                    if refs.is_empty() {
                        self.by_buffer.remove(&(device, old));
                    }
                }
            }
        }
        let refs = self.by_buffer.entry((device, id)).or_default();
        if !refs.contains(&data) {
            refs.push(data);
        }
    }

    /// Records a created buffer for the delete phase.
    pub fn track_created(&mut self, device: DeviceId, id: BufferId) {
        self.created.push((device, id));
        self.live.insert((device, id));
    }

    /// Lends the cross-query residency cache to this hub for one run.
    pub fn install_cache(&mut self, mut cache: ResidencyCache) {
        cache.begin_run();
        self.cache = Some(cache);
    }

    /// Takes the residency cache back at the end of a run.
    pub fn take_cache(&mut self) -> Option<ResidencyCache> {
        self.cache.take()
    }

    /// Drops every residency-cache entry on `device` (fault recovery: an
    /// attempt that ran out of memory there) and purges per-run residency
    /// entries that pointed at the freed buffers. Returns the bytes freed.
    pub fn evict_cache_on(&mut self, devices: &mut DeviceRegistry, device: DeviceId) -> u64 {
        let Some(mut cache) = self.cache.take() else {
            return 0;
        };
        let freed = cache.invalidate_device(devices, device);
        for (d, id) in cache.take_freed() {
            self.untrack_buffer(d, id);
        }
        self.cache = Some(cache);
        freed
    }

    /// Takes (and resets) the count of unexpected `delete_memory` failures
    /// surfaced by rollback, for the run's stats.
    pub fn take_rollback_delete_errors(&mut self) -> usize {
        std::mem::take(&mut self.rollback_delete_errors)
    }

    /// Writes off every buffer on a permanently dead device **without
    /// calling into it**: no `delete_memory`, just bookkeeping. Live
    /// buffers on `dead` are untracked (so rollback and the delete phase
    /// skip them), residency entries pointing at them are dropped,
    /// residency-cache pins on the device are written off the same way, and
    /// the corpse's host-side pool accounting is zeroed so the no-leak
    /// invariant still reconciles.
    ///
    /// Returns `(buffers_written_off, lost_bytes)` where `lost_bytes` is
    /// the pool footprint of the written-off buffers — the data that must
    /// be re-staged from host/survivor copies.
    pub fn write_off_device(
        &mut self,
        devices: &mut DeviceRegistry,
        dead: DeviceId,
    ) -> (usize, u64) {
        let doomed: Vec<BufferId> = self
            .live
            .iter()
            .filter(|(d, _)| *d == dead)
            .map(|&(_, id)| id)
            .collect();
        let mut buffers = 0usize;
        let mut lost_bytes = 0u64;
        for id in doomed {
            buffers += 1;
            if let Ok(dev) = devices.get(dead) {
                if let Ok(buf) = dev.pool().get(id) {
                    lost_bytes += buf.footprint();
                }
            }
            self.untrack_buffer(dead, id);
        }
        if let Some(mut cache) = self.cache.take() {
            cache.write_off_device(dead);
            for (d, id) in cache.take_freed() {
                self.untrack_buffer(d, id);
            }
            self.cache = Some(cache);
        }
        // Host-side accessors still work on the corpse: zero its pool and
        // admission accounting so nothing appears leaked post-mortem.
        if let Ok(dev) = devices.get_mut(dead) {
            let reserved = dev.pool().admission_reserved();
            dev.pool_mut().admission_release(reserved);
            dev.pool_mut().clear();
        }
        (buffers, lost_bytes)
    }

    /// Discards every host accumulation (a whole-graph restart after device
    /// loss re-streams all pipelines from row 0).
    pub fn discard_all_host(&mut self) {
        self.host.clear();
    }

    /// Clones every host accumulation with its contiguity watermark, sorted
    /// by ref for deterministic checkpoint checksums.
    pub fn snapshot_host(&self) -> Vec<(DataRef, BufferData, usize)> {
        let mut out: Vec<(DataRef, BufferData, usize)> = self
            .host
            .iter()
            .map(|(&r, (accum, watermark))| (r, accum.clone(), *watermark))
            .collect();
        out.sort_by_key(|(r, _, _)| *r);
        out
    }

    /// Restores host accumulations from a checkpoint snapshot, replacing
    /// whatever partial state a rolled-back attempt left behind. The
    /// watermark re-arms the in-order contiguity check, so the resumed
    /// stream appends exactly where the snapshot left off.
    pub fn restore_host(&mut self, entries: &[(DataRef, BufferData, usize)]) {
        for (r, accum, watermark) in entries {
            self.host.insert(*r, (accum.clone(), *watermark));
        }
    }

    /// Every data ref currently resident on some device, deduplicated and
    /// sorted, each with its lowest-id holder (deterministic). The
    /// checkpoint capture path retrieves these through the verified
    /// transfer path to build the snapshot's resident section.
    pub fn resident_refs(&self) -> Vec<(DataRef, DeviceId, BufferId)> {
        let mut best: BTreeMap<DataRef, (DeviceId, BufferId)> = BTreeMap::new();
        for (&(r, dev), &id) in &self.resident {
            match best.get(&r) {
                Some(&(held, _)) if held <= dev => {}
                _ => {
                    best.insert(r, (dev, id));
                }
            }
        }
        best.into_iter()
            .map(|(r, (dev, id))| (r, dev, id))
            .collect()
    }

    /// Re-materializes a checkpointed payload as a resident buffer on
    /// `device`: allocates, uploads through the verified transfer path, and
    /// registers residency + creation tracking so the normal rollback and
    /// delete phases own the restored buffer like any other.
    pub fn restore_resident(
        &mut self,
        devices: &mut DeviceRegistry,
        data: DataRef,
        device: DeviceId,
        payload: &BufferData,
    ) -> Result<BufferId> {
        let id = self.fresh_id();
        devices
            .get_mut(device)?
            .prepare_memory(id, payload.byte_len().max(8))?;
        self.track_created(device, id);
        self.place_verified(devices, device, id, payload, 0)?;
        self.register_resident(data, device, id);
        Ok(id)
    }

    /// Entries examined by the release paths so far (bounded-work tests).
    pub fn release_probes(&self) -> u64 {
        self.release_probes
    }

    /// Where `data` is resident on `device`, if it is.
    pub fn resident(&self, data: DataRef, device: DeviceId) -> Option<BufferId> {
        self.resident.get(&(data, device)).copied()
    }

    /// `router()`: produce a buffer holding `data` on `target` (paper: "the
    /// function iterates over all the incoming edges to a primitive and
    /// loads the data to the target device").
    ///
    /// Resolution order: already resident on target → reuse; resident on
    /// another device → retrieve there, place on target; host-accumulated →
    /// upload. Transfer costs land on the involved devices' clocks.
    pub fn router(
        &mut self,
        devices: &mut DeviceRegistry,
        data: DataRef,
        target: DeviceId,
    ) -> Result<BufferId> {
        if let Some(id) = self.resident(data, target) {
            return Ok(id);
        }
        // Find a source device holding it. When several devices hold a
        // copy, pick the lowest device id so the transfer source (and the
        // clocks it charges) is deterministic across runs — HashMap
        // iteration order must never leak into the execution.
        let source = self
            .resident
            .iter()
            .filter(|((r, _), _)| *r == data)
            .map(|(&(_, d), &id)| (d, id))
            .min_by_key(|&(d, _)| d);
        if let Some((src_dev, src_id)) = source {
            let payload = self.retrieve_verified(devices, src_dev, src_id, None, 0)?;
            let new_id = self.fresh_id();
            self.track_created(target, new_id);
            self.place_verified(devices, target, new_id, payload, 0)?;
            self.register_resident(data, target, new_id);
            return Ok(new_id);
        }
        if self.host.contains_key(&data) {
            // The device gets a copy: the host accumulation stays
            // authoritative, so a recovery rollback that deletes the device
            // copy cannot lose the data.
            let new_id = self.fresh_id();
            self.track_created(target, new_id);
            transmit(
                self.retransmit_budget,
                &mut self.corruption_retransmits,
                devices,
                target,
                new_id,
                &self.host[&data].0,
                0,
            )?;
            self.register_resident(data, target, new_id);
            return Ok(new_id);
        }
        Err(ExecError::Internal(format!(
            "router: {data:?} is neither resident nor host-accumulated"
        )))
    }

    /// `load_data()`: places a whole bound column onto a device as a
    /// materialized external input; the device is handed a view of the
    /// column's rows.
    ///
    /// With a residency cache installed, the cache is consulted before any
    /// transfer: a valid pin of `name` (compared by the binding's one
    /// fingerprint) is served without touching the bus, and a miss tries to
    /// pin the column for future runs (falling back to an uncached per-run
    /// upload when the column does not fit the cache budget or the device).
    pub(crate) fn load_bound_input(
        &mut self,
        devices: &mut DeviceRegistry,
        data: DataRef,
        target: DeviceId,
        name: &str,
        column: BoundRows<'_>,
    ) -> Result<BufferId> {
        if let Some(id) = self.resident(data, target) {
            return Ok(id);
        }
        if self.cache.is_some() {
            if let Some((id, was_hit)) = self.cache_acquire_whole(devices, target, name, column)? {
                if was_hit {
                    // The whole upload was avoided.
                    let bytes = (column.rows.len() as u64) * 8;
                    let saved = upload_ns(devices, target, bytes);
                    if let Some(cache) = &mut self.cache {
                        cache.note_saved_transfer_ns(saved);
                    }
                }
                self.register_resident(data, target, id);
                return Ok(id);
            }
        }
        let id = self.fresh_id();
        self.track_created(target, id);
        self.place_verified(devices, target, id, column.whole(), 0)?;
        self.register_resident(data, target, id);
        Ok(id)
    }

    /// Serves a whole column from the residency cache: `Some((id, true))`
    /// for a pre-existing pin, `Some((id, false))` for a pin created (and
    /// paid for) just now, `Ok(None)` when the cache passed — the caller
    /// uploads uncached. Does not touch the saved-transfer counter; callers
    /// account what they actually avoided.
    fn cache_acquire_whole(
        &mut self,
        devices: &mut DeviceRegistry,
        target: DeviceId,
        name: &str,
        column: BoundRows<'_>,
    ) -> Result<Option<(BufferId, bool)>> {
        let bytes = (column.rows.len() as u64) * 8;
        let transfer_ns = upload_ns(devices, target, bytes);
        let mut cache = self.cache.take().expect("caller checked");
        if let Some(id) = cache.lookup_bound(devices, target, name, column) {
            self.absorb_cache_frees(&mut cache);
            self.cache = Some(cache);
            return Ok(Some((id, true)));
        }
        let Some(id) = cache.begin_pin(devices, target, column.rows) else {
            self.absorb_cache_frees(&mut cache);
            self.cache = Some(cache);
            return Ok(None);
        };
        self.absorb_cache_frees(&mut cache);
        match self.place_verified(devices, target, id, column.whole(), 0) {
            Ok(()) => {
                cache.commit_pin_bound(target, name, column, id, transfer_ns);
                self.cache = Some(cache);
                Ok(Some((id, false)))
            }
            Err(e) => {
                cache.abort_pin(devices, target, id, bytes);
                self.cache = Some(cache);
                if matches!(
                    e,
                    ExecError::Device(
                        DeviceError::OutOfMemory { .. } | DeviceError::OutOfPinnedMemory { .. }
                    )
                ) {
                    // Admission said yes but the pool is genuinely full —
                    // fall back to the uncached path (which may still OOM,
                    // surfacing through the normal recovery machinery).
                    Ok(None)
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Stages one chunk of a scan column into `staging` from a cached pin
    /// of the whole column, via a device-internal `create_chunk` copy
    /// instead of a host→device upload. On the first touch of an uncached
    /// column the whole column is pinned (once), so this and every later
    /// chunk stage device-internally.
    ///
    /// Returns `false` when the cache is absent or passed — the caller
    /// uploads the chunk payload as usual.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stage_chunk_from_cache(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        staging: BufferId,
        name: &str,
        column: BoundRows<'_>,
        offset: usize,
        len: usize,
    ) -> Result<bool> {
        if self.cache.is_none() || len == 0 {
            return Ok(false);
        }
        let src = match self.cache_acquire_whole(devices, device, name, column)? {
            Some((id, _)) => id,
            None => return Ok(false),
        };
        let chunk_bytes = (len as u64) * 8;
        let saved = upload_ns(devices, device, chunk_bytes);
        let dev = devices.get_mut(device)?;
        // The staging slot was pre-allocated for uploads; re-materialize it
        // as a device-internal sub-buffer of the pinned column.
        match dev.delete_memory(staging) {
            Ok(()) | Err(DeviceError::UnknownBuffer(_)) => {}
            Err(e) => return Err(e.into()),
        }
        dev.create_chunk(src, staging, offset, len)?;
        if let Some(cache) = &mut self.cache {
            cache.note_saved_transfer_ns(saved);
        }
        Ok(true)
    }

    /// Purges per-run residency entries pointing at buffers the cache just
    /// freed (eviction under pressure mid-run must not leave dangling ids).
    fn absorb_cache_frees(&mut self, cache: &mut ResidencyCache) {
        for (d, id) in cache.take_freed() {
            self.untrack_buffer(d, id);
        }
    }

    /// Appends one chunk's worth of an escaped scratch result to the host
    /// accumulation.
    ///
    /// Chunks must arrive in order and contiguously: `chunk_offset` has to
    /// equal the end of the previous chunk (0 for the first). Out-of-order
    /// arrival means an execution-model bug and is rejected rather than
    /// silently producing misordered results.
    pub fn host_accumulate(
        &mut self,
        data: DataRef,
        semantic: DataSemantic,
        payload: BufferData,
        chunk_offset: usize,
        chunk_len: usize,
    ) -> Result<()> {
        let expected = self.host.get(&data).map_or(0, |&(_, end)| end);
        if chunk_offset != expected {
            return Err(ExecError::Internal(format!(
                "out-of-order host accumulation for {data:?}: \
                 got chunk offset {chunk_offset}, expected {expected}"
            )));
        }
        let (accum, end) = self
            .host
            .entry(data)
            .or_insert_with(|| (DataContainer::empty_payload(semantic), 0));
        append_chunk(accum, payload, chunk_offset, chunk_len)?;
        *end = chunk_offset + chunk_len;
        Ok(())
    }

    /// Takes a finished host accumulation (for graph outputs).
    pub fn take_host(&mut self, data: DataRef) -> Option<BufferData> {
        self.host.remove(&data).map(|(accum, _)| accum)
    }

    /// Discards a partial host accumulation (recovery: a failed pipeline
    /// attempt is rolled back before the retry re-streams from row 0).
    pub fn discard_host(&mut self, data: DataRef) {
        self.host.remove(&data);
    }

    /// Whether a host accumulation exists for `data`.
    pub fn has_host(&self, data: DataRef) -> bool {
        self.host.contains_key(&data)
    }

    /// `prepare_output_buffer()`: creates result space for an output of
    /// `node` on `device`, sized for `estimate_rows` input rows, with the
    /// output's data semantics.
    ///
    /// Pipeline-breaker accumulators (hash tables, block-agg states) are
    /// initialized as device structures; everything else is a reserved
    /// scratch region the kernel fills.
    pub fn prepare_output_buffer(
        &mut self,
        devices: &mut DeviceRegistry,
        node: &PrimitiveNode,
        device: DeviceId,
        semantic: DataSemantic,
        estimate_rows: usize,
    ) -> Result<BufferId> {
        let id = self.fresh_id();
        let dev = devices.get_mut(device)?;
        // A `FUSED_AGG`'s accumulator is whatever its terminal stage — a
        // `Terminal` row of the fusion table — would have gotten unfused;
        // interior stages get nothing at all — that is the fusion win.
        let (kind, params) = match (node.kind, &node.params) {
            (PrimitiveKind::FusedAgg, NodeParams::Fused { stages, .. }) => match stages.last() {
                Some(s) if matches!(s.kind.fusion(), Some((FusionRole::Terminal, _))) => {
                    (s.kind, s.params.as_ref())
                }
                _ => {
                    return Err(ExecError::Internal(format!(
                        "fused_agg node `{}` lacks a terminal stage",
                        node.label
                    )))
                }
            },
            other => other,
        };
        match (kind, params) {
            (
                PrimitiveKind::HashBuild,
                NodeParams::HashBuild {
                    payload_cols,
                    expected,
                },
            ) => {
                dev.init_structure(id, DataContainer::join_table(*expected, *payload_cols))?;
            }
            (
                PrimitiveKind::HashAgg,
                NodeParams::HashAgg {
                    payload_cols,
                    aggs,
                    expected_groups,
                },
            ) => {
                dev.init_structure(
                    id,
                    DataContainer::agg_table(*expected_groups, aggs.clone(), *payload_cols),
                )?;
            }
            (PrimitiveKind::AggBlock, params) => {
                // Two accumulator slots `[state, rows]`, pre-set to the
                // aggregate's identity so zero-chunk scans still produce a
                // well-formed result.
                let identity = match params {
                    NodeParams::AggBlock { agg } => agg.identity(),
                    _ => 0,
                };
                dev.init_structure(id, BufferData::I64(vec![identity, 0]))?;
            }
            _ => {
                let bytes = DataContainer::estimate_output_bytes(semantic, estimate_rows).max(8);
                dev.prepare_memory(id, bytes)?;
            }
        }
        self.track_created(device, id);
        Ok(id)
    }

    /// A rollback mark: the number of buffers created so far. Pass it to
    /// [`DataTransferHub::rollback_to`] to free everything created after
    /// this point.
    pub fn mark(&self) -> usize {
        self.created.len()
    }

    /// Frees every buffer created after `mark` (on its owning device) and
    /// drops the matching residency entries. Used by the executor's
    /// recovery path to unwind a failed pipeline attempt.
    ///
    /// Tolerates exactly one failure mode:
    /// [`DeviceError::UnknownBuffer`] — the attempt died mid-allocation, so
    /// the buffer was tracked but never materialized. Any *other*
    /// `delete_memory` error is a real accounting bug (double free, driver
    /// fault) and is counted into `rollback_delete_errors` instead of being
    /// silently swallowed; the executor surfaces the count in
    /// `ExecutionStats`.
    pub fn rollback_to(&mut self, devices: &mut DeviceRegistry, mark: usize) {
        if mark >= self.created.len() {
            return;
        }
        for (dev, id) in self.created.split_off(mark) {
            self.release_probes += 1;
            if !self.live.remove(&(dev, id)) {
                // Already released mid-attempt; nothing to free.
                continue;
            }
            if let Some(refs) = self.by_buffer.remove(&(dev, id)) {
                self.release_probes += refs.len() as u64;
                for r in refs {
                    self.resident.remove(&(r, dev));
                }
            }
            match devices.get_mut(dev) {
                Ok(device) => match device.delete_memory(id) {
                    Ok(()) | Err(DeviceError::UnknownBuffer(_)) => {}
                    Err(_) => self.rollback_delete_errors += 1,
                },
                Err(_) => self.rollback_delete_errors += 1,
            }
        }
    }

    /// Frees one tracked buffer on its owning device, untracking it from
    /// the live set and the residency maps. Unlike the final
    /// [`DataTransferHub::delete_all`] sweep, errors here are real (the
    /// buffer is expected to exist) and are propagated.
    ///
    /// O(log n) in tracked buffers: residency entries are found through the
    /// `(device, id)` reverse index instead of scanning the whole map, so
    /// bulk eviction sweeps stay linear in the buffers released.
    pub fn release(
        &mut self,
        devices: &mut DeviceRegistry,
        device: DeviceId,
        id: BufferId,
    ) -> Result<()> {
        devices.get_mut(device)?.delete_memory(id)?;
        if !self.live.remove(&(device, id)) {
            return Err(ExecError::Internal(format!(
                "release of untracked buffer {id} on {device}"
            )));
        }
        self.untrack_buffer(device, id);
        Ok(())
    }

    /// Drops residency bookkeeping for `(device, id)` via the reverse
    /// index (the buffer itself is already gone or owned elsewhere).
    fn untrack_buffer(&mut self, device: DeviceId, id: BufferId) {
        self.release_probes += 1;
        self.live.remove(&(device, id));
        if let Some(refs) = self.by_buffer.remove(&(device, id)) {
            self.release_probes += refs.len() as u64;
            for r in refs {
                self.resident.remove(&(r, device));
            }
        }
    }

    /// The delete phase: frees every buffer this hub created that is still
    /// live.
    ///
    /// This is the final idempotent sweep, by design tolerant of buffers
    /// that are already gone (wiped by a device reset). Per-pipeline
    /// cleanup goes through `release`, which *does* surface errors and
    /// clears live membership so this sweep never double-deletes.
    /// Residency-cache pins are not created through [`Self::track_created`]
    /// and therefore survive — they belong to the cache, not the run.
    pub fn delete_all(&mut self, devices: &mut DeviceRegistry) {
        for (dev, id) in self.created.drain(..) {
            if !self.live.remove(&(dev, id)) {
                continue;
            }
            if let Ok(device) = devices.get_mut(dev) {
                // Buffers may already be gone if a device was reset.
                let _ = device.delete_memory(id);
            }
        }
        self.resident.clear();
        self.by_buffer.clear();
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residency::BoundRange;
    use adamant_device::profiles::DeviceProfile;
    use adamant_storage::column::SharedRows;

    fn two_devices() -> (DeviceRegistry, DeviceId, DeviceId) {
        let mut reg = DeviceRegistry::new();
        let a = reg.add(Box::new(DeviceProfile::cuda_rtx2080ti().build(DeviceId(0))));
        let b = reg.add(Box::new(DeviceProfile::opencl_cpu_i7().build(DeviceId(1))));
        (reg, a, b)
    }

    #[test]
    fn load_and_route_across_devices() {
        let (mut devices, gpu, cpu) = two_devices();
        let mut hub = DataTransferHub::new();
        let data = DataRef::Input(0);
        let col = vec![1i64, 2, 3];
        let id_gpu = hub
            .load_bound_input(&mut devices, data, gpu, "in0", BoundRows::bare(&col))
            .unwrap();
        // Second load is a no-op.
        assert_eq!(
            hub.load_bound_input(&mut devices, data, gpu, "in0", BoundRows::bare(&col))
                .unwrap(),
            id_gpu
        );
        // Route to the CPU device: retrieve from GPU, place on CPU.
        let id_cpu = hub.router(&mut devices, data, cpu).unwrap();
        assert_ne!(id_gpu.0, id_cpu.0);
        let payload = devices
            .get_mut(cpu)
            .unwrap()
            .retrieve_data(id_cpu, None, 0)
            .unwrap();
        assert_eq!(payload, BufferData::I64(vec![1, 2, 3]));
        // GPU recorded an extra D2H from the routing.
        assert!(devices.get(gpu).unwrap().clock().bytes_d2h() > 0);
    }

    #[test]
    fn router_unknown_ref_errors() {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        assert!(hub.router(&mut devices, DataRef::Input(9), gpu).is_err());
    }

    #[test]
    fn host_accumulation_shapes() {
        let mut hub = DataTransferHub::new();
        let r = DataRef::Input(0);
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![1, 2]), 0, 2)
            .unwrap();
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![3]), 2, 1)
            .unwrap();
        assert_eq!(hub.take_host(r), Some(BufferData::I64(vec![1, 2, 3])));

        let p = DataRef::Input(1);
        hub.host_accumulate(p, DataSemantic::Position, BufferData::U32(vec![0, 3]), 0, 4)
            .unwrap();
        hub.host_accumulate(p, DataSemantic::Position, BufferData::U32(vec![1]), 4, 4)
            .unwrap();
        assert_eq!(hub.take_host(p), Some(BufferData::U32(vec![0, 3, 5])));

        let bm = DataRef::Input(2);
        hub.host_accumulate(
            bm,
            DataSemantic::Bitmap,
            BufferData::BitWords(vec![0b1]),
            0,
            3,
        )
        .unwrap();
        hub.host_accumulate(
            bm,
            DataSemantic::Bitmap,
            BufferData::BitWords(vec![0b10]),
            3,
            2,
        )
        .unwrap();
        assert_eq!(
            hub.take_host(bm),
            Some(BufferData::BitWords(vec![0b1_0001]))
        );

        // A payload of another kind, and a structure, never accumulate.
        assert!(hub
            .host_accumulate(r, DataSemantic::Numeric, BufferData::U32(vec![1]), 0, 1)
            .is_err());
        let table = DataContainer::agg_table(4, vec![], 0);
        let t = DataRef::Input(3);
        assert!(hub
            .host_accumulate(t, DataSemantic::HashTable, table, 0, 1)
            .is_err());
    }

    /// Bitmap chunks of any length — shorter than, equal to and longer than
    /// a word, empty, starting mid-word — accumulate to the whole scan's
    /// words, whatever the chunk payloads carry past their last row.
    #[test]
    fn chunked_bitmap_accumulation_is_the_whole_bitmap() {
        for lens in [&[1, 63, 64, 65, 107][..], &[70, 3, 0, 227]] {
            let rows: usize = lens.iter().sum();
            let bit = |i: usize| (i * 7 + i / 5).is_multiple_of(3);
            let mut whole = vec![0u64; rows.div_ceil(64)];
            for i in (0..rows).filter(|&i| bit(i)) {
                whole[i / 64] |= 1 << (i % 64);
            }
            let mut hub = DataTransferHub::new();
            let r = DataRef::Input(0);
            let mut offset = 0;
            for &len in lens {
                // Every bit past the chunk's last row is set.
                let mut words = vec![u64::MAX; len.div_ceil(64)];
                for i in (0..len).filter(|&i| !bit(offset + i)) {
                    words[i / 64] &= !(1 << (i % 64));
                }
                hub.host_accumulate(
                    r,
                    DataSemantic::Bitmap,
                    BufferData::BitWords(words),
                    offset,
                    len,
                )
                .unwrap();
                offset += len;
            }
            assert_eq!(
                hub.take_host(r),
                Some(BufferData::BitWords(whole)),
                "{lens:?}"
            );
        }
    }

    /// What an upload leaves behind on a fresh device: the stored payload,
    /// the pool's echo of it, and the cost events (lane, ns, bytes).
    #[derive(Debug, PartialEq)]
    struct UploadTrace {
        stored: BufferData,
        echo: u64,
        events: Vec<(Lane, f64, u64)>,
    }

    fn upload_trace(
        upload: impl FnOnce(&mut DataTransferHub, &mut DeviceRegistry, DeviceId, BufferId),
    ) -> UploadTrace {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let id = hub.fresh_id();
        devices
            .get_mut(gpu)
            .unwrap()
            .prepare_memory(id, 64)
            .unwrap();
        upload(&mut hub, &mut devices, gpu, id);
        assert_eq!(hub.take_corruption_retransmits(), 0);
        let dev = devices.get_mut(gpu).unwrap();
        UploadTrace {
            stored: dev.pool().get(id).unwrap().data.clone(),
            echo: dev.pool().checksum(id, None, 0).unwrap(),
            events: dev
                .clock_mut()
                .drain_events()
                .map(|e| (e.lane, e.duration_ns, e.bytes))
                .collect(),
        }
    }

    /// Owned, borrowed and bound uploads leave the same trace, whether the
    /// bound range's checksum comes from its column's memo (on the block
    /// grid, or ending at the column's end) or from a fresh hash (off it).
    #[test]
    fn borrowed_and_owned_uploads_are_indistinguishable() {
        let block = adamant_storage::fnv::BLOCK_WORDS;
        let column = SharedRows::new(
            (0..2 * block as i64 + 76)
                .map(|i| i * 7919 - 5)
                .collect::<Vec<_>>(),
        );
        let len = column.rows().len();
        for range in [13..50, block..2 * block, 2 * block..len, 0..len] {
            let rows = &column.rows()[range.clone()];
            let payload = BufferData::I64(rows.to_vec());
            let owned = upload_trace(|hub, devices, gpu, id| {
                hub.place_verified(devices, gpu, id, payload.clone(), 0)
                    .unwrap()
            });
            let borrowed = upload_trace(|hub, devices, gpu, id| {
                hub.place_verified(devices, gpu, id, rows, 0).unwrap()
            });
            let by_ref = upload_trace(|hub, devices, gpu, id| {
                hub.place_verified(devices, gpu, id, &payload, 0).unwrap()
            });
            let bound = upload_trace(|hub, devices, gpu, id| {
                let rows = BoundRange::new(&column, range.clone());
                hub.place_verified(devices, gpu, id, rows, 0).unwrap()
            });
            assert_eq!(owned.stored, payload);
            assert_eq!(owned.echo, payload.checksum());
            assert!(!owned.events.is_empty());
            assert_eq!(owned, borrowed, "{range:?}");
            assert_eq!(owned, by_ref, "{range:?}");
            assert_eq!(owned, bound, "{range:?}");
            let from_memo = column.range_hash(range.clone());
            assert_eq!(from_memo.is_some(), range.start % block == 0, "{range:?}");
        }
    }

    #[test]
    fn accumulation_kind_mismatch_rejected() {
        let mut hub = DataTransferHub::new();
        let r = DataRef::Input(0);
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![1]), 0, 1)
            .unwrap();
        assert!(hub
            .host_accumulate(r, DataSemantic::Numeric, BufferData::U32(vec![1]), 1, 1)
            .is_err());
        assert!(hub
            .host_accumulate(
                DataRef::Input(5),
                DataSemantic::HashTable,
                BufferData::I64(vec![]),
                0,
                0
            )
            .is_err());
    }

    #[test]
    fn delete_phase_frees_everything() {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        hub.load_bound_input(
            &mut devices,
            DataRef::Input(0),
            gpu,
            "in0",
            BoundRows::bare(&[1, 2, 3]),
        )
        .unwrap();
        assert!(devices.get(gpu).unwrap().pool().used() > 0);
        hub.delete_all(&mut devices);
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
    }

    #[test]
    fn router_source_is_lowest_device_id() {
        // Three devices; the ref is resident on devices 1 and 2. Routing to
        // device 0 must always pull from device 1 — the lowest holder —
        // not whichever the residency map happens to iterate first.
        let mut devices = DeviceRegistry::new();
        let a = devices.add(Box::new(DeviceProfile::cuda_rtx2080ti().build(DeviceId(0))));
        let b = devices.add(Box::new(DeviceProfile::opencl_cpu_i7().build(DeviceId(1))));
        let c = devices.add(Box::new(DeviceProfile::opencl_cpu_i7().build(DeviceId(2))));
        let mut hub = DataTransferHub::new();
        let data = DataRef::Input(0);
        let col = vec![7i64; 64];
        hub.load_bound_input(&mut devices, data, b, "in0", BoundRows::bare(&col))
            .unwrap();
        hub.load_bound_input(&mut devices, data, c, "in0", BoundRows::bare(&col))
            .unwrap();

        hub.router(&mut devices, data, a).unwrap();
        assert!(devices.get(b).unwrap().clock().bytes_d2h() > 0);
        assert_eq!(devices.get(c).unwrap().clock().bytes_d2h(), 0);
    }

    #[test]
    fn host_accumulation_rejects_out_of_order_chunks() {
        let mut hub = DataTransferHub::new();
        let r = DataRef::Input(0);
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![1, 2]), 0, 2)
            .unwrap();
        // Replay of an already-consumed offset.
        assert!(hub
            .host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![9]), 1, 1)
            .is_err());
        // Gap: skipping ahead is just as wrong.
        assert!(hub
            .host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![9]), 4, 1)
            .is_err());
        // The expected offset still works.
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![3]), 2, 1)
            .unwrap();
        assert_eq!(hub.take_host(r), Some(BufferData::I64(vec![1, 2, 3])));
    }

    #[test]
    fn position_rebase_overflow_is_rejected() {
        let mut hub = DataTransferHub::new();
        let r = DataRef::Input(0);
        // Walk the expected offset to the edge of the u32 range with an
        // empty chunk, then offer positions that would wrap when rebased.
        let edge = u32::MAX as usize;
        hub.host_accumulate(r, DataSemantic::Position, BufferData::U32(vec![]), 0, edge)
            .unwrap();
        assert!(hub
            .host_accumulate(r, DataSemantic::Position, BufferData::U32(vec![5]), edge, 1)
            .is_err());

        // A chunk offset that itself exceeds u32 is rejected outright.
        let far = edge + 10;
        let s = DataRef::Input(1);
        hub.host_accumulate(s, DataSemantic::Position, BufferData::U32(vec![]), 0, far)
            .unwrap();
        assert!(hub
            .host_accumulate(s, DataSemantic::Position, BufferData::U32(vec![0]), far, 1)
            .is_err());
    }

    #[test]
    fn rollback_frees_only_buffers_after_mark() {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let kept = DataRef::Input(0);
        hub.load_bound_input(&mut devices, kept, gpu, "in0", BoundRows::bare(&[1, 2, 3]))
            .unwrap();
        let used_before = devices.get(gpu).unwrap().pool().used();
        let mark = hub.mark();

        let rolled = DataRef::Input(1);
        hub.load_bound_input(&mut devices, rolled, gpu, "in0", BoundRows::bare(&[4; 100]))
            .unwrap();
        assert!(devices.get(gpu).unwrap().pool().used() > used_before);

        hub.rollback_to(&mut devices, mark);
        assert_eq!(devices.get(gpu).unwrap().pool().used(), used_before);
        // The pre-mark buffer survived, the post-mark one is untracked.
        assert!(hub.resident(kept, gpu).is_some());
        assert!(hub.resident(rolled, gpu).is_none());
        // And the sweep still releases the survivor exactly once.
        hub.delete_all(&mut devices);
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
    }

    #[test]
    fn release_untracks_so_delete_all_cannot_double_delete() {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let data = DataRef::Input(0);
        let id = hub
            .load_bound_input(&mut devices, data, gpu, "in0", BoundRows::bare(&[1, 2, 3]))
            .unwrap();
        hub.release(&mut devices, gpu, id).unwrap();
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
        assert!(hub.resident(data, gpu).is_none());
        // Releasing an untracked buffer is an error, not a silent no-op.
        assert!(hub.release(&mut devices, gpu, id).is_err());
        // The final sweep has nothing left referencing the freed id.
        hub.delete_all(&mut devices);
    }

    #[test]
    fn corrupted_place_is_retransmitted_until_clean() {
        use adamant_device::fault::FaultPlan;
        let (mut devices, gpu, _) = two_devices();
        devices
            .get_mut(gpu)
            .unwrap()
            .state_mut()
            .faults
            .install(FaultPlan::none().corrupt_on_place(1));
        let mut hub = DataTransferHub::new();
        let host = SharedRows::new(vec![1, 2, 3, 4]);
        let id = hub
            .load_bound_input(
                &mut devices,
                DataRef::Input(0),
                gpu,
                "in0",
                BoundRows::kept(&host),
            )
            .unwrap();
        // The first transmission was corrupted; the pool's checksum echo
        // exposed it and the hub retransmitted.
        assert_eq!(hub.take_corruption_retransmits(), 1);
        // The bit was flipped in the device's own copy: the host's rows —
        // shared by reference with whoever else bound the column — are what
        // they were, and the memo the upload read its sender hash from holds
        // the hash of those rows, not of anything that crossed the link.
        assert_eq!(**host.rows(), [1, 2, 3, 4]);
        assert_eq!(
            host.known_content_hash(),
            Some(BufferData::I64(vec![1, 2, 3, 4]).checksum())
        );
        let dev = devices.get(gpu).unwrap();
        assert_eq!(dev.state().faults.counters().corruptions_injected, 1);
        assert_eq!(
            dev.pool().checksum(id, None, 0).unwrap(),
            BufferData::I64(vec![1, 2, 3, 4]).checksum()
        );
        // What the device now holds is the clean payload.
        let payload = devices
            .get_mut(gpu)
            .unwrap()
            .retrieve_data(id, None, 0)
            .unwrap();
        assert_eq!(payload, BufferData::I64(vec![1, 2, 3, 4]));
        // The drain reset the log.
        assert_eq!(hub.take_corruption_retransmits(), 0);
        // A state reset frees the buffers but keeps the plan's ordinals:
        // place #1 is behind us, so the next upload goes through clean.
        devices.get_mut(gpu).unwrap().state_mut().reset();
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
        let mut hub = DataTransferHub::new();
        hub.load_bound_input(
            &mut devices,
            DataRef::Input(0),
            gpu,
            "in0",
            BoundRows::bare(&[1, 2, 3, 4]),
        )
        .unwrap();
        assert_eq!(hub.take_corruption_retransmits(), 0);
        let counters = devices.get(gpu).unwrap().state().faults.counters();
        assert_eq!(counters.corruptions_injected, 1);
    }

    #[test]
    fn corrupted_retrieve_is_reread() {
        use adamant_device::fault::FaultPlan;
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let id = hub
            .load_bound_input(
                &mut devices,
                DataRef::Input(0),
                gpu,
                "in0",
                BoundRows::bare(&[9, 8, 7]),
            )
            .unwrap();
        // Corrupt the *next* retrieve only (transfer ordinals count from
        // plan installation).
        devices
            .get_mut(gpu)
            .unwrap()
            .state_mut()
            .faults
            .install(FaultPlan::none().corrupt_on_retrieve(1));
        let payload = hub
            .retrieve_verified(&mut devices, gpu, id, None, 0)
            .unwrap();
        assert_eq!(payload, BufferData::I64(vec![9, 8, 7]));
        assert_eq!(hub.take_corruption_retransmits(), 1);
        // A scripted death is permanent: the state reset between queries
        // must not revive the device.
        let dev = devices.get_mut(gpu).unwrap();
        dev.state_mut()
            .faults
            .install(FaultPlan::none().die_at_ns(0.0));
        let gone = |r: adamant_device::error::Result<()>| {
            assert!(matches!(r, Err(DeviceError::Gone { .. })), "got {r:?}")
        };
        gone(dev.retrieve_data(id, None, 0).map(drop));
        dev.state_mut().reset();
        gone(dev.initialize());
        assert_eq!(dev.state().faults.counters().deaths_injected, 1);
    }

    #[test]
    fn exhausted_retransmit_budget_surfaces_corruption_error() {
        use adamant_device::fault::FaultPlan;
        let (mut devices, gpu, _) = two_devices();
        // Every place is corrupted: scripted ordinals 1..=8 cover the whole
        // budget of 3 transmissions with room to spare.
        let mut plan = FaultPlan::none();
        for n in 1..=8 {
            plan = plan.corrupt_on_place(n);
        }
        devices
            .get_mut(gpu)
            .unwrap()
            .state_mut()
            .faults
            .install(plan);
        let mut hub = DataTransferHub::new();
        hub.set_retransmit_budget(3);
        let before = devices.get(gpu).unwrap().clock().transfer_ns();
        let err = hub
            .load_bound_input(
                &mut devices,
                DataRef::Input(0),
                gpu,
                "in0",
                BoundRows::bare(&[1, 2, 3]),
            )
            .unwrap_err();
        assert!(
            matches!(err, ExecError::TransferCorrupted { device, .. } if device == gpu),
            "got {err}"
        );
        assert_eq!(hub.take_corruption_retransmits(), 3);
        // Doubling back-off was charged for attempts 2 and 3.
        let spent = devices.get(gpu).unwrap().clock().transfer_ns() - before;
        assert!(spent >= 500.0 + 1000.0, "backoff missing: {spent}");
        // The poisoned buffer is still tracked, so the sweep reclaims it.
        hub.delete_all(&mut devices);
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
    }

    #[test]
    fn router_reads_a_holder_before_the_host_copy() {
        // A device copy and a host accumulation of the same ref: the router
        // reads the resident holder, whichever device it is, and leaves the
        // host copy for when no device holds the data.
        let (mut devices, gpu, cpu) = two_devices();
        let mut hub = DataTransferHub::new();
        let r = DataRef::Output {
            node: crate::graph::NodeId(0),
            port: 0,
        };
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![5, 6]), 0, 2)
            .unwrap();
        let id = hub.fresh_id();
        let dev = devices.get_mut(gpu).unwrap();
        dev.prepare_memory(id, 16).unwrap();
        dev.place_data(id, BufferData::I64(vec![5, 6]), 0).unwrap();
        hub.track_created(gpu, id);
        hub.register_resident(r, gpu, id);
        let d2h_before = devices.get(gpu).unwrap().clock().bytes_d2h();

        let id_cpu = hub.router(&mut devices, r, cpu).unwrap();

        assert!(devices.get(gpu).unwrap().clock().bytes_d2h() > d2h_before);
        let payload = devices
            .get_mut(cpu)
            .unwrap()
            .retrieve_data(id_cpu, None, 0)
            .unwrap();
        assert_eq!(payload, BufferData::I64(vec![5, 6]));
    }

    #[test]
    fn bulk_release_does_bounded_work() {
        // Regression: `release` used to do two full-map `retain` scans per
        // freed buffer, making a bulk evict sweep O(created × resident).
        // The reverse index keeps it O(log n) per buffer; the probe counter
        // (not a wall clock) asserts the bound.
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let n = 1000usize;
        let mut buffers = Vec::with_capacity(n);
        for i in 0..n {
            let id = hub
                .load_bound_input(
                    &mut devices,
                    DataRef::Input(i),
                    gpu,
                    "in0",
                    BoundRows::bare(&[i as i64]),
                )
                .unwrap();
            buffers.push(id);
        }
        assert_eq!(hub.release_probes(), 0, "loads must not count as probes");
        for id in buffers {
            hub.release(&mut devices, gpu, id).unwrap();
        }
        // One probe per buffer plus one per resident ref pointing at it:
        // 2n here. The old quadratic sweep would have counted ~n²/2.
        assert_eq!(hub.release_probes(), 2 * n as u64);
        assert_eq!(devices.get(gpu).unwrap().pool().used(), 0);
        // Everything is untracked: the sweep has nothing left to free.
        hub.delete_all(&mut devices);
    }

    #[test]
    fn rollback_counts_unexpected_delete_errors() {
        use adamant_device::device::DeviceInfo;
        use adamant_device::sim::SimDevice;
        use adamant_device::transform::TransformTable;

        // A buffer tracked but never actually allocated: the fault died
        // mid-allocation (OOM between `track_created` and the pool insert).
        // Rollback must tolerate the resulting `UnknownBuffer` silently.
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let mark = hub.mark();
        hub.track_created(gpu, BufferId(777));
        hub.rollback_to(&mut devices, mark);
        assert_eq!(hub.take_rollback_delete_errors(), 0);

        // A device that fails `delete_memory` for a *different* reason
        // (never initialized → `DeviceError::NotInitialized`): that is data
        // loss the run must hear about, not swallow.
        let p = DeviceProfile::cuda_rtx2080ti();
        let broken = SimDevice::new(
            DeviceInfo {
                id: DeviceId(9),
                name: p.name.clone(),
                kind: p.kind,
                sdk: p.sdk,
                memory_capacity: p.memory_capacity,
                pinned_capacity: p.pinned_capacity,
            },
            p.cost.clone(),
            TransformTable::new(),
            p.supports_compilation,
        );
        let bad = devices.add(Box::new(broken));
        let mark = hub.mark();
        hub.track_created(bad, BufferId(1));
        hub.rollback_to(&mut devices, mark);
        assert_eq!(hub.take_rollback_delete_errors(), 1);
        // The drain reset the counter.
        assert_eq!(hub.take_rollback_delete_errors(), 0);
    }

    #[test]
    fn host_upload_is_a_clone() {
        let (mut devices, gpu, _) = two_devices();
        let mut hub = DataTransferHub::new();
        let r = DataRef::Output {
            node: crate::graph::NodeId(0),
            port: 0,
        };
        hub.host_accumulate(r, DataSemantic::Numeric, BufferData::I64(vec![1, 2]), 0, 2)
            .unwrap();
        let id = hub.router(&mut devices, r, gpu).unwrap();
        let payload = devices
            .get_mut(gpu)
            .unwrap()
            .retrieve_data(id, None, 0)
            .unwrap();
        assert_eq!(payload, BufferData::I64(vec![1, 2]));
        // The host copy is still there: deleting the device buffer (e.g. in
        // a recovery rollback) cannot lose the accumulated result.
        assert!(hub.has_host(r));
        assert_eq!(hub.take_host(r), Some(BufferData::I64(vec![1, 2])));
    }
}
