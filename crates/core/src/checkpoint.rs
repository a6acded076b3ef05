//! Query checkpoints: consistent host-side snapshots of partial progress.
//!
//! Every heavyweight recovery path used to restart the query from row 0 —
//! a fault at 95% progress forfeited 95% of the work. A [`QueryCheckpoint`]
//! captures, at pipeline-breaker and chunk-interval boundaries, everything
//! needed to resume from the last consistent boundary instead:
//!
//! * the number of pipelines already completed;
//! * the in-progress pipeline's high-water scan offset (rows whose results
//!   are already host-accumulated) and the chunk count behind it;
//! * every host accumulation (cloned, with its contiguity watermark);
//! * host copies of every materialized breaker accumulator still resident
//!   on a device (retrieved over the verified transfer path, so capture
//!   pays real modeled D2H cost).
//!
//! Checkpoints are **device-agnostic**: no [`DeviceId`] appears in the
//! snapshot. On resume the run's placement after re-placement (the device
//! of the pipeline that produced each entry) decides where the entry lands,
//! so a snapshot taken before a device died restores cleanly onto whatever
//! survivors remain. The whole snapshot is guarded by
//! a seal: FNV-1a framing (counts, refs, watermarks) over one
//! content-hash term per payload — the same word-parallel hash, computed in
//! place, that verifies the payload's transfers. A snapshot that fails
//! [`QueryCheckpoint::validate`] (e.g. scripted corruption via
//! `FaultPlan::corrupt_checkpoint`) is discarded and recovery degrades to
//! the old full restart — never a wrong answer.
//!
//! [`DeviceId`]: adamant_device::device::DeviceId

use crate::graph::DataRef;
use adamant_device::buffer::BufferData;
use adamant_storage::fnv::FnvHasher;
use std::hash::Hasher;

/// Configuration of the checkpoint subsystem (disabled by default).
///
/// Capture sites are chunk boundaries (every
/// [`CheckpointConfig::chunk_interval`]-th chunk is *considered*) and
/// pipeline-breaker boundaries (always considered). A considered boundary
/// actually captures only when the cost-model policy agrees: the modeled
/// re-execution cost accumulated since the last snapshot must exceed the
/// estimated capture cost times [`CheckpointConfig::cost_factor`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointConfig {
    /// Master switch; `false` keeps the legacy restart-from-row-0 behavior.
    pub enabled: bool,
    /// Consider a snapshot every `chunk_interval` streamed chunks (minimum
    /// 1 = every chunk boundary).
    pub chunk_interval: usize,
    /// Capture when `work_since_last_snapshot > capture_cost_estimate *
    /// cost_factor`. Lower values checkpoint more eagerly; `0.0` captures
    /// at every considered boundary.
    pub cost_factor: f64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            enabled: false,
            chunk_interval: 1,
            cost_factor: 2.0,
        }
    }
}

impl CheckpointConfig {
    /// An enabled config with the default interval and cost factor.
    pub fn enabled() -> Self {
        CheckpointConfig {
            enabled: true,
            ..CheckpointConfig::default()
        }
    }

    /// Sets the chunk interval between considered snapshot boundaries.
    pub fn chunk_interval(mut self, every: usize) -> Self {
        self.chunk_interval = every.max(1);
        self
    }

    /// Sets the re-execution-cost-to-capture-cost factor.
    ///
    /// # Panics
    /// Panics if `factor` is negative or not finite.
    pub fn cost_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "cost factor must be finite and >= 0"
        );
        self.cost_factor = factor;
        self
    }
}

/// One consistent snapshot of query progress, host-side and checksummed.
#[derive(Debug)]
pub struct QueryCheckpoint {
    /// Pipelines fully completed when the snapshot was taken; resume skips
    /// them entirely.
    pub pipelines_done: usize,
    /// Scan rows of the in-progress streaming pipeline whose results are
    /// inside the snapshot (0 when captured at a pipeline boundary). The
    /// resumed pipeline streams from this offset.
    pub resume_offset: usize,
    /// Streamed chunks whose results the snapshot holds (what a resume
    /// skips re-executing).
    pub chunks_done: usize,
    /// Host accumulations: `(ref, cloned accumulation, contiguity
    /// watermark)`, sorted by ref for deterministic checksums.
    pub host: Vec<(DataRef, BufferData, usize)>,
    /// Host copies of device-resident breaker accumulators, sorted by ref.
    /// Device-agnostic: the resume re-places each onto the producing node's
    /// post-recovery device.
    pub resident: Vec<(DataRef, BufferData)>,
    /// Total snapshot payload bytes (host accumulations + resident copies).
    pub bytes: u64,
    /// The seal over the canonical serialization of everything above
    /// (FNV-1a framing over per-payload content hashes);
    /// [`QueryCheckpoint::validate`] recomputes and compares.
    pub checksum: u64,
}

fn eat_ref(h: &mut FnvHasher, r: &DataRef) {
    let (tag, a, b) = match r {
        DataRef::Input(i) => (0, *i, 0),
        DataRef::Output { node, port } => (1, node.0, *port),
    };
    h.write(&[tag]);
    h.write_u64(a as u64);
    h.write_u64(b as u64);
}

impl QueryCheckpoint {
    /// Computes the canonical seal of the snapshot's content (everything
    /// except the stored `checksum` itself): the framing goes through
    /// FNV-1a, each payload contributes its content hash, computed in place.
    pub fn compute_checksum(&self) -> u64 {
        let mut h = FnvHasher::default();
        h.write_u64(self.pipelines_done as u64);
        h.write_u64(self.resume_offset as u64);
        h.write_u64(self.chunks_done as u64);
        h.write_u64(self.host.len() as u64);
        for (r, accum, watermark) in &self.host {
            eat_ref(&mut h, r);
            h.write_u64(*watermark as u64);
            h.write_u64(accum.checksum());
        }
        h.write_u64(self.resident.len() as u64);
        for (r, payload) in &self.resident {
            eat_ref(&mut h, r);
            h.write_u64(payload.checksum());
        }
        h.finish()
    }

    /// Seals the snapshot: stores the canonical checksum and the payload
    /// byte total. Called once by the capture path after assembly.
    pub fn seal(&mut self) {
        self.bytes = self
            .host
            .iter()
            .map(|(_, a, _)| a.byte_len())
            .chain(self.resident.iter().map(|(_, p)| p.byte_len()))
            .sum();
        self.checksum = self.compute_checksum();
    }

    /// Whether the snapshot still matches its sealed checksum. A resume
    /// only trusts a validating snapshot; anything else degrades to a full
    /// restart.
    pub fn validate(&self) -> bool {
        self.compute_checksum() == self.checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    fn sample() -> QueryCheckpoint {
        let mut c = QueryCheckpoint {
            pipelines_done: 1,
            resume_offset: 512,
            chunks_done: 2,
            host: vec![(
                DataRef::Output {
                    node: NodeId(3),
                    port: 0,
                },
                BufferData::I64(vec![1, 2, 3]),
                512,
            )],
            resident: vec![(
                DataRef::Output {
                    node: NodeId(1),
                    port: 0,
                },
                BufferData::I64(vec![10, 20]),
            )],
            bytes: 0,
            checksum: 0,
        };
        c.seal();
        c
    }

    #[test]
    fn sealed_snapshot_validates() {
        let c = sample();
        assert!(c.validate());
        assert_eq!(c.bytes, 3 * 8 + 2 * 8);
    }

    #[test]
    fn seal_value_is_pinned() {
        assert_eq!(sample().checksum, 3762029210870556846);
    }

    #[test]
    fn accumulated_value_tamper_fails_validation() {
        let mut c = sample();
        match &mut c.host[0].1 {
            BufferData::I64(v) => v[1] ^= 1,
            _ => unreachable!(),
        }
        assert!(!c.validate());
    }

    #[test]
    fn content_tamper_fails_validation() {
        let mut c = sample();
        match &mut c.resident[0].1 {
            BufferData::I64(v) => v[0] ^= 1,
            _ => unreachable!(),
        }
        assert!(!c.validate());
    }

    #[test]
    fn checksum_tamper_fails_validation() {
        let mut c = sample();
        c.checksum ^= 1;
        assert!(!c.validate());
    }

    #[test]
    fn metadata_is_part_of_the_checksum() {
        let mut c = sample();
        c.resume_offset += 1;
        assert!(!c.validate());
        let mut c = sample();
        c.resident[0].0 = DataRef::Output {
            node: NodeId(1),
            port: 1,
        };
        assert!(!c.validate(), "a resident entry's ref is sealed");
        let mut c = sample();
        c.host[0].0 = DataRef::Input(3);
        assert!(!c.validate(), "a host entry's ref is sealed");
        let mut c = sample();
        c.host[0].2 -= 1;
        assert!(!c.validate(), "a host watermark is sealed");
    }

    #[test]
    fn config_defaults_are_off_and_builders_clamp() {
        let d = CheckpointConfig::default();
        assert!(!d.enabled);
        let c = CheckpointConfig::enabled()
            .chunk_interval(0)
            .cost_factor(0.5);
        assert!(c.enabled);
        assert_eq!(c.chunk_interval, 1);
        assert_eq!(c.cost_factor, 0.5);
    }
}
