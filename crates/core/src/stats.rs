//! Execution statistics — the quantities the paper's figures report.

use std::collections::BTreeMap;

/// Statistics of one query execution.
///
/// All `*_ns` fields are **modeled** times from the device cost models
/// (deterministic, hardware-independent); `wall_ns` is the real wall clock
/// of the simulation itself.
#[derive(Clone, Debug, Default)]
pub struct ExecutionStats {
    /// Execution model name.
    pub model: String,
    /// Total modeled elapsed time (makespan under the model's overlap
    /// policy). The y-axis of Fig. 11.
    pub total_ns: f64,
    /// Modeled time spent on transfers (serial sum, both directions).
    pub transfer_ns: f64,
    /// Modeled time spent in kernels (serial sum).
    pub compute_ns: f64,
    /// Modeled time in allocation/free/transform/compile operations.
    pub other_ns: f64,
    /// Modeled kernel time per node label (Fig. 10's "sum of processing
    /// time of the individual primitives").
    pub per_primitive_ns: BTreeMap<String, f64>,
    /// Bytes moved host→device.
    pub bytes_h2d: u64,
    /// Bytes moved device→host.
    pub bytes_d2h: u64,
    /// Peak device-memory usage per device name (Fig. 7-right): the pool's
    /// high-water mark since the device was plugged, not since this run
    /// started (runs do not reset it).
    pub peak_device_bytes: BTreeMap<String, u64>,
    /// Device-memory usage after each primitive execution, in order
    /// (`(label, bytes)`), for the Fig. 7-right footprint trace.
    pub memory_trace: Vec<(String, u64)>,
    /// Number of chunks processed across all streaming pipelines.
    pub chunks_processed: usize,
    /// Number of pipelines executed.
    pub pipelines: usize,
    /// Pipeline attempts that failed and were retried (any recovery kind).
    pub retries: usize,
    /// Retries where the streaming chunk size was halved after a device
    /// out-of-memory error.
    pub chunk_backoffs: usize,
    /// Retries where a pipeline was re-placed onto a fallback device after
    /// a persistent kernel failure or missing implementation.
    pub fallback_placements: usize,
    /// Runs aborted because the simulated-timeline deadline was exceeded.
    pub deadline_aborts: usize,
    /// Chunk executions whose modeled duration overran the watchdog budget
    /// (the cost model's fault-free expectation times the configured
    /// multiplier).
    pub watchdog_fires: usize,
    /// Hedged duplicate chunk executions launched on an alternate device
    /// after a watchdog fired.
    pub hedged_launches: usize,
    /// Hedged duplicates that finished ahead of the straggling primary and
    /// supplied the chunk's modeled completion time.
    pub hedge_wins: usize,
    /// Host↔device transfers retransmitted after an end-to-end checksum
    /// mismatch (silent corruption caught and repaired by the hub).
    pub corruption_retransmits: usize,
    /// Inputs served from a cross-query residency-cache pin created by an
    /// earlier run (first touch per run per `(device, input)`).
    pub cache_hits: usize,
    /// First-touch residency-cache lookups that found no usable pin.
    pub cache_misses: usize,
    /// Residency-cache entries evicted for budget or admission pressure.
    pub cache_evictions: usize,
    /// Residency-cache entries dropped by fault recovery or staleness.
    pub cache_invalidations: usize,
    /// Bytes the residency cache holds pinned device-side after this run.
    pub cache_pinned_bytes: u64,
    /// Modeled host→device nanoseconds the residency cache avoided (whole
    /// hits plus chunk stagings served device-internally).
    pub cache_saved_transfer_ns: f64,
    /// Rollback `delete_memory` failures that were *not* the tolerated
    /// died-mid-allocation case — real double-free/accounting bugs that
    /// would previously have been swallowed silently.
    pub rollback_delete_errors: usize,
    /// Devices that died permanently mid-run (first `Gone` observed) and
    /// were unplugged by the membership recovery path.
    pub device_deaths: usize,
    /// Buffers written off a dead device's hub bookkeeping without calling
    /// into it (the corpse keeps no reachable state).
    pub buffers_written_off: usize,
    /// Bytes of input lost with a dead device that were re-staged onto
    /// survivors from host copies during recovery.
    pub restaged_bytes: u64,
    /// Devices hot-added since the previous run.
    pub hot_adds: usize,
    /// Query checkpoints captured (pipeline-boundary + chunk-interval
    /// snapshots the cost policy accepted).
    pub checkpoints_taken: usize,
    /// Payload bytes across all captured snapshots (host accumulations plus
    /// retrieved breaker-accumulator copies).
    pub checkpoint_bytes: u64,
    /// Recoveries that resumed from a validated checkpoint instead of
    /// restarting from row 0.
    pub resumes: usize,
    /// Streamed chunks a resume skipped re-executing (work the latest
    /// checkpoint preserved).
    pub chunks_skipped_on_resume: usize,
    /// Recoveries that wanted to resume but found the latest checkpoint
    /// failing validation (or impossible to restore) and degraded to a full
    /// restart from row 0.
    pub resume_validation_failures: usize,
    /// Original graph nodes the fusion pass merged into fused nodes (stage
    /// count summed over all fused chains).
    pub nodes_fused: usize,
    /// Fused chains the fusion pass created (one fused node each).
    pub fused_chains: usize,
    /// Bytes of non-breaker intermediate output buffers this run actually
    /// materialized through the hub (sizing per
    /// `DataContainer::estimate_output_bytes`, whole-mode per node, streaming
    /// per chunk).
    pub intermediate_bytes: u64,
    /// Bytes of interior intermediates fused chains *avoided* materializing
    /// — what the same run would have added to `intermediate_bytes` with
    /// fusion off.
    pub intermediates_elided_bytes: u64,
    /// Modeled nanoseconds fused kernels saved over executing their stages
    /// as individual launches (per-stage launch overhead plus undiscounted
    /// bodies, minus the fused price).
    pub fusion_saved_transfer_ns: f64,
    /// Modeled duration of each interleavable slice of device time this run
    /// produced, in execution order: one entry per streamed chunk, one per
    /// whole-mode node. The multi-query scheduler replays these on the
    /// shared timeline; not exported to JSON (unbounded length).
    pub slice_ns: Vec<f64>,
    /// Faults injected per device name during this run (only devices with a
    /// non-zero count appear). Deterministic ordering for reproducible
    /// reports.
    pub device_faults: BTreeMap<String, u64>,
    /// Real wall-clock nanoseconds of the simulated run.
    pub wall_ns: u64,
}

impl ExecutionStats {
    /// Sum of per-primitive kernel times.
    pub fn primitive_total_ns(&self) -> f64 {
        self.per_primitive_ns.values().sum()
    }

    /// The abstraction-layer overhead of Fig. 10: total execution time minus
    /// the sum of the individual primitives' processing times.
    pub fn overhead_ns(&self) -> f64 {
        (self.total_ns - self.primitive_total_ns()).max(0.0)
    }

    /// Overhead as a fraction of total time.
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_ns > 0.0 {
            self.overhead_ns() / self.total_ns
        } else {
            0.0
        }
    }

    /// Total modeled time in milliseconds (convenience for reports).
    pub fn total_ms(&self) -> f64 {
        self.total_ns / 1e6
    }

    /// Adds a kernel-time sample for a node label (copied on first sight
    /// only: this runs once per kernel launch).
    pub fn record_primitive(&mut self, label: &str, ns: f64) {
        if let Some(total) = self.per_primitive_ns.get_mut(label) {
            *total += ns;
        } else {
            self.per_primitive_ns.insert(label.to_owned(), ns);
        }
    }

    /// Serializes the stats to a JSON object string (hand-rolled — the
    /// experiment harness archives run records without a format crate).
    pub fn to_json(&self) -> String {
        let esc = escape_json;
        let per_primitive: Vec<String> = self
            .per_primitive_ns
            .iter()
            .map(|(k, v)| format!("\"{}\":{:.1}", esc(k), v))
            .collect();
        let peaks: Vec<String> = self
            .peak_device_bytes
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
            .collect();
        let faults: Vec<String> = self
            .device_faults
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
            .collect();
        format!(
            concat!(
                "{{\"model\":\"{}\",\"total_ns\":{:.1},\"transfer_ns\":{:.1},",
                "\"compute_ns\":{:.1},\"other_ns\":{:.1},\"overhead_ns\":{:.1},",
                "\"bytes_h2d\":{},\"bytes_d2h\":{},\"chunks\":{},\"pipelines\":{},",
                "\"retries\":{},\"chunk_backoffs\":{},\"fallback_placements\":{},",
                "\"deadline_aborts\":{},",
                "\"watchdog_fires\":{},\"hedged_launches\":{},\"hedge_wins\":{},",
                "\"corruption_retransmits\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},",
                "\"cache_invalidations\":{},\"cache_pinned_bytes\":{},",
                "\"cache_saved_transfer_ns\":{:.1},\"rollback_delete_errors\":{},",
                "\"device_deaths\":{},\"buffers_written_off\":{},",
                "\"restaged_bytes\":{},\"hot_adds\":{},",
                "\"checkpoints_taken\":{},\"checkpoint_bytes\":{},\"resumes\":{},",
                "\"chunks_skipped_on_resume\":{},\"resume_validation_failures\":{},",
                "\"nodes_fused\":{},\"fused_chains\":{},\"intermediate_bytes\":{},",
                "\"intermediates_elided_bytes\":{},\"fusion_saved_transfer_ns\":{:.1},",
                "\"wall_ns\":{},\"per_primitive_ns\":{{{}}},\"peak_device_bytes\":{{{}}},",
                "\"device_faults\":{{{}}}}}"
            ),
            esc(&self.model),
            self.total_ns,
            self.transfer_ns,
            self.compute_ns,
            self.other_ns,
            self.overhead_ns(),
            self.bytes_h2d,
            self.bytes_d2h,
            self.chunks_processed,
            self.pipelines,
            self.retries,
            self.chunk_backoffs,
            self.fallback_placements,
            self.deadline_aborts,
            self.watchdog_fires,
            self.hedged_launches,
            self.hedge_wins,
            self.corruption_retransmits,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_invalidations,
            self.cache_pinned_bytes,
            self.cache_saved_transfer_ns,
            self.rollback_delete_errors,
            self.device_deaths,
            self.buffers_written_off,
            self.restaged_bytes,
            self.hot_adds,
            self.checkpoints_taken,
            self.checkpoint_bytes,
            self.resumes,
            self.chunks_skipped_on_resume,
            self.resume_validation_failures,
            self.nodes_fused,
            self.fused_chains,
            self.intermediate_bytes,
            self.intermediates_elided_bytes,
            self.fusion_saved_transfer_ns,
            self.wall_ns,
            per_primitive.join(","),
            peaks.join(","),
            faults.join(","),
        )
    }
}

/// Escapes `s` for the inside of a JSON string literal: `"`, `\\` and
/// every control character below U+0020 (`\n`, `\t`, `\r` by name, the
/// rest as `\u00XX`). Tenant, device and node names are caller-supplied
/// and may hold any of them.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        let mut s = ExecutionStats {
            total_ns: 100.0,
            ..Default::default()
        };
        s.record_primitive("filter", 30.0);
        s.record_primitive("agg", 40.0);
        s.record_primitive("filter", 10.0);
        assert_eq!(s.primitive_total_ns(), 80.0);
        assert_eq!(s.overhead_ns(), 20.0);
        assert!((s.overhead_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(s.per_primitive_ns["filter"], 40.0);
    }

    #[test]
    fn overhead_clamps_at_zero() {
        let mut s = ExecutionStats {
            total_ns: 10.0,
            ..Default::default()
        };
        s.record_primitive("k", 50.0);
        assert_eq!(s.overhead_ns(), 0.0);
        let empty = ExecutionStats::default();
        assert_eq!(empty.overhead_fraction(), 0.0);
    }

    #[test]
    fn unit_helpers() {
        let s = ExecutionStats {
            total_ns: 2_500_000.0,
            ..Default::default()
        };
        assert!((s.total_ms() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn json_export_is_well_formed() {
        let mut s = ExecutionStats {
            model: "chunked".into(),
            total_ns: 123.0,
            bytes_h2d: 42,
            ..Default::default()
        };
        s.record_primitive("filter \"x\"", 10.0);
        s.peak_device_bytes.insert("gpu0".into(), 2048);
        s.retries = 3;
        s.chunk_backoffs = 2;
        s.fallback_placements = 1;
        s.deadline_aborts = 1;
        s.watchdog_fires = 3;
        s.hedged_launches = 2;
        s.hedge_wins = 1;
        s.corruption_retransmits = 4;
        s.cache_hits = 6;
        s.cache_misses = 2;
        s.cache_evictions = 1;
        s.cache_invalidations = 3;
        s.cache_pinned_bytes = 4096;
        s.cache_saved_transfer_ns = 987.6;
        s.rollback_delete_errors = 1;
        s.device_deaths = 1;
        s.buffers_written_off = 5;
        s.restaged_bytes = 8192;
        s.hot_adds = 2;
        s.checkpoints_taken = 3;
        s.checkpoint_bytes = 512;
        s.resumes = 1;
        s.chunks_skipped_on_resume = 7;
        s.resume_validation_failures = 1;
        s.nodes_fused = 3;
        s.fused_chains = 1;
        s.intermediate_bytes = 16384;
        s.intermediates_elided_bytes = 12288;
        s.fusion_saved_transfer_ns = 456.7;
        s.device_faults.insert("gpu0".into(), 5);
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"model\":\"chunked\""));
        assert!(json.contains("\"bytes_h2d\":42"));
        assert!(json.contains("\"gpu0\":2048"));
        assert!(json.contains("\"retries\":3"));
        assert!(json.contains("\"chunk_backoffs\":2"));
        assert!(json.contains("\"fallback_placements\":1"));
        assert!(json.contains("\"deadline_aborts\":1"));
        assert!(json.contains("\"watchdog_fires\":3"));
        assert!(json.contains("\"hedged_launches\":2"));
        assert!(json.contains("\"hedge_wins\":1"));
        assert!(json.contains("\"corruption_retransmits\":4"));
        assert!(json.contains("\"cache_hits\":6"));
        assert!(json.contains("\"cache_misses\":2"));
        assert!(json.contains("\"cache_evictions\":1"));
        assert!(json.contains("\"cache_invalidations\":3"));
        assert!(json.contains("\"cache_pinned_bytes\":4096"));
        assert!(json.contains("\"cache_saved_transfer_ns\":987.6"));
        assert!(json.contains("\"rollback_delete_errors\":1"));
        assert!(json.contains("\"device_deaths\":1"));
        assert!(json.contains("\"buffers_written_off\":5"));
        assert!(json.contains("\"restaged_bytes\":8192"));
        assert!(json.contains("\"hot_adds\":2"));
        assert!(json.contains("\"checkpoints_taken\":3"));
        assert!(json.contains("\"checkpoint_bytes\":512"));
        assert!(json.contains("\"resumes\":1"));
        assert!(json.contains("\"chunks_skipped_on_resume\":7"));
        assert!(json.contains("\"resume_validation_failures\":1"));
        assert!(json.contains("\"nodes_fused\":3"));
        assert!(json.contains("\"fused_chains\":1"));
        assert!(json.contains("\"intermediate_bytes\":16384"));
        assert!(json.contains("\"intermediates_elided_bytes\":12288"));
        assert!(json.contains("\"fusion_saved_transfer_ns\":456.7"));
        assert!(json.contains("\"device_faults\":{\"gpu0\":5}"));
        // Quotes in labels are escaped.
        assert!(json.contains("filter \\\"x\\\""));
        // Balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
