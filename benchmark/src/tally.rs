//! Counters the engine already exports, summed over rounds.
//!
//! Everything here lives on the modeled clock or is a count, so the same
//! seed must reproduce every value exactly; the determinism guard compares
//! [`Tally::fingerprint`]s.

use adamant::prelude::{ExecutionStats, SchedulerStats};
use std::collections::BTreeMap;

/// Keys merged by maximum instead of by sum (high-water marks).
const HIGH_WATER: [&str; 2] = ["device.peak_pool_bytes", "core.residency.pinned_bytes"];

/// Counters only a recovery path increments.
pub const RECOVERY_PATHS: [&str; 9] = [
    "core.executor.retries",
    "core.executor.chunk_backoffs",
    "core.executor.fallback_placements",
    "core.executor.hedged_launches",
    "core.executor.hedge_wins",
    "core.executor.device_deaths",
    "core.executor.resumes",
    "core.executor.chunks_skipped_on_resume",
    "core.hub.corruption_retransmits",
];

/// Further counters that, like [`RECOVERY_PATHS`], must stay 0 on a
/// workload with no fault plan and no checkpoints.
pub const FAULT_ONLY: [&str; 4] = [
    "core.checkpoint.taken",
    "core.checkpoint.bytes",
    "core.checkpoint.resume_validation_failures",
    "device.faults_injected",
];

/// Named sums (or high-water marks) of engine-exported counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    /// Adds `v` to `key` (or raises it, for a high-water key).
    pub fn add(&mut self, key: &'static str, v: f64) {
        let slot = self.0.entry(key).or_insert(0.0);
        if HIGH_WATER.contains(&key) {
            *slot = slot.max(v);
        } else {
            *slot += v;
        }
    }

    /// The value under `key`, 0 when never touched.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: &Tally) {
        for (&k, &v) in &other.0 {
            self.add(k, v);
        }
    }

    /// True when any counter that only a recovery path increments is set.
    pub fn any_recovery(&self) -> bool {
        RECOVERY_PATHS.iter().any(|k| self.get(k) > 0.0)
    }

    /// Every value with all its bits, for byte-exact comparison.
    pub fn fingerprint(&self) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{k}={:016x}", v.to_bits()))
            .collect();
        parts.join(";")
    }

    /// Folds one query's executor statistics in (everything but the
    /// end-to-end modeled total, which the scheduler workload defines
    /// differently).
    pub fn fold_stats(&mut self, s: &ExecutionStats) {
        let n = |v: usize| v as f64;
        // Modeled times are exported in ns and reported in ms.
        let ms = |ns: f64| ns / 1e6;
        self.add("core.fusion.nodes_fused", n(s.nodes_fused));
        self.add(
            "core.fusion.elided_bytes",
            s.intermediates_elided_bytes as f64,
        );
        self.add(
            "core.fusion.saved_modeled_ms",
            ms(s.fusion_saved_transfer_ns),
        );
        self.add("core.executor.chunks", n(s.chunks_processed));
        self.add("core.executor.pipelines", n(s.pipelines));
        self.add("core.executor.retries", n(s.retries));
        self.add("core.executor.chunk_backoffs", n(s.chunk_backoffs));
        self.add(
            "core.executor.fallback_placements",
            n(s.fallback_placements),
        );
        self.add("core.executor.hedged_launches", n(s.hedged_launches));
        self.add("core.executor.hedge_wins", n(s.hedge_wins));
        self.add("core.executor.device_deaths", n(s.device_deaths));
        self.add("core.executor.resumes", n(s.resumes));
        self.add(
            "core.executor.chunks_skipped_on_resume",
            n(s.chunks_skipped_on_resume),
        );
        self.add("core.executor.total_modeled_ns", s.total_ns);
        self.add("core.executor.overhead_modeled_ns", s.overhead_ns());
        self.add("core.hub.bytes_h2d", s.bytes_h2d as f64);
        self.add("core.hub.bytes_d2h", s.bytes_d2h as f64);
        self.add("core.hub.intermediate_bytes", s.intermediate_bytes as f64);
        self.add(
            "core.hub.corruption_retransmits",
            n(s.corruption_retransmits),
        );
        self.add("core.residency.hits", n(s.cache_hits));
        self.add("core.residency.misses", n(s.cache_misses));
        self.add("core.residency.evictions", n(s.cache_evictions));
        self.add("core.residency.pinned_bytes", s.cache_pinned_bytes as f64);
        self.add(
            "core.residency.saved_transfer_modeled_ms",
            ms(s.cache_saved_transfer_ns),
        );
        self.add("core.checkpoint.taken", n(s.checkpoints_taken));
        self.add("core.checkpoint.bytes", s.checkpoint_bytes as f64);
        self.add(
            "core.checkpoint.resume_validation_failures",
            n(s.resume_validation_failures),
        );
        self.add("device.modeled_transfer_ms", ms(s.transfer_ns));
        self.add("device.modeled_compute_ms", ms(s.compute_ns));
        self.add("device.modeled_other_ms", ms(s.other_ns));
        self.add(
            "device.faults_injected",
            s.device_faults.values().sum::<u64>() as f64,
        );
        self.add(
            "device.peak_pool_bytes",
            s.peak_device_bytes.values().copied().max().unwrap_or(0) as f64,
        );
        // Modeled kernel time of the join primitives (build, probe and the
        // semi-join probe) against all primitives: the join-vs-scan
        // separation, on the clock that repeats exactly. `hash_agg` stays
        // out: Q1 groups by it without joining anything.
        for (label, ns) in &s.per_primitive_ns {
            self.add("task.primitive_modeled_ns", *ns);
            if ["hash_build", "hash_probe", "semi("]
                .iter()
                .any(|k| label.contains(k))
            {
                self.add("task.join_modeled_ns", *ns);
            }
        }
    }

    /// Folds one scheduler drain in. `heavy`/`light` name the tenants whose
    /// contended-time ratio is held against their weight ratio.
    pub fn fold_sched(&mut self, s: &SchedulerStats, heavy: &str, light: &str) {
        self.add("sched.held", s.held as f64);
        self.add("sched.slices", s.slices as f64);
        self.add("sched.preemptions", s.preemptions as f64);
        self.add("sched.deadline_misses", s.deadline_misses as f64);
        self.add("sched.makespan_modeled_ms", s.makespan_ns / 1e6);
        self.add(
            "sched.wait_modeled_ms",
            s.tenants.values().map(|t| t.wait_ns).sum::<f64>() / 1e6,
        );
        if let (Some(h), Some(l)) = (s.tenants.get(heavy), s.tenants.get(light)) {
            if l.contended_run_ns > 0.0 && l.weight > 0.0 {
                let err = (h.contended_run_ns / l.contended_run_ns - h.weight / l.weight).abs();
                self.add("sched.fair_share_error_sum", err);
                self.add("sched.drains", 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_and_high_water_marks() {
        let mut a = Tally::default();
        a.add("core.executor.chunks", 3.0);
        a.add("device.peak_pool_bytes", 10.0);
        let mut b = Tally::default();
        b.add("core.executor.chunks", 4.0);
        b.add("device.peak_pool_bytes", 7.0);
        a.merge(&b);
        assert_eq!(a.get("core.executor.chunks"), 7.0);
        assert_eq!(a.get("device.peak_pool_bytes"), 10.0);
        assert_eq!(a.get("never"), 0.0);
        assert!(!a.any_recovery());
        a.add("core.executor.retries", 1.0);
        assert!(a.any_recovery());
    }

    #[test]
    fn fingerprint_sees_the_last_bit() {
        let mut a = Tally::default();
        a.add("x", 0.1 + 0.2);
        let mut b = Tally::default();
        b.add("x", 0.3);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn default_stats_fold_to_zeroes() {
        let mut t = Tally::default();
        t.fold_stats(&ExecutionStats::default());
        assert!(RECOVERY_PATHS
            .iter()
            .chain(&FAULT_ONLY)
            .all(|k| t.get(k) == 0.0));
    }
}
