//! Scheduler-level statistics: per-tenant wait/run accounting, queue
//! depths, and admission/shedding counters.
//!
//! All times are *modeled* nanoseconds on the shared simulated timeline, so
//! same-seed runs export byte-identical JSON. Counters are cumulative
//! across [`crate::QueryScheduler::run_all`] calls on one scheduler.

use adamant_core::stats::escape_json;
use std::collections::BTreeMap;

/// Per-tenant accounting on the shared timeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// The tenant's fair-share weight.
    pub weight: f64,
    /// Queries submitted.
    pub submitted: u64,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries admitted but failed during execution.
    pub failed: u64,
    /// Queries shed before admission (deadline unmeetable).
    pub shed: u64,
    /// Queries rejected outright (footprint exceeds every device).
    pub rejected: u64,
    /// Total modeled ns the tenant's queries spent queued before admission.
    pub wait_ns: f64,
    /// Total modeled ns of device time charged to the tenant.
    pub run_ns: f64,
    /// The subset of [`TenantStats::run_ns`] accrued while at least one
    /// *other* tenant also had an admitted query — the denominator the
    /// fair-share guarantee is measured against.
    pub contended_run_ns: f64,
    /// Highest number of queries this tenant had queued at once.
    pub max_queue_depth: usize,
    /// Times one of this tenant's running queries was suspended by a
    /// higher-urgency query (its remaining slices parked until resume).
    pub preemptions: u64,
    /// Queries that completed *after* their own deadline (admitted in time
    /// but finished late under contention — never silent: the outcome
    /// carries `missed_deadline: true`).
    pub deadline_misses: u64,
}

/// Aggregate scheduler statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SchedulerStats {
    /// Modeled ns from the first admission to the last completion,
    /// cumulative across `run_all` calls.
    pub makespan_ns: f64,
    /// Device-time slices interleaved on the shared timeline.
    pub slices: u64,
    /// Queries admitted (reservation granted, execution started).
    pub admitted: u64,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries admitted but failed during execution.
    pub failed: u64,
    /// Admissions that had to wait at least one slice for reservations to
    /// free (the "held at the gate" count).
    pub held: u64,
    /// Queries rejected because their footprint exceeds every device's
    /// capacity — no amount of waiting could admit them.
    pub rejected_capacity: u64,
    /// Queries shed at admission because their remaining deadline budget
    /// could not cover the cheapest modeled placement (or was already
    /// spent waiting).
    pub shed_deadline: u64,
    /// Straggler watchdogs fired across all executed queries (chunks whose
    /// modeled duration overran the configured budget multiplier).
    pub watchdog_fires: u64,
    /// Hedged duplicate chunks launched across all executed queries.
    pub hedged_launches: u64,
    /// Hedged duplicates that beat their straggling primary.
    pub hedge_wins: u64,
    /// Checksum-mismatch retransmits across all executed queries (silent
    /// transfer corruption caught by the hub's end-to-end verification).
    pub corruption_retransmits: u64,
    /// Running queries suspended so that a deadline query whose slack fell
    /// to the preemption slack could drain its slices first.
    pub preemptions: u64,
    /// Suspended queries resumed after the urgent work drained (every
    /// preemption is eventually matched by a resume or a completion).
    pub resumed: u64,
    /// Queries that completed past their own deadline. With preemption on,
    /// urgent queries are prioritized to avoid this; any residue is
    /// surfaced on the outcome (`Completed { missed_deadline: true }`), not
    /// reported as silent success.
    pub deadline_misses: u64,
    /// Admitted queries shed because their reserved capacity vanished with
    /// a permanently dead device and no survivor could absorb the
    /// reservation (`QueryOutcome::Shed { reason: CapacityLost }`).
    pub shed_capacity_lost: u64,
    /// Permanent device deaths observed across all executed queries.
    pub device_deaths: u64,
    /// Buffers written off dead devices across all executed queries.
    pub buffers_written_off: u64,
    /// Bytes re-staged onto survivors after device deaths.
    pub restaged_bytes: u64,
    /// Devices hot-added between runs.
    pub hot_adds: u64,
    /// Partial-progress checkpoints captured across all executed queries.
    pub checkpoints_taken: u64,
    /// Total bytes of checkpoint snapshot payload captured.
    pub checkpoint_bytes: u64,
    /// Recoveries that resumed from a validated checkpoint instead of
    /// restarting from row 0.
    pub resumes: u64,
    /// Chunks whose re-execution checkpoint resumes skipped.
    pub chunks_skipped_on_resume: u64,
    /// Checkpoints rejected at resume time (failed validation or restore),
    /// degrading recovery to a full restart.
    pub resume_validation_failures: u64,
    /// Per-tenant breakdown, keyed by tenant name (deterministic order).
    pub tenants: BTreeMap<String, TenantStats>,
}

impl SchedulerStats {
    /// Exports the stats as a deterministic JSON object (hand-rolled, like
    /// `ExecutionStats::to_json`; same seed ⇒ byte-identical string).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        s.push_str(&format!("\"makespan_ns\":{:.1}", self.makespan_ns));
        s.push_str(&format!(",\"slices\":{}", self.slices));
        s.push_str(&format!(",\"admitted\":{}", self.admitted));
        s.push_str(&format!(",\"completed\":{}", self.completed));
        s.push_str(&format!(",\"failed\":{}", self.failed));
        s.push_str(&format!(",\"held\":{}", self.held));
        s.push_str(&format!(
            ",\"rejected_capacity\":{}",
            self.rejected_capacity
        ));
        s.push_str(&format!(",\"shed_deadline\":{}", self.shed_deadline));
        s.push_str(&format!(",\"watchdog_fires\":{}", self.watchdog_fires));
        s.push_str(&format!(",\"hedged_launches\":{}", self.hedged_launches));
        s.push_str(&format!(",\"hedge_wins\":{}", self.hedge_wins));
        s.push_str(&format!(
            ",\"corruption_retransmits\":{}",
            self.corruption_retransmits
        ));
        s.push_str(&format!(",\"preemptions\":{}", self.preemptions));
        s.push_str(&format!(",\"resumed\":{}", self.resumed));
        s.push_str(&format!(",\"deadline_misses\":{}", self.deadline_misses));
        s.push_str(&format!(
            ",\"shed_capacity_lost\":{}",
            self.shed_capacity_lost
        ));
        s.push_str(&format!(",\"device_deaths\":{}", self.device_deaths));
        s.push_str(&format!(
            ",\"buffers_written_off\":{}",
            self.buffers_written_off
        ));
        s.push_str(&format!(",\"restaged_bytes\":{}", self.restaged_bytes));
        s.push_str(&format!(",\"hot_adds\":{}", self.hot_adds));
        s.push_str(&format!(
            ",\"checkpoints_taken\":{}",
            self.checkpoints_taken
        ));
        s.push_str(&format!(",\"checkpoint_bytes\":{}", self.checkpoint_bytes));
        s.push_str(&format!(",\"resumes\":{}", self.resumes));
        s.push_str(&format!(
            ",\"chunks_skipped_on_resume\":{}",
            self.chunks_skipped_on_resume
        ));
        s.push_str(&format!(
            ",\"resume_validation_failures\":{}",
            self.resume_validation_failures
        ));
        s.push_str(",\"tenants\":{");
        let mut first = true;
        for (name, t) in &self.tenants {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\"{}\":{{\"weight\":{:.3},\"submitted\":{},\"completed\":{},\
                 \"failed\":{},\"shed\":{},\"rejected\":{},\"wait_ns\":{:.1},\
                 \"run_ns\":{:.1},\"contended_run_ns\":{:.1},\"max_queue_depth\":{},\
                 \"preemptions\":{},\"deadline_misses\":{}}}",
                escape_json(name),
                t.weight,
                t.submitted,
                t.completed,
                t.failed,
                t.shed,
                t.rejected,
                t.wait_ns,
                t.run_ns,
                t.contended_run_ns,
                t.max_queue_depth,
                t.preemptions,
                t.deadline_misses
            ));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let mut stats = SchedulerStats {
            makespan_ns: 1234.5,
            slices: 7,
            admitted: 3,
            completed: 2,
            failed: 1,
            held: 1,
            rejected_capacity: 1,
            shed_deadline: 2,
            watchdog_fires: 4,
            hedged_launches: 3,
            hedge_wins: 2,
            corruption_retransmits: 5,
            preemptions: 3,
            resumed: 3,
            deadline_misses: 1,
            shed_capacity_lost: 1,
            device_deaths: 2,
            buffers_written_off: 6,
            restaged_bytes: 4096,
            hot_adds: 1,
            checkpoints_taken: 4,
            checkpoint_bytes: 2048,
            resumes: 2,
            chunks_skipped_on_resume: 9,
            resume_validation_failures: 1,
            ..Default::default()
        };
        stats.tenants.insert(
            "beta".into(),
            TenantStats {
                weight: 1.0,
                submitted: 2,
                completed: 1,
                wait_ns: 500.0,
                run_ns: 300.25,
                contended_run_ns: 100.0,
                max_queue_depth: 2,
                ..Default::default()
            },
        );
        stats.tenants.insert(
            "alpha".into(),
            TenantStats {
                weight: 2.0,
                submitted: 1,
                completed: 1,
                ..Default::default()
            },
        );
        let json = stats.to_json();
        // BTreeMap keys: alpha before beta, every run.
        assert!(json.find("\"alpha\"").unwrap() < json.find("\"beta\"").unwrap());
        assert!(json.contains("\"makespan_ns\":1234.5"));
        assert!(json.contains("\"watchdog_fires\":4"));
        assert!(json.contains("\"hedged_launches\":3"));
        assert!(json.contains("\"hedge_wins\":2"));
        assert!(json.contains("\"corruption_retransmits\":5"));
        assert!(json.contains("\"preemptions\":3"));
        assert!(json.contains("\"resumed\":3"));
        assert!(json.contains("\"deadline_misses\":1"));
        assert!(json.contains("\"shed_capacity_lost\":1"));
        assert!(json.contains("\"device_deaths\":2"));
        assert!(json.contains("\"buffers_written_off\":6"));
        assert!(json.contains("\"restaged_bytes\":4096"));
        assert!(json.contains("\"hot_adds\":1"));
        assert!(json.contains("\"checkpoints_taken\":4"));
        assert!(json.contains("\"checkpoint_bytes\":2048"));
        assert!(json.contains("\"resumes\":2"));
        assert!(json.contains("\"chunks_skipped_on_resume\":9"));
        assert!(json.contains("\"resume_validation_failures\":1"));
        assert!(json.contains("\"wait_ns\":500.0"));
        assert!(json.contains("\"contended_run_ns\":100.0"));
        assert_eq!(json, stats.to_json(), "export must be deterministic");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
