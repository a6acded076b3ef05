//! Per-tenant admission queues: weighted priority, FIFO within a tenant,
//! starvation-free aging, and earliest-deadline-first tiebreaks.
//!
//! Ordering is evaluated lazily at candidate-selection time (no heap):
//! queue depths per tenant are small and selection cost is dwarfed by the
//! modeled execution it gates, while lazy evaluation keeps aging exact —
//! a query's effective weight is computed against the *current* virtual
//! time, not the one when it was enqueued.

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One queued admission request (the spec itself lives with the scheduler;
/// the queue tracks ordering metadata only).
#[derive(Clone, Debug)]
pub struct QueuedEntry {
    /// The scheduler-issued ticket identifying the query.
    pub ticket: u64,
    /// Global submission sequence number (final FIFO tiebreak).
    pub seq: u64,
    /// Virtual time when the query was submitted.
    pub submit_vt: f64,
    /// Absolute deadline on the shared timeline, if any
    /// (`submit_vt + deadline_ns`); `None` sorts last among equals.
    pub deadline_vt: Option<f64>,
}

/// Per-tenant weighted FIFO queues with aging.
#[derive(Debug, Default)]
pub struct AdmissionQueues {
    queues: BTreeMap<String, VecDeque<QueuedEntry>>,
    weights: BTreeMap<String, f64>,
    /// Waiting this many modeled ns doubles a tenant's effective weight
    /// (starvation-freedom: any waiter eventually outranks any fixed
    /// weight).
    age_boost_ns: f64,
}

impl AdmissionQueues {
    /// Creates empty queues; `age_boost_ns` controls how fast waiting
    /// queries gain priority (see [`AdmissionQueues::effective_weight`]).
    pub fn new(age_boost_ns: f64) -> Self {
        AdmissionQueues {
            age_boost_ns: if age_boost_ns > 0.0 {
                age_boost_ns
            } else {
                f64::INFINITY
            },
            ..Default::default()
        }
    }

    /// Registers `tenant` with a fair-share `weight` (floored to a small
    /// positive value). Re-registering updates the weight.
    pub fn register(&mut self, tenant: &str, weight: f64) {
        self.weights.insert(tenant.to_string(), weight.max(1e-9));
    }

    /// The tenant's registered weight (1.0 when never registered).
    pub fn weight(&self, tenant: &str) -> f64 {
        self.weights.get(tenant).copied().unwrap_or(1.0)
    }

    /// Registered tenant names, in deterministic order.
    pub fn tenants(&self) -> Vec<String> {
        self.weights.keys().cloned().collect()
    }

    /// Appends an entry to `tenant`'s FIFO queue; returns the new depth.
    pub fn push(&mut self, tenant: &str, entry: QueuedEntry) -> usize {
        if !self.weights.contains_key(tenant) {
            self.register(tenant, 1.0);
        }
        let q = self.queues.entry(tenant.to_string()).or_default();
        q.push_back(entry);
        q.len()
    }

    /// Total queued entries across tenants.
    pub fn len(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A tenant's priority for its head-of-line query at virtual time
    /// `now_vt`: the registered weight scaled up multiplicatively by how
    /// long the query has waited, so a low-weight tenant can starve for at
    /// most O(`age_boost_ns` · weight-ratio) before outranking everyone.
    pub fn effective_weight(&self, tenant: &str, submit_vt: f64, now_vt: f64) -> f64 {
        let waited = (now_vt - submit_vt).max(0.0);
        self.weight(tenant) * (1.0 + waited / self.age_boost_ns)
    }

    /// The next admission candidate at `now_vt`: the head-of-line entry of
    /// the tenant with the highest effective weight; ties broken by
    /// earliest deadline (EDF, `None` last), then submission order.
    /// Returns `(tenant, entry)` without removing it.
    pub fn peek_candidate(&self, now_vt: f64) -> Option<(String, QueuedEntry)> {
        let mut best: Option<(f64, f64, u64, String, QueuedEntry)> = None;
        for (tenant, q) in &self.queues {
            let Some(head) = q.front() else { continue };
            let eff = self.effective_weight(tenant, head.submit_vt, now_vt);
            let dl = head.deadline_vt.unwrap_or(f64::INFINITY);
            let better = match &best {
                None => true,
                Some((beff, bdl, bseq, _, _)) => {
                    // Higher effective weight wins; then earlier deadline;
                    // then earlier submission. total_cmp keeps NaN-free
                    // determinism.
                    match eff.total_cmp(beff) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => match dl.total_cmp(bdl) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Greater => false,
                            std::cmp::Ordering::Equal => head.seq < *bseq,
                        },
                    }
                }
            };
            if better {
                best = Some((eff, dl, head.seq, tenant.clone(), head.clone()));
            }
        }
        best.map(|(_, _, _, tenant, entry)| (tenant, entry))
    }

    /// Removes and returns `tenant`'s head-of-line entry.
    pub fn pop(&mut self, tenant: &str) -> Option<QueuedEntry> {
        self.queues.get_mut(tenant)?.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ticket: u64, seq: u64, submit_vt: f64, deadline_vt: Option<f64>) -> QueuedEntry {
        QueuedEntry {
            ticket,
            seq,
            submit_vt,
            deadline_vt,
        }
    }

    #[test]
    fn higher_weight_tenant_goes_first() {
        let mut q = AdmissionQueues::new(1e12);
        q.register("light", 1.0);
        q.register("heavy", 2.0);
        q.push("light", entry(1, 1, 0.0, None));
        q.push("heavy", entry(2, 2, 0.0, None));
        let (tenant, e) = q.peek_candidate(0.0).unwrap();
        assert_eq!(tenant, "heavy");
        assert_eq!(e.ticket, 2);
    }

    #[test]
    fn aging_lets_a_light_tenant_overtake() {
        let mut q = AdmissionQueues::new(1_000.0);
        q.register("light", 1.0);
        q.register("heavy", 4.0);
        // Light submitted long ago; heavy just arrived.
        q.push("light", entry(1, 1, 0.0, None));
        q.push("heavy", entry(2, 2, 10_000.0, None));
        // At vt=10_000 light has waited 10 boosts: 1*(1+10) = 11 > 4.
        let (tenant, _) = q.peek_candidate(10_000.0).unwrap();
        assert_eq!(tenant, "light", "aged query must outrank raw weight");
        // Immediately after both submit, raw weight still wins.
        let mut fresh = AdmissionQueues::new(1_000.0);
        fresh.register("light", 1.0);
        fresh.register("heavy", 4.0);
        fresh.push("light", entry(1, 1, 0.0, None));
        fresh.push("heavy", entry(2, 2, 0.0, None));
        assert_eq!(fresh.peek_candidate(0.0).unwrap().0, "heavy");
        // A non-positive horizon disables aging: raw weight wins however
        // long the light tenant has waited.
        let mut off = AdmissionQueues::new(0.0);
        off.register("light", 1.0);
        off.register("heavy", 4.0);
        off.push("light", entry(1, 1, 0.0, None));
        off.push("heavy", entry(2, 2, 10_000.0, None));
        assert_eq!(off.peek_candidate(1e18).unwrap().0, "heavy");
    }

    #[test]
    fn edf_breaks_equal_weight_ties_then_fifo() {
        let mut q = AdmissionQueues::new(f64::INFINITY);
        q.register("a", 1.0);
        q.register("b", 1.0);
        q.push("a", entry(1, 1, 0.0, Some(9_000.0)));
        q.push("b", entry(2, 2, 0.0, Some(5_000.0)));
        let (tenant, _) = q.peek_candidate(0.0).unwrap();
        assert_eq!(tenant, "b", "tighter deadline wins the tie");
        // No deadlines at all → submission order.
        let mut f = AdmissionQueues::new(f64::INFINITY);
        f.register("a", 1.0);
        f.register("b", 1.0);
        f.push("b", entry(2, 1, 0.0, None));
        f.push("a", entry(1, 2, 0.0, None));
        assert_eq!(f.peek_candidate(0.0).unwrap().1.seq, 1);
    }

    #[test]
    fn fifo_within_one_tenant() {
        let mut q = AdmissionQueues::new(1_000.0);
        q.register("t", 1.0);
        q.push("t", entry(10, 1, 0.0, None));
        q.push("t", entry(11, 2, 0.0, Some(1.0)));
        // Even though the second entry has a tight deadline, the head of
        // line goes first: FIFO within a tenant.
        assert_eq!(q.peek_candidate(0.0).unwrap().1.ticket, 10);
        assert_eq!(q.pop("t").unwrap().ticket, 10);
        assert_eq!(q.peek_candidate(0.0).unwrap().1.ticket, 11);
    }
}
