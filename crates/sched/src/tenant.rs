//! The scheduler's one record per tenant — name, weight, FIFO of queued
//! queries, weighted-fair-queuing pass, count of admitted-but-unfinished
//! queries, statistics — and the two decisions read off those records.
//!
//! * **Admission** ([`admission_candidate`]): every tenant's head-of-line
//!   query competes at `weight · (1 + waited / AGE_BOOST_NS)`; highest
//!   first, then earliest deadline (none last), then lowest ticket. Aging
//!   is multiplicative, so any waiter eventually outranks any fixed weight
//!   and no tenant starves. Priorities are evaluated lazily against the
//!   current virtual time (no heap): queue depths are small and selection
//!   cost is dwarfed by the modeled execution it gates.
//! * **Service** ([`next_to_serve`]): weighted fair queuing over the shared
//!   timeline. The next slice goes to the running tenant with the smallest
//!   pass, ties to the earlier-registered tenant; serving `d` ns advances
//!   the pass by `d / weight`, so a weight-2 tenant receives ≈2× the device
//!   time under sustained load. A tenant that starts running again enters
//!   at the minimum running pass ([`start`]): idle time banks no credit.
//!   Preemption is not idling: a tenant whose queries are all parked stays
//!   running, is neither served nor charged, keeps its pass frozen, and
//!   catches up exactly the service it was denied once it is servable.

use crate::scheduler::QuerySpec;
use crate::stats::TenantStats;
use std::collections::VecDeque;

/// Waiting this many modeled ns doubles a queued query's effective weight
/// (≈10 ms of simulated time).
const AGE_BOOST_NS: f64 = 1e7;

/// One queued query: its ticket, when it was submitted, its absolute
/// deadline on the shared timeline (`submit_vt + deadline_ns`), and the
/// submission itself.
pub(crate) struct Queued {
    pub(crate) ticket: u64,
    pub(crate) submit_vt: f64,
    pub(crate) deadline_vt: Option<f64>,
    pub(crate) spec: QuerySpec,
}

/// Everything the scheduler knows about one tenant.
pub(crate) struct Tenant {
    pub(crate) name: String,
    /// Fair-share weight, kept within `[1e-9, f64::MAX]`: a zero weight
    /// cannot stall the pass, an infinite one cannot reach the JSON export
    /// as `inf`.
    weight: f64,
    /// Queued queries in submission (= ticket) order.
    pub(crate) queue: VecDeque<Queued>,
    /// Weighted service received so far (device ns / weight).
    pass: f64,
    /// Admitted queries not yet finished or shed.
    running: usize,
    /// Accounting; its `weight` is filled in by [`Tenant::stats`].
    pub(crate) stats: TenantStats,
}

impl Tenant {
    pub(crate) fn new(name: &str, weight: f64) -> Self {
        let mut t = Tenant {
            name: name.to_string(),
            weight: 1.0,
            queue: VecDeque::new(),
            pass: 0.0,
            running: 0,
            stats: TenantStats::default(),
        };
        t.set_weight(weight);
        t
    }

    /// Updates the weight. The accumulated pass is kept, so a re-weighted
    /// tenant neither gains nor loses banked service.
    pub(crate) fn set_weight(&mut self, weight: f64) {
        // A NaN weight takes the floor; `clamp` alone would keep it NaN.
        self.weight = if weight.is_nan() {
            1e-9
        } else {
            weight.clamp(1e-9, f64::MAX)
        };
    }

    /// Queues a query at the back of the tenant's FIFO.
    pub(crate) fn push(&mut self, queued: Queued) {
        self.queue.push_back(queued);
        self.stats.submitted += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
    }

    /// Charges a served slice of `duration_ns`.
    pub(crate) fn charge(&mut self, duration_ns: f64) {
        self.pass += duration_ns.max(0.0) / self.weight;
    }

    /// Marks one admitted query finished (completed or shed).
    pub(crate) fn finish(&mut self) {
        self.running -= 1;
    }

    /// The tenant's statistics, weight included.
    pub(crate) fn stats(&self) -> TenantStats {
        TenantStats {
            weight: self.weight,
            ..self.stats.clone()
        }
    }
}

/// Marks one more of `tenants[i]`'s queries admitted. A tenant that was not
/// running is first brought forward to the minimum running pass.
pub(crate) fn start(tenants: &mut [Tenant], i: usize) {
    if tenants[i].running == 0 {
        let floor = tenants
            .iter()
            .filter(|t| t.running > 0)
            .map(|t| t.pass)
            .fold(f64::INFINITY, f64::min);
        if floor.is_finite() {
            tenants[i].pass = tenants[i].pass.max(floor);
        }
    }
    tenants[i].running += 1;
}

/// The tenant whose head-of-line query should be admitted next at `now_vt`
/// (see the module docs for the order), or `None` when nothing is queued.
pub(crate) fn admission_candidate(tenants: &[Tenant], now_vt: f64) -> Option<usize> {
    let mut best: Option<(f64, f64, u64, usize)> = None;
    for (i, t) in tenants.iter().enumerate() {
        let Some(head) = t.queue.front() else {
            continue;
        };
        let waited = (now_vt - head.submit_vt).max(0.0);
        let eff = t.weight * (1.0 + waited / AGE_BOOST_NS);
        let dl = head.deadline_vt.unwrap_or(f64::INFINITY);
        let better = best.is_none_or(|(beff, bdl, bticket, _)| {
            eff.total_cmp(&beff)
                .then(bdl.total_cmp(&dl))
                .then(bticket.cmp(&head.ticket))
                .is_gt()
        });
        if better {
            best = Some((eff, dl, head.ticket, i));
        }
    }
    best.map(|(.., i)| i)
}

/// The running tenant that should receive the next slice among those
/// `servable` admits: smallest pass, earliest-registered on ties. `None`
/// when no running tenant is servable.
pub(crate) fn next_to_serve(tenants: &[Tenant], servable: impl Fn(usize) -> bool) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, t) in tenants.iter().enumerate() {
        if t.running == 0 || !servable(i) {
            continue;
        }
        match best {
            Some((bp, _)) if bp <= t.pass => {}
            _ => best = Some((t.pass, i)),
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_core::executor::QueryInputs;
    use adamant_core::models::ExecutionModel;
    use adamant_device::device::DeviceId;
    use adamant_plan::PlanBuilder;
    use adamant_task::params::AggFunc;

    fn spec() -> QuerySpec {
        let mut pb = PlanBuilder::new(DeviceId(0));
        let mut s = pb.scan("t", &["x"]);
        let x = s.materialized(&mut pb, "x").unwrap();
        let sum = pb.agg_block(x, AggFunc::Sum, "s");
        pb.output("s", sum);
        QuerySpec::new(
            pb.build().unwrap(),
            QueryInputs::new(),
            ExecutionModel::Chunked,
        )
    }

    fn queued(ticket: u64, submit_vt: f64, deadline_vt: Option<f64>) -> Queued {
        Queued {
            ticket,
            submit_vt,
            deadline_vt,
            spec: spec(),
        }
    }

    fn name(tenants: &[Tenant], now_vt: f64) -> &str {
        &tenants[admission_candidate(tenants, now_vt).unwrap()].name
    }

    #[test]
    fn higher_weight_tenant_goes_first() {
        let mut q = vec![Tenant::new("light", 1.0), Tenant::new("heavy", 2.0)];
        q[0].push(queued(1, 0.0, None));
        q[1].push(queued(2, 0.0, None));
        let i = admission_candidate(&q, 0.0).unwrap();
        assert_eq!(q[i].name, "heavy");
        assert_eq!(q[i].queue[0].ticket, 2);
    }

    #[test]
    fn aging_lets_a_light_tenant_overtake() {
        let mut q = vec![Tenant::new("light", 1.0), Tenant::new("heavy", 4.0)];
        // Light submitted long ago; heavy just arrived.
        q[0].push(queued(1, 0.0, None));
        q[1].push(queued(2, 10.0 * AGE_BOOST_NS, None));
        // Light has waited 10 boosts: 1*(1+10) = 11 > 4.
        assert_eq!(
            name(&q, 10.0 * AGE_BOOST_NS),
            "light",
            "aged query must outrank raw weight"
        );
        // Immediately after both submit, raw weight still wins.
        let mut fresh = vec![Tenant::new("light", 1.0), Tenant::new("heavy", 4.0)];
        fresh[0].push(queued(1, 0.0, None));
        fresh[1].push(queued(2, 0.0, None));
        assert_eq!(name(&fresh, 0.0), "heavy");
    }

    #[test]
    fn edf_breaks_equal_weight_ties_then_fifo() {
        let mut q = vec![Tenant::new("a", 1.0), Tenant::new("b", 1.0)];
        q[0].push(queued(1, 0.0, Some(9_000.0)));
        q[1].push(queued(2, 0.0, Some(5_000.0)));
        assert_eq!(name(&q, 0.0), "b", "tighter deadline wins the tie");
        // No deadlines at all → submission (ticket) order, whichever tenant
        // registered first.
        let mut f = vec![Tenant::new("a", 1.0), Tenant::new("b", 1.0)];
        f[1].push(queued(1, 0.0, None));
        f[0].push(queued(2, 0.0, None));
        let i = admission_candidate(&f, 0.0).unwrap();
        assert_eq!(f[i].queue[0].ticket, 1);
    }

    #[test]
    fn fifo_within_one_tenant() {
        let mut q = vec![Tenant::new("t", 1.0)];
        q[0].push(queued(10, 0.0, None));
        q[0].push(queued(11, 0.0, Some(1.0)));
        // Even though the second entry has a tight deadline, the head of
        // line goes first: FIFO within a tenant.
        assert_eq!(admission_candidate(&q, 0.0), Some(0));
        assert_eq!(q[0].queue.pop_front().unwrap().ticket, 10);
        assert_eq!(q[0].queue[0].ticket, 11);
        assert_eq!(q[0].stats.max_queue_depth, 2);
    }

    /// Serves `rounds` slices of 10 ns and returns each tenant's service.
    fn serve(tenants: &mut [Tenant], rounds: usize) -> Vec<f64> {
        let mut served = vec![0.0; tenants.len()];
        for _ in 0..rounds {
            let s = next_to_serve(tenants, |_| true).unwrap();
            tenants[s].charge(10.0);
            served[s] += 10.0;
        }
        served
    }

    #[test]
    fn wfq_shares_proportionally_to_weight() {
        let mut t = vec![Tenant::new("heavy", 2.0), Tenant::new("light", 1.0)];
        start(&mut t, 0);
        start(&mut t, 1);
        let served = serve(&mut t, 300);
        let ratio = served[0] / served[1];
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "2:1 weights should yield ~2x service, got {ratio}"
        );
    }

    #[test]
    fn wfq_idle_stream_does_not_bank_credit() {
        let mut t = vec![Tenant::new("a", 1.0), Tenant::new("b", 1.0)];
        start(&mut t, 0);
        // `a` runs alone for a long time...
        for _ in 0..100 {
            let s = next_to_serve(&t, |_| true).unwrap();
            assert_eq!(s, 0);
            t[s].charge(10.0);
        }
        // ...then `b` arrives. It must not monopolize the device to "catch
        // up" the 1000 ns it was absent for: service alternates from here.
        start(&mut t, 1);
        let mut b_streak = 0usize;
        let mut max_streak = 0usize;
        for _ in 0..50 {
            let s = next_to_serve(&t, |_| true).unwrap();
            t[s].charge(10.0);
            if s == 1 {
                b_streak += 1;
                max_streak = max_streak.max(b_streak);
            } else {
                b_streak = 0;
            }
        }
        assert!(
            max_streak <= 2,
            "late arrival must not monopolize: streak {max_streak}"
        );
    }

    #[test]
    fn wfq_set_weight_takes_effect_immediately() {
        let mut t = vec![Tenant::new("a", 1.0), Tenant::new("b", 1.0)];
        start(&mut t, 0);
        start(&mut t, 1);
        // Re-weight `a` to 2.0 before any service: it must now receive ≈2×.
        t[0].set_weight(2.0);
        assert_eq!(t[0].stats().weight, 2.0);
        let served = serve(&mut t, 300);
        let ratio = served[0] / served[1];
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "updated weight must drive service, got {ratio}"
        );
        // Floor applies to updates too: zero weight cannot stall the pass.
        t[1].set_weight(0.0);
        t[1].charge(1.0);
        assert!(t[1].weight > 0.0);
        assert!(t[1].pass.is_finite());
    }

    #[test]
    fn wfq_suspended_stream_is_skipped_and_catches_up_on_resume() {
        let mut t = vec![Tenant::new("a", 1.0), Tenant::new("b", 1.0)];
        start(&mut t, 0);
        start(&mut t, 1);
        // Park `a`: all service goes to `b`, `a`'s pass stays frozen.
        for _ in 0..10 {
            let s = next_to_serve(&t, |s| s != 0).unwrap();
            assert_eq!(s, 1, "a parked tenant must never be served");
            t[s].charge(10.0);
        }
        // Serve `a` again without the start() floor: it is behind and
        // catches up exactly the 100 ns it was denied before `b` is served
        // again.
        let mut a_catchup = 0.0;
        loop {
            let s = next_to_serve(&t, |_| true).unwrap();
            if s != 0 {
                break;
            }
            t[s].charge(10.0);
            a_catchup += 10.0;
        }
        // 100 ns of catch-up brings the passes level; the tie then goes to
        // the earlier-registered tenant, so `a` gets exactly one extra slice.
        assert_eq!(
            a_catchup, 110.0,
            "resumed tenant must catch up the denied service"
        );
        // Parking everything leaves no servable tenant.
        assert_eq!(next_to_serve(&t, |_| false), None);
    }

    #[test]
    fn wfq_deactivate_and_ties_are_deterministic() {
        let mut t = vec![Tenant::new("a", 1.0), Tenant::new("b", 1.0)];
        start(&mut t, 0);
        start(&mut t, 1);
        assert_eq!(
            next_to_serve(&t, |_| true),
            Some(0),
            "ties go to the earlier-registered tenant"
        );
        t[0].finish();
        assert_eq!(next_to_serve(&t, |_| true), Some(1));
        t[1].finish();
        assert_eq!(next_to_serve(&t, |_| true), None);
        // Zero-weight tenants are floored, not divide-by-zero.
        t.push(Tenant::new("z", 0.0));
        start(&mut t, 2);
        t[2].charge(1.0);
        assert_eq!(next_to_serve(&t, |_| true), Some(2));
    }
}
