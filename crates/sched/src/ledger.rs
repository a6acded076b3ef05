//! The admission reservation ledger.
//!
//! Every admitted query holds a device-memory reservation from admission
//! until it finishes (or fails) on the shared timeline, charged against the
//! per-device [`adamant_device::pool::BufferPool`] admission counters. The
//! scheduler admits a query only when its estimated footprint fits the
//! target device's *unreserved* capacity — so concurrently admitted queries
//! cannot OOM each other by construction, regardless of the order their
//! allocations interleave on the timeline.

use adamant_core::error::Result;
use adamant_core::executor::Executor;
use adamant_device::device::DeviceId;
use std::collections::BTreeMap;

/// Tracks which ticket holds how many reserved bytes on which device.
#[derive(Debug, Default)]
pub struct ReservationLedger {
    entries: BTreeMap<u64, (DeviceId, u64)>,
}

impl ReservationLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        ReservationLedger::default()
    }

    /// Reserves `bytes` on `device` for `ticket`. Fails (leaving the ledger
    /// unchanged) when the device's outstanding reservations cannot take it.
    ///
    /// Residency-cache pins draw from the same admission budget; when the
    /// first attempt fails the executor evicts pins on `device` until the
    /// reservation fits (LRU order) and one retry is made. Admissions
    /// therefore always win over cache pins — the cache can be starved, the
    /// admission queue cannot deadlock behind it.
    pub fn reserve(
        &mut self,
        executor: &mut Executor,
        device: DeviceId,
        ticket: u64,
        bytes: u64,
    ) -> Result<()> {
        debug_assert!(
            !self.entries.contains_key(&ticket),
            "ticket {ticket} reserved twice"
        );
        let first = executor
            .devices_mut()
            .get_mut(device)?
            .pool_mut()
            .admission_reserve(bytes);
        if let Err(first_err) = first {
            if executor.evict_residency_for_admission(device, bytes) == 0 {
                return Err(first_err.into());
            }
            executor
                .devices_mut()
                .get_mut(device)?
                .pool_mut()
                .admission_reserve(bytes)?;
        }
        self.entries.insert(ticket, (device, bytes));
        Ok(())
    }

    /// Releases whatever `ticket` holds (idempotent).
    pub fn release(&mut self, executor: &mut Executor, ticket: u64) {
        if let Some((device, bytes)) = self.entries.remove(&ticket) {
            if let Ok(dev) = executor.devices_mut().get_mut(device) {
                dev.pool_mut().admission_release(bytes);
            }
        }
    }

    /// Forgets every reservation on a permanently dead device **without**
    /// releasing anything against its pool (the corpse's accounting is
    /// reconciled by the engine's write-off, not by the ledger). Returns
    /// the displaced `(ticket, bytes)` pairs ascending by ticket — the
    /// scheduler re-admits them against survivors or sheds them with a
    /// typed outcome.
    pub fn detach_device(&mut self, device: DeviceId) -> Vec<(u64, u64)> {
        let displaced: Vec<(u64, u64)> = self
            .entries
            .iter()
            .filter(|(_, (d, _))| *d == device)
            .map(|(&t, &(_, b))| (t, b))
            .collect();
        for (t, _) in &displaced {
            self.entries.remove(t);
        }
        displaced
    }

    /// Devices with at least one outstanding reservation, ascending.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = self.entries.values().map(|(d, _)| *d).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of outstanding reservations.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_core::executor::{Executor, ExecutorConfig, QueryInputs};
    use adamant_core::models::ExecutionModel;
    use adamant_core::residency::ResidencyConfig;
    use adamant_device::profiles::DeviceProfile;
    use adamant_device::sdk::SdkKind;
    use adamant_plan::PlanBuilder;
    use adamant_task::params::AggFunc;
    use adamant_task::registry::TaskRegistry;

    fn executor_with_cache() -> (Executor, DeviceId) {
        let tasks = TaskRegistry::with_defaults(&[SdkKind::Cuda, SdkKind::Host]);
        let mut exec = Executor::new(
            tasks,
            ExecutorConfig {
                chunk_rows: 256,
                ..Default::default()
            },
        );
        let dev = exec.add_profile(&DeviceProfile::cuda_rtx2080ti()).unwrap();
        exec.set_residency_cache(ResidencyConfig::new(1 << 20));
        (exec, dev)
    }

    fn run_sum_query(exec: &mut Executor, dev: DeviceId) {
        let mut pb = PlanBuilder::new(dev);
        let mut s = pb.scan("t", &["x"]);
        let x = s.materialized(&mut pb, "x").unwrap();
        let sum = pb.agg_block(x, AggFunc::Sum, "s");
        pb.output("s", sum);
        let graph = pb.build().unwrap();
        let mut inputs = QueryInputs::new();
        inputs.bind("x", (0..4096).collect());
        exec.run(&graph, &inputs, ExecutionModel::Chunked).unwrap();
    }

    #[test]
    fn admission_evicts_cache_pins_instead_of_deadlocking() {
        // The pathological shape: the residency cache holds pins charged
        // against the admission budget, and a query asks for 100% of the
        // device. Pins must yield (LRU-evicted), the reservation must
        // succeed — admission can never starve behind the cache.
        let (mut exec, dev) = executor_with_cache();
        run_sum_query(&mut exec, dev);
        let reserved =
            |exec: &Executor| exec.devices().get(dev).unwrap().pool().admission_reserved();
        // The pins hold part of the admission budget...
        assert!(reserved(&exec) > 0, "the run should have pinned its input");
        let pool_total = exec.devices().get(dev).unwrap().pool().capacity();

        // ...yet the full capacity can be reserved: the pins were evicted
        // to make room, not deadlocked against.
        let mut ledger = ReservationLedger::new();
        ledger.reserve(&mut exec, dev, 1, pool_total).unwrap();
        assert_eq!(ledger.outstanding(), 1);
        assert_eq!(reserved(&exec), pool_total);

        // Beyond capacity still fails cleanly (nothing left to evict).
        assert!(ledger.reserve(&mut exec, dev, 2, 1).is_err());
        assert_eq!(ledger.outstanding(), 1);

        ledger.release(&mut exec, 1);
        assert_eq!(reserved(&exec), 0);
    }

    #[test]
    fn detach_forgets_reservations_without_touching_the_pool() {
        let tasks = TaskRegistry::with_defaults(&[SdkKind::Cuda, SdkKind::Host]);
        let mut exec = Executor::new(tasks, ExecutorConfig::default());
        let dev = exec.add_profile(&DeviceProfile::cuda_rtx2080ti()).unwrap();
        let mut ledger = ReservationLedger::new();
        ledger.reserve(&mut exec, dev, 1, 1024).unwrap();
        ledger.reserve(&mut exec, dev, 2, 2048).unwrap();
        let displaced = ledger.detach_device(dev);
        assert_eq!(displaced, vec![(1, 1024), (2, 2048)]);
        assert_eq!(ledger.outstanding(), 0);
        // The pool still carries the charge: the engine's write-off owns
        // reconciling a dead device, not the ledger.
        assert_eq!(
            exec.devices().get(dev).unwrap().pool().admission_reserved(),
            1024 + 2048
        );
    }

    #[test]
    fn reserve_without_cache_still_fails_on_oversubscription() {
        let tasks = TaskRegistry::with_defaults(&[SdkKind::Cuda, SdkKind::Host]);
        let mut exec = Executor::new(tasks, ExecutorConfig::default());
        let dev = exec.add_profile(&DeviceProfile::cuda_rtx2080ti()).unwrap();
        let cap = exec.devices().get(dev).unwrap().pool().capacity();
        let mut ledger = ReservationLedger::new();
        ledger.reserve(&mut exec, dev, 1, cap).unwrap();
        assert!(ledger.reserve(&mut exec, dev, 2, 1).is_err());
        ledger.release(&mut exec, 1);
        assert_eq!(ledger.outstanding(), 0);
    }
}
