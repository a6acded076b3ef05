//! The simulated device clock.
//!
//! Every costed operation a driver performs is recorded as a [`CostEvent`]
//! on the device's [`SimClock`]. The execution models in `adamant-core`
//! consume these events to build a query timeline: the chunked model sums
//! transfer and compute serially, the pipelined/4-phase models overlap the
//! lanes (paper Figs. 6 and 8).

/// Which lane of the device an event occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Host→device transfer (copy engine).
    TransferH2D,
    /// Device→host transfer (copy engine).
    TransferD2H,
    /// Kernel execution (compute engine).
    Compute,
    /// Memory allocation / free / registration.
    Alloc,
    /// Representation transform (`transform_memory`).
    Transform,
    /// Runtime kernel compilation.
    Compile,
}

impl Lane {
    /// Whether this lane belongs to the copy engine (can overlap compute).
    pub fn is_transfer(self) -> bool {
        matches!(self, Lane::TransferH2D | Lane::TransferD2H)
    }
}

/// One costed operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEvent {
    /// Lane occupied.
    pub lane: Lane,
    /// Modeled duration in nanoseconds (after any injected dilation).
    pub duration_ns: f64,
    /// Fault-free modeled duration in nanoseconds: what the cost model
    /// predicted before slowdown/stall injection. Watchdog budgets are
    /// derived from this value; for undilated events it equals
    /// `duration_ns`.
    pub clean_ns: f64,
    /// Bytes moved (0 for pure compute).
    pub bytes: u64,
}

/// Per-device event recorder with running totals.
#[derive(Debug, Default)]
pub struct SimClock {
    events: Vec<CostEvent>,
    total_ns: f64,
    transfer_ns: f64,
    compute_ns: f64,
    bytes_h2d: u64,
    bytes_d2h: u64,
}

impl SimClock {
    /// Creates an empty clock.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Records an event whose actual duration matches the cost model.
    pub fn record(&mut self, lane: Lane, duration_ns: f64, bytes: u64) {
        self.record_dilated(lane, duration_ns, duration_ns, bytes);
    }

    /// Records an event whose actual duration diverges from the fault-free
    /// model (straggler injection dilates transfers and kernels). Totals use
    /// the *actual* duration; `clean_ns` rides along for watchdog budgets.
    pub fn record_dilated(&mut self, lane: Lane, clean_ns: f64, duration_ns: f64, bytes: u64) {
        self.total_ns += duration_ns;
        match lane {
            Lane::TransferH2D => {
                self.transfer_ns += duration_ns;
                self.bytes_h2d += bytes;
            }
            Lane::TransferD2H => {
                self.transfer_ns += duration_ns;
                self.bytes_d2h += bytes;
            }
            Lane::Compute => self.compute_ns += duration_ns,
            _ => {}
        }
        self.events.push(CostEvent {
            lane,
            duration_ns,
            clean_ns,
            bytes,
        });
    }

    /// Removes and yields all recorded events in order (the runtime drains
    /// after each step to attribute costs to chunks/primitives). The buffer
    /// keeps its capacity for the next step's events.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, CostEvent> {
        self.events.drain(..)
    }

    /// Events recorded since the last drain.
    pub fn events(&self) -> &[CostEvent] {
        &self.events
    }

    /// Sum of all event durations ever recorded (serial total).
    pub fn total_ns(&self) -> f64 {
        self.total_ns
    }

    /// Total transfer time (both directions).
    pub fn transfer_ns(&self) -> f64 {
        self.transfer_ns
    }

    /// Total compute time.
    pub fn compute_ns(&self) -> f64 {
        self.compute_ns
    }

    /// Bytes moved host→device.
    pub fn bytes_h2d(&self) -> u64 {
        self.bytes_h2d
    }

    /// Bytes moved device→host.
    pub fn bytes_d2h(&self) -> u64 {
        self.bytes_d2h
    }

    /// Clears events and totals (between experiments).
    pub fn reset(&mut self) {
        *self = SimClock::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut c = SimClock::new();
        c.record(Lane::TransferH2D, 100.0, 1024);
        c.record(Lane::Compute, 50.0, 0);
        c.record(Lane::TransferD2H, 25.0, 512);
        c.record(Lane::Alloc, 10.0, 0);
        assert_eq!(c.total_ns(), 185.0);
        assert_eq!(c.transfer_ns(), 125.0);
        assert_eq!(c.compute_ns(), 50.0);
        assert_eq!(c.bytes_h2d(), 1024);
        assert_eq!(c.bytes_d2h(), 512);
    }

    #[test]
    fn drain_empties_but_keeps_totals() {
        let mut c = SimClock::new();
        c.record(Lane::Compute, 5.0, 0);
        assert_eq!(c.drain_events().len(), 1);
        assert!(c.events().is_empty());
        assert!(c.events.capacity() > 0, "the drained buffer is kept");
        assert_eq!(c.total_ns(), 5.0);
        c.reset();
        assert_eq!(c.total_ns(), 0.0);
    }

    #[test]
    fn dilated_events_keep_clean_duration() {
        let mut c = SimClock::new();
        c.record(Lane::Compute, 5.0, 0);
        c.record_dilated(Lane::TransferH2D, 10.0, 80.0, 64);
        assert_eq!(c.total_ns(), 85.0, "totals bill the actual duration");
        assert_eq!(c.transfer_ns(), 80.0);
        let ev: Vec<CostEvent> = c.drain_events().collect();
        assert_eq!(ev[0].clean_ns, ev[0].duration_ns);
        assert_eq!(ev[1].clean_ns, 10.0);
        assert_eq!(ev[1].duration_ns, 80.0);
    }

    #[test]
    fn lane_classification() {
        assert!(Lane::TransferH2D.is_transfer());
        assert!(Lane::TransferD2H.is_transfer());
        assert!(!Lane::Compute.is_transfer());
        assert!(!Lane::Alloc.is_transfer());
    }
}
