//! Makespan computation for the execution models.
//!
//! Devices record *durations* per operation; the execution model decides how
//! those durations overlap. Chunked execution serializes transfer and
//! compute; pipelined/4-phase overlap the copy engine with the compute
//! engine (paper Figs. 6 and 8). This module turns per-chunk
//! `(transfer, compute)` pairs into a total elapsed time under each policy.

/// Per-chunk cost pair in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChunkCost {
    /// Time on the copy engine (H2D + D2H) for this chunk.
    pub transfer_ns: f64,
    /// Time on the compute engine for this chunk.
    pub compute_ns: f64,
}

/// Serial execution: every chunk waits for its transfer, the next transfer
/// waits for the previous compute (Algorithm 1's `router(); execute()` loop).
pub fn serial_makespan(chunks: &[ChunkCost]) -> f64 {
    chunks.iter().map(|c| c.transfer_ns + c.compute_ns).sum()
}

/// Overlapped execution with `staging_buffers` in-flight chunks.
///
/// * `compute_i` starts at `max(transfer_end_i, compute_end_{i-1})`;
/// * `transfer_i` starts at `max(transfer_end_{i-1},
///   compute_end_{i - staging_buffers})` — a chunk's staging slot is only
///   free once the chunk `staging_buffers` earlier has been processed
///   (the dual-memory alternation of Fig. 8 is `staging_buffers == 2`).
///
/// The paper's Algorithm 2 trackers (`fetched_until`/`processed_until`)
/// enforce exactly these constraints between its two threads. Here they
/// are this function's two arrays: the executor runs one host thread (it
/// moves no bytes a second thread could move for it — DESIGN.md §4), so the
/// overwrite-while-executing hazard the trackers guard is ruled out by the
/// slot arithmetic above rather than raced at run time.
pub fn overlapped_makespan(chunks: &[ChunkCost], staging_buffers: usize) -> f64 {
    assert!(staging_buffers >= 1);
    let n = chunks.len();
    let mut transfer_end = vec![0.0f64; n];
    let mut compute_end = vec![0.0f64; n];
    for i in 0..n {
        let prev_transfer = if i > 0 { transfer_end[i - 1] } else { 0.0 };
        let slot_free = if i >= staging_buffers {
            compute_end[i - staging_buffers]
        } else {
            0.0
        };
        let t_start = prev_transfer.max(slot_free);
        transfer_end[i] = t_start + chunks[i].transfer_ns;
        let prev_compute = if i > 0 { compute_end[i - 1] } else { 0.0 };
        let c_start = transfer_end[i].max(prev_compute);
        compute_end[i] = c_start + chunks[i].compute_ns;
    }
    compute_end.last().copied().unwrap_or(0.0)
}

/// Weighted fair queuing over the shared simulated timeline.
///
/// Each stream (a tenant, in the scheduler) carries a weight and a virtual
/// *pass* value. The next slice of device time goes to the active stream
/// with the smallest pass; charging a slice of duration `d` advances that
/// stream's pass by `d / weight`, so a weight-2 stream is eligible twice as
/// often as a weight-1 stream and receives ≈2× the device time under
/// sustained load. A stream that goes idle and returns re-enters at the
/// minimum active pass (it does not bank credit while idle — the classic
/// start-time fair queuing rule that keeps the discipline starvation-free).
///
/// Preemption is not idling: [`WfqClock::next_stream`] serves only the
/// active streams its `servable` predicate admits, so a stream the
/// scheduler has parked stays active, is never charged, and keeps its pass
/// frozen. When the predicate admits it again it has not gone through
/// [`WfqClock::activate`]'s floor rule, so it resumes behind its
/// competitors and catches up exactly the service it was denied.
///
/// Fully deterministic: ties break on the lowest stream index.
#[derive(Clone, Debug, Default)]
pub struct WfqClock {
    weights: Vec<f64>,
    passes: Vec<f64>,
    active: Vec<bool>,
}

impl WfqClock {
    /// Creates an empty clock.
    pub fn new() -> Self {
        WfqClock::default()
    }

    /// Registers a stream with the given weight (floored at a small positive
    /// value so a zero weight cannot stall the clock). Returns its index.
    pub fn add_stream(&mut self, weight: f64) -> usize {
        self.weights.push(weight.max(1e-9));
        self.passes.push(0.0);
        self.active.push(false);
        self.weights.len() - 1
    }

    /// Updates a stream's weight (floored like [`WfqClock::add_stream`]).
    /// Takes effect on the next charge; the accumulated pass is kept, so a
    /// re-weighted tenant neither gains nor loses banked service.
    pub fn set_weight(&mut self, idx: usize, weight: f64) {
        self.weights[idx] = weight.max(1e-9);
    }

    /// A stream's current weight.
    pub fn weight(&self, idx: usize) -> f64 {
        self.weights[idx]
    }

    /// Marks a stream active (it has work queued). A stream re-activating
    /// after idling is brought forward to the minimum active pass.
    pub fn activate(&mut self, idx: usize) {
        if self.active[idx] {
            return;
        }
        let floor = self
            .passes
            .iter()
            .zip(&self.active)
            .filter(|(_, &a)| a)
            .map(|(&p, _)| p)
            .fold(f64::INFINITY, f64::min);
        if floor.is_finite() {
            self.passes[idx] = self.passes[idx].max(floor);
        }
        self.active[idx] = true;
    }

    /// Marks a stream idle (no work left); it re-enters through
    /// [`WfqClock::activate`]'s floor rule.
    pub fn deactivate(&mut self, idx: usize) {
        self.active[idx] = false;
    }

    /// The active stream that should receive the next slice among those
    /// `servable` admits: minimum pass, lowest index on ties. `None` when no
    /// active stream is servable.
    pub fn next_stream(&self, servable: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (i, (&p, &a)) in self.passes.iter().zip(&self.active).enumerate() {
            if !a || !servable(i) {
                continue;
            }
            match best {
                Some((bp, _)) if bp <= p => {}
                _ => best = Some((p, i)),
            }
        }
        best.map(|(_, i)| i)
    }

    /// Charges a served slice of `duration_ns` to stream `idx`.
    pub fn charge(&mut self, idx: usize, duration_ns: f64) {
        self.passes[idx] += duration_ns.max(0.0) / self.weights[idx];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(t: f64, x: f64) -> ChunkCost {
        ChunkCost {
            transfer_ns: t,
            compute_ns: x,
        }
    }

    #[test]
    fn serial_sums_everything() {
        assert_eq!(serial_makespan(&[c(10.0, 5.0), c(10.0, 5.0)]), 30.0);
        assert_eq!(serial_makespan(&[]), 0.0);
    }

    #[test]
    fn overlap_hides_smaller_lane() {
        // Equal transfer/compute: overlap approaches max(sum_t, sum_c) + one
        // pipeline fill.
        let chunks = vec![c(10.0, 10.0); 10];
        let serial = serial_makespan(&chunks);
        let overlapped = overlapped_makespan(&chunks, 2);
        assert_eq!(serial, 200.0);
        assert_eq!(overlapped, 110.0); // 10 (fill) + 10 * 10
    }

    #[test]
    fn transfer_bound_case() {
        // Transfer dominates: makespan ≈ total transfer + last compute.
        let chunks = vec![c(100.0, 1.0); 5];
        let m = overlapped_makespan(&chunks, 2);
        assert_eq!(m, 501.0);
    }

    #[test]
    fn compute_bound_case() {
        let chunks = vec![c(1.0, 100.0); 5];
        let m = overlapped_makespan(&chunks, 2);
        assert_eq!(m, 501.0);
    }

    #[test]
    fn single_buffer_degenerates_towards_serial() {
        // One staging buffer: transfer_{i} waits compute_{i-1}; fully serial.
        let chunks = vec![c(10.0, 10.0); 4];
        assert_eq!(overlapped_makespan(&chunks, 1), serial_makespan(&chunks));
    }

    #[test]
    fn more_buffers_never_slower() {
        let chunks: Vec<ChunkCost> = (0..20)
            .map(|i| c(10.0 + (i % 3) as f64 * 5.0, 8.0 + (i % 5) as f64 * 4.0))
            .collect();
        let two = overlapped_makespan(&chunks, 2);
        let four = overlapped_makespan(&chunks, 4);
        let serial = serial_makespan(&chunks);
        assert!(two <= serial);
        assert!(four <= two + 1e-9);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(overlapped_makespan(&[], 2), 0.0);
        assert_eq!(overlapped_makespan(&[c(3.0, 4.0)], 2), 7.0);
    }

    #[test]
    fn wfq_shares_proportionally_to_weight() {
        let mut clock = WfqClock::new();
        let heavy = clock.add_stream(2.0);
        let light = clock.add_stream(1.0);
        clock.activate(heavy);
        clock.activate(light);
        let mut served = [0.0f64; 2];
        for _ in 0..300 {
            let s = clock.next_stream(|_| true).unwrap();
            clock.charge(s, 10.0);
            served[s] += 10.0;
        }
        let ratio = served[heavy] / served[light];
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "2:1 weights should yield ~2x service, got {ratio}"
        );
    }

    #[test]
    fn wfq_idle_stream_does_not_bank_credit() {
        let mut clock = WfqClock::new();
        let a = clock.add_stream(1.0);
        let b = clock.add_stream(1.0);
        clock.activate(a);
        // `a` runs alone for a long time...
        for _ in 0..100 {
            let s = clock.next_stream(|_| true).unwrap();
            assert_eq!(s, a);
            clock.charge(s, 10.0);
        }
        // ...then `b` arrives. It must not monopolize the device to "catch
        // up" the 1000 ns it was absent for: service alternates from here.
        clock.activate(b);
        let mut b_streak = 0usize;
        let mut max_streak = 0usize;
        for _ in 0..50 {
            let s = clock.next_stream(|_| true).unwrap();
            clock.charge(s, 10.0);
            if s == b {
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
        let mut clock = WfqClock::new();
        let a = clock.add_stream(1.0);
        let b = clock.add_stream(1.0);
        clock.activate(a);
        clock.activate(b);
        // Re-weight `a` to 2.0 before any service: it must now receive ≈2×.
        clock.set_weight(a, 2.0);
        assert_eq!(clock.weight(a), 2.0);
        let mut served = [0.0f64; 2];
        for _ in 0..300 {
            let s = clock.next_stream(|_| true).unwrap();
            clock.charge(s, 10.0);
            served[s] += 10.0;
        }
        let ratio = served[a] / served[b];
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "updated weight must drive service, got {ratio}"
        );
        // Floor applies to updates too: zero weight cannot stall the clock.
        clock.set_weight(b, 0.0);
        clock.charge(b, 1.0);
        assert!(clock.weight(b) > 0.0);
    }

    #[test]
    fn wfq_suspended_stream_is_skipped_and_catches_up_on_resume() {
        let mut clock = WfqClock::new();
        let a = clock.add_stream(1.0);
        let b = clock.add_stream(1.0);
        clock.activate(a);
        clock.activate(b);
        // Park `a`: all service goes to `b`, `a`'s pass stays frozen.
        for _ in 0..10 {
            let s = clock.next_stream(|s| s != a).unwrap();
            assert_eq!(s, b, "a parked stream must never be served");
            clock.charge(s, 10.0);
        }
        // Serve `a` again without the activate() floor: it is behind and
        // catches up exactly the 100 ns it was denied before `b` is served
        // again.
        let mut a_catchup = 0.0;
        loop {
            let s = clock.next_stream(|_| true).unwrap();
            if s != a {
                break;
            }
            clock.charge(s, 10.0);
            a_catchup += 10.0;
        }
        // 100 ns of catch-up brings the passes level; the tie then breaks
        // on the lowest index, so `a` gets exactly one extra slice.
        assert_eq!(
            a_catchup, 110.0,
            "resumed stream must catch up the denied service"
        );
        // Parking everything leaves the clock with no eligible stream.
        assert_eq!(clock.next_stream(|_| false), None);
    }

    #[test]
    fn wfq_deactivate_and_ties_are_deterministic() {
        let mut clock = WfqClock::new();
        let a = clock.add_stream(1.0);
        let b = clock.add_stream(1.0);
        clock.activate(a);
        clock.activate(b);
        assert_eq!(
            clock.next_stream(|_| true),
            Some(a),
            "ties break on lowest index"
        );
        clock.deactivate(a);
        assert_eq!(clock.next_stream(|_| true), Some(b));
        clock.deactivate(b);
        assert_eq!(clock.next_stream(|_| true), None);
        // Zero-weight streams are floored, not divide-by-zero.
        let z = clock.add_stream(0.0);
        clock.activate(z);
        clock.charge(z, 1.0);
        assert_eq!(clock.next_stream(|_| true), Some(z));
    }
}
