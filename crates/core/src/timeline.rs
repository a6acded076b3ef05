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
}
