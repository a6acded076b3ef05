//! Device-memory footprint estimation for admission control.
//!
//! Admission needs a *pre-execution* estimate of how many device bytes a
//! query will hold at once. [`estimate_footprint_bytes`] provides it: a
//! walk of the primitive graph mirroring how the executor actually
//! allocates — staged scan chunks, whole-placed side inputs, breaker
//! accumulators sized by the scan, and chunk-sized scratch. The scheduler
//! runs it for every query submitted without a footprint;
//! `Session::sql` computes it once per cached statement and passes the
//! stored value through [`crate::QuerySpec::with_footprint`].
//!
//! The estimate is deliberately conservative (it assumes every pipeline's
//! buffers are live at once). Over-estimating delays admission; the
//! under-estimate case is the dangerous one, and even then the pool's hard
//! `used`-vs-`capacity` check still catches a real overcommit at
//! allocation time.

use adamant_core::executor::QueryInputs;
use adamant_core::graph::{DataRef, PrimitiveGraph};

/// Bytes per element everywhere in the simulated engine (`i64` columns).
pub const ELEM_BYTES: u64 = 8;

/// Staging slots the estimator charges per scanned column — the double
/// buffering of the pipelined/4-phase models is the common case.
pub const STAGING_SLOTS: u64 = 2;

/// Estimates the peak device bytes `graph` needs when run over `inputs`
/// with `chunk_rows`-row streaming chunks.
///
/// Per scanned column: [`STAGING_SLOTS`] chunk-sized staging buffers. Per
/// non-scan (whole) input: its full length. Per node output: a scan-sized
/// accumulator for pipeline breakers, a chunk-sized scratch otherwise.
pub fn estimate_footprint_bytes(
    graph: &PrimitiveGraph,
    inputs: &QueryInputs,
    chunk_rows: usize,
) -> u64 {
    let mut scan_rows = 0usize;
    for gi in graph.inputs() {
        if gi.scan.is_some() {
            if let Some(col) = inputs.get(&gi.name) {
                scan_rows = scan_rows.max(col.len());
            }
        }
    }
    let chunk = chunk_rows.max(1).min(scan_rows.max(1)) as u64;

    let mut total = 0u64;
    for gi in graph.inputs() {
        match &gi.scan {
            Some(_) => total += STAGING_SLOTS * chunk * ELEM_BYTES,
            None => {
                let rows = inputs.get(&gi.name).map(|c| c.len()).unwrap_or(0) as u64;
                total += rows * ELEM_BYTES;
            }
        }
    }
    for node in graph.nodes() {
        let whole_rows = node
            .inputs
            .iter()
            .filter_map(|r| match r {
                DataRef::Input(i) if graph.inputs()[*i].scan.is_none() => {
                    inputs.get(&graph.inputs()[*i].name).map(|c| c.len())
                }
                _ => None,
            })
            .max()
            .unwrap_or(0) as u64;
        let out_rows = if node.kind.is_pipeline_breaker() {
            // Breaker accumulators are sized by the whole scan (worst case:
            // a materialize that keeps every row).
            (scan_rows as u64).max(whole_rows)
        } else if scan_rows > 0 {
            chunk.max(whole_rows)
        } else {
            whole_rows
        };
        total += node.output_count as u64 * out_rows * ELEM_BYTES;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_device::device::DeviceId;
    use adamant_plan::{Expr, PlanBuilder, Predicate};
    use adamant_task::params::{AggFunc, CmpOp};

    fn filter_map_sum() -> PrimitiveGraph {
        let mut pb = PlanBuilder::new(DeviceId(0));
        let mut s = pb.scan("t", &["x"]);
        s.filter(&mut pb, Predicate::cmp("x", CmpOp::Ge, 10))
            .unwrap();
        s.project(&mut pb, "y", Expr::col("x").mul(Expr::lit(3)))
            .unwrap();
        let y = s.materialized(&mut pb, "y").unwrap();
        let sum = pb.agg_block(y, AggFunc::Sum, "sum");
        pb.output("sum", sum);
        pb.build().unwrap()
    }

    #[test]
    fn chunk_size_bounds_the_streamed_working_set() {
        let graph = filter_map_sum();
        let mut inputs = QueryInputs::new();
        inputs.bind("x", (0..10_000).collect());
        let small = estimate_footprint_bytes(&graph, &inputs, 100);
        let large = estimate_footprint_bytes(&graph, &inputs, 10_000);
        assert!(
            small < large,
            "smaller chunks must shrink the estimate ({small} vs {large})"
        );
        // Breaker accumulators are scan-sized regardless of chunking, so
        // the estimate never drops below the materialized column.
        assert!(small >= 10_000 * 8);
        // And the whole thing stays within a small multiple of the input.
        assert!(large <= 8 * 10_000 * 8);
    }

    #[test]
    fn estimate_scales_with_bound_data() {
        let graph = filter_map_sum();
        let mut small_in = QueryInputs::new();
        small_in.bind("x", (0..100).collect());
        let mut big_in = QueryInputs::new();
        big_in.bind("x", (0..100_000).collect());
        let small = estimate_footprint_bytes(&graph, &small_in, 1 << 20);
        let big = estimate_footprint_bytes(&graph, &big_in, 1 << 20);
        assert!(small * 100 <= big * 2, "estimate must track the data size");
        // Unbound inputs degrade to the chunk floor, not a panic.
        let floor = estimate_footprint_bytes(&graph, &QueryInputs::new(), 1 << 20);
        assert!(floor < small);
    }
}
