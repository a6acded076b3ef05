//! The metric tables: the one place a name, unit, direction or bound is
//! written down. `BENCHMARK.json` is generated from these (`describe`) and a
//! unit test keeps the checked-in copy in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported per workload with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// How a per-layer number is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Span around a call the benchmark makes on the real path.
    S,
    /// Isolated probe replaying the layer's public function.
    P,
    /// Counter the engine already exports, summed over the fixed window of
    /// measured rounds; repeats exactly for a seed.
    C,
}

/// A per-layer metric: reported by the traced run only, never bounded.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    pub what: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics. Each bound is at least three times the widest
/// spread seen over sets of ten seeds on the shared 2-core sizing box (see
/// the README's baseline); the wall-clock ones sit at the contract's cap.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "round_wall_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "median wall time of one round's timed region (plan/compile + bind + run + decode) over the quietest block of the run: at least 10 consecutive measured rounds and 0.25 s",
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        what: "correct queries per round / median round time, over that same block; one closed-loop client",
    },
    EndToEnd {
        name: "modeled_ms_total",
        unit: "modeled_ms",
        better: Lower,
        bound: 0.06,
        what: "modeled clock: sum of ExecutionStats::total_ns (concurrent_mixed: scheduler makespans) over the fixed window of measured rounds; exact for a seed",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "catalog generation + engine build + oracle answers + 5 warm-up rounds; median of the run's set-ups (3, or up to 25 while they take under 1 s together)",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    what: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
        what,
    }
}

use Source::{C, P, S};

/// The per-layer metrics, grouped by module name.
pub const PER_LAYER: [Layer; 82] = [
    // sql
    layer("sql.lex_us", "us", Lower, P, "lexer::lex per text"),
    layer("sql.parse_us", "us", Lower, S, "parser::parse per query (stage replayed beside Session::sql)"),
    layer("sql.bind_us", "us", Lower, S, "binder::bind per query"),
    layer("sql.rewrite_us", "us", Lower, S, "rewrite::rewrite per query"),
    layer("sql.lower_us", "us", Lower, S, "lower::lower per query"),
    layer("sql.compile_share", "ratio", Lower, S, "replayed compile time / Session::sql time"),
    // adamant.session
    layer("adamant.session.sql_us", "us", Lower, S, "whole Session::sql call per query"),
    layer("adamant.session.overhead_us", "us", Lower, S, "Session::sql minus compile minus the engine's own run time: bind, footprint, graph clone, admission, decode"),
    // plan
    layer("plan.build_us", "us", Lower, S, "TpchQuery::plan per query"),
    layer("plan.bind_inputs_us", "us", Lower, S, "TpchQuery::bind per query"),
    // core.fusion / core.pipeline
    layer("core.fusion.fuse_us", "us", Lower, P, "fuse_graph on a clone, per query graph"),
    layer("core.fusion.nodes_fused", "count", Higher, C, "graph nodes merged into fused kernels"),
    layer("core.fusion.elided_bytes", "B", Higher, C, "intermediate bytes never materialized"),
    layer("core.fusion.saved_modeled_ms", "modeled_ms", Higher, C, "modeled time fused kernels saved"),
    layer("core.pipeline.split_us", "us", Lower, P, "PipelineSet::split per fused query graph"),
    // core.executor
    layer("core.executor.run_us", "us", Lower, S, "engine-reported wall time of one run, median over rounds of the round's mean"),
    layer("core.executor.run_share", "ratio", Lower, S, "run time / round time, median over rounds"),
    layer("core.executor.ns_per_row", "ns", Lower, S, "run time / driving-table rows, median over rounds"),
    layer("core.executor.chunks", "count", Lower, C, "chunks processed"),
    layer("core.executor.pipelines", "count", Lower, C, "pipelines executed"),
    layer("core.executor.retries", "count", Lower, C, "pipeline attempts retried"),
    layer("core.executor.chunk_backoffs", "count", Lower, C, "chunk size halvings after OOM"),
    layer("core.executor.fallback_placements", "count", Lower, C, "pipelines re-placed on another device"),
    layer("core.executor.hedged_launches", "count", Lower, C, "hedged duplicate chunks launched"),
    layer("core.executor.hedge_wins", "count", Higher, C, "hedges that beat the straggler"),
    layer("core.executor.device_deaths", "count", Lower, C, "devices lost mid-query"),
    layer("core.executor.resumes", "count", Higher, C, "recoveries resumed from a checkpoint"),
    layer("core.executor.chunks_skipped_on_resume", "count", Higher, C, "chunks a resume did not re-execute"),
    layer("core.executor.overhead_fraction", "ratio", Lower, C, "Fig. 10: modeled time outside primitive kernels / modeled total"),
    layer("core.executor.recovery_wall_ratio", "ratio", Lower, S, "p50 of rounds with a recovery / p50 of rounds without"),
    // core.hub
    layer("core.hub.place_verified_gbps", "GB/s", Higher, P, "DataTransferHub::place_verified, chunk by chunk"),
    layer("core.hub.retrieve_verified_gbps", "GB/s", Higher, P, "DataTransferHub::retrieve_verified, chunk by chunk"),
    layer("core.hub.verify_share", "ratio", Lower, P, "1 - raw place_data time / place_verified time"),
    layer("core.hub.bytes_h2d", "B", Lower, C, "bytes moved host to device"),
    layer("core.hub.bytes_d2h", "B", Lower, C, "bytes moved device to host"),
    layer("core.hub.intermediate_bytes", "B", Lower, C, "intermediate bytes materialized through the hub"),
    layer("core.hub.corruption_retransmits", "count", Lower, C, "transfers resent after a checksum mismatch"),
    // core.residency
    layer("core.residency.lookup_us", "us", Lower, P, "ResidencyCache::lookup of the largest pinned column"),
    layer("core.residency.wall_ratio_vs_off", "ratio", Lower, S, "round p50 / round p50 of a twin engine without the cache"),
    layer("core.residency.hits", "count", Higher, C, "first-touch lookups served from a pin"),
    layer("core.residency.misses", "count", Lower, C, "first-touch lookups that found no pin"),
    layer("core.residency.evictions", "count", Lower, C, "pins evicted"),
    layer("core.residency.hit_ratio", "ratio", Higher, C, "hits / (hits + misses)"),
    layer("core.residency.pinned_bytes", "B", Lower, C, "high-water mark of pinned bytes"),
    layer("core.residency.saved_transfer_modeled_ms", "modeled_ms", Higher, C, "modeled transfer time the cache avoided"),
    // core.checkpoint
    layer("core.checkpoint.taken", "count", Lower, C, "snapshots captured"),
    layer("core.checkpoint.bytes", "B", Lower, C, "snapshot payload bytes"),
    layer("core.checkpoint.resume_validation_failures", "count", Lower, C, "snapshots rejected at resume"),
    // device
    layer("device.checksum_gbps", "GB/s", Higher, P, "BufferData::checksum, chunk by chunk"),
    layer("device.place_data_gbps", "GB/s", Higher, P, "raw SimDevice::place_data, chunk by chunk"),
    layer("device.slice_gbps", "GB/s", Higher, P, "BufferData::slice at chunk size"),
    layer("device.modeled_transfer_ms", "modeled_ms", Lower, C, "modeled transfer time, serial sum"),
    layer("device.modeled_compute_ms", "modeled_ms", Lower, C, "modeled kernel time, serial sum"),
    layer("device.modeled_other_ms", "modeled_ms", Lower, C, "modeled alloc/free/transform time"),
    layer("device.faults_injected", "count", Lower, C, "faults the plans injected"),
    layer("device.peak_pool_bytes", "B", Lower, C, "highest device-pool usage of any query"),
    // task
    layer("task.filter_bitmap_ns_per_row", "ns", Lower, P, "filter_bitmap kernel on one chunk"),
    layer("task.map_ns_per_row", "ns", Lower, P, "map kernel on one chunk"),
    layer("task.materialize_ns_per_row", "ns", Lower, P, "materialize kernel on one chunk"),
    layer("task.agg_block_ns_per_row", "ns", Lower, P, "agg_block kernel on one chunk"),
    layer("task.hash_build_ns_per_row", "ns", Lower, P, "hash_build kernel on one chunk"),
    layer("task.hash_probe_ns_per_row", "ns", Lower, P, "hash_probe kernel on one chunk"),
    layer("task.hash_agg_ns_per_row", "ns", Lower, P, "hash_agg kernel on one chunk"),
    layer("task.sort_ns_per_row", "ns", Lower, P, "sort kernel on one chunk"),
    layer("task.join_modeled_share", "ratio", Lower, C, "modeled kernel time in hash_build, hash_probe and semi-join kernels / in all kernels"),
    // sched
    layer("sched.overhead_us", "us", Lower, S, "scheduler drain minus the runs inside it, per batch"),
    layer("sched.held", "count", Lower, C, "admissions held at the gate"),
    layer("sched.slices", "count", Lower, C, "device-time slices interleaved"),
    layer("sched.preemptions", "count", Lower, C, "running queries suspended for an urgent one"),
    layer("sched.deadline_misses", "count", Lower, C, "queries finished past their deadline"),
    layer("sched.wait_modeled_ms", "modeled_ms", Lower, C, "modeled time queries waited for admission"),
    layer("sched.makespan_modeled_ms", "modeled_ms", Lower, C, "modeled first admission to last completion, summed over batches"),
    layer("sched.fair_share_error", "ratio", Lower, C, "|contended-time ratio - weight ratio| of the heaviest and lightest tenant, mean over batches"),
    // tpch and the harness itself
    layer("tpch.generate_ms", "ms", Lower, S, "TpchGenerator::generate, median of the set-ups"),
    layer("bench.trace_overhead_pct", "%", Lower, S, "traced vs untraced round p50 within the traced run"),
    layer("bench.sql_repeat_share", "ratio", Higher, C, "share of issued SQL texts that had been issued before in the run"),
    layer("bench.failed_share", "ratio", Lower, C, "queries failed / attempted; must be 0"),
    layer("bench.round_wall_ms_p50_all", "ms", Lower, S, "median round wall time over all measured rounds, noisy seconds included"),
    layer("bench.round_wall_ms_p90_all", "ms", Lower, S, "nearest-rank p90 over all measured rounds (at least 110, so more than 10 lie beyond it)"),
    layer("bench.rounds", "count", Higher, C, "measured rounds: the sample count behind the two metrics above"),
    layer("bench.window_rounds", "count", Higher, C, "rounds in the fixed window the C counters are summed over"),
    layer("bench.spans", "count", Lower, S, "spans recorded by the traced run"),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json(run_seconds: u64) -> String {
    use crate::json::{number, string};
    let workloads: Vec<String> = crate::workload::SPECS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                string(w.name),
                string(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                string(m.name),
                string(m.unit),
                string(m.better.as_str()),
                number(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                string(m.name),
                string(m.unit),
                string(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// The metric glossary as markdown tables (pasted into the README).
pub fn glossary() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.bound,
            m.what
        );
    }
    out += "\n| per-layer metric | unit | better | source | definition |\n|---|---|---|---|---|\n";
    for m in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {:?} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source,
            m.what
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = crate::workload::SPECS.iter().map(|w| w.name).collect();
        for m in &END_TO_END {
            assert!(legal_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(legal_unit(m.unit), "{}", m.unit);
            names.push(m.name);
        }
        assert!(names.iter().all(|n| legal_name(n)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "every name is used once");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        // The contract's fixed metric, with the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let seconds: u64 = on_disk
            .split("\"run_seconds\":")
            .nth(1)
            .and_then(|rest| rest.trim_start().split([',', '\n']).next())
            .and_then(|n| n.trim().parse().ok())
            .expect("run_seconds");
        assert_eq!(
            on_disk,
            benchmark_json(seconds),
            "regenerate with `describe`"
        );
        assert!((1..=60).contains(&seconds) && on_disk.len() <= 64 * 1024);
        // One entry per workload and per metric, nothing else named.
        let entries = crate::workload::SPECS.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(on_disk.matches("\"name\":").count(), entries);
    }
}
