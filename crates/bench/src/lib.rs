//! Shared harness for the figure-reproduction binaries and wall-clock
//! benches.
//!
//! Every table and figure of the paper's evaluation has a binary here that
//! regenerates it (modeled times from the device cost models — the
//! hardware-shaped quantities) and, where wall-clock matters, a plain
//! `fn main` bench measuring the engine itself. EXPERIMENTS.md records the
//! outputs against the paper's numbers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use adamant::prelude::*;

/// The four drivers of the paper's Setup 1, in presentation order:
/// OpenCL (CPU), OpenMP, OpenCL (GPU), CUDA.
pub fn setup1_profiles() -> Vec<DeviceProfile> {
    DeviceProfile::setup1()
}

/// The default task registry used by every experiment.
pub fn standard_tasks() -> TaskRegistry {
    TaskRegistry::with_defaults(&[
        SdkKind::Cuda,
        SdkKind::OpenCl,
        SdkKind::OpenMp,
        SdkKind::Host,
    ])
}

/// Builds a single-device engine in the paper's configuration: fusion off,
/// so every primitive is its own kernel launch (§V). The paper sections of
/// the figure bins run through it; the extension sections (Fig. 11 part C,
/// the `fusion` bin) build their own fused engines.
pub fn engine_with(profile: &DeviceProfile, chunk_rows: usize) -> (Adamant, DeviceId) {
    let engine = Adamant::builder()
        .tasks(standard_tasks())
        .chunk_rows(chunk_rows)
        .fusion(false)
        .device(profile.clone())
        .build()
        .expect("engine construction");
    let dev = engine.device_ids()[0];
    (engine, dev)
}

/// A fixed-seed catalog for the experiments (scale factor varies per
/// experiment; documented in EXPERIMENTS.md).
pub fn catalog(sf: f64) -> Catalog {
    TpchGenerator::new(sf, 0xADA).generate()
}

/// Deterministic pseudo-random `i64` data in `0..range` (the "random
/// distribution" workload of §V-A).
pub fn random_ints(n: usize, range: i64, seed: u64) -> Vec<i64> {
    // SplitMix64: deterministic, fast, no external deps in this crate path.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.push((z as i64).rem_euclid(range.max(1)));
    }
    out
}

/// Minimal wall-clock micro-bench: one warmup call, then `samples` timed
/// runs; prints the median and minimum. A dependency-free stand-in for a
/// statistics-grade harness — good enough to spot order-of-magnitude
/// regressions in the engine's real (non-modeled) speed.
pub fn bench<R>(group: &str, name: &str, samples: usize, mut f: impl FnMut() -> R) {
    std::hint::black_box(f());
    let mut times: Vec<u128> = (0..samples.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2] as f64;
    let min = times[0] as f64;
    println!(
        "{group}/{name}: median {} ms, min {} ms ({} samples)",
        ms(median),
        ms(min),
        times.len()
    );
}

/// Pretty-prints a markdown table.
pub struct Report {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates a report with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Report {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Prints the table as markdown.
    pub fn print(&self, title: &str) {
        println!("\n### {title}\n");
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        println!("{}", fmt_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for r in &self.rows {
            println!("{}", fmt_row(r));
        }
    }
}

// ---- machine-readable trajectory reports --------------------------------
//
// Each figure bin additionally emits a `BENCH_<name>.json` next to the
// markdown table, so successive commits leave a comparable perf trajectory.
// Hand-rolled JSON like the rest of the workspace (std-only, no format
// crate). The envelope is written here and every row is a `jobj`, so the
// schema holds by construction; a bin with a gate checks it on its typed
// values after writing its file.

/// Schema version stamped into every `BENCH_*.json`.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Quotes and escapes a JSON string.
pub fn jstr(s: &str) -> String {
    format!("\"{}\"", adamant::core::stats::escape_json(s))
}

/// Formats an `f64` as a JSON number (non-finite values become 0 — JSON has
/// no NaN/Infinity).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "0.0".to_string()
    }
}

/// Builds one JSON object from pre-rendered `(key, value)` pairs (values
/// must already be valid JSON fragments).
pub fn jobj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", jstr(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Writes `BENCH_<name>.json` into the current directory (the repo root
/// when run via `cargo run`): a schema-versioned envelope around the bin's
/// result rows (each one a [`jobj`]; there must be at least one). Returns
/// the path written.
pub fn write_bench_json(name: &str, rows: &[String]) -> std::io::Result<std::path::PathBuf> {
    assert!(!rows.is_empty(), "BENCH_{name}.json: no rows");
    let payload = jobj(&[
        ("benchmark", jstr(name)),
        ("schema_version", BENCH_SCHEMA_VERSION.to_string()),
        ("unit", jstr("modeled_ns")),
        ("rows", format!("[{}]", rows.join(","))),
    ]);
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, payload + "\n")?;
    Ok(path)
}

/// Formats nanoseconds as milliseconds with 2 decimals.
pub fn ms(ns: f64) -> String {
    format!("{:.2}", ns / 1e6)
}

/// Formats a throughput in Gi elements per second.
pub fn gips(elements: u64, ns: f64) -> String {
    format!("{:.3}", elements as f64 / (1u64 << 30) as f64 / (ns / 1e9))
}

/// Formats bytes as GiB/s bandwidth for a duration.
pub fn gibs(bytes: u64, ns: f64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 30) as f64 / (ns / 1e9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_ints_deterministic_and_ranged() {
        let a = random_ints(1000, 100, 7);
        let b = random_ints(1000, 100, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (0..100).contains(&x)));
        let c = random_ints(1000, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn report_formats() {
        let mut r = Report::new(&["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        r.print("test"); // visual; just must not panic
    }

    #[test]
    fn format_helpers() {
        assert_eq!(ms(2_500_000.0), "2.50");
        assert_eq!(gips(1 << 30, 1e9), "1.000");
        assert_eq!(gibs(1 << 30, 1e9), "1.00");
    }

    #[test]
    fn json_helpers_render_valid_fragments() {
        assert_eq!(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(jnum(1.25), "1.2");
        assert_eq!(jnum(f64::NAN), "0.0");
        assert_eq!(jnum(f64::INFINITY), "0.0");
        let o = jobj(&[("x", "1".into()), ("s", jstr("hi"))]);
        assert_eq!(o, "{\"x\":1,\"s\":\"hi\"}");
        assert_eq!(o.matches('{').count(), o.matches('}').count());
    }

    #[test]
    fn engine_helper_works() {
        let (mut engine, dev) = engine_with(&DeviceProfile::cuda_rtx2080ti(), 256);
        let mut pb = PlanBuilder::new(dev);
        let mut s = pb.scan("t", &["x"]);
        let x = s.materialized(&mut pb, "x").unwrap();
        let sum = pb.agg_block(x, AggFunc::Sum, "s");
        pb.output("s", sum);
        let graph = pb.build().unwrap();
        let mut inputs = QueryInputs::new();
        inputs.bind("x", vec![1, 2, 3]);
        let (out, _) = engine
            .run(&graph, &inputs, ExecutionModel::Chunked)
            .unwrap();
        assert_eq!(out.i64_column("s")[0], 6);
    }
}
