//! What a served SQL statement runs, pinned.
//!
//! `Session::sql` serves a text through the engine's statement cache and
//! the scheduler; a first serve compiles, a repeat is a cache hit. The pin
//! below folds every serve's rows and modeled stats into one value, so a
//! change to how a statement is kept, placed or run between compile and
//! kernel launch must leave it untouched.

use adamant::core::{FusionReport, PipelineSet};
use adamant::prelude::*;
use adamant::storage::fnv::FnvHasher;
use std::hash::Hasher;

/// The stats JSON without its one non-deterministic member.
fn modeled_json(stats: &ExecutionStats) -> String {
    let json = stats.to_json();
    let start = json.find("\"wall_ns\":").expect("wall_ns member");
    let end = start + json[start..].find(',').expect("wall_ns is not last") + 1;
    format!("{}{}", &json[..start], &json[end..])
}

/// The eight shapes of the benchmark's small-table SQL stream, one literal
/// set each: scalar aggregates with a range, BETWEEN, CASE/LIKE and IN
/// filters, two GROUP BYs (one ordered and limited) and a join.
const SMALL_TEXTS: [&str; 8] = [
    "SELECT COUNT(*) AS n, SUM(c_acctbal) AS bal FROM customer WHERE c_acctbal > 120000",
    "SELECT MIN(p_retailprice) AS lo, MAX(p_retailprice) AS hi FROM part \
     WHERE p_size BETWEEN 7 AND 31",
    "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN p_retailprice ELSE 0 END) AS picked, \
     SUM(p_retailprice) AS total FROM part WHERE p_size < 33",
    "SELECT COUNT(*) AS n FROM orders WHERE o_orderpriority IN ('1-URGENT', '2-HIGH') \
     AND o_orderdate >= DATE '1994-03-17'",
    "SELECT n_regionkey, COUNT(*) AS n FROM nation WHERE n_nationkey < 17 \
     GROUP BY n_regionkey ORDER BY n_regionkey",
    "SELECT o_orderpriority, SUM(o_totalprice) AS total FROM orders \
     WHERE o_orderdate < DATE '1996-08-05' GROUP BY o_orderpriority ORDER BY total DESC LIMIT 3",
    "SELECT SUM(o_totalprice) AS total, COUNT(*) AS n FROM customer \
     JOIN orders ON o_custkey = c_custkey WHERE c_mktsegment = 'BUILDING'",
    "SELECT COUNT(*) AS n, MAX(s_acctbal) AS hi FROM supplier WHERE s_suppkey <= 7",
];

/// The seven TPC-H texts, then the eight small shapes.
fn texts() -> Vec<&'static str> {
    let tpch = TpchQuery::ALL.iter().map(|&q| adamant::tpch::sql::text(q));
    tpch.chain(SMALL_TEXTS).collect()
}

/// A one-device engine (CUDA), or a two-device one whose first plugged
/// device is an OpenCL driver on the same GPU: the scheduler prices CUDA's
/// placement lower, so every query runs on the device that is *not*
/// `device_ids()[0]`.
fn engine(two_devices: bool) -> Adamant {
    let mut builder = Adamant::builder().chunk_rows(900);
    if two_devices {
        builder = builder.device(DeviceProfile::opencl_rtx2080ti());
    }
    builder
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .unwrap()
}

/// Every text served twice (first serve, then a cache hit) under every
/// model, on a fresh one-device and a fresh two-device engine per model:
/// rows and modeled stats folded into one hash. Each serve must have run on
/// the CUDA device, which the two-device engine lists second.
#[test]
fn sql_serves_are_pinned() {
    let catalog = TpchGenerator::new(0.001, 20260707).generate();
    let mut h = FnvHasher::default();
    let mut serves = 0;
    for two_devices in [false, true] {
        for model in ExecutionModel::ALL {
            let mut engine = engine(two_devices);
            let first = engine.device_ids()[0];
            for round in ["first", "repeat"] {
                for text in texts() {
                    let rs = Session::new(&mut engine, &catalog)
                        .model(model)
                        .sql(text)
                        .unwrap_or_else(|e| panic!("{model}/{round}: {text}: {e}"));
                    let peaks = &rs.stats.peak_device_bytes;
                    assert!(peaks["cuda@rtx2080ti"] > 0, "{model}/{round}: {text}");
                    if two_devices {
                        assert_eq!(first, DeviceId(0));
                        assert_eq!(peaks["opencl@rtx2080ti"], 0, "{model}/{round}: {text}");
                    }
                    let line = format!("{:?}|{}\n", rs.rows, modeled_json(&rs.stats));
                    h.write(line.as_bytes());
                    serves += 1;
                }
            }
        }
    }
    assert_eq!(serves, 2 * 5 * 2 * 15);
    assert_eq!(h.finish(), 15_918_145_049_005_652_769);
}

/// A run's outputs and modeled stats, printed.
fn printed(run: (QueryOutput, ExecutionStats)) -> String {
    format!("{:?}|{}", run.0, modeled_json(&run.1))
}

/// `run` is `prepare` then `run_prepared` with each pipeline on its
/// annotated device: every hand-built plan under every model, fused and
/// unfused, on twin engines fed the same sequence, prints the same.
#[test]
fn run_is_prepare_then_run_prepared() {
    let catalog = TpchGenerator::new(0.001, 13).generate();
    for fusion in [true, false] {
        let twin = || {
            Adamant::builder()
                .chunk_rows(900)
                .fusion(fusion)
                .device(DeviceProfile::cuda_rtx2080ti())
                .build()
                .unwrap()
        };
        let (mut direct, mut split) = (twin(), twin());
        let dev = direct.device_ids()[0];
        for q in TpchQuery::ALL {
            let graph = q.plan(dev, &catalog).unwrap();
            let inputs = q.bind(&catalog).unwrap();
            let prepared = split.executor_mut().prepare(&graph).unwrap();
            for model in ExecutionModel::ALL {
                let want = direct.run(&graph, &inputs, model).unwrap();
                let got = split
                    .executor_mut()
                    .run_prepared(&prepared, &inputs, model, None, None)
                    .unwrap();
                assert_eq!(printed(got), printed(want), "{q}/{model}/fusion {fusion}");
            }
        }
    }
}

/// `run_prepared` on device B runs what `retarget(B)` + `run` runs, for a
/// plan annotated with device A.
#[test]
fn run_prepared_on_a_device_is_retarget_then_run() {
    let catalog = TpchGenerator::new(0.001, 13).generate();
    let twin = || {
        Adamant::builder()
            .chunk_rows(900)
            .device(DeviceProfile::cuda_rtx2080ti())
            .device(DeviceProfile::opencl_rtx2080ti())
            .build()
            .unwrap()
    };
    let (mut retargeted, mut prepared_on) = (twin(), twin());
    let [a, b] = retargeted.device_ids()[..] else {
        panic!("two devices plugged")
    };
    for q in TpchQuery::ALL {
        let graph = q.plan(a, &catalog).unwrap();
        let inputs = q.bind(&catalog).unwrap();
        let mut on_b = graph.clone();
        on_b.retarget(b);
        let prepared = prepared_on.executor_mut().prepare(&graph).unwrap();
        for model in ExecutionModel::ALL {
            let want = retargeted.run(&on_b, &inputs, model).unwrap();
            assert_eq!(want.1.peak_device_bytes["cuda@rtx2080ti"], 0, "{q}/{model}");
            let got = prepared_on
                .executor_mut()
                .run_prepared(&prepared, &inputs, model, Some(b), None)
                .unwrap();
            assert_eq!(printed(got), printed(want), "{q}/{model}");
        }
    }
}

/// With fusion off a prepared plan holds the caller's graph unchanged;
/// with it on, the fused graph the report describes.
#[test]
fn prepare_fuses_only_when_the_executor_does() {
    let catalog = TpchGenerator::new(0.001, 13).generate();
    for fusion in [false, true] {
        let mut engine = Adamant::builder()
            .fusion(fusion)
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        let dev = engine.device_ids()[0];
        for q in TpchQuery::ALL {
            let graph = q.plan(dev, &catalog).unwrap();
            let prepared = engine.executor_mut().prepare(&graph).unwrap();
            let mut fused = graph.clone();
            let report = if fusion {
                adamant::core::fuse_graph(&mut fused)
            } else {
                FusionReport::default()
            };
            assert_eq!(
                format!("{:?}", prepared.graph()),
                format!("{fused:?}"),
                "{q}"
            );
            assert_eq!(prepared.fusion_report(), report, "{q}");
            assert_eq!(fusion, report.nodes_fused > 0, "{q}");
            let split = PipelineSet::split(&fused).unwrap();
            assert_eq!(prepared.pipelines().pipelines, split.pipelines, "{q}");
        }
    }
}
