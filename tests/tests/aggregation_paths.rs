//! HASH_AGG vs SORT_AGG: Table I offers two aggregation strategies; both
//! must produce identical group-by results.

use adamant::prelude::*;
use adamant::storage::rng::Rng;

fn run_hash_path(keys: &[i64], vals: &[i64]) -> (Vec<i64>, Vec<i64>) {
    let mut engine = Adamant::builder()
        .chunk_rows(64)
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    let mut pb = PlanBuilder::new(dev);
    let mut s = pb.scan("t", &["k", "v"]);
    let ht = s
        .hash_agg(&mut pb, "k", &[], &[(AggFunc::Sum, "v")], 16)
        .unwrap();
    let groups = pb.group_result(ht, 0, 1);
    let perm = pb.sort(&[(groups.keys, false)]);
    let gk = pb.take(groups.keys, perm);
    let gs = pb.take(groups.states[0], perm);
    pb.output("k", gk);
    pb.output("s", gs);
    let graph = pb.build().unwrap();
    let mut inputs = QueryInputs::new();
    inputs.bind("k", keys.to_vec());
    inputs.bind("v", vals.to_vec());
    let (out, _) = engine
        .run(&graph, &inputs, ExecutionModel::Chunked)
        .unwrap();
    (out.i64_column("k").to_vec(), out.i64_column("s").to_vec())
}

fn run_sort_path(keys: &[i64], vals: &[i64]) -> (Vec<i64>, Vec<i64>) {
    let mut engine = Adamant::builder()
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    let mut pb = PlanBuilder::new(dev);
    let mut s = pb.scan("t", &["k", "v"]);
    let k = s.materialized(&mut pb, "k").unwrap();
    let v = s.materialized(&mut pb, "v").unwrap();
    let (gk, gs) = pb.sort_agg(k, v, AggFunc::Sum);
    pb.output("k", gk);
    pb.output("s", gs);
    let graph = pb.build().unwrap();
    let mut inputs = QueryInputs::new();
    inputs.bind("k", keys.to_vec());
    inputs.bind("v", vals.to_vec());
    // SORT is order-sensitive: run whole-input.
    let (out, _) = engine
        .run(&graph, &inputs, ExecutionModel::OperatorAtATime)
        .unwrap();
    (out.i64_column("k").to_vec(), out.i64_column("s").to_vec())
}

#[test]
fn both_paths_agree_on_fixed_data() {
    let keys = vec![3, 1, 2, 3, 1, 3];
    let vals = vec![10, 20, 30, 40, 50, 60];
    let hash = run_hash_path(&keys, &vals);
    let sorted = run_sort_path(&keys, &vals);
    assert_eq!(hash, sorted);
    assert_eq!(hash.0, vec![1, 2, 3]);
    assert_eq!(hash.1, vec![70, 30, 110]);
}

#[test]
fn both_paths_agree_on_empty() {
    let hash = run_hash_path(&[], &[]);
    let sorted = run_sort_path(&[], &[]);
    assert_eq!(hash, sorted);
    assert!(hash.0.is_empty());
}

/// Randomized equivalence, deterministic seeds: any failing case names its
/// seed in the assertion message and reproduces exactly.
#[test]
fn hash_and_sort_aggregation_equivalent() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0xA_66E0 + case);
        let n = rng.gen_range(0usize..200);
        let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..15)).collect();
        let vals: Vec<i64> = (0..n).map(|_| rng.gen_range(-50i64..50)).collect();
        assert_eq!(
            run_hash_path(&keys, &vals),
            run_sort_path(&keys, &vals),
            "case {case}"
        );
    }
}

/// `SUM` at the `i64` boundary wraps (two's complement), everywhere: the
/// standalone `agg_block` and `hash_agg` kernels, the fused terminals that
/// call the same bodies, and the host interpreter all agree with a naive
/// `wrapping_add` loop — in debug and in release. The group counts sit on
/// both sides of the hash table's few-groups lane fold (`<= 64` groups),
/// whose regrouping of the additions is exact only because `SUM` wraps.
#[test]
fn sum_wraps_at_the_i64_boundary_on_every_path() {
    use adamant::sql::prelude::run_sql_host;
    const EDGE: [i64; 8] = [i64::MAX, 1, -1, i64::MIN, i64::MAX, i64::MAX, 7, i64::MIN];
    const ROWS: usize = 1000; // several chunks; not a multiple of the fold's lanes or block
    let vals: Vec<i64> = (0..ROWS)
        .map(|i| EDGE[i % EDGE.len()].wrapping_add((i / EDGE.len()) as i64 % 3))
        .collect();

    for groups in [1usize, 4, 64, 65] {
        // Runs of equal keys (what the lane fold is for), every group present.
        let keys: Vec<i64> = (0..ROWS).map(|i| ((i / 5) % groups) as i64).collect();
        let mut want = vec![0i64; groups];
        for (&k, &v) in keys.iter().zip(&vals) {
            want[k as usize] = want[k as usize].wrapping_add(v);
        }
        let total = want.iter().fold(0i64, |acc, &s| acc.wrapping_add(s));
        let exact: i128 = vals.iter().map(|&v| i128::from(v)).sum();
        assert!(i64::try_from(exact).is_err(), "the inputs do overflow");

        let mut catalog = Catalog::new();
        catalog.register(
            Table::new(
                "t",
                vec![
                    Column::from_i64("k", keys),
                    Column::from_i64("v", vals.clone()),
                ],
            )
            .unwrap(),
        );
        let grouped = "SELECT k, SUM(v) AS s FROM t WHERE k >= 0 GROUP BY k ORDER BY k";
        let scalar = "SELECT SUM(v) AS s FROM t WHERE k >= 0";
        let want_grouped: Vec<Vec<i64>> = (0..groups).map(|g| vec![g as i64, want[g]]).collect();
        assert_eq!(run_sql_host(grouped, &catalog).unwrap(), want_grouped);
        assert_eq!(run_sql_host(scalar, &catalog).unwrap(), vec![vec![total]]);

        for fusion in [false, true] {
            let mut engine = Adamant::builder()
                .chunk_rows(256)
                .fusion(fusion)
                .device(DeviceProfile::cuda_rtx2080ti())
                .build()
                .unwrap();
            let mut session = Session::new(&mut engine, &catalog);
            for (sql, want_rows) in [(grouped, &want_grouped), (scalar, &vec![vec![total]])] {
                let rs = session.sql(sql).unwrap();
                assert_eq!(rs.stats.nodes_fused > 0, fusion, "{sql}");
                let got: Vec<Vec<i64>> = rs
                    .rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|cell| match cell {
                                SqlValue::Int(v) => *v,
                                other => panic!("{other:?}"),
                            })
                            .collect()
                    })
                    .collect();
                assert_eq!(&got, want_rows, "{groups} groups, fusion {fusion}: {sql}");
            }
        }
    }
}
