//! SQL edges with pinned expectations: empty tables, empty filter results,
//! empty join sides, duplicate keys, two-key ordering, `EXISTS` against an
//! empty and a non-empty table, and a `GROUP BY` with a single group and
//! one with all groups distinct. Every text runs under every execution
//! model at `chunk_rows` 1, 3 and 256 and must agree exactly with the
//! scalar host interpreter ([`adamant::sql::prelude::run_sql_host`]).
//!
//! Each text is served twice through one engine: the first call compiles
//! it, the second is served from the engine's statement cache. Both must
//! return the oracle's rows, and the devices must hold no bytes, pinned
//! bytes or admission reservations afterwards.

use adamant::prelude::*;
use adamant::sql::prelude::run_sql_host;
use adamant_integration_tests::assert_no_leaks;

/// `t(k, v)` with key 2 twice, an empty `e(ek, ev)` and a two-row
/// `d(dk, dv)` whose keys both occur in `t`.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let table = |name: &str, cols: [(&str, Vec<i64>); 2]| {
        let cols = cols
            .into_iter()
            .map(|(col, values)| Column::from_i64(col, values))
            .collect();
        Table::new(name, cols).unwrap()
    };
    c.register(table(
        "t",
        [("k", vec![1, 2, 2, 3, 5]), ("v", vec![10, 20, 30, 40, 50])],
    ));
    c.register(table("e", [("ek", vec![]), ("ev", vec![])]));
    c.register(table("d", [("dk", vec![2, 3]), ("dv", vec![7, 8])]));
    c
}

/// The aggregate identities of an empty input: `SUM`, `COUNT`, `MIN`, `MAX`.
const EMPTY_AGGREGATES: [i64; 4] = [0, 0, i64::MAX, i64::MIN];

/// The edge texts, each with the rows it must return (the oracle must
/// agree too, so a change on either side shows).
fn edges() -> Vec<(&'static str, Vec<Vec<i64>>)> {
    vec![
        // Scalar and grouped aggregates over an empty table.
        (
            "SELECT SUM(ev) AS s, COUNT(*) AS n, MIN(ev) AS lo, MAX(ev) AS hi FROM e",
            vec![EMPTY_AGGREGATES.to_vec()],
        ),
        (
            "SELECT ek, COUNT(*) AS n, SUM(ev) AS s FROM e GROUP BY ek ORDER BY ek",
            vec![],
        ),
        // A plain scan of an empty table.
        ("SELECT ek, ev FROM e", vec![]),
        // The smaller side builds: `e` builds an empty table that `t` probes.
        (
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM t JOIN e ON ek = k",
            vec![vec![0, 0]],
        ),
        // `d` builds; the filter leaves `t`'s probe stream empty.
        (
            "SELECT COUNT(*) AS n, SUM(dv) AS s FROM t JOIN d ON dk = k WHERE v > 1000",
            vec![vec![0, 0]],
        ),
        // A grouped join over the duplicate key.
        (
            "SELECT dk, COUNT(*) AS n, SUM(v) AS s FROM t JOIN d ON dk = k \
             GROUP BY dk ORDER BY dk",
            vec![vec![2, 2, 50], vec![3, 1, 40]],
        ),
        // A join filtered on the fact side.
        (
            "SELECT COUNT(*) AS n, SUM(v) AS s, SUM(dv) AS w FROM t JOIN d ON dk = k \
             WHERE v > 20",
            vec![vec![2, 70, 15]],
        ),
        (
            "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY n DESC, k",
            vec![vec![2, 2], vec![1, 1], vec![3, 1], vec![5, 1]],
        ),
        // EXISTS against the empty table and against `d`.
        (
            "SELECT COUNT(*) AS n FROM t WHERE EXISTS (SELECT ek FROM e WHERE ek = k)",
            vec![vec![0]],
        ),
        (
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM t \
             WHERE EXISTS (SELECT dk FROM d WHERE dk = k)",
            vec![vec![3, 90]],
        ),
        // Aggregates over an empty filter result: whole-input and grouped.
        (
            "SELECT SUM(v) AS s, COUNT(*) AS n, MIN(v) AS lo, MAX(v) AS hi FROM t \
             WHERE v > 1000",
            vec![EMPTY_AGGREGATES.to_vec()],
        ),
        (
            "SELECT k, SUM(v) AS s FROM t WHERE v > 1000 GROUP BY k ORDER BY k",
            vec![],
        ),
        // One group: the filter keeps only the duplicate key.
        (
            "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t WHERE k = 2 GROUP BY k",
            vec![vec![2, 2, 50]],
        ),
        // Every row its own group.
        (
            "SELECT v, COUNT(*) AS n, SUM(k) AS s FROM t GROUP BY v ORDER BY v",
            vec![
                vec![10, 1, 1],
                vec![20, 1, 2],
                vec![30, 1, 2],
                vec![40, 1, 3],
                vec![50, 1, 5],
            ],
        ),
    ]
}

fn ints(rows: &[Vec<i64>]) -> Vec<Vec<SqlValue>> {
    rows.iter()
        .map(|r| r.iter().map(|&v| SqlValue::Int(v)).collect())
        .collect()
}

#[test]
fn oracle_returns_the_pinned_rows() {
    let catalog = catalog();
    for (sql, want) in edges() {
        let got = run_sql_host(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(got, want, "host oracle: {sql}");
    }
}

#[test]
fn edges_agree_with_the_oracle_on_a_miss_and_a_hit() {
    let catalog = catalog();
    for chunk_rows in [1, 3, 256] {
        let mut engine = Adamant::builder()
            .chunk_rows(chunk_rows)
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        for (sql, want) in edges() {
            let want = ints(&want);
            // The first serve compiles; every later one is a cache hit.
            for model in ExecutionModel::ALL {
                for serve in 1..=2 {
                    let ctx =
                        format!("{sql} under {model}, chunk_rows {chunk_rows}, serve {serve}");
                    let rs = Session::new(&mut engine, &catalog)
                        .model(model)
                        .sql(sql)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(rs.rows, want, "{ctx}");
                    assert_no_leaks(&mut engine, &ctx);
                }
            }
        }
    }
}
