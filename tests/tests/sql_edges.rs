//! SQL edges with pinned expectations: plain scans, empty tables, empty
//! filter results, empty join sides, duplicate keys, two-key ordering,
//! `EXISTS` against an empty and a non-empty table, a `GROUP BY` with a
//! single group and one with all groups distinct, range bounds that merge
//! into one filter (`i64` ends, empty and one-value ranges, DATE, OR and
//! CASE), joins whose smaller side only filters, over a unique and a
//! repeated key, and multi-column groups that pack into one key. Every
//! text runs under every execution model at `chunk_rows` 1, 3 and 256 and
//! must agree exactly with the
//! scalar host interpreter ([`adamant::sql::prelude::run_sql_host`]).
//!
//! Each text is served twice through one engine: the first call compiles
//! it, the second is served from the engine's statement cache. Both must
//! return the oracle's rows, and the devices must hold no bytes, pinned
//! bytes or admission reservations afterwards.

use adamant::prelude::*;
use adamant::sql::prelude::run_sql_host;
use adamant::storage::datatype::date_to_days;
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
        // Plain scans with no WHERE, join or EXISTS: an output that names
        // a scanned column is served its rows.
        (
            "SELECT v FROM t",
            vec![vec![10], vec![20], vec![30], vec![40], vec![50]],
        ),
        (
            "SELECT k, v FROM t",
            vec![
                vec![1, 10],
                vec![2, 20],
                vec![2, 30],
                vec![3, 40],
                vec![5, 50],
            ],
        ),
        (
            "SELECT v * 2 AS x, v FROM t",
            vec![
                vec![20, 10],
                vec![40, 20],
                vec![60, 30],
                vec![80, 40],
                vec![100, 50],
            ],
        ),
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

#[test]
fn a_hand_built_output_that_names_a_graph_input_is_served_its_rows() {
    // What a plain SELECT lowers to, built by hand: the output is the
    // scan's input itself, and no node runs.
    let mut b = GraphBuilder::new();
    let v = b.scan_input("t", "v");
    b.output("v", v);
    let graph = b.build().unwrap();
    let mut inputs = QueryInputs::new();
    inputs.bind("v", vec![10, 20, 30, 40, 50]);
    for chunk_rows in [1, 3, 256] {
        let mut engine = Adamant::builder()
            .chunk_rows(chunk_rows)
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        for model in ExecutionModel::ALL {
            let (out, _) = engine.run(&graph, &inputs, model).unwrap();
            assert_eq!(out.i64_column("v"), [10, 20, 30, 40, 50], "{model}");
            assert_no_leaks(&mut engine, &format!("{model}, chunk_rows {chunk_rows}"));
        }
    }
}

#[test]
fn reserved_names_are_bind_errors_with_their_span() {
    // Lowering names an aggregate's argument `__agg0`; a catalog column of
    // that name would be read in its place.
    let mut c = Catalog::new();
    let cols = vec![
        Column::from_i64("__agg0", vec![1, 2, 3]),
        Column::from_i64("v", vec![10, 20, 30]),
    ];
    c.register(Table::new("u", cols).unwrap());
    let sql = "SELECT SUM(__agg0 + v) AS s, SUM(__agg0) AS r FROM u";
    let err = adamant::sql::plan(sql, &c).unwrap_err();
    assert_eq!(err.kind, adamant::sql::SqlErrorKind::Bind, "{err}");
    assert_eq!(&sql[err.span.start..err.span.end], "__agg0", "{err}");
}

/// `t` beside `u(uk, uv)`: a join side smaller than `t` with the keys
/// `uk` — each once, or 2 twice when `repeat` is set.
fn join_guard_catalog(repeat: bool) -> Catalog {
    let mut c = catalog();
    let uk = if repeat { vec![2, 2, 3] } else { vec![2, 3] };
    let uv = vec![0; uk.len()];
    let cols = vec![Column::from_i64("uk", uk), Column::from_i64("uv", uv)];
    c.register(Table::new("u", cols).unwrap());
    c
}

/// Joins whose smaller side contributes no column, under COUNT(*) and SUM:
/// a semi-join is only right while the build key is unique.
const FILTER_ONLY_JOINS: [&str; 2] = [
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM t JOIN u ON uk = k",
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM t JOIN u ON uk = k WHERE v > 25",
];

fn probe_kinds(sql: &str, catalog: &Catalog) -> Vec<PrimitiveKind> {
    let compiled = adamant::sql::compile(sql, catalog, DeviceId(0)).unwrap();
    compiled.graph.nodes().iter().map(|n| n.kind).collect()
}

fn serve_everywhere(engine: &mut Adamant, catalog: &Catalog, sql: &str, want: &[Vec<i64>]) {
    assert_eq!(
        run_sql_host(sql, catalog).unwrap(),
        want,
        "host oracle: {sql}"
    );
    for model in ExecutionModel::ALL {
        let ctx = format!("{sql} under {model}");
        let rs = Session::new(engine, catalog)
            .model(model)
            .sql(sql)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(rs.rows, ints(want), "{ctx}");
        assert_no_leaks(engine, &ctx);
    }
}

/// A build side that repeats its key keeps the inner join, which counts
/// each match: key 2 matches two `t` rows twice each.
#[test]
fn a_repeated_build_key_counts_every_match() {
    let catalog = join_guard_catalog(true);
    let want = [vec![vec![5, 140]], vec![vec![3, 100]]];
    for chunk_rows in [1, 3, 256] {
        let mut engine = Adamant::builder()
            .chunk_rows(chunk_rows)
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        for (sql, want) in FILTER_ONLY_JOINS.iter().zip(&want) {
            serve_everywhere(&mut engine, &catalog, sql, want);
            let kinds = probe_kinds(sql, &catalog);
            assert!(!kinds.contains(&PrimitiveKind::HashProbeSemi), "{sql}");
        }
    }
}

/// The semi-join is a fact about the data a statement was compiled
/// against. Re-registering `u` with a repeated key takes a new catalog
/// stamp, so the live engine's statement cache misses and `Session::sql`
/// compiles the text again, to an inner join that counts each match.
#[test]
fn a_re_registered_repeated_key_recompiles_to_an_inner_join() {
    let mut engine = Adamant::builder()
        .chunk_rows(3)
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .unwrap();
    let sql = FILTER_ONLY_JOINS[0];
    let unique = join_guard_catalog(false);
    assert!(probe_kinds(sql, &unique).contains(&PrimitiveKind::HashProbeSemi));
    serve_everywhere(&mut engine, &unique, sql, &[vec![3, 90]]);

    let mut repeated = unique.clone();
    let cols = vec![
        Column::from_i64("uk", vec![2, 2, 3]),
        Column::from_i64("uv", vec![0; 3]),
    ];
    repeated.register(Table::new("u", cols).unwrap());
    assert_ne!(repeated.stamp(), unique.stamp());
    serve_everywhere(&mut engine, &repeated, sql, &[vec![5, 140]]);
    let kinds = probe_kinds(sql, &repeated);
    assert!(kinds.contains(&PrimitiveKind::HashProbe));
    assert!(!kinds.contains(&PrimitiveKind::HashProbeSemi));
}

/// Multi-column GROUP BYs pack into one key and decode from it; ORDER BY
/// over group columns is served by the packing order or by a payload
/// column, and a column a unique-key join ties to an earlier group column
/// rides along as payload. A build key that repeats (`w`) ties nothing: its
/// rows disagree on `wv`. Every text is checked against the host oracle.
#[test]
fn packed_and_tied_group_columns_decode_and_sort_like_the_oracle() {
    const TEXTS: [&str; 8] = [
        "SELECT k, wv, COUNT(*) AS n FROM t JOIN w ON wk = k GROUP BY k, wv ORDER BY k, wv",
        "SELECT k, v, COUNT(*) AS n FROM t GROUP BY k, v ORDER BY v, k",
        "SELECT v, k, COUNT(*) AS n FROM t GROUP BY k, v ORDER BY k DESC, v",
        "SELECT k, v, SUM(v) AS s FROM t GROUP BY k, v ORDER BY s DESC",
        "SELECT COUNT(*) AS n FROM t GROUP BY v, k ORDER BY n",
        "SELECT k, dv, SUM(v) AS s FROM t JOIN d ON dk = k GROUP BY k, dv ORDER BY dv DESC",
        "SELECT dv, k, SUM(v) AS s FROM t JOIN d ON dk = k GROUP BY k, dv ORDER BY dv, s",
        "SELECT dv, k, COUNT(*) AS n FROM t JOIN d ON dk = k GROUP BY dv, k ORDER BY n, k DESC",
    ];
    let mut catalog = catalog();
    let w = vec![
        Column::from_i64("wk", vec![2, 2, 3]),
        Column::from_i64("wv", vec![7, 8, 9]),
    ];
    catalog.register(Table::new("w", w).unwrap());
    for chunk_rows in [1, 3, 256] {
        let mut engine = Adamant::builder()
            .chunk_rows(chunk_rows)
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        for sql in TEXTS {
            let want = run_sql_host(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert!(!want.is_empty(), "{sql}");
            serve_everywhere(&mut engine, &catalog, sql, &want);
        }
    }
}

/// `t` beside `r(x, day)`: `x` spans the whole of `i64`, `day` is a DATE.
fn range_catalog() -> Catalog {
    let mut c = catalog();
    let x = vec![i64::MIN, -5, 0, 3, 7, i64::MAX];
    let days = [(2, 27), (3, 1), (3, 15), (3, 31), (4, 1), (5, 5)];
    let day = days
        .iter()
        .map(|&(m, d)| date_to_days(1995, m, d))
        .collect();
    let cols = vec![Column::from_i64("x", x), Column::from_dates("day", day)];
    c.register(Table::new("r", cols).unwrap());
    c
}

/// Bounds on one column merge into one BETWEEN filter. A bound past the
/// end of `i64` admits nothing and never wraps; an empty or one-value range
/// and three bounds keep their meaning; DATE ranges, ranges under OR and
/// ranges inside CASE agree with the host oracle too.
#[test]
fn merged_ranges_agree_with_the_oracle() {
    let texts: [(&str, Vec<i64>); 12] = [
        (
            "SELECT COUNT(*) AS n, SUM(x) AS s FROM r WHERE x >= -5 AND x < -9223372036854775808",
            vec![0, 0],
        ),
        (
            "SELECT COUNT(*) AS n FROM r WHERE x > 9223372036854775807",
            vec![0],
        ),
        (
            "SELECT COUNT(*) AS n FROM r WHERE x > 9223372036854775807 AND x <= 3",
            vec![0],
        ),
        (
            "SELECT COUNT(*) AS n FROM r WHERE x >= -9223372036854775808 AND x < -4",
            vec![2],
        ),
        (
            "SELECT COUNT(*) AS n FROM r WHERE x >= 7 AND x < 7",
            vec![0],
        ),
        (
            "SELECT COUNT(*) AS n FROM r WHERE x >= 8 AND x <= 3",
            vec![0],
        ),
        (
            "SELECT COUNT(*) AS n, SUM(x) AS s FROM r WHERE x >= 3 AND x <= 3",
            vec![1, 3],
        ),
        (
            "SELECT COUNT(*) AS n, SUM(x) AS s FROM r WHERE x > -6 AND x <= 7 AND x < 5",
            vec![3, -2],
        ),
        (
            "SELECT COUNT(*) AS n, SUM(x) AS s FROM r \
             WHERE day >= DATE '1995-03-01' AND day < DATE '1995-04-01'",
            vec![3, -2],
        ),
        (
            "SELECT COUNT(*) AS n FROM r WHERE (x >= 0 AND x < 5) OR x = 7",
            vec![3],
        ),
        (
            "SELECT SUM(CASE WHEN x >= 0 AND x < 5 THEN 1 ELSE 0 END) AS n FROM r",
            vec![2],
        ),
        (
            "SELECT SUM(CASE WHEN day >= '1995-03-01' AND day <= '1995-03-31' THEN x ELSE 0 END) \
             AS s FROM r WHERE x > -9 AND x < 9",
            vec![-2],
        ),
    ];
    let catalog = range_catalog();
    for chunk_rows in [1, 3, 256] {
        let mut engine = Adamant::builder()
            .chunk_rows(chunk_rows)
            .device(DeviceProfile::cuda_rtx2080ti())
            .build()
            .unwrap();
        for (sql, want) in &texts {
            serve_everywhere(&mut engine, &catalog, sql, std::slice::from_ref(want));
        }
    }
}
