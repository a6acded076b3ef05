//! Adversarial inputs: every malformed, hostile or unsupported query must
//! come back as a typed [`SqlError`] — the front door never panics.

use adamant_device::device::DeviceId;
use adamant_sql::{compile, SqlErrorKind};
use adamant_storage::catalog::Catalog;
use adamant_storage::column::Column;
use adamant_storage::table::Table;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        Table::new(
            "t",
            vec![
                Column::from_i64("k", vec![1, 2, 3]),
                Column::from_i64("v", vec![10, 20, 30]),
                Column::from_strings("s", &["a", "b", "a"]),
            ],
        )
        .unwrap(),
    );
    c.register(
        Table::new(
            "u",
            vec![
                Column::from_i64("uk", vec![1, 3]),
                Column::from_i64("uv", vec![7, 9]),
            ],
        )
        .unwrap(),
    );
    c
}

/// `(input, expected error stage)` table. Each case must produce exactly
/// the typed error — reaching a panic or an `Ok` fails the test.
fn cases() -> Vec<(&'static str, SqlErrorKind)> {
    use SqlErrorKind::*;
    vec![
        // Garbage and truncation.
        ("", Parse),
        ("   \t\n ", Parse),
        ("garbage", Parse),
        ("SELECT", Parse),
        ("SELECT v", Parse),
        ("SELECT v FROM", Parse),
        ("SELECT v FROM t WHERE", Parse),
        ("SELECT v FROM t GROUP", Parse),
        ("SELECT v FROM t ORDER BY", Parse),
        ("SELECT v FROM t LIMIT", Parse),
        ("SELECT v FROM t JOIN", Parse),
        ("SELECT v FROM t JOIN u ON", Parse),
        ("SELECT v, FROM t", Parse),
        ("SELECT FROM t", Parse),
        ("INSERT INTO t VALUES (1)", Parse),
        ("DROP TABLE t; SELECT v FROM t", Parse),
        ("SELECT v FROM t; SELECT v FROM t", Parse),
        // Lexical junk.
        ("SELECT v FROM t WHERE s = 'unterminated", Lex),
        ("SELECT v @ 1 FROM t", Lex),
        ("SELECT v FROM t WHERE k = 99999999999999999999999", Lex),
        ("SELECT 1.5 FROM t", Lex),
        // Bad dates.
        ("SELECT v FROM t WHERE k < DATE '1995-13-01'", Parse),
        ("SELECT v FROM t WHERE k < DATE '1995-02-30'", Parse),
        ("SELECT v FROM t WHERE k < DATE 'not-a-date'", Parse),
        ("SELECT v FROM t WHERE k < DATE", Parse),
        // Unknown identifiers.
        ("SELECT nope FROM t", Bind),
        ("SELECT v FROM nonexistent", Bind),
        ("SELECT u.v FROM t", Bind),
        ("SELECT v FROM t WHERE ghost = 1", Bind),
        (
            "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY ghost",
            Bind,
        ),
        ("SELECT v FROM t GROUP BY ghost", Bind),
        // Type errors.
        ("SELECT s + 1 FROM t", Unsupported),
        ("SELECT v FROM t WHERE s < 'b'", Unsupported),
        ("SELECT v FROM t WHERE k = 'text'", Bind),
        ("SELECT SUM(SUM(v)) AS x FROM t", Unsupported),
        // Unsupported shapes.
        ("SELECT AVG(v) AS a FROM t", Unsupported),
        ("SELECT v FROM t JOIN t ON k = k", Unsupported),
        ("SELECT v FROM t JOIN u ON s = uk", Unsupported),
        ("SELECT v FROM t ORDER BY v", Unsupported),
        ("SELECT 1 + 2 AS c FROM t", Unsupported),
        (
            "SELECT v FROM t WHERE EXISTS (SELECT uk FROM u WHERE uk = k) \
             AND EXISTS (SELECT uk FROM u WHERE uk = v)",
            Unsupported,
        ),
    ]
}

#[test]
fn every_adversarial_input_errors_typed() {
    let cat = catalog();
    for (sql, want) in cases() {
        match compile(sql, &cat, DeviceId(0)) {
            Err(e) => assert_eq!(
                e.kind, want,
                "input {sql:?}: expected {want:?}, got {:?} ({})",
                e.kind, e.message
            ),
            Ok(_) => panic!("input {sql:?}: expected {want:?}, compiled fine"),
        }
    }
}

#[test]
fn deeply_nested_expressions_do_not_blow_the_stack() {
    let cat = catalog();
    // 4000 nested parens: must error (depth limit or parse error), not
    // overflow the stack.
    let mut sql = String::from("SELECT ");
    for _ in 0..4000 {
        sql.push('(');
    }
    sql.push('v');
    for _ in 0..4000 {
        sql.push(')');
    }
    sql.push_str(" FROM t");
    assert!(compile(&sql, &cat, DeviceId(0)).is_err());

    // Long AND chains and IN lists must not recurse unboundedly either.
    let mut sql = String::from("SELECT v FROM t WHERE k = 0");
    for i in 0..20_000 {
        sql.push_str(&format!(" AND k = {i}"));
    }
    let _ = compile(&sql, &cat, DeviceId(0));
}

#[test]
fn error_spans_point_into_the_source() {
    let cat = catalog();
    let sql = "SELECT v FROM t WHERE ghost = 1";
    let e = compile(sql, &cat, DeviceId(0)).unwrap_err();
    assert!(e.span.start < sql.len());
    assert!(e.span.start <= e.span.end && e.span.end <= sql.len());
    assert_eq!(&sql[e.span.start..e.span.end], "ghost");
}
