//! Randomized SQL soak: a seeded generator emits random (but always
//! supported) SQL over a dimension/fact catalog; every query runs through
//! the full serving path — compile, footprint estimation, scheduler
//! admission, execution, typed decode — under every execution model, and
//! must agree exactly with the scalar host interpreter
//! ([`adamant::sql::prelude::run_sql_host`]). After each seed the device
//! pools and the admission ledger must be back at zero, and same-seed runs
//! must produce byte-identical executor statistics.
//!
//! The CI `soak` matrix shards this suite by seed through the `SQL_SEED`
//! environment variable (mirroring `CHAOS_SEED`/`SCHED_SEED`).

use adamant::prelude::*;
use adamant::sql::prelude::run_sql_host;
use adamant::sql::ColumnDecode;
use adamant::storage::catalog::Catalog;
use adamant::storage::column::Column;
use adamant::storage::datatype::{date_to_days, format_date};
use adamant::storage::table::Table;
use adamant_integration_tests::seeds;

const DEFAULT_SEEDS: [u64; 4] = [1, 7, 42, 1337];

/// xorshift64* — deterministic, std-only.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi]`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

const CATS: [&str; 5] = ["north", "south", "east", "west", "polar"];
const MODES: [&str; 4] = ["air", "rail", "ship", "truck"];
const DIM_ROWS: i64 = 48;
const FACT_ROWS: i64 = 1500;

/// Dimension `d` (48 rows, unique key) + fact `f` (1500 rows, foreign key
/// into `d`), deterministic per seed. Sized so chunked execution sees
/// several chunks at `chunk_rows = 256`.
fn catalog(seed: u64) -> Catalog {
    let mut rng = Rng::new(seed ^ 0x0DA7_A5E7);
    let mut c = Catalog::new();

    let d_key: Vec<i64> = (0..DIM_ROWS).collect();
    let d_cat: Vec<&str> = (0..DIM_ROWS).map(|_| *rng.pick(&CATS)).collect();
    let d_val: Vec<i64> = (0..DIM_ROWS).map(|_| rng.range(0, 20)).collect();
    c.register(
        Table::new(
            "d",
            vec![
                Column::from_i64("d_key", d_key),
                Column::from_strings("d_cat", &d_cat),
                Column::from_i64("d_val", d_val),
            ],
        )
        .unwrap(),
    );

    let f_key: Vec<i64> = (0..FACT_ROWS).map(|_| rng.range(0, DIM_ROWS - 1)).collect();
    let f_v: Vec<i64> = (0..FACT_ROWS).map(|_| rng.range(-40, 60)).collect();
    let f_w: Vec<i64> = (0..FACT_ROWS).map(|_| rng.range(0, 9)).collect();
    let f_mode: Vec<&str> = (0..FACT_ROWS).map(|_| *rng.pick(&MODES)).collect();
    let f_day: Vec<i32> = (0..FACT_ROWS)
        .map(|_| date_to_days(1995, rng.range(1, 12) as u32, rng.range(1, 28) as u32))
        .collect();
    c.register(
        Table::new(
            "f",
            vec![
                Column::from_i64("f_key", f_key),
                Column::from_i64("f_v", f_v),
                Column::from_i64("f_w", f_w),
                Column::from_strings("f_mode", &f_mode),
                Column::from_dates("f_day", f_day),
            ],
        )
        .unwrap(),
    );
    // The hash kernels refuse a key column holding their empty-slot marker
    // (a typed error); nothing the soak generates comes near it, so the host
    // oracle needs no such rule.
    for name in c.table_names() {
        for col in c.table(name).unwrap().columns() {
            assert!(!col.to_i64_vec().contains(&i64::MIN), "{name}");
        }
    }
    c
}

/// One random fact-table predicate (always binder-supported: no ordering
/// comparisons on dictionary columns, only valid dates).
fn fact_pred(rng: &mut Rng) -> String {
    match rng.below(6) {
        0 => format!("f_v >= {}", rng.range(-40, 60)),
        1 => format!("f_v < {}", rng.range(-40, 60)),
        2 => {
            let a = rng.range(0, 7);
            format!("f_w BETWEEN {a} AND {}", rng.range(a, 9))
        }
        3 => format!("f_mode = '{}'", rng.pick(&MODES)),
        4 => format!("f_mode IN ('{}', '{}')", rng.pick(&MODES), rng.pick(&MODES)),
        _ => {
            let op = if rng.chance(2) { "<" } else { ">=" };
            format!(
                "f_day {op} DATE '1995-{:02}-{:02}'",
                rng.range(1, 12),
                rng.range(1, 28)
            )
        }
    }
}

/// One random dimension-table predicate.
fn dim_pred(rng: &mut Rng) -> String {
    match rng.below(3) {
        0 => format!("d_cat = '{}'", rng.pick(&CATS)),
        1 => format!("d_cat <> '{}'", rng.pick(&CATS)),
        _ => format!("d_val <= {}", rng.range(0, 20)),
    }
}

/// A random WHERE clause over `f` (and `d` when joined).
fn where_clause(rng: &mut Rng, joined: bool) -> String {
    let n = rng.range(1, 3);
    let mut preds = Vec::new();
    for _ in 0..n {
        if joined && rng.chance(3) {
            preds.push(dim_pred(rng));
        } else {
            preds.push(fact_pred(rng));
        }
    }
    format!(" WHERE {}", preds.join(" AND "))
}

/// A random aggregate list (1–3 aggregates, always with distinct names).
fn agg_list(rng: &mut Rng, joined: bool) -> String {
    let mut pool: Vec<String> = vec![
        "SUM(f_v) AS s_v".into(),
        "COUNT(*) AS n".into(),
        "MIN(f_v) AS lo_v".into(),
        "MAX(f_v) AS hi_v".into(),
        "SUM(f_v * (10 - f_w)) AS s_expr".into(),
        format!(
            "SUM(CASE WHEN f_mode = '{}' THEN f_v ELSE 0 END) AS s_case",
            rng.pick(&MODES)
        ),
    ];
    if joined {
        // Mixes a raw fact column with a join payload — the Q14 shape.
        pool.push("SUM(f_v * d_val) AS s_cross".into());
        pool.push("MAX(d_val) AS hi_d".into());
    }
    let n = rng.range(1, 3) as usize;
    let mut picked = Vec::new();
    for _ in 0..n {
        let i = rng.below(pool.len() as u64) as usize;
        picked.push(pool.swap_remove(i));
    }
    picked.join(", ")
}

/// One random, always-supported SQL query.
fn gen_query(rng: &mut Rng) -> String {
    match rng.below(4) {
        // Plain single-table scan (row order is scan order on both paths).
        0 => {
            let cols = [
                "f_v, f_w",
                "f_mode, f_v",
                "f_day, f_v",
                "f_v * 2 + f_w AS z",
            ];
            let mut q = format!(
                "SELECT {} FROM f{}",
                rng.pick(&cols),
                where_clause(rng, false)
            );
            if rng.chance(2) {
                q.push_str(&format!(" LIMIT {}", rng.range(1, 40)));
            }
            q
        }
        // Whole-input aggregate, single table.
        1 => format!(
            "SELECT {} FROM f{}",
            agg_list(rng, false),
            where_clause(rng, false)
        ),
        // Whole-input aggregate over a join (both fold orientations).
        2 => {
            let (from, join) = if rng.chance(2) {
                ("f", " JOIN d ON d_key = f_key")
            } else {
                ("d", " JOIN f ON f_key = d_key")
            };
            format!(
                "SELECT {} FROM {from}{join}{}",
                agg_list(rng, true),
                where_clause(rng, true)
            )
        }
        // Grouped aggregate, optional join / ORDER BY / LIMIT.
        _ => {
            let joined = rng.chance(2);
            let group = if joined {
                *rng.pick(&["d_cat", "f_mode", "f_mode, f_w"])
            } else {
                *rng.pick(&["f_mode", "f_w", "f_mode, f_w"])
            };
            let aggs = agg_list(rng, joined);
            let first_agg = aggs
                .split(" AS ")
                .nth(1)
                .unwrap()
                .split([',', ' '])
                .next()
                .unwrap()
                .to_string();
            let join = if joined {
                " JOIN d ON d_key = f_key"
            } else {
                ""
            };
            let mut q = format!(
                "SELECT {group}, {aggs} FROM f{join}{} GROUP BY {group}",
                where_clause(rng, joined)
            );
            if rng.chance(2) {
                let dir = if rng.chance(2) { " DESC" } else { "" };
                q.push_str(&format!(" ORDER BY {first_agg}{dir}"));
            }
            if rng.chance(3) {
                q.push_str(&format!(" LIMIT {}", rng.range(1, 8)));
            }
            q
        }
    }
}

/// Decodes one oracle row of raw i64 values with the compiled decoders, so
/// it compares exactly against the session's typed rows.
fn decode_oracle_row(
    catalog: &Catalog,
    outputs: &[adamant::sql::OutputColumn],
    raw: &[i64],
) -> Vec<SqlValue> {
    raw.iter()
        .zip(outputs)
        .map(|(&v, o)| match &o.decode {
            ColumnDecode::Int => SqlValue::Int(v),
            ColumnDecode::Date => SqlValue::Date(format_date(v as i32)),
            ColumnDecode::Dict { table, column } => {
                let dict_owner = catalog.table(table).unwrap();
                let col = dict_owner.column(column).unwrap();
                SqlValue::Str(col.dictionary().unwrap()[v as usize].clone())
            }
        })
        .collect()
}

const QUERIES_PER_SEED: usize = 24;

/// Drops the `wall_ns` field — the only real-wall-clock value in the
/// stats export; everything else runs on the modeled timeline and must be
/// byte-identical across same-seed runs.
fn strip_wall_ns(json: &str) -> String {
    match json.find("\"wall_ns\":") {
        None => json.to_string(),
        Some(start) => {
            let rest = &json[start..];
            let end = rest.find(',').map_or(json.len(), |i| start + i + 1);
            format!("{}{}", &json[..start], &json[end..])
        }
    }
}

/// One full soak pass: generate, serve under every model, check against
/// the oracle, then serve the first model again from the statement cache
/// and check it repeats its stats. Returns per-query executor stats JSON
/// (first model) for the determinism check.
fn soak_run(seed: u64) -> Vec<String> {
    let catalog = catalog(seed);
    let mut engine = Adamant::builder()
        .chunk_rows(256)
        .device(DeviceProfile::cuda_rtx2080ti())
        .build()
        .unwrap();
    let dev = engine.device_ids()[0];
    let mut rng = Rng::new(seed);
    let mut stats_jsons = Vec::new();

    for qi in 0..QUERIES_PER_SEED {
        let sql = gen_query(&mut rng);
        let compiled = adamant::sql::compile(&sql, &catalog, dev)
            .unwrap_or_else(|e| panic!("seed {seed} query {qi} failed to compile: {e}\n  {sql}"));
        let oracle_raw = run_sql_host(&sql, &catalog)
            .unwrap_or_else(|e| panic!("seed {seed} query {qi} oracle failed: {e}\n  {sql}"));
        let want: Vec<Vec<SqlValue>> = oracle_raw
            .iter()
            .map(|row| decode_oracle_row(&catalog, &compiled.outputs, row))
            .collect();

        let mut serve = |model: ExecutionModel| {
            let rs = Session::new(&mut engine, &catalog)
                .tenant("soak", 1.0)
                .model(model)
                .sql(&sql)
                .unwrap_or_else(|e| panic!("seed {seed} query {qi} under {model}: {e}\n  {sql}"));
            assert_eq!(
                rs.rows, want,
                "seed {seed} query {qi} under {model} diverged from oracle:\n  {sql}"
            );
            assert!(rs.footprint_bytes > 0, "footprint feeds admission");
            strip_wall_ns(&rs.stats.to_json())
        };
        // The first serve compiles the text; the other models' serves, and
        // the repeat of the first model after them, are statement-cache hits.
        let first = serve(ExecutionModel::ALL[0]);
        for &model in &ExecutionModel::ALL[1..] {
            serve(model);
        }
        assert_eq!(
            serve(ExecutionModel::ALL[0]),
            first,
            "seed {seed} query {qi}: a cache hit's stats differ from the compiling serve's\n  {sql}"
        );
        stats_jsons.push(first);
    }

    // The serving layer must leave no residue: pools and the admission
    // ledger return to zero after every query.
    for d in engine.device_ids() {
        let pool = engine.executor().devices().get(d).unwrap().pool();
        assert_eq!(pool.used(), 0, "seed {seed}: leaked bytes on {d}");
        assert_eq!(
            pool.pinned_used(),
            0,
            "seed {seed}: leaked pinned bytes on {d}"
        );
        assert_eq!(
            pool.admission_reserved(),
            0,
            "seed {seed}: leaked admission reservation on {d}"
        );
    }
    stats_jsons
}

#[test]
fn random_sql_agrees_with_host_oracle_under_every_model() {
    for seed in seeds("SQL_SEED", &DEFAULT_SEEDS) {
        let first = soak_run(seed);
        assert_eq!(first.len(), QUERIES_PER_SEED);
        // Same seed, fresh engine and catalog: byte-identical stats (the
        // timeline is fully modeled — no wall clock anywhere).
        let second = soak_run(seed);
        assert_eq!(
            first, second,
            "seed {seed}: executor stats drifted between identical runs"
        );
    }
}

/// The whole compile path, pinned: plan (hand-built or SQL) → fuse → split.
/// For the seven hand-built TPC-H plans, the seven TPC-H SQL texts and the
/// first 100 generated queries of seeds 1–3, the unfused graph, the fused
/// graph, the fusion report and the fused graph's pipeline split are folded
/// into one hash; a query that does not compile folds its error's stage and
/// span (never its wording). A refactor of planning, lowering, fusion or
/// splitting must leave the value untouched. The seeds are fixed, not
/// `SQL_SEED`, so every CI shard checks the same value.
#[test]
fn compile_path_is_pinned() {
    use adamant::core::fusion::fuse_graph;
    use adamant::core::pipeline::PipelineSet;
    use adamant::storage::fnv::FnvHasher;
    use std::hash::Hasher;

    let mut h = FnvHasher::default();
    let mut errors = 0;
    let mut fold = |graph: std::result::Result<PrimitiveGraph, SqlError>| match graph {
        Ok(mut g) => {
            h.write(format!("{g:?}").as_bytes());
            let report = fuse_graph(&mut g);
            h.write(format!("{g:?}{report:?}").as_bytes());
            h.write(format!("{:?}", PipelineSet::split(&g)).as_bytes());
        }
        Err(e) => {
            errors += 1;
            h.write(format!("{:?}", e.kind).as_bytes());
            h.write_usize(e.span.start);
            h.write_usize(e.span.end);
        }
    };
    let dev = DeviceId(0);
    let tpch_catalog = TpchGenerator::new(0.001, 20260707).generate();
    for q in TpchQuery::ALL {
        fold(Ok(q.plan(dev, &tpch_catalog).unwrap()));
    }
    for q in TpchQuery::ALL {
        let sql = adamant::tpch::sql::text(q);
        fold(adamant::sql::compile(sql, &tpch_catalog, dev).map(|c| c.graph));
    }
    for seed in 1..=3 {
        let catalog = catalog(seed);
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            let sql = gen_query(&mut rng);
            fold(adamant::sql::compile(&sql, &catalog, dev).map(|c| c.graph));
        }
    }
    assert_eq!(errors, 0, "every pinned text compiles");
    assert_eq!(h.finish(), 11_184_332_263_048_874_902);
}

/// Every condition shape the binder handles or rejects, pinned over
/// `catalog(1)`: the texts the generated corpus lacks — CASE conditions
/// with OR, AND and BETWEEN, literal-first comparisons, LIKE and IN sets
/// that match nothing or repeat a value, absent dictionary strings, date
/// strings, column pairs — and one text per rejection rule in CASE and in
/// WHERE. An accepted text folds its unfused graph; a rejected one folds
/// its error's stage, span and message. A refactor of binding or lowering
/// must leave the value untouched.
#[test]
fn condition_shapes_are_pinned() {
    use adamant::storage::fnv::FnvHasher;
    use std::hash::Hasher;

    const ACCEPTED: [&str; 13] = [
        "SELECT SUM(CASE WHEN f_v > 10 OR f_mode = 'air' THEN 1 ELSE 0 END) AS n FROM f",
        "SELECT SUM(CASE WHEN f_w BETWEEN 2 AND 5 AND f_day < '1995-06-01' THEN f_v ELSE 0 END) \
         AS s FROM f",
        "SELECT SUM(CASE WHEN 10 < f_v THEN f_w ELSE 1 END) AS s FROM f",
        "SELECT COUNT(*) AS n FROM f WHERE 3 >= f_w AND 'rail' <> f_mode",
        "SELECT SUM(CASE WHEN f_mode LIKE 'tr%' THEN 1 ELSE 0 END) AS n FROM f \
         WHERE f_mode LIKE 'a%'",
        "SELECT SUM(CASE WHEN f_mode LIKE 'zz%' THEN 0 ELSE 1 END) AS n FROM f",
        "SELECT SUM(CASE WHEN f_mode IN ('ship', 'zzz', 'ship') THEN 1 ELSE 0 END) AS n FROM f \
         WHERE f_mode IN ('air', 'air', 'nowhere', 'rail')",
        "SELECT SUM(CASE WHEN f_mode = 'nowhere' THEN 1 ELSE 0 END) AS n FROM f \
         WHERE f_mode <> 'nowhere'",
        "SELECT SUM(CASE WHEN f_day >= '1995-07-01' THEN f_v ELSE 0 END) AS s FROM f \
         WHERE f_day BETWEEN '1995-02-01' AND '1995-11-30'",
        "SELECT COUNT(*) AS n FROM f WHERE f_mode IN ('zzz', 'nowhere')",
        "SELECT f_key, f_v FROM f WHERE f_mode LIKE 'zz%'",
        "SELECT d_cat, SUM(f_v) AS s FROM f JOIN d ON d_key = f_key \
         WHERE f_v < f_w AND d_val >= d_key GROUP BY d_cat",
        "SELECT COUNT(*) AS n FROM f WHERE f_v BETWEEN 0 AND 10 OR f_w = 3",
    ];
    const REJECTED: [&str; 19] = [
        "SELECT SUM(CASE WHEN f_v < f_w THEN 1 ELSE 0 END) AS n FROM f",
        "SELECT SUM(CASE WHEN f_v < nope THEN 1 ELSE 0 END) AS n FROM f",
        "SELECT SUM(CASE WHEN EXISTS (SELECT d_key FROM d WHERE d_key = f_key) \
         THEN 1 ELSE 0 END) AS n FROM f",
        "SELECT COUNT(*) AS n FROM f \
         WHERE f_v > 0 OR EXISTS (SELECT d_key FROM d WHERE d_key = f_key)",
        "SELECT COUNT(*) AS n FROM f JOIN d ON d_key = f_key WHERE f_mode = d_cat",
        "SELECT COUNT(*) AS n FROM f JOIN d ON d_key = f_key WHERE f_v < d_val",
        "SELECT SUM(CASE WHEN 1 = 1 THEN 1 ELSE 0 END) AS n FROM f",
        "SELECT COUNT(*) AS n FROM f WHERE 1 = 1",
        "SELECT SUM(CASE WHEN f_mode < 'rail' THEN 1 ELSE 0 END) AS n FROM f",
        "SELECT COUNT(*) AS n FROM f WHERE 'rail' > f_mode",
        "SELECT SUM(CASE WHEN f_v < f_w + 1 THEN 1 ELSE 0 END) AS n FROM f",
        "SELECT COUNT(*) AS n FROM f WHERE f_v * 2 > f_w",
        "SELECT SUM(CASE WHEN f_v = 'ten' THEN 1 ELSE 0 END) AS n FROM f",
        "SELECT COUNT(*) AS n FROM f WHERE 'ten' = f_v",
        "SELECT SUM(CASE WHEN f_mode BETWEEN 'air' AND 'rail' THEN 1 ELSE 0 END) AS n FROM f",
        "SELECT COUNT(*) AS n FROM f WHERE f_mode BETWEEN 'air' AND 'rail'",
        "SELECT COUNT(*) AS n FROM f WHERE f_w BETWEEN 1 AND 'nine'",
        "SELECT SUM(CASE WHEN f_mode LIKE '%ail' THEN 1 ELSE 0 END) AS n FROM f",
        "SELECT COUNT(*) AS n FROM f WHERE f_v LIKE 'a%'",
    ];

    let catalog = catalog(1);
    let dev = DeviceId(0);
    let mut h = FnvHasher::default();
    for sql in ACCEPTED {
        let compiled = adamant::sql::compile(sql, &catalog, dev);
        let compiled = compiled.unwrap_or_else(|e| panic!("{sql}: {e}"));
        h.write(format!("{:?}", compiled.graph).as_bytes());
    }
    for sql in REJECTED {
        let Err(e) = adamant::sql::compile(sql, &catalog, dev) else {
            panic!("{sql}: compiled");
        };
        h.write(format!("{:?}", e.kind).as_bytes());
        h.write_usize(e.span.start);
        h.write_usize(e.span.end);
        h.write(e.message.as_bytes());
    }
    assert_eq!(h.finish(), 15_856_999_395_359_662_281);
}

/// The generator itself is deterministic: same seed, same SQL texts. A
/// regression here would silently decouple the CI shards from each other.
#[test]
fn generator_is_deterministic_per_seed() {
    for seed in [3u64, 99, 2026] {
        let a: Vec<String> = {
            let mut rng = Rng::new(seed);
            (0..QUERIES_PER_SEED).map(|_| gen_query(&mut rng)).collect()
        };
        let b: Vec<String> = {
            let mut rng = Rng::new(seed);
            (0..QUERIES_PER_SEED).map(|_| gen_query(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
