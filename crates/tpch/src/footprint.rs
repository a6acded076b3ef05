//! Per-query input footprints vs. device memory (paper Fig. 7-left).
//!
//! The figure compares each TPC-H query's *input* size (the columns it
//! actually reads) and the full dataset size against GPU memory capacities.
//! Footprints here are computed analytically from TPC-H row-count scaling
//! rules and our column widths, so all 22 queries can be plotted without
//! generating the data. Column lists follow the official query texts
//! (join keys, predicate columns and aggregated columns).

use crate::gen::base_rows;

/// Byte width of one value in each table's columns (this engine stores
/// numeric columns as widened `i64` on device, 8 bytes; dictionary codes
/// and dates travel as their 4-byte host width for transfer accounting —
/// the footprint model uses the *host* widths, as Fig. 7 measures inputs).
const W_KEY: u64 = 8; // keys / integers (i64)
const W_DATE: u64 = 4; // dates (i32 days)
const W_DICT: u64 = 4; // dictionary codes (u32)

fn rows(table: &str, sf: f64) -> u64 {
    let base = match table {
        "customer" => base_rows::CUSTOMER,
        "orders" => base_rows::ORDERS,
        "lineitem" => base_rows::LINEITEM,
        "part" => base_rows::PART,
        "supplier" => base_rows::SUPPLIER,
        "partsupp" => base_rows::PARTSUPP,
        "nation" => return base_rows::NATION as u64,
        "region" => return base_rows::REGION as u64,
        other => panic!("unknown table {other}"),
    };
    (base as f64 * sf) as u64
}

/// Width class of a column by name.
fn width(col: &str) -> u64 {
    if col.ends_with("date") {
        W_DATE
    } else if matches!(
        col,
        "c_mktsegment"
            | "o_orderpriority"
            | "l_returnflag"
            | "l_linestatus"
            | "l_shipmode"
            | "l_shipinstruct"
            | "p_brand"
            | "p_type"
            | "p_container"
            | "n_name"
            | "r_name"
            | "c_nationkey"
    ) {
        W_DICT
    } else {
        W_KEY
    }
}

/// The `(table, column)` input sets of all 22 TPC-H queries (columns the
/// query's predicates, joins and aggregates touch).
pub fn query_columns(q: usize) -> &'static [(&'static str, &'static str)] {
    match q {
        1 => &[
            ("lineitem", "l_shipdate"),
            ("lineitem", "l_quantity"),
            ("lineitem", "l_extendedprice"),
            ("lineitem", "l_discount"),
            ("lineitem", "l_tax"),
            ("lineitem", "l_returnflag"),
            ("lineitem", "l_linestatus"),
        ],
        2 => &[
            ("part", "p_partkey"),
            ("part", "p_size"),
            ("part", "p_type"),
            ("partsupp", "ps_partkey"),
            ("partsupp", "ps_suppkey"),
            ("partsupp", "ps_supplycost"),
            ("supplier", "s_suppkey"),
            ("supplier", "s_nationkey"),
            ("supplier", "s_acctbal"),
            ("nation", "n_nationkey"),
            ("nation", "n_regionkey"),
            ("region", "r_regionkey"),
            ("region", "r_name"),
        ],
        3 => &[
            ("customer", "c_custkey"),
            ("customer", "c_mktsegment"),
            ("orders", "o_orderkey"),
            ("orders", "o_custkey"),
            ("orders", "o_orderdate"),
            ("orders", "o_shippriority"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_extendedprice"),
            ("lineitem", "l_discount"),
            ("lineitem", "l_shipdate"),
        ],
        4 => &[
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_commitdate"),
            ("lineitem", "l_receiptdate"),
            ("orders", "o_orderkey"),
            ("orders", "o_orderdate"),
            ("orders", "o_orderpriority"),
        ],
        5 => &[
            ("customer", "c_custkey"),
            ("customer", "c_nationkey"),
            ("orders", "o_orderkey"),
            ("orders", "o_custkey"),
            ("orders", "o_orderdate"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_suppkey"),
            ("lineitem", "l_extendedprice"),
            ("lineitem", "l_discount"),
            ("supplier", "s_suppkey"),
            ("supplier", "s_nationkey"),
            ("nation", "n_nationkey"),
            ("nation", "n_regionkey"),
            ("region", "r_regionkey"),
            ("region", "r_name"),
        ],
        6 => &[
            ("lineitem", "l_shipdate"),
            ("lineitem", "l_discount"),
            ("lineitem", "l_quantity"),
            ("lineitem", "l_extendedprice"),
        ],
        7 => &[
            ("supplier", "s_suppkey"),
            ("supplier", "s_nationkey"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_suppkey"),
            ("lineitem", "l_shipdate"),
            ("lineitem", "l_extendedprice"),
            ("lineitem", "l_discount"),
            ("orders", "o_orderkey"),
            ("orders", "o_custkey"),
            ("customer", "c_custkey"),
            ("customer", "c_nationkey"),
            ("nation", "n_nationkey"),
            ("nation", "n_name"),
        ],
        8 => &[
            ("part", "p_partkey"),
            ("part", "p_type"),
            ("lineitem", "l_partkey"),
            ("lineitem", "l_suppkey"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_extendedprice"),
            ("lineitem", "l_discount"),
            ("orders", "o_orderkey"),
            ("orders", "o_custkey"),
            ("orders", "o_orderdate"),
            ("customer", "c_custkey"),
            ("customer", "c_nationkey"),
            ("supplier", "s_suppkey"),
            ("supplier", "s_nationkey"),
            ("nation", "n_nationkey"),
            ("nation", "n_regionkey"),
            ("region", "r_regionkey"),
            ("region", "r_name"),
        ],
        9 => &[
            ("part", "p_partkey"),
            ("part", "p_type"),
            ("lineitem", "l_partkey"),
            ("lineitem", "l_suppkey"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_quantity"),
            ("lineitem", "l_extendedprice"),
            ("lineitem", "l_discount"),
            ("partsupp", "ps_partkey"),
            ("partsupp", "ps_suppkey"),
            ("partsupp", "ps_supplycost"),
            ("orders", "o_orderkey"),
            ("orders", "o_orderdate"),
            ("supplier", "s_suppkey"),
            ("supplier", "s_nationkey"),
            ("nation", "n_nationkey"),
            ("nation", "n_name"),
        ],
        10 => &[
            ("customer", "c_custkey"),
            ("customer", "c_nationkey"),
            ("customer", "c_acctbal"),
            ("orders", "o_orderkey"),
            ("orders", "o_custkey"),
            ("orders", "o_orderdate"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_returnflag"),
            ("lineitem", "l_extendedprice"),
            ("lineitem", "l_discount"),
            ("nation", "n_nationkey"),
            ("nation", "n_name"),
        ],
        11 => &[
            ("partsupp", "ps_partkey"),
            ("partsupp", "ps_suppkey"),
            ("partsupp", "ps_supplycost"),
            ("partsupp", "ps_availqty"),
            ("supplier", "s_suppkey"),
            ("supplier", "s_nationkey"),
            ("nation", "n_nationkey"),
            ("nation", "n_name"),
        ],
        12 => &[
            ("orders", "o_orderkey"),
            ("orders", "o_orderpriority"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_shipmode"),
            ("lineitem", "l_commitdate"),
            ("lineitem", "l_receiptdate"),
            ("lineitem", "l_shipdate"),
        ],
        13 => &[
            ("customer", "c_custkey"),
            ("orders", "o_orderkey"),
            ("orders", "o_custkey"),
        ],
        14 => &[
            ("lineitem", "l_partkey"),
            ("lineitem", "l_shipdate"),
            ("lineitem", "l_extendedprice"),
            ("lineitem", "l_discount"),
            ("part", "p_partkey"),
            ("part", "p_type"),
        ],
        15 => &[
            ("lineitem", "l_suppkey"),
            ("lineitem", "l_shipdate"),
            ("lineitem", "l_extendedprice"),
            ("lineitem", "l_discount"),
            ("supplier", "s_suppkey"),
        ],
        16 => &[
            ("partsupp", "ps_partkey"),
            ("partsupp", "ps_suppkey"),
            ("part", "p_partkey"),
            ("part", "p_brand"),
            ("part", "p_type"),
            ("part", "p_size"),
        ],
        17 => &[
            ("lineitem", "l_partkey"),
            ("lineitem", "l_quantity"),
            ("lineitem", "l_extendedprice"),
            ("part", "p_partkey"),
            ("part", "p_brand"),
            ("part", "p_container"),
        ],
        18 => &[
            ("customer", "c_custkey"),
            ("orders", "o_orderkey"),
            ("orders", "o_custkey"),
            ("orders", "o_orderdate"),
            ("orders", "o_totalprice"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_quantity"),
        ],
        19 => &[
            ("lineitem", "l_partkey"),
            ("lineitem", "l_quantity"),
            ("lineitem", "l_extendedprice"),
            ("lineitem", "l_discount"),
            ("lineitem", "l_shipmode"),
            ("lineitem", "l_shipinstruct"),
            ("part", "p_partkey"),
            ("part", "p_brand"),
            ("part", "p_container"),
            ("part", "p_size"),
        ],
        20 => &[
            ("lineitem", "l_partkey"),
            ("lineitem", "l_suppkey"),
            ("lineitem", "l_shipdate"),
            ("lineitem", "l_quantity"),
            ("partsupp", "ps_partkey"),
            ("partsupp", "ps_suppkey"),
            ("partsupp", "ps_availqty"),
            ("part", "p_partkey"),
            ("part", "p_type"),
            ("supplier", "s_suppkey"),
            ("supplier", "s_nationkey"),
            ("nation", "n_nationkey"),
            ("nation", "n_name"),
        ],
        21 => &[
            ("supplier", "s_suppkey"),
            ("supplier", "s_nationkey"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_suppkey"),
            ("lineitem", "l_commitdate"),
            ("lineitem", "l_receiptdate"),
            ("orders", "o_orderkey"),
            ("nation", "n_nationkey"),
            ("nation", "n_name"),
        ],
        22 => &[
            ("customer", "c_custkey"),
            ("customer", "c_acctbal"),
            ("orders", "o_custkey"),
        ],
        other => panic!("TPC-H has queries 1..=22, asked for {other}"),
    }
}

/// Input footprint of query `q` at scale factor `sf`, in bytes.
pub fn query_input_bytes(q: usize, sf: f64) -> u64 {
    query_columns(q)
        .iter()
        .map(|&(t, c)| rows(t, sf) * width(c))
        .sum()
}

/// Size of the complete dataset at scale factor `sf`, in bytes (all
/// columns of all tables in this engine's physical schema, roughly the
/// ~1 GB/SF of the official dbgen output).
pub fn dataset_bytes(sf: f64) -> u64 {
    // Per-table per-row widths of our physical schema.
    let widths: [(&str, u64); 8] = [
        ("region", 12),
        ("nation", 16),
        ("supplier", 24),
        ("customer", 24),
        ("part", 24),
        ("partsupp", 32),
        ("orders", 36),
        // 10 i64 + 3 dates + dict codes ≈ 100 B/row (text fields excluded).
        ("lineitem", 100),
    ];
    widths.iter().map(|(t, w)| rows(t, sf) * w).sum()
}

/// GPU device-memory capacities the paper's Fig. 7-left compares against.
pub fn gpu_capacities() -> Vec<(&'static str, u64)> {
    const GIB: u64 = 1 << 30;
    vec![
        ("GTX 1080 Ti (11 GiB)", 11 * GIB),
        ("RTX 2080 Ti (11 GiB)", 11 * GIB),
        ("RTX 3090 (24 GiB)", 24 * GIB),
        ("A100 (40 GiB)", 40 * GIB),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_have_columns() {
        for q in 1..=22 {
            assert!(!query_columns(q).is_empty(), "Q{q}");
            assert!(query_input_bytes(q, 1.0) > 0);
        }
    }

    #[test]
    fn query_column_lists_have_no_duplicates() {
        // `query_input_bytes` sums the list as it stands, so a repeated
        // column would count twice.
        for q in 1..=22 {
            let cols = query_columns(q);
            let distinct: std::collections::BTreeSet<_> = cols.iter().collect();
            assert_eq!(distinct.len(), cols.len(), "Q{q}");
        }
    }

    #[test]
    fn inputs_smaller_than_dataset() {
        for q in 1..=22 {
            assert!(
                query_input_bytes(q, 10.0) < dataset_bytes(10.0),
                "Q{q} input exceeds dataset"
            );
        }
    }

    #[test]
    fn fig7_shape_some_queries_exceed_gpu_memory() {
        // At SF 100 the full dataset exceeds every listed GPU, and at
        // least one query's *input* also exceeds the 11 GiB cards — the
        // premise of the paper's Fig. 7 argument.
        let sf = 100.0;
        let caps = gpu_capacities();
        assert!(dataset_bytes(sf) > caps.last().unwrap().1);
        let small_gpu = caps[0].1;
        let over: Vec<usize> = (1..=22)
            .filter(|&q| query_input_bytes(q, sf) > small_gpu)
            .collect();
        let under: Vec<usize> = (1..=22)
            .filter(|&q| query_input_bytes(q, sf) <= small_gpu)
            .collect();
        assert!(!over.is_empty(), "some inputs exceed 11 GiB at SF {sf}");
        assert!(!under.is_empty(), "some inputs fit in 11 GiB at SF {sf}");
    }

    #[test]
    fn q6_is_among_the_smallest() {
        let q6 = query_input_bytes(6, 1.0);
        let q9 = query_input_bytes(9, 1.0);
        assert!(q6 < q9, "Q6 reads less than the big join queries");
    }

    #[test]
    fn scaling_is_linear() {
        let a = query_input_bytes(3, 1.0);
        let b = query_input_bytes(3, 2.0);
        let ratio = b as f64 / a as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }
}
