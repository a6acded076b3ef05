//! Bind by reference: a query's inputs are the catalog column's own rows
//! (an `Int64` column's storage; a narrower column's rows widened once),
//! shared by every binding, and the residency fingerprint memoised beside
//! them is the column's, not the binding's.

use adamant::prelude::*;
use adamant::storage::datatype::DataType;
use std::sync::Arc;

fn tpch() -> Catalog {
    TpchGenerator::new(0.001, 7).generate()
}

/// Every column a binding holds is the same allocation the catalog column
/// hands out; nothing was copied on the way.
fn assert_binds_the_catalogs_rows(inputs: &QueryInputs, table: &Table, context: &str) {
    for (name, rows) in inputs.iter() {
        let column = table.column(name).unwrap();
        let shared = column.shared_rows();
        assert!(Arc::ptr_eq(rows, shared.rows()), "{context}: `{name}`");
    }
}

#[test]
fn bindings_of_one_column_share_one_allocation() {
    let catalog = tpch();
    let lineitem = catalog.table("lineitem").unwrap();
    let first = TpchQuery::Q6.bind(&catalog).unwrap();
    let second = TpchQuery::Q6.bind(&catalog).unwrap();
    assert!(first.iter().next().is_some());
    assert_binds_the_catalogs_rows(&first, lineitem, "first bind");
    assert_binds_the_catalogs_rows(&second, lineitem, "second bind");

    // `l_extendedprice` is `Int64`: the binding *is* the column's storage.
    // `l_shipdate` is a `Date`: widened on the first bind, and only then.
    for (name, narrow) in [("l_extendedprice", false), ("l_shipdate", true)] {
        let column = lineitem.column(name).unwrap();
        assert_eq!(column.data_type() != DataType::Int64, narrow, "{name}");
        assert_eq!(**first.get(name).unwrap(), column.to_i64_vec());
    }

    // Ten concurrent specs over one column: ten bindings plus the column's
    // own holders, one vector.
    let device = DeviceId(0);
    let graph = TpchQuery::Q6.plan(device, &catalog).unwrap();
    let price = Arc::clone(first.get("l_extendedprice").unwrap());
    let holders_before = Arc::strong_count(&price);
    let specs: Vec<QuerySpec> = (0..10)
        .map(|_| {
            let inputs = TpchQuery::Q6.bind(&catalog).unwrap();
            assert!(Arc::ptr_eq(inputs.get("l_extendedprice").unwrap(), &price));
            QuerySpec::new(graph.clone(), inputs, ExecutionModel::Chunked)
        })
        .collect();
    assert_eq!(Arc::strong_count(&price), holders_before + specs.len());
    drop(specs);
    assert_eq!(Arc::strong_count(&price), holders_before);

    // A table generated (and registered) again is other rows, even though
    // they are equal: nothing is keyed by name or by content.
    let again = tpch();
    let rebound = TpchQuery::Q6.bind(&again).unwrap();
    for (name, rows) in rebound.iter() {
        let old = first.get(name).unwrap();
        assert_eq!(rows, old, "{name}: same seed, same values");
        assert!(!Arc::ptr_eq(rows, old), "{name}: but its own allocation");
    }

    // A raw vector gets a pair of its own each time it is bound.
    let mut raw = QueryInputs::new();
    raw.bind("x", vec![1, 2, 3]);
    let before = Arc::clone(raw.get("x").unwrap());
    raw.bind("x", vec![1, 2, 3]);
    assert!(!Arc::ptr_eq(raw.get("x").unwrap(), &before));
}

/// A warm `Session::sql` re-binds the same rows and reads the fingerprint
/// the first call left beside them: the cache hits, and what it compared was
/// the column's memo, not a fresh hash of a fresh copy.
#[test]
fn a_warm_session_reuses_rows_and_fingerprints() {
    let catalog = tpch();
    let mut engine = Adamant::builder()
        .chunk_rows(1 << 10)
        .device(DeviceProfile::cuda_rtx2080ti())
        .residency_cache(ResidencyConfig::new(1 << 30))
        .build()
        .unwrap();
    let lineitem = catalog.table("lineitem").unwrap();
    let scanned = ["l_quantity", "l_extendedprice", "l_shipdate"];
    for name in scanned {
        let column = lineitem.column(name).unwrap();
        assert_eq!(column.shared_rows().known_content_hash(), None);
    }
    let sql = "SELECT SUM(l_extendedprice) AS revenue FROM lineitem \
               WHERE l_quantity < 24 AND l_shipdate >= DATE '1994-01-01'";
    let mut session = Session::new(&mut engine, &catalog);
    let cold = session.sql(sql).unwrap();
    assert_eq!((cold.stats.cache_hits, cold.stats.cache_misses), (0, 3));
    let fingerprints: Vec<(Arc<Vec<i64>>, u64)> = scanned
        .iter()
        .map(|name| {
            let shared = lineitem.column(name).unwrap().shared_rows();
            let hash = shared.known_content_hash().expect("pinned, so hashed");
            (Arc::clone(shared.rows()), hash)
        })
        .collect();
    let warm = session.sql(sql).unwrap();
    assert_eq!((warm.stats.cache_hits, warm.stats.cache_misses), (3, 0));
    assert_eq!(warm.rows, cold.rows);
    for (name, (rows, hash)) in scanned.iter().zip(&fingerprints) {
        let shared = lineitem.column(name).unwrap().shared_rows();
        assert!(Arc::ptr_eq(shared.rows(), rows), "{name}");
        assert_eq!(shared.known_content_hash(), Some(*hash), "{name}");
    }
}
