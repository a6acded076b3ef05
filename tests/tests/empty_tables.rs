//! The hand-built TPC-H plans over empty tables: every column of the
//! SF 0.001 catalog emptied, every dictionary kept (so the plans still find
//! their string literals' codes). Every scan streams zero chunks, every
//! hash build is empty, and every probe runs over an empty table and
//! against an empty one. All seven queries, under every execution model, at
//! `chunk_rows` 1 and 900, fused and unfused, must return exactly what the
//! host reference returns over the same tables.

use adamant::prelude::*;
use adamant::storage::column::ColumnData;
use adamant::storage::datatype::DataType;
use adamant_integration_tests::{assert_matches_reference, assert_no_leaks};
use std::sync::Arc;

/// `catalog` with every row removed and every dictionary kept.
fn emptied(catalog: &Catalog) -> Catalog {
    let mut empty = Catalog::new();
    for name in catalog.table_names() {
        let table = catalog.table(name).unwrap();
        let columns = table
            .columns()
            .iter()
            .map(|c| {
                let data = match c.data_type() {
                    DataType::Int32 => ColumnData::Int32(Vec::new()),
                    DataType::Int64 => ColumnData::Int64(Arc::new(Vec::new())),
                    DataType::Date => ColumnData::Date(Vec::new()),
                    DataType::DictStr => ColumnData::DictStr {
                        codes: Vec::new(),
                        dict: c.dictionary().unwrap().to_vec(),
                    },
                };
                Column::new(c.name(), data)
            })
            .collect();
        empty.register(Table::new(name, columns).unwrap());
    }
    empty
}

#[test]
fn every_query_over_empty_tables_matches_the_reference() {
    let catalog = emptied(&TpchGenerator::new(0.001, 13).generate());
    for name in catalog.table_names() {
        assert_eq!(catalog.table(name).unwrap().row_count(), 0, "{name}");
    }
    for chunk_rows in [1, 900] {
        for fusion in [true, false] {
            let mut engine = Adamant::builder()
                .chunk_rows(chunk_rows)
                .fusion(fusion)
                .device(DeviceProfile::cuda_rtx2080ti())
                .build()
                .unwrap();
            let dev = engine.device_ids()[0];
            for q in TpchQuery::ALL {
                let graph = q.plan(dev, &catalog).unwrap();
                let inputs = q.bind(&catalog).unwrap();
                for model in ExecutionModel::ALL {
                    let ctx = format!("{q}/{model}/chunk_rows {chunk_rows}/fusion {fusion}");
                    let (out, _) = engine
                        .run(&graph, &inputs, model)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_matches_reference(q, &catalog, &out, &ctx);
                }
            }
            assert_no_leaks(
                &mut engine,
                &format!("chunk_rows {chunk_rows}, fusion {fusion}"),
            );
        }
    }
}

/// Every hand-built plan's output, printed whole, under every execution
/// model, fused and unfused, at `chunk_rows` 900, over the SF 0.001 catalog
/// and over it emptied, folded into one hash. A change to how outputs are
/// accumulated, gathered or represented must leave the value untouched.
#[test]
fn outputs_are_pinned() {
    use adamant::storage::fnv::FnvHasher;
    use std::hash::Hasher;

    let full = TpchGenerator::new(0.001, 13).generate();
    let empty = emptied(&full);
    let mut h = FnvHasher::default();
    let mut bytes = 0;
    for catalog in [&full, &empty] {
        for fusion in [true, false] {
            let mut engine = Adamant::builder()
                .chunk_rows(900)
                .fusion(fusion)
                .device(DeviceProfile::cuda_rtx2080ti())
                .build()
                .unwrap();
            let dev = engine.device_ids()[0];
            for q in TpchQuery::ALL {
                let graph = q.plan(dev, catalog).unwrap();
                let inputs = q.bind(catalog).unwrap();
                for model in ExecutionModel::ALL {
                    let (out, _) = engine.run(&graph, &inputs, model).unwrap();
                    let line = format!("{q}/{model}/{fusion}: {out:?}\n");
                    bytes += line.len();
                    h.write(line.as_bytes());
                }
            }
        }
    }
    assert_eq!((h.finish(), bytes), (5_735_428_950_001_360_603, 27_602));
}
