//! A transfer never writes the host's rows. Bound columns are uploaded
//! under injected transfer corruption — scripted (`corrupt_on_place`) and
//! seeded (`corrupt_transfer_rate`) — under operator-at-a-time, chunked and
//! 4-phase execution, each with and without the residency cache. Every run
//! must be reference-exact, must have caught at least one corrupted
//! transfer, and must leave every bound column holding exactly the rows it
//! held before, with the content hash its catalog column remembers
//! unchanged: a flipped bit lands on the device's copy, never on the
//! catalog's rows.

use adamant::prelude::*;
use adamant::storage::fnv::{content_hash, Content};
use adamant::storage::SharedRows;
use adamant_integration_tests::{assert_matches_reference, assert_no_leaks};
use std::sync::Arc;

const MODELS: [ExecutionModel; 3] = [
    ExecutionModel::OperatorAtATime,
    ExecutionModel::Chunked,
    ExecutionModel::FourPhaseChunked,
];

/// The corruption plans applied to the only device.
fn fault_plans() -> [(&'static str, FaultPlan); 2] {
    [
        (
            "corrupt-on-place",
            FaultPlan::none()
                .corrupt_on_place(1)
                .corrupt_on_place(2)
                .corrupt_on_place(5),
        ),
        (
            "corrupt-rate",
            FaultPlan::none().with_seed(7).corrupt_transfer_rate(0.25),
        ),
    ]
}

/// The catalog column a binding shares its rows with.
fn catalog_rows<'c>(catalog: &'c Catalog, rows: &Arc<Vec<i64>>) -> &'c SharedRows {
    catalog
        .table_names()
        .into_iter()
        .flat_map(|t| catalog.table(t).unwrap().columns())
        .map(Column::shared_rows)
        .find(|shared| Arc::ptr_eq(shared.rows(), rows))
        .expect("a TPC-H binding shares a catalog column's rows")
}

#[test]
fn corrupted_uploads_never_write_the_bound_rows() {
    let catalog = TpchGenerator::new(0.001, 3).generate();
    for query in [TpchQuery::Q6, TpchQuery::Q3] {
        let inputs = query.bind(&catalog).unwrap();
        let before: Vec<(String, Vec<i64>, u64)> = inputs
            .iter()
            .map(|(name, rows)| {
                let hash = catalog_rows(&catalog, rows).content_hash();
                (name.to_string(), rows.to_vec(), hash)
            })
            .collect();
        for (plan_name, plan) in fault_plans() {
            for model in MODELS {
                for cached in [false, true] {
                    let ctx = format!("{query:?} {plan_name} {model:?} cached={cached}");
                    let mut builder = Adamant::builder()
                        .chunk_rows(500)
                        .device(DeviceProfile::cuda_rtx2080ti())
                        .fault_plan(0, plan.clone())
                        .retry_policy(RetryPolicy { max_attempts: 6 });
                    if cached {
                        builder = builder.residency_cache(ResidencyConfig::new(1 << 30));
                    }
                    let mut engine = builder.build().unwrap();
                    let graph = query.plan(engine.device_ids()[0], &catalog).unwrap();
                    let (out, stats) = engine
                        .run(&graph, &inputs, model)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_matches_reference(query, &catalog, &out, &ctx);
                    assert!(
                        stats.corruption_retransmits >= 1,
                        "{ctx}: no corrupted transfer was caught"
                    );
                    for (name, rows, hash) in &before {
                        let bound = inputs.get(name).unwrap();
                        assert_eq!(**bound, *rows, "{ctx}: `{name}`'s rows were written");
                        let shared = catalog_rows(&catalog, bound);
                        assert_eq!(shared.content_hash(), *hash, "{ctx}: `{name}`");
                        assert_eq!(
                            content_hash(Content::I64(bound)),
                            *hash,
                            "{ctx}: `{name}` no longer hashes to its memo"
                        );
                    }
                    assert_no_leaks(&mut engine, &ctx);
                }
            }
        }
    }
}
