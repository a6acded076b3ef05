//! Support shared by the integration suites: the seed-sharding convention,
//! the chunk-streaming model list, the TPC-H reference check and the
//! zero-leak invariant.

use adamant::prelude::*;

/// The chunk-streaming execution models — everything but operator-at-a-time,
/// which has no chunk loop to resume, hedge or back off.
pub const CHUNKED_MODELS: [ExecutionModel; 4] = [
    ExecutionModel::Chunked,
    ExecutionModel::Pipelined,
    ExecutionModel::FourPhaseChunked,
    ExecutionModel::FourPhasePipelined,
];

/// The seeds a soak sweeps: the single one in `env_var` when it is set (CI
/// shards each suite by seed), `defaults` otherwise.
pub fn seeds(env_var: &str, defaults: &[u64]) -> Vec<u64> {
    match std::env::var(env_var) {
        Ok(s) => vec![s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{env_var} must be an unsigned integer"))],
        Err(_) => defaults.to_vec(),
    }
}

/// Asserts that `out`, a run of TPC-H query `q` over `catalog`, decodes to
/// exactly the host reference's result (`adamant::tpch::reference`).
pub fn assert_matches_reference(q: TpchQuery, catalog: &Catalog, out: &QueryOutput, ctx: &str) {
    use adamant::tpch::{queries, reference};
    let msg = format!("{ctx}: result differs from the reference");
    match q {
        TpchQuery::Q1 => assert_eq!(
            queries::q1::decode(catalog, out).unwrap(),
            reference::q1(catalog).unwrap(),
            "{msg}"
        ),
        TpchQuery::Q3 => assert_eq!(
            queries::q3::decode(out),
            reference::q3(catalog).unwrap(),
            "{msg}"
        ),
        TpchQuery::Q4 => assert_eq!(
            queries::q4::decode(catalog, out).unwrap(),
            reference::q4(catalog).unwrap(),
            "{msg}"
        ),
        TpchQuery::Q6 => assert_eq!(
            queries::q6::decode(out),
            reference::q6(catalog).unwrap(),
            "{msg}"
        ),
        TpchQuery::Q10 => assert_eq!(
            queries::q10::decode(out),
            reference::q10(catalog).unwrap(),
            "{msg}"
        ),
        TpchQuery::Q12 => assert_eq!(
            queries::q12::decode(catalog, out).unwrap(),
            reference::q12(catalog).unwrap(),
            "{msg}"
        ),
        TpchQuery::Q14 => assert_eq!(
            queries::q14::decode(out),
            reference::q14(catalog).unwrap(),
            "{msg}"
        ),
    }
}

/// Zero-leak check over the devices *still plugged in* (a device that died
/// mid-query has been removed from the registry). Dropping the residency
/// cache first means any surviving bytes are genuine leaks — pool, pinned
/// pool or admission ledger — including anything a checkpoint capture or a
/// resume left behind.
pub fn assert_no_leaks(engine: &mut Adamant, context: &str) {
    engine.executor_mut().clear_residency();
    for d in engine.device_ids() {
        let dev = engine.executor().devices().get(d).unwrap();
        assert_eq!(dev.pool().used(), 0, "{context}: leaked bytes on {d}");
        assert_eq!(
            dev.pool().pinned_used(),
            0,
            "{context}: leaked pinned bytes on {d}"
        );
        assert_eq!(
            dev.pool().admission_reserved(),
            0,
            "{context}: leaked admission reservation on {d}"
        );
    }
}
