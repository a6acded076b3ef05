//! Support shared by the integration suites: the seed-sharding convention,
//! the chunk-streaming model list and the zero-leak invariant.

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
