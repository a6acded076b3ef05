//! Isolated probes: a layer's public function replayed over the workload's
//! own columns, graphs and texts at its chunk size, on a fresh device, so
//! that one layer's host cost is known apart from the composition the
//! rounds measure (Eiger's discipline: per-operator cost in isolation *and*
//! composed).

use crate::summary::median;
use crate::workload::{ProbeSet, CHUNK_ROWS};
use adamant::core::fusion::fuse_graph;
use adamant::core::hub::DataTransferHub;
use adamant::core::pipeline::PipelineSet;
use adamant::device::registry::DeviceRegistry;
use adamant::prelude::*;
use adamant::sql::lexer;
use adamant::task::container::DataContainer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-probe floor and ceiling on samples; between them a probe samples
/// until its budget of wall time is spent.
const MIN_SAMPLES: usize = 9;
const MAX_SAMPLES: usize = 4000;

/// Median wall ns of `f` alone; `prep` runs before every sample, untimed,
/// and hands `f` its input. Both work on `state`, so a probe can reset a
/// device between samples without sharing it across two closures.
fn sample<S, T>(
    budget: Duration,
    state: &mut S,
    mut prep: impl FnMut(&mut S) -> T,
    mut f: impl FnMut(&mut S, T),
) -> f64 {
    let started = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < MIN_SAMPLES || (started.elapsed() < budget && ns.len() < MAX_SAMPLES) {
        let x = prep(state);
        let t0 = Instant::now();
        f(state, x);
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    median(&ns)
}

fn err(e: impl std::fmt::Display) -> String {
    format!("probe: {e}")
}

/// A fresh one-GPU registry with the standard kernels installed, a hub, and
/// the first error any probed call returned.
struct Rig {
    devices: DeviceRegistry,
    gpu: DeviceId,
    hub: DataTransferHub,
    failed: Option<String>,
    budget: Duration,
}

impl Rig {
    fn new(budget: Duration) -> Result<Self, String> {
        let tasks = TaskRegistry::with_defaults(&[
            SdkKind::Cuda,
            SdkKind::OpenCl,
            SdkKind::OpenMp,
            SdkKind::Host,
        ]);
        let mut devices = DeviceRegistry::new();
        let mut dev = DeviceProfile::cuda_rtx2080ti().build(devices.peek_next_id());
        tasks.install_on(&mut dev).map_err(err)?;
        let gpu = devices.add(Box::new(dev));
        Ok(Rig {
            devices,
            gpu,
            hub: DataTransferHub::new(),
            failed: None,
            budget,
        })
    }

    fn dev(&mut self) -> &mut Box<dyn Device> {
        self.devices
            .get_mut(self.gpu)
            .expect("the rig's device stays plugged")
    }

    /// Remembers the first failure; probes keep their timing loops free of
    /// early returns and the caller checks once at the end.
    fn note<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) {
        if let (None, Err(e)) = (&self.failed, r) {
            self.failed = Some(err(e));
        }
    }

    /// Frees `ids` and empties the clock's event list.
    fn clear(&mut self, ids: &[BufferId]) {
        for &id in ids {
            let _ = self.dev().delete_memory(id);
        }
        self.dev().clock_mut().reset();
    }

    /// Median ns per row of one kernel launch. `fresh` re-creates the hash
    /// table under `table` before every sample (tables accumulate).
    fn kernel(
        &mut self,
        rows: usize,
        spec: ExecuteSpec,
        fresh: Option<(BufferId, BufferData)>,
    ) -> f64 {
        let ns = sample(
            self.budget,
            self,
            |rig| {
                rig.dev().clock_mut().reset();
                if let Some((table, empty)) = &fresh {
                    let _ = rig.dev().delete_memory(*table);
                    let made = rig.dev().init_structure(*table, empty.clone());
                    rig.note(made);
                }
            },
            |rig, ()| {
                let ran = rig.dev().execute(&spec);
                rig.note(ran);
            },
        );
        ns / rows as f64
    }
}

/// Distinct values among the first chunk of `column`.
fn distinct_in_first_chunk(column: &[i64]) -> usize {
    let mut head = column[..column.len().min(CHUNK_ROWS)].to_vec();
    head.sort_unstable();
    head.dedup();
    head.len()
}

/// Runs every probe over `set`, sampling each for `budget`, and adds one
/// entry per **P** metric to `m`.
pub fn run(
    set: &ProbeSet,
    budget: Duration,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    // The longest column the workload binds, and among equally long ones the
    // most key-like (the plans build and probe on keys; a 11-valued column
    // would measure collision chains instead), with its runner-up as values.
    let mut by_len: Vec<&std::sync::Arc<Vec<i64>>> = set.columns.iter().map(|(_, c)| c).collect();
    by_len.sort_by_cached_key(|c| std::cmp::Reverse((c.len(), distinct_in_first_chunk(c))));
    let big = *by_len.first().ok_or("probe: workload binds no columns")?;
    let second = *by_len.get(1).unwrap_or(&big);
    let chunks: Vec<BufferData> = big
        .chunks(CHUNK_ROWS)
        .map(|c| BufferData::I64(c.to_vec()))
        .collect();
    let bytes = (big.len() * 8) as f64;
    let gbps = |ns: f64| if ns > 0.0 { bytes / ns } else { 0.0 };

    // ---- device: the hash and the copy every uploaded chunk pays for ------
    m.insert(
        "device.checksum_gbps",
        gbps(sample(
            budget,
            &mut (),
            |_| (),
            |_, ()| {
                chunks.iter().for_each(|c| {
                    black_box(c.checksum());
                })
            },
        )),
    );
    let whole = BufferData::I64(big.to_vec());
    m.insert(
        "device.slice_gbps",
        gbps(sample(
            budget,
            &mut (),
            |_| (),
            |_, ()| {
                for off in (0..big.len()).step_by(CHUNK_ROWS) {
                    black_box(whole.slice(off, CHUNK_ROWS.min(big.len() - off)));
                }
            },
        )),
    );

    // ---- hub: verified against raw placement, and verified retrieval ------
    // Both placement probes hand the device its own copy of each chunk, as
    // the executor does, and start from an empty pool and clock.
    let mut rig = Rig::new(budget)?;
    let ids: Vec<BufferId> = (1..=chunks.len() as u64).map(BufferId).collect();
    let raw_ns = sample(
        budget,
        &mut rig,
        |rig| rig.clear(&ids),
        |rig, ()| {
            for (c, &id) in chunks.iter().zip(&ids) {
                let placed = rig.dev().place_data(id, c.clone(), 0);
                rig.note(placed);
            }
        },
    );
    let verified_ns = sample(
        budget,
        &mut rig,
        |rig| rig.clear(&ids),
        |rig, ()| {
            for (c, &id) in chunks.iter().zip(&ids) {
                let placed = rig
                    .hub
                    .place_verified(&mut rig.devices, rig.gpu, id, c.clone(), 0);
                rig.note(placed);
            }
        },
    );
    m.insert("device.place_data_gbps", gbps(raw_ns));
    m.insert("core.hub.place_verified_gbps", gbps(verified_ns));
    m.insert(
        "core.hub.verify_share",
        if verified_ns > 0.0 {
            1.0 - raw_ns / verified_ns
        } else {
            0.0
        },
    );
    // The last placement is still resident: read it back, verified.
    let retrieve_ns = sample(
        budget,
        &mut rig,
        |rig| rig.dev().clock_mut().reset(),
        |rig, ()| {
            for &id in &ids {
                let got = rig
                    .hub
                    .retrieve_verified(&mut rig.devices, rig.gpu, id, None, 0);
                rig.note(black_box(got));
            }
        },
    );
    m.insert("core.hub.retrieve_verified_gbps", gbps(retrieve_ns));
    rig.clear(&ids);

    // ---- residency: one lookup of a pinned column (re-fingerprints it) ----
    let mut cache = ResidencyCache::new(ResidencyConfig::new(1 << 30));
    let pin = cache
        .begin_pin(&mut rig.devices, rig.gpu, big)
        .ok_or("probe: the residency cache refused the pin")?;
    rig.dev()
        .place_data(pin, BufferData::I64(big.to_vec()), 0)
        .map_err(err)?;
    cache.commit_pin(rig.gpu, "probe", big, pin, 0.0);
    let lookup_ns = sample(
        budget,
        &mut rig,
        |_| (),
        |rig, ()| {
            let hit = black_box(cache.lookup(&mut rig.devices, rig.gpu, "probe", big));
            rig.note(hit.ok_or("residency lookup missed its own pin"));
        },
    );
    m.insert("core.residency.lookup_us", lookup_ns / 1e3);
    cache.clear(&mut rig.devices);

    // ---- task: the kernels, one chunk of the workload's columns each ------
    let rows = big.len().min(CHUNK_ROWS);
    let vals: Vec<i64> = second.iter().copied().cycle().take(rows).collect();
    let (k, v, bits, out, table) = (
        BufferId(101),
        BufferId(102),
        BufferId(103),
        BufferId(104),
        BufferId(105),
    );
    rig.dev()
        .place_data(k, BufferData::I64(big[..rows].to_vec()), 0)
        .map_err(err)?;
    rig.dev()
        .place_data(v, BufferData::I64(vals), 0)
        .map_err(err)?;
    rig.dev().prepare_memory(bits, 8).map_err(err)?;
    rig.dev().prepare_memory(out, 8).map_err(err)?;
    let spec = |name: &str, bufs: &[BufferId], params: &[i64]| {
        ExecuteSpec::new(name, bufs.to_vec(), params.to_vec())
    };
    let filter = spec(
        "filter_bitmap",
        &[k, bits],
        &[CmpOp::Lt.to_code(), big[rows / 2], 0],
    );
    m.insert(
        "task.filter_bitmap_ns_per_row",
        rig.kernel(rows, filter, None),
    );
    let map = spec("map", &[k, out], &[MapOp::MulConst.to_code(), 3]);
    m.insert("task.map_ns_per_row", rig.kernel(rows, map, None));
    // `bits` holds the filter's bitmap from the probe above.
    m.insert(
        "task.materialize_ns_per_row",
        rig.kernel(rows, spec("materialize", &[k, bits, out], &[]), None),
    );
    m.insert(
        "task.sort_ns_per_row",
        rig.kernel(rows, spec("sort", &[k, out], &[0]), None),
    );
    let agg_table = DataContainer::agg_table(rows, vec![AggFunc::Sum], 0);
    m.insert(
        "task.hash_agg_ns_per_row",
        rig.kernel(
            rows,
            spec("hash_agg", &[k, v, table], &[0, 1]),
            Some((table, agg_table)),
        ),
    );
    let join_table = DataContainer::join_table(rows, 0);
    m.insert(
        "task.hash_build_ns_per_row",
        rig.kernel(
            rows,
            spec("hash_build", &[k, table], &[0]),
            Some((table, join_table)),
        ),
    );
    // The last build's table is still there: probe it with its own keys.
    m.insert(
        "task.hash_probe_ns_per_row",
        rig.kernel(rows, spec("hash_probe", &[k, table, out], &[0]), None),
    );
    let _ = rig.dev().delete_memory(out);
    rig.dev()
        .init_structure(out, BufferData::I64(Vec::new()))
        .map_err(err)?;
    m.insert(
        "task.agg_block_ns_per_row",
        rig.kernel(
            rows,
            spec("agg_block", &[v, out], &[AggFunc::Sum.to_code()]),
            None,
        ),
    );
    if let Some(e) = rig.failed {
        return Err(e);
    }

    // ---- core.fusion / core.pipeline: per query graph ----------------------
    let (mut fuse_ns, mut split_ns) = (0.0, 0.0);
    for graph in &set.graphs {
        fuse_ns += sample(
            budget,
            &mut (),
            |_| graph.clone(),
            |_, mut g| {
                black_box(fuse_graph(&mut g));
            },
        );
        let mut fused = graph.clone();
        fuse_graph(&mut fused);
        PipelineSet::split(&fused).map_err(err)?;
        split_ns += sample(
            budget,
            &mut (),
            |_| (),
            |_, ()| drop(black_box(PipelineSet::split(&fused))),
        );
    }
    let graphs = set.graphs.len().max(1) as f64;
    m.insert("core.fusion.fuse_us", fuse_ns / graphs / 1e3);
    m.insert("core.pipeline.split_us", split_ns / graphs / 1e3);

    // ---- sql: the lexer alone (the parser calls it internally) -------------
    let mut lex_ns = 0.0;
    for text in &set.sql_texts {
        lexer::lex(text).map_err(err)?;
        lex_ns += sample(
            budget,
            &mut (),
            |_| (),
            |_, ()| drop(black_box(lexer::lex(text))),
        );
    }
    m.insert(
        "sql.lex_us",
        lex_ns / set.sql_texts.len().max(1) as f64 / 1e3,
    );
    Ok(())
}
