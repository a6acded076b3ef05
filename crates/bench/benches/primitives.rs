//! Wall-clock benchmarks of the primitive kernels themselves (the
//! engine's real speed, complementing the modeled figures).
//!
//! Plain `fn main` harness (`harness = false`): run with
//! `cargo bench --bench primitives`.

use adamant::core::hub::DataTransferHub;
use adamant::core::residency::BoundRange;
use adamant::device::registry::DeviceRegistry;
use adamant::prelude::*;
use adamant::storage::column::SharedRows;
use adamant::storage::datatype::date_to_days;
use adamant::task::container::DataContainer;
use adamant_bench::{bench, random_ints, standard_tasks};

const N: usize = 1 << 20;
const SAMPLES: usize = 10;

fn device() -> adamant::device::sim::SimDevice {
    let mut dev = DeviceProfile::cuda_rtx2080ti().build(DeviceId(0));
    standard_tasks().install_on(&mut dev).unwrap();
    dev
}

fn bench_scan_kernels() {
    let group = "scan_kernels";

    // The workloads' filters run from a few percent (Q6's discount band) to
    // nearly everything (Q1's ship date): a data-dependent branch would show
    // as the 50 % row standing out. Each bitmap then drives a `materialize`.
    for percent in [2, 50, 98] {
        let mut dev = device();
        dev.place_data(BufferId(1), BufferData::I64(random_ints(N, 100, 1)), 0)
            .unwrap();
        dev.prepare_memory(BufferId(2), 8).unwrap();
        bench(
            group,
            &format!("filter_bitmap/{percent}pct"),
            SAMPLES,
            || {
                dev.execute(&ExecuteSpec::new(
                    "filter_bitmap",
                    vec![BufferId(1), BufferId(2)],
                    vec![CmpOp::Lt.to_code(), percent, 0],
                ))
                .unwrap()
            },
        );
        dev.prepare_memory(BufferId(3), 8).unwrap();
        bench(group, &format!("materialize/{percent}pct"), SAMPLES, || {
            dev.execute(&ExecuteSpec::new(
                "materialize",
                vec![BufferId(1), BufferId(2), BufferId(3)],
                vec![],
            ))
            .unwrap()
        });
    }

    {
        let mut dev = device();
        dev.place_data(BufferId(1), BufferData::I64(random_ints(N, 100, 1)), 0)
            .unwrap();
        dev.prepare_memory(BufferId(2), 8).unwrap();
        bench(group, "filter_bitmap@branchless", SAMPLES, || {
            dev.execute(&ExecuteSpec::new(
                "filter_bitmap@branchless",
                vec![BufferId(1), BufferId(2)],
                vec![CmpOp::Lt.to_code(), 50, 0],
            ))
            .unwrap()
        });
    }

    {
        let mut dev = device();
        dev.place_data(BufferId(1), BufferData::I64(random_ints(N, 1000, 2)), 0)
            .unwrap();
        dev.prepare_memory(BufferId(2), 8).unwrap();
        bench(group, "map_mul_const", SAMPLES, || {
            dev.execute(&ExecuteSpec::new(
                "map",
                vec![BufferId(1), BufferId(2)],
                vec![MapOp::MulConst.to_code(), 3],
            ))
            .unwrap()
        });
    }

    {
        let mut dev = device();
        dev.place_data(BufferId(1), BufferData::I64(random_ints(N, 1000, 4)), 0)
            .unwrap();
        dev.init_structure(BufferId(2), BufferData::I64(Vec::new()))
            .unwrap();
        bench(group, "agg_block_sum", SAMPLES, || {
            dev.execute(&ExecuteSpec::new(
                "agg_block",
                vec![BufferId(1), BufferId(2)],
                vec![AggFunc::Sum.to_code()],
            ))
            .unwrap()
        });
    }
}

fn bench_hash_kernels() {
    let group = "hash_kernels";

    for groups in [16usize, 1 << 12, 1 << 18] {
        let mut dev = device();
        dev.place_data(
            BufferId(1),
            BufferData::I64(random_ints(N, groups as i64, 5)),
            0,
        )
        .unwrap();
        dev.place_data(BufferId(2), BufferData::I64(random_ints(N, 1000, 6)), 0)
            .unwrap();
        bench(group, &format!("hash_agg/{groups}"), SAMPLES, || {
            // Fresh table each iteration (accumulating tables grow).
            let _ = dev.delete_memory(BufferId(3));
            dev.init_structure(
                BufferId(3),
                DataContainer::agg_table(groups, vec![AggFunc::Sum], 0),
            )
            .unwrap();
            dev.execute(&ExecuteSpec::new(
                "hash_agg",
                vec![BufferId(1), BufferId(2), BufferId(3)],
                vec![0, 1],
            ))
            .unwrap()
        });
    }

    {
        let mut dev = device();
        dev.place_data(
            BufferId(1),
            BufferData::I64(random_ints(N, i64::MAX / 2, 7)),
            0,
        )
        .unwrap();
        bench(group, "hash_build", SAMPLES, || {
            let _ = dev.delete_memory(BufferId(2));
            dev.init_structure(BufferId(2), DataContainer::join_table(N, 0))
                .unwrap();
            dev.execute(&ExecuteSpec::new(
                "hash_build",
                vec![BufferId(1), BufferId(2)],
                vec![0],
            ))
            .unwrap()
        });
    }

    {
        let mut dev = device();
        dev.place_data(BufferId(1), BufferData::I64(random_ints(N, N as i64, 8)), 0)
            .unwrap();
        dev.init_structure(BufferId(2), DataContainer::join_table(N, 0))
            .unwrap();
        dev.execute(&ExecuteSpec::new(
            "hash_build",
            vec![BufferId(1), BufferId(2)],
            vec![0],
        ))
        .unwrap();
        dev.place_data(BufferId(3), BufferData::I64(random_ints(N, N as i64, 9)), 0)
            .unwrap();
        dev.prepare_memory(BufferId(4), 8).unwrap();
        bench(group, "hash_probe", SAMPLES, || {
            dev.execute(&ExecuteSpec::new(
                "hash_probe",
                vec![BufferId(3), BufferId(2), BufferId(4)],
                vec![0],
            ))
            .unwrap()
        });
    }
}

/// The shapes the TPC-H plans launch, which the uniform-random benches above
/// do not cover: few groups under many aggregates, unique build keys with
/// payload columns, and a build side full of duplicates.
fn bench_workload_shapes() {
    let group = "workload_shapes";
    let ids = |range: std::ops::RangeInclusive<u64>| range.map(BufferId).collect::<Vec<_>>();

    // Q1: 4 groups, 8 aggregates.
    {
        const ROWS: usize = 1 << 18;
        let aggs = [AggFunc::Sum, AggFunc::Count].repeat(4);
        let mut dev = device();
        dev.place_data(BufferId(1), BufferData::I64(random_ints(ROWS, 4, 10)), 0)
            .unwrap();
        for val in 2..=9 {
            let column = BufferData::I64(random_ints(ROWS, 1000, 10 + val));
            dev.place_data(BufferId(val), column, 0).unwrap();
        }
        bench(group, "hash_agg/4groups_8aggs", SAMPLES, || {
            let _ = dev.delete_memory(BufferId(10));
            let table = DataContainer::agg_table(4, aggs.clone(), 0);
            dev.init_structure(BufferId(10), table).unwrap();
            dev.execute(&ExecuteSpec::new("hash_agg", ids(1..=10), vec![0, 8]))
                .unwrap()
        });
    }

    // Q3's orders: 15 k unique keys (8 of every 32, like TPC-H order keys)
    // carrying 2 payload columns, probed by four lineitems per order.
    {
        const ORDERS: i64 = 15_000;
        let order_key = |i: i64| i / 8 * 32 + i % 8;
        let build_keys: Vec<i64> = (0..ORDERS).map(order_key).collect();
        let probe_keys: Vec<i64> = (0..4 * ORDERS).map(|i| order_key(i / 4)).collect();
        let mut dev = device();
        dev.place_data(BufferId(1), BufferData::I64(build_keys), 0)
            .unwrap();
        for payload in 2..=3 {
            let column = BufferData::I64(random_ints(ORDERS as usize, 1 << 20, payload));
            dev.place_data(BufferId(payload), column, 0).unwrap();
        }
        bench(group, "hash_build/15k_unique_2payload", SAMPLES, || {
            let _ = dev.delete_memory(BufferId(4));
            let table = DataContainer::join_table(ORDERS as usize, 2);
            dev.init_structure(BufferId(4), table).unwrap();
            dev.execute(&ExecuteSpec::new("hash_build", ids(1..=4), vec![2]))
                .unwrap()
        });
        // The last build's table is still there.
        dev.place_data(BufferId(5), BufferData::I64(probe_keys), 0)
            .unwrap();
        for out in 6..=8 {
            dev.prepare_memory(BufferId(out), 8).unwrap();
        }
        let probe = [5, 4, 6, 7, 8].map(BufferId).to_vec();
        bench(group, "hash_probe/15k_unique_2payload", SAMPLES, || {
            dev.execute(&ExecuteSpec::new("hash_probe", probe.clone(), vec![2]))
                .unwrap()
        });
    }

    // Q4's semi-join build: every key four times, no payload, into a table
    // whose estimate is short of the rows it receives (the table grows once a run).
    {
        let keys: Vec<i64> = (0..60_000).map(|i| i / 4).collect();
        let mut dev = device();
        dev.place_data(BufferId(1), BufferData::I64(keys), 0)
            .unwrap();
        bench(group, "hash_build/4x_duplicates_0payload", SAMPLES, || {
            let _ = dev.delete_memory(BufferId(2));
            let table = DataContainer::join_table(32_768, 0);
            dev.init_structure(BufferId(2), table).unwrap();
            dev.execute(&ExecuteSpec::new("hash_build", ids(1..=2), vec![0]))
                .unwrap()
        });
    }
}

/// Rows per chunk, as the benchmark package's workloads stream them.
const CHUNK_ROWS: usize = 1 << 13;

/// Q1's `hash_agg` input at SF 0.01, catalog seed 500: the packed
/// `(l_returnflag, l_linestatus)` key of the rows that pass the ship-date
/// filter, and the six aggregated columns (five sums and the count).
fn q1_agg_input() -> (Vec<i64>, Vec<Vec<i64>>) {
    let catalog = TpchGenerator::new(0.01, 500).generate();
    let lineitem = catalog.table("lineitem").unwrap();
    let col = |name: &str| lineitem.column(name).unwrap().to_i64_vec();
    let cutoff = i64::from(date_to_days(1998, 9, 2));
    let kept: Vec<usize> = (col("l_shipdate").iter().enumerate())
        .filter(|&(_, &d)| d <= cutoff)
        .map(|(i, _)| i)
        .collect();
    let pick = |v: Vec<i64>| kept.iter().map(|&i| v[i]).collect::<Vec<i64>>();
    let (flag, status) = (pick(col("l_returnflag")), pick(col("l_linestatus")));
    let key: Vec<i64> = flag.iter().zip(&status).map(|(f, s)| f * 16 + s).collect();
    let [qty, price, disc, tax] =
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax"].map(|c| pick(col(c)));
    let disc_price: Vec<i64> = price
        .iter()
        .zip(&disc)
        .map(|(p, d)| p * (100 - d))
        .collect();
    let charge: Vec<i64> = disc_price
        .iter()
        .zip(&tax)
        .map(|(p, t)| p * (t + 100))
        .collect();
    let vals = vec![qty, price, disc_price, charge, disc, key.clone()];
    (key, vals)
}

/// Q1's aggregation as the executor launches it: one table, fed chunk by
/// chunk. Its key spans 34 values and changes every 2.8 rows, so every
/// launch resolves ids through the dense index; the second row times id
/// resolution alone (no aggregates).
fn bench_q1_hash_agg() {
    let group = "q1_hash_agg";
    let (key, vals) = q1_agg_input();
    let changes = key.windows(2).filter(|w| w[0] != w[1]).count();
    println!(
        "{group}: {} rows, {changes} key changes, {} chunks",
        key.len(),
        key.len().div_ceil(CHUNK_ROWS)
    );
    let aggs = [[AggFunc::Sum; 5].as_slice(), &[AggFunc::Count]].concat();
    for (name, agg_count) in [("6aggs", aggs.len()), ("ids_only", 0)] {
        let mut dev = device();
        let mut launches = Vec::new();
        for (c, start) in (0..key.len()).step_by(CHUNK_ROWS).enumerate() {
            let end = (start + CHUNK_ROWS).min(key.len());
            let first = 100 * (c as u64 + 1);
            let columns = std::iter::once(&key).chain(&vals[..agg_count]);
            let mut bufs = Vec::new();
            for (i, column) in columns.enumerate() {
                let id = BufferId(first + i as u64);
                dev.place_data(id, BufferData::I64(column[start..end].to_vec()), 0)
                    .unwrap();
                bufs.push(id);
            }
            bufs.push(BufferId(1));
            launches.push(ExecuteSpec::new(
                "hash_agg",
                bufs,
                vec![0, agg_count as i64],
            ));
        }
        bench(group, &format!("hash_agg/{name}"), SAMPLES, || {
            let _ = dev.delete_memory(BufferId(1));
            let table = DataContainer::agg_table(8, aggs[..agg_count].to_vec(), 0);
            dev.init_structure(BufferId(1), table).unwrap();
            for spec in &launches {
                dev.execute(spec).unwrap();
            }
        });
    }
}

/// A bound column uploaded chunk by chunk through `place_verified`, into one
/// staging buffer as the executor does. `warm_memo` uploads a kept binding:
/// each chunk reaches the device as a view of the column's rows, nothing is
/// copied, and the sender checksum is folded from the column's warm memo.
/// `bare_slice` uploads the same rows as a slice: each chunk is copied for
/// the device and hashed in the same pass. Both pay the device's echo hash.
fn bench_verified_uploads() {
    let group = "verified_uploads";
    let column = SharedRows::new(random_ints(N, i64::MAX, 11));
    let rows = column.rows().len();
    let mut devices = DeviceRegistry::new();
    let gpu = devices.add(Box::new(device()));
    let mut hub = DataTransferHub::new();
    let staging = BufferId(1);
    let mut upload = |name: &str, from_memo: bool| {
        bench(group, name, SAMPLES, || {
            devices.get_mut(gpu).unwrap().clock_mut().reset();
            for start in (0..rows).step_by(CHUNK_ROWS) {
                let range = start..(start + CHUNK_ROWS).min(rows);
                let placed = if from_memo {
                    let chunk = BoundRange::new(&column, range);
                    hub.place_verified(&mut devices, gpu, staging, chunk, 0)
                } else {
                    let chunk = &column.rows()[range];
                    hub.place_verified(&mut devices, gpu, staging, chunk, 0)
                };
                placed.unwrap();
            }
        });
    };
    upload("place_verified/bare_slice", false);
    upload("place_verified/warm_memo", true);
}

fn main() {
    bench_scan_kernels();
    bench_hash_kernels();
    bench_workload_shapes();
    bench_q1_hash_agg();
    bench_verified_uploads();
}
