//! `AGG_BLOCK`, `HASH_AGG` and `SORT_AGG` kernels.

use super::{
    bad_args, count_param, count_sum, emit, input_i64, need_bufs, need_params, with_taken,
    write_output, Produced, StageCost,
};
use crate::hashtable::AggHashTable;
use crate::params::{per_agg, AggFunc};
use adamant_device::buffer::{Buffer, BufferData, BufferId};
use adamant_device::cost::CostClass;
use adamant_device::error::Result;
use adamant_device::kernel::KernelStats;
use adamant_device::pool::BufferPool;

/// Body of `agg_block`: folds `input` into the accumulator's current
/// payload `acc` — `[state, rows_seen]`, or anything else on the first call,
/// which starts from the aggregate's identity — and returns the new payload.
pub(crate) fn agg_block_body(
    k: &str,
    input: &[i64],
    acc: &BufferData,
    params: &[i64],
) -> Result<Produced> {
    need_params(k, params, 1)?;
    let agg = AggFunc::from_code(params[0]).ok_or_else(|| bad_args(k, "unknown aggregate"))?;
    let (mut state, mut rows) = match acc.as_i64() {
        Some(v) if v.len() >= 2 => (v[0], v[1]),
        _ => (agg.identity(), 0),
    };
    state = per_agg!(agg, fold => input.iter().fold(state, |acc, &x| fold(acc, x)));
    rows += input.len() as i64;
    Ok((
        BufferData::I64(vec![state, rows]),
        (CostClass::ReduceLike, input.len() as u64),
    ))
}

/// `agg_block` — block-wise reduction into a persistent accumulator.
///
/// Buffers `[in, acc]`, params `[aggfunc]`. The accumulator buffer holds two
/// `i64`s: `[state, rows_seen]`; the first call initializes it with the
/// aggregate's identity. Chunked execution calls this once per chunk and the
/// accumulator carries across calls (the primitive is a pipeline breaker —
/// its output persists in device memory).
pub fn agg_block(pool: &mut BufferPool, bufs: &[BufferId], params: &[i64]) -> Result<KernelStats> {
    const K: &str = "agg_block";
    need_bufs(K, bufs, 2)?;
    let acc = &pool.get(bufs[1])?.data;
    let produced = agg_block_body(K, input_i64(pool, K, bufs[0])?, acc, params)?;
    emit(pool, bufs[1], produced)
}

/// Borrows the [`AggHashTable`] a taken table buffer must hold.
pub(crate) fn agg_table_mut<'b>(k: &str, buf: &'b mut Buffer) -> Result<&'b mut AggHashTable> {
    buf.data
        .as_generic_mut::<AggHashTable>()
        .ok_or_else(|| bad_args(k, "table buffer does not hold an AggHashTable"))
}

/// Body of `hash_agg`: folds one row per key into `table`, a column at a
/// time. `cols` is `[keys, payload_0.., val_0..]`, params
/// `[payload_cols, agg_count]`. A key column holding the reserved
/// `i64::MIN` is a typed error and leaves the table untouched.
pub(crate) fn hash_agg_body(
    k: &str,
    table: &mut AggHashTable,
    cols: &[&[i64]],
    params: &[i64],
) -> Result<StageCost> {
    let payload_cols = count_param(k, params, 0)?;
    let agg_count = count_param(k, params, 1)?;
    let expected = count_sum(k, &[1, payload_cols, agg_count])?;
    if cols.len() < expected {
        return Err(bad_args(
            k,
            format!("expected {expected} input columns, got {}", cols.len()),
        ));
    }
    if table.agg_funcs().len() != agg_count {
        return Err(bad_args(
            k,
            format!(
                "table has {} aggregates, call supplies {agg_count}",
                table.agg_funcs().len()
            ),
        ));
    }
    if table.group_payload_count() != payload_cols {
        return Err(bad_args(
            k,
            format!(
                "table has {} payload columns, call supplies {payload_cols}",
                table.group_payload_count()
            ),
        ));
    }
    let keys = cols[0];
    let (payload_refs, val_refs) = cols[1..expected].split_at(payload_cols);
    if payload_refs.iter().any(|col| col.len() != keys.len()) {
        return Err(bad_args(k, "payload length mismatch"));
    }
    if val_refs.iter().any(|col| col.len() != keys.len()) {
        return Err(bad_args(k, "value length mismatch"));
    }
    table
        .update_block(keys, payload_refs, val_refs)
        .map_err(|reserved| bad_args(k, reserved.to_string()))?;
    let groups = table.group_count() as u64;
    Ok((CostClass::HashAgg { groups }, keys.len() as u64))
}

/// `hash_agg` — group-by aggregation into a shared device-resident table.
///
/// Buffers `[keys, payload_0.., val_0.., table]`, params
/// `[payload_cols, agg_count]`. The table buffer must already hold an
/// [`AggHashTable`] with matching aggregate functions and payload columns
/// (the runtime creates it via `prepare_output_buffer`). Accumulates across
/// chunks.
pub fn hash_agg(pool: &mut BufferPool, bufs: &[BufferId], params: &[i64]) -> Result<KernelStats> {
    const K: &str = "hash_agg";
    need_bufs(K, bufs, 2)?;
    let (&table_id, col_ids) = bufs.split_last().expect("checked above");
    let (class, elements) = with_taken(pool, table_id, |pool, table_buf| {
        let cols = col_ids
            .iter()
            .map(|&id| input_i64(pool, K, id))
            .collect::<Result<Vec<_>>>()?;
        hash_agg_body(K, agg_table_mut(K, table_buf)?, &cols, params)
    })?;
    Ok(KernelStats::new(elements, class))
}

/// `sort_agg` — aggregation over *sorted* keys by run detection.
///
/// Buffers `[keys, vals, out_keys, out_vals]`, params `[aggfunc]`. A
/// full-buffer breaker: the runtime materializes and sorts the pipeline's
/// output before invoking it (the paper pairs it with `PREFIX_SUM` group
/// boundaries; run detection over sorted keys is the equivalent sequential
/// form).
pub fn sort_agg(pool: &mut BufferPool, bufs: &[BufferId], params: &[i64]) -> Result<KernelStats> {
    need_bufs("sort_agg", bufs, 4)?;
    need_params("sort_agg", params, 1)?;
    let agg =
        AggFunc::from_code(params[0]).ok_or_else(|| bad_args("sort_agg", "unknown aggregate"))?;
    let keys = input_i64(pool, "sort_agg", bufs[0])?;
    let vals = input_i64(pool, "sort_agg", bufs[1])?;
    if keys.len() != vals.len() {
        return Err(bad_args("sort_agg", "key/value length mismatch"));
    }
    if keys.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad_args("sort_agg", "input keys are not sorted"));
    }
    let mut out_keys = Vec::new();
    let mut out_vals = Vec::new();
    per_agg!(agg, fold => {
        let mut i = 0;
        while i < keys.len() {
            let key = keys[i];
            let mut state = agg.identity();
            while i < keys.len() && keys[i] == key {
                state = fold(state, vals[i]);
                i += 1;
            }
            out_keys.push(key);
            out_vals.push(state);
        }
    });
    let n = keys.len() as u64;
    write_output(pool, bufs[2], BufferData::I64(out_keys))?;
    write_output(pool, bufs[3], BufferData::I64(out_vals))?;
    Ok(KernelStats::new(n, CostClass::SortAgg))
}

/// `agg_export` — exports an [`AggHashTable`]'s dense columns into numeric
/// buffers so downstream device primitives (e.g. `SORT` for ORDER BY) can
/// consume group-by results without a host round-trip.
///
/// Buffers `[table, out_keys, out_payload_0.., out_state_0..]`, params
/// `[payload_cols, agg_count]`. Extension primitive (documented in
/// DESIGN.md).
pub fn agg_export(pool: &mut BufferPool, bufs: &[BufferId], params: &[i64]) -> Result<KernelStats> {
    let payload_cols = count_param("agg_export", params, 0)?;
    let agg_count = count_param("agg_export", params, 1)?;
    let expected = count_sum("agg_export", &[2, payload_cols, agg_count])?;
    need_bufs("agg_export", bufs, expected)?;
    let (keys, payloads, states) = {
        let table_buf = pool.get(bufs[0])?;
        let table = table_buf
            .data
            .as_generic::<AggHashTable>()
            .ok_or_else(|| bad_args("agg_export", "buffer does not hold an AggHashTable"))?;
        if table.group_payload_count() != payload_cols || table.agg_funcs().len() != agg_count {
            return Err(bad_args(
                "agg_export",
                format!(
                    "table shape ({}, {}) does not match call ({payload_cols}, {agg_count})",
                    table.group_payload_count(),
                    table.agg_funcs().len()
                ),
            ));
        }
        table.export()
    };
    let n = keys.len() as u64;
    write_output(pool, bufs[1], BufferData::I64(keys))?;
    for (i, col) in payloads.into_iter().enumerate() {
        write_output(pool, bufs[2 + i], BufferData::I64(col))?;
    }
    for (i, col) in states.into_iter().enumerate() {
        write_output(pool, bufs[2 + payload_cols + i], BufferData::I64(col))?;
    }
    Ok(KernelStats::new(n, CostClass::MapLike))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::*;
    use adamant_device::buffer::{Buffer, BufferData};
    use adamant_device::error::DeviceError;
    use adamant_device::sdk::SdkRepr;

    type Kernel = fn(&mut BufferPool, &[BufferId], &[i64]) -> Result<KernelStats>;

    fn put_agg_table(
        p: &mut adamant_device::pool::BufferPool,
        id: u64,
        aggs: Vec<AggFunc>,
        pc: usize,
    ) {
        p.insert(
            b(id),
            Buffer {
                data: BufferData::Generic(Box::new(AggHashTable::with_capacity(16, aggs, pc))),
                repr: SdkRepr::HostVec,
                pinned: false,
                reserved_bytes: 0,
            },
        )
        .unwrap();
    }

    #[test]
    fn agg_block_accumulates_across_calls() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1, 2, 3]));
        put(&mut p, 2, BufferData::I64(vec![10, 20]));
        out(&mut p, 3);
        agg_block(&mut p, &[b(1), b(3)], &[AggFunc::Sum.to_code()]).unwrap();
        assert_eq!(read_i64(&p, 3), vec![6, 3]);
        // Second chunk folds into the same accumulator.
        agg_block(&mut p, &[b(2), b(3)], &[AggFunc::Sum.to_code()]).unwrap();
        assert_eq!(read_i64(&p, 3), vec![36, 5]);
    }

    #[test]
    fn agg_block_min_and_count() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![4, -1, 9]));
        out(&mut p, 2);
        agg_block(&mut p, &[b(1), b(2)], &[AggFunc::Min.to_code()]).unwrap();
        assert_eq!(read_i64(&p, 2)[0], -1);
        out(&mut p, 3);
        agg_block(&mut p, &[b(1), b(3)], &[AggFunc::Count.to_code()]).unwrap();
        assert_eq!(read_i64(&p, 3), vec![3, 3]);
    }

    #[test]
    fn hash_agg_groups_and_accumulates() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1, 2, 1, 2, 1]));
        put(&mut p, 2, BufferData::I64(vec![10, 20, 30, 40, 50]));
        put_agg_table(&mut p, 3, vec![AggFunc::Sum], 0);
        let stats = hash_agg(&mut p, &[b(1), b(2), b(3)], &[0, 1]).unwrap();
        assert!(matches!(stats.cost_class, CostClass::HashAgg { groups: 2 }));

        // Second chunk accumulates into the same table.
        put(&mut p, 4, BufferData::I64(vec![3, 1]));
        put(&mut p, 5, BufferData::I64(vec![100, 1]));
        hash_agg(&mut p, &[b(4), b(5), b(3)], &[0, 1]).unwrap();

        let buf = p.get(b(3)).unwrap();
        let table = buf.data.as_generic::<AggHashTable>().unwrap();
        assert_eq!(table.group_count(), 3);
        let (keys, _, states) = table.export();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(states[0], vec![91, 60, 100]);
    }

    #[test]
    fn hash_agg_with_payload_and_multi_agg() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![7, 7, 8]));
        put(&mut p, 2, BufferData::I64(vec![70, 70, 80])); // payload
        put(&mut p, 3, BufferData::I64(vec![1, 2, 3])); // sum vals
        put(&mut p, 4, BufferData::I64(vec![0, 0, 0])); // count vals
        put_agg_table(&mut p, 5, vec![AggFunc::Sum, AggFunc::Count], 1);
        hash_agg(&mut p, &[b(1), b(2), b(3), b(4), b(5)], &[1, 2]).unwrap();
        let buf = p.get(b(5)).unwrap();
        let t = buf.data.as_generic::<AggHashTable>().unwrap();
        let (keys, payloads, states) = t.export();
        assert_eq!(keys, vec![7, 8]);
        assert_eq!(payloads[0], vec![70, 80]);
        assert_eq!(states[0], vec![3, 3]);
        assert_eq!(states[1], vec![2, 1]);
    }

    #[test]
    fn hash_agg_rejects_bad_table() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1]));
        put(&mut p, 2, BufferData::I64(vec![1]));
        put(&mut p, 3, BufferData::I64(vec![0])); // not a table
        assert!(hash_agg(&mut p, &[b(1), b(2), b(3)], &[0, 1]).is_err());
        // Agg count mismatch.
        put_agg_table(&mut p, 4, vec![AggFunc::Sum, AggFunc::Count], 0);
        assert!(hash_agg(&mut p, &[b(1), b(2), b(4)], &[0, 1]).is_err());
        // Hostile counts are typed errors, not casts (debug) or wraps (release).
        for params in [[-1, 0], [0, -1], [i64::MAX, i64::MAX], [i64::MIN, 2]] {
            for (kernel, bufs) in [
                (hash_agg as Kernel, [b(1), b(2), b(4)]),
                (agg_export, [b(4), b(1), b(2)]),
            ] {
                let got = kernel(&mut p, &bufs, &params);
                assert!(
                    matches!(got, Err(DeviceError::BadKernelArgs { .. })),
                    "{params:?}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn sort_agg_runs() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1, 1, 2, 5, 5, 5]));
        put(&mut p, 2, BufferData::I64(vec![10, 20, 30, 1, 2, 3]));
        out(&mut p, 3);
        out(&mut p, 4);
        sort_agg(&mut p, &[b(1), b(2), b(3), b(4)], &[AggFunc::Sum.to_code()]).unwrap();
        assert_eq!(read_i64(&p, 3), vec![1, 2, 5]);
        assert_eq!(read_i64(&p, 4), vec![30, 30, 6]);
    }

    #[test]
    fn sort_agg_rejects_unsorted() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![2, 1]));
        put(&mut p, 2, BufferData::I64(vec![0, 0]));
        out(&mut p, 3);
        out(&mut p, 4);
        assert!(sort_agg(&mut p, &[b(1), b(2), b(3), b(4)], &[0]).is_err());
    }
}
