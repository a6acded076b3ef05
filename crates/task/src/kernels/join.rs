//! `HASH_BUILD`, `HASH_PROBE` and `HASH_PROBE_SEMI` kernels.

use super::filter::pack_words;
use super::{
    bad_args, count_param, count_sum, input_i64, need_bufs, with_taken, write_output, Produced,
    StageCost,
};
use crate::hashtable::JoinHashTable;
use adamant_device::buffer::{Buffer, BufferData, BufferId};
use adamant_device::cost::CostClass;
use adamant_device::error::Result;
use adamant_device::kernel::KernelStats;
use adamant_device::pool::BufferPool;

/// Borrows the [`JoinHashTable`] a probe's table operand must hold.
pub(crate) fn join_table<'d>(k: &str, data: &'d BufferData) -> Result<&'d JoinHashTable> {
    let held = data.as_generic::<JoinHashTable>();
    held.ok_or_else(|| bad_args(k, "table buffer does not hold a JoinHashTable"))
}

/// Mutably borrows the [`JoinHashTable`] a build's table buffer must hold.
pub(crate) fn join_table_mut<'b>(k: &str, buf: &'b mut Buffer) -> Result<&'b mut JoinHashTable> {
    let held = buf.data.as_generic_mut::<JoinHashTable>();
    held.ok_or_else(|| bad_args(k, "table buffer does not hold a JoinHashTable"))
}

/// Body of `hash_build`: inserts one block of rows into `table`, straight
/// from the column slices. `cols` is `[keys, payload_0..]`, params
/// `[payload_cols]`, and the table must carry that many payload columns. A
/// key column holding the reserved `i64::MIN` is a typed error and leaves
/// the table untouched.
pub(crate) fn hash_build_body(
    k: &str,
    table: &mut JoinHashTable,
    cols: &[&[i64]],
    params: &[i64],
) -> Result<StageCost> {
    let payload_cols = count_param(k, params, 0)?;
    let expected = count_sum(k, &[1, payload_cols])?;
    if cols.len() < expected {
        return Err(bad_args(
            k,
            format!("expected {expected} input columns, got {}", cols.len()),
        ));
    }
    if table.payload_cols() != payload_cols {
        return Err(bad_args(
            k,
            format!(
                "table has {} payload columns, call supplies {payload_cols}",
                table.payload_cols()
            ),
        ));
    }
    let (keys, payloads) = (cols[0], &cols[1..expected]);
    if payloads.iter().any(|col| col.len() != keys.len()) {
        return Err(bad_args(k, "payload length mismatch"));
    }
    table
        .insert_block(keys, payloads)
        .map_err(|reserved| bad_args(k, reserved.to_string()))?;
    Ok((CostClass::HashBuild, keys.len() as u64))
}

/// `hash_build` — streams keys (plus payload columns) into a shared
/// device-resident join table.
///
/// Buffers `[keys, payload_0.., table]`, params `[payload_cols]`. The table
/// buffer must already hold a [`JoinHashTable`] with matching payload
/// column count. Accumulates across chunks (pipeline breaker).
pub fn hash_build(pool: &mut BufferPool, bufs: &[BufferId], params: &[i64]) -> Result<KernelStats> {
    const K: &str = "hash_build";
    let payload_cols = count_param(K, params, 0)?;
    need_bufs(K, bufs, count_sum(K, &[2, payload_cols])?)?;
    let (class, elements) = with_taken(pool, bufs[1 + payload_cols], |pool, table_buf| {
        let cols = bufs[..1 + payload_cols]
            .iter()
            .map(|&id| input_i64(pool, K, id))
            .collect::<Result<Vec<_>>>()?;
        hash_build_body(K, join_table_mut(K, table_buf)?, &cols, params)
    })?;
    Ok(KernelStats::new(elements, class))
}

/// Body of `hash_probe`: for every probe row `i` and every matching build
/// entry, emits `i` (chunk-relative) into the positions and the entry's
/// payload values into the payload columns. Returns `[positions,
/// payload_0..]`; params `[payload_outs]`. Multi-match keys emit one row per
/// match, in the build's insertion order. Each key's chain is walked once
/// and its matches go straight into the outputs, which start with room for
/// one match per key.
pub(crate) fn hash_probe_body(
    k: &str,
    keys: &[i64],
    table: &JoinHashTable,
    params: &[i64],
) -> Result<(Vec<BufferData>, StageCost)> {
    let payload_outs = count_param(k, params, 0)?;
    if table.payload_cols() < payload_outs {
        return Err(bad_args(
            k,
            format!(
                "table has {} payload columns, call requests {payload_outs}",
                table.payload_cols()
            ),
        ));
    }
    let mut probe_pos: Vec<u32> = Vec::with_capacity(keys.len());
    let mut payload_out: Vec<Vec<i64>> = (0..payload_outs)
        .map(|_| Vec::with_capacity(keys.len()))
        .collect();
    for (&key, i) in keys.iter().zip(0u32..) {
        for row in table.matches(key) {
            probe_pos.push(i);
            for (out, &v) in payload_out.iter_mut().zip(row) {
                out.push(v);
            }
        }
    }
    let mut outputs = vec![BufferData::U32(probe_pos)];
    outputs.extend(payload_out.into_iter().map(BufferData::I64));
    Ok((outputs, (CostClass::HashProbe, keys.len() as u64)))
}

/// `hash_probe` — inner-join probe.
///
/// Buffers `[keys, table, out_probe_pos, out_payload_0..]`, params
/// `[payload_outs]`.
pub fn hash_probe(pool: &mut BufferPool, bufs: &[BufferId], params: &[i64]) -> Result<KernelStats> {
    const K: &str = "hash_probe";
    let payload_outs = count_param(K, params, 0)?;
    need_bufs(K, bufs, count_sum(K, &[3, payload_outs])?)?;
    let keys = input_i64(pool, K, bufs[0])?;
    let table = join_table(K, &pool.get(bufs[1])?.data)?;
    let (outputs, (class, elements)) = hash_probe_body(K, keys, table, params)?;
    for (&id, data) in bufs[2..].iter().zip(outputs) {
        write_output(pool, id, data)?;
    }
    Ok(KernelStats::new(elements, class))
}

/// Body of `hash_probe_semi`: a bitmap over the probe rows, set where the
/// key is in `table`, through the filters' packing loop.
pub(crate) fn hash_probe_semi_body(keys: &[i64], table: &JoinHashTable) -> Produced {
    let words = pack_words(keys, |key| table.contains(key));
    (
        BufferData::BitWords(words),
        (CostClass::HashProbe, keys.len() as u64),
    )
}

/// `hash_probe_semi` — EXISTS probe producing a bitmap over the probe rows
/// (Q4's subquery).
///
/// Buffers `[keys, table, out_bitmap]`.
pub fn hash_probe_semi(
    pool: &mut BufferPool,
    bufs: &[BufferId],
    _params: &[i64],
) -> Result<KernelStats> {
    const K: &str = "hash_probe_semi";
    need_bufs(K, bufs, 3)?;
    let keys = input_i64(pool, K, bufs[0])?;
    let table = join_table(K, &pool.get(bufs[1])?.data)?;
    let (data, (class, elements)) = hash_probe_semi_body(keys, table);
    write_output(pool, bufs[2], data)?;
    Ok(KernelStats::new(elements, class))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::*;
    use adamant_device::buffer::Buffer;
    use adamant_device::error::DeviceError;
    use adamant_device::sdk::SdkRepr;

    fn put_join_table(p: &mut adamant_device::pool::BufferPool, id: u64, payload_cols: usize) {
        p.insert(
            b(id),
            Buffer {
                data: BufferData::Generic(Box::new(JoinHashTable::with_capacity(16, payload_cols))),
                repr: SdkRepr::HostVec,
                pinned: false,
                reserved_bytes: 0,
            },
        )
        .unwrap();
    }

    #[test]
    fn build_then_probe_inner() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![10, 20, 10]));
        put(&mut p, 2, BufferData::I64(vec![100, 200, 101])); // payload rows
        put_join_table(&mut p, 3, 1);
        let stats = hash_build(&mut p, &[b(1), b(2), b(3)], &[1]).unwrap();
        assert_eq!(stats.elements, 3);

        put(&mut p, 4, BufferData::I64(vec![20, 10, 99]));
        out(&mut p, 5);
        out(&mut p, 6);
        hash_probe(&mut p, &[b(4), b(3), b(5), b(6)], &[1]).unwrap();
        let pos = read_u32(&p, 5);
        let pay = read_i64(&p, 6);
        // Probe row 0 (key 20) -> one match (200); probe row 1 (key 10) ->
        // two matches (100, 101); key 99 -> none.
        assert_eq!(pos.len(), 3);
        assert_eq!(pos[0], 0);
        assert_eq!(&pos[1..], &[1, 1]);
        assert_eq!(pay[0], 200);
        let mut two: Vec<i64> = pay[1..].to_vec();
        two.sort_unstable();
        assert_eq!(two, vec![100, 101]);
    }

    #[test]
    fn build_accumulates_across_chunks() {
        let mut p = pool();
        put_join_table(&mut p, 3, 0);
        put(&mut p, 1, BufferData::I64(vec![1, 2]));
        hash_build(&mut p, &[b(1), b(3)], &[0]).unwrap();
        put(&mut p, 2, BufferData::I64(vec![3]));
        hash_build(&mut p, &[b(2), b(3)], &[0]).unwrap();
        let buf = p.get(b(3)).unwrap();
        let t = buf.data.as_generic::<JoinHashTable>().unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.contains(3));
    }

    #[test]
    fn semi_probe_bitmap() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![5, 6]));
        put_join_table(&mut p, 2, 0);
        hash_build(&mut p, &[b(1), b(2)], &[0]).unwrap();
        put(&mut p, 3, BufferData::I64(vec![6, 7, 5, 5]));
        out(&mut p, 4);
        hash_probe_semi(&mut p, &[b(3), b(2), b(4)], &[]).unwrap();
        assert_eq!(read_words(&p, 4), vec![0b1101]);
    }

    #[test]
    fn errors() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1]));
        put(&mut p, 2, BufferData::I64(vec![9])); // not a table
        out(&mut p, 3);
        assert!(hash_build(&mut p, &[b(1), b(2)], &[0]).is_err());
        assert!(hash_probe(&mut p, &[b(1), b(2), b(3)], &[0]).is_err());
        assert!(hash_probe_semi(&mut p, &[b(1), b(2), b(3)], &[]).is_err());

        // Payload column count mismatch.
        put_join_table(&mut p, 4, 2);
        assert!(hash_build(&mut p, &[b(1), b(4)], &[0]).is_err());
        // Probe requesting more payload outs than the table has.
        out(&mut p, 5);
        assert!(hash_probe(&mut p, &[b(1), b(4), b(3), b(5), b(5)], &[3]).is_err());
        // The reserved key fails the build whole: the rows before it are
        // not inserted either. Probing for it matches nothing.
        put_join_table(&mut p, 6, 0);
        for (id, keys) in [(7, vec![i64::MIN]), (8, vec![7, i64::MIN, 8])] {
            put(&mut p, id, BufferData::I64(keys));
            match hash_build(&mut p, &[b(id), b(6)], &[0]) {
                Err(DeviceError::BadKernelArgs { reason, .. }) => {
                    assert_eq!(reason, "key i64::MIN is reserved")
                }
                other => panic!("{other:?}"),
            }
            let held = &p.get(b(6)).unwrap().data;
            assert!(held.as_generic::<JoinHashTable>().unwrap().is_empty());
        }
        hash_probe(&mut p, &[b(7), b(6), b(3)], &[0]).unwrap();
        assert!(read_u32(&p, 3).is_empty());
        hash_probe_semi(&mut p, &[b(7), b(6), b(3)], &[]).unwrap();
        assert_eq!(read_words(&p, 3), vec![0]);
        // Hostile counts are typed errors, not casts (debug) or wraps (release).
        for count in [-1, i64::MIN, i64::MAX] {
            for kernel in [hash_build, hash_probe] {
                let got = kernel(&mut p, &[b(1), b(4), b(3)], &[count]);
                assert!(
                    matches!(got, Err(DeviceError::BadKernelArgs { .. })),
                    "{count}: {got:?}"
                );
            }
        }
    }
}
