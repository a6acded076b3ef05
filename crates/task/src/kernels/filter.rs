//! `FILTER_BITMAP`, `FILTER_BITMAP_COL` and `FILTER_POSITION` kernels.

use super::{bad_args, emit, input_i64, need_bufs, need_params, Produced};
use crate::params::CmpOp;
use adamant_device::buffer::{BufferData, BufferId};
use adamant_device::cost::CostClass;
use adamant_device::error::Result;
use adamant_device::kernel::KernelStats;
use adamant_device::pool::BufferPool;

fn pack_bits(bools: impl Iterator<Item = bool>, n: usize) -> Vec<u64> {
    let mut words = vec![0u64; n.div_ceil(64)];
    for (i, b) in bools.enumerate() {
        if b {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

/// Decodes the constant-predicate params `[cmp, value, hi]` (`hi` only used
/// by `Between`, optional otherwise).
fn const_predicate(k: &str, params: &[i64]) -> Result<(CmpOp, i64, i64)> {
    need_params(k, params, 2)?;
    let cmp = CmpOp::from_code(params[0]).ok_or_else(|| bad_args(k, "unknown comparison"))?;
    Ok((cmp, params[1], params.get(2).copied().unwrap_or(0)))
}

/// Body of `filter_bitmap`: one bit per input row, packed 64 to a word.
pub(crate) fn filter_bitmap_body(k: &str, input: &[i64], params: &[i64]) -> Result<Produced> {
    let (cmp, v, hi) = const_predicate(k, params)?;
    let n = input.len();
    let words = pack_bits(input.iter().map(|&x| cmp.eval(x, v, hi)), n);
    Ok((
        BufferData::BitWords(words),
        (CostClass::FilterBitmap, n as u64),
    ))
}

/// `filter_bitmap` — constant predicate producing a bit-packed result.
///
/// Buffers `[in, out]`, params `[cmp, value, hi]` (`hi` only used by
/// `Between`).
pub fn filter_bitmap(
    pool: &mut BufferPool,
    bufs: &[BufferId],
    params: &[i64],
) -> Result<KernelStats> {
    const K: &str = "filter_bitmap";
    need_bufs(K, bufs, 2)?;
    let produced = filter_bitmap_body(K, input_i64(pool, K, bufs[0])?, params)?;
    emit(pool, bufs[1], produced)
}

/// `filter_bitmap@branchless` — predication-style variant (no data-dependent
/// branch in the inner loop). Identical results; registered as an
/// alternative implementation for the ablation benches.
pub fn filter_bitmap_branchless(
    pool: &mut BufferPool,
    bufs: &[BufferId],
    params: &[i64],
) -> Result<KernelStats> {
    const K: &str = "filter_bitmap";
    need_bufs(K, bufs, 2)?;
    let (cmp, v, hi) = const_predicate(K, params)?;
    let input = input_i64(pool, K, bufs[0])?;
    let n = input.len();
    let mut words = vec![0u64; n.div_ceil(64)];
    for (w, block) in input.chunks(64).enumerate() {
        let mut word = 0u64;
        for (i, &x) in block.iter().enumerate() {
            // Branch-free accumulate: bool -> 0/1 -> shifted bit.
            word |= (cmp.eval(x, v, hi) as u64) << i;
        }
        words[w] = word;
    }
    let cost = (CostClass::FilterBitmap, n as u64);
    emit(pool, bufs[1], (BufferData::BitWords(words), cost))
}

/// Body of `filter_bitmap_col`: `a[i] cmp b[i]`, bit-packed.
pub(crate) fn filter_bitmap_col_body(
    k: &str,
    a: &[i64],
    b: &[i64],
    params: &[i64],
) -> Result<Produced> {
    need_params(k, params, 1)?;
    let cmp = CmpOp::from_code(params[0]).ok_or_else(|| bad_args(k, "unknown comparison"))?;
    if cmp == CmpOp::Between {
        return Err(bad_args(k, "Between needs a constant"));
    }
    if a.len() != b.len() {
        return Err(bad_args(k, "input length mismatch"));
    }
    let n = a.len();
    let words = pack_bits(a.iter().zip(b).map(|(&x, &y)| cmp.eval(x, y, 0)), n);
    Ok((
        BufferData::BitWords(words),
        (CostClass::FilterBitmap, n as u64),
    ))
}

/// `filter_bitmap_col` — column-column predicate (Q4's
/// `l_commitdate < l_receiptdate`).
///
/// Buffers `[a, b, out]`, params `[cmp]`.
pub fn filter_bitmap_col(
    pool: &mut BufferPool,
    bufs: &[BufferId],
    params: &[i64],
) -> Result<KernelStats> {
    const K: &str = "filter_bitmap_col";
    need_bufs(K, bufs, 3)?;
    let a = input_i64(pool, K, bufs[0])?;
    let b = input_i64(pool, K, bufs[1])?;
    let produced = filter_bitmap_col_body(K, a, b, params)?;
    emit(pool, bufs[2], produced)
}

/// `filter_position` — constant predicate producing a position list.
///
/// Buffers `[in, out]`, params `[cmp, value, hi]`.
pub fn filter_position(
    pool: &mut BufferPool,
    bufs: &[BufferId],
    params: &[i64],
) -> Result<KernelStats> {
    const K: &str = "filter_position";
    need_bufs(K, bufs, 2)?;
    let (cmp, v, hi) = const_predicate(K, params)?;
    let input = input_i64(pool, K, bufs[0])?;
    let n = input.len();
    let positions: Vec<u32> = input
        .iter()
        .enumerate()
        .filter_map(|(i, &x)| cmp.eval(x, v, hi).then_some(i as u32))
        .collect();
    let cost = (CostClass::FilterPosition, n as u64);
    emit(pool, bufs[1], (BufferData::U32(positions), cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::*;

    #[test]
    fn bitmap_filter_lt() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![5, 10, 3, 24, 1]));
        out(&mut p, 2);
        let stats = filter_bitmap(&mut p, &[b(1), b(2)], &[CmpOp::Lt.to_code(), 10, 0]).unwrap();
        assert_eq!(stats.elements, 5);
        let words = read_words(&p, 2);
        assert_eq!(words, vec![0b10101]); // rows 0,2,4
    }

    #[test]
    fn bitmap_filter_between() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![4, 5, 6, 7, 8]));
        out(&mut p, 2);
        filter_bitmap(&mut p, &[b(1), b(2)], &[CmpOp::Between.to_code(), 5, 7]).unwrap();
        assert_eq!(read_words(&p, 2), vec![0b01110]);
    }

    #[test]
    fn branchless_matches_reference() {
        let mut p = pool();
        let data: Vec<i64> = (0..1000).map(|i| (i * 37) % 256).collect();
        put(&mut p, 1, BufferData::I64(data));
        out(&mut p, 2);
        out(&mut p, 3);
        filter_bitmap(&mut p, &[b(1), b(2)], &[CmpOp::Ge.to_code(), 128, 0]).unwrap();
        filter_bitmap_branchless(&mut p, &[b(1), b(3)], &[CmpOp::Ge.to_code(), 128, 0]).unwrap();
        assert_eq!(read_words(&p, 2), read_words(&p, 3));
    }

    #[test]
    fn column_column_filter() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1, 5, 3]));
        put(&mut p, 2, BufferData::I64(vec![2, 4, 3]));
        out(&mut p, 3);
        filter_bitmap_col(&mut p, &[b(1), b(2), b(3)], &[CmpOp::Lt.to_code()]).unwrap();
        assert_eq!(read_words(&p, 3), vec![0b001]);
        // Between is rejected for column-column.
        assert!(
            filter_bitmap_col(&mut p, &[b(1), b(2), b(3)], &[CmpOp::Between.to_code()]).is_err()
        );
    }

    #[test]
    fn position_filter() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![5, 10, 3, 24, 1]));
        out(&mut p, 2);
        let stats = filter_position(&mut p, &[b(1), b(2)], &[CmpOp::Gt.to_code(), 4, 0]).unwrap();
        assert_eq!(stats.elements, 5);
        assert_eq!(read_u32(&p, 2), vec![0, 1, 3]);
    }

    #[test]
    fn empty_input() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![]));
        out(&mut p, 2);
        filter_bitmap(&mut p, &[b(1), b(2)], &[CmpOp::Lt.to_code(), 10, 0]).unwrap();
        assert!(read_words(&p, 2).is_empty());
    }
}
