//! `FILTER_BITMAP`, `FILTER_BITMAP_COL` and `FILTER_POSITION` kernels.
//!
//! One packing loop (`pack_word`, a word's worth of rows at a time) builds
//! every bitmap the task layer produces, `hash_probe_semi`'s included; the
//! filters differ only in the predicate they hand it. The
//! default kernels pick the comparison *once per launch* (`per_cmp!`: one
//! monomorphic copy of the loop per [`CmpOp`], nothing but a compare in
//! it); the `@branchless` variant hands the same loop the un-hoisted
//! [`CmpOp::eval`] instead, so the two are one loop under two dispatch
//! strategies.

use super::{bad_args, emit, input_i64, need_bufs, need_params, Produced};
use crate::params::{per_cmp, CmpOp};
use adamant_device::buffer::{BufferData, BufferId};
use adamant_device::cost::CostClass;
use adamant_device::error::Result;
use adamant_device::kernel::KernelStats;
use adamant_device::pool::BufferPool;

/// Rows per bitmap word.
const WORD_ROWS: usize = 64;

/// The one bit-packing loop: bit `i` of the result is `pred(block[i])`, for
/// a block of at most [`WORD_ROWS`] rows. The word is built in a register —
/// a byte per eight rows, eight bytes to the word — with no data-dependent
/// branch and no indexing; handed a whole `[T; 64]`, every trip count is a
/// constant and the loops unroll into straight-line compares.
#[inline(always)]
fn pack_word<T: Copy>(block: &[T], pred: impl Fn(T) -> bool) -> u64 {
    let bits = |rows: &[T]| {
        let bit = |(i, &row): (usize, &T)| (pred(row) as u64) << i;
        rows.iter()
            .enumerate()
            .map(bit)
            .fold(0, |byte, bit| byte | bit)
    };
    let (bytes, rest) = block.as_chunks::<8>();
    let byte = |(j, rows): (usize, &[T; 8])| bits(rows) << (8 * j);
    let word = bytes
        .iter()
        .enumerate()
        .map(byte)
        .fold(0, |word, byte| word | byte);
    // `rest` is empty when `bytes` holds a whole word, so the shift is < 64.
    word | bits(rest) << (8 * bytes.len() % WORD_ROWS)
}

/// One bit per row of `rows`, [`WORD_ROWS`] to a word through
/// [`pack_word`]; bits past the last row are zero. Each word is stored once.
#[inline(always)]
pub(crate) fn pack_words<T: Copy>(rows: &[T], pred: impl Fn(T) -> bool) -> Vec<u64> {
    let (full, tail) = rows.as_chunks::<WORD_ROWS>();
    let mut words = Vec::with_capacity(rows.len().div_ceil(WORD_ROWS));
    words.extend(full.iter().map(|block| pack_word(block, &pred)));
    if !tail.is_empty() {
        words.push(pack_word(tail, &pred));
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

fn bitmap_of(words: Vec<u64>, rows: usize) -> Produced {
    (
        BufferData::BitWords(words),
        (CostClass::FilterBitmap, rows as u64),
    )
}

/// Body of `filter_bitmap`: one bit per input row, packed 64 to a word.
pub(crate) fn filter_bitmap_body(k: &str, input: &[i64], params: &[i64]) -> Result<Produced> {
    let (cmp, v, hi) = const_predicate(k, params)?;
    let words = per_cmp!(cmp, pred => pack_words(input, |x| pred(x, v, hi)));
    Ok(bitmap_of(words, input.len()))
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

/// `filter_bitmap@branchless` — the same packing loop as `filter_bitmap`
/// around the un-hoisted [`CmpOp::eval`]: the comparison is dispatched per
/// row instead of per launch. Identical results; registered as an
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
    let words = pack_words(input, |x| cmp.eval(x, v, hi));
    let produced = bitmap_of(words, input.len());
    emit(pool, bufs[1], produced)
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
    // The packer takes one slice: pair the columns up a word's rows at a
    // time, on the stack.
    let blocks = a.chunks(WORD_ROWS).zip(b.chunks(WORD_ROWS));
    let words = per_cmp!(cmp, pred => blocks
        .map(|(a, b)| {
            let mut pairs = [(0, 0); WORD_ROWS];
            for (pair, (&x, &y)) in pairs.iter_mut().zip(a.iter().zip(b)) {
                *pair = (x, y);
            }
            pack_word(&pairs[..a.len()], |(x, y)| pred(x, y, 0))
        })
        .collect());
    Ok(bitmap_of(words, a.len()))
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
    let rows = input.iter().zip(0u32..);
    let positions: Vec<u32> = per_cmp!(cmp, pred => rows
        .filter_map(|(&x, i)| pred(x, v, hi).then_some(i))
        .collect());
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
