//! `MATERIALIZE` and `MATERIALIZE_POSITION` kernels.

use super::{bad_args, emit, input_bitwords, input_i64, input_u32, need_bufs, Produced};
use adamant_device::buffer::{BufferData, BufferId};
use adamant_device::cost::CostClass;
use adamant_device::error::Result;
use adamant_device::kernel::KernelStats;
use adamant_device::pool::BufferPool;

/// A word with at least this many bits set is copied run by run, a sparser
/// one bit by bit: a run costs about what eight single bits do, and a word
/// with `z` clear bits has at most `z + 1` runs.
const DENSE_BITS: u32 = 56;

/// Body of `materialize`: the values whose bit is set. The bitmap must
/// cover at least `values.len()` rows (trailing bits are ignored).
///
/// The output is sized once, from the population count of the covering
/// words, and the last word is masked once, not tested per bit. A dense
/// word (Q1 keeps 98 % of its rows) is copied as runs of consecutive set
/// bits, so a full one is a single 64-value slice copy; a sparser word is
/// walked bit by bit.
pub(crate) fn materialize_body(k: &str, values: &[i64], words: &[u64]) -> Result<Produced> {
    let n = values.len();
    if words.len() * 64 < n {
        return Err(bad_args(
            k,
            format!("bitmap covers {} rows, values have {n}", words.len() * 64),
        ));
    }
    // Only the last block can be short; its mask drops the bits past it.
    let selected = |block: &[i64], word: u64| match block.len() {
        64 => word,
        short => word & ((1 << short) - 1),
    };
    let (whole, tail) = values.as_chunks::<64>();
    // A plain sum over the whole words vectorises; the last word is masked.
    let whole_ones: usize = words[..whole.len()]
        .iter()
        .map(|word| word.count_ones() as usize)
        .sum();
    let last = words.get(whole.len());
    let tail_ones = last.map_or(0, |&word| selected(tail, word).count_ones() as usize);
    let mut out = Vec::with_capacity(whole_ones + tail_ones);
    // Zipping with the 64-value blocks drops the words past the last row.
    for (block, &word) in values.chunks(64).zip(words) {
        let mut bits = selected(block, word);
        if bits.count_ones() >= DENSE_BITS {
            while bits != 0 {
                let start = bits.trailing_zeros() as usize;
                let run = (!(bits >> start)).trailing_zeros() as usize;
                out.extend_from_slice(&block[start..start + run]);
                bits &= !(u64::MAX >> (64 - run) << start);
            }
        } else {
            while bits != 0 {
                out.push(block[bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
    }
    Ok((
        BufferData::I64(out),
        (CostClass::MaterializeBitmap, n as u64),
    ))
}

/// `materialize` — extracts the values selected by a bitmap.
///
/// Buffers `[values, bitmap, out]`. On SIMT devices the cost model charges
/// the bit-extraction penalty (paper Fig. 9b).
pub fn materialize(
    pool: &mut BufferPool,
    bufs: &[BufferId],
    _params: &[i64],
) -> Result<KernelStats> {
    const K: &str = "materialize";
    need_bufs(K, bufs, 3)?;
    let values = input_i64(pool, K, bufs[0])?;
    let words = input_bitwords(pool, K, bufs[1])?;
    let produced = materialize_body(K, values, words)?;
    emit(pool, bufs[2], produced)
}

/// Body of `materialize_position`: the values at the given positions, in
/// position order. A position past the values is a typed error.
pub(crate) fn materialize_position_body(
    k: &str,
    values: &[i64],
    positions: &[u32],
) -> Result<Produced> {
    let mut out = Vec::with_capacity(positions.len());
    for &pos in positions {
        let pos = pos as usize;
        let Some(&v) = values.get(pos) else {
            return Err(bad_args(
                k,
                format!("position {pos} out of bounds for {} values", values.len()),
            ));
        };
        out.push(v);
    }
    Ok((
        BufferData::I64(out),
        (CostClass::MaterializePosition, positions.len() as u64),
    ))
}

/// `materialize_position` — gathers values at the given positions.
///
/// Buffers `[values, positions, out]`.
pub fn materialize_position(
    pool: &mut BufferPool,
    bufs: &[BufferId],
    _params: &[i64],
) -> Result<KernelStats> {
    const K: &str = "materialize_position";
    need_bufs(K, bufs, 3)?;
    let values = input_i64(pool, K, bufs[0])?;
    let positions = input_u32(pool, K, bufs[1])?;
    let produced = materialize_position_body(K, values, positions)?;
    emit(pool, bufs[2], produced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::*;

    #[test]
    fn bitmap_materialize() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![10, 20, 30, 40, 50]));
        put(&mut p, 2, BufferData::BitWords(vec![0b10110]));
        out(&mut p, 3);
        let stats = materialize(&mut p, &[b(1), b(2), b(3)], &[]).unwrap();
        assert_eq!(stats.elements, 5);
        assert_eq!(read_i64(&p, 3), vec![20, 30, 50]);
    }

    #[test]
    fn bitmap_trailing_bits_ignored() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1, 2]));
        // Bitmap word has bits set beyond row 1.
        put(&mut p, 2, BufferData::BitWords(vec![u64::MAX]));
        out(&mut p, 3);
        materialize(&mut p, &[b(1), b(2), b(3)], &[]).unwrap();
        assert_eq!(read_i64(&p, 3), vec![1, 2]);
    }

    #[test]
    fn bitmap_too_short_rejected() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![0; 100]));
        put(&mut p, 2, BufferData::BitWords(vec![0])); // 64 < 100
        out(&mut p, 3);
        assert!(materialize(&mut p, &[b(1), b(2), b(3)], &[]).is_err());
    }

    #[test]
    fn position_materialize() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![10, 20, 30, 40]));
        put(&mut p, 2, BufferData::U32(vec![3, 0, 3]));
        out(&mut p, 3);
        let stats = materialize_position(&mut p, &[b(1), b(2), b(3)], &[]).unwrap();
        assert_eq!(stats.elements, 3);
        assert_eq!(read_i64(&p, 3), vec![40, 10, 40]);
    }

    #[test]
    fn position_out_of_bounds() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![10]));
        put(&mut p, 2, BufferData::U32(vec![5]));
        out(&mut p, 3);
        assert!(materialize_position(&mut p, &[b(1), b(2), b(3)], &[]).is_err());
    }

    #[test]
    fn empty_selection() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1, 2, 3]));
        put(&mut p, 2, BufferData::BitWords(vec![0]));
        out(&mut p, 3);
        materialize(&mut p, &[b(1), b(2), b(3)], &[]).unwrap();
        assert!(read_i64(&p, 3).is_empty());
    }
}
