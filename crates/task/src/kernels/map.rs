//! `MAP` and `BITMAP_OP` kernels.

use super::{bad_args, emit, input_bitwords, input_i64, need_bufs, need_params, Produced};
use crate::params::{per_map_op, BitmapOp, MapOp};
use adamant_device::buffer::{BufferData, BufferId};
use adamant_device::cost::CostClass;
use adamant_device::error::Result;
use adamant_device::kernel::KernelStats;
use adamant_device::pool::BufferPool;

/// The right-hand side of a decoded `MAP`: a constant or a second column.
enum Rhs<'a> {
    Const(i64),
    Col(&'a [i64]),
}

/// Decodes `[opcode {, constant}]` against the operands the caller was
/// given: `*Const` ops read the constant param, binary ops need the second
/// column `b`, of `a`'s length.
fn map_args<'a>(
    k: &str,
    a: &[i64],
    b: Option<&'a [i64]>,
    params: &[i64],
) -> Result<(MapOp, Rhs<'a>)> {
    need_params(k, params, 1)?;
    let op = MapOp::from_code(params[0]).ok_or_else(|| bad_args(k, "unknown opcode"))?;
    if op.is_const() {
        need_params(k, params, 2)?;
        return Ok((op, Rhs::Const(params[1])));
    }
    let b = b.ok_or_else(|| bad_args(k, "binary op needs two input columns"))?;
    if a.len() != b.len() {
        return Err(bad_args(
            k,
            format!("input length mismatch: {} vs {}", a.len(), b.len()),
        ));
    }
    Ok((op, Rhs::Col(b)))
}

impl Rhs<'_> {
    /// The right-hand side of rows `rows` alone.
    fn rows(&self, rows: std::ops::Range<usize>) -> Rhs<'_> {
        match *self {
            Rhs::Const(c) => Rhs::Const(c),
            Rhs::Col(b) => Rhs::Col(&b[rows]),
        }
    }
}

/// The one element-wise loop: appends `op(a[i], rhs[i])` to `out`.
fn apply_onto(out: &mut Vec<i64>, op: MapOp, a: &[i64], rhs: Rhs<'_>) {
    per_map_op!(op, f => match rhs {
        Rhs::Const(c) => out.extend(a.iter().map(|&x| f(x, c))),
        Rhs::Col(b) => out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y))),
    })
}

/// `op` over `a` and its right-hand side, `block` rows per pass of the loop.
fn map_in_blocks(
    k: &str,
    a: &[i64],
    b: Option<&[i64]>,
    params: &[i64],
    block: usize,
) -> Result<Produced> {
    let (op, rhs) = map_args(k, a, b, params)?;
    let mut out = Vec::with_capacity(a.len());
    for start in (0..a.len()).step_by(block) {
        let rows = start..a.len().min(start.saturating_add(block));
        apply_onto(&mut out, op, &a[rows.clone()], rhs.rows(rows));
    }
    let n = out.len() as u64;
    Ok((BufferData::I64(out), (CostClass::MapLike, n)))
}

/// Body of `map`: element-wise `op(a, constant)` or `op(a, b)`, the whole
/// input in one pass.
pub(crate) fn map_body(k: &str, a: &[i64], b: Option<&[i64]>, params: &[i64]) -> Result<Produced> {
    map_in_blocks(k, a, b, params, usize::MAX)
}

/// Signature of `map`'s body and its variants' bodies.
type MapBody = fn(&str, &[i64], Option<&[i64]>, &[i64]) -> Result<Produced>;

/// Shared wrapper of `map` and its variants: resolves buffers
/// `[a {, b}, out]` — the second input only when one was passed — runs
/// `body` and stores its result in the last buffer.
fn run_map(
    pool: &mut BufferPool,
    bufs: &[BufferId],
    params: &[i64],
    body: MapBody,
) -> Result<KernelStats> {
    need_bufs("map", bufs, 2)?;
    let a = input_i64(pool, "map", bufs[0])?;
    let b = match bufs.len() {
        2 => None,
        _ => Some(input_i64(pool, "map", bufs[1])?),
    };
    let produced = body("map", a, b, params)?;
    emit(pool, bufs[bufs.len() - 1], produced)
}

/// `map` — element-wise arithmetic.
///
/// * const ops: buffers `[in, out]`, params `[opcode, constant]`
/// * binary ops: buffers `[a, b, out]`, params `[opcode]`
pub fn map(pool: &mut BufferPool, bufs: &[BufferId], params: &[i64]) -> Result<KernelStats> {
    run_map(pool, bufs, params, map_body)
}

/// `map@blocked` — a variant of `map` that runs the same loop over the
/// input in cache-sized blocks. Results are identical; it exists to
/// demonstrate (and test) that the task layer carries multiple
/// implementations of one primitive side by side (paper §III-B1).
pub fn map_blocked(
    pool: &mut BufferPool,
    bufs: &[BufferId],
    params: &[i64],
) -> Result<KernelStats> {
    run_map(pool, bufs, params, map_blocked_body)
}

fn map_blocked_body(k: &str, a: &[i64], b: Option<&[i64]>, params: &[i64]) -> Result<Produced> {
    map_in_blocks(k, a, b, params, 4096)
}

/// Body of `bitmap_op`: combines two bitmaps word-wise.
pub(crate) fn bitmap_op_body(k: &str, a: &[u64], b: &[u64], params: &[i64]) -> Result<Produced> {
    need_params(k, params, 1)?;
    let op = BitmapOp::from_code(params[0]).ok_or_else(|| bad_args(k, "unknown opcode"))?;
    if a.len() != b.len() {
        return Err(bad_args(
            k,
            format!("word count mismatch: {} vs {}", a.len(), b.len()),
        ));
    }
    let out: Vec<u64> = a.iter().zip(b).map(|(&x, &y)| op.apply(x, y)).collect();
    let n = out.len() as u64;
    Ok((BufferData::BitWords(out), (CostClass::MapLike, n)))
}

/// `bitmap_op` — combines two filter bitmaps word-wise.
///
/// Buffers `[a, b, out]`, params `[opcode]`.
pub fn bitmap_op(pool: &mut BufferPool, bufs: &[BufferId], params: &[i64]) -> Result<KernelStats> {
    const K: &str = "bitmap_op";
    need_bufs(K, bufs, 3)?;
    let a = input_bitwords(pool, K, bufs[0])?;
    let b = input_bitwords(pool, K, bufs[1])?;
    let produced = bitmap_op_body(K, a, b, params)?;
    emit(pool, bufs[2], produced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::*;

    #[test]
    fn map_const() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1, 2, 3]));
        out(&mut p, 2);
        let stats = map(&mut p, &[b(1), b(2)], &[MapOp::MulConst.to_code(), 10]).unwrap();
        assert_eq!(stats.elements, 3);
        assert_eq!(read_i64(&p, 2), vec![10, 20, 30]);
    }

    #[test]
    fn map_binary() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![10, 20, 30]));
        put(&mut p, 2, BufferData::I64(vec![1, 2, 3]));
        out(&mut p, 3);
        map(&mut p, &[b(1), b(2), b(3)], &[MapOp::Sub.to_code()]).unwrap();
        assert_eq!(read_i64(&p, 3), vec![9, 18, 27]);
    }

    #[test]
    fn map_rsub_for_discount() {
        // (1 - discount) in fixed point: 100 - disc.
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![6, 0, 10]));
        out(&mut p, 2);
        map(&mut p, &[b(1), b(2)], &[MapOp::RsubConst.to_code(), 100]).unwrap();
        assert_eq!(read_i64(&p, 2), vec![94, 100, 90]);
    }

    #[test]
    fn map_errors() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1]));
        put(&mut p, 2, BufferData::I64(vec![1, 2]));
        out(&mut p, 3);
        assert!(map(&mut p, &[b(1), b(2), b(3)], &[MapOp::Add.to_code()]).is_err());
        assert!(map(&mut p, &[b(1), b(3)], &[999]).is_err());
        assert!(map(&mut p, &[b(1), b(3)], &[]).is_err());
        // Const op without the constant param.
        assert!(map(&mut p, &[b(1), b(3)], &[MapOp::AddConst.to_code()]).is_err());
    }

    #[test]
    fn blocked_variant_matches_reference() {
        let mut p = pool();
        let input: Vec<i64> = (0..10_000).collect();
        put(&mut p, 1, BufferData::I64(input.clone()));
        out(&mut p, 2);
        out(&mut p, 3);
        map(&mut p, &[b(1), b(2)], &[MapOp::AddConst.to_code(), 7]).unwrap();
        map_blocked(&mut p, &[b(1), b(3)], &[MapOp::AddConst.to_code(), 7]).unwrap();
        assert_eq!(read_i64(&p, 2), read_i64(&p, 3));
    }

    #[test]
    fn bitmap_and() {
        let mut p = pool();
        put(&mut p, 1, BufferData::BitWords(vec![0b1100, u64::MAX]));
        put(&mut p, 2, BufferData::BitWords(vec![0b1010, 0]));
        out(&mut p, 3);
        bitmap_op(&mut p, &[b(1), b(2), b(3)], &[BitmapOp::And.to_code()]).unwrap();
        assert_eq!(read_words(&p, 3), vec![0b1000, 0]);
    }

    #[test]
    fn bitmap_op_rejects_mismatch() {
        let mut p = pool();
        put(&mut p, 1, BufferData::BitWords(vec![1]));
        put(&mut p, 2, BufferData::BitWords(vec![1, 2]));
        out(&mut p, 3);
        assert!(bitmap_op(&mut p, &[b(1), b(2), b(3)], &[0]).is_err());
        // Wrong payload kind.
        put(&mut p, 4, BufferData::I64(vec![1]));
        assert!(bitmap_op(&mut p, &[b(4), b(2), b(3)], &[0]).is_err());
    }
}
