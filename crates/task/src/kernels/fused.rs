//! `FUSED` and `FUSED_AGG` — the interpreter kernel behind graph fusion.
//!
//! A fused node carries a flattened stage program in its scalar parameters
//! (wire format and codec: [`crate::program`]); this kernel runs the stages
//! in order, keeping every interior value in kernel-local memory. No
//! interior stage touches the buffer pool — that is the whole point of
//! fusion: the intermediates the unfused graph would have materialized
//! through the hub (bitmaps, probe positions and payloads, gathered and
//! mapped columns) never get a buffer id, never charge the pool and never
//! ride a transfer.
//!
//! The interpreter owns two things only: the stage loop and operand
//! resolution (an external buffer, or one output port of an earlier
//! stage's result — only a hash probe has more than one). It holds no
//! primitive semantics: every stage calls the same slice-level body its
//! standalone kernel calls (`filter::filter_bitmap_body`,
//! `join::hash_probe_body`, `agg::hash_agg_body`, …), so fused and unfused
//! execution are reference-exact by construction, error conditions
//! included. Which kinds may appear, and where, is
//! [`PrimitiveKind::fusion`] — the table the fusion pass built the program
//! from; a `FUSED_AGG` ends in `AGG_BLOCK`, `HASH_AGG` or `HASH_BUILD`,
//! accumulating into the node's last buffer. Per stage, the kernel reports
//! its `(CostClass, elements)` in `KernelStats::stages`, which the device
//! prices through `CostModel::fused_kernel_ns` (one launch, discounted
//! bandwidth-bound bodies, full-price hash and gather bodies), and its
//! widest operand's length in `KernelStats::stage_rows`, which the runtime
//! sizes the elided intermediates by.
//!
//! Registered through the ordinary task-registry defaults — a fused chain is
//! just another primitive to the plug-in interface, so per-SDK variants can
//! override it like any other kernel (Breß et al.'s portability argument).

use super::{
    agg, bad_args, filter, join, map, materialize, need_bufs, with_taken, write_output, StageCost,
};
use crate::hashtable::JoinHashTable;
use crate::primitive::{FusionRole, PrimitiveKind};
use crate::program::{decode, FusedOperand, Stage};
use adamant_device::buffer::{BufferData, BufferId};
use adamant_device::error::Result;
use adamant_device::kernel::KernelStats;
use adamant_device::pool::BufferPool;

const K: &str = "fused";

/// One stage's operand sources: the fused node's external inputs (resolved
/// from the pool) and the earlier stages' results, one payload per output
/// port, in kernel-local memory.
struct Operands<'a> {
    /// The fused node's buffer list minus its trailing output.
    externals: &'a [BufferId],
    results: &'a [Vec<BufferData>],
    stage: &'a Stage,
}

impl<'a> Operands<'a> {
    fn data(&self, pool: &'a BufferPool, i: usize) -> Result<&'a BufferData> {
        let bad = |what: &str| bad_args(K, format!("{} stage: {what} {i}", self.stage.kind));
        match self.stage.operands.get(i) {
            Some(&FusedOperand::External(e)) => match self.externals.get(e) {
                Some(&id) => Ok(&pool.get(id)?.data),
                None => Err(bad("external index out of range in operand")),
            },
            Some(&FusedOperand::Stage(j, port)) => self
                .results
                .get(j)
                .and_then(|ports| ports.get(port))
                .ok_or_else(|| bad("no such earlier stage port for operand")),
            None => Err(bad("missing operand")),
        }
    }

    fn i64(&self, pool: &'a BufferPool, i: usize) -> Result<&'a [i64]> {
        let data = self.data(pool, i)?;
        let need = || bad_args(K, format!("operand {i} is {}, need i64", data.kind()));
        data.as_i64().ok_or_else(need)
    }

    fn bits(&self, pool: &'a BufferPool, i: usize) -> Result<&'a [u64]> {
        let data = self.data(pool, i)?;
        let need = || bad_args(K, format!("operand {i} is {}, need bitwords", data.kind()));
        data.as_bitwords().map(Vec::as_slice).ok_or_else(need)
    }

    fn u32s(&self, pool: &'a BufferPool, i: usize) -> Result<&'a [u32]> {
        let data = self.data(pool, i)?;
        let need = || bad_args(K, format!("operand {i} is {}, need u32", data.kind()));
        data.as_u32().map(Vec::as_slice).ok_or_else(need)
    }

    /// Every operand as `i64`s (a hash build's or aggregation's columns).
    fn columns(&self, pool: &'a BufferPool) -> Result<Vec<&'a [i64]>> {
        (0..self.stage.operands.len())
            .map(|i| self.i64(pool, i))
            .collect()
    }

    fn table(&self, pool: &'a BufferPool, i: usize) -> Result<&'a JoinHashTable> {
        join::join_table(K, self.data(pool, i)?)
    }

    /// The longest operand's length: the row count the runtime sizes an
    /// unfused node's outputs by when it runs over whole buffers.
    fn widest(&self, pool: &'a BufferPool) -> usize {
        (0..self.stage.operands.len())
            .filter_map(|i| self.data(pool, i).ok())
            .map(BufferData::len)
            .max()
            .unwrap_or(0)
    }
}

/// Runs one non-accumulating stage through its primitive's body. Returns
/// one payload per output port.
fn interior(pool: &BufferPool, ops: &Operands<'_>) -> Result<(Vec<BufferData>, StageCost)> {
    let params = &ops.stage.params;
    let (data, cost) = match ops.stage.kind {
        PrimitiveKind::FilterBitmap => filter::filter_bitmap_body(K, ops.i64(pool, 0)?, params)?,
        PrimitiveKind::FilterBitmapCol => {
            filter::filter_bitmap_col_body(K, ops.i64(pool, 0)?, ops.i64(pool, 1)?, params)?
        }
        PrimitiveKind::BitmapOp => {
            map::bitmap_op_body(K, ops.bits(pool, 0)?, ops.bits(pool, 1)?, params)?
        }
        PrimitiveKind::Map => {
            let b = match ops.stage.operands.len() {
                0 | 1 => None,
                _ => Some(ops.i64(pool, 1)?),
            };
            map::map_body(K, ops.i64(pool, 0)?, b, params)?
        }
        PrimitiveKind::Materialize => {
            materialize::materialize_body(K, ops.i64(pool, 0)?, ops.bits(pool, 1)?)?
        }
        PrimitiveKind::MaterializePosition => {
            materialize::materialize_position_body(K, ops.i64(pool, 0)?, ops.u32s(pool, 1)?)?
        }
        PrimitiveKind::HashProbeSemi => {
            join::hash_probe_semi_body(ops.i64(pool, 0)?, ops.table(pool, 1)?)
        }
        PrimitiveKind::HashProbe => {
            return join::hash_probe_body(K, ops.i64(pool, 0)?, ops.table(pool, 1)?, params)
        }
        other => return Err(bad_args(K, format!("no interior body for {other}"))),
    };
    Ok((vec![data], cost))
}

/// Runs the accumulating terminal stage of a `fused_agg` chain into `acc`.
fn terminal(pool: &mut BufferPool, acc: BufferId, ops: &Operands<'_>) -> Result<StageCost> {
    let params = &ops.stage.params;
    match ops.stage.kind {
        PrimitiveKind::AggBlock => {
            let (data, cost) =
                agg::agg_block_body(K, ops.i64(pool, 0)?, &pool.get(acc)?.data, params)?;
            write_output(pool, acc, data)?;
            Ok(cost)
        }
        PrimitiveKind::HashAgg => with_taken(pool, acc, |pool, table_buf| {
            agg::hash_agg_body(
                K,
                agg::agg_table_mut(K, table_buf)?,
                &ops.columns(pool)?,
                params,
            )
        }),
        PrimitiveKind::HashBuild => with_taken(pool, acc, |pool, table_buf| {
            join::hash_build_body(
                K,
                join::join_table_mut(K, table_buf)?,
                &ops.columns(pool)?,
                params,
            )
        }),
        other => Err(bad_args(K, format!("no terminal body for {other}"))),
    }
}

/// Shared driver for both fused kernels. Buffers are
/// `[external_0, .., external_{m-1}, out]` where `out` is per-chunk scratch
/// (`fused`) or the persistent accumulator (`fused_agg`); `last_role` is the
/// role the final stage must have.
fn run_chain(
    pool: &mut BufferPool,
    bufs: &[BufferId],
    params: &[i64],
    last_role: FusionRole,
) -> Result<KernelStats> {
    need_bufs(K, bufs, 2)?;
    let (&out_id, externals) = bufs.split_last().expect("checked above");
    let stages = decode(params)?;
    let mut results: Vec<Vec<BufferData>> = Vec::with_capacity(stages.len());
    let mut stage_stats: Vec<StageCost> = Vec::with_capacity(stages.len());
    let mut stage_rows: Vec<usize> = Vec::with_capacity(stages.len());
    // The last stage reading each result: once it has run, the result is
    // dropped, so a chunk holds only the values some stage still reads.
    let mut last_read: Vec<usize> = vec![0; stages.len()];
    for (si, stage) in stages.iter().enumerate() {
        for &op in &stage.operands {
            if let FusedOperand::Stage(j, _) = op {
                last_read[j] = si;
            }
        }
    }

    for (si, stage) in stages.iter().enumerate() {
        let role = if si + 1 == stages.len() {
            last_role
        } else {
            FusionRole::Interior
        };
        if stage.kind.fusion().map(|(r, _)| r) != Some(role) {
            return Err(bad_args(
                K,
                format!("stage {si} ({}) is not fusible as {role:?}", stage.kind),
            ));
        }
        let ops = Operands {
            externals,
            results: &results,
            stage,
        };
        stage_rows.push(ops.widest(pool));
        stage_stats.push(match role {
            FusionRole::Interior => {
                let (ports, cost) = interior(pool, &ops)?;
                results.push(ports);
                cost
            }
            FusionRole::Terminal => terminal(pool, out_id, &ops)?,
        });
        for &op in &stage.operands {
            if let FusedOperand::Stage(j, _) = op {
                if last_read[j] == si {
                    results[j] = Vec::new();
                }
            }
        }
    }
    if last_role == FusionRole::Interior {
        // The chain's output is its last stage's port 0; the fusion pass
        // never ends a chain on a stage with more than one port.
        let last = results.pop().expect("at least one stage");
        let data = last.into_iter().next().expect("a stage has a port");
        write_output(pool, out_id, data)?;
    }

    let (class, elements) = *stage_stats.last().expect("at least one stage");
    Ok(KernelStats::fused(elements, class, stage_stats, stage_rows))
}

/// `fused` — interprets a non-accumulating fused chain into scratch output.
pub fn fused(pool: &mut BufferPool, bufs: &[BufferId], params: &[i64]) -> Result<KernelStats> {
    run_chain(pool, bufs, params, FusionRole::Interior)
}

/// `fused_agg` — a fused chain terminating in `AGG_BLOCK`, `HASH_AGG` or
/// `HASH_BUILD`; accumulates into the last buffer across chunks like its
/// terminal would.
pub fn fused_agg(pool: &mut BufferPool, bufs: &[BufferId], params: &[i64]) -> Result<KernelStats> {
    run_chain(pool, bufs, params, FusionRole::Terminal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashtable::{AggHashTable, JoinHashTable};
    use crate::kernels::testutil::*;
    use crate::params;
    use crate::program::encode;
    use adamant_device::buffer::Buffer;
    use adamant_device::cost::CostClass;
    use adamant_device::error::DeviceError;
    use adamant_device::sdk::SdkRepr;
    use FusedOperand::{External as Ext, Stage as St};

    /// Encodes `(kind, operands, params)` stages with the real encoder.
    fn prog(stages: &[(PrimitiveKind, &[FusedOperand], &[i64])]) -> Vec<i64> {
        let stages: Vec<Stage> = stages
            .iter()
            .map(|&(kind, operands, params)| Stage {
                kind,
                operands: operands.to_vec(),
                params: params.to_vec(),
            })
            .collect();
        encode(&stages)
    }

    #[test]
    fn filter_map_agg_matches_unfused() {
        let data: Vec<i64> = (0..500).map(|i| (i * 37) % 100).collect();
        let vals: Vec<i64> = (0..500).map(|i| i * 3).collect();
        let lt50 = [params::CmpOp::Lt.to_code(), 50, 0];
        let sum = [params::AggFunc::Sum.to_code()];

        // Unfused: filter -> materialize -> agg_block through the pool.
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(data.clone()));
        put(&mut p, 2, BufferData::I64(vals.clone()));
        out(&mut p, 3); // bitmap
        out(&mut p, 4); // materialized
        out(&mut p, 5); // acc
        filter::filter_bitmap(&mut p, &[b(1), b(3)], &lt50).unwrap();
        materialize::materialize(&mut p, &[b(2), b(3), b(4)], &[]).unwrap();
        agg::agg_block(&mut p, &[b(4), b(5)], &sum).unwrap();
        let expect = read_i64(&p, 5);

        // Fused: one kernel, no interior buffers.
        let mut q = pool();
        put(&mut q, 1, BufferData::I64(data));
        put(&mut q, 2, BufferData::I64(vals));
        out(&mut q, 9); // acc only
        let program = prog(&[
            (PrimitiveKind::FilterBitmap, &[Ext(0)], &lt50),
            (PrimitiveKind::Materialize, &[Ext(1), St(0, 0)], &[]),
            (PrimitiveKind::AggBlock, &[St(1, 0)], &sum),
        ]);
        let stats = fused_agg(&mut q, &[b(1), b(2), b(9)], &program).unwrap();
        assert_eq!(read_i64(&q, 9), expect);
        assert_eq!(stats.stages.len(), 3);
        assert_eq!(stats.stages[0], (CostClass::FilterBitmap, 500));
    }

    #[test]
    fn fused_map_chain_writes_scratch() {
        let mul10 = [params::MapOp::MulConst.to_code(), 10];
        let add1 = [params::MapOp::AddConst.to_code(), 1];
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1, 2, 3, 4]));
        out(&mut p, 2);
        // map *10 then map +1, all in registers.
        let program = prog(&[
            (PrimitiveKind::Map, &[Ext(0)], &mul10),
            (PrimitiveKind::Map, &[St(0, 0)], &add1),
        ]);
        let stats = fused(&mut p, &[b(1), b(2)], &program).unwrap();
        assert_eq!(read_i64(&p, 2), vec![11, 21, 31, 41]);
        assert_eq!(stats.stages.len(), 2);
        // Matches the two standalone map kernels.
        let mut q = pool();
        put(&mut q, 1, BufferData::I64(vec![1, 2, 3, 4]));
        out(&mut q, 2);
        out(&mut q, 3);
        map::map(&mut q, &[b(1), b(2)], &mul10).unwrap();
        map::map(&mut q, &[b(2), b(3)], &add1).unwrap();
        assert_eq!(read_i64(&q, 3), read_i64(&p, 2));
    }

    #[test]
    fn accumulates_across_calls() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1, 2, 3]));
        out(&mut p, 2);
        let sum = [params::AggFunc::Sum.to_code()];
        let program = prog(&[(PrimitiveKind::AggBlock, &[Ext(0)], &sum)]);
        fused_agg(&mut p, &[b(1), b(2)], &program).unwrap();
        assert_eq!(read_i64(&p, 2), vec![6, 3]);
        // Second chunk folds into the same accumulator.
        fused_agg(&mut p, &[b(1), b(2)], &program).unwrap();
        assert_eq!(read_i64(&p, 2), vec![12, 6]);
    }

    /// One row of the fused-vs-standalone table: a fusible kind, inputs and
    /// params both paths must agree on, and malformed `(inputs, params)`
    /// variations both must reject.
    struct Case {
        kind: PrimitiveKind,
        standalone: fn(&mut BufferPool, &[BufferId], &[i64]) -> Result<KernelStats>,
        inputs: Vec<BufferData>,
        params: Vec<i64>,
        malformed: Vec<(Vec<BufferData>, Vec<i64>)>,
    }

    fn cases() -> Vec<Case> {
        use BufferData::{BitWords, I64, U32};
        let col = |n: i64, mul: i64| I64((0..n).map(|i| (i * mul) % 97).collect());
        let lt = params::CmpOp::Lt.to_code();
        let between = params::CmpOp::Between.to_code();
        vec![
            Case {
                kind: PrimitiveKind::FilterBitmap,
                standalone: filter::filter_bitmap,
                inputs: vec![col(130, 37)],
                params: vec![between, 10, 60],
                malformed: vec![
                    (vec![col(130, 37)], vec![99, 10, 0]),
                    (vec![col(130, 37)], vec![lt]),
                    (vec![BitWords(vec![1])], vec![lt, 10, 0]),
                ],
            },
            Case {
                kind: PrimitiveKind::FilterBitmapCol,
                standalone: filter::filter_bitmap_col,
                inputs: vec![col(70, 5), col(70, 11)],
                params: vec![lt],
                malformed: vec![
                    (vec![col(70, 5), col(69, 11)], vec![lt]),
                    (vec![col(70, 5), col(70, 11)], vec![between]),
                    (vec![col(70, 5), col(70, 11)], vec![99]),
                ],
            },
            Case {
                kind: PrimitiveKind::BitmapOp,
                standalone: map::bitmap_op,
                inputs: vec![BitWords(vec![0b1100, u64::MAX]), BitWords(vec![0b1010, 7])],
                params: vec![params::BitmapOp::AndNot.to_code()],
                malformed: vec![
                    (vec![BitWords(vec![1]), BitWords(vec![1, 2])], vec![0]),
                    (vec![BitWords(vec![1]), BitWords(vec![1])], vec![99]),
                    (vec![col(1, 1), BitWords(vec![1])], vec![0]),
                ],
            },
            Case {
                kind: PrimitiveKind::Map,
                standalone: map::map,
                inputs: vec![col(100, 7)],
                params: vec![params::MapOp::RsubConst.to_code(), 100],
                malformed: vec![
                    (vec![col(100, 7)], vec![99, 1]),
                    (vec![col(100, 7)], vec![params::MapOp::AddConst.to_code()]),
                    // A binary op with one column, then with unequal columns.
                    (vec![col(100, 7)], vec![params::MapOp::Add.to_code()]),
                    (
                        vec![col(100, 7), col(99, 3)],
                        vec![params::MapOp::Add.to_code()],
                    ),
                ],
            },
            Case {
                kind: PrimitiveKind::Map,
                standalone: map::map,
                inputs: vec![col(100, 7), col(100, 3)],
                params: vec![params::MapOp::Mul.to_code()],
                malformed: vec![],
            },
            Case {
                kind: PrimitiveKind::Materialize,
                standalone: materialize::materialize,
                inputs: vec![col(100, 7), BitWords(vec![0xF0F0, u64::MAX])],
                params: vec![],
                malformed: vec![
                    (vec![col(100, 7), BitWords(vec![1])], vec![]),
                    (vec![col(100, 7), col(100, 7)], vec![]),
                ],
            },
            Case {
                kind: PrimitiveKind::AggBlock,
                standalone: agg::agg_block,
                inputs: vec![col(100, 7)],
                params: vec![params::AggFunc::Max.to_code()],
                malformed: vec![(vec![col(100, 7)], vec![99]), (vec![col(100, 7)], vec![])],
            },
            Case {
                kind: PrimitiveKind::HashAgg,
                standalone: agg::hash_agg,
                // keys, one payload column, one value column per aggregate.
                inputs: vec![col(90, 1), col(90, 1), col(90, 13), col(90, 1)],
                params: vec![1, 2],
                malformed: vec![
                    // Wrong aggregate count for the table; too few columns;
                    // unequal columns; hostile counts.
                    (vec![col(90, 1); 4], vec![1, 1]),
                    (vec![col(90, 1); 3], vec![1, 2]),
                    (
                        vec![col(90, 1), col(89, 1), col(90, 1), col(90, 1)],
                        vec![1, 2],
                    ),
                    (
                        vec![col(90, 1), col(90, 1), col(90, 1), col(89, 1)],
                        vec![1, 2],
                    ),
                    (vec![col(90, 1); 4], vec![-1, 0]),
                    (vec![col(90, 1); 4], vec![i64::MAX, i64::MAX]),
                    (vec![col(90, 1); 4], vec![1]),
                    // Wrong payload count for the table; the reserved key.
                    (vec![col(90, 1); 4], vec![0, 2]),
                    (
                        vec![I64(vec![3, i64::MIN]), col(2, 1), col(2, 1), col(2, 1)],
                        vec![1, 2],
                    ),
                ],
            },
            Case {
                kind: PrimitiveKind::HashProbeSemi,
                standalone: join::hash_probe_semi,
                inputs: vec![col(130, 7), built(40)],
                params: vec![],
                malformed: vec![
                    // A non-table operand; keys that are not a column.
                    (vec![col(130, 7), col(40, 1)], vec![]),
                    (vec![BitWords(vec![1]), built(40)], vec![]),
                ],
            },
            Case {
                kind: PrimitiveKind::HashProbe,
                standalone: join::hash_probe,
                inputs: vec![col(130, 7), built(40)],
                params: vec![0],
                malformed: vec![
                    // A non-table operand; a payload count the table lacks;
                    // hostile counts; keys that are not a column.
                    (vec![col(130, 7), col(40, 1)], vec![0]),
                    (vec![col(130, 7), built(40)], vec![2]),
                    (vec![col(130, 7), built(40)], vec![-1]),
                    (vec![col(130, 7), built(40)], vec![]),
                    (vec![BitWords(vec![1]), built(40)], vec![0]),
                ],
            },
            Case {
                kind: PrimitiveKind::MaterializePosition,
                standalone: materialize::materialize_position,
                inputs: vec![col(100, 7), U32(vec![99, 0, 5, 5, 42])],
                params: vec![],
                malformed: vec![
                    // A position past the values; positions that are not
                    // positions; values that are not a column.
                    (vec![col(100, 7), U32(vec![3, 100])], vec![]),
                    (vec![col(100, 7), col(2, 1)], vec![]),
                    (vec![BitWords(vec![1]), U32(vec![0])], vec![]),
                ],
            },
            Case {
                kind: PrimitiveKind::HashBuild,
                standalone: join::hash_build,
                // keys and one payload column, into a one-payload table.
                inputs: vec![col(90, 7), col(90, 3)],
                params: vec![1],
                malformed: vec![
                    // A payload count the table lacks; too few columns;
                    // unequal columns; hostile counts; the reserved key.
                    (vec![col(90, 7), col(90, 3), col(90, 3)], vec![2]),
                    (vec![col(90, 7), col(90, 3)], vec![0]),
                    (vec![col(90, 7)], vec![1]),
                    (vec![col(90, 7), col(89, 3)], vec![1]),
                    (vec![col(90, 7), col(90, 3)], vec![-1]),
                    (vec![col(90, 7), col(90, 3)], vec![i64::MAX]),
                    (vec![I64(vec![3, i64::MIN]), col(2, 1)], vec![1]),
                ],
            },
        ]
    }

    /// A join table holding keys `0..n` (key `i` carries payload `10 * i`),
    /// as a probe's table operand.
    fn built(n: i64) -> BufferData {
        let mut table = JoinHashTable::with_capacity(16, 1);
        let keys: Vec<i64> = (0..n).collect();
        let payload: Vec<i64> = keys.iter().map(|k| k * 10).collect();
        table.insert_block(&keys, &[&payload]).unwrap();
        BufferData::Generic(Box::new(table))
    }

    /// A join table's contents in a canonical order: every key in `0..200`
    /// with each of its matches' payloads.
    fn join_contents(table: &JoinHashTable) -> Vec<i64> {
        let mut out = vec![table.len() as i64];
        for key in 0..200 {
            for row in table.matches(key) {
                out.push(key);
                out.extend_from_slice(row);
            }
        }
        out
    }

    /// Runs `case.kind` over `inputs` as the standalone kernel or as a
    /// one-stage fused program; returns the stats and the output payload.
    fn run_case(
        case: &Case,
        inputs: &[BufferData],
        params: &[i64],
        as_fused: bool,
    ) -> Result<(KernelStats, Vec<i64>)> {
        let mut p = pool();
        let mut bufs = Vec::new();
        for (i, data) in inputs.iter().enumerate() {
            put(&mut p, i as u64 + 1, data.slice(0, data.len()));
            bufs.push(b(i as u64 + 1));
        }
        let table =
            AggHashTable::with_capacity(16, vec![params::AggFunc::Sum, params::AggFunc::Count], 1);
        let out_data = match case.kind {
            PrimitiveKind::HashAgg => BufferData::Generic(Box::new(table)),
            PrimitiveKind::HashBuild => {
                BufferData::Generic(Box::new(JoinHashTable::with_capacity(16, 1)))
            }
            _ => BufferData::Raw(Vec::new()),
        };
        let out_buf = Buffer {
            data: out_data,
            repr: SdkRepr::HostVec,
            pinned: false,
            reserved_bytes: 0,
        };
        p.insert(b(99), out_buf).unwrap();
        bufs.push(b(99));
        let stats = if as_fused {
            let operands: Vec<FusedOperand> = (0..inputs.len()).map(Ext).collect();
            let program = prog(&[(case.kind, &operands, params)]);
            match case.kind.fusion() {
                Some((FusionRole::Terminal, _)) => fused_agg(&mut p, &bufs, &program),
                _ => fused(&mut p, &bufs, &program),
            }
        } else {
            (case.standalone)(&mut p, &bufs, params)
        }?;
        let payload = match &p.get(b(99)).unwrap().data {
            BufferData::I64(v) => v.clone(),
            BufferData::BitWords(w) => w.iter().map(|&x| x as i64).collect(),
            BufferData::U32(v) => v.iter().map(|&x| x as i64).collect(),
            other if other.as_generic::<JoinHashTable>().is_some() => {
                join_contents(other.as_generic::<JoinHashTable>().unwrap())
            }
            other => {
                let (keys, payloads, states) = other.as_generic::<AggHashTable>().unwrap().export();
                let cols = payloads.into_iter().chain(states).flatten();
                keys.iter().copied().chain(cols).collect()
            }
        };
        Ok((stats, payload))
    }

    #[test]
    fn one_stage_program_is_the_standalone_kernel() {
        let cases = cases();
        // Every row of the fusion table has a case, so a new fusible kind
        // cannot land without the interpreter running it.
        for kind in PrimitiveKind::ALL {
            let covered = cases.iter().any(|c| c.kind == kind);
            assert_eq!(covered, kind.fusion().is_some(), "{kind}");
        }
        for case in &cases {
            let kind = case.kind;
            let (alone, alone_out) = run_case(case, &case.inputs, &case.params, false).unwrap();
            let (chain, chain_out) = run_case(case, &case.inputs, &case.params, true).unwrap();
            assert_eq!(chain_out, alone_out, "{kind}");
            assert!(!alone_out.is_empty(), "{kind}");
            assert_eq!(
                chain.stages,
                vec![(alone.cost_class, alone.elements)],
                "{kind}"
            );
            assert_eq!(
                (chain.cost_class, chain.elements),
                (alone.cost_class, alone.elements)
            );
            for (i, (inputs, params)) in case.malformed.iter().enumerate() {
                for as_fused in [false, true] {
                    let got = run_case(case, inputs, params, as_fused).map(|_| ());
                    assert!(
                        matches!(got, Err(DeviceError::BadKernelArgs { .. })),
                        "{kind} malformed #{i} fused={as_fused}: {got:?}"
                    );
                }
            }
        }
    }

    /// A key column holding the reserved `i64::MIN` fails the launch —
    /// standalone or as a fused stage, wherever the key sits — before the
    /// table is touched, so a retry finds what the failed attempt found.
    #[test]
    fn reserved_key_is_a_typed_error_and_leaves_the_table() {
        let mut p = pool();
        let table = AggHashTable::with_capacity(16, vec![params::AggFunc::Sum], 0);
        put(&mut p, 9, BufferData::Generic(Box::new(table)));
        put(&mut p, 1, BufferData::I64(vec![5, 6, 5]));
        put(&mut p, 2, BufferData::I64(vec![1, 2, 3]));
        put(&mut p, 3, BufferData::I64(vec![i64::MIN, 5, 7]));
        put(&mut p, 4, BufferData::I64(vec![5, 7, i64::MIN]));
        let program = prog(&[(PrimitiveKind::HashAgg, &[Ext(0), Ext(1)], &[0, 1])]);
        agg::hash_agg(&mut p, &[b(1), b(2), b(9)], &[0, 1]).unwrap();
        let export = |p: &BufferPool| {
            let held = &p.get(b(9)).unwrap().data;
            held.as_generic::<AggHashTable>().unwrap().export()
        };
        let before = export(&p);
        assert_eq!(before.0, vec![5, 6]);
        for keys in [b(3), b(4)] {
            let bufs = [keys, b(2), b(9)];
            for got in [
                agg::hash_agg(&mut p, &bufs, &[0, 1]),
                fused_agg(&mut p, &bufs, &program),
            ] {
                match got {
                    Err(DeviceError::BadKernelArgs { reason, .. }) => {
                        assert_eq!(reason, "key i64::MIN is reserved")
                    }
                    other => panic!("{other:?}"),
                }
                assert_eq!(export(&p), before);
            }
        }
        // The retry with a clean column lands on the untouched table.
        fused_agg(&mut p, &[b(1), b(2), b(9)], &program).unwrap();
        assert_eq!(export(&p).2, vec![vec![8, 4]]);

        // The same holds for a join build, standalone and as a terminal.
        put(&mut p, 8, built(3));
        let build = prog(&[(PrimitiveKind::HashBuild, &[Ext(0), Ext(1)], &[1])]);
        let contents = |p: &BufferPool| {
            let held = &p.get(b(8)).unwrap().data;
            join_contents(held.as_generic::<JoinHashTable>().unwrap())
        };
        let before = contents(&p);
        for keys in [b(3), b(4)] {
            let bufs = [keys, b(2), b(8)];
            for got in [
                join::hash_build(&mut p, &bufs, &[1]),
                fused_agg(&mut p, &bufs, &build),
            ] {
                match got {
                    Err(DeviceError::BadKernelArgs { reason, .. }) => {
                        assert_eq!(reason, "key i64::MIN is reserved")
                    }
                    other => panic!("{other:?}"),
                }
                assert_eq!(contents(&p), before);
            }
        }
        fused_agg(&mut p, &[b(1), b(2), b(8)], &build).unwrap();
        assert_eq!(contents(&p), [6, 0, 0, 1, 10, 2, 20, 5, 1, 5, 3, 6, 2]);
    }

    /// A probe's payload ports feed later stages: probe → gather the probe
    /// side by position → sum the product with a payload column, all in one
    /// kernel, equals the standalone kernels through the pool.
    #[test]
    fn probe_ports_feed_later_stages() {
        let keys: Vec<i64> = (0..150).map(|i| (i * 13) % 61).collect();
        let vals: Vec<i64> = (0..150).map(|i| i * 3 + 1).collect();
        let mul = [params::MapOp::Mul.to_code()];
        let sum = [params::AggFunc::Sum.to_code()];

        let mut p = pool();
        put(&mut p, 1, BufferData::I64(keys.clone()));
        put(&mut p, 2, BufferData::I64(vals.clone()));
        put(&mut p, 3, built(40));
        for id in 4..=7 {
            out(&mut p, id);
        }
        join::hash_probe(&mut p, &[b(1), b(3), b(4), b(5)], &[1]).unwrap();
        materialize::materialize_position(&mut p, &[b(2), b(4), b(6)], &[]).unwrap();
        map::map(&mut p, &[b(6), b(5), b(7)], &mul).unwrap();
        out(&mut p, 8);
        agg::agg_block(&mut p, &[b(7), b(8)], &sum).unwrap();
        let expect = read_i64(&p, 8);
        assert!(expect[0] > 0);

        let mut q = pool();
        put(&mut q, 1, BufferData::I64(keys));
        put(&mut q, 2, BufferData::I64(vals));
        put(&mut q, 3, built(40));
        out(&mut q, 9);
        let program = prog(&[
            (PrimitiveKind::HashProbe, &[Ext(0), Ext(1)], &[1]),
            (PrimitiveKind::MaterializePosition, &[Ext(2), St(0, 0)], &[]),
            (PrimitiveKind::Map, &[St(1, 0), St(0, 1)], &mul),
            (PrimitiveKind::AggBlock, &[St(2, 0)], &sum),
        ]);
        let stats = fused_agg(&mut q, &[b(1), b(3), b(2), b(9)], &program).unwrap();
        assert_eq!(read_i64(&q, 9), expect);
        assert_eq!(stats.stages[0], (CostClass::HashProbe, 150));
        // Each stage reports its longest operand: the keys, the values, the
        // matched rows twice.
        let matched = stats.stages[1].1 as usize;
        assert_eq!(stats.stage_rows, vec![150, 150, matched, matched]);
        // A port the probe does not have is a typed error, not a panic.
        let bad_port = prog(&[
            (PrimitiveKind::HashProbe, &[Ext(0), Ext(1)], &[1]),
            (PrimitiveKind::AggBlock, &[St(0, 2)], &sum),
        ]);
        let got = fused_agg(&mut q, &[b(1), b(3), b(9)], &bad_port);
        assert!(
            matches!(got, Err(DeviceError::BadKernelArgs { .. })),
            "{got:?}"
        );
    }

    #[test]
    fn hostile_programs_are_typed_errors() {
        let mut p = pool();
        put(&mut p, 1, BufferData::I64(vec![1]));
        out(&mut p, 2);
        let bufs = [b(1), b(2)];
        let add1 = [params::MapOp::AddConst.to_code(), 1];
        let map = PrimitiveKind::Map;
        let programs = [
            // Counts no program could hold (`program::decode` has the full
            // table; these three reach it through the kernel).
            vec![i64::MAX],
            vec![1, map.op_code(), i64::MAX],
            vec![1, map.op_code(), 0, i64::MAX],
            // External operand out of range; operand missing altogether.
            prog(&[(map, &[Ext(1)], &add1)]),
            prog(&[(map, &[Ext(usize::MAX >> 1)], &add1)]),
            prog(&[(map, &[], &add1)]),
            // A kind with no row in the fusion table; a terminal kind in an
            // interior position.
            prog(&[(PrimitiveKind::Sort, &[Ext(0)], &[])]),
            prog(&[
                (PrimitiveKind::AggBlock, &[Ext(0)], &[0]),
                (map, &[St(0, 0)], &add1),
            ]),
        ];
        for program in &programs {
            for kernel in [fused, fused_agg] {
                let got = kernel(&mut p, &bufs, program).map(|_| ());
                assert!(
                    matches!(got, Err(DeviceError::BadKernelArgs { .. })),
                    "{program:?}: {got:?}"
                );
            }
        }
        // Roles are positional: an interior-only chain is not a `fused_agg`
        // program and an aggregation cannot end a `fused` one.
        let interior_only = prog(&[(map, &[Ext(0)], &add1)]);
        assert!(fused(&mut p, &bufs, &interior_only).is_ok());
        assert!(fused_agg(&mut p, &bufs, &interior_only).is_err());
        let agg_last = prog(&[(PrimitiveKind::AggBlock, &[Ext(0)], &[0])]);
        assert!(fused(&mut p, &bufs, &agg_last).is_err());
        assert!(fused_agg(&mut p, &bufs, &agg_last).is_ok());
    }
}
