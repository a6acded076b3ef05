//! Reference kernel implementations for every primitive.
//!
//! Kernels execute against the owning device's buffer pool following the
//! take-inputs-by-reference / take-output-by-value pattern: outputs are
//! removed from the pool for the duration of the call (the pool keeps their
//! bytes charged) and restored afterwards, which re-checks capacity for any
//! growth — so a kernel that overflows device memory fails exactly like a
//! real device allocation would.
//!
//! One *reference* implementation exists per primitive; per-SDK performance
//! differences come from the device cost models (the paper's
//! "semantically similar implementations" across drivers, §V). Additional
//! *variants* (e.g. the branchless filter) demonstrate the multiple-
//! implementations-per-primitive capability of the task layer.
//!
//! "One" includes fusion. Each fusible primitive's semantics live in a
//! single slice-level *body* (`filter::filter_bitmap_body`,
//! `map::map_body`, `agg::hash_agg_body`, …) that takes resolved operands,
//! the primitive's scalar params and the calling kernel's name (for error
//! text) and returns the output payload plus its `(CostClass, elements)`
//! bill. The standalone kernel is "resolve buffers from the pool → body →
//! store"; the [`fused`] interpreter resolves operands from the pool *or*
//! an earlier stage and calls the same body. A kernel optimisation is a
//! one-place change that both paths, and the `task.*_ns_per_row` probes,
//! see.
//!
//! **How the bodies are written.** The modeled clock prices a launch by
//! `CostClass × elements`, never by host time, so the bodies are free to be
//! as fast as the host allows — and they are most of what a query's wall
//! clock is spent on. The rules they follow:
//!
//! * *Decide once per launch, not per row.* Operator enums are matched
//!   outside the loop (`params::per_cmp!`, `per_map_op!`, `per_agg!`), which
//!   compiles one copy of the loop per operator around a single inlined
//!   expression. `CmpOp::eval` / `AggFunc::fold` per row is what the
//!   `@branchless` variant does, on purpose, through the same loop.
//! * *Bitmaps are built a word at a time* by the one packing loop in
//!   [`filter`] (filters and `hash_probe_semi`): 64 outcomes accumulate in
//!   a register and are stored once, without a data-dependent branch.
//!   `materialize` sizes its output from a population count and copies runs
//!   of set bits from dense words.
//! * *Hash tables are fed a column block at a time*
//!   ([`crate::hashtable`]): `hash_agg` resolves a block's group ids, then
//!   folds each aggregate column in a loop of its own; `hash_build` inserts
//!   straight from the column slices; `hash_probe` walks a key's chain once
//!   and emits its matches, in insertion order, directly into the outputs.
//! * *Validation is untouched by any of it*: every length, count and kind
//!   check runs before the loop, a key column holding the reserved
//!   `i64::MIN` is a `BadKernelArgs` raised before the table is written, and
//!   the differential tests (`differential.rs`) hold each body to a naive
//!   oracle at every length around a word and a chunk boundary.

pub mod agg;
#[cfg(test)]
mod differential;
pub mod filter;
pub mod fused;
pub mod join;
pub mod map;
pub mod materialize;
pub mod prefix;
pub mod sort;

use adamant_device::buffer::{Buffer, BufferData, BufferId};
use adamant_device::cost::CostClass;
use adamant_device::error::{DeviceError, Result};
use adamant_device::kernel::KernelStats;
use adamant_device::pool::BufferPool;

/// What a body's launch is priced by: its cost class and element count.
pub(crate) type StageCost = (CostClass, u64);

/// A body's result: the output payload and its bill.
pub(crate) type Produced = (BufferData, StageCost);

/// Builds a `BadKernelArgs` error.
pub(crate) fn bad_args(kernel: &str, reason: impl Into<String>) -> DeviceError {
    DeviceError::BadKernelArgs {
        kernel: kernel.into(),
        reason: reason.into(),
    }
}

/// Requires at least `n` buffer arguments.
pub(crate) fn need_bufs(kernel: &str, bufs: &[BufferId], n: usize) -> Result<()> {
    if bufs.len() < n {
        Err(bad_args(
            kernel,
            format!("expected at least {n} buffers, got {}", bufs.len()),
        ))
    } else {
        Ok(())
    }
}

/// Requires at least `n` scalar parameters.
pub(crate) fn need_params(kernel: &str, params: &[i64], n: usize) -> Result<()> {
    if params.len() < n {
        Err(bad_args(
            kernel,
            format!("expected at least {n} params, got {}", params.len()),
        ))
    } else {
        Ok(())
    }
}

/// Reads `params[i]` as a buffer/column count. Counts arrive in the caller's
/// scalar list, so a missing or negative one is a typed error, never a cast.
pub(crate) fn count_param(kernel: &str, params: &[i64], i: usize) -> Result<usize> {
    let raw = params.get(i).copied();
    raw.and_then(|v| usize::try_from(v).ok()).ok_or_else(|| {
        bad_args(
            kernel,
            format!("param {i} must be a non-negative count, got {raw:?}"),
        )
    })
}

/// Adds decoded counts into a buffer total; overflow is a typed error.
pub(crate) fn count_sum(kernel: &str, parts: &[usize]) -> Result<usize> {
    parts
        .iter()
        .try_fold(0usize, |total, &p| total.checked_add(p))
        .ok_or_else(|| bad_args(kernel, "buffer count overflows"))
}

/// Borrows an input buffer's payload as `i64`s, owned or shared.
pub(crate) fn input_i64<'p>(pool: &'p BufferPool, kernel: &str, id: BufferId) -> Result<&'p [i64]> {
    let buf = pool.get(id)?;
    buf.data.as_i64().ok_or_else(|| {
        bad_args(
            kernel,
            format!("buffer {id} is {}, need i64", buf.data.kind()),
        )
    })
}

/// Borrows an input buffer's payload as bitmap words.
pub(crate) fn input_bitwords<'p>(
    pool: &'p BufferPool,
    kernel: &str,
    id: BufferId,
) -> Result<&'p Vec<u64>> {
    let buf = pool.get(id)?;
    buf.data.as_bitwords().ok_or_else(|| {
        bad_args(
            kernel,
            format!("buffer {id} is {}, need bitwords", buf.data.kind()),
        )
    })
}

/// Borrows an input buffer's payload as positions.
pub(crate) fn input_u32<'p>(
    pool: &'p BufferPool,
    kernel: &str,
    id: BufferId,
) -> Result<&'p Vec<u32>> {
    let buf = pool.get(id)?;
    buf.data.as_u32().ok_or_else(|| {
        bad_args(
            kernel,
            format!("buffer {id} is {}, need u32", buf.data.kind()),
        )
    })
}

/// Replaces the payload of a taken output buffer and restores it,
/// re-checking pool capacity.
pub(crate) fn write_output(pool: &mut BufferPool, id: BufferId, data: BufferData) -> Result<()> {
    let mut out = pool.take(id)?;
    out.data = data;
    pool.restore(id, out)
}

/// The tail every single-output kernel shares: store the body's result and
/// report its bill.
pub(crate) fn emit(
    pool: &mut BufferPool,
    out: BufferId,
    (data, (class, elements)): Produced,
) -> Result<KernelStats> {
    write_output(pool, out, data)?;
    Ok(KernelStats::new(elements, class))
}

/// Runs `f` with buffer `id` taken out of the pool — so `f` can mutate it
/// while reading other buffers — and restores it afterwards (re-checking
/// capacity for growth) whether or not `f` failed.
pub(crate) fn with_taken<T>(
    pool: &mut BufferPool,
    id: BufferId,
    f: impl FnOnce(&BufferPool, &mut Buffer) -> Result<T>,
) -> Result<T> {
    let mut buf = pool.take(id)?;
    let result = f(pool, &mut buf);
    pool.restore(id, buf)?;
    result
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared scaffolding for kernel unit tests.
    use adamant_device::buffer::{Buffer, BufferData, BufferId};
    use adamant_device::pool::BufferPool;
    use adamant_device::sdk::SdkRepr;

    /// A pool big enough for kernel tests.
    pub fn pool() -> BufferPool {
        BufferPool::new(1 << 24, 1 << 20)
    }

    /// Inserts a payload under `id`.
    pub fn put(pool: &mut BufferPool, id: u64, data: BufferData) {
        pool.insert(
            BufferId(id),
            Buffer {
                data,
                repr: SdkRepr::HostVec,
                pinned: false,
                reserved_bytes: 0,
            },
        )
        .unwrap();
    }

    /// Inserts an empty output slot under `id`.
    pub fn out(pool: &mut BufferPool, id: u64) {
        put(pool, id, BufferData::Raw(Vec::new()));
    }

    /// Reads back an i64 payload.
    pub fn read_i64(pool: &BufferPool, id: u64) -> Vec<i64> {
        pool.get(BufferId(id))
            .unwrap()
            .data
            .as_i64()
            .unwrap()
            .to_vec()
    }

    /// Reads back a u32 payload.
    pub fn read_u32(pool: &BufferPool, id: u64) -> Vec<u32> {
        pool.get(BufferId(id))
            .unwrap()
            .data
            .as_u32()
            .unwrap()
            .clone()
    }

    /// Reads back bitmap words.
    pub fn read_words(pool: &BufferPool, id: u64) -> Vec<u64> {
        pool.get(BufferId(id))
            .unwrap()
            .data
            .as_bitwords()
            .unwrap()
            .clone()
    }

    /// Buffer id shorthand.
    pub fn b(id: u64) -> BufferId {
        BufferId(id)
    }
}
