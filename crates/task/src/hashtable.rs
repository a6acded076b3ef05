//! Device-resident hash tables.
//!
//! The paper's hash primitives (§V-A) use linear probing over a single
//! shared table in global memory, with atomics resolving insertion races.
//! The simulated kernels execute sequentially (correctness is exact), while
//! the cost model charges the atomic/contention behaviour; the *layout* here
//! matches the paper's: open addressing, linear probing, power-of-two
//! capacity at load <= 0.5, one flat slot array per table.
//!
//! * **Slots.** [`JoinHashTable`] interleaves each entry's key and payload
//!   row in one `Vec<i64>` of stride `1 + payload_cols`, so a probe hit
//!   reads its payload from the cache line the key compare already touched;
//!   a join table without payload columns keeps each distinct key once and
//!   counts its repeats.
//!   [`AggHashTable`] keeps a key array and a parallel `u32` group-id array;
//!   group keys, carried payloads and aggregate states live in dense
//!   columns in first-seen order.
//! * **Key hash.** One multiply (`adamant_storage::fnv::key_hash`), masked
//!   to the capacity. Results never depend on it: aggregation exports in
//!   first-seen order and a join visits the matches of a key in insertion
//!   order, for any hash.
//! * **Blocks, not rows.** Both tables are fed a column block at a time
//!   ([`JoinHashTable::insert_block`], [`AggHashTable::update_block`]),
//!   straight from the kernels' input slices. A join table grows at most
//!   once per block, straight to the capacity the block's last row needs.
//! * **Dense keys.** An aggregation launch whose keys span few values
//!   resolves group ids through a per-launch direct index instead of a probe
//!   per row, chosen from the key range the launch's first pass finds; the
//!   table it builds is the same ([`AggHashTable::update_block`]).
//! * **The sentinel.** [`EMPTY_KEY`] marks an empty slot, so a key column
//!   that contains it is refused whole, before anything is written
//!   ([`ReservedKey`]; the kernels turn it into `BadKernelArgs`). Probing
//!   for it finds nothing.
//!
//! Both tables implement [`GenericPayload`] so they can live in a device
//! buffer under the `HASH_TABLE` I/O semantic. Their `len` and `byte_len`
//! are what the pool charges, what `init_structure` is priced by and what
//! the runtime sizes and seals by, so they are part of the modeled clock:
//! capacity and `byte_len` after each launch follow the row rule (load
//! <= 0.5 after every row, by doubling). They report the *modeled* table;
//! the host slots behind a join table without payload columns are sized by
//! the keys it holds ([`JoinHashTable`]), as an `i32` column widened on the
//! host is billed at its true width.

use crate::params::{per_agg, AggFunc};
use adamant_device::buffer::GenericPayload;
use adamant_storage::fnv::key_hash;
use std::any::Any;

/// Sentinel marking an empty slot. A key column containing it is rejected
/// with [`ReservedKey`] (TPC-H keys are non-negative).
pub const EMPTY_KEY: i64 = i64::MIN;

/// A key column held [`EMPTY_KEY`]; the table was left untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReservedKey;

impl std::fmt::Display for ReservedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("key i64::MIN is reserved")
    }
}

fn table_capacity_for(expected: usize) -> usize {
    // Load factor <= 0.5, power of two, minimum 16.
    (expected.max(8) * 2).next_power_of_two()
}

/// One pass over the key column, before anything is mutated.
fn refuse_reserved(keys: &[i64]) -> Result<(), ReservedKey> {
    if keys.contains(&EMPTY_KEY) {
        return Err(ReservedKey);
    }
    Ok(())
}

/// A multimap hash table for joins: key → one or more payload rows.
///
/// `HASH_BUILD` materializes the payload columns the probe side will need
/// directly into the table (standard for co-processor joins: the build input
/// is streamed and must not be re-read later).
///
/// **Modeled table, host slots.** [`len`](Self::len),
/// [`capacity`](Self::capacity) and `byte_len` describe the table the
/// paper's kernel builds: one slot per build row, a capacity that doubles
/// whenever one more row would push the load over 0.5, and `capacity × (1 +
/// payload_cols) × 8` bytes. The pool charges them and the cost model prices
/// them. The host slots behind them are that table when it has payload
/// columns. A table without any (a semi-join's, or a probe that emits
/// positions only) is *counted*: it stores each distinct key once, in slots
/// sized by the keys it holds, and its rows beyond the first in a parallel
/// array made at its first repeated key (a build of unique keys has none).
///
/// **Order rule:** the matches of a key are visited in insertion order,
/// before and after any growth, for any hash. A duplicate always lands
/// further along its key's probe chain than the earlier ones, and growth
/// re-inserts every cluster in chain order. (A counted table's matches are
/// all the empty row.)
#[derive(Clone, Debug)]
pub struct JoinHashTable {
    /// Host slots, `stride` values each: `[key, payload_0, ..]` per row, or
    /// one key per distinct key of a counted table.
    slots: Vec<i64>,
    /// A counted table's rows beyond the first, per host slot, from its
    /// first repeated key on; empty until then, and in any other table.
    repeats: Vec<u64>,
    /// `1 + payload_cols`.
    stride: usize,
    /// Host slot count − 1.
    mask: usize,
    /// Distinct keys of a counted table.
    keys: usize,
    /// Rows inserted.
    len: usize,
    /// The modeled slot count.
    capacity: usize,
}

impl JoinHashTable {
    /// Creates a table expecting ~`expected` entries with `payload_cols`
    /// payload columns per entry.
    pub fn with_capacity(expected: usize, payload_cols: usize) -> Self {
        let capacity = table_capacity_for(expected);
        let stride = 1 + payload_cols;
        JoinHashTable {
            slots: Self::empty_slots(capacity, stride),
            repeats: Vec::new(),
            stride,
            mask: capacity - 1,
            keys: 0,
            len: 0,
            capacity,
        }
    }

    fn empty_slots(capacity: usize, stride: usize) -> Vec<i64> {
        let mut blank = vec![0; stride];
        blank[0] = EMPTY_KEY;
        blank.repeat(capacity)
    }

    /// Number of rows inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries were inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Modeled slot capacity: the row rule's, for [`Self::len`] rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of payload columns.
    pub fn payload_cols(&self) -> usize {
        self.stride - 1
    }

    /// Inserts `keys[i]` with payload row `payloads[..][i]` for every `i`,
    /// in order (duplicates allowed — each occupies its own slot along the
    /// probe chain, or adds one to its key's count in a counted table). A
    /// key column holding [`EMPTY_KEY`] is refused before the first
    /// insertion.
    ///
    /// The row rule is applied once per block: the modeled capacity goes
    /// straight to the one row-at-a-time growth reaches by the block's end,
    /// and a table with payload columns moves its slots there in one rehash
    /// before the first row.
    ///
    /// # Panics
    /// If `payloads` is not `payload_cols()` columns of `keys.len()` values.
    pub fn insert_block(&mut self, keys: &[i64], payloads: &[&[i64]]) -> Result<(), ReservedKey> {
        assert_eq!(payloads.len(), self.payload_cols(), "payload column count");
        assert!(
            payloads.iter().all(|col| col.len() == keys.len()),
            "payload column length"
        );
        refuse_reserved(keys)?;
        self.len += keys.len();
        while self.len * 2 > self.capacity {
            self.capacity *= 2;
        }
        if self.stride == 1 {
            keys.iter().for_each(|&key| self.count_row(key));
            return Ok(());
        }
        if self.capacity > self.mask + 1 {
            self.rehash(self.capacity);
        }
        let stride = self.stride;
        for (i, &key) in keys.iter().enumerate() {
            let at = self.free_slot(key);
            self.slots[at] = key;
            for (cell, col) in self.slots[at + 1..at + stride].iter_mut().zip(payloads) {
                *cell = col[i];
            }
        }
        Ok(())
    }

    /// One row of `key` into a counted table: one more row for a key it
    /// holds, else a new slot, the slots doubling first if one more key
    /// would push their load over 0.5.
    #[inline]
    fn count_row(&mut self, key: i64) {
        match self.find(key) {
            Ok(at) => {
                if self.repeats.is_empty() {
                    self.repeats = vec![0; self.mask + 1];
                }
                self.repeats[at] += 1;
            }
            Err(mut at) => {
                if (self.keys + 1) * 2 > self.mask + 1 {
                    self.rehash(2 * (self.mask + 1));
                    at = self.free_slot(key);
                }
                self.slots[at] = key;
                self.keys += 1;
            }
        }
    }

    /// Offset into `slots` of `key`'s home slot.
    #[inline]
    fn home(&self, key: i64) -> usize {
        (key_hash(key) as usize & self.mask) * self.stride
    }

    /// Offset of the slot after the one at `at`, cyclically.
    #[inline]
    fn after(&self, at: usize) -> usize {
        match at + self.stride {
            end if end == self.slots.len() => 0,
            next => next,
        }
    }

    /// Offset into `slots` of the first empty slot on `key`'s probe chain.
    #[inline]
    fn free_slot(&self, key: i64) -> usize {
        let mut at = self.home(key);
        while self.slots[at] != EMPTY_KEY {
            at = self.after(at);
        }
        at
    }

    /// Offset into `slots` of the first entry of `key`, or else of the
    /// empty slot that ends its probe chain.
    #[inline]
    fn find(&self, key: i64) -> Result<usize, usize> {
        let mut at = self.home(key);
        loop {
            match self.slots[at] {
                EMPTY_KEY => return Err(at),
                found if found == key => return Ok(at),
                _ => at = self.after(at),
            }
        }
    }

    /// A counted table's rows beyond the first in slot `at`.
    #[inline]
    fn repeat(&self, at: usize) -> u64 {
        self.repeats.get(at).copied().unwrap_or(0)
    }

    /// The payload rows of all entries matching `key`, in insertion order:
    /// one walk of the probe chain, or the empty row once per counted row.
    /// [`EMPTY_KEY`] matches nothing.
    #[inline]
    pub fn matches(&self, key: i64) -> Matches<'_> {
        let (at, rows) = match self.stride {
            1 => (
                0,
                self.find(key).map_or(0, |at| 1 + self.repeat(at) as usize),
            ),
            _ => (self.home(key), 0),
        };
        Matches {
            table: self,
            key,
            at,
            rows,
        }
    }

    /// Whether any entry matches `key` (semi-join probe).
    #[inline]
    pub fn contains(&self, key: i64) -> bool {
        self.find(key).is_ok()
    }

    /// Moves the entries into `capacity` host slots. The scan of the old
    /// slots starts just past an empty one (load <= 0.5, so there is one)
    /// and proceeds cyclically: no cluster is entered in the middle, so
    /// entries are re-inserted in chain order and the order rule survives
    /// for any hash and any growth factor.
    fn rehash(&mut self, capacity: usize) {
        let stride = self.stride;
        let old = std::mem::replace(&mut self.slots, Self::empty_slots(capacity, stride));
        let repeats = std::mem::take(&mut self.repeats);
        if !repeats.is_empty() {
            self.repeats = vec![0; capacity];
        }
        self.mask = capacity - 1;
        let start = old
            .chunks_exact(stride)
            .position(|entry| entry[0] == EMPTY_KEY)
            .expect("load <= 0.5 leaves an empty slot");
        let (front, back) = old.split_at(start * stride);
        for (first, half) in [(start, back), (0, front)] {
            for (slot, entry) in (first..).zip(half.chunks_exact(stride)) {
                if entry[0] != EMPTY_KEY {
                    let to = self.free_slot(entry[0]);
                    self.slots[to..to + stride].copy_from_slice(entry);
                    // A counted table's stride is 1: offsets are slots.
                    if let Some(&more) = repeats.get(slot) {
                        self.repeats[to] = more;
                    }
                }
            }
        }
    }
}

/// Iterator over the payload rows matching one key
/// ([`JoinHashTable::matches`]).
#[derive(Clone, Debug)]
pub struct Matches<'t> {
    table: &'t JoinHashTable,
    key: i64,
    /// Offset into `table.slots` of the next slot to visit.
    at: usize,
    /// Empty rows still to yield: a counted table's matches.
    rows: usize,
}

impl<'t> Iterator for Matches<'t> {
    type Item = &'t [i64];

    #[inline]
    fn next(&mut self) -> Option<&'t [i64]> {
        let table = self.table;
        if table.stride == 1 {
            self.rows = self.rows.checked_sub(1)?;
            return Some(&[]);
        }
        loop {
            let at = self.at;
            let found = table.slots[at];
            // The walk parks on the empty slot that ends the chain.
            if found == EMPTY_KEY {
                return None;
            }
            self.at = table.after(at);
            if found == self.key {
                return Some(&table.slots[at + 1..at + table.stride]);
            }
        }
    }
}

impl GenericPayload for JoinHashTable {
    fn byte_len(&self) -> u64 {
        (self.capacity * self.stride * 8) as u64
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clone_box(&self) -> Box<dyn GenericPayload> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Rows whose group ids are resolved before their values are folded: small
/// enough that the ids and one value column stay in the first-level cache.
const AGG_BLOCK_ROWS: usize = 2048;

/// Key span (`hi − lo`) below which a launch resolves group ids through a
/// direct index (4 KiB of ids at most) instead of probing the table per row.
pub(crate) const DENSE_SPAN: u64 = 1024;

/// An index slot whose key has not been seen in this launch.
const UNSEEN: u32 = u32::MAX;

/// The smallest and largest key of a launch, in one pass over the key
/// column before anything is mutated; a column holding [`EMPTY_KEY`] (the
/// smallest `i64`) is refused. An empty column has `lo > hi`.
fn key_range(keys: &[i64]) -> Result<(i64, i64), ReservedKey> {
    let (lo, hi) = keys
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    if lo == EMPTY_KEY {
        return Err(ReservedKey);
    }
    Ok((lo, hi))
}

/// A group-by aggregation hash table: key → group payload + aggregate states.
///
/// The aggregate functions are fixed at construction; `update_block` folds a
/// block of rows into their groups' states. Group *payload* columns (e.g.
/// Q3's carried `o_orderdate`, `o_shippriority`) are captured from the first
/// row of each group.
#[derive(Clone, Debug)]
pub struct AggHashTable {
    slot_keys: Vec<i64>,
    slot_group: Vec<u32>,
    mask: usize,
    /// Dense group keys in first-seen order.
    group_keys: Vec<i64>,
    /// Dense payload columns, parallel to `group_keys`.
    group_payloads: Vec<Vec<i64>>,
    /// Aggregate functions.
    aggs: Vec<AggFunc>,
    /// Dense aggregate states, one vec per function, parallel to groups.
    states: Vec<Vec<i64>>,
}

impl AggHashTable {
    /// Creates a table for ~`expected_groups` groups with the given
    /// aggregate functions and `payload_cols` carried columns.
    pub fn with_capacity(expected_groups: usize, aggs: Vec<AggFunc>, payload_cols: usize) -> Self {
        let capacity = table_capacity_for(expected_groups);
        let states = vec![Vec::new(); aggs.len()];
        AggHashTable {
            slot_keys: vec![EMPTY_KEY; capacity],
            slot_group: vec![0; capacity],
            mask: capacity - 1,
            group_keys: Vec::new(),
            group_payloads: vec![Vec::new(); payload_cols],
            aggs,
            states,
        }
    }

    /// Number of distinct groups observed.
    pub fn group_count(&self) -> usize {
        self.group_keys.len()
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slot_keys.len()
    }

    /// The aggregate functions.
    pub fn agg_funcs(&self) -> &[AggFunc] {
        &self.aggs
    }

    /// Number of carried payload columns.
    pub fn group_payload_count(&self) -> usize {
        self.group_payloads.len()
    }

    /// Folds row `i` of the block into the group of `keys[i]`, for every
    /// `i`, in order. `vals[a]` feeds aggregate `a` (`Count` ignores its
    /// column); `payloads[..][i]` is captured on first sight of a group. A
    /// key column holding [`EMPTY_KEY`] is refused before anything changes.
    ///
    /// Column at a time: the group ids of a run of rows are resolved into
    /// a scratch vector (creating groups as they appear), then each
    /// aggregate folds its own column over those ids in a loop of its own.
    ///
    /// Dense keys: when the launch's keys span fewer than 1,024 values
    /// and fewer values than it has rows (Q1's packed key: 4 groups
    /// among 34 values, changing every 2.8 rows), ids are read from a
    /// per-launch index by `key − lo`. A key's first row in the launch goes
    /// through the table as ever and fills its index slot; later rows still
    /// take the growth check a table lookup takes. First-seen order, carried
    /// payloads, growth points and `byte_len` are those of the table alone.
    ///
    /// # Panics
    /// If `payloads` / `vals` are not `group_payload_count()` /
    /// `agg_funcs().len()` columns of `keys.len()` values.
    pub fn update_block(
        &mut self,
        keys: &[i64],
        payloads: &[&[i64]],
        vals: &[&[i64]],
    ) -> Result<(), ReservedKey> {
        assert_eq!(payloads.len(), self.group_payloads.len(), "payload columns");
        assert_eq!(vals.len(), self.aggs.len(), "value columns");
        assert!(
            payloads
                .iter()
                .chain(vals)
                .all(|col| col.len() == keys.len()),
            "column length"
        );
        let (lo, hi) = key_range(keys)?;
        let span = hi.abs_diff(lo);
        let mut dense = (span < DENSE_SPAN && span < keys.len() as u64)
            .then(|| vec![UNSEEN; span as usize + 1]);
        let mut groups: Vec<u32> = Vec::with_capacity(keys.len().min(AGG_BLOCK_ROWS));
        for (block, block_keys) in keys.chunks(AGG_BLOCK_ROWS).enumerate() {
            let start = block * AGG_BLOCK_ROWS;
            groups.clear();
            match &mut dense {
                Some(index) => {
                    for (i, &key) in block_keys.iter().enumerate() {
                        // `lo <= key <= hi` and `hi - lo < DENSE_SPAN`.
                        let id = &mut index[(key - lo) as usize];
                        if *id == UNSEEN {
                            *id = self.first_sight(key, start + i, payloads);
                        } else {
                            self.make_room();
                        }
                        groups.push(*id);
                    }
                }
                None => {
                    for (i, &key) in block_keys.iter().enumerate() {
                        groups.push(self.group_of(key, start + i, payloads));
                    }
                }
            }
            // Groups that appeared in this block start from the identity.
            let group_count = self.group_keys.len();
            for ((&agg, states), col) in self.aggs.iter().zip(&mut self.states).zip(vals) {
                states.resize(group_count, agg.identity());
                fold_column(agg, states, &groups, &col[start..]);
            }
        }
        Ok(())
    }

    /// The dense id of `key`'s group, created from row `row` of `payloads`
    /// if this is its first sight. Capacity is checked on every row, hit or
    /// not — the table's growth points (and so its `byte_len`) are those of
    /// a row-at-a-time update.
    #[inline(always)]
    fn group_of(&mut self, key: i64, row: usize, payloads: &[&[i64]]) -> u32 {
        self.make_room();
        let mut slot = key_hash(key) as usize & self.mask;
        loop {
            let found = self.slot_keys[slot];
            if found == key {
                return self.slot_group[slot];
            }
            if found == EMPTY_KEY {
                break;
            }
            slot = (slot + 1) & self.mask;
        }
        let group = self.group_keys.len() as u32;
        self.slot_keys[slot] = key;
        self.slot_group[slot] = group;
        self.group_keys.push(key);
        for (carried, col) in self.group_payloads.iter_mut().zip(payloads) {
            carried.push(col[row]);
        }
        group
    }

    /// [`Self::group_of`] out of line: a dense launch's first row of each
    /// key, rare enough that keeping it out of the loop keeps the loop small.
    #[cold]
    #[inline(never)]
    fn first_sight(&mut self, key: i64, row: usize, payloads: &[&[i64]]) -> u32 {
        self.group_of(key, row, payloads)
    }

    /// The per-row capacity check: grows the table when one more group
    /// would push its load over 0.5.
    #[inline]
    fn make_room(&mut self) {
        if (self.group_keys.len() + 1) * 2 > self.slot_keys.len() {
            self.grow();
        }
    }

    /// The first empty slot on `key`'s probe chain.
    fn free_slot(&self, key: i64) -> usize {
        let mut slot = key_hash(key) as usize & self.mask;
        while self.slot_keys[slot] != EMPTY_KEY {
            slot = (slot + 1) & self.mask;
        }
        slot
    }

    /// Exports `(group_keys, payload_columns, state_columns)` in first-seen
    /// group order.
    pub fn export(&self) -> (Vec<i64>, Vec<Vec<i64>>, Vec<Vec<i64>>) {
        (
            self.group_keys.clone(),
            self.group_payloads.clone(),
            self.states.clone(),
        )
    }

    /// The dense group keys in first-seen order.
    pub fn group_keys(&self) -> &[i64] {
        &self.group_keys
    }

    fn grow(&mut self) {
        let new_cap = self.slot_keys.len() * 2;
        self.slot_keys = vec![EMPTY_KEY; new_cap];
        self.slot_group = vec![0; new_cap];
        self.mask = new_cap - 1;
        for group in 0..self.group_keys.len() {
            let key = self.group_keys[group];
            let slot = self.free_slot(key);
            self.slot_keys[slot] = key;
            self.slot_group[slot] = group as u32;
        }
    }
}

/// Most groups a table may hold for [`fold_column`] to fold through lane
/// accumulators (what fits the stack comfortably: `FOLD_LANES` × this many
/// states).
const FEW_GROUPS: usize = 64;

/// Independent accumulator sets of the few-groups fold.
const FOLD_LANES: usize = 4;

/// Folds `vals[i]` into `states[groups[i]]` for every `i`: one loop per
/// aggregate function, chosen once per column.
///
/// With few groups, rows of one group follow each other closely and
/// `states[g] = fold(states[g], v)` waits for the store of the row before
/// (Q1: four groups, a mean run of 2.8 equal ids). So when the table holds at most
/// [`FEW_GROUPS`] groups, rows go round-robin into [`FOLD_LANES`] sets of
/// accumulators that start from the aggregate's identity and are merged into
/// `states` once per block. Every aggregate is associative and commutative
/// (`Sum` because it wraps — see [`AggFunc`]), so the result is that of the
/// plain loop, bit for bit. With many groups equal ids are far apart, the
/// plain loop does not wait, and lanes would only cost cache.
fn fold_column(agg: AggFunc, states: &mut [i64], groups: &[u32], vals: &[i64]) {
    if states.len() > FEW_GROUPS {
        let rows = groups.iter().map(|&g| g as usize).zip(vals);
        per_agg!(agg, fold => rows.for_each(|(g, &v)| states[g] = fold(states[g], v)));
        return;
    }
    let mut lanes = [[agg.identity(); FEW_GROUPS]; FOLD_LANES];
    // Whole rounds feed every lane (fixed trip count, so the inner loop
    // unrolls); the last few rows go to the first lane.
    let vals = &vals[..groups.len()];
    let (group_rounds, val_rounds) = (
        groups.chunks_exact(FOLD_LANES),
        vals.chunks_exact(FOLD_LANES),
    );
    let tail = group_rounds.remainder().iter().zip(val_rounds.remainder());
    per_agg!(agg, fold => {
        for (gs, vs) in group_rounds.zip(val_rounds) {
            for ((lane, &g), &v) in lanes.iter_mut().zip(gs).zip(vs) {
                lane[g as usize] = fold(lane[g as usize], v);
            }
        }
        for (&g, &v) in tail {
            lanes[0][g as usize] = fold(lanes[0][g as usize], v);
        }
    });
    for (g, state) in states.iter_mut().enumerate() {
        *state = lanes
            .iter()
            .fold(*state, |acc, lane| agg.merge(acc, lane[g]));
    }
}

impl GenericPayload for AggHashTable {
    fn byte_len(&self) -> u64 {
        let slots = self.slot_keys.len() * (8 + 4);
        let dense = self.group_keys.len() * 8 * (1 + self.group_payloads.len() + self.states.len());
        (slots + dense) as u64
    }

    fn len(&self) -> usize {
        self.group_count()
    }

    fn clone_box(&self) -> Box<dyn GenericPayload> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First payload value of every match of `key`, in visiting order.
    fn first_payloads(t: &JoinHashTable, key: i64) -> Vec<i64> {
        t.matches(key).map(|row| row[0]).collect()
    }

    #[test]
    fn join_insert_probe() {
        let mut t = JoinHashTable::with_capacity(4, 1);
        t.insert_block(&[10, 20, 10], &[&[100, 200, 101]]).unwrap(); // duplicate key
        assert_eq!(t.len(), 3);

        let mut vals = first_payloads(&t, 10);
        assert_eq!(vals.len(), 2);
        vals.sort_unstable();
        assert_eq!(vals, vec![100, 101]);

        assert!(first_payloads(&t, 99).is_empty());
        assert!(t.contains(20));
        assert!(!t.contains(21));
    }

    #[test]
    fn join_grows_under_load() {
        let mut t = JoinHashTable::with_capacity(4, 1);
        let initial_cap = t.capacity();
        let keys: Vec<i64> = (0..1000).collect();
        let tens: Vec<i64> = keys.iter().map(|k| k * 10).collect();
        t.insert_block(&keys, &[&tens]).unwrap();
        assert!(t.capacity() > initial_cap);
        assert_eq!(t.len(), 1000);
        for i in 0..1000 {
            assert_eq!(first_payloads(&t, i), vec![i * 10], "key {i}");
        }
    }

    #[test]
    fn join_multi_payload() {
        let mut t = JoinHashTable::with_capacity(8, 3);
        t.insert_block(&[5], &[&[1], &[2], &[3]]).unwrap();
        let rows: Vec<&[i64]> = t.matches(5).collect();
        assert_eq!(rows, vec![&[1, 2, 3][..]]);
        assert_eq!(t.payload_cols(), 3);
    }

    /// The order rule, where the parent's `grow` broke it: duplicates whose
    /// cluster wraps past the end of the slot array, carried through two
    /// growths. `a` wraps in the 16-slot table, `b` in the 32-slot one.
    #[test]
    fn matches_keep_insertion_order_across_growth_and_wrap() {
        let last_slot_key = |capacity: usize, not: i64| {
            (0..i64::MAX)
                .find(|&k| k != not && key_hash(k) as usize & (capacity - 1) == capacity - 1)
                .unwrap()
        };
        let a = last_slot_key(16, -1);
        let b = last_slot_key(32, a);
        let mut t = JoinHashTable::with_capacity(0, 1);
        assert_eq!(t.capacity(), 16);
        let mut inserted = Vec::new();
        let mut filler = (1_000_000i64..).filter(|&k| k != a && k != b);
        let mut seq = 0i64;
        // Three duplicates of each first, so both clusters start at their
        // table's last slot; then distinct keys until the table has grown
        // twice and once more for good measure.
        while t.capacity() < 128 {
            let key = match inserted.len() {
                0..=2 => a,
                3..=5 => b,
                _ => filler.next().unwrap(),
            };
            seq += 1;
            t.insert_block(&[key], &[&[seq]]).unwrap();
            inserted.push((key, seq));
            for probe in [a, b] {
                let want: Vec<i64> = inserted
                    .iter()
                    .filter(|&&(k, _)| k == probe)
                    .map(|&(_, v)| v)
                    .collect();
                let capacity = t.capacity();
                assert_eq!(first_payloads(&t, probe), want, "capacity {capacity}");
            }
        }
        assert_eq!(t.len(), inserted.len());
    }

    #[test]
    fn agg_grouping() {
        let mut t = AggHashTable::with_capacity(4, vec![AggFunc::Sum, AggFunc::Count], 1);
        // Payload captured from the first row of a group only.
        t.update_block(&[1, 2, 1], &[&[77, 88, 99]], &[&[10, 20, 5], &[0, 0, 0]])
            .unwrap();
        assert_eq!(t.group_count(), 2);
        let (keys, payloads, states) = t.export();
        assert_eq!(keys, vec![1, 2]);
        assert_eq!(payloads[0], vec![77, 88]);
        assert_eq!(states[0], vec![15, 20]); // sums
        assert_eq!(states[1], vec![2, 1]); // counts
    }

    #[test]
    fn agg_min_max() {
        let mut t = AggHashTable::with_capacity(4, vec![AggFunc::Min, AggFunc::Max], 0);
        let vals = [5, -3, 12];
        t.update_block(&[7, 7, 7], &[], &[&vals, &vals]).unwrap();
        assert_eq!(t.export().2, vec![vec![-3], vec![12]]);
        assert_eq!(t.group_keys(), &[7]);
    }

    #[test]
    fn agg_grows() {
        let mut t = AggHashTable::with_capacity(2, vec![AggFunc::Count], 0);
        let keys: Vec<i64> = (0..500).flat_map(|k| [k, k]).collect();
        t.update_block(&keys, &[], &[&keys]).unwrap();
        assert_eq!(t.group_count(), 500);
        assert_eq!(t.export().2[0], vec![2; 500]);
    }

    /// The reserved key is refused whole — wherever it sits in the block —
    /// and leaves the table as it was; probing for it finds nothing.
    #[test]
    fn sentinel_key_is_refused_before_anything_changes() {
        let mut j = JoinHashTable::with_capacity(4, 1);
        j.insert_block(&[1, 2], &[&[10, 20]]).unwrap();
        let mut a = AggHashTable::with_capacity(4, vec![AggFunc::Sum], 0);
        a.update_block(&[1, 2], &[], &[&[10, 20]]).unwrap();
        for keys in [[EMPTY_KEY, 3, 4], [3, 4, EMPTY_KEY]] {
            assert_eq!(j.insert_block(&keys, &[&[0, 0, 0]]), Err(ReservedKey));
            assert_eq!(a.update_block(&keys, &[], &[&[1, 1, 1]]), Err(ReservedKey));
        }
        assert_eq!((j.len(), j.contains(3), j.contains(4)), (2, false, false));
        assert_eq!(a.export(), (vec![1, 2], vec![], vec![vec![10, 20]]));
        assert!(!j.contains(EMPTY_KEY));
        assert_eq!(j.matches(EMPTY_KEY).count(), 0);
        assert_eq!(ReservedKey.to_string(), "key i64::MIN is reserved");
    }

    /// `byte_len` is what the pool charges and `init_structure` is priced
    /// by: capacity rule and growth points are part of the modeled clock.
    /// The literals are the parent's (separate key and payload arrays,
    /// row-at-a-time updates), before and after `expected + 1` distinct keys.
    #[test]
    fn sizes_are_pinned() {
        // (expected, [join capacity, join bytes, agg capacity, agg bytes] x 2)
        let pinned: [(usize, [u64; 4], [u64; 4]); 5] = [
            (0, [16, 384, 16, 192], [16, 384, 16, 224]),
            (8, [16, 384, 16, 192], [32, 768, 32, 672]),
            (9, [32, 768, 32, 384], [32, 768, 32, 704]),
            (1000, [2048, 49152, 2048, 24576], [2048, 49152, 2048, 56608]),
            (
                32768,
                [65536, 1572864, 65536, 786432],
                [131072, 3145728, 131072, 2621472],
            ),
        ];
        for (expected, before, after) in pinned {
            let mut j = JoinHashTable::with_capacity(expected, 2);
            let mut a =
                AggHashTable::with_capacity(expected, vec![AggFunc::Sum, AggFunc::Count], 1);
            let sizes = |j: &JoinHashTable, a: &AggHashTable| {
                [
                    j.capacity() as u64,
                    j.byte_len(),
                    a.capacity() as u64,
                    a.byte_len(),
                ]
            };
            assert_eq!(sizes(&j, &a), before, "expected {expected}, empty");
            let keys: Vec<i64> = (0..=expected as i64).collect();
            j.insert_block(&keys, &[&keys, &keys]).unwrap();
            a.update_block(&keys, &[&keys], &[&keys, &keys]).unwrap();
            assert_eq!(sizes(&j, &a), after, "expected {expected}, filled");
        }
        // A hit counts towards the growth point like a new group does: the
        // ninth *row* grows a 16-slot table, not the ninth group.
        let mut a = AggHashTable::with_capacity(8, vec![AggFunc::Count], 0);
        a.update_block(&[0, 1, 2, 3, 4, 5, 6, 7], &[], &[&[0; 8]])
            .unwrap();
        assert_eq!(a.capacity(), 16);
        a.update_block(&[0], &[], &[&[0]]).unwrap();
        assert_eq!((a.capacity(), a.group_count()), (32, 8));
    }

    /// A join table's `len`, `capacity` and `byte_len` after every launch
    /// of one seeded build, with no payload columns and with two: keys
    /// repeating 1–7 times in shuffled order, cut into launches at seeded
    /// points (an empty launch among them). The literals are those of a
    /// table that grows row at a time and stores every row.
    #[test]
    fn launch_sizes_are_pinned() {
        use adamant_storage::rng::Rng;
        let mut rng = Rng::new(46);
        let mut keys: Vec<i64> = (0..500i64)
            .flat_map(|k| std::iter::repeat_n(k * 13 - 700, rng.gen_range(1..=7usize)))
            .collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        let mut cuts: Vec<usize> = (0..6).map(|_| rng.gen_range(0..=keys.len())).collect();
        cuts.extend([0, cuts[2], keys.len()]);
        cuts.sort_unstable();
        // (payload columns, [len, capacity, byte_len] after each launch)
        let pinned: [(usize, [[u64; 3]; 8]); 2] = [
            (
                0,
                [
                    [28, 256, 2048],
                    [554, 2048, 16384],
                    [644, 2048, 16384],
                    [1035, 4096, 32768],
                    [1198, 4096, 32768],
                    [1429, 4096, 32768],
                    [1429, 4096, 32768],
                    [2032, 4096, 32768],
                ],
            ),
            (
                2,
                [
                    [28, 256, 6144],
                    [554, 2048, 49152],
                    [644, 2048, 49152],
                    [1035, 4096, 98304],
                    [1198, 4096, 98304],
                    [1429, 4096, 98304],
                    [1429, 4096, 98304],
                    [2032, 4096, 98304],
                ],
            ),
        ];
        for (payload_cols, after) in pinned {
            let mut t = JoinHashTable::with_capacity(100, payload_cols);
            let mut got = Vec::new();
            for launch in cuts.windows(2) {
                let block = &keys[launch[0]..launch[1]];
                let payloads = vec![block; payload_cols];
                t.insert_block(block, &payloads).unwrap();
                got.push([t.len() as u64, t.capacity() as u64, t.byte_len()]);
            }
            assert_eq!(got, after, "{payload_cols} payload columns");
            for key in [-700, -687, 5787, 5800] {
                let rows = keys.iter().filter(|&&k| k == key).count();
                assert_eq!(t.matches(key).count(), rows, "key {key}");
                assert_eq!(t.contains(key), rows > 0, "key {key}");
            }
        }
        // The growth point exactly: eight rows fill 16 slots to load 0.5,
        // the ninth doubles them.
        for payload_cols in [0, 2] {
            let mut t = JoinHashTable::with_capacity(8, payload_cols);
            let mut sizes = Vec::new();
            for block in [&[1, 1, 2, 3, 3, 3, 4, 5][..], &[5]] {
                t.insert_block(block, &vec![block; payload_cols]).unwrap();
                sizes.push((t.len(), t.capacity()));
            }
            assert_eq!(sizes, [(8, 16), (9, 32)], "{payload_cols} payload columns");
        }
    }

    /// The dense index changes how ids are found, not what the table
    /// becomes: one key sequence, and the same sequence stretched past
    /// [`DENSE_SPAN`] so that every launch takes the hash path, leave equal
    /// capacities, byte lengths and exports after every launch — growth from
    /// 16 slots included, and the growth a hit triggers: the first launch
    /// brings the 16-slot table to its eighth group and ends in hits.
    #[test]
    fn dense_and_hashed_launches_build_the_same_table() {
        const STRIDE: i64 = 4;
        let first: Vec<i64> = (0..20).map(|i| i % 8).collect();
        let keys: Vec<i64> = (0..3000i64)
            .map(|i| (i * 7919 + i / 7) % 300 - 150)
            .collect();
        let launches = std::iter::once(&first[..]).chain(keys.chunks(700));
        let table = || AggHashTable::with_capacity(8, vec![AggFunc::Sum, AggFunc::Count], 1);
        let (mut dense, mut hashed) = (table(), table());
        for (launch, chunk) in launches.enumerate() {
            let stretched: Vec<i64> = chunk.iter().map(|k| k * STRIDE).collect();
            let payload: Vec<i64> = (0..chunk.len() as i64)
                .map(|i| i + 1000 * launch as i64)
                .collect();
            dense
                .update_block(chunk, &[&payload], &[chunk, chunk])
                .unwrap();
            hashed
                .update_block(&stretched, &[&payload], &[chunk, chunk])
                .unwrap();
            assert_eq!(dense.capacity(), hashed.capacity(), "launch {launch}");
            assert_eq!(dense.byte_len(), hashed.byte_len(), "launch {launch}");
            let (keys, payloads, states) = dense.export();
            let stretched_keys = keys.iter().map(|k| k * STRIDE).collect();
            assert_eq!(
                (stretched_keys, payloads, states),
                hashed.export(),
                "launch {launch}"
            );
        }
        assert_eq!(dense.group_count(), 300);
    }

    #[test]
    fn generic_payload_impls() {
        let j = JoinHashTable::with_capacity(10, 2);
        assert!(GenericPayload::byte_len(&j) > 0);
        assert!(GenericPayload::is_empty(&j));
        let b = j.clone_box();
        assert!(b.as_any().downcast_ref::<JoinHashTable>().is_some());

        let a = AggHashTable::with_capacity(10, vec![AggFunc::Sum], 0);
        assert!(GenericPayload::byte_len(&a) > 0);
        let b = a.clone_box();
        assert!(b.as_any().downcast_ref::<AggHashTable>().is_some());
    }
}
