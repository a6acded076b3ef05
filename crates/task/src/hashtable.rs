//! Device-resident hash tables.
//!
//! The paper's hash primitives (§V-A) use linear probing over a single
//! shared table in global memory, with atomics resolving insertion races.
//! The simulated kernels execute sequentially (correctness is exact), while
//! the cost model charges the atomic/contention behaviour; the *layout* here
//! matches the paper's: open addressing, linear probing, one flat key array
//! plus flat payload/aggregate arrays.
//!
//! Both tables implement [`GenericPayload`] so they can live in a device
//! buffer under the `HASH_TABLE` I/O semantic.

use crate::params::AggFunc;
use adamant_device::buffer::GenericPayload;
use adamant_storage::fnv::fnv1a_i64;
use std::any::Any;

/// Sentinel marking an empty slot. Keys of this value are not supported
/// (TPC-H keys are non-negative).
pub const EMPTY_KEY: i64 = i64::MIN;

fn table_capacity_for(expected: usize) -> usize {
    // Load factor <= 0.5, power of two, minimum 16.
    (expected.max(8) * 2).next_power_of_two()
}

/// A multimap hash table for joins: key → one or more payload rows.
///
/// `HASH_BUILD` materializes the payload columns the probe side will need
/// directly into the table (standard for co-processor joins: the build input
/// is streamed and must not be re-read later).
#[derive(Clone, Debug)]
pub struct JoinHashTable {
    keys: Vec<i64>,
    /// Column-major payload storage, each column `capacity` long.
    payloads: Vec<Vec<i64>>,
    mask: usize,
    len: usize,
}

impl JoinHashTable {
    /// Creates a table expecting ~`expected` entries with `payload_cols`
    /// payload columns per entry.
    pub fn with_capacity(expected: usize, payload_cols: usize) -> Self {
        let capacity = table_capacity_for(expected);
        JoinHashTable {
            keys: vec![EMPTY_KEY; capacity],
            payloads: vec![vec![0; capacity]; payload_cols],
            mask: capacity - 1,
            len: 0,
        }
    }

    /// Number of entries inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries were inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Number of payload columns.
    pub fn payload_cols(&self) -> usize {
        self.payloads.len()
    }

    /// Inserts a key with its payload row (duplicates allowed — each
    /// occupies its own slot along the probe chain).
    pub fn insert(&mut self, key: i64, payload: &[i64]) {
        debug_assert_ne!(key, EMPTY_KEY, "sentinel key not supported");
        debug_assert_eq!(payload.len(), self.payloads.len());
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut slot = (fnv1a_i64(key) as usize) & self.mask;
        loop {
            if self.keys[slot] == EMPTY_KEY {
                self.keys[slot] = key;
                for (col, &v) in payload.iter().enumerate() {
                    self.payloads[col][slot] = v;
                }
                self.len += 1;
                return;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Appends the slot indices of all entries matching `key` to `out`.
    pub fn probe_into(&self, key: i64, out: &mut Vec<usize>) {
        let mut slot = (fnv1a_i64(key) as usize) & self.mask;
        loop {
            let k = self.keys[slot];
            if k == EMPTY_KEY {
                return;
            }
            if k == key {
                out.push(slot);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Whether any entry matches `key` (semi-join probe).
    pub fn contains(&self, key: i64) -> bool {
        let mut slot = (fnv1a_i64(key) as usize) & self.mask;
        loop {
            let k = self.keys[slot];
            if k == EMPTY_KEY {
                return false;
            }
            if k == key {
                return true;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Payload value at (`col`, `slot`).
    pub fn payload(&self, col: usize, slot: usize) -> i64 {
        self.payloads[col][slot]
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_payloads: Vec<Vec<i64>> = self
            .payloads
            .iter_mut()
            .map(|p| std::mem::replace(p, vec![0; new_cap]))
            .collect();
        self.mask = new_cap - 1;
        self.len = 0;
        for (slot, &k) in old_keys.iter().enumerate() {
            if k != EMPTY_KEY {
                let row: Vec<i64> = old_payloads.iter().map(|p| p[slot]).collect();
                self.insert(k, &row);
            }
        }
    }
}

impl GenericPayload for JoinHashTable {
    fn byte_len(&self) -> u64 {
        (self.keys.len() * 8 * (1 + self.payloads.len())) as u64
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

/// A group-by aggregation hash table: key → group payload + aggregate states.
///
/// The aggregate functions are fixed at construction; `update` folds one row
/// into the group's states. Group *payload* columns (e.g. Q3's carried
/// `o_orderdate`, `o_shippriority`) are captured from the first row of each
/// group.
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

    /// The aggregate functions.
    pub fn agg_funcs(&self) -> &[AggFunc] {
        &self.aggs
    }

    /// Number of carried payload columns.
    pub fn group_payload_count(&self) -> usize {
        self.group_payloads.len()
    }

    /// Folds one row into its group. `vals[i]` feeds `aggs[i]` (`Count`
    /// ignores its value); `payload` is captured on first sight of a group.
    pub fn update(&mut self, key: i64, payload: &[i64], vals: &[i64]) {
        debug_assert_ne!(key, EMPTY_KEY);
        debug_assert_eq!(vals.len(), self.aggs.len());
        debug_assert_eq!(payload.len(), self.group_payloads.len());
        if (self.group_keys.len() + 1) * 2 > self.slot_keys.len() {
            self.grow();
        }
        let mut slot = (fnv1a_i64(key) as usize) & self.mask;
        let group = loop {
            let k = self.slot_keys[slot];
            if k == key {
                break self.slot_group[slot] as usize;
            }
            if k == EMPTY_KEY {
                let g = self.group_keys.len();
                self.slot_keys[slot] = key;
                self.slot_group[slot] = g as u32;
                self.group_keys.push(key);
                for (col, &p) in payload.iter().enumerate() {
                    self.group_payloads[col].push(p);
                }
                for (ai, agg) in self.aggs.iter().enumerate() {
                    self.states[ai].push(agg.identity());
                }
                break g;
            }
            slot = (slot + 1) & self.mask;
        };
        for (ai, agg) in self.aggs.iter().enumerate() {
            let acc = &mut self.states[ai][group];
            *acc = agg.fold(*acc, vals[ai]);
        }
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

    /// The dense state column for aggregate `i`.
    pub fn states(&self, i: usize) -> &[i64] {
        &self.states[i]
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
        for (g, &key) in self.group_keys.iter().enumerate() {
            let mut slot = (fnv1a_i64(key) as usize) & self.mask;
            while self.slot_keys[slot] != EMPTY_KEY {
                slot = (slot + 1) & self.mask;
            }
            self.slot_keys[slot] = key;
            self.slot_group[slot] = g as u32;
        }
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

    #[test]
    fn join_insert_probe() {
        let mut t = JoinHashTable::with_capacity(4, 1);
        t.insert(10, &[100]);
        t.insert(20, &[200]);
        t.insert(10, &[101]); // duplicate key
        assert_eq!(t.len(), 3);

        let mut slots = Vec::new();
        t.probe_into(10, &mut slots);
        assert_eq!(slots.len(), 2);
        let mut vals: Vec<i64> = slots.iter().map(|&s| t.payload(0, s)).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![100, 101]);

        slots.clear();
        t.probe_into(99, &mut slots);
        assert!(slots.is_empty());
        assert!(t.contains(20));
        assert!(!t.contains(21));
    }

    #[test]
    fn join_grows_under_load() {
        let mut t = JoinHashTable::with_capacity(4, 1);
        let initial_cap = t.capacity();
        for i in 0..1000 {
            t.insert(i, &[i * 10]);
        }
        assert!(t.capacity() > initial_cap);
        assert_eq!(t.len(), 1000);
        let mut slots = Vec::new();
        for i in 0..1000 {
            slots.clear();
            t.probe_into(i, &mut slots);
            assert_eq!(slots.len(), 1, "key {i}");
            assert_eq!(t.payload(0, slots[0]), i * 10);
        }
    }

    #[test]
    fn join_multi_payload() {
        let mut t = JoinHashTable::with_capacity(8, 3);
        t.insert(5, &[1, 2, 3]);
        let mut slots = Vec::new();
        t.probe_into(5, &mut slots);
        assert_eq!(t.payload(0, slots[0]), 1);
        assert_eq!(t.payload(1, slots[0]), 2);
        assert_eq!(t.payload(2, slots[0]), 3);
        assert_eq!(t.payload_cols(), 3);
    }

    #[test]
    fn agg_grouping() {
        let mut t = AggHashTable::with_capacity(4, vec![AggFunc::Sum, AggFunc::Count], 1);
        t.update(1, &[77], &[10, 0]);
        t.update(2, &[88], &[20, 0]);
        t.update(1, &[99], &[5, 0]); // payload captured from first row only
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
        for v in [5, -3, 12] {
            t.update(7, &[], &[v, v]);
        }
        assert_eq!(t.states(0), &[-3]);
        assert_eq!(t.states(1), &[12]);
        assert_eq!(t.group_keys(), &[7]);
    }

    #[test]
    fn agg_grows() {
        let mut t = AggHashTable::with_capacity(2, vec![AggFunc::Count], 0);
        for k in 0..500 {
            t.update(k, &[], &[0]);
            t.update(k, &[], &[0]);
        }
        assert_eq!(t.group_count(), 500);
        for g in 0..500 {
            assert_eq!(t.states(0)[g], 2);
        }
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
