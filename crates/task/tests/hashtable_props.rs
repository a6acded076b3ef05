//! Randomized tests: the device-resident hash tables against `std` oracles.
//!
//! Driven by the workspace's deterministic [`Rng`] — every case is seeded,
//! so a failure reproduces exactly without a stored regression corpus.

use adamant_storage::rng::Rng;
use adamant_task::hashtable::{AggHashTable, JoinHashTable};
use adamant_task::params::AggFunc;
use std::collections::HashMap;

const CASES: u64 = 64;

/// JoinHashTable probe returns exactly the multiset of payloads the
/// key was inserted with, regardless of growth/collisions.
#[test]
fn join_table_matches_multimap() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x70AB_1E00 + case);
        let n_entries = rng.gen_range(0usize..600);
        let entries: Vec<(i64, i64)> = (0..n_entries)
            .map(|_| (rng.gen_range(0i64..200), rng.gen_range(-1000i64..1000)))
            .collect();
        let n_probes = rng.gen_range(0usize..100);
        let probes: Vec<i64> = (0..n_probes).map(|_| rng.gen_range(0i64..300)).collect();

        let mut table = JoinHashTable::with_capacity(4, 1); // force growth
        let mut oracle: HashMap<i64, Vec<i64>> = HashMap::new();
        for (k, v) in &entries {
            table.insert_block(&[*k], &[&[*v]]).unwrap();
            oracle.entry(*k).or_default().push(*v);
        }
        assert_eq!(table.len(), entries.len());
        for &k in &probes {
            let mut got: Vec<i64> = table.matches(k).map(|row| row[0]).collect();
            got.sort_unstable();
            let mut want = oracle.get(&k).cloned().unwrap_or_default();
            want.sort_unstable();
            assert_eq!(got, want, "key {k}");
            assert_eq!(table.contains(k), oracle.contains_key(&k));
        }
    }
}

/// AggHashTable matches a std-map group-by for all four aggregates
/// simultaneously, including payload capture semantics.
#[test]
fn agg_table_matches_hashmap() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xA66_7AB0 + case);
        let n_rows = rng.gen_range(0usize..800);
        let rows: Vec<(i64, i64)> = (0..n_rows)
            .map(|_| (rng.gen_range(0i64..50), rng.gen_range(-500i64..500)))
            .collect();

        let mut table = AggHashTable::with_capacity(
            2, // force growth
            vec![AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max],
            1,
        );
        #[derive(Default, Clone)]
        struct Acc {
            sum: i64,
            count: i64,
            min: i64,
            max: i64,
            payload: i64,
        }
        let mut oracle: HashMap<i64, Acc> = HashMap::new();
        for (k, v) in &rows {
            table
                .update_block(&[*k], &[&[*k * 3]], &[&[*v], &[0], &[*v], &[*v]])
                .unwrap();
            let e = oracle.entry(*k).or_insert(Acc {
                min: i64::MAX,
                max: i64::MIN,
                payload: *k * 3,
                ..Default::default()
            });
            e.sum += v;
            e.count += 1;
            e.min = e.min.min(*v);
            e.max = e.max.max(*v);
        }
        assert_eq!(table.group_count(), oracle.len());
        let (keys, payloads, states) = table.export();
        for (i, k) in keys.iter().enumerate() {
            let o = &oracle[k];
            assert_eq!(states[0][i], o.sum);
            assert_eq!(states[1][i], o.count);
            assert_eq!(states[2][i], o.min);
            assert_eq!(states[3][i], o.max);
            assert_eq!(payloads[0][i], o.payload);
        }
    }
}

/// Group keys export in first-seen order.
#[test]
fn agg_table_first_seen_order() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xF125_75EE + case);
        let n_keys = rng.gen_range(0usize..300);
        let keys: Vec<i64> = (0..n_keys).map(|_| rng.gen_range(0i64..30)).collect();

        let mut table = AggHashTable::with_capacity(4, vec![AggFunc::Count], 0);
        let mut first_seen = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &k in &keys {
            table.update_block(&[k], &[], &[&[0]]).unwrap();
            if seen.insert(k) {
                first_seen.push(k);
            }
        }
        assert_eq!(table.group_keys(), &first_seen[..]);
    }
}
