//! Differential tests of the specialised kernel bodies: each against a
//! naive oracle written here, exhaustively over the lengths where a
//! word-at-a-time or block-at-a-time loop can go wrong.

use super::testutil::*;
use super::{agg, filter, fused, join, map, materialize};
use crate::hashtable::{AggHashTable, JoinHashTable, DENSE_SPAN};
use crate::params::{AggFunc, CmpOp, MapOp};
use crate::primitive::PrimitiveKind;
use crate::program::{encode, FusedOperand, Stage};
use adamant_device::buffer::{BufferData, BufferId};
use adamant_device::cost::CostClass;
use adamant_device::error::{DeviceError, Result};
use adamant_device::kernel::KernelStats;
use adamant_device::pool::BufferPool;
use adamant_storage::rng::Rng;
use std::collections::BTreeMap;
use std::ops::Range;

/// Around one and two bitmap words, and around a chunk of 2^13 rows.
const LENGTHS: [usize; 11] = [0, 1, 63, 64, 65, 127, 128, 129, 8191, 8192, 8193];

const CMPS: [CmpOp; 7] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Between,
];

const K: &str = "differential";

/// `n` values in -50..50 with both `i64` extremes sprinkled in.
fn column(n: usize, salt: i64) -> Vec<i64> {
    (0..n as i64)
        .map(|i| match (i * 7919 + salt * 104_729) % 101 {
            0 => i64::MIN,
            1 => i64::MAX,
            x => x - 51,
        })
        .collect()
}

/// The comparison, spelled out independently of `CmpOp::eval`.
fn holds(cmp: CmpOp, x: i64, v: i64, hi: i64) -> bool {
    match cmp {
        CmpOp::Lt => x < v,
        CmpOp::Le => x <= v,
        CmpOp::Gt => x > v,
        CmpOp::Ge => x >= v,
        CmpOp::Eq => x == v,
        CmpOp::Ne => x != v,
        CmpOp::Between => v <= x && x <= hi,
    }
}

/// One bit per outcome, set one at a time; unset bits (the last word's
/// trailing ones included) stay zero.
fn naive_bitmap(bits: impl ExactSizeIterator<Item = bool>) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, bit) in bits.enumerate() {
        if bit {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

fn bitwords(produced: super::Produced) -> (Vec<u64>, super::StageCost) {
    match produced {
        (BufferData::BitWords(words), cost) => (words, cost),
        other => panic!("not a bitmap: {other:?}"),
    }
}

type Kernel = fn(&mut BufferPool, &[BufferId], &[i64]) -> Result<KernelStats>;

/// Runs a one-input, one-output kernel over `input` and returns the output.
fn run_unary(kernel: Kernel, input: &[i64], params: &[i64]) -> BufferData {
    let mut p = pool();
    put(&mut p, 1, BufferData::I64(input.to_vec()));
    out(&mut p, 2);
    kernel(&mut p, &[b(1), b(2)], params).unwrap();
    p.take(b(2)).unwrap().data
}

#[test]
fn filters_match_the_naive_bitmap() {
    // Constant operands: ordinary, both extremes, and `Between` bounds in
    // the wrong order (selects nothing).
    let operands = [
        (0, 10),
        (-7, -7),
        (i64::MIN, i64::MAX),
        (i64::MAX, i64::MIN),
        (5, -5),
    ];
    for n in LENGTHS {
        let a = column(n, 1);
        let other = column(n, 2);
        for cmp in CMPS {
            let code = cmp.to_code();
            for (v, hi) in operands {
                let want = naive_bitmap(a.iter().map(|&x| holds(cmp, x, v, hi)));
                let what = format!("{cmp:?} {v} {hi}, {n} rows");
                assert!(
                    a.iter()
                        .all(|&x| cmp.eval(x, v, hi) == holds(cmp, x, v, hi)),
                    "{what}"
                );
                let params = [code, v, hi];
                let (got, cost) = bitwords(filter::filter_bitmap_body(K, &a, &params).unwrap());
                assert_eq!(got, want, "{what}");
                assert_eq!(cost, (CostClass::FilterBitmap, n as u64), "{what}");
                // The variant is the same loop under per-row dispatch.
                let variant = run_unary(filter::filter_bitmap_branchless, &a, &params);
                assert_eq!(variant.as_bitwords(), Some(&want), "branchless {what}");
                let positions = run_unary(filter::filter_position, &a, &params);
                let want_positions: Vec<u32> = (0..n as u32)
                    .filter(|&i| holds(cmp, a[i as usize], v, hi))
                    .collect();
                assert_eq!(positions.as_u32(), Some(&want_positions), "position {what}");
            }
            let col = filter::filter_bitmap_col_body(K, &a, &other, &[code]);
            if cmp == CmpOp::Between {
                assert!(matches!(col, Err(DeviceError::BadKernelArgs { .. })));
                continue;
            }
            let pairs = a.iter().zip(&other);
            let want = naive_bitmap(pairs.map(|(&x, &y)| holds(cmp, x, y, 0)));
            assert_eq!(bitwords(col.unwrap()).0, want, "{cmp:?} col, {n} rows");
        }
    }
}

#[test]
fn materialize_matches_the_naive_gather() {
    /// Word `w` of a bitmap pattern.
    type Word = fn(usize) -> u64;
    let pattern = |n: usize, word: Word| -> Vec<u64> { (0..n.div_ceil(64)).map(word).collect() };
    let patterns: [(&str, Word); 7] = [
        ("all ones", |_| u64::MAX),
        ("all zero", |_| 0),
        ("odd rows", |_| 0xAAAA_AAAA_AAAA_AAAA),
        ("even rows", |_| 0x5555_5555_5555_5555),
        ("sparse", |w| 1 << (w * 7 % 64) | 1 << (w * 13 % 64)),
        ("dense", |w| !(1 << (w * 7 % 64) | 1 << (w * 13 % 64))),
        ("mixed", |w| {
            (w as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | [0, u64::MAX, 0xFF00][w % 3]
        }),
    ];
    for n in LENGTHS {
        let values = column(n, 3);
        for (name, word) in patterns {
            // The patterns set bits beyond `n` in the last word: ignored.
            let words = pattern(n, word);
            let want: Vec<i64> = (0..n)
                .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
                .map(|i| values[i])
                .collect();
            let run = |words: &[u64]| materialize::materialize_body(K, &values, words);
            let (got, cost) = run(&words).unwrap();
            assert_eq!(got.as_i64(), Some(&want[..]), "{name}, {n} rows");
            assert_eq!(cost, (CostClass::MaterializeBitmap, n as u64));
            // A bitmap longer than the values: the extra words are ignored.
            let longer = [&words[..], &[u64::MAX, 1]].concat();
            assert_eq!(
                run(&longer).unwrap().0.as_i64(),
                Some(&want[..]),
                "{name} long"
            );
            // One word short: the same typed error as ever.
            if n > 0 {
                let short = &words[..words.len() - 1];
                let reason = match run(short) {
                    Err(DeviceError::BadKernelArgs { reason, .. }) => reason,
                    other => panic!("{name}, {n} rows: {other:?}"),
                };
                let covered = short.len() * 64;
                assert_eq!(
                    reason,
                    format!("bitmap covers {covered} rows, values have {n}")
                );
            }
        }
    }
}

#[test]
fn map_and_its_blocked_variant_match_apply() {
    let ops = [
        MapOp::Add,
        MapOp::Div,
        MapOp::Min,
        MapOp::RsubConst,
        MapOp::LeConst,
    ];
    for n in LENGTHS {
        let (a, other) = (column(n, 4), column(n, 5));
        for op in ops {
            let rhs = |i: usize| if op.is_const() { -3 } else { other[i] };
            let want: Vec<i64> = (0..n).map(|i| op.apply(a[i], rhs(i))).collect();
            let second = (!op.is_const()).then_some(&other[..]);
            let params = [op.to_code(), -3];
            let (got, cost) = map::map_body(K, &a, second, &params).unwrap();
            assert_eq!(got.as_i64(), Some(&want[..]), "{op:?}, {n} rows");
            assert_eq!(cost, (CostClass::MapLike, n as u64));
            let mut p = pool();
            put(&mut p, 1, BufferData::I64(a.clone()));
            put(&mut p, 2, BufferData::I64(other.clone()));
            out(&mut p, 3);
            let bufs = if op.is_const() {
                vec![b(1), b(3)]
            } else {
                vec![b(1), b(2), b(3)]
            };
            map::map_blocked(&mut p, &bufs, &params).unwrap();
            assert_eq!(read_i64(&p, 3), want, "blocked {op:?}, {n} rows");
        }
    }
}

/// Runs `hash_agg` over `launches` (one key column each) into one table
/// sized for 8 groups, and holds its keys, first-row payloads and states —
/// after every launch — to a `BTreeMap` fold of all rows so far, in order.
/// Sums wrap at both ends of `i64`.
fn check_hash_agg(launches: &[Vec<i64>], what: &str) {
    const AGGS: [AggFunc; 4] = [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max];
    let mut table = AggHashTable::with_capacity(8, AGGS.to_vec(), 1);
    // key -> (first-seen rank, first row's payload, states).
    let mut oracle: BTreeMap<i64, (usize, i64, [i64; 4])> = BTreeMap::new();
    let mut rows = 0..0i64;
    for (launch, keys) in launches.iter().enumerate() {
        rows = rows.end..rows.end + keys.len() as i64;
        let payload: Vec<i64> = rows.clone().map(|i| i * 3 + 1).collect();
        let vals: Vec<i64> = rows
            .clone()
            .map(|i| [i64::MAX, i64::MIN, i - 40, 1][i as usize % 4])
            .collect();
        let cols = [&keys[..], &payload, &vals, &vals, &vals, &vals];
        let cost = agg::hash_agg_body(K, &mut table, &cols, &[1, 4]).unwrap();
        for (i, &key) in keys.iter().enumerate() {
            let rank = oracle.len();
            let start = (rank, payload[i], AGGS.map(AggFunc::identity));
            let (_, _, states) = oracle.entry(key).or_insert(start);
            for (state, agg) in states.iter_mut().zip(AGGS) {
                *state = match agg {
                    AggFunc::Sum => state.wrapping_add(vals[i]),
                    AggFunc::Count => *state + 1,
                    AggFunc::Min => (*state).min(vals[i]),
                    AggFunc::Max => (*state).max(vals[i]),
                };
            }
        }
        let what = format!("{what}, launch {launch}");
        let mut by_rank: Vec<_> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        by_rank.sort_by_key(|&(_, (rank, ..))| rank);
        let (got_keys, got_payloads, got_states) = table.export();
        let want_keys: Vec<i64> = by_rank.iter().map(|&(key, _)| key).collect();
        assert_eq!(got_keys, want_keys, "{what}");
        let want_payload: Vec<i64> = by_rank.iter().map(|&(_, (_, p, _))| p).collect();
        assert_eq!(got_payloads, vec![want_payload], "{what}");
        for (a, got) in got_states.iter().enumerate() {
            let want: Vec<i64> = by_rank.iter().map(|&(_, (.., s))| s[a]).collect();
            assert_eq!(got, &want, "{:?}, {what}", AGGS[a]);
        }
        let groups = by_rank.len() as u64;
        assert_eq!(
            cost,
            (CostClass::HashAgg { groups }, keys.len() as u64),
            "{what}"
        );
    }
}

#[test]
fn hash_agg_matches_a_btreemap_fold() {
    for n in LENGTHS {
        for groups in [1usize, 4, 300] {
            // Keys arrive scrambled, so first-seen order is not key order;
            // 300 groups grow the 8-group table in mid-block.
            let keys: Vec<i64> = (0..n).map(|i| (i * 7919 % groups) as i64 - 2).collect();
            check_hash_agg(&[keys], &format!("{n} rows, {groups} groups"));
        }
    }
}

/// `n` keys covering every value of `lo..=lo + span` once `n > span`, in a
/// scrambled order.
fn spread(n: usize, lo: i64, span: i64) -> Vec<i64> {
    (0..n as i64).map(|i| lo + i * 7919 % (span + 1)).collect()
}

/// The launches on either side of the dense index's bounds (span below
/// `DENSE_SPAN` and below the launch's rows), and the launches where the
/// index is built over odd ground: negative keys, keys at both ends of
/// `i64`, groups first seen in mid-block and in a later launch, growth
/// while the index is in use.
#[test]
fn hash_agg_dense_and_hashed_launches_match_a_btreemap_fold() {
    let span = DENSE_SPAN as i64;
    let n = 3000;
    let rows_wide: Vec<i64> = (0..n as i64 - 1).chain([n as i64]).collect();
    let extremes: Vec<i64> = (0..n as i64)
        .map(|i| [i64::MIN + 1, i64::MAX, i % 5][i as usize % 3])
        .collect();
    // Four groups, eight from row 1000 (mid-block), ten from row 2500 (in
    // the second 2048-row block).
    let late: Vec<i64> = (0..n as i64)
        .map(|i| i % [4, 8, 10][(i >= 1000) as usize + (i >= 2500) as usize])
        .collect();
    let cases: [(&str, Vec<Vec<i64>>); 9] = [
        ("span DENSE_SPAN - 1 (dense)", vec![spread(n, 0, span - 1)]),
        ("span DENSE_SPAN (hashed)", vec![spread(n, 0, span)]),
        ("span rows - 1 (dense)", vec![(0..n as i64).collect()]),
        ("span = rows (hashed)", vec![rows_wide]),
        ("negative keys", vec![spread(n, -700, 600)]),
        ("just above i64::MIN", vec![spread(n, i64::MIN + 1, 6)]),
        ("up to i64::MAX", vec![spread(n, i64::MAX - 6, 6)]),
        ("i64::MIN + 1 and i64::MAX (hashed)", vec![extremes]),
        ("groups first seen late", vec![spread(n, 0, 3), late]),
    ];
    for (what, launches) in cases {
        check_hash_agg(&launches, what);
    }
}

/// Runs `hash_build` over `launches` (row ranges of `build`), then
/// `hash_probe` and `hash_probe_semi`, standalone and as one-stage fused
/// chains (a fused probe's output is its positions port), and returns
/// `(probe positions, payload outputs, semi bitmap)` once both agree.
fn build_and_probe(
    build: &[Vec<i64>],
    launches: &[Range<usize>],
    probe_keys: &[i64],
    payload_outs: usize,
) -> (Vec<u32>, Vec<Vec<i64>>, Vec<u64>) {
    let payload_cols = build.len() - 1;
    let mut p = pool();
    let table = JoinHashTable::with_capacity(8, payload_cols); // grows
    put(&mut p, 50, BufferData::Generic(Box::new(table)));
    for (launch, range) in launches.iter().enumerate() {
        let mut bufs = Vec::new();
        for (c, col) in build.iter().enumerate() {
            let id = (launch * 10 + c) as u64 + 100;
            put(&mut p, id, BufferData::I64(col[range.clone()].to_vec()));
            bufs.push(b(id));
        }
        bufs.push(b(50));
        let stats = join::hash_build(&mut p, &bufs, &[payload_cols as i64]).unwrap();
        assert_eq!(stats.elements, range.len() as u64);
    }
    put(&mut p, 60, BufferData::I64(probe_keys.to_vec()));
    let mut bufs = vec![b(60), b(50), b(61)];
    for c in 0..payload_outs as u64 + 1 {
        out(&mut p, 61 + c);
        bufs.push(b(62 + c));
    }
    bufs.pop();
    join::hash_probe(&mut p, &bufs, &[payload_outs as i64]).unwrap();
    let outs = (0..payload_outs as u64).map(|c| read_i64(&p, 62 + c));
    let outs: Vec<Vec<i64>> = outs.collect();
    let positions = read_u32(&p, 61);
    out(&mut p, 70);
    join::hash_probe_semi(&mut p, &[b(60), b(50), b(70)], &[]).unwrap();
    let semi = read_words(&p, 70);
    let one_stage = |kind, params: &[i64]| {
        let operands = vec![FusedOperand::External(0), FusedOperand::External(1)];
        let params = params.to_vec();
        encode(&[Stage {
            kind,
            operands,
            params,
        }])
    };
    let fused_probe = one_stage(PrimitiveKind::HashProbe, &[payload_outs as i64]);
    let fused_semi = one_stage(PrimitiveKind::HashProbeSemi, &[]);
    out(&mut p, 80);
    out(&mut p, 81);
    fused::fused(&mut p, &[b(60), b(50), b(80)], &fused_probe).unwrap();
    fused::fused(&mut p, &[b(60), b(50), b(81)], &fused_semi).unwrap();
    assert_eq!(read_u32(&p, 80), positions, "fused probe");
    assert_eq!(read_words(&p, 81), semi, "fused semi probe");
    (positions, outs, semi)
}

/// Builds `build_keys` (with the first `payload_cols` of `payloads`) over
/// `launches`, probes it with `probe_keys`, and holds every output to a
/// scan of the build side in insertion order per probe row.
fn check_join(
    build_keys: &[i64],
    payloads: &[Vec<i64>],
    launches: &[Range<usize>],
    probe_keys: &[i64],
    (payload_cols, payload_outs): (usize, usize),
    what: &str,
) {
    let build: Vec<Vec<i64>> = std::iter::once(build_keys.to_vec())
        .chain(payloads[..payload_cols].iter().cloned())
        .collect();
    let (positions, outs, semi) = build_and_probe(&build, launches, probe_keys, payload_outs);
    let mut want_positions = Vec::new();
    let mut want_outs = vec![Vec::new(); payload_outs];
    for (i, probe) in probe_keys.iter().enumerate() {
        for row in (0..build_keys.len()).filter(|&row| build_keys[row] == *probe) {
            want_positions.push(i as u32);
            for (c, out) in want_outs.iter_mut().enumerate() {
                out.push(payloads[c][row]);
            }
        }
    }
    let what = format!("{what}, {payload_outs} of {payload_cols} payloads");
    assert_eq!(positions, want_positions, "{what}");
    assert_eq!(outs, want_outs, "{what}");
    let want_semi = naive_bitmap(probe_keys.iter().map(|k| build_keys.contains(k)));
    assert_eq!(semi, want_semi, "{what}");
}

#[test]
fn join_build_and_probe_match_a_vec_scan() {
    let mut rng = Rng::new(46);
    for n in LENGTHS {
        // Every third build key is duplicated a few rows later; probe keys
        // include absent ones (and the sentinel, which matches nothing).
        let build_keys: Vec<i64> = (0..n as i64).map(|i| i * 5 % 97 - 3).collect();
        let probe_keys: Vec<i64> = (0..n as i64 / 2 + 3)
            .map(|i| [i * 11 % 120 - 10, i64::MIN][(i % 29 == 28) as usize])
            .collect();
        let payloads = [column(n, 6), column(n, 7)];
        let two_launches = [0..n / 3, n / 3..n];
        for counts in [(0, 0), (2, 2), (2, 1), (1, 0)] {
            let what = format!("{n} rows");
            check_join(
                &build_keys,
                &payloads,
                &two_launches,
                &probe_keys,
                counts,
                &what,
            );
        }
        // Keys repeating 1–7 times in shuffled order, built over launches
        // cut at seeded points (empty ones among them): a table without
        // payload columns keeps each key once with its count.
        let mut repeated: Vec<i64> = (0..n as i64)
            .flat_map(|k| std::iter::repeat_n(k * 3 - 40, rng.gen_range(1..=7usize)))
            .take(n)
            .collect();
        for i in (1..n).rev() {
            repeated.swap(i, rng.gen_range(0..=i));
        }
        let mut cuts: Vec<usize> = (0..4).map(|_| rng.gen_range(0..=n)).collect();
        cuts.extend([0, cuts[0], n]);
        cuts.sort_unstable();
        let launches: Vec<Range<usize>> = cuts.windows(2).map(|c| c[0]..c[1]).collect();
        let probe_keys: Vec<i64> = (-45..n as i64 * 3 / 4)
            .chain([i64::MIN, i64::MAX])
            .collect();
        for counts in [(0, 0), (2, 1)] {
            let what = format!("{n} repeated rows in {} launches", launches.len());
            check_join(&repeated, &payloads, &launches, &probe_keys, counts, &what);
        }
    }
}
