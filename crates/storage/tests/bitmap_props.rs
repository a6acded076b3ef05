//! Randomized tests: bit-packed structures against `Vec<bool>` oracles.
//!
//! Driven by the workspace's deterministic [`Rng`] — every case is seeded,
//! so a failure reproduces exactly without a stored regression corpus.

use adamant_storage::bitmap::Bitmap;
use adamant_storage::rng::Rng;

const CASES: u64 = 128;

fn random_bools(rng: &mut Rng, max_len: usize) -> Vec<bool> {
    let n = rng.gen_range(0usize..=max_len);
    (0..n).map(|_| rng.gen_bool(0.5)).collect()
}

#[test]
fn bitmap_matches_bool_vec() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xB17_0000 + case);
        let bools = random_bools(&mut rng, 500);
        let bm = Bitmap::from_bools(&bools);
        assert_eq!(bm.len(), bools.len());
        assert_eq!(bm.count_ones(), bools.iter().filter(|&&b| b).count());
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(bm.get(i), b);
        }
        let ones: Vec<usize> = bm.iter_ones().collect();
        let expected: Vec<usize> = bools
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        assert_eq!(ones, expected);
    }
}

#[test]
fn words_roundtrip_preserves_set_bits() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x60D5 + case * 7);
        let n_words = rng.gen_range(0usize..8);
        let words: Vec<u64> = (0..n_words).map(|_| rng.next_u64()).collect();
        let extra = rng.gen_range(0usize..63);
        let len = words.len() * 64 - if words.is_empty() { 0 } else { extra };
        let bm = Bitmap::from_words(words.clone(), len);
        // No bit beyond len survives.
        assert!(bm.iter_ones().all(|i| i < len));
        // Bits within len match the source words.
        for i in 0..len {
            assert_eq!(bm.get(i), (words[i / 64] >> (i % 64)) & 1 == 1);
        }
    }
}
