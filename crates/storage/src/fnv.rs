//! The three hashes of the engine: FNV-1a for hash maps and framing, a
//! one-multiply *key hash* for the kernels' open-addressing tables, and a
//! word-parallel *content hash* for everything that has to vouch for bulk
//! data.
//!
//! **FNV-1a** ([`FnvHasher`]). Hash maps keyed by small values want a fast,
//! deterministic hash; the std `SipHash` default is unnecessarily slow
//! there, and the usual `rustc-hash` crate is not on the allowed dependency
//! list, so we ship a ~40-line FNV-1a implementation. It is byte-serial —
//! eight dependent multiplies per `i64` — which is fine for map keys and for
//! the few framing integers of a checkpoint seal, and too slow both for
//! payloads and for the per-row hash of a join or an aggregation.
//!
//! **Key hash** ([`key_hash`]). The hash primitives (build, probe,
//! aggregate) hash every row's key, so theirs is a single lane step of the
//! content hash below: xor with a seed, one multiply, one rotation. The
//! rotation brings the product's 29 *high* bits — the ones every key bit
//! reaches — down to where a power-of-two table's `& mask` reads its slot,
//! so a table of up to 2^29 slots never looks at the product's weak low
//! bits. It is multiplicative (Fibonacci) hashing: consecutive keys and
//! TPC-H's sparse order keys land almost collision-free, while an
//! arithmetic progression whose stride happens to resonate with the
//! multiplier at one table size clusters (stride 2^8 in a 2^21-slot table
//! averages ~50 slots per chain). Results never depend on it — the tables
//! export in insertion order — only speed does.
//!
//! **Content hash** ([`content_hash`]). Transfer checksums, residency
//! fingerprints and the payload terms of the checkpoint seal all hash whole
//! columns, so they share one function that runs at memory speed: elements
//! are packed into 64-bit words ([`Content`] says how, per payload kind) and
//! cut into blocks of [`BLOCK_WORDS`] (512) words. A block's words are dealt
//! round-robin onto eight independent lanes started from fixed seeds, each
//! stepping `h = ((h ^ w) * M).rotate_left(R)`, and the lanes are folded, in
//! order, with the same step into the block's *digest*. The digests are
//! chained, starting from the first digest (an empty payload is one empty
//! block), each link a step from the chain's state turned by the lane
//! rotation, and a finalizer steps in the element count and the
//! payload-kind tag. A payload of at most one block is thus hashed exactly
//! as a single run of the lane loop hashes it. The lanes carry no dependency
//! on each other, so the multiplies of one round overlap; all arithmetic is
//! wrapping, so debug and release builds agree to the bit.
//!
//! *Why blocks.* A digest depends on its own block's words and nothing else,
//! so the digests of immutable rows can be kept ([`BlockDigests`]). The hash
//! of a range of those rows that starts on the block grid, and ends on it or
//! at the end of the rows, is then a fold over kept digests — one step per
//! 4 KiB — instead of a pass over the rows: the sender of a chunk upload
//! reads its checksum from the column's memo (`crate::SharedRows`). The
//! price is one fold per block on every pass that hashes from scratch: 9
//! steps per 512, which measured 1.7 % of `content_hash`'s throughput on
//! 64 KiB chunks (20.4 → 20.1 GB/s, a 2-vCPU Xeon VM).
//!
//! *Detection guarantee.* One step is a bijection of the state for a fixed
//! word and of the word for a fixed state (xor, multiplication by an odd
//! constant and rotation are all invertible on `u64`). Every link from a
//! word to the hash is such a step, with everything else held fixed: the
//! word's lane step and the later steps of its lane, the lane fold into the
//! block's digest, the chain over the digests and the finalizer. Any damage
//! confined to a single 64-bit word — every single-bit flip, every change to
//! one element — therefore changes the hash with certainty, which is what
//! byte-serial FNV-1a guaranteed before. Damage spread over several words is
//! caught with probability 1 − 2⁻⁶⁴, not certainty. The rotation is there
//! for that second case: without it a difference can only travel towards
//! bit 63, and two flipped sign bits in one lane would cancel. So is the
//! chained lane fold: folding lanes by xor would cancel two sign-bit flips
//! in two lanes of one block with certainty, since
//! `step(h, w) ^ step(h, w ^ 1 << 63)` is `1 << 28` for every `h` and `w`.

use std::hash::Hasher;
use std::ops::Range;

/// FNV-1a, 64-bit.
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

/// Independent lanes of the content hash. Eight keep a 3-cycle multiplier
/// busy every cycle; the hash is defined by this number, so changing it
/// changes every pinned vector.
const LANES: usize = 8;

/// Rounds of lanes per block. A block of [`BLOCK_WORDS`] words is hashed on
/// fresh lanes; 4 KiB is still in the first-level cache when the lane loop's
/// rider (the copy of [`copy_and_hash`]) reads it again, and few enough
/// blocks that the per-block fold stays a small share of the loop.
const BLOCK_ROUNDS: usize = 64;

/// Words per block: the grid a [`BlockDigests`] memo serves ranges on.
pub const BLOCK_WORDS: usize = LANES * BLOCK_ROUNDS;

const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const LANE_ROT: u32 = 29;

/// One step of a lane (and of the finalizer): a bijection of `h` for a
/// fixed `w` and of `w` for a fixed `h`.
#[inline(always)]
const fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(LANE_MUL).rotate_left(LANE_ROT)
}

/// Hashes one `i64` key for the open-addressing tables of the device
/// kernels (which never go through `Hasher`): one lane step, so the low 29
/// bits a power-of-two table masks out are the product's high bits.
#[inline(always)]
pub const fn key_hash(key: i64) -> u64 {
    step(FNV_OFFSET, key as u64)
}

/// Distinct start states, so equal words on different lanes (and a swap of
/// two neighbouring elements) do not hash alike.
const LANE_SEEDS: [u64; LANES] = {
    let mut seeds = [0; LANES];
    let mut i = 0;
    while i < LANES {
        seeds[i] = step(FNV_OFFSET, i as u64);
        i += 1;
    }
    seeds
};

/// Typed bulk data as the content hash sees it: which payload kind it is and
/// how its elements pack into 64-bit words. The kind is part of the hash, so
/// payloads of different kinds never verify against each other even when
/// their bits agree, and so is the element count, so a prefix never verifies
/// against the whole.
#[derive(Clone, Copy, Debug)]
pub enum Content<'a> {
    /// 64-bit integers, one per word.
    I64(&'a [i64]),
    /// 32-bit positions, two per word, the earlier one in the low half.
    U32(&'a [u32]),
    /// Packed bitmap words, one per word.
    BitWords(&'a [u64]),
    /// Raw bytes, eight per word, little-endian.
    Raw(&'a [u8]),
    /// The structural marker of an opaque device-resident structure (a hash
    /// table is built *on* the device and never crosses the bus, so only
    /// its shape is vouched for).
    Opaque {
        /// Logical element count.
        len: u64,
        /// Bytes occupied in device memory.
        byte_len: u64,
    },
}

/// The kind tag of [`Content::I64`].
const I64_KIND: u64 = 1;

/// The content hash of `content` (see the module docs for the construction
/// and its detection guarantee). A trailing partial word is zero-padded; the
/// element count in the finalizer keeps it apart from real zeros. Kind tag 2
/// is unused (it was a float payload's); the others keep their numbers.
pub fn content_hash(content: Content<'_>) -> u64 {
    match content {
        Content::I64(v) => hash_i64(v, |_| {}),
        Content::U32(v) => lane_hash::<_, 2>(3, v, |e| {
            e.iter().rev().fold(0, |w, &x| w << 32 | u64::from(x))
        }),
        Content::BitWords(v) => lane_hash::<_, 1>(4, v, |e| e[0]),
        Content::Raw(v) => lane_hash::<_, 8>(5, v, |e| {
            let mut bytes = [0; 8];
            bytes[..e.len()].copy_from_slice(e);
            u64::from_le_bytes(bytes)
        }),
        Content::Opaque { len, byte_len } => lane_hash::<_, 1>(6, &[len, byte_len], |e| e[0]),
    }
}

/// `(src.to_vec(), content_hash(Content::I64(src)))` from one pass over
/// `src`: an upload's sender checksum and the device's copy. The copy rides
/// along in the hash's lane loop, a block at a time while the block is
/// still in the first-level cache, so no byte of the source is fetched from
/// memory twice (15.8 against 12.3 GB/s for `content_hash` + `to_vec` on
/// 64 KiB chunks on the development box; copying round by round instead of
/// block by block measured no better than two passes — the loop is bound
/// by instructions issued, not by its multiplies).
pub fn copy_and_hash(src: &[i64]) -> (Vec<i64>, u64) {
    let mut copy = Vec::with_capacity(src.len());
    let hash = hash_i64(src, |block| copy.extend_from_slice(block));
    (copy, hash)
}

/// [`Content::I64`] through the lane loop; `also` sees every block.
#[inline(always)]
fn hash_i64(v: &[i64], also: impl FnMut(&[i64])) -> u64 {
    lane_hash_also::<_, 1>(I64_KIND, v, i64_word, also)
}

#[inline(always)]
fn i64_word(e: &[i64]) -> u64 {
    e[0] as u64
}

/// [`lane_hash_also`] with nothing riding along.
#[inline(always)]
fn lane_hash<T, const W: usize>(kind: u64, elems: &[T], word: impl Fn(&[T]) -> u64) -> u64 {
    lane_hash_also::<T, W>(kind, elems, word, |_| {})
}

/// The one lane loop: `W` elements make a word (`word` packs them, fewer
/// than `W` only at the very end), blocks of [`BLOCK_WORDS`] words are
/// digested one by one ([`block_digest`]), the digests are chained
/// ([`link`]), and [`finish`] adds element count and `kind`. `also` is handed
/// each block (the last one may be short) right after it was dealt, in
/// order — the copy, for [`copy_and_hash`].
#[inline(always)]
fn lane_hash_also<T, const W: usize>(
    kind: u64,
    elems: &[T],
    word: impl Fn(&[T]) -> u64,
    mut also: impl FnMut(&[T]),
) -> u64 {
    let mut blocks = elems.chunks(BLOCK_WORDS * W);
    // An empty payload is one empty block.
    let first = blocks.next().unwrap_or_default();
    let mut chain = block_digest::<T, W>(first, &word);
    also(first);
    for block in blocks {
        chain = link(chain, block_digest::<T, W>(block, &word));
        also(block);
    }
    finish(chain, elems.len(), kind)
}

/// One block's digest: its words dealt round-robin onto lanes started from
/// [`LANE_SEEDS`], the lanes folded in order.
#[inline(always)]
fn block_digest<T, const W: usize>(block: &[T], word: &impl Fn(&[T]) -> u64) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut deal = |round: &[T]| {
        for (lane, e) in lanes.iter_mut().zip(round.chunks(W)) {
            *lane = step(*lane, word(e));
        }
    };
    let mut rounds = block.chunks_exact(LANES * W);
    rounds.by_ref().for_each(&mut deal);
    // Only the last block can end in a partial round.
    deal(rounds.remainder());
    lanes.iter().fold(FNV_OFFSET, |h, &lane| step(h, lane))
}

/// The chain of a run of block digests: the first digest, linked with each
/// later one; no digests at all chain like one empty block.
fn chain(digests: &[u64]) -> u64 {
    match digests.split_first() {
        Some((&first, rest)) => rest.iter().fold(first, |h, &d| link(h, d)),
        None => block_digest::<i64, 1>(&[], &i64_word),
    }
}

/// One link of the chain: a lane step from the state turned by the lane
/// rotation. `step` xors state and digest, so without the turn the first
/// link, `step(d0, d1)`, would be symmetric: two equal first blocks would
/// chain to `step(d, d) = 0` whatever they hold, and swapped first blocks
/// would collide, both with certainty. An odd turn makes the two collide
/// only when `d1` is `d0` or `!d0`. Still a bijection of the state and of
/// the digest.
#[inline(always)]
fn link(h: u64, digest: u64) -> u64 {
    step(h.rotate_left(LANE_ROT), digest)
}

/// The finalizer: the chain, then the element count, then the kind tag.
#[inline(always)]
fn finish(chain: u64, len: usize, kind: u64) -> u64 {
    step(step(chain, len as u64), kind)
}

/// The block digests of `i64` rows, kept so that the content hash of any
/// block-aligned range of them is a fold over the digests instead of a pass
/// over the rows. Immutable rows memoise it once ([`crate::SharedRows`]);
/// their whole-rows hash is the fold of every digest.
#[derive(Clone, Debug)]
pub struct BlockDigests {
    digests: Vec<u64>,
    rows: usize,
    whole: u64,
}

impl BlockDigests {
    /// Digests `rows`, one pass.
    pub fn new(rows: &[i64]) -> Self {
        let digests: Vec<u64> = rows
            .chunks(BLOCK_WORDS)
            .map(|block| block_digest::<_, 1>(block, &i64_word))
            .collect();
        let whole = finish(chain(&digests), rows.len(), I64_KIND);
        BlockDigests {
            digests,
            rows: rows.len(),
            whole,
        }
    }

    /// `content_hash(Content::I64(rows))`.
    pub fn content_hash(&self) -> u64 {
        self.whole
    }

    /// `content_hash(Content::I64(&rows[range]))`, folded from the memo, if
    /// the memo serves `range`: it starts on the block grid and ends on it
    /// or at the end of the rows ([`Self::serves`]).
    pub fn range_hash(&self, range: Range<usize>) -> Option<u64> {
        if !Self::serves(&range, self.rows) {
            return None;
        }
        let blocks = &self.digests[range.start / BLOCK_WORDS..range.end.div_ceil(BLOCK_WORDS)];
        Some(finish(chain(blocks), range.len(), I64_KIND))
    }

    /// Whether a memo of `rows` rows answers for `range`: a range within the
    /// rows that starts on the block grid and ends on it or at the end of
    /// the rows. Every chunk grid of a power of two ≥ [`BLOCK_WORDS`] rows
    /// cuts only such ranges.
    pub fn serves(range: &Range<usize>, rows: usize) -> bool {
        range.start <= range.end
            && range.end <= rows
            && range.start.is_multiple_of(BLOCK_WORDS)
            && (range.end.is_multiple_of(BLOCK_WORDS) || range.end == rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::hash::BuildHasherDefault;

    type FnvHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;
    type FnvHashSet<K> = HashSet<K, BuildHasherDefault<FnvHasher>>;

    #[test]
    fn deterministic() {
        assert_eq!(key_hash(42), key_hash(42));
        assert_ne!(key_hash(42), key_hash(43));
    }

    #[test]
    fn map_works() {
        let mut m: FnvHashMap<i64, i64> = FnvHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }

    #[test]
    fn set_works() {
        let mut s: FnvHashSet<i64> = FnvHashSet::default();
        s.insert(1);
        s.insert(1);
        assert_eq!(s.len(), 1);
    }

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = FnvHasher::default();
        h.write(bytes);
        h.finish()
    }

    /// `FnvHasher` frames the checkpoint seal: it must stay FNV-1a.
    #[test]
    fn fnv1a_values_are_pinned() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"adamant"), 4752523004036885811);
        let le: Vec<u8> = [1i64, -2, 3].iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(fnv(&le), 12535802931127841918);
    }

    /// The content hash crosses the simulated bus, validates cache pins and
    /// seals checkpoints: it must not drift, in either build profile.
    #[test]
    fn content_hash_values_are_pinned() {
        let pinned = [
            (Content::I64(&[]), 12490462554737973041),
            (Content::I64(&[1, -2, 3]), 11357866896077846762),
            (Content::U32(&[7, 8, 9]), 7385504724775396070),
            (Content::BitWords(&[0xdead_beef, 1]), 13642631494642883280),
            (Content::Raw(b"adamant"), 16667896223839231331),
            (
                Content::Opaque {
                    len: 3,
                    byte_len: 96,
                },
                1208769418905113923,
            ),
        ];
        for (content, want) in pinned {
            assert_eq!(content_hash(content), want, "{content:?}");
        }
        // Seventeen blocks, the last of one word: sixteen links of the chain.
        let long: Vec<i64> = (0..8193).map(|i| i * 7919 - 5).collect();
        assert_eq!(content_hash(Content::I64(&long)), 18338899663117555845);
    }

    /// Payloads of at most one block of words: the vectors a change to how
    /// blocks combine must leave alone, for every kind.
    #[test]
    fn one_block_payloads_are_pinned() {
        let ints = |n: i64| (0..n).map(|i| i * 7919 - 5).collect::<Vec<i64>>();
        let i64s = [0, 1, 7, 8, 9, 511, 512].map(|n| content_hash(Content::I64(&ints(n))));
        let pinned = [
            12490462554737973041,
            867091547938509552,
            6483284975646443003,
            2234594952282012446,
            13745877225390005603,
            6126108834525517751,
            16181567066443204772,
        ];
        assert_eq!(i64s, pinned);
        let block = ints(512);
        let u32s: Vec<u32> = ints(1024).iter().map(|&x| x as u32).collect();
        let words: Vec<u64> = block.iter().map(|&x| (x as u64).rotate_left(17)).collect();
        let bytes: Vec<u8> = ints(4096).iter().map(|&x| x as u8).collect();
        let others = [
            content_hash(Content::U32(&u32s)),
            content_hash(Content::BitWords(&words)),
            content_hash(Content::Raw(&bytes)),
        ];
        let pinned = [
            13646678284692971088,
            12602660973745981441,
            17358018227982836142,
        ];
        assert_eq!(others, pinned);
    }

    /// Lengths around the lane count, around one, two and three blocks, and
    /// around a chunk of 2^13 rows.
    const LENGTHS: [usize; 15] = [
        0, 1, 3, 4, 5, 511, 512, 513, 1023, 1024, 1025, 1543, 8191, 8192, 8193,
    ];

    /// Every single-element change the fault injector (or anything else) can
    /// make is caught: the low bit of every element of every length, one at
    /// a time, no sampling. Bit 63 and a swap with the right-hand neighbour
    /// are tried everywhere on the short lengths and, on the long ones, in
    /// the first and last two rounds of lanes of the payload and of every
    /// block (so every swap across a block edge) plus every 61st position.
    #[test]
    fn every_single_element_change_is_detected() {
        for n in LENGTHS {
            let mut v: Vec<i64> = (0..n as i64).map(|i| i * 7919 - 5).collect();
            let clean = content_hash(Content::I64(&v));
            for i in 0..n {
                v[i] ^= 1;
                assert_ne!(
                    content_hash(Content::I64(&v)),
                    clean,
                    "len {n}, low bit of [{i}]"
                );
                v[i] ^= 1;
                let in_block = i % BLOCK_WORDS;
                let near_edge = !(2 * LANES..BLOCK_WORDS - 2 * LANES).contains(&in_block);
                if i >= 2 * LANES && i + 2 * LANES < n && i % 61 != 0 && !near_edge {
                    continue;
                }
                v[i] ^= 1 << 63;
                assert_ne!(
                    content_hash(Content::I64(&v)),
                    clean,
                    "len {n}, bit 63 of [{i}]"
                );
                v[i] ^= 1 << 63;
                if i + 1 < n {
                    v.swap(i, i + 1);
                    assert_ne!(
                        content_hash(Content::I64(&v)),
                        clean,
                        "len {n}, swap at {i}"
                    );
                    v.swap(i, i + 1);
                }
            }
            assert_eq!(content_hash(Content::I64(&v)), clean, "len {n} restored");
        }
    }

    /// Damage to several words is caught with probability 1 − 2⁻⁶⁴, not
    /// certainty; these are the shapes a weaker combination of lanes or
    /// blocks would miss for sure: sign-bit flips in two lanes of one block
    /// (an xor fold of the lanes cancels them), the same flip in the same
    /// lane of two blocks (an xor of the digests cancels it), and two whole
    /// blocks swapped or repeated (an unordered or unturned chain of the
    /// digests misses both).
    #[test]
    fn multi_word_damage_across_lanes_and_blocks_is_detected() {
        let clean: Vec<i64> = (0..2000).map(|i| i * 7919 - 5).collect();
        let hash = |v: &[i64]| content_hash(Content::I64(v));
        let flipped = |at: &[usize]| {
            let mut v = clean.clone();
            at.iter().for_each(|&i| v[i] ^= 1 << 63);
            hash(&v)
        };
        for pair in [[0, 1], [3, 4 + 5 * LANES], [600, 607], [1024, 1024 + 7]] {
            assert_ne!(
                flipped(&pair),
                hash(&clean),
                "two lanes of a block: {pair:?}"
            );
        }
        for lane_word in [0, 5, 100, 511] {
            let pair = [lane_word, lane_word + BLOCK_WORDS];
            assert_ne!(
                flipped(&pair),
                hash(&clean),
                "one lane, two blocks: {pair:?}"
            );
        }
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            let mut v = clean.clone();
            let (x, y) = (a * BLOCK_WORDS, b * BLOCK_WORDS);
            let block_a = v[x..x + BLOCK_WORDS].to_vec();
            v.copy_within(y..y + BLOCK_WORDS, x);
            v[y..y + BLOCK_WORDS].copy_from_slice(&block_a);
            assert_ne!(hash(&v), hash(&clean), "blocks {a} and {b} swapped");
        }
        let twice = |x: i64| hash(&[x; 2 * BLOCK_WORDS]);
        assert_ne!(twice(0), twice(1), "a block repeated");
    }

    /// The memo answers for exactly the ranges that start on the block grid
    /// and end on it or at the end of the rows, with the hash of the range;
    /// every other range is left to a fresh hash.
    #[test]
    fn block_digests_fold_to_the_range_hash() {
        let rows: Vec<i64> = (0..7 * BLOCK_WORDS as i64 / 2)
            .map(|i| i * 7919 - 5)
            .collect();
        let memo = BlockDigests::new(&rows);
        assert_eq!(memo.content_hash(), content_hash(Content::I64(&rows)));
        let len = rows.len();
        let mut cuts: Vec<usize> = (0..=len)
            .filter(|&i| [0, 1, BLOCK_WORDS - 1].contains(&(i % BLOCK_WORDS)))
            .chain([len - 1, len])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut served = 0;
        for &a in &cuts {
            for &b in &cuts {
                let got = memo.range_hash(a..b);
                let on_grid =
                    a.is_multiple_of(BLOCK_WORDS) && (b.is_multiple_of(BLOCK_WORDS) || b == len);
                if a > b || !on_grid {
                    assert_eq!(got, None, "{a}..{b}");
                    continue;
                }
                served += 1;
                assert_eq!(
                    got,
                    Some(content_hash(Content::I64(&rows[a..b]))),
                    "{a}..{b}"
                );
            }
        }
        // From 0, 512, 1024 and 1536: to themselves (empty), to every later
        // grid point and to the end.
        assert_eq!(served, 5 + 4 + 3 + 2);
        assert_eq!(memo.range_hash(0..len + 1), None);
        let empty = BlockDigests::new(&[]);
        assert_eq!(empty.content_hash(), content_hash(Content::I64(&[])));
        assert_eq!(empty.range_hash(0..0), Some(empty.content_hash()));
    }

    /// The fused pass is the plain copy and the plain hash, for every length
    /// (empty, shorter than a round, ending on and around a round and a
    /// block of rounds).
    #[test]
    fn copy_and_hash_is_to_vec_and_content_hash() {
        let block = LANES * BLOCK_ROUNDS;
        for n in LENGTHS
            .into_iter()
            .chain([7, 8, 9, 17, block - 1, block, block + 9])
        {
            let src: Vec<i64> = (0..n as i64).map(|i| i * 7919 - 5).collect();
            let want = (src.to_vec(), content_hash(Content::I64(&src)));
            assert_eq!(copy_and_hash(&src), want, "len {n}");
        }
    }

    /// The packed kinds: a flip in either half of a `u32` pair and in any
    /// byte of a raw word, including the zero-padded trailing word.
    #[test]
    fn packed_elements_are_detected_too() {
        for n in [0, 1, 2, 3, 15, 16, 17, 33] {
            let mut u: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(40503)).collect();
            let clean = content_hash(Content::U32(&u));
            for i in 0..n {
                for bit in [0, 31] {
                    u[i] ^= 1 << bit;
                    assert_ne!(content_hash(Content::U32(&u)), clean, "u32 len {n}, [{i}]");
                    u[i] ^= 1 << bit;
                }
            }
        }
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 71] {
            let mut b: Vec<u8> = (0..n).map(|i| (i * 37) as u8).collect();
            let clean = content_hash(Content::Raw(&b));
            for i in 0..n {
                for bit in [0, 7] {
                    b[i] ^= 1 << bit;
                    assert_ne!(content_hash(Content::Raw(&b)), clean, "raw len {n}, [{i}]");
                    b[i] ^= 1 << bit;
                }
            }
        }
    }

    /// Kind and element count are part of the hash.
    #[test]
    fn kind_and_count_are_hashed() {
        let x = 0x4045_0000_0000_0000u64;
        let same_bits = [
            content_hash(Content::I64(&[x as i64])),
            content_hash(Content::BitWords(&[x])),
            content_hash(Content::Raw(&x.to_le_bytes())),
            content_hash(Content::U32(&[x as u32, (x >> 32) as u32])),
        ];
        let empties = [
            content_hash(Content::I64(&[])),
            content_hash(Content::U32(&[])),
            content_hash(Content::BitWords(&[])),
            content_hash(Content::Raw(&[])),
        ];
        let counts = [
            content_hash(Content::I64(&[])),
            content_hash(Content::I64(&[0])),
            content_hash(Content::I64(&[0, 0])),
            content_hash(Content::U32(&[0])),
            content_hash(Content::U32(&[0, 0])),
            content_hash(Content::Raw(&[0; 7])),
            content_hash(Content::Raw(&[0; 8])),
        ];
        for set in [&same_bits[..], &empties[..], &counts[..]] {
            let distinct: FnvHashSet<u64> = set.iter().copied().collect();
            assert_eq!(distinct.len(), set.len(), "{set:?}");
        }
    }

    /// The key hash decides nothing but speed, yet a drift would silently
    /// move every probe-chain bound below: pinned, in either build profile.
    #[test]
    fn key_hash_values_are_pinned() {
        let pinned = [
            (0, 4355149894933508697),
            (1, 902771882796811042),
            (42, 2189809929743688603),
            (-1, 10639216167713087087),
            (i64::MAX, 10639216167981522543),
            (i64::MIN, 4355149894665073241),
        ];
        for (key, want) in pinned {
            assert_eq!(key_hash(key), want, "{key}");
        }
    }

    /// Longest probe chain when `key(0..n)` are inserted, in order, into a
    /// linear-probing table sized like the kernels' (load <= 0.5).
    fn longest_chain(n: i64, key: impl Fn(i64) -> i64) -> usize {
        let capacity = (n.max(8) as usize * 2).next_power_of_two();
        let mut taken = vec![false; capacity];
        let mut longest = 0;
        for key in (0..n).map(key) {
            let mut slot = key_hash(key) as usize & (capacity - 1);
            let mut chain = 1;
            while taken[slot] {
                slot = (slot + 1) & (capacity - 1);
                chain += 1;
            }
            taken[slot] = true;
            longest = longest.max(chain);
        }
        longest
    }

    /// The key shapes the workloads produce — consecutive keys, multiples of
    /// 32, TPC-H's order keys (8 of every 32) and multiples of 2^k — at the
    /// table sizes they produce them (a thousand to 64 Ki entries, load 0.5)
    /// keep every probe chain at or under 16 slots, two cache lines of keys.
    /// (Byte-serial FNV-1a masked to its low bits reached 35 on the same
    /// inputs.)
    #[test]
    fn spreads_small_keys() {
        const BOUND: usize = 16;
        for n in [1000i64, 15_000, 32_768, 65_536] {
            assert!(longest_chain(n, |i| i) <= 2, "sequential, {n} keys");
            let sparse = longest_chain(n, |i| i / 8 * 32 + i % 8);
            assert!(sparse <= BOUND, "8 of 32, {n} keys: {sparse}");
            for k in 0..=20 {
                let longest = longest_chain(n, |i| i << k);
                assert!(longest <= BOUND, "multiples of 2^{k}, {n} keys: {longest}");
            }
        }
    }
}
