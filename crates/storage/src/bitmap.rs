//! Bit-packed selection bitmaps.
//!
//! `FILTER_BITMAP` produces one bit per input row; `MATERIALIZE` consumes the
//! bitmap to extract qualifying values. The paper highlights that bit
//! extraction is comparatively expensive on SIMT devices (Fig. 9b) because
//! multiple lanes share one word — the packed representation here is the same
//! one word / 64 rows layout.

use std::fmt;

/// A bit-packed bitmap over `len` rows, one bit per row.
///
/// Bits are stored little-endian within `u64` words: row `i` lives in word
/// `i / 64`, bit `i % 64`.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an all-zero bitmap covering `len` rows.
    pub fn new_zeroed(len: usize) -> Self {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a bitmap from a slice of booleans.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut bm = Bitmap::new_zeroed(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                bm.set(i);
            }
        }
        bm
    }

    /// Reconstructs a bitmap from raw words (e.g. after a device transfer).
    ///
    /// Any bits beyond `len` in the final word are cleared.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        let mut bm = Bitmap { words, len };
        bm.words.resize(len.div_ceil(64), 0);
        bm.mask_tail();
        bm
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets row `i` (marks it selected).
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Returns whether row `i` is selected.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of selected rows.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the indices of selected rows, ascending.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            bm: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// A sub-bitmap covering rows `offset..offset + count` (clamped to len).
    ///
    /// Used when slicing filter results chunk-wise.
    pub fn slice(&self, offset: usize, count: usize) -> Bitmap {
        let end = (offset + count).min(self.len);
        let mut out = Bitmap::new_zeroed(end.saturating_sub(offset));
        for i in offset..end {
            if self.get(i) {
                out.set(i - offset);
            }
        }
        out
    }

    fn mask_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap(len={}, ones={})", self.len, self.count_ones())
    }
}

/// Iterator over selected row indices of a [`Bitmap`].
pub struct OnesIter<'a> {
    bm: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * 64 + bit;
                if idx < self.bm.len {
                    return Some(idx);
                } else {
                    return None;
                }
            }
            self.word_idx += 1;
            if self.word_idx >= self.bm.words.len() {
                return None;
            }
            self.current = self.bm.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_ones() {
        let z = Bitmap::new_zeroed(130);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.len(), 130);
        let o = Bitmap::from_bools(&[true; 130]);
        assert_eq!(o.count_ones(), 130);
    }

    #[test]
    fn set_get_clear() {
        let mut bm = Bitmap::new_zeroed(100);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(99);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(99));
        assert!(!bm.get(1) && !bm.get(65));
        // Rows never set read clear.
        assert_eq!(bm.count_ones(), 4);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), [0, 63, 64, 99]);
    }

    #[test]
    fn from_bools_roundtrip() {
        let bools: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let bm = Bitmap::from_bools(&bools);
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(bm.get(i), b, "row {i}");
        }
    }

    #[test]
    fn iter_ones_matches_get() {
        let bools: Vec<bool> = (0..300).map(|i| (i * 7) % 11 < 4).collect();
        let bm = Bitmap::from_bools(&bools);
        let ones: Vec<usize> = bm.iter_ones().collect();
        let expected: Vec<usize> = bools
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        assert_eq!(ones, expected);
    }

    #[test]
    fn slice_covers_its_range() {
        let bools: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let bm = Bitmap::from_bools(&bools);
        let s = bm.slice(10, 20);
        assert_eq!(s.len(), 20);
        assert_eq!(s.count_ones(), 10);
    }

    #[test]
    fn from_words_clears_extra_bits() {
        let bm = Bitmap::from_words(vec![u64::MAX], 3);
        assert_eq!(bm.count_ones(), 3);
    }
}
