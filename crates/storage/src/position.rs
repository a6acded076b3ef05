//! Position lists — the second intermediate format of `FILTER_POSITION`.

/// A list of selected row positions (ascending unless produced by a join).
///
/// `FILTER_POSITION` emits a position list instead of a bitmap when late
/// materialization with random access is preferred; `HASH_PROBE` emits a pair
/// of position lists (left/right join sides).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PositionList {
    positions: Vec<u32>,
}

impl PositionList {
    /// Creates an empty list.
    pub fn new() -> Self {
        PositionList::default()
    }

    /// Creates an empty list with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        PositionList {
            positions: Vec::with_capacity(cap),
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when no positions are selected.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Appends one position.
    #[inline]
    pub fn push(&mut self, pos: u32) {
        self.positions.push(pos);
    }

    /// The positions as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.positions
    }

    /// Size of the representation in bytes.
    pub fn byte_len(&self) -> usize {
        self.positions.len() * 4
    }
}

impl FromIterator<u32> for PositionList {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        PositionList {
            positions: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_iterator_and_push() {
        let mut pl: PositionList = [5u32, 9].into_iter().collect();
        pl.push(11);
        assert_eq!(pl.len(), 3);
        assert_eq!(pl.byte_len(), 12);
    }
}
