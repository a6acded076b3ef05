//! Chunk views over tables.
//!
//! The chunked execution models (paper §IV-B) stream fixed-size chunks of the
//! scanned input through a pipeline. [`ChunkView`] describes one such chunk;
//! [`Chunker`] iterates the chunks of a table deterministically.

use crate::table::Table;

/// A half-open row range `[offset, offset + len)` of a table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkView {
    /// Index of this chunk (0-based).
    pub index: usize,
    /// First row covered.
    pub offset: usize,
    /// Number of rows covered (the final chunk may be short).
    pub len: usize,
}

impl ChunkView {
    /// One-past-the-end row.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }
}

/// Iterator over the chunks of `row_count` rows with a given chunk size.
#[derive(Clone, Debug)]
pub struct Chunker {
    row_count: usize,
    chunk_rows: usize,
    next_offset: usize,
    next_index: usize,
}

impl Chunker {
    /// Creates a chunker; `chunk_rows` must be nonzero.
    pub fn new(row_count: usize, chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "chunk size must be nonzero");
        Chunker {
            row_count,
            chunk_rows,
            next_offset: 0,
            next_index: 0,
        }
    }

    /// Chunker over a table's rows.
    pub fn over(table: &Table, chunk_rows: usize) -> Self {
        Chunker::new(table.row_count(), chunk_rows)
    }
}

impl Iterator for Chunker {
    type Item = ChunkView;

    fn next(&mut self) -> Option<ChunkView> {
        if self.next_offset >= self.row_count {
            return None;
        }
        let len = self.chunk_rows.min(self.row_count - self.next_offset);
        let view = ChunkView {
            index: self.next_index,
            offset: self.next_offset,
            len,
        };
        self.next_offset += len;
        self.next_index += 1;
        Some(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn exact_division() {
        let chunks: Vec<_> = Chunker::new(100, 25).collect();
        assert_eq!(chunks.len(), 4);
        assert_eq!(
            chunks[0],
            ChunkView {
                index: 0,
                offset: 0,
                len: 25
            }
        );
        assert_eq!(
            chunks[3],
            ChunkView {
                index: 3,
                offset: 75,
                len: 25
            }
        );
        assert_eq!(chunks[3].end(), 100);
    }

    #[test]
    fn ragged_tail() {
        let chunks: Vec<_> = Chunker::new(10, 4).collect();
        assert_eq!(
            chunks.iter().map(|c| c.len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(Chunker::new(0, 8).count(), 0);
    }

    #[test]
    fn over_table() {
        let t = Table::new("t", vec![Column::from_i32("x", (0..7).collect())]).unwrap();
        let chunks: Vec<_> = Chunker::over(&t, 3).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2].len, 1);
    }

    #[test]
    #[should_panic(expected = "chunk size must be nonzero")]
    fn zero_chunk_panics() {
        let _ = Chunker::new(10, 0);
    }
}
