//! Typed columns.
//!
//! **Bind by reference.** The devices compute on `i64` rows, and a column
//! is immutable once built, so it hands those rows out shared, never
//! copied: [`Column::shared_rows`] returns a [`SharedRows`] — the rows
//! behind one `Arc` and, beside them, the cell that remembers their block
//! digests. An `Int64` column's storage *is* that `Arc`; a narrower column
//! (`Int32`, `Date`, dictionary codes) is widened once, on first use, into
//! a memo beside its storage. Rows and cell are paired in exactly one
//! place, [`SharedRows::new`], and travel together from then on, so the
//! memo is keyed by nothing that could outlive what it describes.

use crate::datatype::{DataType, Value};
use crate::error::StorageError;
use crate::fnv::BlockDigests;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Immutable `i64` rows shared by reference, paired with the memo of their
/// block digests: the fold of all of them is the rows' content hash (at once
/// the sender checksum of uploading them whole and their residency
/// fingerprint), and a fold of a block-aligned run of them is the sender
/// checksum of uploading that range.
///
/// A clone is two reference-count bumps and shares both the rows and the
/// memo: whoever hashes first, hashes for every holder.
#[derive(Clone, Debug)]
pub struct SharedRows {
    rows: Arc<Vec<i64>>,
    digests: Arc<OnceLock<BlockDigests>>,
}

impl SharedRows {
    /// Pairs `rows` with a fresh, empty memo — the only place a pair is
    /// made.
    pub fn new(rows: impl Into<Arc<Vec<i64>>>) -> Self {
        SharedRows {
            rows: rows.into(),
            digests: Arc::default(),
        }
    }

    /// The rows.
    pub fn rows(&self) -> &Arc<Vec<i64>> {
        &self.rows
    }

    /// The memo, made on first use in one pass over the rows.
    fn digests(&self) -> &BlockDigests {
        self.digests.get_or_init(|| BlockDigests::new(&self.rows))
    }

    /// `content_hash(Content::I64(rows))`, from the memo.
    pub fn content_hash(&self) -> u64 {
        self.digests().content_hash()
    }

    /// The content hash if some holder has made the memo already.
    pub fn known_content_hash(&self) -> Option<u64> {
        self.digests.get().map(BlockDigests::content_hash)
    }

    /// `content_hash(Content::I64(&rows[range]))` from the memo when the
    /// memo serves `range` (it starts on the block grid and ends on it or at
    /// the end of the rows, [`BlockDigests::serves`]); `None`, and no memo
    /// made, for any other range.
    pub fn range_hash(&self, range: Range<usize>) -> Option<u64> {
        if !BlockDigests::serves(&range, self.rows.len()) {
            return None;
        }
        self.digests().range_hash(range)
    }
}

/// The physical payload of a column.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// 32-bit integers.
    Int32(Vec<i32>),
    /// 64-bit integers (also fixed-point decimals in cents). Behind an
    /// `Arc` because these are the rows the devices see: binding the column
    /// shares them instead of copying them.
    Int64(Arc<Vec<i64>>),
    /// Dates as days since epoch.
    Date(Vec<i32>),
    /// Dictionary-encoded strings.
    DictStr {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The dictionary, indexed by code.
        dict: Vec<String>,
    },
}

impl ColumnData {
    /// Logical type of the payload.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int32(_) => DataType::Int32,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::DictStr { .. } => DataType::DictStr,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int32(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::DictStr { codes, .. } => codes.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied by the row data (dictionary strings count codes only).
    pub fn byte_len(&self) -> usize {
        self.len() * self.data_type().byte_width()
    }
}

/// A named, typed column. Immutable after construction.
#[derive(Clone, Debug)]
pub struct Column {
    name: String,
    data: ColumnData,
    /// The rows as the devices see them, made on first use
    /// ([`Column::shared_rows`]); a clone of the column shares them.
    shared: OnceLock<SharedRows>,
    /// Whether no value repeats, found on first use ([`Column::is_unique`]).
    unique: OnceLock<bool>,
    /// Smallest and largest value, found on first use ([`Column::min_max`]).
    min_max: OnceLock<Option<(i64, i64)>>,
}

/// Name and payload; whether the rows were shared yet is not part of a
/// column's value.
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.data == other.data
    }
}

impl Column {
    /// Creates a column from a name and payload.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
            shared: OnceLock::new(),
            unique: OnceLock::new(),
            min_max: OnceLock::new(),
        }
    }

    /// Convenience constructor for `Int32` columns.
    pub fn from_i32(name: impl Into<String>, values: Vec<i32>) -> Self {
        Column::new(name, ColumnData::Int32(values))
    }

    /// Convenience constructor for `Int64` columns.
    pub fn from_i64(name: impl Into<String>, values: Vec<i64>) -> Self {
        Column::new(name, ColumnData::Int64(Arc::new(values)))
    }

    /// Convenience constructor for `Date` columns.
    pub fn from_dates(name: impl Into<String>, values: Vec<i32>) -> Self {
        Column::new(name, ColumnData::Date(values))
    }

    /// Builds a dictionary-encoded string column from raw strings.
    pub fn from_strings<S: AsRef<str>>(name: impl Into<String>, values: &[S]) -> Self {
        let mut dict: Vec<String> = Vec::new();
        let mut lookup: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let s = v.as_ref();
            if let Some(&c) = lookup.get(s) {
                codes.push(c);
            } else {
                let c = dict.len() as u32;
                dict.push(s.to_string());
                lookup.insert(s.to_string(), c);
                codes.push(c);
            }
        }
        Column::new(name, ColumnData::DictStr { codes, dict })
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes occupied by row data.
    pub fn byte_len(&self) -> usize {
        self.data.byte_len()
    }

    /// Row `i` as a scalar [`Value`].
    pub fn value(&self, i: usize) -> Result<Value, StorageError> {
        if i >= self.len() {
            return Err(StorageError::OutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        Ok(match &self.data {
            ColumnData::Int32(v) => Value::I32(v[i]),
            ColumnData::Int64(v) => Value::I64(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::DictStr { codes, dict } => {
                let code = codes[i];
                let s = dict
                    .get(code as usize)
                    .ok_or(StorageError::BadDictCode(code))?;
                Value::Str(s.clone())
            }
        })
    }

    /// The rows of the column widened to `i64`, shared by reference: what a
    /// query binds. An `Int64` column shares its storage; a narrower one is
    /// widened on the first call and every later call (on this column or a
    /// clone of it) returns the same rows.
    pub fn shared_rows(&self) -> &SharedRows {
        self.shared.get_or_init(|| {
            SharedRows::new(match &self.data {
                ColumnData::Int64(v) => Arc::clone(v),
                _ => Arc::new(self.to_i64_vec()),
            })
        })
    }

    /// Whether no value occurs twice in the column. Found by one sort on the
    /// first call and kept: the rows never change.
    pub fn is_unique(&self) -> bool {
        *self.unique.get_or_init(|| {
            let mut rows = self.to_i64_vec();
            rows.sort_unstable();
            rows.windows(2).all(|w| w[0] != w[1])
        })
    }

    /// The smallest and largest value widened to `i64` (codes for a
    /// dictionary column), `None` when empty. Found by one pass over the
    /// [shared rows](Column::shared_rows) on the first call and kept.
    pub fn min_max(&self) -> Option<(i64, i64)> {
        *self.min_max.get_or_init(|| {
            let rows = self.shared_rows().rows();
            (!rows.is_empty()).then(|| {
                rows.iter()
                    .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
            })
        })
    }

    /// A fresh copy of the rows widened to `i64` (device kernels run on
    /// i64), for callers that want a vector of their own; binding goes
    /// through [`Column::shared_rows`] instead. Dictionary columns expose
    /// their codes.
    pub fn to_i64_vec(&self) -> Vec<i64> {
        match &self.data {
            ColumnData::Int32(v) => v.iter().map(|&x| x as i64).collect(),
            ColumnData::Int64(v) => v.to_vec(),
            ColumnData::Date(v) => v.iter().map(|&x| x as i64).collect(),
            ColumnData::DictStr { codes, .. } => codes.iter().map(|&c| c as i64).collect(),
        }
    }

    /// The string dictionary, if this is a dictionary column.
    pub fn dictionary(&self) -> Option<&[String]> {
        match &self.data {
            ColumnData::DictStr { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// Looks up the dictionary code for `s`, if present.
    pub fn dict_code(&self, s: &str) -> Option<u32> {
        self.dictionary()?
            .iter()
            .position(|d| d == s)
            .map(|p| p as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::{content_hash, Content, BLOCK_WORDS};

    #[test]
    fn basic_accessors() {
        let c = Column::from_i32("a", vec![1, 2, 3]);
        assert_eq!(c.name(), "a");
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int32);
        assert_eq!(c.byte_len(), 12);
        assert_eq!(c.value(1).unwrap(), Value::I32(2));
        assert!(c.value(3).is_err());
    }

    #[test]
    fn dict_encoding() {
        let c = Column::from_strings("seg", &["BUILDING", "AUTO", "BUILDING"]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dictionary().unwrap().len(), 2);
        assert_eq!(c.dict_code("BUILDING"), Some(0));
        assert_eq!(c.dict_code("AUTO"), Some(1));
        assert_eq!(c.dict_code("MACHINERY"), None);
        assert_eq!(c.value(2).unwrap(), Value::Str("BUILDING".into()));
    }

    #[test]
    fn to_i64_widening() {
        assert_eq!(Column::from_i32("a", vec![-1, 2]).to_i64_vec(), vec![-1, 2]);
        assert_eq!(Column::from_dates("d", vec![10]).to_i64_vec(), vec![10]);
    }

    #[test]
    fn uniqueness_sees_a_repeat_anywhere() {
        assert!(Column::from_i64("k", vec![3, 1, 2]).is_unique());
        assert!(Column::from_i64("k", vec![]).is_unique());
        assert!(!Column::from_i64("k", vec![3, 1, 2, 3]).is_unique());
        assert!(!Column::from_i32("k", vec![i32::MIN, 0, i32::MIN]).is_unique());
    }

    #[test]
    fn min_max_spans_the_widened_rows() {
        assert_eq!(Column::from_i64("k", vec![]).min_max(), None);
        assert_eq!(
            Column::from_i32("k", vec![4, -9, 7]).min_max(),
            Some((-9, 7))
        );
        assert_eq!(Column::from_dates("d", vec![10]).min_max(), Some((10, 10)));
        assert_eq!(
            Column::from_strings("s", &["b", "a", "b"]).min_max(),
            Some((0, 1))
        );
    }

    #[test]
    fn shared_rows_are_the_columns_own() {
        // `Int64`: the shared rows are the storage itself.
        let wide = Column::from_i64("a", vec![1, -2, 3]);
        let ColumnData::Int64(storage) = &wide.data else {
            panic!("{:?}", wide.data)
        };
        let shared = wide.shared_rows();
        assert!(Arc::ptr_eq(shared.rows(), storage));
        // Narrower types: widened once; later calls and clones of the
        // column (made before or after) hand out the same rows and memo.
        let early = Column::from_dates("d", vec![10, 11]);
        let narrow = early.clone();
        let first = narrow.shared_rows().clone();
        assert_eq!(**first.rows(), [10, 11]);
        assert!(Arc::ptr_eq(narrow.shared_rows().rows(), first.rows()));
        assert!(Arc::ptr_eq(
            narrow.clone().shared_rows().rows(),
            first.rows()
        ));
        assert_eq!(first.known_content_hash(), None);
        let hash = narrow.clone().shared_rows().content_hash();
        assert_eq!(hash, content_hash(Content::I64(&[10, 11])));
        assert_eq!(first.known_content_hash(), Some(hash));
        // A clone taken before the first use widens for itself — equal
        // rows, its own allocation — and compares equal all the same.
        assert!(!Arc::ptr_eq(early.shared_rows().rows(), first.rows()));
        assert_eq!(early, narrow);
        assert_eq!(Column::from_dates("d", vec![10, 11]), narrow);
        let codes = Column::from_strings("s", &["x", "y", "x"]);
        assert_eq!(**codes.shared_rows().rows(), [0, 1, 0]);
    }

    /// A range off the block grid leaves the memo unmade; the first served
    /// range makes it, for every holder, and folds to the range's hash.
    #[test]
    fn range_hashes_come_from_one_memo() {
        let rows: Vec<i64> = (0..3 * BLOCK_WORDS as i64 + 5).collect();
        let shared = SharedRows::new(rows.clone());
        let holder = shared.clone();
        assert_eq!(shared.range_hash(1..BLOCK_WORDS), None);
        assert_eq!(shared.range_hash(0..BLOCK_WORDS + 1), None);
        assert_eq!(holder.known_content_hash(), None);
        let hash = |range: Range<usize>| content_hash(Content::I64(&rows[range]));
        let tail = BLOCK_WORDS..rows.len();
        assert_eq!(shared.range_hash(tail.clone()), Some(hash(tail)));
        assert_eq!(holder.known_content_hash(), Some(hash(0..rows.len())));
        let head = 0..2 * BLOCK_WORDS;
        assert_eq!(holder.range_hash(head.clone()), Some(hash(head)));
    }
}
