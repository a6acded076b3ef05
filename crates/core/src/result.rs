//! Query outputs.

use adamant_device::buffer::BufferData;
use adamant_task::hashtable::AggHashTable;
use adamant_task::params::AggFunc;
use std::collections::BTreeMap;

/// One output value of a query, retrieved back to the host.
#[derive(Clone, Debug)]
pub enum OutputData {
    /// Numeric column.
    I64(Vec<i64>),
    /// Position list.
    U32(Vec<u32>),
    /// Bitmap (packed words; the logical row count is query-dependent).
    BitWords(Vec<u64>),
    /// An aggregation table exported as dense columns.
    AggTable {
        /// Group keys in first-seen order.
        keys: Vec<i64>,
        /// Carried payload columns.
        payloads: Vec<Vec<i64>>,
        /// Aggregate state columns.
        states: Vec<Vec<i64>>,
        /// The functions each state column belongs to.
        funcs: Vec<AggFunc>,
    },
    /// Raw bytes (custom structures).
    Raw(Vec<u8>),
}

impl OutputData {
    /// Converts retrieved device data into host form.
    pub fn from_buffer(data: BufferData) -> OutputData {
        match data {
            BufferData::I64(v) => OutputData::I64(v),
            BufferData::U32(v) => OutputData::U32(v),
            BufferData::BitWords(v) => OutputData::BitWords(v),
            BufferData::Raw(v) => OutputData::Raw(v),
            BufferData::Generic(g) => {
                if let Some(t) = g.as_any().downcast_ref::<AggHashTable>() {
                    let (keys, payloads, states) = t.export();
                    OutputData::AggTable {
                        keys,
                        payloads,
                        states,
                        funcs: t.agg_funcs().to_vec(),
                    }
                } else {
                    OutputData::Raw(Vec::new())
                }
            }
        }
    }

    /// The numeric column, if this output is one.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            OutputData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The position list, if this output is one.
    pub fn as_u32(&self) -> Option<&[u32]> {
        match self {
            OutputData::U32(v) => Some(v),
            _ => None,
        }
    }

    /// Number of rows / entries in the output.
    pub fn len(&self) -> usize {
        match self {
            OutputData::I64(v) => v.len(),
            OutputData::U32(v) => v.len(),
            OutputData::BitWords(v) => v.len() * 64,
            OutputData::AggTable { keys, .. } => keys.len(),
            OutputData::Raw(v) => v.len(),
        }
    }

    /// True when the output holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Named outputs of one query execution.
#[derive(Clone, Debug, Default)]
pub struct QueryOutput {
    columns: BTreeMap<String, OutputData>,
}

impl QueryOutput {
    /// Creates an empty output set.
    pub fn new() -> Self {
        QueryOutput::default()
    }

    /// Inserts an output.
    pub fn insert(&mut self, name: impl Into<String>, data: OutputData) {
        self.columns.insert(name.into(), data);
    }

    /// Looks up an output by name.
    pub fn get(&self, name: &str) -> Option<&OutputData> {
        self.columns.get(name)
    }

    /// A numeric output column by name (panics with a clear message if
    /// missing or mistyped — convenience for tests and examples).
    pub fn i64_column(&self, name: &str) -> &[i64] {
        self.get(name)
            .unwrap_or_else(|| panic!("no output named `{name}`"))
            .as_i64()
            .unwrap_or_else(|| panic!("output `{name}` is not a numeric column"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_from_buffers() {
        let o = OutputData::from_buffer(BufferData::I64(vec![1, 2]));
        assert_eq!(o.as_i64(), Some(&[1i64, 2][..]));
        let o = OutputData::from_buffer(BufferData::U32(vec![5]));
        assert_eq!(o.as_u32(), Some(&[5u32][..]));
        let o = OutputData::from_buffer(BufferData::BitWords(vec![0b101]));
        assert!(matches!(o, OutputData::BitWords(w) if w == [0b101]));
    }

    #[test]
    fn agg_table_conversion() {
        let mut t = AggHashTable::with_capacity(4, vec![AggFunc::Sum], 1);
        t.update_block(&[1, 1], &[&[10, 10]], &[&[5, 6]]).unwrap();
        let o = OutputData::from_buffer(BufferData::Generic(Box::new(t)));
        match o {
            OutputData::AggTable {
                keys,
                payloads,
                states,
                funcs,
            } => {
                assert_eq!(keys, vec![1]);
                assert_eq!(payloads[0], vec![10]);
                assert_eq!(states[0], vec![11]);
                assert_eq!(funcs, vec![AggFunc::Sum]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn query_output_accessors() {
        let mut q = QueryOutput::new();
        q.insert("revenue", OutputData::I64(vec![42]));
        assert_eq!(q.i64_column("revenue"), &[42]);
        assert!(q.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "no output named")]
    fn missing_column_panics_clearly() {
        QueryOutput::new().i64_column("ghost");
    }
}
