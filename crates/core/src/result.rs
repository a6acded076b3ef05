//! Query outputs.

use adamant_device::buffer::BufferData;
use std::collections::BTreeMap;

/// Named outputs of one query execution, each the payload retrieved back to
/// (or accumulated on) the host.
#[derive(Clone, Debug, Default)]
pub struct QueryOutput {
    columns: BTreeMap<String, BufferData>,
}

impl QueryOutput {
    /// Creates an empty output set.
    pub fn new() -> Self {
        QueryOutput::default()
    }

    /// Inserts an output.
    pub fn insert(&mut self, name: impl Into<String>, data: BufferData) {
        self.columns.insert(name.into(), data);
    }

    /// Looks up an output by name.
    pub fn get(&self, name: &str) -> Option<&BufferData> {
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
    fn query_output_accessors() {
        let mut q = QueryOutput::new();
        q.insert("revenue", BufferData::I64(vec![42]));
        assert_eq!(q.i64_column("revenue"), &[42]);
        assert!(q.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "no output named")]
    fn missing_column_panics_clearly() {
        QueryOutput::new().i64_column("ghost");
    }
}
