//! Logical data types and scalar values.

use std::fmt;

/// Logical type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer (the paper's evaluation uses 32-bit ints).
    Int32,
    /// 64-bit signed integer (keys, fixed-point decimals in cents).
    Int64,
    /// Date stored as days since 1970-01-01 in an `i32`.
    Date,
    /// Dictionary-encoded string: `u32` codes into a per-column dictionary.
    DictStr,
}

impl DataType {
    /// Width of one value in bytes (dictionary columns count the code).
    pub fn byte_width(self) -> usize {
        match self {
            DataType::Int32 | DataType::Date | DataType::DictStr => 4,
            DataType::Int64 => 8,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int32 => "int32",
            DataType::Int64 => "int64",
            DataType::Date => "date",
            DataType::DictStr => "dictstr",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar value, used for filter constants and query results.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// Date as days since epoch.
    Date(i32),
    /// String value.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Date(v) => write!(f, "{}", format_date(*v)),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Converts a calendar date to days since 1970-01-01.
///
/// Valid for years 1970..=2199 (covers TPC-H's 1992–1998 range).
pub fn date_to_days(year: i32, month: u32, day: u32) -> i32 {
    debug_assert!((1970..2200).contains(&year));
    debug_assert!((1..=12).contains(&month));
    let mut days: i64 = 0;
    for y in 1970..year {
        days += if is_leap(y) { 366 } else { 365 };
    }
    let month_days = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    for m in 1..month {
        days += month_days[(m - 1) as usize] as i64;
        if m == 2 && is_leap(year) {
            days += 1;
        }
    }
    days += day as i64 - 1;
    days as i32
}

/// Formats days-since-epoch as `YYYY-MM-DD`.
pub fn format_date(mut days: i32) -> String {
    let mut year = 1970;
    loop {
        let ydays = if is_leap(year) { 366 } else { 365 };
        if days < ydays {
            break;
        }
        days -= ydays;
        year += 1;
    }
    let month_days = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    let mut month = 1;
    for (i, &md) in month_days.iter().enumerate() {
        let md = md + if i == 1 && is_leap(year) { 1 } else { 0 };
        if days < md {
            break;
        }
        days -= md;
        month += 1;
    }
    format!("{year:04}-{month:02}-{:02}", days + 1)
}

fn is_leap(y: i32) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(DataType::Int32.byte_width(), 4);
        assert_eq!(DataType::Int64.byte_width(), 8);
        assert_eq!(DataType::Date.byte_width(), 4);
        assert_eq!(DataType::DictStr.byte_width(), 4);
    }

    #[test]
    fn date_epoch() {
        assert_eq!(date_to_days(1970, 1, 1), 0);
        assert_eq!(date_to_days(1970, 2, 1), 31);
        assert_eq!(date_to_days(1971, 1, 1), 365);
    }

    #[test]
    fn date_known_values() {
        // 1995-03-15 (TPC-H Q3's canonical date) = 9204 days after epoch.
        let d = date_to_days(1995, 3, 15);
        assert_eq!(format_date(d), "1995-03-15");
        // Leap year handling: 1996-02-29 exists.
        let d = date_to_days(1996, 2, 29);
        assert_eq!(format_date(d), "1996-02-29");
        let d = date_to_days(1996, 3, 1);
        assert_eq!(format_date(d), "1996-03-01");
    }

    #[test]
    fn date_roundtrip_range() {
        for days in (0..12000).step_by(97) {
            let s = format_date(days);
            let year: i32 = s[0..4].parse().unwrap();
            let month: u32 = s[5..7].parse().unwrap();
            let day: u32 = s[8..10].parse().unwrap();
            assert_eq!(date_to_days(year, month, day), days, "date {s}");
        }
    }
}
