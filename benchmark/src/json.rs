//! Hand-rolled JSON emission (std-only, like the rest of the workspace).

/// Quotes and escapes a JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits that were measured: Rust's shortest
/// round-trip `f64` form, never rounded for display. Non-finite values have
/// no JSON spelling and become 0.
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // `{}` prints an f64 positionally, never with an exponent.
    format!("{v}")
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measurement.
    pub value: f64,
}

/// The result object the driver reads from the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n\t\r"), "\"a\\\"b\\\\c\\n\\t\\r\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("µs ok"), "\"µs ok\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(number(1e21), "1000000000000000000000");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            7,
            0,
            &[
                Metric {
                    name: "round_wall_ms_p50",
                    unit: "ms",
                    value: 1.5,
                },
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.25,
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"round_wall_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
