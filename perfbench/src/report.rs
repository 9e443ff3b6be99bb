//! Metrics, output checks and the result line.

use std::fmt::Write as _;

/// Named metrics with units, in insertion order, plus free-text notes
/// (sample counts, quartiles) that go to the output file only.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.retain(|(n, _, _)| n != name);
        self.values.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.values.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Output checks: every operation attempted, and every one whose
/// output was wrong or missing.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}
