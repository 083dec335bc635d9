//! Helpers of the failure drill (`benches/failure.rs`): a JSON record
//! emitted by an in-tree writer (the workspace builds with an empty
//! registry, so there is no serde here) and a median. The whole-stack
//! benchmark is the package under `src/bin/benchmark/`.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A minimal JSON value for the artifact dumps.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers print without a fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object members.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Pretty-prints with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The workspace root (anchor for artifact paths regardless of the
/// bench's CWD).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Writes a JSON value to `path` (best-effort; printing is the primary
/// output of every harness).
pub fn write_json(path: &Path, value: &Json) {
    if let Some(dir) = path.parent() {
        if fs::create_dir_all(dir).is_err() {
            return;
        }
    }
    let _ = fs::write(path, value.to_string_pretty() + "\n");
}

/// Prints a horizontal rule sized for the harness tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// The median of a set of durations (the lower middle of an even
/// count; zero for an empty set).
pub fn median(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort();
    sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_pretty_output() {
        let v = Json::obj(vec![
            ("name", Json::Str("a\"b".into())),
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("none", Json::Null),
            ("ok", Json::Bool(true)),
        ]);
        let s = v.to_string_pretty();
        assert!(s.contains("\"a\\\"b\""), "{s}");
        assert!(s.contains("2.5"), "{s}");
        assert!(s.contains("null"), "{s}");
        // Integral floats print without a fraction.
        assert!(s.contains("\n    1,"), "{s}");
    }

    #[test]
    fn medians() {
        let xs: Vec<Duration> = (1..=100).rev().map(Duration::from_millis).collect();
        assert_eq!(median(&xs), Duration::from_millis(50));
        assert_eq!(median(&xs[..3]), Duration::from_millis(99));
        assert_eq!(median(&[]), Duration::ZERO);
    }
}
