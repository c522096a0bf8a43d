//! A deterministic JSON writer: every report's document goes through it.
//!
//! Rendering is byte-deterministic — object keys are emitted in insertion
//! order and floats with a fixed precision — so two runs with the same seed
//! produce identical files at any thread count, which is what lets CI
//! `diff` sweep artifacts run to run.

use std::fmt;

/// A JSON value with deterministic rendering: objects keep insertion
/// order, floats print with fixed 4-decimal precision, output is
/// 2-space-indented with a trailing newline at the document root.
///
/// This is the serialization layer the whole workspace's JSON artifacts go
/// through (verify, sim, sweep, serve and fuzz reports).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, printed without a decimal point.
    U64(u64),
    /// A float, printed with fixed `{:.4}` precision.
    F64(f64),
    /// A string (escaped minimally: `"`, `\`, and control characters).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(entries: [(&str, Json); N]) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Appends a field to an object.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an [`Json::Obj`].
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(entries) => entries.push((key.to_string(), value)),
            other => panic!("push on non-object JSON value {other:?}"),
        }
    }

    /// Renders the document with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(v) => out.push_str(&format!("{v:.4}")),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    pad(out, indent + 1);
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_deterministically() {
        let j = Json::obj([
            ("name", Json::Str("msi \"v1\"".into())),
            ("n", Json::U64(3)),
            ("ratio", Json::F64(1.0 / 3.0)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Bool(false)])),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = j.render();
        assert_eq!(text, j.render());
        assert!(text.contains("\"name\": \"msi \\\"v1\\\"\""), "{text}");
        assert!(text.contains("\"ratio\": 0.3333"), "{text}");
        assert!(text.contains("\"empty\": {}"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    #[should_panic(expected = "push on non-object")]
    fn push_rejects_non_objects() {
        Json::U64(1).push("k", Json::U64(2));
    }
}
