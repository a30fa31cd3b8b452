//! A small JSON writer: the result line, `BENCHMARK.json` and the span dump are
//! the only JSON this benchmark produces, and the workspace has no serializer.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Written with every digit `f64` needs to round-trip; a non-finite value
    /// has no JSON spelling and is written as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Multi-line rendering with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items, |out, item, inner| {
                item.write(out, inner);
            }),
            Json::Obj(fields) => {
                write_seq(out, indent, '{', '}', fields, |out, (key, value), inner| {
                    write_string(out, key);
                    out.push(':');
                    if inner.is_some() {
                        out.push(' ');
                    }
                    value.write(out, inner);
                });
            }
        }
    }
}

/// Compact single-line rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// Writes `items` between `open` and `close`, comma-separated with no trailing
/// comma; `indent` is `Some(depth)` for the multi-line form.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|depth| depth + 1);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        write_item(out, item, inner);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
}

fn write_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str("a \"q\"\\\n\t\u{1}é".into())),
            (
                "list".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(0.25), Json::Bool(true)]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            ("none".into(), Json::Obj(vec![])),
            ("nan".into(), Json::Num(f64::NAN)),
            ("null".into(), Json::Null),
        ])
    }

    #[test]
    fn compact_form_escapes_and_has_no_trailing_commas() {
        assert_eq!(
            sample().to_string(),
            "{\"name\":\"a \\\"q\\\"\\\\\\n\\t\\u0001é\",\"list\":[1,0.25,true],\
             \"empty\":[],\"none\":{},\"nan\":null,\"null\":null}"
        );
    }

    #[test]
    fn pretty_form_indents_by_two_spaces() {
        let value = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Null)])),
        ]);
        assert_eq!(
            value.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": null\n  }\n}\n"
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(Json::Num(1.2034).to_string(), "1.2034");
        assert_eq!(Json::Num(25.0).to_string(), "25");
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
