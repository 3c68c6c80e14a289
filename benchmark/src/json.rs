//! JSON output. The value type and the parser are the repository's own
//! (`cascade_bench::json`, the dependency-free reader `bench_diff` uses);
//! this adds the writer and a few constructors.

pub use cascade_bench::json::{parse, Json};

/// A number.
pub fn num(v: f64) -> Json {
    Json::Num(v)
}

/// A string.
pub fn str(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// An array.
pub fn arr(items: Vec<Json>) -> Json {
    Json::Arr(items)
}

/// An object, keys in the order given.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialise `j` on one line. Numbers are written with every digit Rust
/// needs to round-trip them (never in exponent form, which `{}` on `f64`
/// does not produce); a non-finite number has no JSON form and becomes
/// `null`.
pub fn write(j: &Json) -> String {
    let mut out = String::new();
    write_into(j, &mut out);
    out
}

fn write_into(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write_into(v, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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

    #[test]
    fn written_values_parse_back_unchanged() {
        let v = obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", num(1000.0)),
            ("ratio", num(0.1 + 0.2)),
            ("tiny", num(1.25e-7)),
            ("name", str("a \"quoted\"\\ line\nwith\ttabs\u{1}")),
            ("none", Json::Null),
            ("list", arr(vec![num(-3.5), Json::Bool(false), arr(vec![])])),
            ("nested", obj(vec![("k", obj(vec![]))])),
        ]);
        let text = write(&v);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn numbers_keep_all_their_digits_and_never_use_an_exponent() {
        assert_eq!(write(&num(1000.0)), "1000");
        assert_eq!(write(&num(1.2034)), "1.2034");
        assert_eq!(write(&num(0.30000000000000004)), "0.30000000000000004");
        assert_eq!(write(&num(1.25e-7)), "0.000000125");
        assert_eq!(write(&num(3e21)), "3000000000000000000000");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(
            write(&arr(vec![num(f64::NAN), num(f64::INFINITY)])),
            "[null, null]"
        );
    }

    #[test]
    fn members_keep_their_order() {
        let text = write(&obj(vec![("z", num(1.0)), ("a", num(2.0))]));
        assert_eq!(text, r#"{"z": 1, "a": 2}"#);
    }
}
