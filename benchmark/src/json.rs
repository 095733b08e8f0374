//! The hand-rolled JSON writer. The data model is `oclsim::prof::json`'s
//! [`Value`], so everything written here round-trips through that
//! crate's parser (the tests below do exactly that).

pub use oclsim::prof::json::Value;

/// Shorthand constructors.
pub fn num(v: f64) -> Value {
    Value::Num(v)
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Serialize on one line. Non-finite numbers have no JSON spelling and
/// are written as `null`.
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    write_into(v, &mut out);
    out
}

fn write_into(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // `{}` prints the shortest digits that parse back to the same f64
        Value::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_into(item, out);
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
    use oclsim::prof::json::parse;

    #[test]
    fn round_trips_through_the_library_parser() {
        let doc = obj([
            (
                "name",
                text("quote \" backslash \\ newline \n tab \t bell \u{7} é"),
            ),
            ("n", num(0.1 + 0.2)),
            ("tiny", num(3.7427555555555526e-4)),
            ("big", num(1.0e21)),
            ("neg", num(-12.0)),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            (
                "list",
                Value::Arr(vec![num(1.0), text(""), obj([("k", num(2.0))])]),
            ),
            ("empty", Value::Obj(Vec::new())),
        ]);
        let written = write(&doc);
        assert!(!written.contains('\n'), "one line: {written}");
        assert_eq!(parse(&written).expect("valid JSON"), doc);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let written = write(&Value::Arr(vec![num(f64::NAN), num(f64::INFINITY)]));
        assert_eq!(written, "[null,null]");
        parse(&written).expect("valid JSON");
    }
}
