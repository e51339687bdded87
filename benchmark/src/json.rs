//! The few JSON forms the result lines need.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON object from already-rendered values, in the given order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_strings_numbers_objects() {
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\n\"");
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(
            object([("x", number(1.0)), ("y", string("z"))]),
            "{\"x\": 1.0, \"y\": \"z\"}"
        );
    }
}
