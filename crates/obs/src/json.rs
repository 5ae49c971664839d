//! The one JSON writer of the workspace.
//!
//! Every JSON document the program emits — traces, metrics, synthesis,
//! lint and batch reports, HTTP bodies, bench trajectories — lays out
//! its objects with `format!` strings and writes each string it
//! interpolates, and each float it prints in shortest form, through this
//! module, so escaping and the non-finite rule live in one place. Floats
//! printed at a fixed precision (trace timestamps, rates) are formatted
//! in place.

use std::fmt::Write;

/// Appends `s` to `out` as a JSON string literal, quotes included.
///
/// `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` use their
/// short escapes, and every other C0 control character becomes
/// `\u00XX`. Everything else, DEL and non-ASCII included, passes
/// through unchanged (JSON text is UTF-8).
pub fn push_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal, quotes included (see [`push_string`]).
///
/// # Examples
///
/// ```
/// assert_eq!(mrp_obs::json::string("a\"b\n"), r#""a\"b\n""#);
/// ```
pub fn string(s: &str) -> String {
    let mut out = String::new();
    push_string(&mut out, s);
    out
}

/// `v` as a JSON number in Rust's shortest round-trip form, or `null`
/// when it is NaN or infinite (JSON has no literal for either).
///
/// # Examples
///
/// ```
/// assert_eq!(mrp_obs::json::number(1.5), "1.5");
/// assert_eq!(mrp_obs::json::number(f64::NAN), "null");
/// ```
pub fn number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_writer_covers_every_branch() {
        for (input, want) in [
            ("plain", r#""plain""#),
            ("", r#""""#),
            ("a\"b", r#""a\"b""#),
            ("a\\b", r#""a\\b""#),
            ("a\nb", r#""a\nb""#),
            ("a\rb", r#""a\rb""#),
            ("a\tb", r#""a\tb""#),
            ("\u{0}", r#""\u0000""#),
            ("\u{1}x\u{8}\u{c}", r#""\u0001x\u0008\u000c""#),
            ("\u{1f}", r#""\u001f""#),
            (" ~", r#"" ~""#),
            ("\u{7f}", "\"\u{7f}\""),
            ("é·→😀", "\"é·→😀\""),
        ] {
            assert_eq!(string(input), want, "{input:?}");
        }
        let mut out = String::from("[");
        push_string(&mut out, "x");
        out.push(',');
        push_string(&mut out, "\"");
        assert_eq!(out, r#"["x","\"""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        for (v, want) in [
            (0.0, "0"),
            (-2.0, "-2"),
            (0.1, "0.1"),
            (1e21, "1000000000000000000000"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(number(v), want, "{v}");
        }
    }
}
