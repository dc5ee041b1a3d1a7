//! JSON writing helpers. Numbers are rendered with Rust's shortest
//! round-trip `Display` for `f64`, so a client parsing an estimate gets
//! back **exactly** the bits the estimator produced — the property the
//! serve-vs-batch bit-identity test pins. Reading is delegated to
//! `cgte_scenarios::artifact::parse_json` (the same hand-rolled subset
//! the run artifacts use).

use std::fmt::Write as _;

/// Renders an `f64` as a JSON value; non-finite values (which the
/// estimators never produce for defined estimates) become `null`.
pub fn fmt_f64(x: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, x);
    out
}

/// Appends `x` as [`fmt_f64`] renders it.
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Renders a `[..]` array of `f64`s.
pub fn fmt_array(xs: &[f64]) -> String {
    let mut out = String::with_capacity(xs.len() * 8 + 2);
    push_array(&mut out, xs);
    out
}

/// Appends a `[..]` array of `f64`s.
pub fn push_array(out: &mut String, xs: &[f64]) {
    push_list(out, xs, |out, &x| push_f64(out, x));
}

/// Appends a `[..]` array of optional estimates (`null` where undefined).
pub fn push_opt_array(out: &mut String, xs: &[Option<f64>]) {
    push_list(out, xs, |out, &x| match x {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    });
}

/// Appends `[` + each item by `push`, comma-separated, + `]`.
pub(crate) fn push_list<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut push: impl FnMut(&mut String, I::Item),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, x);
    }
    out.push(']');
}

/// Escapes a string for inclusion in a JSON document (quotes included).
pub fn fmt_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The standard error body.
pub fn error_body(msg: &str) -> String {
    format!("{{\"error\":{}}}", fmt_str(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_shortest() {
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(0.1), "0.1");
        let x = 1.0 / 3.0;
        assert_eq!(x, fmt_f64(x).parse::<f64>().unwrap());
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn arrays_and_options() {
        assert_eq!(fmt_array(&[1.0, 2.5]), "[1,2.5]");
        assert_eq!(fmt_array(&[]), "[]");
        let mut out = String::from("x");
        push_opt_array(&mut out, &[Some(1.0), None, Some(f64::INFINITY)]);
        assert_eq!(out, "x[1,null,null]");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(fmt_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(error_body("x"), "{\"error\":\"x\"}");
    }
}
