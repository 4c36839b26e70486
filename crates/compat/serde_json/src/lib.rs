//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`] and [`from_str`], built on the
//! `serde` stand-in's [`Value`] data model.

pub use serde::{Error, Value};

use std::fmt::Write as _;

/// Serializes a value to compact JSON.
///
/// # Errors
/// Fails on non-finite floats (JSON has no representation for them).
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out)?;
    Ok(out)
}

/// Serializes a value to pretty-printed JSON (two-space indent).
///
/// # Errors
/// Fails on non-finite floats.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out)?;
    Ok(out)
}

/// Deserializes a value from JSON text.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value)
}

// ---- writer ----------------------------------------------------------------

fn write_value(
    v: &Value,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        // numbers format straight into `out`: no string per number
        Value::U64(x) => write!(out, "{x}").expect("writing to a String cannot fail"),
        Value::I64(x) => write!(out, "{x}").expect("writing to a String cannot fail"),
        Value::F64(x) => {
            if !x.is_finite() {
                return Err(Error::msg(format!("cannot serialize non-finite float {x}")));
            }
            // `{:?}` is the shortest representation that round-trips; it is
            // always valid JSON for finite floats (e.g. `1.0`, `1e300`).
            write!(out, "{x:?}").expect("writing to a String cannot fail");
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out)?;
            }
            if !items.is_empty() {
                newline_indent(indent, depth, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, depth + 1, out)?;
            }
            if !entries.is_empty() {
                newline_indent(indent, depth, out);
            }
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

// ---- parser ----------------------------------------------------------------

/// Deepest array/object nesting the parser accepts (the real
/// serde_json's default recursion limit): the parser recurses once per
/// level, so unbounded nesting would overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The input; already valid UTF-8, so string characters decode in
    /// place.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::msg("unexpected end of JSON input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::msg(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b't' | b'f' | b'n' => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
                }
            }
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}`, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]`, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::msg("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::msg("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("invalid \\u escape"))?;
                            // surrogate pairs are not needed for this
                            // workspace's ASCII field names; reject them
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::msg("unsupported \\u escape"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(Error::msg(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // decode the one character starting at the byte we
                    // consumed (`pos` only ever stops on a character
                    // boundary: every other step consumes ASCII)
                    let start = self.pos - 1;
                    let c = self.text[start..]
                        .chars()
                        .next()
                        .expect("a string character");
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        if matches!(self.bytes.get(self.pos), Some(b'-')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if !is_valid_json_number(text) {
            return Err(Error::msg(format!(
                "invalid number `{text}` at byte {start}"
            )));
        }
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(mag) = stripped.parse::<u64>() {
                    if mag <= i64::MAX as u64 {
                        return Ok(Value::I64(-(mag as i64)));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

/// Enforces the JSON number grammar (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`):
/// the byte scanner above consumes sign/dot/exponent characters anywhere,
/// so forms like `+5`, `.5`, `5.` or `1e` must be rejected here rather
/// than punted to `f64::parse` (which is more lenient than JSON).
fn is_valid_json_number(text: &str) -> bool {
    let mut rest = text.strip_prefix('-').unwrap_or(text);
    // integer part: `0` or a non-zero digit run
    let int_len = rest.bytes().take_while(|b| b.is_ascii_digit()).count();
    if int_len == 0 || (int_len > 1 && rest.starts_with('0')) {
        return false;
    }
    rest = &rest[int_len..];
    if let Some(frac) = rest.strip_prefix('.') {
        let frac_len = frac.bytes().take_while(|b| b.is_ascii_digit()).count();
        if frac_len == 0 {
            return false;
        }
        rest = &frac[frac_len..];
    }
    if let Some(exp) = rest.strip_prefix(['e', 'E']) {
        let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
        let exp_len = exp.bytes().take_while(|b| b.is_ascii_digit()).count();
        if exp_len == 0 {
            return false;
        }
        rest = &exp[exp_len..];
    }
    rest.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("1.0").unwrap(), 1.0);
        assert_eq!(from_str::<i32>("-7").unwrap(), -7);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
    }

    #[test]
    fn vec_round_trip() {
        let v = vec![0.25f64, 1.0, 1e-9];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<f64>>(&json).unwrap(), v);
    }

    #[test]
    fn nested_value_round_trip() {
        let v = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::U64(1), Value::F64(0.5)])),
            ("s".into(), Value::Str("he\"llo\n".into())),
            ("n".into(), Value::Null),
        ]);
        let json = to_string_pretty(&ValueWrap(v.clone())).unwrap();
        let back: ValueWrap = from_str(&json).unwrap();
        assert_eq!(back.0, v);
    }

    /// Helper: serialize/deserialize a raw `Value` tree.
    struct ValueWrap(Value);

    impl serde::Serialize for ValueWrap {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }

    impl serde::Deserialize for ValueWrap {
        fn from_value(v: &Value) -> Result<Self, Error> {
            Ok(ValueWrap(v.clone()))
        }
    }

    #[test]
    fn shortest_float_representation_round_trips() {
        for &x in &[0.1, 1.0 / 3.0, 6.02e23, 5e-324, 0.004] {
            let json = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&json).unwrap(), x, "{json}");
        }
    }

    #[test]
    fn integers_write_their_decimal_digits_and_round_trip() {
        for x in [0u64, 1, 42, 1 << 53, u64::MAX] {
            let json = to_string(&x).unwrap();
            assert_eq!(json, x.to_string());
            assert_eq!(from_str::<u64>(&json).unwrap(), x);
        }
        for x in [-1i64, -7, i64::MIN, i64::MAX] {
            let json = to_string(&x).unwrap();
            assert_eq!(json, x.to_string());
            assert_eq!(from_str::<i64>(&json).unwrap(), x);
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let json = to_string(&-0.0f64).unwrap();
        assert_eq!(json, "-0.0");
        assert_eq!(
            from_str::<f64>(&json).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(to_string(&vec![0.0f64, -0.0]).unwrap(), "[0.0,-0.0]");
    }

    #[test]
    fn rejects_trailing_garbage_and_nan() {
        assert!(from_str::<f64>("1.0 x").is_err());
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn strings_decode_multibyte_characters_and_every_escape() {
        let json = r#"{"ключ €":"a\"b\\c\/d\be\ff\ng\rh\ti\u00e9j","𝄞":"ü→𝄞"}"#;
        let v: ValueWrap = from_str(json).unwrap();
        assert_eq!(
            v.0,
            Value::Map(vec![
                (
                    "ключ €".into(),
                    Value::Str("a\"b\\c/d\u{8}e\u{c}f\ng\rh\ti\u{e9}j".into())
                ),
                ("𝄞".into(), Value::Str("ü→𝄞".into())),
            ])
        );
        // a round trip through the writer keeps every character
        let back: ValueWrap = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back.0, v.0);
        for bad in [r#""\x""#, r#""\u00""#, r#""abc"#, r#""\"#] {
            assert!(from_str::<ValueWrap>(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // a quadratic decoder takes minutes on this input
        let long = "é".repeat(1 << 20);
        let v: ValueWrap = from_str(&format!("{{\"{long}\":1}}")).unwrap();
        assert_eq!(v.0, Value::Map(vec![(long, Value::U64(1))]));
    }

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<ValueWrap>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<ValueWrap>(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<ValueWrap>(&objects).is_err());
        // far past the limit: an error, not a stack overflow
        assert!(from_str::<ValueWrap>(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn enforces_json_number_grammar() {
        for bad in [
            "+5", ".5", "5.", "1e", "1e+", "01", "-", "--1", "1.2.3", "0x1",
        ] {
            assert!(from_str::<f64>(bad).is_err(), "accepted `{bad}`");
        }
        for good in ["0", "-0", "10", "0.5", "-12.25", "1e3", "1E-3", "2.5e+10"] {
            assert!(from_str::<f64>(good).is_ok(), "rejected `{good}`");
        }
    }
}
