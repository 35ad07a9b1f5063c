//! Minimal flat (non-nested) JSON helpers — no external crates are
//! available offline, so the trace JSONL reader and the engine's job-stream
//! protocol share this one hand-rolled parser/printer.

use std::collections::BTreeMap;

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Prints a float as a JSON number (`null` for non-finite values).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:e}` produces e.g. `1.5e-3`, a valid JSON number.
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// A value of a flat JSON object: a scalar, or an array of scalars
/// (the one level of nesting result lines use, e.g. `iterations`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string.
    Str(String),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of scalars (arrays of arrays are not supported).
    Arr(Vec<JsonValue>),
}

impl JsonValue {
    /// The string contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
    /// The number truncated to `u64`, if a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }
    /// The number (`NaN` for `null`), if a number or `null`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }
    /// The boolean, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one flat (non-nested) JSON object into key → value.
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not an object")?;
    let mut map = BTreeMap::new();
    let chars: Vec<char> = inner.chars().collect();
    let mut i = 0usize;
    let n = chars.len();
    let skip_ws = |i: &mut usize| {
        while *i < n && chars[*i].is_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if chars.get(*i) != Some(&'"') {
            return Err(format!("expected string at {i:?}"));
        }
        *i += 1;
        let mut s = String::new();
        while *i < n {
            match chars[*i] {
                '\\' => {
                    *i += 1;
                    match chars.get(*i) {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('n') => s.push('\n'),
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *i += 1;
                }
                '"' => {
                    *i += 1;
                    return Ok(s);
                }
                c => {
                    s.push(c);
                    *i += 1;
                }
            }
        }
        Err("unterminated string".into())
    };
    loop {
        skip_ws(&mut i);
        if i >= n {
            break;
        }
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if chars.get(i) != Some(&':') {
            return Err(format!("expected ':' after key {key}"));
        }
        i += 1;
        skip_ws(&mut i);
        let parse_token = |tok: &str| -> Result<JsonValue, String> {
            match tok {
                "null" => Ok(JsonValue::Null),
                "true" => Ok(JsonValue::Bool(true)),
                "false" => Ok(JsonValue::Bool(false)),
                _ => Ok(JsonValue::Num(
                    tok.parse::<f64>()
                        .map_err(|e| format!("bad number {tok:?}: {e}"))?,
                )),
            }
        };
        let value = if chars.get(i) == Some(&'"') {
            JsonValue::Str(parse_string(&mut i)?)
        } else if chars.get(i) == Some(&'[') {
            i += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(&mut i);
                match chars.get(i) {
                    None => return Err("unterminated array".into()),
                    Some(']') => {
                        i += 1;
                        break;
                    }
                    Some('"') => items.push(JsonValue::Str(parse_string(&mut i)?)),
                    Some(_) => {
                        let start = i;
                        while i < n && chars[i] != ',' && chars[i] != ']' {
                            i += 1;
                        }
                        let tok: String = chars[start..i].iter().collect();
                        items.push(parse_token(tok.trim())?);
                    }
                }
                skip_ws(&mut i);
                if chars.get(i) == Some(&',') {
                    i += 1;
                }
            }
            JsonValue::Arr(items)
        } else {
            let start = i;
            while i < n && chars[i] != ',' {
                i += 1;
            }
            let tok: String = chars[start..i].iter().collect();
            parse_token(tok.trim())?
        };
        map.insert(key, value);
        skip_ws(&mut i);
        if chars.get(i) == Some(&',') {
            i += 1;
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_scalar_kinds() {
        let m =
            parse_flat_object(r#"{"s":"a\"b","n":-1.5e3,"t":true,"f":false,"z":null}"#).unwrap();
        assert_eq!(m["s"].as_str(), Some("a\"b"));
        assert_eq!(m["n"].as_f64(), Some(-1500.0));
        assert_eq!(m["t"].as_bool(), Some(true));
        assert_eq!(m["f"].as_bool(), Some(false));
        assert!(m["z"].as_f64().unwrap().is_nan());
        assert!(parse_flat_object("not json").is_err());
    }

    #[test]
    fn parses_scalar_arrays() {
        let m = parse_flat_object(r#"{"it":[3, 4,5],"empty":[],"mix":["a",true,null]}"#).unwrap();
        let arr = |key: &str| match &m[key] {
            JsonValue::Arr(items) => items.clone(),
            other => panic!("{key}: not an array: {other:?}"),
        };
        let it: Vec<u64> = arr("it").iter().filter_map(JsonValue::as_u64).collect();
        assert_eq!(it, vec![3, 4, 5]);
        assert!(arr("empty").is_empty());
        let mix = arr("mix");
        assert_eq!(mix[0].as_str(), Some("a"));
        assert_eq!(mix[1].as_bool(), Some(true));
        assert!(parse_flat_object(r#"{"bad":[1,"#).is_err());
    }
}
