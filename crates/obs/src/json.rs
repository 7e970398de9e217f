//! A dependency-free JSON syntax validator, and the one writer of the
//! `BENCH_*.json` files.
//!
//! The build environment vendors no serde, yet CI must prove that every
//! emitted trace line and the `BENCH_harness.json` counter objects are
//! well-formed JSON. This is a small recursive-descent checker over the
//! RFC 8259 grammar — it validates syntax only and builds no tree.
//! [`set_member`] walks the same grammar to find one top-level member of
//! an object file and splice a new value in.

use std::path::Path;

/// Check that `s` is exactly one well-formed JSON value (leading/trailing
/// whitespace allowed). Returns a byte-offset error message on failure.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

/// Set the top-level member `key` of the JSON object stored at `path` to
/// `value` (JSON text), creating the file when it is missing. An existing
/// member keeps its place and only its value is replaced; a new one is
/// appended. Every other byte of the file is kept as it was, and the result
/// must validate before it is written. A file that is not one JSON object
/// is refused and left alone. `key` is matched and written verbatim, so it
/// must need no escaping.
pub fn set_member(path: &Path, key: &str, value: &str) -> Result<(), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => "{\n}\n".to_string(),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let text = with_member(&text, key, value).map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// [`set_member`] on the file's text.
fn with_member(text: &str, key: &str, new_value: &str) -> Result<String, String> {
    validate_json(text)?;
    let b = text.as_bytes();
    let mut pos = 0;
    skip_ws(b, &mut pos);
    if b.get(pos) != Some(&b'{') {
        return Err("not a JSON object".into());
    }
    pos += 1;
    let quoted = format!("\"{key}\"");
    // Where a new member goes: after the last member's value, or just
    // inside the opening brace of an empty object.
    let open = pos;
    let mut end = pos;
    let spliced = loop {
        skip_ws(b, &mut pos);
        if b[pos] == b'}' {
            let comma = if end == open { "" } else { "," };
            break format!("{}{comma}\n  {quoted}: {new_value}{}", &text[..end], &text[end..]);
        }
        let k = pos;
        string(b, &mut pos)?;
        let is_key = text[k..pos] == quoted;
        skip_ws(b, &mut pos);
        pos += 1; // ':'
        skip_ws(b, &mut pos);
        let v = pos;
        value(b, &mut pos)?;
        if is_key {
            break format!("{}{new_value}{}", &text[..v], &text[pos..]);
        }
        end = pos;
        skip_ws(b, &mut pos);
        if b[pos] == b',' {
            pos += 1;
        }
    };
    validate_json(&spliced)?;
    Ok(spliced)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
        None => Err(format!("unexpected end of input at byte {pos}")),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening '"'
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => {
                                    return Err(format!(
                                        "bad \\u escape at byte {pos}"
                                    ))
                                }
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            0x00..=0x1f => {
                return Err(format!("unescaped control byte at {pos}"));
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: `0` alone, or a nonzero digit followed by digits.
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(d) if d.is_ascii_digit() => {
            while matches!(b.get(*pos), Some(d) if d.is_ascii_digit()) {
                *pos += 1;
            }
        }
        _ => return Err(format!("expected digit at byte {pos}")),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(d) if d.is_ascii_digit()) {
            return Err(format!("expected fraction digit at byte {pos}"));
        }
        while matches!(b.get(*pos), Some(d) if d.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(d) if d.is_ascii_digit()) {
            return Err(format!("expected exponent digit at byte {pos}"));
        }
        while matches!(b.get(*pos), Some(d) if d.is_ascii_digit()) {
            *pos += 1;
        }
    }
    debug_assert!(*pos > start);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{set_member, validate_json, with_member};

    const FILE: &str = "{\n  \"threads\": 2,\n  \"calibration\": {\n    \"speedup\": 1.780\n  },\n  \"cells\": [1, {\"a\": \"}\"}],\n  \"total_wall_s\": 9.000\n}\n";

    #[test]
    fn replacing_a_member_drops_its_old_value_and_keeps_every_other_byte() {
        let out = with_member(FILE, "calibration", "{\"speedup\": 2.0}").unwrap();
        assert!(!out.contains("1.780"), "{out}");
        let (head, tail) = FILE.split_once("{\n    \"speedup\": 1.780\n  }").unwrap();
        assert_eq!(out, format!("{head}{{\"speedup\": 2.0}}{tail}"));
        // The last member, and a new one appended after it.
        let out = with_member(FILE, "total_wall_s", "1.5").unwrap();
        assert_eq!(out, FILE.replace("9.000", "1.5"));
        let out = with_member(FILE, "seed", "\"42\"").unwrap();
        assert_eq!(out, FILE.replace("9.000\n}", "9.000,\n  \"seed\": \"42\"\n}"));
    }

    #[test]
    fn merging_twice_is_idempotent() {
        for key in ["threads", "cells", "fresh"] {
            let once = with_member(FILE, key, "[3, 4]").unwrap();
            assert_eq!(with_member(&once, key, "[3, 4]").unwrap(), once, "{key}");
        }
    }

    #[test]
    fn a_missing_file_is_created_and_a_non_object_refused() {
        let dir = std::env::temp_dir().join(format!("pnats-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH.json");
        let _ = std::fs::remove_file(&path);
        set_member(&path, "seed", "\"7\"").unwrap();
        set_member(&path, "total_wall_s", "1.0").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\n  \"seed\": \"7\",\n  \"total_wall_s\": 1.0\n}\n");

        for bad in ["[1, 2]\n", "\"text\"", "{\"a\": 1,}", ""] {
            std::fs::write(&path, bad).unwrap();
            assert!(set_member(&path, "seed", "1").is_err(), "{bad:?} accepted");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), bad, "refused file rewritten");
        }
        assert!(with_member("{}", "seed", "not json").is_err(), "invalid value written");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accepts_well_formed_values() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e-3",
            "0",
            "\"a \\\"quoted\\\" string with \\u00e9\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"d\"}",
            "  { \"spaced\" : [ 1 , 2 ] }  ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_values() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2,]",
            "01",
            "1.",
            "1e",
            "nul",
            "\"unterminated",
            "\"bad \\x escape\"",
            "{} extra",
            "NaN",
            "'single'",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} accepted");
        }
    }
}
