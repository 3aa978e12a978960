//! Hand-rolled JSON emission and field extraction.
//!
//! The campaign runner emits flat JSON-lines records and needs to read
//! back only a handful of scalar fields from its *own* output (for
//! resumability and reporting). A tiny writer/extractor pair keeps the
//! workspace dependency-free; this is not a general JSON parser and
//! makes no attempt to handle documents the runner did not write.

use std::fmt::Write as _;

/// Incremental writer for one flat JSON object.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::new() }
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{key}\":");
    }

    /// Appends a string field (escaped).
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a boolean field.
    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a pre-rendered JSON value verbatim (e.g. a nested array).
    pub fn raw_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Renders the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Escapes `value` for embedding in a JSON string literal.
pub fn escape_into(buf: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// Whether `line` looks like one complete flat record (a partial line
/// from an interrupted writer fails this and is re-run on resume).
pub fn is_complete_object(line: &str) -> bool {
    let t = line.trim();
    t.starts_with('{') && t.ends_with('}')
}

/// Extracts the raw text of `"key":<value>` from a flat record, up to
/// the next top-level comma. Strings containing `,` or `}` are handled
/// by honoring quotes; nested arrays/objects by bracket depth.
fn raw_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' | '{' => depth += 1,
            ']' | '}' if depth > 0 => depth -= 1,
            ',' | '}' if depth == 0 => return Some(rest[..i].trim()),
            _ => {}
        }
    }
    // Field runs to end-of-line only in truncated records; reject.
    None
}

/// Extracts a scalar field (integer, float or boolean) as `T`.
pub fn value<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    raw_value(line, key)?.parse().ok()
}

/// Extracts a string field (unescaped).
pub fn str_value(line: &str, key: &str) -> Option<String> {
    let raw = raw_value(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let code: String = (&mut chars).take(4).collect();
                out.push(char::from_u32(u32::from_str_radix(&code, 16).ok()?)?);
            }
            c => out.push(c),
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_flat_objects() {
        let mut o = JsonObject::new();
        o.str_field("name", "a \"b\"\nc")
            .u64_field("k", 8)
            .bool_field("ok", true)
            .raw_field("trace", "[1,2]");
        assert_eq!(
            o.finish(),
            "{\"name\":\"a \\\"b\\\"\\nc\",\"k\":8,\"ok\":true,\"trace\":[1,2]}"
        );
    }

    #[test]
    fn round_trips_fields() {
        let mut o = JsonObject::new();
        o.str_field("status", "panic: \"boom\", {sad}")
            .u64_field("job_id", 42)
            .bool_field("dispersed", false)
            .raw_field("trace", "[{\"round\":0}]");
        let line = o.finish();
        assert_eq!(value(&line, "job_id"), Some(42u64));
        assert_eq!(value(&line, "dispersed"), Some(false));
        assert_eq!(
            str_value(&line, "status").as_deref(),
            Some("panic: \"boom\", {sad}")
        );
        assert!(is_complete_object(&line));
    }

    #[test]
    fn rejects_truncated_records() {
        let line = "{\"job_id\":17,\"status\":\"ok";
        assert!(!is_complete_object(line));
        // Unterminated field value is rejected rather than misread.
        assert_eq!(value::<u64>("{\"job_id\":17", "job_id"), None);
    }

    #[test]
    fn missing_fields_are_none() {
        assert_eq!(value::<u64>("{\"a\":1}", "b"), None);
        assert_eq!(str_value("{\"a\":1}", "a"), None);
    }
}
