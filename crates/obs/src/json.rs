//! A minimal JSON parser, an object builder, and a chrome-trace schema
//! checker.
//!
//! The parser exists for two consumers: the chrome-trace validator used
//! by tests and CI (every `B` must have a matching `E`, pids/tids must be
//! consistent), and the `tenbench report` subcommand, which re-reads
//! sweep/trace artifacts. [`Obj`] is the builder every `BENCH_*.json`
//! artifact is written through.

use std::collections::HashMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order preserved, lookups via [`Value::get`].
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => {
                self.depth += 1;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(b'[') => {
                self.depth += 1;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let slice = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        slice
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {slice:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code).ok_or_else(|| "bad codepoint".to_string())?,
                            );
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    if (ch as u32) < 0x20 {
                        return Err(format!("raw control char at byte {}", self.pos));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let slice =
            std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(slice, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Render a float as a JSON number token.
///
/// JSON has no representation for `NaN` or the infinities, so every
/// hand-rolled writer in the workspace routes floats through here (or
/// [`json_f64_fixed`]): non-finite values become `null`, keeping the row
/// present with an explicit "no value" instead of producing a document
/// this module's own parser rejects. Finite values use `{:e}` notation,
/// which is valid JSON and round-trips exactly.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// [`json_f64`] with fixed decimal places for writers that want aligned
/// human-readable output (e.g. chrome-trace microsecond timestamps).
pub fn json_f64_fixed(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// A JSON object under construction. Members render in insertion order;
/// floats go through [`json_f64`] / [`json_f64_fixed`] (non-finite becomes
/// `null`), strings are escaped, and [`Obj::raw`] embeds an already
/// rendered value (a nested report, an array).
#[derive(Clone, Debug, Default)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Append `key` with a pre-rendered JSON value.
    pub fn raw(mut self, key: &str, json: impl AsRef<str>) -> Obj {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        self.0
            .push_str(&format!("\"{}\": {}", escape_json(key), json.as_ref()));
        self
    }

    /// Append a string member.
    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, format!("\"{}\"", escape_json(v)))
    }

    /// Append a float member in exact `{:e}` form.
    pub fn num(self, key: &str, v: f64) -> Obj {
        self.raw(key, json_f64(v))
    }

    /// Append a float member with fixed decimals.
    pub fn fixed(self, key: &str, v: f64, decimals: usize) -> Obj {
        self.raw(key, json_f64_fixed(v, decimals))
    }

    /// Append an integer member.
    pub fn int(self, key: &str, v: u64) -> Obj {
        self.raw(key, v.to_string())
    }

    /// Append a boolean member.
    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.raw(key, v.to_string())
    }

    /// Append an array of pre-rendered JSON values.
    pub fn arr(self, key: &str, items: impl IntoIterator<Item = String>) -> Obj {
        self.raw(key, array(items))
    }

    /// The rendered object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Render pre-rendered JSON values as an array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total events in `traceEvents` (including metadata).
    pub total_events: usize,
    /// Paired `B`/`E` duration events.
    pub duration_events: usize,
    /// Async/flow events (`b`/`e`/`n`/`s`/`t`/`f`).
    pub flow_events: usize,
    /// Distinct `(pid, tid)` lanes seen.
    pub threads: usize,
    /// Deepest observed span nesting.
    pub max_depth: usize,
}

/// Validate chrome-trace JSON emitted by [`crate::Trace::to_chrome_json`]
/// (or any conforming producer): every event carries `ph`/`pid`/`tid`,
/// `B`/`E` additionally carry `name` and a non-negative `ts`, per-lane
/// timestamps are non-decreasing, every `E` matches the innermost open
/// `B` by name, and every `B` is closed by end of stream. Async events
/// (`b`/`n`/`e`) and flow events (`s`/`t`/`f`) must carry `name`, a
/// non-negative `ts`, and an `id`; they tie lanes together by id and do
/// not participate in the `B`/`E` stack.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeSummary, String> {
    let doc = Value::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut duration_events = 0usize;
    let mut flow_events = 0usize;
    let mut max_depth = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        let lane = (pid, tid);
        match ph {
            "B" | "E" => {
                let name = ev
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: {ph} without name"))?;
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: {ph} without ts"))?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!("event {i}: bad ts {ts}"));
                }
                let prev = last_ts.entry(lane).or_insert(ts);
                if ts < *prev {
                    return Err(format!(
                        "event {i}: ts {ts} went backwards on pid {pid} tid {tid}"
                    ));
                }
                *prev = ts;
                let stack = stacks.entry(lane).or_default();
                if ph == "B" {
                    stack.push(name.to_string());
                    max_depth = max_depth.max(stack.len());
                } else {
                    match stack.pop() {
                        Some(open) if open == name => {}
                        Some(open) => {
                            return Err(format!(
                                "event {i}: E \"{name}\" does not match open B \"{open}\""
                            ))
                        }
                        None => return Err(format!("event {i}: E \"{name}\" with no open B")),
                    }
                }
                duration_events += 1;
            }
            "b" | "e" | "n" | "s" | "t" | "f" => {
                // Async (b/n/e) and flow (s/t/f) events: named, timed,
                // id-keyed; outside the duration stack.
                ev.get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: {ph} without name"))?;
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: {ph} without ts"))?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!("event {i}: bad ts {ts}"));
                }
                ev.get("id")
                    .filter(|id| id.as_f64().is_some() || id.as_str().is_some())
                    .ok_or_else(|| format!("event {i}: {ph} without id"))?;
                flow_events += 1;
            }
            "M" | "C" | "I" | "X" => {}
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unclosed B \"{open}\" on pid {pid} tid {tid} at end of stream"
            ));
        }
    }
    Ok(ChromeSummary {
        total_events: events.len(),
        duration_events,
        flow_events,
        threads: stacks.len(),
        max_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_round_trips_finite_values() {
        for v in [0.0, -0.0, 1.0, -1.5, 1e-300, 1e300, 0.1, 123456.789] {
            let tok = json_f64(v);
            let parsed = Value::parse(&tok).expect("token parses");
            assert_eq!(parsed.as_f64(), Some(v), "{tok}");
        }
    }

    #[test]
    fn json_f64_maps_non_finite_to_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_f64(v), "null");
            assert_eq!(json_f64_fixed(v, 3), "null");
            assert_eq!(Value::parse(&json_f64(v)), Ok(Value::Null));
        }
        assert_eq!(json_f64_fixed(1.23456, 3), "1.235");
    }

    #[test]
    fn obj_builder_renders_parseable_json() {
        let inner = Obj::new().int("n", 3).build();
        let json = Obj::new()
            .str("name", "a \"quoted\"\nname")
            .num("nan", f64::NAN)
            .fixed("x", 2.0 / 3.0, 3)
            .bool("ok", true)
            .raw("inner", &inner)
            .arr("rows", [inner.clone(), "null".to_string()])
            .build();
        let v = Value::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("a \"quoted\"\nname")
        );
        assert_eq!(v.get("nan"), Some(&Value::Null));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(0.667));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("inner")
                .and_then(|o| o.get("n"))
                .and_then(Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            v.get("rows").and_then(Value::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(Obj::new().build(), "{}");
        assert_eq!(array(Vec::new()), "[]");
    }
}
