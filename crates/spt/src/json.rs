//! A small, dependency-free JSON value type used by the structured-metrics
//! layer (`spt::sweep::RunReport` and the `spt-bench` binaries' `--json`
//! output).
//!
//! The build environment cannot resolve crates.io, so instead of `serde`
//! this module hand-rolls the one thing the project needs: *deterministic*
//! serialization. Objects keep insertion order (no hash-map reordering),
//! floats render via Rust's shortest-roundtrip `{:?}` formatting, and there
//! is no whitespace variation — the same value always serializes to the
//! same bytes. The sweep determinism tests rely on this byte stability.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integers (register values, return codes).
    Int(i64),
    /// Unsigned counters (cycles, instruction counts) — kept separate from
    /// `Int` so u64 values above `i64::MAX` never lose bits.
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object builder.
    pub fn obj() -> Json {
        Json::Object(Vec::new())
    }

    /// Insert a key (objects only; no-op otherwise). Returns `self` for
    /// chaining.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Object(pairs) = &mut self {
            pairs.push((key.to_string(), value.into()));
        }
        self
    }

    /// Build an array from anything convertible.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// Serialize compactly (no whitespace). Deterministic: same value, same
    /// bytes.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Serialize with two-space indentation, for human-facing files.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    /// Parse a JSON document. Strict enough for round-tripping what this
    /// module and `spt_trace::jsonl` emit (the trace schema validator and
    /// golden tests read files back through this). Nesting deeper than
    /// [`MAX_DEPTH`] is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Everything this
/// crate emits stays within single digits.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.s.get(self.i) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    /// One value inside `depth` open arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        // Each nesting level is one recursion; bound it so a hostile
        // document returns an error instead of exhausting the stack.
        if depth == MAX_DEPTH && matches!(self.s.get(self.i), Some(b'[' | b'{')) {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.i
            ));
        }
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    pairs.push((k, v));
                    self.skip_ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Object(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.s.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.s.get(self.i) {
            match b {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        if text.is_empty() || text == "-" {
            return Err(format!("expected a value at offset {start}"));
        }
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| e.to_string())
        } else if let Some(neg) = text.strip_prefix('-') {
            neg.parse::<i64>()
                .map(|v| Json::Int(-v))
                .map_err(|e| e.to_string())
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|e| e.to_string())
        }
    }
}

impl Json {
    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` is the shortest representation that round-trips,
                    // and always includes a decimal point or exponent.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Infinity
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Json {
        o.map_or(Json::Null, Into::into)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::array(v)
    }
}

/// Types that know how to render themselves as structured metrics.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// The `pipe_stall` attribution triple, nested under `"stall"`.
fn stall_json(bd: &spt_sim::CycleBreakdown) -> Json {
    Json::obj()
        .with("fetch_gate", bd.stall.fetch_gate)
        .with("operand", bd.stall.operand)
        .with("advance", bd.stall.advance)
}

impl ToJson for spt_sim::BaselineReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("cycles", self.cycles)
            .with("instrs", self.instrs)
            .with("busy", self.breakdown.busy)
            .with("pipe_stall", self.breakdown.pipe_stall)
            .with("dcache_stall", self.breakdown.dcache_stall)
            .with("stall", stall_json(&self.breakdown))
            .with("l1_misses", self.cache.l1_misses)
            .with("l2_misses", self.cache.l2_misses)
            .with("l3_misses", self.cache.l3_misses)
            .with("bp_mispredicts", self.bp_mispredicts)
            .with("loop_cycles", Json::array(self.loop_cycles.clone()))
            .with("ret", self.ret)
            .with("steps", self.steps)
            .with("out_of_fuel", self.out_of_fuel)
    }
}

impl ToJson for spt_sim::SptReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("cycles", self.cycles)
            .with("instrs", self.instrs)
            .with("busy", self.breakdown.busy)
            .with("pipe_stall", self.breakdown.pipe_stall)
            .with("dcache_stall", self.breakdown.dcache_stall)
            .with("stall", stall_json(&self.breakdown))
            .with("l1_misses", self.cache.l1_misses)
            .with("l2_misses", self.cache.l2_misses)
            .with("l3_misses", self.cache.l3_misses)
            .with("forks", self.forks)
            .with("forks_ignored", self.forks_ignored)
            .with("fast_commits", self.fast_commits)
            .with("replays", self.replays)
            .with("kills", self.kills)
            .with("divergence_kills", self.divergence_kills)
            .with("spec_instrs_checked", self.spec_instrs_checked)
            .with("spec_instrs_discarded", self.spec_instrs_discarded)
            .with("spec_misspec", self.spec_misspec)
            .with(
                "per_loop",
                Json::Array(
                    self.per_loop
                        .iter()
                        .map(|l| {
                            Json::obj()
                                .with("id", l.id)
                                .with("cycles", l.cycles)
                                .with("instrs", l.instrs)
                                .with("forks", l.forks)
                                .with("fast_commits", l.fast_commits)
                                .with("replays", l.replays)
                                .with("kills", l.kills)
                                .with("spec_instrs", l.spec_instrs)
                                .with("spec_misspec", l.spec_misspec)
                        })
                        .collect(),
                ),
            )
            .with(
                "per_core",
                Json::Array(
                    self.per_core
                        .iter()
                        .map(|c| {
                            Json::obj()
                                .with("core", c.core)
                                .with("instrs", c.instrs)
                                .with("threads", c.threads)
                                .with("fast_commits", c.fast_commits)
                                .with("replays", c.replays)
                                .with("kills", c.kills)
                        })
                        .collect(),
                ),
            )
            .with("bp_mispredicts", self.bp_mispredicts)
            .with("ret", self.ret)
            .with("steps", self.steps)
            .with("out_of_fuel", self.out_of_fuel)
    }
}

impl ToJson for crate::solution::EvalOutcome {
    /// Every deterministic field of the outcome. The sweep determinism test
    /// compares these bytes across worker counts, so nothing timing- or
    /// scheduling-dependent may appear here.
    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("baseline", self.baseline.to_json())
            .with("spt", self.spt.to_json())
            .with(
                "selected_loops",
                Json::Array(
                    self.compiled
                        .loops
                        .iter()
                        .map(|l| {
                            Json::obj()
                                .with("func", l.func.0)
                                .with("loop", l.key.loop_id.0)
                                .with("coverage", l.coverage)
                                .with("unroll", l.unroll)
                                .with("n_moved", l.n_moved)
                                .with("n_cloned", l.n_cloned)
                                .with("n_svp", l.n_svp)
                        })
                        .collect(),
                ),
            )
            .with("rejected", self.compiled.rejected.len())
            .with(
                "baseline_loop_cycles",
                Json::array(self.baseline_loop_cycles.clone()),
            )
            .with("speedup", self.speedup())
            .with("semantics_ok", self.semantics_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.dump(), "null");
        assert_eq!(Json::from(true).dump(), "true");
        assert_eq!(Json::from(-3i64).dump(), "-3");
        assert_eq!(Json::from(u64::MAX).dump(), "18446744073709551615");
        assert_eq!(Json::from(1.5f64).dump(), "1.5");
        assert_eq!(Json::Float(f64::NAN).dump(), "null");
        assert_eq!(Json::from("a\"b\\c\n").dump(), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn floats_always_roundtrip_distinctly() {
        // `{:?}` keeps a decimal point so integers-as-floats stay floats.
        assert_eq!(Json::from(2.0f64).dump(), "2.0");
        assert_eq!(Json::from(0.1f64).dump(), "0.1");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let j = Json::obj().with("z", 1u64).with("a", 2u64);
        assert_eq!(j.dump(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn nested_pretty_is_stable() {
        let j = Json::obj()
            .with("xs", Json::array(vec![1u64, 2]))
            .with("o", Json::obj().with("k", "v"));
        assert_eq!(j.dump(), "{\"xs\":[1,2],\"o\":{\"k\":\"v\"}}");
        assert_eq!(
            j.pretty(),
            "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"o\": {\n    \"k\": \"v\"\n  }\n}\n"
        );
    }

    #[test]
    fn option_maps_to_null() {
        assert_eq!(Json::from(None::<i64>).dump(), "null");
        assert_eq!(Json::from(Some(4i64)).dump(), "4");
    }

    #[test]
    fn parse_roundtrips_own_output() {
        let j = Json::obj()
            .with("a", Json::array(vec![1u64, 2]))
            .with("b", Json::obj().with("s", "x\"y\n").with("f", 1.5f64))
            .with("n", Json::Null)
            .with("neg", -7i64)
            .with("t", true);
        assert_eq!(Json::parse(&j.dump()).unwrap(), j);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("3 4").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objs = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objs).unwrap_err().contains("nesting"));
        // A nesting bomb far past the limit errors instead of overflowing
        // the stack, unclosed or not.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&nested(200_000)).is_err());
    }

    #[test]
    fn parse_accessors() {
        let j = Json::parse("{\"k\":3,\"xs\":[1,2],\"s\":\"v\",\"f\":2.5}").unwrap();
        assert_eq!(j.get("k").and_then(Json::as_u64), Some(3));
        assert_eq!(
            j.get("xs").and_then(Json::as_array).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(j.get("s").and_then(Json::as_str), Some("v"));
        assert_eq!(j.get("f").and_then(Json::as_f64), Some(2.5));
        assert!(j.get("missing").is_none());
    }
}
