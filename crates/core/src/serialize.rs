//! Dependency-free structured serialization: JSON and CSV.
//!
//! The workspace's vendored `serde` is a no-op stub (the build container is
//! offline), so machine-readable output is produced by this small
//! hand-rolled module instead:
//!
//! * [`json`] — a JSON value model with a writer (compact and pretty) and a
//!   strict parser. Object fields keep **insertion order**, so rendering is
//!   deterministic and campaign outputs diff cleanly across PRs.
//! * [`csv`] — RFC-4180-style escaping, a column-checked table writer, and
//!   a reader.
//! * [`ReportRecord`] — the JSON-facing projection of a
//!   [`TomographyReport`], with
//!   round-trip-tested [`ReportRecord::to_json`] / [`ReportRecord::from_json`].
//!
//! All floating-point output goes through [`json::fmt_f64`], which uses
//! Rust's shortest-round-trip formatting (with a forced `.0` on integral
//! values), so `parse(render(x)) == x` exactly and same-seed runs are
//! byte-identical.

use crate::diagnosis::InferenceDiagnosis;
use crate::pipeline::{ConvergencePoint, ReliabilityReport, TomographyReport};
use btt_cluster::partition::Partition;

/// Minimal JSON: a value model, a deterministic writer, and a strict parser.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value.
    ///
    /// Numbers keep three variants so 64-bit seeds survive a round trip
    /// unmangled (a single `f64` variant would silently lose precision above
    /// 2⁵³). The parser classifies tokens without a decimal point or
    /// exponent as [`Json::UInt`] / [`Json::Int`], everything else as
    /// [`Json::Float`]; the writer renders floats with a decimal point, so
    /// classification round-trips.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A non-negative integer without point/exponent.
        UInt(u64),
        /// A negative integer without point/exponent.
        Int(i64),
        /// Any number written with a decimal point or exponent.
        Float(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Json>),
        /// An object; fields keep insertion order (deterministic output).
        Object(Vec<(String, Json)>),
    }

    /// A parse failure: what went wrong and the byte offset it happened at.
    #[derive(Debug, Clone, PartialEq)]
    pub struct JsonError {
        /// Human-readable description.
        pub message: String,
        /// Byte offset into the input.
        pub at: usize,
    }

    impl std::fmt::Display for JsonError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "JSON error at byte {}: {}", self.at, self.message)
        }
    }

    impl std::error::Error for JsonError {}

    impl Json {
        /// Builds an object from `(key, value)` pairs, preserving order.
        pub fn obj(fields: Vec<(&str, Json)>) -> Json {
            Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }

        /// Looks up a field of an object; `None` for missing keys or
        /// non-objects.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as `f64`, coercing any numeric variant.
        pub fn as_f64(&self) -> Option<f64> {
            match *self {
                Json::UInt(u) => Some(u as f64),
                Json::Int(i) => Some(i as f64),
                Json::Float(f) => Some(f),
                _ => None,
            }
        }

        /// The value as `u64` (only from non-negative integer variants).
        pub fn as_u64(&self) -> Option<u64> {
            match *self {
                Json::UInt(u) => Some(u),
                Json::Int(i) => u64::try_from(i).ok(),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array slice.
        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Array(v) => Some(v),
                _ => None,
            }
        }

        /// The value as a bool.
        pub fn as_bool(&self) -> Option<bool> {
            match *self {
                Json::Bool(b) => Some(b),
                _ => None,
            }
        }

        /// Compact single-line rendering.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, None, 0);
            out
        }

        /// Pretty rendering with 2-space indentation and a trailing newline.
        pub fn render_pretty(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, Some(2), 0);
            out.push('\n');
            out
        }

        fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
            let (nl, pad, pad_in) = match indent {
                Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
                None => ("", String::new(), String::new()),
            };
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(true) => out.push_str("true"),
                Json::Bool(false) => out.push_str("false"),
                Json::UInt(u) => {
                    write!(out, "{u}").unwrap();
                }
                Json::Int(i) => {
                    write!(out, "{i}").unwrap();
                }
                Json::Float(f) => out.push_str(&fmt_f64(*f)),
                Json::Str(s) => write_escaped(out, s),
                Json::Array(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(nl);
                        out.push_str(&pad_in);
                        item.write(out, indent, depth + 1);
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    out.push(']');
                }
                Json::Object(fields) => {
                    if fields.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(nl);
                        out.push_str(&pad_in);
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, depth + 1);
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    out.push('}');
                }
            }
        }
    }

    /// Formats a finite `f64` as JSON: shortest round-trip decimal, with a
    /// forced `.0` on integral values so the token re-parses as a float.
    /// Non-finite values have no JSON representation and render as `null`.
    pub fn fmt_f64(x: f64) -> String {
        if !x.is_finite() {
            return "null".to_string();
        }
        if x == x.trunc() {
            // {:.1} prints the exact decimal expansion of integral floats,
            // so this stays lossless at any magnitude.
            format!("{x:.1}")
        } else {
            format!("{x}")
        }
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
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    write!(out, "\\u{:04x}", c as u32).unwrap();
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Maximum container nesting the parser accepts. The writer never nests
    /// past a handful of levels; the bound turns adversarially deep input
    /// into a [`JsonError`] instead of a stack overflow.
    const MAX_DEPTH: usize = 128;

    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after document"));
        }
        Ok(v)
    }

    /// Enforces RFC 8259's number grammar:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. Rust's own
    /// `from_str` is more lenient (it accepts `01`, `1.`, `.5`), so the
    /// token is validated before it is parsed.
    fn valid_number_token(tok: &str) -> bool {
        let rest = tok.strip_prefix('-').unwrap_or(tok);
        let bytes = rest.as_bytes();
        let mut i = 0;
        // Integer part: one zero, or a nonzero digit followed by digits.
        match bytes.first() {
            Some(b'0') => i = 1,
            Some(b'1'..=b'9') => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
            _ => return false,
        }
        // Optional fraction: '.' then at least one digit.
        if bytes.get(i) == Some(&b'.') {
            i += 1;
            let d = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i == d {
                return false;
            }
        }
        // Optional exponent: e/E, optional sign, at least one digit.
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let d = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i == d {
                return false;
            }
        }
        i == bytes.len()
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn err(&self, message: &str) -> JsonError {
            JsonError { message: message.to_string(), at: self.pos }
        }

        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), JsonError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", b as char)))
            }
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(&format!("expected {word}")))
            }
        }

        fn value(&mut self) -> Result<Json, JsonError> {
            match self.peek() {
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
                Some(_) => Err(self.err("unexpected character")),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn enter(&mut self) -> Result<(), JsonError> {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                return Err(self.err("nesting too deep"));
            }
            Ok(())
        }

        fn array(&mut self) -> Result<Json, JsonError> {
            self.enter()?;
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(Json::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }

        fn object(&mut self) -> Result<Json, JsonError> {
            self.enter()?;
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(Json::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }

        fn string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                // Fast path: run of plain bytes.
                while let Some(&b) = self.bytes.get(self.pos) {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    self.pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?,
                );
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        out.push(self.escape()?);
                    }
                    Some(_) => return Err(self.err("raw control character in string")),
                    None => return Err(self.err("unterminated string")),
                }
            }
        }

        fn escape(&mut self) -> Result<char, JsonError> {
            let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
            self.pos += 1;
            Ok(match c {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{08}',
                b'f' => '\u{0C}',
                b'u' => {
                    let hi = self.hex4()?;
                    if (0xD800..0xDC00).contains(&hi) {
                        // High surrogate: a low surrogate must follow.
                        if self.peek() == Some(b'\\') {
                            self.pos += 1;
                            self.expect(b'u')?;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?
                        } else {
                            return Err(self.err("lone high surrogate"));
                        }
                    } else {
                        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                    }
                }
                _ => return Err(self.err("unknown escape")),
            })
        }

        fn hex4(&mut self) -> Result<u32, JsonError> {
            if self.pos + 4 > self.bytes.len() {
                return Err(self.err("truncated \\u escape"));
            }
            let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                .map_err(|_| self.err("invalid \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
            self.pos += 4;
            Ok(v)
        }

        fn number(&mut self) -> Result<Json, JsonError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let mut fractional = false;
            while let Some(b) = self.peek() {
                match b {
                    b'0'..=b'9' => self.pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        fractional = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            // The scanned bytes are all ASCII (digits, sign, point,
            // exponent), but surface a typed error rather than panic if
            // that invariant is ever broken — this runs inside the
            // `btt check` validation path on untrusted artifacts.
            let tok = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| JsonError { message: "invalid number bytes".into(), at: start })?;
            if !valid_number_token(tok) {
                return Err(JsonError { message: format!("invalid number {tok:?}"), at: start });
            }
            if !fractional {
                if let Some(stripped) = tok.strip_prefix('-') {
                    if stripped.parse::<u64>().is_ok() {
                        if let Ok(i) = tok.parse::<i64>() {
                            return Ok(Json::Int(i));
                        }
                    }
                } else if let Ok(u) = tok.parse::<u64>() {
                    return Ok(Json::UInt(u));
                }
            }
            tok.parse::<f64>()
                .ok()
                .filter(|f| f.is_finite())
                .map(Json::Float)
                .ok_or_else(|| JsonError { message: format!("invalid number {tok:?}"), at: start })
        }
    }
}

/// Minimal CSV: RFC-4180-style escaping, a column-checked writer, a reader.
pub mod csv {
    /// Escapes one field: quoted iff it contains a comma, quote, or newline.
    pub fn escape(field: &str) -> String {
        if field.contains(',')
            || field.contains('"')
            || field.contains('\n')
            || field.contains('\r')
        {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }

    /// A CSV document under construction; every row must match the header's
    /// column count (panics otherwise — a programming error in the caller).
    #[derive(Debug, Clone)]
    pub struct Table {
        columns: usize,
        out: String,
    }

    impl Table {
        /// Starts a table with the given header.
        pub fn new(header: &[&str]) -> Self {
            assert!(!header.is_empty());
            let mut t = Table { columns: header.len(), out: String::new() };
            t.push_row_inner(header.iter().copied());
            t
        }

        /// Appends one row.
        pub fn row<S: AsRef<str>>(&mut self, fields: &[S]) -> &mut Self {
            assert_eq!(fields.len(), self.columns, "row width must match header");
            self.push_row_inner(fields.iter().map(|f| f.as_ref()));
            self
        }

        fn push_row_inner<'a>(&mut self, fields: impl Iterator<Item = &'a str>) {
            let start = self.out.len();
            let mut first = true;
            for f in fields {
                if !first {
                    self.out.push(',');
                }
                first = false;
                self.out.push_str(&escape(f));
            }
            if self.out.len() == start {
                // A lone empty field would render as a blank line, which
                // readers (including ours) treat as no row at all; quote it.
                self.out.push_str("\"\"");
            }
            self.out.push('\n');
        }

        /// The finished document (`\n` line endings, header first).
        pub fn finish(self) -> String {
            self.out
        }
    }

    /// Parses a CSV document into rows of fields. Handles quoted fields with
    /// `""` escapes and embedded separators/newlines; rejects stray quotes.
    pub fn parse(text: &str) -> Result<Vec<Vec<String>>, String> {
        let mut rows = Vec::new();
        let mut row: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut chars = text.chars().peekable();
        let mut in_quotes = false;
        let mut row_started = false;
        // Set after a quoted field closes: only a separator may follow.
        let mut quote_closed = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                            quote_closed = true;
                        }
                    }
                    c => field.push(c),
                }
                continue;
            }
            if quote_closed && c != ',' && c != '\n' && c != '\r' {
                return Err("text after closing quote".to_string());
            }
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err("quote inside unquoted field".to_string());
                    }
                    in_quotes = true;
                    row_started = true;
                }
                ',' => {
                    row.push(std::mem::take(&mut field));
                    row_started = true;
                    quote_closed = false;
                }
                '\n' => {
                    if row_started || !field.is_empty() {
                        row.push(std::mem::take(&mut field));
                        rows.push(std::mem::take(&mut row));
                    }
                    row_started = false;
                    quote_closed = false;
                }
                '\r' => {} // tolerate CRLF
                c => {
                    field.push(c);
                    row_started = true;
                }
            }
        }
        if in_quotes {
            return Err("unterminated quoted field".to_string());
        }
        if row_started || !field.is_empty() {
            row.push(field);
            rows.push(row);
        }
        Ok(rows)
    }
}

use json::{fmt_f64, Json, JsonError};

/// Version tag stamped into every report JSON document. v2 added the
/// required `reliability` block and `run_hosts_lost` series; v3 added the
/// required `degenerate_partition` diagnostic flag; v4 added the required
/// `diagnosis` block (metric separation + capacity symmetry) and widened
/// `algorithm` to carry any inference backend name (`"additive"` joins the
/// four clustering algorithms). Apart from those two changes a v4 record
/// from a clustering backend is byte-identical to its v3 counterpart —
/// pinned by `crates/core/tests/backend_golden.rs`.
pub const REPORT_SCHEMA: &str = "btt-report-v4";

/// The JSON-facing projection of a tomography run: everything campaign
/// tooling needs to diff runs across PRs, without the raw per-run fragment
/// matrices (which are O(n²) per iteration and reproducible from the seed).
///
/// Partitions are stored in canonical form (dense cluster ids in order of
/// first appearance), so a record survives
/// `ReportRecord::from_json(&json::parse(&r.to_json().render())?)`
/// bit-for-bit — see the round-trip property test.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRecord {
    /// Scenario id (parseable by [`crate::scenarios::ScenarioSpec::parse`]
    /// for non-dataset scenarios).
    pub scenario_id: String,
    /// Phase-2 backend name ([`crate::backend::Backend::name`]; the
    /// algorithm's own name for clustering backends).
    pub algorithm: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Number of participating hosts.
    pub hosts: usize,
    /// File size in 16 KiB fragments.
    pub pieces: u32,
    /// Convergence series, one point per iteration prefix.
    pub convergence: Vec<ConvergencePoint>,
    /// Final clustering over the fully-aggregated metric.
    pub final_partition: Partition,
    /// Ground-truth clustering.
    pub ground_truth: Partition,
    /// Per-iteration broadcast makespans (seconds, simulated).
    pub run_makespans: Vec<f64>,
    /// First stable iteration with oNMI ≥ 0.999, if any.
    pub converged_at: Option<u32>,
    /// The reliability block: hosts lost, unobserved pairs, coverage, and
    /// confidence-weighted accuracy (identity values for static runs).
    pub reliability: ReliabilityReport,
    /// Hosts lost (still down at run end) per iteration.
    pub run_hosts_lost: Vec<u32>,
    /// True when the final partition is structurally degenerate
    /// (all-one-cluster / all-singletons): inference found *nothing*, as
    /// opposed to a low score against a real structure.
    pub degenerate_partition: bool,
    /// Why inference did or did not recover structure (see
    /// [`crate::diagnosis::InferenceDiagnosis`]).
    pub diagnosis: InferenceDiagnosis,
}

impl ReportRecord {
    /// Projects a pipeline report into a record. `pieces` comes from the
    /// session configuration (the campaign outcome does not retain it).
    pub fn new(report: &TomographyReport, pieces: u32) -> Self {
        ReportRecord {
            scenario_id: report.scenario_id.clone(),
            algorithm: report.backend.name().to_string(),
            seed: report.seed,
            hosts: report.ground_truth.len(),
            pieces,
            convergence: report.convergence.clone(),
            final_partition: canonical(&report.final_partition),
            ground_truth: canonical(&report.ground_truth),
            run_makespans: report.campaign.runs.iter().map(|r| r.makespan).collect(),
            converged_at: report.converged_at(0.999),
            reliability: report.reliability,
            run_hosts_lost: report.campaign.runs.iter().map(|r| r.hosts_lost() as u32).collect(),
            degenerate_partition: report.degenerate_partition,
            diagnosis: report.diagnosis,
        }
    }

    /// Total simulated measurement time (sum of makespans).
    pub fn measurement_time(&self) -> f64 {
        self.run_makespans.iter().sum()
    }

    /// Final-iteration oNMI (0 if the record has no convergence points).
    pub fn final_onmi(&self) -> f64 {
        self.convergence.last().map_or(0.0, |p| p.onmi)
    }

    /// Serializes with a fixed field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(REPORT_SCHEMA.to_string())),
            ("scenario", Json::Str(self.scenario_id.clone())),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("seed", Json::UInt(self.seed)),
            ("hosts", Json::UInt(self.hosts as u64)),
            ("pieces", Json::UInt(self.pieces as u64)),
            ("converged_at", self.converged_at.map_or(Json::Null, |k| Json::UInt(k as u64))),
            ("measurement_time_s", Json::Float(self.measurement_time())),
            (
                "convergence",
                Json::Array(
                    self.convergence
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("iterations", Json::UInt(p.iterations as u64)),
                                ("onmi", Json::Float(p.onmi)),
                                ("nmi", Json::Float(p.nmi)),
                                ("clusters", Json::UInt(p.clusters as u64)),
                                ("modularity", Json::Float(p.modularity)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("degenerate_partition", Json::Bool(self.degenerate_partition)),
            (
                "diagnosis",
                Json::obj(vec![
                    ("separation_intra_mean", Json::Float(self.diagnosis.separation_intra_mean)),
                    ("separation_inter_mean", Json::Float(self.diagnosis.separation_inter_mean)),
                    (
                        "separation_ratio",
                        self.diagnosis.separation_ratio.map_or(Json::Null, Json::Float),
                    ),
                    ("capacity_intra_mean", Json::Float(self.diagnosis.capacity_intra_mean)),
                    ("capacity_inter_mean", Json::Float(self.diagnosis.capacity_inter_mean)),
                    ("capacity_symmetric", Json::Bool(self.diagnosis.capacity_symmetric)),
                ]),
            ),
            ("final_partition", partition_to_json(&self.final_partition)),
            ("ground_truth", partition_to_json(&self.ground_truth)),
            (
                "run_makespans_s",
                Json::Array(self.run_makespans.iter().map(|&m| Json::Float(m)).collect()),
            ),
            (
                "reliability",
                Json::obj(vec![
                    ("hosts_lost", Json::UInt(self.reliability.hosts_lost)),
                    ("runs_disrupted", Json::UInt(self.reliability.runs_disrupted as u64)),
                    ("pairs_unobserved", Json::UInt(self.reliability.pairs_unobserved)),
                    ("pair_coverage", Json::Float(self.reliability.pair_coverage)),
                    ("onmi_observed", Json::Float(self.reliability.onmi_observed)),
                    (
                        "confidence_weighted_onmi",
                        Json::Float(self.reliability.confidence_weighted_onmi),
                    ),
                ]),
            ),
            (
                "run_hosts_lost",
                Json::Array(self.run_hosts_lost.iter().map(|&k| Json::UInt(k as u64)).collect()),
            ),
        ])
    }

    /// Reads a record back from [`ReportRecord::to_json`]-shaped JSON.
    pub fn from_json(v: &Json) -> Result<ReportRecord, JsonError> {
        let field = |key: &str| {
            v.get(key).ok_or(JsonError { message: format!("missing field {key:?}"), at: 0 })
        };
        let bad = |what: &str| JsonError { message: format!("bad field {what:?}"), at: 0 };
        // Checked narrowing: out-of-range values are corruption, not data.
        let u32_of = |j: &Json, what: &str| {
            j.as_u64().and_then(|u| u32::try_from(u).ok()).ok_or_else(|| bad(what))
        };
        let usize_of = |j: &Json, what: &str| {
            j.as_u64().and_then(|u| usize::try_from(u).ok()).ok_or_else(|| bad(what))
        };
        let schema = field("schema")?.as_str().ok_or_else(|| bad("schema"))?;
        if schema != REPORT_SCHEMA {
            return Err(JsonError {
                message: format!("unsupported schema {schema:?} (want {REPORT_SCHEMA:?})"),
                at: 0,
            });
        }
        let convergence = field("convergence")?
            .as_array()
            .ok_or_else(|| bad("convergence"))?
            .iter()
            .map(|p| {
                Ok(ConvergencePoint {
                    iterations: u32_of(
                        p.get("iterations").ok_or_else(|| bad("iterations"))?,
                        "iterations",
                    )?,
                    onmi: p.get("onmi").and_then(Json::as_f64).ok_or_else(|| bad("onmi"))?,
                    nmi: p.get("nmi").and_then(Json::as_f64).ok_or_else(|| bad("nmi"))?,
                    clusters: usize_of(
                        p.get("clusters").ok_or_else(|| bad("clusters"))?,
                        "clusters",
                    )?,
                    modularity: p
                        .get("modularity")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad("modularity"))?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let converged_at = match field("converged_at")? {
            Json::Null => None,
            other => Some(u32_of(other, "converged_at")?),
        };
        // The reliability block: required of every record this writer
        // emits; a present-but-malformed block is corruption.
        let reliability = {
            let r = field("reliability")?;
            let rf = |key: &str| r.get(key).and_then(Json::as_f64).ok_or_else(|| bad(key));
            ReliabilityReport {
                hosts_lost: r
                    .get("hosts_lost")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("hosts_lost"))?,
                runs_disrupted: u32_of(
                    r.get("runs_disrupted").ok_or_else(|| bad("runs_disrupted"))?,
                    "runs_disrupted",
                )?,
                pairs_unobserved: r
                    .get("pairs_unobserved")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("pairs_unobserved"))?,
                pair_coverage: rf("pair_coverage")?,
                onmi_observed: rf("onmi_observed")?,
                confidence_weighted_onmi: rf("confidence_weighted_onmi")?,
            }
        };
        // The diagnosis block: required of every v4 record.
        let diagnosis = {
            let d = field("diagnosis")?;
            let df = |key: &str| d.get(key).and_then(Json::as_f64).ok_or_else(|| bad(key));
            InferenceDiagnosis {
                separation_intra_mean: df("separation_intra_mean")?,
                separation_inter_mean: df("separation_inter_mean")?,
                separation_ratio: match d
                    .get("separation_ratio")
                    .ok_or_else(|| bad("separation_ratio"))?
                {
                    Json::Null => None,
                    other => Some(other.as_f64().ok_or_else(|| bad("separation_ratio"))?),
                },
                capacity_intra_mean: df("capacity_intra_mean")?,
                capacity_inter_mean: df("capacity_inter_mean")?,
                capacity_symmetric: match d
                    .get("capacity_symmetric")
                    .ok_or_else(|| bad("capacity_symmetric"))?
                {
                    Json::Bool(b) => *b,
                    _ => return Err(bad("capacity_symmetric")),
                },
            }
        };
        let run_hosts_lost = field("run_hosts_lost")?
            .as_array()
            .ok_or_else(|| bad("run_hosts_lost"))?
            .iter()
            .map(|k| u32_of(k, "run_hosts_lost"))
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(ReportRecord {
            scenario_id: field("scenario")?.as_str().ok_or_else(|| bad("scenario"))?.to_string(),
            algorithm: field("algorithm")?.as_str().ok_or_else(|| bad("algorithm"))?.to_string(),
            seed: field("seed")?.as_u64().ok_or_else(|| bad("seed"))?,
            hosts: usize_of(field("hosts")?, "hosts")?,
            pieces: u32_of(field("pieces")?, "pieces")?,
            convergence,
            final_partition: partition_from_json(field("final_partition")?)
                .ok_or_else(|| bad("final_partition"))?,
            ground_truth: partition_from_json(field("ground_truth")?)
                .ok_or_else(|| bad("ground_truth"))?,
            run_makespans: field("run_makespans_s")?
                .as_array()
                .ok_or_else(|| bad("run_makespans_s"))?
                .iter()
                .map(|m| m.as_f64().ok_or_else(|| bad("run_makespans_s")))
                .collect::<Result<Vec<_>, JsonError>>()?,
            converged_at,
            reliability,
            run_hosts_lost,
            degenerate_partition: match field("degenerate_partition")? {
                Json::Bool(b) => *b,
                _ => return Err(bad("degenerate_partition")),
            },
            diagnosis,
        })
    }
}

/// Re-numbers a partition into canonical form (dense ids in order of first
/// appearance) so serialization round-trips are exact.
fn canonical(p: &Partition) -> Partition {
    Partition::from_assignments(p.assignments())
}

/// A partition as a JSON array of per-node cluster ids.
pub fn partition_to_json(p: &Partition) -> Json {
    Json::Array(p.assignments().iter().map(|&c| Json::UInt(c as u64)).collect())
}

/// Reads a partition from a JSON array of cluster ids (renumbered densely).
///
/// Every id must be below the node count: a valid partition of `n` nodes
/// never needs an id ≥ `n`, and the bound keeps a corrupt or hostile
/// artifact from driving `Partition::from_assignments` into a max-id-sized
/// allocation.
pub fn partition_from_json(v: &Json) -> Option<Partition> {
    let items = v.as_array()?;
    let n = items.len() as u64;
    let raw: Option<Vec<u32>> =
        items.iter().map(|c| c.as_u64().filter(|&u| u < n).map(|u| u as u32)).collect();
    Some(Partition::from_assignments(&raw?))
}

/// The Fig. 13 convergence series as CSV
/// (`iterations,onmi,nmi,clusters,modularity`).
pub fn convergence_csv(record: &ReportRecord) -> String {
    let mut t = csv::Table::new(&["iterations", "onmi", "nmi", "clusters", "modularity"]);
    for p in &record.convergence {
        t.row(&[
            p.iterations.to_string(),
            fmt_f64(p.onmi),
            fmt_f64(p.nmi),
            p.clusters.to_string(),
            fmt_f64(p.modularity),
        ]);
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::json::{fmt_f64, parse, Json};
    use super::*;
    use crate::dataset::Dataset;
    use crate::session::TomographySession;

    #[test]
    fn json_render_and_parse_basics() {
        let v = Json::obj(vec![
            ("a", Json::UInt(18_446_744_073_709_551_615)),
            ("b", Json::Int(-3)),
            ("c", Json::Float(0.25)),
            ("d", Json::Str("comma, \"quote\"\nnewline".into())),
            ("e", Json::Array(vec![Json::Null, Json::Bool(true)])),
            ("f", Json::Object(vec![])),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains("18446744073709551615"), "u64 survives: {text}");
        let pretty = v.render_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.ends_with('\n'));
    }

    #[test]
    fn json_float_formatting_round_trips() {
        for x in [0.0, -0.0, 1.0, -17.0, 0.1, 1.0 / 3.0, 6.02e23, 5e-324, -1.25e-9] {
            let s = fmt_f64(x);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s}");
            assert!(
                s.contains('.') || s.contains('e') || s.contains('E'),
                "{s} must re-parse as a float token"
            );
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn json_parser_rejects_garbage() {
        for text in [
            "",
            "nul",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"\\q\"",
            "\"unterminated",
            "01x",
            "1 2",
            "{\"a\":1,}",
            "\"\\ud800\"",
            // RFC 8259 number grammar: no leading zeros, no bare trailing
            // point, no empty exponent, no leading point.
            "01",
            "[1.]",
            "-",
            "1e",
            "1e+",
            "[-.5]",
            "00.5",
        ] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
        // Valid numbers at the grammar's edges still pass.
        for text in ["0", "-0", "0.5", "10e2", "1E-9", "-1.25e+3"] {
            assert!(parse(text).is_ok(), "{text:?} should parse");
        }
    }

    #[test]
    fn json_parser_bounds_nesting_depth() {
        // Deep nesting must fail cleanly, not blow the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // The writer's actual nesting depth stays comfortably inside.
        let nested = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(parse(&nested).is_ok());
    }

    #[test]
    fn json_unicode_escapes() {
        assert_eq!(parse(r#""\u00e9\ud83d\ude00""#).unwrap(), Json::Str("é😀".into()));
        let v = Json::Str("control\u{01}char".into());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn csv_escaping_and_parsing() {
        let mut t = csv::Table::new(&["name", "value"]);
        t.row(&["plain", "1"]);
        t.row(&["with,comma", "quote\"inside"]);
        t.row(&["multi\nline", ""]);
        let text = t.finish();
        let rows = csv::parse(&text).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[2], vec!["with,comma", "quote\"inside"]);
        assert_eq!(rows[3], vec!["multi\nline", ""]);
        assert!(csv::parse("a,\"b").is_err());
        assert!(csv::parse("\"a\"b,c").is_err(), "text after closing quote");
        assert!(csv::parse("\"\"\"x\"\"\",ok").is_ok(), "doubled quotes inside quotes");
    }

    #[test]
    fn report_record_round_trips() {
        let report =
            TomographySession::new(Dataset::Small2x2).iterations(3).pieces(64).seed(5).run();
        let record = ReportRecord::new(&report, 64);
        let text = record.to_json().render_pretty();
        let back = ReportRecord::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.hosts, 4);
        assert_eq!(back.algorithm, "louvain");
        assert_eq!(back.run_makespans.len(), 3);
    }

    #[test]
    fn report_record_rejects_wrong_schema() {
        let mut v = ReportRecord::new(
            &TomographySession::new(Dataset::Small2x2).iterations(1).pieces(48).seed(1).run(),
            48,
        )
        .to_json();
        if let Json::Object(fields) = &mut v {
            fields[0].1 = Json::Str("btt-report-v999".into());
        }
        assert!(ReportRecord::from_json(&v).is_err());
    }

    #[test]
    fn report_record_rejects_corrupt_numbers() {
        let base = ReportRecord::new(
            &TomographySession::new(Dataset::Small2x2).iterations(1).pieces(48).seed(1).run(),
            48,
        )
        .to_json();
        let mutate = |key: &str, value: Json| {
            let mut v = base.clone();
            if let Json::Object(fields) = &mut v {
                fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
            }
            v
        };
        // u32 overflow must be rejected, not truncated to a small number.
        let v = mutate("pieces", Json::UInt(u64::from(u32::MAX) + 2));
        assert!(ReportRecord::from_json(&v).is_err(), "pieces overflow");
        let v = mutate("converged_at", Json::UInt(1 << 32));
        assert!(ReportRecord::from_json(&v).is_err(), "converged_at overflow");
        // Partition ids beyond the node count are corruption, and must not
        // drive a max-id-sized allocation.
        let v = mutate("final_partition", Json::Array(vec![Json::UInt(4_000_000_000); 4]));
        assert!(ReportRecord::from_json(&v).is_err(), "oversized cluster id");
        // `diagnosis.separation_ratio` is a number or a typed `null`; the
        // old `"n/a"` string encoding and other non-numbers are corruption.
        let with_ratio = |ratio: Json| {
            let mut d = base.get("diagnosis").unwrap().clone();
            if let Json::Object(fields) = &mut d {
                fields.iter_mut().find(|(k, _)| k == "separation_ratio").unwrap().1 = ratio;
            }
            ReportRecord::from_json(&mutate("diagnosis", d))
        };
        assert_eq!(with_ratio(Json::Null).unwrap().diagnosis.separation_ratio, None);
        assert_eq!(with_ratio(Json::Float(1.25)).unwrap().diagnosis.separation_ratio, Some(1.25));
        for corrupt in [Json::Str("n/a".into()), Json::Bool(true)] {
            let err = with_ratio(corrupt).unwrap_err();
            assert!(err.message.contains("separation_ratio"), "{err}");
        }
    }

    #[test]
    fn convergence_csv_shape() {
        let report =
            TomographySession::new(Dataset::Small2x2).iterations(2).pieces(48).seed(3).run();
        let record = ReportRecord::new(&report, 48);
        let text = convergence_csv(&record);
        let rows = csv::parse(&text).unwrap();
        assert_eq!(rows[0], vec!["iterations", "onmi", "nmi", "clusters", "modularity"]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1][0], "1");
    }
}
