//! Engine snapshot persistence: serialize a [`crate::engine::DiagnosisEngine`]'s
//! fitted slots to dependency-free JSON and restore them, so a restarted fleet
//! service starts with warm KDE fits instead of refitting every variable.
//!
//! The snapshot carries, per warm slot (in least- to most-recently-used order, so
//! restoring preserves LRU eviction order): the slot's engine fingerprint and every
//! cache entry — fitted entries as `(samples, bandwidth)` pairs that rebuild
//! bit-identically via [`diads_stats::Kde::from_parts`], negative entries (variables
//! known to have too few satisfactory samples) as explicit `null` fits so a restored
//! engine does not retry them.
//!
//! [`ScoreKey::Metric`] keys hold interned symbols, which are only meaningful
//! against the [`Interner`] that issued them; the snapshot therefore stores the
//! *identity* — component kind label + component name + metric short name (with a
//! custom-metric flag, since [`diads_monitor::MetricName::Custom`] spellings may
//! collide with builtin short names) — and restore re-interns against the target
//! interner. Evidence ledgers are **not** serialized: a restored engine warms plain
//! [`crate::engine::DiagnosisEngine::diagnose`] calls immediately, while the first
//! `diagnose_incremental` against a pre-restart watermark falls back to a (warm)
//! cold-path run and re-records its evidence.

use std::collections::HashSet;

use diads_db::OperatorId;
use diads_monitor::{ComponentId, ComponentKind, Interner, MetricKey, MetricName};
use diads_stats::Kde;

use crate::diagnosis::json::Writer;
use crate::workflow::{DiagnosisCache, ScoreKey};

/// Format version stamped into every snapshot; restore rejects anything else.
/// Version 2 slot fingerprints hash the store's stable identity hashes; version 1
/// fingerprints hashed intern-order-dependent symbol numbers, so a version-1 slot
/// would silently never match and is rejected instead.
const VERSION: f64 = 2.0;

/// Deepest array/object nesting [`Json::parse`] accepts — far above anything the
/// writer emits, and low enough that the recursive descent cannot exhaust the
/// stack on hostile input.
const MAX_DEPTH: usize = 128;

/// One cache entry as it travels through a snapshot: the score key plus its fit —
/// `Some((samples, bandwidth))` for fitted entries, `None` for negative entries.
pub(crate) type FitEntry = (ScoreKey, Option<(Vec<f64>, f64)>);

/// One warm slot in snapshot form: the engine fingerprint plus every cache entry.
pub(crate) type SlotData = (u64, Vec<FitEntry>);

/// Serializes warm slots (fingerprint + every cache entry, LRU order) to JSON.
pub(crate) fn serialize_slots(slots: &[SlotData], interner: &Interner) -> String {
    let mut w = Writer::new();
    w.open_object();
    w.number_field("version", VERSION);
    w.key("slots");
    w.open_array();
    for (fingerprint, entries) in slots {
        w.open_object();
        // Fingerprints are full-range u64 values; JSON numbers only hold 53 bits
        // exactly, so they travel as strings.
        w.string_field("fingerprint", &fingerprint.to_string());
        w.key("fits");
        w.open_array();
        for (key, fit) in entries {
            w.open_object();
            match key {
                ScoreKey::OperatorElapsed(op) => {
                    w.string_field("kind", "opElapsed");
                    w.number_field("operator", f64::from(op.0));
                }
                ScoreKey::OperatorRows(op) => {
                    w.string_field("kind", "opRows");
                    w.number_field("operator", f64::from(op.0));
                }
                ScoreKey::Metric(metric_key) => {
                    let component = interner.component(metric_key.component);
                    let metric = interner.metric(metric_key.metric);
                    w.string_field("kind", "metric");
                    w.string_field("componentKind", component.kind.label());
                    w.string_field("component", &component.name);
                    w.bool_field("custom", matches!(metric, MetricName::Custom(_)));
                    w.string_field("metric", metric.short_name());
                }
            }
            match fit {
                Some((samples, bandwidth)) => {
                    w.number_array_field("samples", samples.iter().copied());
                    w.number_field("bandwidth", *bandwidth);
                }
                None => w.null_field("samples"),
            }
            w.close_object();
        }
        w.close_array();
        w.close_object();
    }
    w.close_array();
    w.close_object();
    w.finish()
}

/// Parses a snapshot back into per-slot caches (in the serialized LRU order),
/// re-interning metric identities against `interner`. A fingerprint listed twice
/// is an error: an engine holds one slot per fingerprint.
pub(crate) fn parse_slots(json: &str, interner: &Interner) -> Result<Vec<(u64, DiagnosisCache)>, String> {
    let doc = Json::parse(json)?;
    let version = doc.get("version").and_then(Json::as_f64).ok_or("missing version")?;
    if version != VERSION {
        return Err(format!("unsupported snapshot version {version}"));
    }
    let slots = doc.get("slots").and_then(Json::as_array).ok_or("missing slots array")?;
    let mut out = Vec::with_capacity(slots.len());
    let mut seen = HashSet::with_capacity(slots.len());
    for slot in slots {
        let fingerprint: u64 = slot
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("slot missing fingerprint")?
            .parse()
            .map_err(|e| format!("bad fingerprint: {e}"))?;
        if !seen.insert(fingerprint) {
            return Err(format!("duplicate slot fingerprint {fingerprint}"));
        }
        let mut cache = DiagnosisCache::new();
        for entry in slot.get("fits").and_then(Json::as_array).ok_or("slot missing fits array")? {
            let key = parse_key(entry, interner)?;
            let fit = match entry.get("samples") {
                Some(Json::Null) | None => None,
                Some(samples) => {
                    let samples: Vec<f64> = samples
                        .as_array()
                        .ok_or("samples is neither null nor an array")?
                        .iter()
                        .map(|s| s.as_f64().ok_or("non-numeric sample"))
                        .collect::<Result<_, _>>()?;
                    let bandwidth = entry
                        .get("bandwidth")
                        .and_then(Json::as_f64)
                        .ok_or("fitted entry missing bandwidth")?;
                    Some(Kde::from_parts(samples, bandwidth).map_err(|e| format!("bad fit: {e}"))?)
                }
            };
            cache.insert_fit(key, fit);
        }
        out.push((fingerprint, cache));
    }
    Ok(out)
}

/// Rebuilds one [`ScoreKey`] from its serialized identity.
fn parse_key(entry: &Json, interner: &Interner) -> Result<ScoreKey, String> {
    let kind = entry.get("kind").and_then(Json::as_str).ok_or("fit entry missing kind")?;
    let operator = || -> Result<OperatorId, String> {
        let raw = entry.get("operator").and_then(Json::as_f64).ok_or("operator entry missing id")?;
        if raw.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&raw) {
            return Err(format!("operator id {raw} is not a u32"));
        }
        Ok(OperatorId(raw as u32))
    };
    match kind {
        "opElapsed" => Ok(ScoreKey::OperatorElapsed(operator()?)),
        "opRows" => Ok(ScoreKey::OperatorRows(operator()?)),
        "metric" => {
            let kind_label = entry
                .get("componentKind")
                .and_then(Json::as_str)
                .ok_or("metric entry missing componentKind")?;
            let component_kind = ComponentKind::from_label(kind_label)
                .ok_or_else(|| format!("unknown component kind {kind_label:?}"))?;
            let name =
                entry.get("component").and_then(Json::as_str).ok_or("metric entry missing component")?;
            let metric_name =
                entry.get("metric").and_then(Json::as_str).ok_or("metric entry missing metric")?;
            let custom = entry.get("custom").and_then(Json::as_bool).unwrap_or(false);
            let metric = if custom {
                MetricName::Custom(metric_name.to_string())
            } else {
                MetricName::from_short_name(metric_name)
                    .ok_or_else(|| format!("unknown builtin metric {metric_name:?}"))?
            };
            let component = ComponentId { kind: component_kind, name: name.to_string() };
            Ok(ScoreKey::Metric(MetricKey {
                component: interner.intern_component(&component),
                metric: interner.intern_metric(&metric),
            }))
        }
        other => Err(format!("unknown fit kind {other:?}")),
    }
}

/// A parsed JSON value — the read half of the crate's dependency-free JSON path
/// (the write half is [`crate::diagnosis::json::Writer`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (f64 holds every value the writer emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing content is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Recursive-descent JSON parser over raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // The writer only emits BMP escapes (control characters);
                            // unpaired surrogates decode to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape {:?}", other as char)),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume the whole run up to the next quote or escape in one
                    // slice (validating only that slice keeps parsing linear).
                    // Multi-byte UTF-8 units are all >= 0x80, so scanning for the
                    // two ASCII delimiters never splits a character.
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let chunk =
                        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_writer_output() {
        let mut w = Writer::new();
        w.open_object();
        w.string_field("name", "a \"quoted\"\nline\t\\");
        w.number_field("pi", 3.25);
        w.bool_field("flag", true);
        w.null_field("nothing");
        w.key("list");
        w.open_array();
        w.open_object();
        w.number_field("x", -1e-3);
        w.close_object();
        w.close_array();
        w.number_array_field("samples", [1.5, 2.25, f64::NAN].into_iter());
        w.close_object();
        let doc = Json::parse(&w.finish()).expect("writer output must parse");
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("a \"quoted\"\nline\t\\"));
        assert_eq!(doc.get("pi").and_then(Json::as_f64), Some(3.25));
        assert_eq!(doc.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("nothing"), Some(&Json::Null));
        let list = doc.get("list").and_then(Json::as_array).unwrap();
        assert_eq!(list[0].get("x").and_then(Json::as_f64), Some(-1e-3));
        // Non-finite numbers serialize as null and parse back as such.
        assert_eq!(doc.get("samples").and_then(Json::as_array).unwrap()[2], Json::Null);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1e999").map(|v| v.as_f64().unwrap().is_infinite()).unwrap_or(false));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let snapshot = format!("{{\"version\":{VERSION},\"slots\":{deep}");
        assert!(crate::engine::DiagnosisEngine::restore(&snapshot, Interner::global()).is_err());
        // Nesting up to the cap still parses.
        let nested = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&nested).is_ok());
    }

    fn restore(snapshot: &str) -> Result<crate::engine::DiagnosisEngine, String> {
        crate::engine::DiagnosisEngine::restore(snapshot, Interner::global())
    }

    #[test]
    fn version_1_snapshots_are_an_error() {
        let slot = r#"{"fingerprint":"7","fits":[]}"#;
        let err = restore(&format!(r#"{{"version":1,"slots":[{slot}]}}"#)).err();
        assert_eq!(err.as_deref(), Some("unsupported snapshot version 1"));
    }

    #[test]
    fn duplicate_fingerprints_are_an_error() {
        let slot = r#"{"fingerprint":"7","fits":[]}"#;
        let err = restore(&format!(r#"{{"version":{VERSION},"slots":[{slot},{slot}]}}"#)).err();
        assert_eq!(err.as_deref(), Some("duplicate slot fingerprint 7"));
        assert_eq!(restore(&format!(r#"{{"version":{VERSION},"slots":[{slot}]}}"#)).unwrap().slot_count(), 1);
    }

    #[test]
    fn operator_ids_outside_u32_are_an_error() {
        let snapshot = |id: &str| {
            format!(
                r#"{{"version":{VERSION},"slots":[{{"fingerprint":"1","fits":[{{"kind":"opRows","operator":{id},"samples":null}}]}}]}}"#
            )
        };
        for bad in ["-1", "1.5", "1e20", "4294967296"] {
            assert!(restore(&snapshot(bad)).is_err(), "operator id {bad} must be rejected");
        }
        for good in ["0", "3", "4294967295"] {
            assert!(restore(&snapshot(good)).is_ok(), "operator id {good} must restore");
        }
    }

    #[test]
    fn control_characters_round_trip_through_u_escapes() {
        let mut w = Writer::new();
        w.open_object();
        w.string_field("ctrl", "\u{0001}\u{001f}");
        w.close_object();
        let doc = Json::parse(&w.finish()).unwrap();
        assert_eq!(doc.get("ctrl").and_then(Json::as_str), Some("\u{0001}\u{001f}"));
    }
}
