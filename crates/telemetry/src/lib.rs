//! Telemetry for the Cache Automaton scan/compile pipeline.
//!
//! The paper's headline claims rest on *activity* accounting — §5.3's
//! energy model charges only active partitions and switch signals — so a
//! production deployment needs to watch those counters while a run
//! executes, not reconstruct them afterwards. This crate provides the
//! observability layer the rest of the workspace instruments against:
//!
//! * [`TelemetrySink`] — the trait an observer implements. The event
//!   taxonomy is deliberately small: **counters** (monotonic totals that
//!   reconcile with `ExecStats` / `MappingStats` / `CacheStats`),
//!   **gauges** (point-in-time measurements with a position label, e.g.
//!   active partitions every N symbols), **spans** (wall-clock phase
//!   timings with an index label, e.g. per-stripe guess time) and **logs**
//!   (human-readable progress lines).
//! * [`Telemetry`] — the cheap cloneable handle instrumented code holds.
//!   A disabled handle (the default) is one `Option` branch per event
//!   site: branch-predictable, allocation-free, no dynamic dispatch.
//! * [`MemoryRecorder`] — a thread-safe in-memory sink for tests and
//!   programmatic inspection.
//! * [`JsonLinesWriter`] — one JSON object per event, streamed to any
//!   `Write` (`cactl run --metrics <path>` uses it over a file).
//! * [`validate_jsonl`] — the schema checker CI runs over emitted files.
//!
//! # Event naming
//!
//! Names are dot-separated `&'static str` identifiers, prefixed by layer:
//! `fabric.*` (simulator run loop), `scan.*` (sharded scan driver),
//! `compile.*` (space optimizer and mapping-compiler pass pipeline), `cache.*` (program
//! cache), `suite.*` (benchmark harness). Counter totals within one layer
//! reconcile exactly with that layer's stats struct; see DESIGN.md §7 for
//! the full taxonomy and the reconciliation guarantees.
//!
//! # Example
//!
//! ```
//! use ca_telemetry::{MemoryRecorder, Telemetry};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(MemoryRecorder::new());
//! let telemetry = Telemetry::from_arc(recorder.clone());
//! telemetry.counter("fabric.reports", 3);
//! telemetry.counter("fabric.reports", 2);
//! assert_eq!(recorder.counter("fabric.reports"), 5);
//!
//! let disabled = Telemetry::disabled();
//! assert!(!disabled.is_enabled());
//! disabled.counter("fabric.reports", 99); // no-op, no allocation
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// An observer of pipeline events.
///
/// Implementations must be cheap and non-blocking from the caller's
/// perspective (the fabric hot loop calls in); the bundled sinks guard
/// their state with a `Mutex`, which is fine at the emission rates the
/// instrumentation produces (one batch of counters per run, one gauge per
/// N thousand symbols).
pub trait TelemetrySink: Send + Sync + fmt::Debug {
    /// Adds `delta` to the monotonic counter `name`.
    fn counter(&self, name: &'static str, delta: u64);

    /// Records a point-in-time measurement. `label` positions the sample
    /// (symbol offset, stripe index, attempt number — the emitting site
    /// documents which).
    fn gauge(&self, name: &'static str, label: u64, value: f64);

    /// Records a wall-clock span timing in milliseconds. `label` is an
    /// index (stripe number, retry attempt) distinguishing repeated spans
    /// of the same name.
    fn span(&self, name: &'static str, label: u64, ms: f64);

    /// Receives a human-readable progress line.
    fn log(&self, message: &str) {
        let _ = message;
    }

    /// Flushes any buffered output. Called by [`Telemetry::flush`];
    /// buffering sinks (the JSON-lines writer) override it.
    fn flush(&self) {}
}

/// The handle instrumented code holds: either disabled (the default — a
/// single predictable branch per event site, no allocation, no dispatch)
/// or an `Arc` to a live [`TelemetrySink`].
///
/// Cloning is one `Arc` bump; handles are passed freely across threads.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.sink {
            Some(s) => write!(f, "Telemetry({s:?})"),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// The disabled handle: every event is a no-op.
    pub const fn disabled() -> Telemetry {
        Telemetry { sink: None }
    }

    /// A handle driving `sink`.
    pub fn new(sink: impl TelemetrySink + 'static) -> Telemetry {
        Telemetry { sink: Some(Arc::new(sink)) }
    }

    /// A handle driving an already-shared sink (keep your own `Arc` clone
    /// to read a [`MemoryRecorder`] back afterwards).
    pub fn from_arc(sink: Arc<dyn TelemetrySink>) -> Telemetry {
        Telemetry { sink: Some(sink) }
    }

    /// Whether events reach a sink. Hot loops hoist this into a local to
    /// skip even the per-event `Option` check.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Adds `delta` to counter `name` (no-op when disabled).
    #[inline]
    pub fn counter(&self, name: &'static str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter(name, delta);
        }
    }

    /// Records gauge `name` at position `label` (no-op when disabled).
    #[inline]
    pub fn gauge(&self, name: &'static str, label: u64, value: f64) {
        if let Some(sink) = &self.sink {
            sink.gauge(name, label, value);
        }
    }

    /// Records span `name` with index `label` (no-op when disabled).
    #[inline]
    pub fn span(&self, name: &'static str, label: u64, ms: f64) {
        if let Some(sink) = &self.sink {
            sink.span(name, label, ms);
        }
    }

    /// Emits a progress line. The message is built lazily so a disabled
    /// handle never pays for formatting.
    #[inline]
    pub fn log(&self, message: impl FnOnce() -> String) {
        if let Some(sink) = &self.sink {
            sink.log(&message());
        }
    }

    /// Flushes the sink's buffered output, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

/// One recorded gauge or span sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Position / index label the emitter attached.
    pub label: u64,
    /// Gauge value, or span duration in milliseconds.
    pub value: f64,
}

/// A thread-safe in-memory sink: counters accumulate, gauges and spans
/// append, logs collect. The test-and-inspection workhorse.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    inner: Mutex<RecorderState>,
}

#[derive(Debug, Default)]
struct RecorderState {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Vec<Sample>>,
    spans: BTreeMap<&'static str, Vec<Sample>>,
    logs: Vec<String>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.inner.lock().expect("telemetry recorder poisoned")
    }

    /// Total of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.state().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of every counter total.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.state().counters.clone()
    }

    /// All samples of gauge `name`, in emission order.
    pub fn gauges(&self, name: &str) -> Vec<Sample> {
        self.state().gauges.get(name).cloned().unwrap_or_default()
    }

    /// All samples of span `name`, in emission order.
    pub fn spans(&self, name: &str) -> Vec<Sample> {
        self.state().spans.get(name).cloned().unwrap_or_default()
    }

    /// Sum of the recorded durations of span `name`, in milliseconds.
    pub fn span_total_ms(&self, name: &str) -> f64 {
        self.state().spans.get(name).map_or(0.0, |v| v.iter().map(|s| s.value).sum())
    }

    /// Collected log lines, in emission order.
    pub fn logs(&self) -> Vec<String> {
        self.state().logs.clone()
    }

    /// Total number of recorded events of every kind.
    pub fn event_count(&self) -> usize {
        let s = self.state();
        s.counters.len()
            + s.gauges.values().map(Vec::len).sum::<usize>()
            + s.spans.values().map(Vec::len).sum::<usize>()
            + s.logs.len()
    }
}

impl TelemetrySink for MemoryRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        *self.state().counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, label: u64, value: f64) {
        self.state().gauges.entry(name).or_default().push(Sample { label, value });
    }

    fn span(&self, name: &'static str, label: u64, ms: f64) {
        self.state().spans.entry(name).or_default().push(Sample { label, value: ms });
    }

    fn log(&self, message: &str) {
        self.state().logs.push(message.to_string());
    }
}

/// A sink that prints log lines to stderr and discards metrics — the
/// progress reporter interactive harnesses (the bench suite) default to.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrLogger;

impl TelemetrySink for StderrLogger {
    fn counter(&self, _name: &'static str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _label: u64, _value: f64) {}
    fn span(&self, _name: &'static str, _label: u64, _ms: f64) {}
    fn log(&self, message: &str) {
        eprintln!("{message}");
    }
}

/// Streams one JSON object per event to a writer (JSON-lines / ndjson).
///
/// Schema (one line each, `\n`-terminated):
///
/// ```text
/// {"type":"counter","name":"fabric.reports","value":130}
/// {"type":"gauge","name":"fabric.active_partitions","label":4096,"value":3}
/// {"type":"span","name":"scan.stripe.guess","label":2,"ms":0.41}
/// {"type":"log","message":"[suite] running Snort ..."}
/// ```
///
/// `value` of a counter is a non-negative integer; gauge `value` and span
/// `ms` are finite JSON numbers; `label` is a non-negative integer.
/// [`validate_jsonl`] checks exactly this contract.
#[derive(Debug)]
pub struct JsonLinesWriter<W: Write + Send> {
    writer: Mutex<W>,
}

impl JsonLinesWriter<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and streams events into it, buffered.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(
        path: &str,
    ) -> std::io::Result<JsonLinesWriter<std::io::BufWriter<std::fs::File>>> {
        Ok(JsonLinesWriter::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write + Send> JsonLinesWriter<W> {
    /// Wraps a writer. Events are written as they arrive; call
    /// [`Telemetry::flush`] (or drop the sink) to flush buffering writers.
    pub fn new(writer: W) -> JsonLinesWriter<W> {
        JsonLinesWriter { writer: Mutex::new(writer) }
    }

    fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().expect("telemetry writer poisoned");
        // Telemetry must never fail the instrumented computation: write
        // errors are swallowed (the validator catches truncated output).
        let _ = writeln!(w, "{line}");
    }
}

impl<W: Write + Send> Drop for JsonLinesWriter<W> {
    fn drop(&mut self) {
        if let Ok(w) = self.writer.get_mut() {
            let _ = w.flush();
        }
    }
}

/// Formats `f` the way the schema expects: finite, with a decimal point or
/// exponent so integers and floats stay distinguishable to strict parsers.
fn json_number(f: f64) -> String {
    if f.is_finite() {
        let s = format!("{f}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // NaN/inf are not valid JSON; clamp to null-ish zero.
        "0.0".to_string()
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

impl<W: Write + Send + fmt::Debug> TelemetrySink for JsonLinesWriter<W> {
    fn counter(&self, name: &'static str, delta: u64) {
        self.write_line(&format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{delta}}}",
            json_escape(name)
        ));
    }

    fn gauge(&self, name: &'static str, label: u64, value: f64) {
        self.write_line(&format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"label\":{label},\"value\":{}}}",
            json_escape(name),
            json_number(value)
        ));
    }

    fn span(&self, name: &'static str, label: u64, ms: f64) {
        self.write_line(&format!(
            "{{\"type\":\"span\",\"name\":\"{}\",\"label\":{label},\"ms\":{}}}",
            json_escape(name),
            json_number(ms)
        ));
    }

    fn log(&self, message: &str) {
        self.write_line(&format!("{{\"type\":\"log\",\"message\":\"{}\"}}", json_escape(message)));
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("telemetry writer poisoned").flush();
    }
}

/// A fan-out sink: every event goes to all children in order.
///
/// Lets `cactl` stream JSON lines to a file while a recorder also tallies
/// totals for the end-of-run summary.
#[derive(Debug)]
pub struct Tee {
    sinks: Vec<Arc<dyn TelemetrySink>>,
}

impl Tee {
    /// A sink forwarding to every element of `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TelemetrySink>>) -> Tee {
        Tee { sinks }
    }
}

impl TelemetrySink for Tee {
    fn counter(&self, name: &'static str, delta: u64) {
        for s in &self.sinks {
            s.counter(name, delta);
        }
    }
    fn gauge(&self, name: &'static str, label: u64, value: f64) {
        for s in &self.sinks {
            s.gauge(name, label, value);
        }
    }
    fn span(&self, name: &'static str, label: u64, ms: f64) {
        for s in &self.sinks {
            s.span(name, label, ms);
        }
    }
    fn log(&self, message: &str) {
        for s in &self.sinks {
            s.log(message);
        }
    }
    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// JSON-lines schema validation (the CI checker)
// ---------------------------------------------------------------------------

/// Summary of a validated metrics file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Lines of each kind: counters, gauges, spans, logs.
    pub counters: usize,
    /// Gauge lines.
    pub gauges: usize,
    /// Span lines.
    pub spans: usize,
    /// Log lines.
    pub logs: usize,
}

impl JsonlSummary {
    /// Total validated event lines.
    pub fn total(&self) -> usize {
        self.counters + self.gauges + self.spans + self.logs
    }
}

/// Validates that `text` is a well-formed metrics stream: every non-empty
/// line a JSON object matching the [`JsonLinesWriter`] schema.
///
/// # Errors
///
/// The first offending line, as `"line N: reason"`.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let mut summary = JsonlSummary::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields = parse_json_object(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = match fields.get("type") {
            Some(JsonValue::String(s)) => s.as_str(),
            _ => return Err(format!("line {}: missing string field \"type\"", i + 1)),
        };
        let err = |msg: &str| Err(format!("line {}: {msg}", i + 1));
        let require_name = || match fields.get("name") {
            Some(JsonValue::String(s)) if !s.is_empty() => Ok(()),
            _ => Err(format!("line {}: missing non-empty string field \"name\"", i + 1)),
        };
        let require_uint = |key: &str| match fields.get(key) {
            Some(JsonValue::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(()),
            _ => Err(format!("line {}: field \"{key}\" must be a non-negative integer", i + 1)),
        };
        let require_num = |key: &str| match fields.get(key) {
            Some(JsonValue::Number(n)) if n.is_finite() => Ok(()),
            _ => Err(format!("line {}: field \"{key}\" must be a finite number", i + 1)),
        };
        match kind {
            "counter" => {
                require_name()?;
                require_uint("value")?;
                summary.counters += 1;
            }
            "gauge" => {
                require_name()?;
                require_uint("label")?;
                require_num("value")?;
                summary.gauges += 1;
            }
            "span" => {
                require_name()?;
                require_uint("label")?;
                require_num("ms")?;
                summary.spans += 1;
            }
            "log" => {
                match fields.get("message") {
                    Some(JsonValue::String(_)) => {}
                    _ => return err("missing string field \"message\""),
                }
                summary.logs += 1;
            }
            other => return err(&format!("unknown event type \"{other}\"")),
        }
    }
    Ok(summary)
}

/// Minimal JSON value for the schema checker (no external deps).
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

/// Parses one flat JSON object (`{"k":v,...}`, no nesting — the schema
/// never nests). Returns the key→value map.
fn parse_json_object(s: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut chars = s.char_indices().peekable();
    let mut map = BTreeMap::new();
    skip_ws(&mut chars);
    if chars.next().map(|(_, c)| c) != Some('{') {
        return Err("expected '{'".into());
    }
    skip_ws(&mut chars);
    if let Some(&(_, '}')) = chars.peek() {
        chars.next();
        return finish(chars, map);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next().map(|(_, c)| c) != Some(':') {
            return Err(format!("expected ':' after key \"{key}\""));
        }
        skip_ws(&mut chars);
        let value = parse_value(&mut chars)?;
        map.insert(key, value);
        skip_ws(&mut chars);
        match chars.next().map(|(_, c)| c) {
            Some(',') => continue,
            Some('}') => return finish(chars, map),
            _ => return Err("expected ',' or '}'".into()),
        }
    }
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn finish(
    mut chars: Chars<'_>,
    map: BTreeMap<String, JsonValue>,
) -> Result<BTreeMap<String, JsonValue>, String> {
    skip_ws(&mut chars);
    match chars.next() {
        None => Ok(map),
        Some((_, c)) => Err(format!("trailing content starting at '{c}'")),
    }
}

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut Chars<'_>) -> Result<String, String> {
    if chars.next().map(|(_, c)| c) != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    loop {
        match chars.next().map(|(_, c)| c) {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next().map(|(_, c)| c) {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .map(|(_, c)| c)
                            .and_then(|c| c.to_digit(16))
                            .ok_or("bad \\u escape")?;
                        code = code * 16 + d;
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err("bad escape".into()),
            },
            Some(c) if (c as u32) < 0x20 => return Err("raw control character in string".into()),
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_value(chars: &mut Chars<'_>) -> Result<JsonValue, String> {
    match chars.peek().map(|&(_, c)| c) {
        Some('"') => Ok(JsonValue::String(parse_string(chars)?)),
        Some('t') => parse_literal(chars, "true", JsonValue::Bool(true)),
        Some('f') => parse_literal(chars, "false", JsonValue::Bool(false)),
        Some('n') => parse_literal(chars, "null", JsonValue::Null),
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let mut num = String::new();
            while let Some(&(_, c)) = chars.peek() {
                if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                    num.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            num.parse::<f64>().map(JsonValue::Number).map_err(|_| format!("bad number '{num}'"))
        }
        Some('{') | Some('[') => Err("nested values are not part of the metrics schema".into()),
        _ => Err("expected a JSON value".into()),
    }
}

fn parse_literal(chars: &mut Chars<'_>, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    for expected in lit.chars() {
        if chars.next().map(|(_, c)| c) != Some(expected) {
            return Err(format!("bad literal (expected '{lit}')"));
        }
    }
    Ok(v)
}

/// A span timer: measures from construction to [`SpanGuard::finish`] (or
/// drop) and reports to the handle. Disabled handles never read the clock.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    telemetry: &'t Telemetry,
    name: &'static str,
    label: u64,
    started: Option<std::time::Instant>,
}

impl<'t> SpanGuard<'t> {
    /// Starts timing span `name` with index `label` against `telemetry`.
    pub fn start(telemetry: &'t Telemetry, name: &'static str, label: u64) -> SpanGuard<'t> {
        let started = telemetry.is_enabled().then(std::time::Instant::now);
        SpanGuard { telemetry, name, label, started }
    }

    /// Stops the timer and emits the span now.
    pub fn finish(mut self) {
        self.emit();
    }

    fn emit(&mut self) {
        if let Some(started) = self.started.take() {
            self.telemetry.span(self.name, self.label, started.elapsed().as_secs_f64() * 1e3);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter("x", 1);
        t.gauge("x", 0, 1.0);
        t.span("x", 0, 1.0);
        t.log(|| unreachable!("lazy log must not format when disabled"));
        t.flush();
    }

    #[test]
    fn recorder_accumulates_counters_and_samples() {
        let rec = Arc::new(MemoryRecorder::new());
        let t = Telemetry::from_arc(rec.clone());
        assert!(t.is_enabled());
        t.counter("a.b", 2);
        t.counter("a.b", 3);
        t.gauge("g", 10, 1.5);
        t.gauge("g", 20, 2.5);
        t.span("s", 0, 4.0);
        t.span("s", 1, 6.0);
        t.log(|| "hello".to_string());
        assert_eq!(rec.counter("a.b"), 5);
        assert_eq!(rec.counter("missing"), 0);
        assert_eq!(rec.gauges("g").len(), 2);
        assert_eq!(rec.gauges("g")[1], Sample { label: 20, value: 2.5 });
        assert_eq!(rec.span_total_ms("s"), 10.0);
        assert_eq!(rec.logs(), vec!["hello".to_string()]);
        assert_eq!(rec.event_count(), 1 + 2 + 2 + 1);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Arc::new(MemoryRecorder::new());
        let t = Telemetry::from_arc(rec.clone());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        t.counter("hits", 1);
                    }
                });
            }
        });
        assert_eq!(rec.counter("hits"), 800);
    }

    #[test]
    fn json_lines_emit_and_validate() {
        let writer = JsonLinesWriter::new(Vec::new());
        let t = Telemetry::new(writer);
        t.counter("fabric.reports", 130);
        t.gauge("fabric.active_partitions", 4096, 3.0);
        t.span("scan.stripe.guess", 2, 0.4125);
        t.log(|| "escaped \"quotes\"\nand newline".to_string());
        // Recover the buffer through a fresh writer round trip: emit to a
        // shared Vec via Arc instead.
        drop(t);
        // Re-emit against an inspectable buffer.
        #[derive(Debug, Default)]
        struct Buf(Mutex<Vec<u8>>);
        impl Write for &Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Box::leak(Box::new(Buf::default()));
        let t = Telemetry::new(JsonLinesWriter::new(&*buf));
        t.counter("fabric.reports", 130);
        t.gauge("fabric.active_partitions", 4096, 3.0);
        t.span("scan.stripe.guess", 2, 0.4125);
        t.log(|| "escaped \"quotes\"\nand newline".to_string());
        t.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 4);
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary, JsonlSummary { counters: 1, gauges: 1, spans: 1, logs: 1 });
        assert_eq!(summary.total(), 4);
        assert!(text.contains("\"value\":130"));
        assert!(text.contains("\\\"quotes\\\"\\n"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for (line, why) in [
            ("not json", "expected"),
            ("{\"type\":\"counter\",\"name\":\"x\"}", "value"),
            ("{\"type\":\"counter\",\"name\":\"x\",\"value\":-1}", "non-negative"),
            ("{\"type\":\"counter\",\"name\":\"x\",\"value\":1.5}", "non-negative integer"),
            ("{\"type\":\"gauge\",\"name\":\"x\",\"label\":0}", "value"),
            ("{\"type\":\"span\",\"name\":\"x\",\"label\":0,\"ms\":\"fast\"}", "finite number"),
            ("{\"type\":\"mystery\"}", "unknown event type"),
            ("{\"type\":\"log\"}", "message"),
            ("{\"type\":\"counter\",\"name\":\"\",\"value\":3}", "non-empty"),
            ("{\"type\":\"counter\",\"name\":\"x\",\"value\":{}}", "nested"),
        ] {
            let err = validate_jsonl(line).unwrap_err();
            assert!(err.contains(why), "line {line:?}: error {err:?} should mention {why:?}");
            assert!(err.starts_with("line 1:"), "{err}");
        }
        // empty input and blank lines are fine
        assert_eq!(validate_jsonl("").unwrap().total(), 0);
        assert_eq!(validate_jsonl("\n\n").unwrap().total(), 0);
    }

    #[test]
    fn validator_accepts_numbers_in_all_shapes() {
        let text = "{\"type\":\"gauge\",\"name\":\"x\",\"label\":0,\"value\":1e-3}\n\
                    {\"type\":\"span\",\"name\":\"x\",\"label\":18446744073709551615,\"ms\":0.0}\n";
        let s = validate_jsonl(text).unwrap();
        assert_eq!((s.gauges, s.spans), (1, 1));
    }

    #[test]
    fn tee_fans_out() {
        let a = Arc::new(MemoryRecorder::new());
        let b = Arc::new(MemoryRecorder::new());
        let t = Telemetry::new(Tee::new(vec![a.clone(), b.clone()]));
        t.counter("n", 7);
        t.log(|| "both".into());
        assert_eq!(a.counter("n"), 7);
        assert_eq!(b.counter("n"), 7);
        assert_eq!(b.logs(), vec!["both".to_string()]);
    }

    #[test]
    fn span_guard_times_and_emits() {
        let rec = Arc::new(MemoryRecorder::new());
        let t = Telemetry::from_arc(rec.clone());
        {
            let guard = SpanGuard::start(&t, "timed", 3);
            std::thread::sleep(std::time::Duration::from_millis(2));
            guard.finish();
        }
        let spans = rec.spans("timed");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].label, 3);
        assert!(spans[0].value >= 1.0, "slept 2ms, recorded {}", spans[0].value);
        // drop also emits
        {
            let _guard = SpanGuard::start(&t, "dropped", 0);
        }
        assert_eq!(rec.spans("dropped").len(), 1);
        // disabled: no clock read, no emission
        let off = Telemetry::disabled();
        SpanGuard::start(&off, "off", 0).finish();
    }

    #[test]
    fn json_number_formatting() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.25), "0.25");
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(f64::INFINITY), "0.0");
    }
}
