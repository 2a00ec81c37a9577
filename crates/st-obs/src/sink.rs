//! Recording control, ad-hoc events, one-time warnings, and the JSONL
//! trace file.
//!
//! # JSONL schema (version 1)
//!
//! One JSON object per line, discriminated by `"type"`:
//!
//! | type        | fields                                                        |
//! |-------------|---------------------------------------------------------------|
//! | `meta`      | `version`, `schema` plus caller-supplied run metadata         |
//! | `span`      | `id`, `parent` (null for roots), `name`, `thread`, `start_us`, `dur_us` |
//! | `counter`   | `name`, `value`                                               |
//! | `gauge`     | `name`, `value`                                               |
//! | `histogram` | `name`, `count`, `sum`, `min`, `max`                          |
//! | `event`     | `name`, `t_us`, plus caller-supplied fields                   |
//! | `summary`   | `spans_opened`, `spans_closed`, `spans_dropped`, `spans_written` |
//!
//! The first line is always `meta`, the last always `summary`. The balance
//! invariant `spans_opened == spans_closed` (and
//! `spans_written + spans_dropped == spans_closed` for a single-drain
//! trace) is enforced by [`validate_jsonl`], which the CI smoke job runs
//! over the trace `run_all` emits.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, OnceLock};

use serde_json::{json, Map, Value};

use crate::metrics::{snapshot, MetricSnapshot};
use crate::span::{self, SpanRecord};

fn events() -> &'static Mutex<Vec<Value>> {
    static EVENTS: OnceLock<Mutex<Vec<Value>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn warned() -> &'static Mutex<std::collections::BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<std::collections::BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(std::collections::BTreeSet::new()))
}

/// Turn span collection and event capture on. Idempotent; also pins the
/// process trace epoch so span timestamps share an origin.
pub fn start_recording() {
    let _ = span::epoch();
    span::ENABLED.store(true, Ordering::Relaxed);
}

/// Turn span collection and event capture off. Already-open spans still
/// close and record, keeping the opened/closed balance intact.
pub fn stop_recording() {
    span::ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is currently enabled. Instrumented code can use this
/// to skip *computing* expensive labels; plain metric updates should not
/// bother (they are cheaper than the check).
pub fn recording() -> bool {
    span::ENABLED.load(Ordering::Relaxed)
}

/// Record a structured event (a point-in-time fact, e.g. a `TrainEvent`).
/// `fields` should be a JSON object; dropped unless recording.
pub fn event(name: &str, fields: Value) {
    if !recording() {
        return;
    }
    let t_us = std::time::Instant::now()
        .saturating_duration_since(span::epoch())
        .as_micros() as u64;
    let mut obj = Map::new();
    obj.insert("type".into(), Value::Str("event".into()));
    obj.insert("name".into(), Value::Str(name.into()));
    obj.insert("t_us".into(), Value::Num(t_us as f64));
    if let Value::Obj(extra) = fields {
        for (k, v) in extra.iter() {
            obj.insert(k.clone(), v.clone());
        }
    }
    events()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Value::Obj(obj));
}

/// Emit `message` to stderr exactly once per `key` for the process
/// lifetime, and (when recording) capture it as a `warning` event. Returns
/// `true` the first time, `false` on repeats. This is the surface for
/// "your config silently truncates" style diagnostics on hot paths.
pub fn warn_once(key: &str, message: &str) -> bool {
    let fresh = warned()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key.to_string());
    if !fresh {
        return false;
    }
    eprintln!("[st-obs] warning [{key}]: {message}");
    event("warning", json!({"key": key, "message": message}));
    true
}

/// Everything [`drain`] hands back: finished spans, metric snapshots,
/// captured events, and the span-balance counters.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Finished spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Snapshot of every registered metric with data.
    pub metrics: Vec<MetricSnapshot>,
    /// Captured events, in emission order.
    pub events: Vec<Value>,
    /// Cumulative spans opened process-wide.
    pub spans_opened: u64,
    /// Cumulative spans closed process-wide.
    pub spans_closed: u64,
    /// Spans lost to the buffer cap.
    pub spans_dropped: u64,
}

/// Move buffered spans and events out and snapshot the metrics. Metrics
/// are cumulative (not cleared); spans/events buffers are emptied.
pub fn drain() -> Trace {
    let spans = span::take_finished();
    let events = std::mem::take(&mut *events().lock().unwrap_or_else(|e| e.into_inner()));
    Trace {
        spans,
        metrics: snapshot(),
        events,
        spans_opened: span::OPENED.load(Ordering::Relaxed),
        spans_closed: span::CLOSED.load(Ordering::Relaxed),
        spans_dropped: span::DROPPED.load(Ordering::Relaxed),
    }
}

fn span_line(s: &SpanRecord) -> Value {
    json!({
        "type": "span",
        "id": s.id as f64,
        "parent": match s.parent { Some(p) => Value::Num(p as f64), None => Value::Null },
        "name": s.name.as_ref(),
        "thread": s.thread as f64,
        "start_us": s.start_us as f64,
        "dur_us": s.dur_us as f64,
    })
}

/// JSON has no non-finite numbers (the writer would emit `null`, which the
/// validator rejects); clamp the rare NaN/inf histogram stat to 0.
fn fin(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn metric_line(m: &MetricSnapshot) -> Value {
    match m {
        MetricSnapshot::Counter { name, value } => {
            json!({"type": "counter", "name": name.as_str(), "value": *value as f64})
        }
        MetricSnapshot::Gauge { name, value } => {
            json!({"type": "gauge", "name": name.as_str(), "value": *value})
        }
        MetricSnapshot::Histogram {
            name,
            count,
            sum,
            min,
            max,
        } => json!({
            "type": "histogram",
            "name": name.as_str(),
            "count": *count as f64,
            "sum": fin(*sum),
            "min": fin(*min),
            "max": fin(*max),
        }),
    }
}

/// Serialize a trace to `path` as schema-v1 JSONL, atomically
/// ([`write_atomic`]), so a crash never leaves a half-written trace.
pub fn write_jsonl(path: &Path, run_meta: &Value, trace: &Trace) -> std::io::Result<()> {
    let mut out = String::new();
    let mut meta = Map::new();
    meta.insert("type".into(), Value::Str("meta".into()));
    meta.insert("schema".into(), Value::Str("st-obs-trace".into()));
    meta.insert("version".into(), Value::Num(1.0));
    if let Value::Obj(extra) = run_meta {
        for (k, v) in extra.iter() {
            meta.insert(k.clone(), v.clone());
        }
    }
    push_line(&mut out, &Value::Obj(meta))?;
    for s in &trace.spans {
        push_line(&mut out, &span_line(s))?;
    }
    for m in &trace.metrics {
        push_line(&mut out, &metric_line(m))?;
    }
    for e in &trace.events {
        push_line(&mut out, e)?;
    }
    push_line(
        &mut out,
        &json!({
            "type": "summary",
            "spans_opened": trace.spans_opened as f64,
            "spans_closed": trace.spans_closed as f64,
            "spans_dropped": trace.spans_dropped as f64,
            "spans_written": trace.spans.len() as f64,
        }),
    )?;

    write_atomic(path, out.as_bytes())
}

/// Write `bytes` to `path` atomically, creating parent directories: a
/// `.tmp` sibling is written and `fsync`ed, renamed over the target, and
/// the directory is `fsync`ed so the rename itself survives a crash. A
/// crash mid-write leaves the old file or a stray `.tmp`, never a
/// truncated one. Traces, checkpoints and result files all go through it.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // Persist the rename: fsync the containing directory.
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

fn push_line(out: &mut String, v: &Value) -> std::io::Result<()> {
    let line = serde_json::to_string(v)?;
    out.push_str(&line);
    out.push('\n');
    Ok(())
}

/// Counts extracted by [`validate_jsonl`] from a well-formed trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// `span` lines present.
    pub spans: usize,
    /// `counter` lines present.
    pub counters: usize,
    /// `gauge` lines present.
    pub gauges: usize,
    /// `histogram` lines present.
    pub histograms: usize,
    /// `event` lines present.
    pub events: usize,
    /// `spans_opened` from the summary line.
    pub opened: u64,
    /// `spans_closed` from the summary line.
    pub closed: u64,
}

fn req_num(obj: &Value, key: &str, line_no: usize) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("line {line_no}: missing numeric field `{key}`"))
}

fn req_str<'v>(obj: &'v Value, key: &str, line_no: usize) -> Result<&'v str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("line {line_no}: missing string field `{key}`"))
}

/// Validate `text` against the schema-v1 JSONL contract: every line parses
/// as a typed object, the first is `meta`, exactly one trailing `summary`
/// exists, span lines are well-formed (positive id, non-self parent,
/// non-empty name), and the span balance holds (`opened == closed`,
/// `written + dropped == closed`). Returns the tally or a message naming
/// the first offending line.
pub fn validate_jsonl(text: &str) -> Result<TraceSummary, String> {
    let mut tally = TraceSummary::default();
    let mut summary: Option<Value> = None;
    let mut seen_ids = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            return Err(format!("line {line_no}: blank line"));
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {line_no}: not valid JSON: {e}"))?;
        let ty = req_str(&v, "type", line_no)?.to_string();
        if i == 0 {
            if ty != "meta" {
                return Err(format!("line 1: first line must be `meta`, got `{ty}`"));
            }
            let version = req_num(&v, "version", line_no)?;
            if (version - 1.0).abs() > f64::EPSILON {
                return Err(format!("line 1: unsupported schema version {version}"));
            }
            continue;
        }
        if summary.is_some() {
            return Err(format!("line {line_no}: content after `summary` line"));
        }
        match ty.as_str() {
            "meta" => return Err(format!("line {line_no}: duplicate `meta` line")),
            "span" => {
                let id = req_num(&v, "id", line_no)?;
                if id < 1.0 {
                    return Err(format!("line {line_no}: span id must be >= 1"));
                }
                if !seen_ids.insert(id.to_bits()) {
                    return Err(format!("line {line_no}: duplicate span id {id}"));
                }
                if let Some(p) = v.get("parent").and_then(Value::as_f64) {
                    if (p - id).abs() < 0.5 {
                        return Err(format!("line {line_no}: span is its own parent"));
                    }
                }
                if req_str(&v, "name", line_no)?.is_empty() {
                    return Err(format!("line {line_no}: empty span name"));
                }
                req_num(&v, "thread", line_no)?;
                req_num(&v, "start_us", line_no)?;
                req_num(&v, "dur_us", line_no)?;
                tally.spans += 1;
            }
            "counter" => {
                req_str(&v, "name", line_no)?;
                req_num(&v, "value", line_no)?;
                tally.counters += 1;
            }
            "gauge" => {
                req_str(&v, "name", line_no)?;
                req_num(&v, "value", line_no)?;
                tally.gauges += 1;
            }
            "histogram" => {
                req_str(&v, "name", line_no)?;
                req_num(&v, "count", line_no)?;
                req_num(&v, "sum", line_no)?;
                tally.histograms += 1;
            }
            "event" => {
                req_str(&v, "name", line_no)?;
                req_num(&v, "t_us", line_no)?;
                tally.events += 1;
            }
            "summary" => summary = Some(v),
            other => return Err(format!("line {line_no}: unknown line type `{other}`")),
        }
    }
    let Some(summary) = summary else {
        return Err("missing `summary` line".to_string());
    };
    let opened = req_num(&summary, "spans_opened", 0)? as u64;
    let closed = req_num(&summary, "spans_closed", 0)? as u64;
    let dropped = req_num(&summary, "spans_dropped", 0)? as u64;
    let written = req_num(&summary, "spans_written", 0)? as u64;
    if opened != closed {
        return Err(format!(
            "span imbalance: {opened} opened vs {closed} closed"
        ));
    }
    if written != tally.spans as u64 {
        return Err(format!(
            "summary claims {written} spans written but file has {}",
            tally.spans
        ));
    }
    if written + dropped > closed {
        return Err(format!(
            "span accounting: {written} written + {dropped} dropped > {closed} closed"
        ));
    }
    tally.opened = opened;
    tally.closed = closed;
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The write → validate round trip of a drained trace is
    // `tests/trace_roundtrip.rs`: it needs a process where no other test
    // holds a span open while it drains.

    #[test]
    fn validator_rejects_imbalance() {
        let text = concat!(
            "{\"type\":\"meta\",\"schema\":\"st-obs-trace\",\"version\":1}\n",
            "{\"type\":\"summary\",\"spans_opened\":3,\"spans_closed\":2,",
            "\"spans_dropped\":0,\"spans_written\":0}\n",
        );
        let err = validate_jsonl(text).unwrap_err();
        assert!(err.contains("imbalance"), "{err}");
    }

    #[test]
    fn validator_rejects_garbage_and_missing_summary() {
        assert!(validate_jsonl("not json\n").unwrap_err().contains("line 1"));
        let text = "{\"type\":\"meta\",\"schema\":\"st-obs-trace\",\"version\":1}\n";
        assert!(validate_jsonl(text).unwrap_err().contains("summary"));
    }

    #[test]
    fn validator_rejects_undeclared_span_count() {
        let text = concat!(
            "{\"type\":\"meta\",\"schema\":\"st-obs-trace\",\"version\":1}\n",
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"x\",",
            "\"thread\":1,\"start_us\":0,\"dur_us\":5}\n",
            "{\"type\":\"summary\",\"spans_opened\":1,\"spans_closed\":1,",
            "\"spans_dropped\":0,\"spans_written\":0}\n",
        );
        let err = validate_jsonl(text).unwrap_err();
        assert!(err.contains("claims"), "{err}");
    }

    #[test]
    fn warn_once_fires_once_per_key() {
        assert!(warn_once("test.sink.warn", "first"));
        assert!(!warn_once("test.sink.warn", "second"));
    }
}
