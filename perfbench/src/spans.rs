//! In-memory spans for the traced run, their Chrome trace-event export, and
//! per-span self times derived back from the exported file.
//!
//! A span is opened around one call into a layer (never around a sub-µs
//! call: cells, batched loops and whole phases only).  Spans nest through
//! an explicit stack, so each records the span that caused it.  At exit the
//! spans are written as Chrome trace-event JSON — the same container
//! `laec-cli campaign --chrome-trace` emits, so Perfetto and
//! `chrome://tracing` open it — and every per-layer number is computed from
//! the self times read back from that file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: Option<u64>,
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts < 584 years")
    }

    /// Runs `f` inside a span named `name`, attributed to grid cell `cell`.
    pub fn span<T>(&mut self, name: &'static str, cell: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, cell);
        let value = f();
        self.close(id);
        value
    }

    /// Opens a span that encloses later spans; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, cell: Option<u64>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Renames the most recently opened span (e.g. once its call has
    /// shown which outcome it had).
    pub fn relabel_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    /// The spans as Chrome trace-event JSON: one complete (`"X"`) event per
    /// span on a single track, times in µs with ns digits, and the span id,
    /// parent id and cell id in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"laec-perfbench traced run\"}}",
        );
        for (id, span) in self.spans.iter().enumerate() {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{id},\"parent\":{},\"cell\":{}}}}}",
                span.name,
                micros(span.start_ns),
                micros(span.end_ns - span.start_ns),
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.cell.map_or("null".to_string(), |c| c.to_string()),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Nanoseconds as a µs literal with all nine digits kept (`1234` → `1.234`).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Self time of one span read back from a trace file.
#[derive(Debug, Clone)]
pub struct FileSpan {
    pub name: String,
    pub cell: Option<u64>,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub root: bool,
}

/// Parses a trace written by [`Tracer::chrome_json`] and derives each
/// span's self time: its duration minus the part of it its children cover.
pub fn read_self_times(text: &str) -> Result<Vec<FileSpan>, String> {
    let document = serde_json::parse(text).map_err(|e| e.to_string())?;
    let events = document
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .ok_or("no traceEvents array")?;
    let mut spans: BTreeMap<u64, Parsed> = BTreeMap::new();
    for event in events {
        if event.get("ph").and_then(serde_json::Value::as_str) != Some("X") {
            continue;
        }
        let field = |key: &str| event.get(key).ok_or(format!("span without `{key}`"));
        let args = field("args")?;
        let arg = |key: &str| args.get(key).and_then(serde_json::Value::as_u64);
        let start = ns_of(field("ts")?)?;
        let parsed = Parsed {
            name: field("name")?.as_str().ok_or("span name")?.to_string(),
            parent: arg("parent"),
            cell: arg("cell"),
            start,
            end: start + ns_of(field("dur")?)?,
        };
        spans.insert(arg("id").ok_or("span without id")?, parsed);
    }
    // Union of child intervals per parent (children of one parent run one
    // after another here, but overlapping children must not count twice).
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.values() {
        if let Some(parent) = span.parent {
            if !spans.contains_key(&parent) {
                return Err(format!(
                    "span `{}` names a missing parent {parent}",
                    span.name
                ));
            }
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    Ok(spans
        .iter()
        .map(|(id, span)| {
            let covered = children
                .get(id)
                .map_or(0, |intervals| covered_ns(intervals));
            FileSpan {
                name: span.name.clone(),
                cell: span.cell,
                dur_ns: span.end - span.start,
                self_ns: (span.end - span.start).saturating_sub(covered),
                root: span.parent.is_none(),
            }
        })
        .collect())
}

/// One complete event as read from the file, times in ns.
struct Parsed {
    name: String,
    parent: Option<u64>,
    cell: Option<u64>,
    start: u64,
    end: u64,
}

/// A µs literal with up to three decimals, back in integer ns.
fn ns_of(value: &serde_json::Value) -> Result<u64, String> {
    let serde_json::Value::Number(text) = value else {
        return Err("time is not a number".into());
    };
    let (whole, fraction) = text.split_once('.').unwrap_or((text, ""));
    if fraction.len() > 3 {
        return Err(format!("time `{text}` finer than 1 ns"));
    }
    let parse = |digits: &str| {
        digits
            .parse::<u64>()
            .map_err(|e| format!("time `{text}`: {e}"))
    };
    let fraction_ns = if fraction.is_empty() {
        0
    } else {
        parse(fraction)? * 10u64.pow(3 - fraction.len() as u32)
    };
    Ok(parse(whole)? * 1_000 + fraction_ns)
}

fn covered_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in sorted {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 25)]), 20);
        let mut tracer = Tracer::new();
        let root = tracer.open("bench.root", None);
        tracer.span("a.leaf", Some(3), || std::hint::black_box(1 + 1));
        tracer.close(root);
        let spans = read_self_times(&tracer.chrome_json()).expect("own output parses");
        let total: u64 = spans.iter().map(|s| s.self_ns).sum();
        let root_dur: u64 = spans.iter().filter(|s| s.root).map(|s| s.dur_ns).sum();
        assert_eq!(total, root_dur);
        assert_eq!(spans[1].cell, Some(3));
    }
}
