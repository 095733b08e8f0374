//! Hierarchical span records (see the module docs of
//! [`crate::telemetry`]).

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::lock;
use crate::prof::json::escape;

/// Global span-collection switch; one relaxed load on every would-be span.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Monotonic span ids, process-wide.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
/// Small per-process thread indices (0 is whichever thread spans first).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// Wall-clock origin of all span timestamps.
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Completed spans, appended at guard drop.
static SINK: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();

thread_local! {
    static THREAD_ID: Cell<Option<u64>> = const { Cell::new(None) };
    /// Ids of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn sink() -> &'static Mutex<Vec<SpanRecord>> {
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Turn span collection on or off. Metrics are unaffected (always on).
pub fn set_enabled(on: bool) {
    if on {
        // pin the epoch before the first span so timestamps are positive
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span collection is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (monotonic per process).
    pub id: u64,
    /// Id of the innermost span that was open on the same thread when
    /// this one was entered.
    pub parent: Option<u64>,
    /// Small per-process index of the emitting thread.
    pub thread: u64,
    /// Site family, e.g. `"clc"`, `"hpl"`, `"sched"`, `"coherence"`.
    pub category: &'static str,
    /// Site name, e.g. `"parse"`, `"cache_lookup"`, `"dispatch"`.
    pub name: String,
    /// Wall µs from the process epoch at enter.
    pub wall_start_us: f64,
    /// Wall µs from the process epoch at exit.
    pub wall_end_us: f64,
    /// Modeled-timeline µs, for spans shadowing a timeline reservation.
    pub modeled_start_us: Option<f64>,
    /// Modeled-timeline µs at the reservation's end.
    pub modeled_end_us: Option<f64>,
    /// Free-form `key=value` notes attached with [`Span::note`].
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// Wall duration in seconds.
    pub fn wall_seconds(&self) -> f64 {
        (self.wall_end_us - self.wall_start_us) / 1.0e6
    }
}

struct Active {
    id: u64,
    parent: Option<u64>,
    thread: u64,
    category: &'static str,
    name: String,
    start: Instant,
    modeled: Option<(f64, f64)>,
    args: Vec<(String, String)>,
}

/// RAII guard returned by [`span`]: the span closes (and its record is
/// emitted) when the guard drops. Inert when telemetry is disabled.
#[must_use = "a span closes when its guard drops"]
pub struct Span(Option<Active>);

/// Open a span. When telemetry is disabled this is one atomic load and
/// returns an inert guard; when enabled, the span is pushed on the
/// calling thread's open-span stack (becoming the parent of any span
/// opened below it) and records its enter time.
pub fn span(category: &'static str, name: impl Into<String>) -> Span {
    if !enabled() {
        return Span(None);
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let thread = thread_id();
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    // causal stitching: when the thread has an ambient request trace
    // (see crate::obs), every span tags itself with it automatically
    let mut args = Vec::new();
    if let Some(trace) = crate::obs::current_trace() {
        args.push(("trace".to_string(), trace.to_string()));
    }
    Span(Some(Active {
        id,
        parent,
        thread,
        category,
        name: name.into(),
        start: Instant::now(),
        modeled: None,
        args,
    }))
}

impl Span {
    /// Attach a `key=value` note (no-op on an inert guard).
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(a) = &mut self.0 {
            a.args.push((key.to_string(), value.to_string()));
        }
    }

    /// Attach the modeled-timeline interval (seconds) this span shadows.
    pub fn note_modeled(&mut self, start_seconds: f64, end_seconds: f64) {
        if let Some(a) = &mut self.0 {
            a.modeled = Some((start_seconds * 1.0e6, end_seconds * 1.0e6));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let epoch = *EPOCH.get_or_init(Instant::now);
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // the top should be our own id; truncate defensively so a
            // leaked child can never corrupt the ancestry of later spans
            if let Some(pos) = s.iter().rposition(|&x| x == a.id) {
                s.truncate(pos);
            }
        });
        let rec = SpanRecord {
            id: a.id,
            parent: a.parent,
            thread: a.thread,
            category: a.category,
            name: a.name,
            wall_start_us: a.start.duration_since(epoch).as_secs_f64() * 1.0e6,
            wall_end_us: end.duration_since(epoch).as_secs_f64() * 1.0e6,
            modeled_start_us: a.modeled.map(|(s, _)| s),
            modeled_end_us: a.modeled.map(|(_, e)| e),
            args: a.args,
        };
        lock(sink()).push(rec);
    }
}

/// Take every completed span collected so far, ordered by span id (the
/// order spans were *entered*, which is stable for a single-threaded
/// host workload).
pub fn drain_spans() -> Vec<SpanRecord> {
    let mut spans = std::mem::take(&mut *lock(sink()));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Validate span-tree well-formedness: every span exits after it enters,
/// and every span whose parent is in the set lives on the parent's
/// thread and closes before it (proper nesting). A span whose parent is
/// *not* in the set is treated as a root — a drain can legitimately
/// catch a tree mid-flight, since records are emitted at span exit.
pub fn check_nesting(spans: &[SpanRecord]) -> Result<(), String> {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.wall_end_us < s.wall_start_us {
            return Err(format!("span {} ({}) exits before it enters", s.id, s.name));
        }
        let Some(pid) = s.parent else { continue };
        let Some(p) = by_id.get(&pid) else { continue };
        if p.thread != s.thread {
            return Err(format!(
                "span {} ({}) crosses threads ({} -> {})",
                s.id, s.name, p.thread, s.thread
            ));
        }
        if s.wall_start_us < p.wall_start_us || s.wall_end_us > p.wall_end_us {
            return Err(format!(
                "span {} ({}) is not nested inside its parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
    }
    Ok(())
}

/// Render spans as a JSONL event log: one JSON object per line, parseable
/// by [`crate::prof::json::parse`].
pub fn spans_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"thread\":{},\"category\":\"{}\",\"name\":\"{}\",\
             \"wall_start_us\":{},\"wall_end_us\":{}",
            s.id,
            s.parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into()),
            s.thread,
            escape(s.category),
            escape(&s.name),
            s.wall_start_us,
            s.wall_end_us,
        );
        if let (Some(ms), Some(me)) = (s.modeled_start_us, s.modeled_end_us) {
            let _ = write!(out, ",\"modeled_start_us\":{ms},\"modeled_end_us\":{me}");
        }
        out.push_str(",\"args\":{");
        for (i, (k, v)) in s.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push_str("}}\n");
    }
    out
}

/// Render spans as an indented tree (children under their parents, both
/// in id order), one line per span with duration and notes — the
/// human-readable companion to [`spans_jsonl`].
pub fn render_span_tree(spans: &[SpanRecord]) -> String {
    use std::collections::HashMap;
    let mut children: HashMap<Option<u64>, Vec<&SpanRecord>> = HashMap::new();
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for s in spans {
        // a span whose parent was drained earlier renders as a root
        let key = s.parent.filter(|p| ids.contains(p));
        children.entry(key).or_default().push(s);
    }
    fn emit(
        out: &mut String,
        children: &HashMap<Option<u64>, Vec<&SpanRecord>>,
        key: Option<u64>,
        depth: usize,
    ) {
        let Some(list) = children.get(&key) else {
            return;
        };
        for s in list {
            let _ = write!(
                out,
                "{:indent$}[{}] {} {:.1} us",
                "",
                s.category,
                s.name,
                s.wall_end_us - s.wall_start_us,
                indent = 2 * depth,
            );
            for (k, v) in &s.args {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            emit(out, children, Some(s.id), depth + 1);
        }
    }
    let mut out = String::new();
    emit(&mut out, &children, None, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span tests share the process-global sink/flag; serialize them.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_are_inert() {
        let _g = lock(&SERIAL);
        set_enabled(false);
        drain_spans();
        {
            let mut s = span("test", "noop");
            s.note("k", 1);
        }
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let _g = lock(&SERIAL);
        set_enabled(true);
        drain_spans();
        {
            let mut outer = span("test", "outer");
            outer.note("answer", 42);
            {
                let _inner = span("test", "inner");
            }
        }
        set_enabled(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.args, vec![("answer".to_string(), "42".to_string())]);
        check_nesting(&spans).unwrap();
        let tree = render_span_tree(&spans);
        assert!(tree.contains("[test] outer"), "{tree}");
        assert!(tree.contains("  [test] inner"), "{tree}");
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let _g = lock(&SERIAL);
        set_enabled(true);
        drain_spans();
        {
            let mut s = span("test", "with \"quotes\"");
            s.note("bytes", 128);
            s.note_modeled(0.5, 1.5);
        }
        set_enabled(false);
        let spans = drain_spans();
        let jsonl = spans_jsonl(&spans);
        for line in jsonl.lines() {
            let v = crate::prof::json::parse(line).unwrap();
            assert!(v.get("id").is_some());
            assert_eq!(v.get("name").unwrap().as_str().unwrap(), "with \"quotes\"");
            assert_eq!(v.get("modeled_start_us").unwrap().as_num(), Some(500000.0));
        }
    }

    #[test]
    fn nesting_violations_are_detected() {
        let rec = |id, parent, thread, s, e| SpanRecord {
            id,
            parent,
            thread,
            category: "t",
            name: format!("s{id}"),
            wall_start_us: s,
            wall_end_us: e,
            modeled_start_us: None,
            modeled_end_us: None,
            args: Vec::new(),
        };
        // exit before enter
        assert!(check_nesting(&[rec(1, None, 0, 5.0, 1.0)]).is_err());
        // absent parent = partial drain, treated as a root
        check_nesting(&[rec(1, Some(9), 0, 0.0, 1.0)]).unwrap();
        // child outlives parent
        assert!(check_nesting(&[rec(1, None, 0, 0.0, 2.0), rec(2, Some(1), 0, 1.0, 3.0)]).is_err());
        // cross-thread parentage
        assert!(check_nesting(&[rec(1, None, 0, 0.0, 4.0), rec(2, Some(1), 1, 1.0, 2.0)]).is_err());
        // well-formed
        check_nesting(&[rec(1, None, 0, 0.0, 4.0), rec(2, Some(1), 0, 1.0, 2.0)]).unwrap();
    }
}
