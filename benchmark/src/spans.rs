//! Spans recorded by the benchmark itself, around its calls into each
//! layer: name, start, end, the span that caused it, and the request they
//! belong to. Kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::{num, obj, text, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// One thread's span recorder. Spans nest by a stack: a span opened while
/// another is open becomes its child.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// All recorders of one run share `epoch`, so their spans merge onto
    /// one time axis.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span; it is the parent of every span recorded until the
    /// matching [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let id = self.open.pop().expect("close without an open span");
        self.spans[id].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        self.open(name, request);
        let result = f(self);
        self.close();
        result
    }

    /// Record a span that ends now and lasted `duration`, as a child of the
    /// open span: for calls whose caller already timed them.
    pub fn closed(&mut self, name: &'static str, request: u64, duration: Duration) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(duration.as_nanos() as u64),
            end_ns,
            parent: self.open.last().copied(),
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Each span's self time: its duration minus the part of that interval
/// its children cover (children of one span never overlap: one thread
/// records them in sequence).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self time and call count summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    by_name
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                obj([
                    ("name", text(s.name)),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Value::Null, |p| num(p as f64))),
                    ("request", num(s.request as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100; two sibling children 10..30 and 40..80; the second
        // has a nested child 50..60
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root's interval");
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["b"], (1, 30));
    }

    #[test]
    fn recorder_nests_by_call_structure_and_merges_threads() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        rec.span("outer", 7, |r| {
            r.span("inner", 7, |_| ());
            r.span("inner", 7, |_| ());
        });
        let mut other = Recorder::new(epoch);
        other.span("outer", 8, |r| r.span("inner", 8, |_| ()));
        rec.absorb(other);
        let s = rec.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!(s[4].parent, Some(3), "parent links survive the merge");
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(self_time_by_name(s)["inner"].0, 3);
        oclsim::prof::json::parse(&crate::json::write(&to_json(s))).expect("valid JSON");
    }
}
