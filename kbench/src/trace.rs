//! Host-time spans around the benchmark's calls into each layer.
//!
//! Spans live in memory (name, layer, start, end, parent) and are written
//! at exit as Chrome trace-event JSON plus a per-layer self-time table.
//! When tracing is off, [`span`] costs one thread-local flag check.
//!
//! Rank bodies of the polled engine run interleaved inside one kernel
//! call, so their host time cannot be a contiguous interval. [`Timed`]
//! sums the time spent polling them and [`child_total`] records that sum
//! as one aggregate child span of the enclosing call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

/// One recorded span. Times are ns since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation name (the called item).
    pub name: &'static str,
    /// Layer the call enters (crate or module).
    pub layer: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (idempotent).
pub fn start() {
    REC.with(|r| {
        r.borrow_mut().get_or_insert_with(|| Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        });
    });
    ON.with(|o| o.set(true));
}

/// Pause or resume recording (spans in flight keep their parents).
pub fn set_enabled(on: bool) {
    let have = REC.with(|r| r.borrow().is_some());
    ON.with(|o| o.set(on && have));
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ON.with(|o| o.get())
}

/// Run `f` inside a span named `name` of `layer`.
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recorder started");
        let start = rec.t0.elapsed().as_nanos() as u64;
        let parent = rec.stack.last().copied();
        rec.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent,
        });
        let idx = rec.spans.len() - 1;
        rec.stack.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recorder started");
        rec.spans[idx].end = rec.t0.elapsed().as_nanos() as u64;
        rec.stack.pop();
    });
    out
}

/// Record an aggregate child of the innermost open span: `total_ns` of
/// host time spent in `layer` in pieces inside that span (laid out from
/// the parent's start; see the module docs).
pub fn child_total(layer: &'static str, name: &'static str, total_ns: u64) {
    if !enabled() || total_ns == 0 {
        return;
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recorder started");
        let Some(&parent) = rec.stack.last() else {
            return;
        };
        let start = rec.spans[parent].start;
        rec.spans.push(Span {
            name,
            layer,
            start,
            end: start + total_ns,
            parent: Some(parent),
        });
    });
}

/// A future wrapper summing the host time spent polling `inner` into a
/// shared counter; with `acc = None` it only forwards.
pub struct Timed<F> {
    inner: Pin<Box<F>>,
    acc: Option<Rc<Cell<u64>>>,
}

impl<F: Future> Timed<F> {
    /// Wrap `inner`, adding its poll time to `acc` when given.
    pub fn new(inner: F, acc: Option<Rc<Cell<u64>>>) -> Timed<F> {
        Timed {
            inner: Box::pin(inner),
            acc,
        }
    }
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        match self.acc.clone() {
            None => self.inner.as_mut().poll(cx),
            Some(acc) => {
                let t0 = Instant::now();
                let out = self.inner.as_mut().poll(cx);
                acc.set(acc.get() + t0.elapsed().as_nanos() as u64);
                out
            }
        }
    }
}

/// Every recorded span so far.
pub fn spans() -> Vec<Span> {
    REC.with(|r| {
        r.borrow()
            .as_ref()
            .map(|r| r.spans.clone())
            .unwrap_or_default()
    })
}

/// Self time per layer, ns: each span's duration minus the part its
/// children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end - s.start).saturating_sub(child[i]);
        *out.entry(s.layer).or_insert(0) += own;
    }
    out
}

/// Chrome trace-event JSON of `spans` (complete events, µs timestamps).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            sp.name,
            sp.layer,
            sp.start as f64 / 1e3,
            (sp.end - sp.start) as f64 / 1e3
        );
    }
    s.push_str("]}\n");
    s
}

/// Plain-text per-layer self-time table.
pub fn layer_table(spans: &[Span]) -> String {
    let st = self_times(spans);
    let total: u64 = st.values().sum();
    let mut s = format!("{:<28} {:>12} {:>7}\n", "layer", "self_ms", "share");
    for (layer, ns) in &st {
        let _ = writeln!(
            s,
            "{:<28} {:>12.3} {:>6.1}%",
            layer,
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a",
                layer: "outer",
                start: 0,
                end: 100,
                parent: None,
            },
            Span {
                name: "b",
                layer: "inner",
                start: 10,
                end: 40,
                parent: Some(0),
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st["outer"], 70);
        assert_eq!(st["inner"], 30);
        assert!(chrome_json(&spans).contains("\"parent\":0"));
    }
}
