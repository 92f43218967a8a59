//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer in [`span`]; with tracing
//! off that is one relaxed load and a direct call. Spans are kept in
//! memory and written out once, at the end of the run, as Chrome
//! trace-event JSON (loadable in Perfetto).

use crate::stats::union_len;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Host nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id shared by every span of one served request.
    pub request: Option<u64>,
    /// Recording thread, for the exported track layout.
    pub thread: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Host nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread.
pub fn current() -> Option<u64> {
    CURRENT.with(Cell::get)
}

/// Run `f` with `parent` as this thread's open span, so spans that a
/// worker thread records attach to the span that spawned the work.
pub fn adopt<R>(parent: Option<u64>, f: impl FnOnce() -> R) -> R {
    let saved = CURRENT.with(|c| c.replace(parent));
    let r = f();
    CURRENT.with(|c| c.set(saved));
    r
}

/// Run `f` inside a span named `name`, child of this thread's open span.
pub fn span<R>(name: &'static str, request: Option<u64>, f: impl FnOnce() -> R) -> R {
    span_timed(name, request, f).0
}

/// [`span`], also returning the call's host seconds (measured whether or
/// not recording is on).
pub fn span_timed<R>(name: &'static str, request: Option<u64>, f: impl FnOnce() -> R) -> (R, f64) {
    if !enabled() {
        let t0 = Instant::now();
        let r = f();
        return (r, t0.elapsed().as_secs_f64());
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(Some(id)));
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    CURRENT.with(|c| c.set(parent));
    let thread = THREAD.with(|t| *t);
    let s = Span { id, parent, name, start_ns, end_ns, request, thread };
    SPANS.lock().expect("span buffer lock").push(s);
    (r, (end_ns - start_ns) as f64 / 1e9)
}

/// Every span recorded so far, in id order.
pub fn take() -> Vec<Span> {
    let mut v = std::mem::take(&mut *SPANS.lock().expect("span buffer lock"));
    v.sort_by_key(|s| s.id);
    v
}

/// Self time per span: its duration minus the union of its children's
/// intervals (clipped to it), keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Self seconds summed per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += selfs[&s.id] as f64 / 1e9;
    }
    out
}

/// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
/// with its id, parent and request id in `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}{}\n",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.thread,
            s.id,
            opt(s.parent),
            opt(s.request),
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", start_ns, end_ns, request: None, thread: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100; two overlapping children 10..40 and 30..60 (as on
        // two sweep threads) cover 50; a grandchild never counts twice.
        let spans = [
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 40),
            sp(3, Some(1), 30, 60),
            sp(4, Some(2), 15, 25),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 50);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 30);
        assert_eq!(s[&4], 10);
    }

    #[test]
    fn spans_nest_on_one_thread_and_adopt_across_threads() {
        set_enabled(true);
        let root = span("test.root", None, || {
            let me = current();
            std::thread::scope(|scope| {
                scope.spawn(|| adopt(me, || span("test.child", Some(7), || ())));
            });
            me
        });
        set_enabled(false);
        span("test.untraced", None, || ());
        let spans: Vec<Span> = take().into_iter().filter(|s| s.name.starts_with("test.")).collect();
        assert_eq!(spans.len(), 2);
        let root_span = spans.iter().find(|s| s.name == "test.root").expect("root");
        let child = spans.iter().find(|s| s.name == "test.child").expect("child");
        assert_eq!(Some(root_span.id), root);
        assert_eq!(child.parent, Some(root_span.id));
        assert_eq!(child.request, Some(7));
        assert!(root_span.start_ns <= child.start_ns && child.end_ns <= root_span.end_ns);
        assert!(to_chrome_json(&spans).contains("\"name\":\"test.child\""));
    }
}
