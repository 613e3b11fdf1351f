//! Spans recorded by the benchmark around calls into the library's public
//! functions: name, start, end, parent, thread and request id, kept in memory
//! and written at exit as Chrome trace-event JSON plus a flat self-time
//! rollup.
//!
//! Parents are tracked per thread; a thread the benchmark spawns adopts its
//! spawner's open span. Work the pool steals runs under whatever span its
//! thread has open, which is why the traced contest run uses a pool width of
//! 1.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// What the span worked on (team, benchmark, family, op ...).
    pub detail: String,
    pub thread: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Pops this thread's innermost open span when dropped, on unwind too, so a
/// caught panic leaves the stack sound.
struct Pop;

impl Drop for Pop {
    fn drop(&mut self) {
        OPEN.with(|o| o.borrow_mut().pop());
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Runs `f` inside a span; with recording off it only calls `f`.
pub fn span<R>(
    name: &'static str,
    detail: impl Into<String>,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied();
        o.push(id);
        parent
    });
    let start_ns = epoch().elapsed().as_nanos() as u64;
    let out = {
        let _pop = Pop;
        f()
    };
    let end_ns = epoch().elapsed().as_nanos() as u64;
    let span = Span {
        id,
        parent,
        name,
        detail: detail.into(),
        thread: THREAD.with(|t| *t),
        request,
        start_ns,
        end_ns,
    };
    SPANS.lock().expect("span buffer poisoned").push(span);
    out
}

/// Every span recorded so far, ordered by id.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// The innermost open span on this thread.
pub fn current() -> Option<u32> {
    OPEN.with(|o| o.borrow().last().copied())
}

/// Runs `f` with `parent` as the open span, so spans `f` records on this
/// thread become children of a span opened on another thread.
pub fn adopt<R>(parent: Option<u32>, f: impl FnOnce() -> R) -> R {
    let Some(parent) = parent else {
        return f();
    };
    OPEN.with(|o| o.borrow_mut().push(parent));
    let _pop = Pop;
    f()
}

/// Self time of each span: its duration minus the part of its interval that
/// its children cover. Children on other threads may overlap, so the covered
/// part is the union of their intervals.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 * 1e-9
        })
        .collect()
}

/// Per layer (span name): span count, total and self seconds.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut out = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0u64, 0.0f64, 0.0f64));
        e.0 += 1;
        e.1 += s.dur_s();
        e.2 += self_s;
    }
    out
}

pub fn rollup_json(rollup: &BTreeMap<&'static str, (u64, f64, f64)>) -> String {
    let rows: Vec<String> = rollup
        .iter()
        .map(|(name, (n, total, own))| {
            format!("\"{name}\": {{\"count\": {n}, \"total_s\": {total}, \"self_s\": {own}}}")
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Chrome trace-event JSON ("X" complete events), which Perfetto and
/// `chrome://tracing` open directly.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"id\": {}, \"parent\": {}, \"request\": {}, \"detail\": \"{}\"}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.request,
                s.detail.replace(['"', '\\'], "_"),
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
        events.join(",\n")
    )
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
