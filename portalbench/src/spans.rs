//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into the portal's public API from this
//! benchmark's own files. Each thread keeps a stack of open spans, so a span
//! opened inside another (a probe batch inside `execute`) records it as its
//! parent. Finished spans stay in a per-thread buffer until [`flush`] moves
//! them to the process-wide sink; nothing is written out until the run ends.
//! With recording off, opening a span costs one relaxed load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. `parent == 0` marks a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

#[derive(Default)]
struct Local {
    open: Vec<u64>,
    done: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// An open span; it records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span named `name`, parented to the thread's innermost open span.
pub fn enter(name: &'static str) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.open.last().copied().unwrap_or(0);
        l.open.push(id);
        parent
    });
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.open.pop();
            l.done.push(span);
        });
    }
}

/// Moves the calling thread's finished spans to the process-wide sink.
/// Every thread that records spans calls this before it ends.
pub fn flush() {
    let done = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().done));
    SINK.lock().expect("span sink poisoned").extend(done);
}

/// Flushes the calling thread and takes every span recorded so far.
pub fn take_all() -> Vec<Span> {
    flush();
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time the span's children cover.
    pub self_ns: u64,
}

/// Totals by span name. A span's self time is its duration minus its
/// children's durations (children nest within their parent on one thread).
/// Root spans named `probe_batch` are left out: they belong to untimed
/// checks outside any client operation.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans {
        if s.parent == 0 && s.name == "probe_batch" {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - child_ns.get(&s.id).copied().unwrap_or(0);
    }
    out
}
