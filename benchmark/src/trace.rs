//! Spans recorded by the benchmark's own code around the public calls
//! into each layer, kept in memory and written out when the run ends,
//! plus the counting allocator the `core.evaluate` span switches on.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span log, shareable between client threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished interval and returns its index, for children
    /// recorded later to name as their parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder panics while holding the log");
        spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Times `f` as a span under `parent`. The span is recorded after `f`
    /// returns, so `f` itself may record children only by index of an
    /// ancestor that already exists; use [`Tracer::reserve`] for those.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, request);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Opens a span whose end is filled in by [`Tracer::close`], so that
    /// children can name it as their parent while it is running.
    pub fn reserve(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Closes a span opened by [`Tracer::reserve`]; returns its duration
    /// in milliseconds.
    pub fn close(&self, index: usize) -> f64 {
        let end = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder panics while holding the log");
        spans[index].end_ns = end;
        spans[index].ms()
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no recorder panics while holding the log")
            .clone()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of that interval its direct children cover (overlapping children are
/// counted once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// The span log as JSON: `{name, start_ns, end_ns, self_ns, parent, request}`.
#[must_use]
pub fn spans_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect(),
    )
}

/// The system allocator with two per-thread counters that run only while
/// [`count_allocations`] has switched them on for the calling thread —
/// inside the `core.evaluate` spans of the traced pass. Off, each
/// allocation pays one thread-local load.
pub struct CountingAlloc;

thread_local! {
    // const-initialised and without destructors: reading them never
    // allocates, so the allocator may
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local cells and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size.saturating_sub(layout.size()));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with allocation counting on for this thread; returns its
/// result and the `(allocations, bytes)` this thread made meanwhile
/// (a `realloc` counts as one allocation of the bytes it grows by).
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.set(0);
    ALLOC_BYTES.set(0);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCS.get(), ALLOC_BYTES.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 100, None),     // 0: two overlapping children and one disjoint
            span(10, 40, Some(0)),  // 1
            span(30, 60, Some(0)),  // 2: overlaps 1 on [30, 40)
            span(70, 80, Some(0)),  // 3
            span(35, 38, Some(2)),  // 4: grandchild, not charged to 0
            span(90, 120, Some(0)), // 5: sticks out of its parent, clipped
        ];
        let selfs = self_times(&spans);
        // covered: [10, 60) ∪ [70, 80) ∪ [90, 100) = 70
        assert_eq!(selfs[0], 30);
        assert_eq!(selfs[1], 30);
        assert_eq!(selfs[2], 27);
        assert_eq!(selfs[4], 3);
        assert_eq!(selfs[5], 30);
        // self times of a tree sum to the root's duration when children nest
        let nested = [
            span(0, 50, None),
            span(5, 25, Some(0)),
            span(10, 20, Some(1)),
        ];
        assert_eq!(self_times(&nested).iter().sum::<u64>(), 50);
    }

    #[test]
    fn allocations_are_counted_per_thread_and_only_when_asked() {
        let (v, allocs, bytes) = count_allocations(|| {
            // another thread's allocations are not this thread's
            std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; 4096])))
                .join()
                .unwrap();
            std::hint::black_box(Vec::<u64>::with_capacity(100))
        });
        drop(v);
        // the spawn itself allocates a little on this thread; the 4096
        // bytes of the other thread must not be in the count
        assert!(allocs >= 1);
        assert!((800..4096).contains(&bytes), "{bytes}");
        let (_, allocs_off, _) = count_allocations(|| ());
        assert_eq!(allocs_off, 0);
        drop(std::hint::black_box(vec![1u8; 64]));
        assert_eq!(ALLOCS.get(), 0, "off outside count_allocations");
    }

    #[test]
    fn reserve_and_close_bracket_children() {
        let t = Tracer::new();
        let root = t.reserve("root", None, 7);
        let ((), _) = t.time("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let ms = t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(ms >= spans[1].ms() && spans[1].ms() >= 2.0);
        assert!(self_times(&spans)[root] < spans[root].end_ns - spans[root].start_ns);
    }
}
