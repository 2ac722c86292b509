//! Instruments of the traced run (`--trace 1`): in-memory spans and a
//! counting global allocator.  Both are inert in untraced runs, which is
//! where every end-to-end number comes from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Counts allocations (and reallocations) while [`set_counting`] is on.
/// The counters publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards the caller's arguments unchanged to the
// system allocator, which upholds the `GlobalAlloc` contract; the only
// extra work is two atomic counter updates, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller passed, per this method's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller passed, per this method's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // `new_size` satisfies the caller's obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

const NO_PARENT: u32 = u32::MAX;

/// One timed call: `req` is shared by every span of one operation.
pub struct Span {
    pub req: u64,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span recorder.  Spans live in a vector reserved up front
/// (recording stops when it is full rather than reallocating mid-run).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u64,
    next_req: u64,
    req: u64,
    open: Vec<u32>,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

/// Handle returned by [`Tracer::begin`]; `u32::MAX` when not recording.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u64, capacity: usize) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            next_req: 0,
            req: 0,
            open: Vec::with_capacity(16),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            dropped: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open the root span of a new operation.
    pub fn begin_op(&mut self, name: &'static str) -> SpanId {
        self.next_req += 1;
        self.req = (self.thread << 48) | self.next_req;
        self.begin(name)
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            req: self.req,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        self.spans[id.0 as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        if self.open.last() == Some(&id.0) {
            self.open.pop();
        }
    }
}

/// Per span name: `(count, total ns, self ns)`, where self time is the
/// span's duration minus the time its direct children cover.
pub fn self_times(tracers: &[Tracer]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (s, covered) in t.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered);
        }
    }
    out
}

/// Write every span as TSV: `req, id, parent, name, start_ns, end_ns`
/// (ids are per thread; `req` carries the thread in its top 16 bits).
pub fn write_spans(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req\tid\tparent\tname\tstart_ns\tend_ns")?;
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
