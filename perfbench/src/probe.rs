//! Process-level probes and the traced run's recorders: a counting
//! global allocator, peak RSS (`/proc/self/status`), the process CPU
//! clock, and an in-memory span log.
//!
//! Everything here observes the program from outside: the crates under
//! test are not instrumented. The allocator counts and the span log
//! records only while the traced mode has switched them on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator with optional allocation counting.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on (traced mode only).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocator counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnap {
    /// Allocation calls (including reallocations).
    pub calls: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Bytes requested minus bytes released: the live-heap delta.
    pub live: i64,
}

impl AllocSnap {
    /// Reads the counters now.
    pub fn now() -> Self {
        let bytes = ALLOC_BYTES.load(Ordering::SeqCst);
        AllocSnap {
            calls: ALLOCS.load(Ordering::SeqCst),
            bytes,
            live: bytes as i64 - FREED_BYTES.load(Ordering::SeqCst) as i64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: AllocSnap) -> AllocSnap {
        AllocSnap {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            live: self.live - earlier.live,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock of CPU time consumed by all threads of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run so far, all threads (live and
/// exited) included, in ns resolution. Time the hypervisor steals from
/// the machine's virtual CPUs is not counted, which is why the
/// benchmark's rates and set-up times use this clock (see README.md).
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) through
    // the valid, exclusive pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One recorded span: a named interval with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// Index of the parent span in the log, if any.
    pub parent: Option<usize>,
}

/// The traced run's span log, kept in memory until the run ends.
///
/// Only coarse boundaries (a round, a set-up step, a query round, a
/// barrier wait) become spans; per-event intervals are far too many to
/// keep, so callers sum those into [`SelfTime`] accumulators instead.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let now = self.ns();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = now;
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Summed self time and call count of one fine-grained operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Calls timed.
    pub calls: u64,
    /// Their summed wall time, ns.
    pub ns: u64,
}

impl SelfTime {
    /// Adds one timed call that started at `t0`.
    #[inline]
    pub fn add_since(&mut self, t0: Instant) {
        self.calls += 1;
        self.ns += t0.elapsed().as_nanos() as u64;
    }

    /// Mean ns per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}
