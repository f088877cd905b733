//! Allocator-level memory accounting: the missing half of Table 1.
//!
//! The paper reports *runtime and memory* per use case; the telemetry
//! layer measures wall time with [`crate::telemetry::SpanTimer`], but a
//! whole-process peak RSS cannot attribute memory to a use case, let
//! alone to a pipeline phase. This module closes that gap with a
//! zero-dependency `#[global_allocator]` wrapper:
//!
//! * [`TrackingAlloc`] — forwards every allocation to
//!   [`std::alloc::System`] and maintains **thread-local** counters:
//!   bytes allocated / freed, allocation count, live bytes and a
//!   running peak of live bytes. Thread-locality keeps the hot path a
//!   handful of `Cell` operations — no atomics, no locks, no contention
//!   — and is exactly the right scope because one template generation
//!   runs on one thread.
//! * [`AllocScope`] — an RAII measurement window over the current
//!   thread's counters. [`AllocScope::finish`] yields the
//!   [`AllocDelta`] of everything allocated inside the scope, with a
//!   *scope-relative* peak of live bytes. Scopes nest; a scope dropped
//!   on an error path restores the enclosing scope's peak tracking
//!   exactly as a finished one does.
//! * [`process_stats`] — opt-in process-wide totals for a long-lived
//!   daemon ([`enable_process_stats`]): allocated, live and peak live
//!   bytes across every thread. Each thread keeps accumulating in its
//!   `Cell`s and publishes its drift into shared atomics only once per
//!   [`BATCH`] bytes, when its outermost [`AllocScope`] closes, or when
//!   it calls [`process_stats`] itself — so the figures may lag the
//!   truth by less than `BATCH` per allocating thread, and worker
//!   threads do not contend on shared cache lines per allocation.
//!
//! Determinism: every [`AllocDelta`] field depends only on the
//! allocation/free sequence executed *inside* the scope on its own
//! thread — not on which worker ran the job before, nor on absolute
//! heap state — so per-phase deltas of a warmed engine are identical
//! across thread counts and input orders (the `memtrack_trace` suite
//! proves it).
//!
//! Installing the allocator is the binary's choice, not the library's:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cognicrypt_core::memtrack::TrackingAlloc =
//!     cognicrypt_core::memtrack::TrackingAlloc::new();
//! ```
//!
//! Without it every counter stays zero and the telemetry layer reports
//! zero deltas — observability degrades, behaviour never changes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Set by the first tracked allocation; lets reports distinguish "no
/// allocations measured" from "the tracking allocator is not installed".
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Process-wide accounting is opt-in: only a long-lived daemon needs a
/// *daemon-lifetime* peak that spans every worker thread, so one-shot
/// runs skip the cross-thread publishing altogether.
static PROCESS_ENABLED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated process-wide since [`enable_process_stats`], as
/// published by the threads (see [`BATCH`]).
static PROCESS_ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Net live bytes process-wide since [`enable_process_stats`] (signed:
/// memory allocated before enablement may be freed after it), as
/// published by the threads.
static PROCESS_LIVE: AtomicI64 = AtomicI64::new(0);
/// Running maximum of [`PROCESS_LIVE`].
static PROCESS_PEAK: AtomicI64 = AtomicI64::new(0);

/// How far, in bytes, a thread's allocated or live count may drift from
/// what it last published to the process-wide counters before the
/// allocator publishes it. Between publishes a thread touches only its
/// own `Cell`s, so the shared cache lines see one `fetch_add` per total
/// and one `fetch_max` per `BATCH` bytes of traffic, not per
/// allocation. The price is lag: each [`ProcessStats`] figure may trail
/// the truth by less than `BATCH` per thread that allocates.
pub const BATCH: u64 = 16 * 1024;

/// The per-thread counters behind the allocator and [`AllocScope`].
struct Tls {
    /// Total bytes allocated on this thread.
    allocated: Cell<u64>,
    /// Total bytes freed on this thread.
    freed: Cell<u64>,
    /// Number of allocations (incl. the allocating half of a realloc).
    allocations: Cell<u64>,
    /// Number of frees (incl. the freeing half of a realloc).
    frees: Cell<u64>,
    /// Net live bytes from this thread's perspective. Signed: memory
    /// allocated here may be freed on another thread and vice versa.
    live: Cell<i64>,
    /// Running maximum of `live` since the innermost open scope began
    /// (or since thread start outside any scope).
    peak: Cell<i64>,
    /// Currently open [`AllocScope`]s on this thread.
    scope_depth: Cell<usize>,
    /// Whether this thread has taken its baseline for the process-wide
    /// counters: the first accounting step that sees them enabled
    /// marks everything before it as already published, so they count
    /// from enablement.
    joined: Cell<bool>,
    /// `allocated` as of this thread's last publish.
    published_allocated: Cell<u64>,
    /// `live` as of this thread's last publish.
    published_live: Cell<i64>,
}

impl Tls {
    /// Takes the baseline on the first call after enablement; returns
    /// whether process-wide accounting is on.
    #[inline]
    fn join_process(&self) -> bool {
        if !PROCESS_ENABLED.load(Ordering::Relaxed) {
            return false;
        }
        if !self.joined.get() {
            self.joined.set(true);
            self.published_allocated.set(self.allocated.get());
            self.published_live.set(self.live.get());
        }
        true
    }

    /// Adds this thread's unpublished drift to the process-wide
    /// counters: one `fetch_add` per total, and one `fetch_max` on the
    /// peak when live bytes grew. Out of line: it runs once per
    /// [`BATCH`] bytes, and inlined it would bloat every record path.
    #[cold]
    #[inline(never)]
    fn publish(&self) {
        let allocated = self.allocated.get();
        let live = self.live.get();
        let grown = allocated.wrapping_sub(self.published_allocated.get());
        let drift = live - self.published_live.get();
        self.published_allocated.set(allocated);
        self.published_live.set(live);
        if grown != 0 {
            PROCESS_ALLOCATED.fetch_add(grown, Ordering::Relaxed);
        }
        if drift != 0 {
            let total = PROCESS_LIVE.fetch_add(drift, Ordering::Relaxed) + drift;
            if drift > 0 {
                PROCESS_PEAK.fetch_max(total, Ordering::Relaxed);
            }
        }
    }
}

thread_local! {
    static TLS: Tls = const {
        Tls {
            allocated: Cell::new(0),
            freed: Cell::new(0),
            allocations: Cell::new(0),
            frees: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
            scope_depth: Cell::new(0),
            joined: Cell::new(false),
            published_allocated: Cell::new(0),
            published_live: Cell::new(0),
        }
    };
}

#[inline]
fn record_alloc(size: usize) {
    if !ACTIVE.load(Ordering::Relaxed) {
        ACTIVE.store(true, Ordering::Relaxed);
    }
    // try_with: allocations during TLS teardown must not abort.
    let _ = TLS.try_with(|t| {
        let process = t.join_process();
        let n = size as u64;
        let allocated = t.allocated.get().wrapping_add(n);
        t.allocated.set(allocated);
        t.allocations.set(t.allocations.get() + 1);
        let live = t.live.get() + size as i64;
        t.live.set(live);
        if live > t.peak.get() {
            t.peak.set(live);
        }
        // Live drift never exceeds allocated drift, so one test bounds
        // both from above.
        if process && allocated.wrapping_sub(t.published_allocated.get()) >= BATCH {
            t.publish();
        }
    });
}

#[inline]
fn record_free(size: usize) {
    let _ = TLS.try_with(|t| {
        let process = t.join_process();
        t.freed.set(t.freed.get().wrapping_add(size as u64));
        t.frees.set(t.frees.get() + 1);
        let live = t.live.get() - size as i64;
        t.live.set(live);
        if process && t.published_live.get() - live >= BATCH as i64 {
            t.publish();
        }
    });
}

/// A counting wrapper over the system allocator. Install it with
/// `#[global_allocator]` in a binary to activate memory accounting;
/// see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackingAlloc;

impl TrackingAlloc {
    /// `const` constructor for `static` allocator declarations.
    pub const fn new() -> Self {
        TrackingAlloc
    }
}

// SAFETY: every method forwards to `System` verbatim; the bookkeeping
// around the forwarded call never allocates (`Cell` arithmetic and, once
// per `BATCH` bytes, relaxed atomics on statics) and never observes the
// returned pointer beyond a null check. The thread-local holds only
// `Cell`s, so it registers no destructor: registering one can allocate
// re-entrantly on some targets.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            record_free(layout.size());
            record_alloc(new_size);
        }
        new_ptr
    }
}

/// Whether any allocation has been routed through [`TrackingAlloc`] in
/// this process — i.e. whether the binary installed it.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Turns on process-wide accounting (see [`process_stats`]). Counters
/// start from zero *at the moment of the call*, so everything they
/// report is relative to enablement — exactly the daemon-lifetime
/// window a resident process wants: each thread takes its own counters
/// at its first allocation, free or [`process_stats`] call after
/// enablement as its baseline. Enabling is idempotent and cannot be
/// undone; without [`TrackingAlloc`] installed the counters simply stay
/// zero.
pub fn enable_process_stats() {
    PROCESS_ENABLED.store(true, Ordering::Relaxed);
}

/// A snapshot of the process-wide counters accumulated since
/// [`enable_process_stats`] — the cross-thread aggregate a daemon
/// reports as its lifetime memory figures.
/// Threads publish into the counters in batches, so each figure may lag
/// the truth by less than [`BATCH`] per thread that allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcessStats {
    /// Bytes allocated on any thread since enablement.
    pub allocated_bytes: u64,
    /// Net live bytes since enablement (signed: frees of pre-enablement
    /// memory count against it).
    pub live_bytes: i64,
    /// Running maximum of `live_bytes` — the daemon-lifetime peak.
    pub peak_live_bytes: i64,
}

/// Publishes the calling thread's drift, then reads the process-wide
/// counters; `None` when [`enable_process_stats`] was never called.
pub fn process_stats() -> Option<ProcessStats> {
    let _ = TLS.try_with(|t| {
        if t.join_process() {
            t.publish();
        }
    });
    PROCESS_ENABLED
        .load(Ordering::Relaxed)
        .then(|| ProcessStats {
            allocated_bytes: PROCESS_ALLOCATED.load(Ordering::Relaxed),
            live_bytes: PROCESS_LIVE.load(Ordering::Relaxed),
            peak_live_bytes: PROCESS_PEAK.load(Ordering::Relaxed),
        })
}

/// A snapshot of the current thread's allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadStats {
    /// Total bytes allocated on this thread.
    pub allocated_bytes: u64,
    /// Total bytes freed on this thread.
    pub freed_bytes: u64,
    /// Number of allocations on this thread.
    pub allocations: u64,
    /// Number of frees on this thread.
    pub frees: u64,
    /// Net live bytes from this thread's perspective (may be negative
    /// when this thread frees memory allocated elsewhere).
    pub live_bytes: i64,
    /// Running peak of `live_bytes` since the innermost open scope
    /// began.
    pub peak_live_bytes: i64,
    /// Currently open [`AllocScope`]s on this thread.
    pub scope_depth: usize,
}

/// Reads the current thread's counters.
pub fn thread_stats() -> ThreadStats {
    TLS.with(|t| ThreadStats {
        allocated_bytes: t.allocated.get(),
        freed_bytes: t.freed.get(),
        allocations: t.allocations.get(),
        frees: t.frees.get(),
        live_bytes: t.live.get(),
        peak_live_bytes: t.peak.get(),
        scope_depth: t.scope_depth.get(),
    })
}

/// What one [`AllocScope`] measured: the allocation activity of the
/// current thread between [`AllocScope::enter`] and
/// [`AllocScope::finish`] (or drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocDelta {
    /// Bytes allocated inside the scope.
    pub allocated_bytes: u64,
    /// Bytes freed inside the scope.
    pub freed_bytes: u64,
    /// Allocations inside the scope.
    pub allocations: u64,
    /// Peak of live bytes *relative to the scope's start*: the largest
    /// net growth the scope ever reached. Depends only on the in-scope
    /// allocation/free sequence, never on prior heap state — the
    /// determinism anchor.
    pub peak_live_bytes: u64,
}

impl AllocDelta {
    /// Folds another delta in: bytes and counts add, peaks take the
    /// maximum (the same merge discipline as the metrics registry, so
    /// folding per-worker deltas is order-insensitive).
    pub fn merge(&mut self, other: &AllocDelta) {
        self.allocated_bytes += other.allocated_bytes;
        self.freed_bytes += other.freed_bytes;
        self.allocations += other.allocations;
        self.peak_live_bytes = self.peak_live_bytes.max(other.peak_live_bytes);
    }
}

/// RAII measurement window over the current thread's allocation
/// counters.
///
/// On `enter` the scope snapshots the counters and resets the running
/// peak to the current live level; `finish` returns the [`AllocDelta`]
/// and restores the enclosing scope's peak tracking (the enclosing peak
/// becomes the max of its own and everything seen inside). A scope
/// dropped without `finish` — e.g. on an error path unwinding through
/// `?` — performs the same restoration, so nesting always balances.
/// Closing a thread's outermost scope also publishes its drift to the
/// process-wide counters when they are enabled (see [`process_stats`]).
///
/// Not `Send`: the scope is meaningful only on the thread that opened
/// it.
#[derive(Debug)]
pub struct AllocScope {
    start_allocated: u64,
    start_freed: u64,
    start_allocations: u64,
    start_live: i64,
    saved_peak: i64,
    closed: bool,
    _not_send: PhantomData<*const ()>,
}

impl AllocScope {
    /// Opens a measurement window on the current thread.
    pub fn enter() -> AllocScope {
        TLS.with(|t| {
            let live = t.live.get();
            let saved_peak = t.peak.get();
            t.peak.set(live);
            t.scope_depth.set(t.scope_depth.get() + 1);
            AllocScope {
                start_allocated: t.allocated.get(),
                start_freed: t.freed.get(),
                start_allocations: t.allocations.get(),
                start_live: live,
                saved_peak,
                closed: false,
                _not_send: PhantomData,
            }
        })
    }

    /// Closes the window and returns what it measured.
    pub fn finish(mut self) -> AllocDelta {
        self.close()
    }

    fn close(&mut self) -> AllocDelta {
        if self.closed {
            return AllocDelta::default();
        }
        self.closed = true;
        TLS.with(|t| {
            let delta = AllocDelta {
                allocated_bytes: t.allocated.get().wrapping_sub(self.start_allocated),
                freed_bytes: t.freed.get().wrapping_sub(self.start_freed),
                allocations: t.allocations.get() - self.start_allocations,
                // The running peak is >= live at scope start by
                // construction; clamp anyway so a cross-thread free
                // inside the scope can never underflow.
                peak_live_bytes: (t.peak.get() - self.start_live).max(0) as u64,
            };
            t.peak.set(t.peak.get().max(self.saved_peak));
            let depth = t.scope_depth.get().saturating_sub(1);
            t.scope_depth.set(depth);
            if depth == 0 && t.join_process() {
                t.publish();
            }
            delta
        })
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The core unit tests run without the tracking allocator installed
    // (installing one in a library would impose it on every dependent
    // binary), so they exercise the scope mechanics over manually
    // driven counters. The `memtrack_trace` integration suite installs
    // the allocator and tests the full stack.

    fn simulate_alloc(n: usize) {
        record_alloc(n);
    }

    fn simulate_free(n: usize) {
        record_free(n);
    }

    #[test]
    fn scope_measures_the_delta_and_relative_peak() {
        let scope = AllocScope::enter();
        simulate_alloc(100);
        simulate_alloc(50);
        simulate_free(120);
        simulate_alloc(10);
        let d = scope.finish();
        assert_eq!(d.allocated_bytes, 160);
        assert_eq!(d.freed_bytes, 120);
        assert_eq!(d.allocations, 3);
        // live peaked at +150 relative to scope start.
        assert_eq!(d.peak_live_bytes, 150);
    }

    #[test]
    fn nested_scopes_restore_the_outer_peak() {
        let outer = AllocScope::enter();
        simulate_alloc(1000);
        simulate_free(1000);
        {
            let inner = AllocScope::enter();
            simulate_alloc(10);
            let d = inner.finish();
            // The inner scope sees only its own growth, not the outer
            // thousand-byte spike.
            assert_eq!(d.peak_live_bytes, 10);
            simulate_free(10);
        }
        let d = outer.finish();
        // The outer peak still reflects the pre-inner spike.
        assert_eq!(d.peak_live_bytes, 1000);
        assert_eq!(d.allocated_bytes, 1010);
    }

    #[test]
    fn dropped_scope_balances_like_a_finished_one() {
        let depth = thread_stats().scope_depth;
        let outer = AllocScope::enter();
        simulate_alloc(500);
        simulate_free(500);
        let run = || -> Result<(), ()> {
            let _scope = AllocScope::enter();
            simulate_alloc(5);
            simulate_free(5);
            Err(())
        };
        run().unwrap_err();
        assert_eq!(thread_stats().scope_depth, depth + 1, "inner scope closed");
        let d = outer.finish();
        assert_eq!(d.peak_live_bytes, 500, "outer peak survives the error path");
        assert_eq!(thread_stats().scope_depth, depth);
    }

    #[test]
    fn process_stats_gate_on_enablement_and_track_a_global_peak() {
        // Disabled by default — and this test may race with others in
        // the binary, so only relative/monotonic properties are
        // asserted after enabling.
        if process_stats().is_none() {
            enable_process_stats();
        }
        let before = process_stats().unwrap();
        simulate_alloc(10_000);
        let during = process_stats().unwrap();
        assert!(during.allocated_bytes >= before.allocated_bytes + 10_000);
        assert!(during.peak_live_bytes >= during.live_bytes);
        simulate_free(10_000);
        let after = process_stats().unwrap();
        assert!(after.peak_live_bytes >= during.peak_live_bytes.min(after.live_bytes));
        assert!(after.live_bytes <= during.live_bytes);
    }

    #[test]
    fn delta_merge_adds_totals_and_maxes_peaks() {
        let mut a = AllocDelta {
            allocated_bytes: 10,
            freed_bytes: 4,
            allocations: 2,
            peak_live_bytes: 8,
        };
        a.merge(&AllocDelta {
            allocated_bytes: 1,
            freed_bytes: 1,
            allocations: 1,
            peak_live_bytes: 20,
        });
        assert_eq!(a.allocated_bytes, 11);
        assert_eq!(a.freed_bytes, 5);
        assert_eq!(a.allocations, 3);
        assert_eq!(a.peak_live_bytes, 20);
    }
}
