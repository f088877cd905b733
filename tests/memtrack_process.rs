//! The process-wide allocator counters ([`memtrack::process_stats`])
//! under per-thread batching. Threads publish their drift into the
//! shared totals once per [`memtrack::BATCH`] bytes, when their
//! outermost [`AllocScope`] closes, and when they call `process_stats`
//! themselves; this suite pins what that keeps exact and how far it may
//! lag.
//!
//! The counters are process-wide, so this binary holds exactly one
//! `#[test]`: no sibling test can allocate while it measures. It
//! installs [`TrackingAlloc`], as the daemon binary does.

use std::sync::Barrier;

use cognicryptgen::core::memtrack::{self, AllocScope, ProcessStats, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

const BATCH: usize = memtrack::BATCH as usize;

/// Threads that allocate in the lag and exactness steps.
const THREADS: usize = 2;

fn stats() -> ProcessStats {
    memtrack::process_stats().expect("process stats are enabled")
}

#[test]
fn process_counters_batch_per_thread() {
    assert!(
        memtrack::process_stats().is_none(),
        "disabled until enabled"
    );

    // 1. Allocations made before enablement are not counted, on the
    //    enabling thread or on any other.
    const EARLY: usize = 1 << 20;
    let early = vec![1u8; EARLY];
    let gate = Barrier::new(2);
    let held_elsewhere = std::thread::scope(|s| {
        let helper = s.spawn(|| {
            let held = vec![1u8; EARLY];
            gate.wait(); // held before enablement
            gate.wait(); // enabled
            let scope = AllocScope::enter();
            let small = vec![1u8; 64];
            drop(scope); // outermost close: publishes this thread's drift
            gate.wait();
            (held, small)
        });
        gate.wait();
        memtrack::enable_process_stats();
        gate.wait();
        gate.wait();
        let s = stats();
        assert!(
            s.allocated_bytes < (THREADS * BATCH) as u64,
            "pre-enablement megabytes were counted: {s:?}"
        );
        assert!(
            s.live_bytes.unsigned_abs() < (THREADS * BATCH) as u64,
            "{s:?}"
        );
        helper.join().expect("helper survives")
    });

    // 2. While every thread's drift is below BATCH, the published peak
    //    stays within THREADS × BATCH of the true one. Each worker holds
    //    ten quarter-batch chunks at once; the allocator publishes the
    //    first eight of them and leaves two in drift.
    const CHUNK: usize = BATCH / 4;
    const CHUNKS: usize = 10;
    let ready = Barrier::new(THREADS + 1);
    let (base, held) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut chunks: Vec<Vec<u8>> = Vec::with_capacity(CHUNKS);
                    memtrack::process_stats(); // drift 0 before the base read
                    ready.wait();
                    ready.wait(); // base read
                    for _ in 0..CHUNKS {
                        chunks.push(Vec::with_capacity(CHUNK));
                    }
                    ready.wait(); // all chunks held
                    ready.wait(); // peak read
                    drop(chunks);
                })
            })
            .collect();
        ready.wait();
        let base = stats();
        ready.wait();
        ready.wait();
        let held = stats();
        // Release the workers before any assertion, so a failure cannot
        // leave them blocked on the barrier.
        ready.wait();
        for w in workers {
            w.join().expect("worker survives");
        }
        (base, held)
    });
    let true_live = base.live_bytes + (THREADS * CHUNKS * CHUNK) as i64;
    let lag = (THREADS * BATCH) as i64;
    assert!(
        true_live - held.peak_live_bytes < lag,
        "peak {} trails the true {true_live} by a batch per thread or more",
        held.peak_live_bytes
    );
    assert!(
        (true_live - held.live_bytes).abs() < lag,
        "live {} is a batch per thread or more from the true {true_live}",
        held.live_bytes
    );
    assert!(
        (stats().live_bytes - base.live_bytes).abs() < lag,
        "the freed chunks were not published"
    );

    // 3. Two threads each keep a known allocation made inside an
    //    AllocScope, close it and are joined: closing the outermost
    //    scope published everything each did, so the deltas are exact —
    //    the workers' own counters plus this thread's. (A worker's live
    //    count is a little under KEPT: it frees the spawn closure this
    //    thread allocated.)
    // Under half a batch, so only the scope's close can publish it.
    const KEPT: usize = BATCH / 2 + 123;
    let before = stats();
    let mine_before = memtrack::thread_stats();
    let results: Vec<(Vec<u8>, memtrack::ThreadStats)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let scope = AllocScope::enter();
                    let kept = vec![7u8; KEPT];
                    let delta = scope.finish();
                    let own = memtrack::thread_stats();
                    assert!(delta.allocated_bytes >= KEPT as u64, "{delta:?}");
                    (kept, own)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker survives"))
            .collect()
    });
    let after = stats();
    let mine_after = memtrack::thread_stats();
    let workers_allocated: u64 = results.iter().map(|(_, t)| t.allocated_bytes).sum();
    let workers_live: i64 = results.iter().map(|(_, t)| t.live_bytes).sum();
    assert!(workers_allocated >= (THREADS * KEPT) as u64);
    assert_eq!(
        after.allocated_bytes - before.allocated_bytes,
        workers_allocated + (mine_after.allocated_bytes - mine_before.allocated_bytes),
        "allocated_bytes delta is not exact"
    );
    assert_eq!(
        after.live_bytes - before.live_bytes,
        workers_live + (mine_after.live_bytes - mine_before.live_bytes),
        "live_bytes delta is not exact"
    );

    // 4. process_stats() publishes the calling thread's own drift: half
    //    a batch would not reach the shared totals on its own.
    let s0 = stats();
    let pending: Vec<u8> = Vec::with_capacity(BATCH / 2);
    let s1 = stats();
    assert_eq!(s1.allocated_bytes - s0.allocated_bytes, (BATCH / 2) as u64);
    assert_eq!(s1.live_bytes - s0.live_bytes, (BATCH / 2) as i64);
    assert!(s1.peak_live_bytes >= s1.live_bytes);

    drop((early, held_elsewhere, results, pending));
}
