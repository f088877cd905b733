//! Memory-accounting and trace-export suite. It installs
//! [`TrackingAlloc`] as its global allocator, so it exercises the full
//! memtrack stack the CLI ships with (`memtrack_process.rs` covers the
//! process-wide counters the daemon enables):
//!
//! * allocator counters really move, and `AllocScope` windows balance —
//!   including on error paths that unwind through `?`;
//! * per-span allocation deltas are non-negative and internally
//!   consistent (a span's relative peak can never exceed what it
//!   allocated);
//! * on a *warmed* engine the `mem.*` metrics are deterministic across
//!   thread counts and seeded input shuffles (warming removes the
//!   ORDER-cache first-lookup race, the one source of run-to-run
//!   allocation variance);
//! * the Chrome trace a [`TraceRecorder`] folds from a threaded batch's
//!   records has strictly paired B/E events with non-decreasing per-tid
//!   timestamps on no more lanes than the batch had threads, and
//!   survives a serialize→parse round trip;
//! * differential: generated Java is byte-identical with a live span
//!   observer and memory accounting attached vs. a bare engine.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cognicryptgen::core::memtrack::{self, AllocDelta, AllocScope, TrackingAlloc};
use cognicryptgen::core::telemetry::{
    validate_trace, GenObserver, Metric, Phase, Span, TraceRecorder,
};
use cognicryptgen::core::{GenEngine, Template};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::usecases::all_use_cases;
use devharness::json::Json;
use devharness::rng::{RandomSource, Xoshiro256};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

fn engine() -> GenEngine {
    GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .type_table(jca_type_table())
        .build()
        .expect("rules supplied")
}

#[test]
fn tracking_allocator_counts_and_scopes_balance() {
    assert!(memtrack::is_active(), "global allocator is installed");
    let before = memtrack::thread_stats();

    let scope = AllocScope::enter();
    let v: Vec<u8> = Vec::with_capacity(64 * 1024);
    let delta = {
        drop(v);
        scope.finish()
    };
    assert!(delta.allocated_bytes >= 64 * 1024, "{delta:?}");
    assert!(delta.freed_bytes >= 64 * 1024, "{delta:?}");
    assert!(delta.allocations >= 1);
    assert!(delta.peak_live_bytes >= 64 * 1024, "{delta:?}");
    // Peak is scope-relative: allocate-then-free inside the scope can
    // never push it beyond what the scope allocated.
    assert!(delta.peak_live_bytes <= delta.allocated_bytes);

    let after = memtrack::thread_stats();
    assert!(after.allocated_bytes > before.allocated_bytes);
    assert_eq!(after.scope_depth, before.scope_depth, "scopes balance");
}

#[test]
fn alloc_scope_balances_on_error_paths_and_nests() {
    fn failing(input: &str) -> Result<usize, String> {
        let _scope = AllocScope::enter();
        let grown = format!("{input}{input}");
        if grown.len() > 4 {
            // Unwinds through the open scope; Drop must restore the
            // enclosing scope's bookkeeping.
            return Err(grown);
        }
        Ok(grown.len())
    }

    let depth_before = memtrack::thread_stats().scope_depth;
    let outer = AllocScope::enter();
    assert_eq!(memtrack::thread_stats().scope_depth, depth_before + 1);

    assert!(failing("xyz").is_err());
    assert_eq!(
        memtrack::thread_stats().scope_depth,
        depth_before + 1,
        "error path closed its scope"
    );

    // A nested scope's activity folds into the enclosing peak.
    let inner = AllocScope::enter();
    let big: Vec<u8> = Vec::with_capacity(128 * 1024);
    drop(big);
    let inner_delta = inner.finish();
    let outer_delta = outer.finish();
    assert!(inner_delta.peak_live_bytes >= 128 * 1024);
    assert!(
        outer_delta.peak_live_bytes >= inner_delta.peak_live_bytes,
        "enclosing peak sees the nested growth: {outer_delta:?} vs {inner_delta:?}"
    );
    assert_eq!(memtrack::thread_stats().scope_depth, depth_before);
}

#[test]
fn every_span_has_a_nonnegative_consistent_alloc_delta() {
    let engine = engine();
    for uc in all_use_cases() {
        let record = engine.generate(&uc.template).expect("generates").record;
        for phase in Phase::ALL {
            let stat = record.phase(phase);
            assert_eq!(stat.spans, 1, "uc{} {phase}", uc.id);
            assert!(
                stat.peak_live_bytes <= stat.alloc_bytes,
                "uc{} {phase}: relative peak {} exceeds allocated {}",
                uc.id,
                stat.peak_live_bytes,
                stat.alloc_bytes
            );
        }
        // The pipeline allocates: a memtrack-enabled binary must see it.
        assert!(
            record.alloc_total_bytes() > 0,
            "uc{}: zero allocation across all phases",
            uc.id
        );
        assert!(record.peak_live_bytes() > 0, "uc{}", uc.id);
    }
}

/// The engine's `mem.*` metrics, folded from the jobs' records in
/// input order after the batch joined.
fn mem_metrics(engine: &GenEngine) -> BTreeMap<String, Metric> {
    engine
        .metrics()
        .snapshot()
        .into_iter()
        .filter(|(k, _)| k.starts_with("mem."))
        .collect()
}

#[test]
fn warm_engine_mem_metrics_deterministic_across_threads_and_shuffles() {
    let templates: Vec<Template> = all_use_cases().into_iter().map(|uc| uc.template).collect();

    let run = |order: &[usize], threads: usize| {
        let engine = engine();
        // Warming compiles every rule's ORDER once, so batch workers
        // never race a first lookup — every job does identical
        // (cache-hit) work and allocates identically.
        engine.warm().expect("warms");
        let permuted: Vec<Template> = order.iter().map(|&i| templates[i].clone()).collect();
        let results = engine.generate_batch(&permuted, threads);
        assert!(results.iter().all(Result::is_ok));
        mem_metrics(&engine)
    };

    let identity: Vec<usize> = (0..templates.len()).collect();
    let reference = run(&identity, 1);
    assert!(!reference.is_empty(), "mem metrics recorded");
    for phase in Phase::ALL {
        let key = format!("mem.phase.{}.alloc_bytes", phase.name());
        match reference.get(&key) {
            Some(Metric::Counter(n)) => {
                assert!(*n > 0, "{key} is zero under a tracking allocator")
            }
            other => panic!("{key}: expected counter, got {other:?}"),
        }
    }

    let mut rng = Xoshiro256::seed_from_u64(0x5EED_ACC7_u64);
    for threads in [1usize, 2, 8] {
        for _shuffle in 0..3 {
            let mut order = identity.clone();
            for i in (1..order.len()).rev() {
                let j = rng.next_below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            let metrics = run(&order, threads);
            assert_eq!(
                metrics, reference,
                "mem metrics diverged at {threads} threads with order {order:?}"
            );
        }
    }
}

#[test]
fn recorded_trace_is_strictly_paired_with_monotonic_timestamps() {
    let templates: Vec<Template> = all_use_cases().into_iter().map(|uc| uc.template).collect();
    let results = engine().generate_batch(&templates, 4);
    let mut recorder = TraceRecorder::new();
    for (template, result) in templates.iter().zip(&results) {
        let generated = result.as_ref().expect("generates");
        recorder.add(&template.class_name, &generated.record);
    }

    let doc = recorder.to_json();
    validate_trace(&doc).expect("balanced B/E, monotonic per-tid timestamps");

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    // One B + E pair per template and phase.
    assert_eq!(events.len(), templates.len() * Phase::ALL.len() * 2);
    let mut b = 0usize;
    let mut e = 0usize;
    let mut exit_alloc_seen = false;
    let mut tids = BTreeSet::new();
    for ev in events {
        tids.insert(ev.get("tid").and_then(Json::as_u64).expect("numeric tid"));
        match ev.get("ph").and_then(Json::as_str) {
            Some("B") => b += 1,
            Some("E") => {
                e += 1;
                let alloc = ev
                    .get("args")
                    .and_then(|a| a.get("alloc_bytes"))
                    .and_then(Json::as_f64)
                    .expect("every span exit carries its alloc delta");
                assert!(alloc >= 0.0);
                exit_alloc_seen |= alloc > 0.0;
            }
            other => panic!("unexpected ph {other:?}"),
        }
    }
    assert_eq!(b, e, "every B has an E");
    assert_eq!(b, templates.len() * Phase::ALL.len());
    assert!(
        exit_alloc_seen,
        "a memtrack-enabled binary records non-zero span allocations"
    );
    // Lanes are assigned at render time: a 4-thread batch needs no
    // more than four.
    assert!((1..=4).contains(&tids.len()), "lanes {tids:?}");

    // The document survives the writer→parser round trip intact.
    let reparsed = Json::parse(&doc.to_string()).expect("parses");
    validate_trace(&reparsed).expect("reparsed trace validates");
}

/// A live observer counting the span pairs it sees.
#[derive(Default)]
struct SpanCount(AtomicUsize);

impl GenObserver for SpanCount {
    fn span_exit(&self, _span: &Span<'_>, _elapsed: Duration, _alloc: AllocDelta) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn differential_output_is_byte_identical_with_and_without_instrumentation() {
    // Bare engine: no observer (memtrack is still counting — it always
    // is in this binary — but nothing reads it).
    let bare = engine();
    // Fully instrumented engine: a live observer on top of the records
    // every generation keeps.
    let spans = Arc::new(SpanCount::default());
    let instrumented = GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .type_table(jca_type_table())
        .observer(spans.clone())
        .build()
        .expect("rules supplied");

    let mut recorder = TraceRecorder::new();
    for uc in all_use_cases() {
        let plain = bare.generate(&uc.template).expect("generates");
        let traced = instrumented.generate(&uc.template).expect("generates");
        assert_eq!(
            plain.java_source, traced.java_source,
            "uc{}: instrumentation changed the generated Java",
            uc.id
        );
        recorder.add(&uc.template.class_name, &traced.record);
    }
    assert_eq!(
        spans.0.load(Ordering::Relaxed),
        all_use_cases().len() * Phase::ALL.len(),
        "the instrumented engine was observed"
    );
    validate_trace(&recorder.to_json()).expect("trace validates");
}
