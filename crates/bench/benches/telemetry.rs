//! Observer-overhead benches for the telemetry layer, on the in-repo
//! `devharness` harness. The run writes `BENCH_telemetry.json`.
//!
//! This binary installs `memtrack::TrackingAlloc` as its global
//! allocator — the configuration the CLI ships — so every number here
//! already includes the allocation-counting overhead the paper's memory
//! column costs.
//!
//! * `observer/*` — the full catalogued-use-case warm batch, bare
//!   (`noop_all`, the baseline: every generation returns its record and
//!   nothing reads it), with its records folded into a fresh
//!   `MetricsRegistry` (`fold_all`, what the daemon pays per
//!   generation), and with its records folded into a fresh
//!   `TraceRecorder` and rendered as a Chrome trace
//!   (`trace_recorder_all`);
//! * `memtrack/*` — microbenches of the raw accounting primitives: an
//!   `AllocScope` open/close pair and one counted heap round trip, both
//!   with process-wide accounting off; then, with it on (as in the
//!   daemon), two threads doing counted heap round trips at once — the
//!   row that catches shared counters back on the per-allocation path,
//!   where two threads contend on the same cache lines;
//! * `serve/*` — the daemon's per-request hot path
//!   (`ServerState::handle` on a warm `generate`) with the
//!   observability layer at its default ring capacity versus capacity 0
//!   (recording disabled).
//!
//! The run *asserts* two overhead ceilings: the median of every
//! observed configuration must stay within `MAX_OVERHEAD`× the noop
//! median, the observed serve hot path within `SERVE_MAX_OVERHEAD`× of
//! the recording-disabled one, and the process exits non-zero on
//! violation so a telemetry regression fails loudly in CI rather than
//! drifting.
//!
//! Run with: `cargo bench -p cognicrypt-bench --bench telemetry`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use devharness::bench::Harness;

use cognicrypt_core::memtrack::{self, AllocScope, TrackingAlloc};
use cognicrypt_core::telemetry::{MetricsRegistry, TraceRecorder};
use cognicrypt_core::{GenEngine, Template};
use javamodel::jca::jca_type_table;
use rules::{open, PackSource};
use usecases::all_use_cases;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

/// Highest tolerated ratio of any observed configuration's median over
/// the noop baseline median for the same warm full-catalogue batch.
/// Both are folds over the records every generation already keeps: one
/// registry update, or one push per generation then one render of ten
/// events per generation, so 10× is generous headroom over the ~1×
/// expected; crossing it means a fold started doing real work.
const MAX_OVERHEAD: f64 = 10.0;

/// Highest tolerated ratio of the daemon hot path with request
/// observability on (access ring + latency histogram + trace-id
/// assignment at the default capacity) over the same path with
/// recording disabled (`obs_capacity: 0`). Per request the layer does
/// one atomic increment, one histogram record and one ring push — all
/// constant-time against a generation that parses nothing but still
/// renders Java source.
const SERVE_MAX_OVERHEAD: f64 = 1.3;

/// Counted heap round trips each of the two threads does per iteration
/// of `memtrack/process_heap_roundtrip_t2`: enough to lift the
/// iteration above `bench_compare`'s 10 µs noise floor, so the gate
/// covers it.
const CONTENDED_ROUNDTRIPS: usize = 2048;

fn warm_engine() -> GenEngine {
    let engine = GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .type_table(jca_type_table())
        .build()
        .expect("rules supplied");
    engine.warm().expect("warms");
    engine
}

fn run_batch(engine: &GenEngine, templates: &[Template]) -> Vec<cognicrypt_core::Generated> {
    let results = engine.generate_batch(black_box(templates), 1);
    results.into_iter().map(|r| r.expect("generates")).collect()
}

fn bench_observers(h: &mut Harness) -> Vec<(String, u64)> {
    h.group("observer");
    let templates: Vec<Template> = all_use_cases().into_iter().map(|uc| uc.template).collect();
    let mut medians = Vec::new();

    let engine = warm_engine();
    h.bench("noop_all", || {
        black_box(run_batch(&engine, &templates));
    });
    h.bench("fold_all", || {
        let metrics = MetricsRegistry::new();
        for generated in run_batch(&engine, &templates) {
            generated.record.fold_into(&metrics);
        }
        black_box(metrics.snapshot());
    });
    h.bench("trace_recorder_all", || {
        let mut trace = TraceRecorder::new();
        for (template, generated) in templates.iter().zip(run_batch(&engine, &templates)) {
            trace.add(&template.class_name, &generated.record);
        }
        black_box(trace.to_json());
    });

    for r in &h.report().results {
        medians.push((r.name.clone(), r.median_ns));
    }
    medians
}

fn bench_memtrack_primitives(h: &mut Harness) {
    h.group("memtrack");
    h.bench("alloc_scope_roundtrip", || {
        let scope = AllocScope::enter();
        black_box(scope.finish());
    });
    h.bench("counted_heap_roundtrip", heap_roundtrip);

    // Runs after the rows above so that they measure with process-wide
    // accounting off; the `serve/*` rows that follow enable it anyway.
    memtrack::enable_process_stats();
    let started = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut seen = 0;
            while !stop.load(Ordering::Acquire) {
                if started.load(Ordering::Acquire) == seen {
                    std::thread::yield_now();
                    continue;
                }
                seen += 1;
                (0..CONTENDED_ROUNDTRIPS).for_each(|_| heap_roundtrip());
                finished.store(seen, Ordering::Release);
            }
        });
        h.bench("process_heap_roundtrip_t2", || {
            let round = started.fetch_add(1, Ordering::AcqRel) + 1;
            (0..CONTENDED_ROUNDTRIPS).for_each(|_| heap_roundtrip());
            while finished.load(Ordering::Acquire) != round {
                std::thread::yield_now();
            }
        });
        stop.store(true, Ordering::Release);
    });
}

/// One counted heap round trip: a 4 KiB allocation and its free.
fn heap_roundtrip() {
    let v: Vec<u8> = Vec::with_capacity(black_box(4096));
    black_box(&v);
    drop(v);
}

fn bench_serve_hot_path(h: &mut Harness) -> (u64, u64) {
    use cognicryptgen::serve::{Request, ServeConfig, ServerState};
    h.group("serve");
    let request = Request::Generate("1".to_owned());

    // `ServerState::new` builds the full daemon state without binding
    // sockets, so `handle` here is exactly the per-request work a
    // transport worker does, minus I/O.
    let observed = ServerState::new(&ServeConfig::http("127.0.0.1:0")).expect("state builds");
    assert_eq!(observed.handle(&request).code, 200);
    h.bench("handle_generate_observed", || {
        black_box(observed.handle(black_box(&request)));
    });

    let blind = ServerState::new(&ServeConfig {
        obs_capacity: 0,
        ..ServeConfig::http("127.0.0.1:0")
    })
    .expect("state builds");
    assert_eq!(blind.handle(&request).code, 200);
    h.bench("handle_generate_unobserved", || {
        black_box(blind.handle(black_box(&request)));
    });

    let median = |name: &str| {
        h.report()
            .results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
            .expect("serve medians measured")
    };
    (
        median("serve/handle_generate_observed"),
        median("serve/handle_generate_unobserved"),
    )
}

fn assert_serve_overhead_bound(observed_ns: u64, unobserved_ns: u64) -> bool {
    let ratio = observed_ns as f64 / unobserved_ns as f64;
    let ok = ratio <= SERVE_MAX_OVERHEAD;
    println!(
        "\nserve hot-path observability overhead: {observed_ns} ns / {unobserved_ns} ns = {ratio:.3}x (limit {SERVE_MAX_OVERHEAD}x)   {}",
        if ok { "ok" } else { "FAIL" }
    );
    if !ok {
        eprintln!(
            "error: observed serve hot path is {ratio:.3}x the recording-disabled path (limit {SERVE_MAX_OVERHEAD}x)"
        );
    }
    ok
}

fn assert_overhead_bound(medians: &[(String, u64)]) -> bool {
    let noop = medians
        .iter()
        .find(|(n, _)| n == "observer/noop_all")
        .map(|&(_, ns)| ns)
        .expect("noop baseline measured");
    let mut ok = true;
    println!("\noverhead vs noop baseline ({noop} ns median):");
    for (name, ns) in medians {
        if name == "observer/noop_all" || !name.starts_with("observer/") {
            continue;
        }
        let ratio = *ns as f64 / noop as f64;
        let verdict = if ratio <= MAX_OVERHEAD { "ok" } else { "FAIL" };
        println!("  {name:<32} {ratio:>6.2}x   {verdict}");
        if ratio > MAX_OVERHEAD {
            eprintln!(
                "error: {name} median {ns} ns is {ratio:.2}x the noop baseline (limit {MAX_OVERHEAD}x)"
            );
            ok = false;
        }
    }
    ok
}

fn main() {
    let mut h = Harness::new("telemetry");
    let medians = bench_observers(&mut h);
    bench_memtrack_primitives(&mut h);
    let (observed_ns, unobserved_ns) = bench_serve_hot_path(&mut h);
    let within_bound =
        assert_overhead_bound(&medians) & assert_serve_overhead_bound(observed_ns, unobserved_ns);
    match h.finish() {
        Ok(path) => println!("\nreport written to {}", path.display()),
        Err(e) => {
            eprintln!("failed to write bench report: {e}");
            std::process::exit(1);
        }
    }
    if !within_bound {
        std::process::exit(1);
    }
}
