//! `engine-catalogue`: two closed-loop client threads call
//! `GenEngine::generate` in-process over seeded shuffles of every
//! catalogued template. No transport runs; the five pipeline phases do
//! the work.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use cognicryptgen::core::memtrack::AllocDelta;
use cognicryptgen::core::telemetry::{GenObserver, NoopObserver, Phase, Span};
use cognicryptgen::core::GenEngine;
use cognicryptgen::javamodel::ast::CompilationUnit;
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::javamodel::printer::print_unit;
use cognicryptgen::javamodel::typecheck::check_unit;
use cognicryptgen::javamodel::TypeTable;
use cognicryptgen::rules::{self, PackSource};
use cognicryptgen::serve::Response;

use crate::oracle::{run_op, Oracle, Reply};
use crate::plan::{self, Op, PlanSummary, Shuffles, CLIENTS};
use crate::stats::Samples;
use crate::{
    engine_phases, probe_phase, time_open_and_warm, us, Ctx, Layers, Log, Outcome, PROBES,
    SEGMENTS, SETUP_REPS,
};

thread_local! {
    /// Spans the engine closed on this thread: phase, wall ns, bytes.
    static SPANS: RefCell<Vec<(Phase, u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The traced run's observer: keeps each closed span on the thread
/// that ran it, for that client thread to collect after its call.
struct SpanSink;

impl GenObserver for SpanSink {
    fn span_exit(&self, span: &Span<'_>, elapsed: Duration, alloc: AllocDelta) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        SPANS.with(|s| s.borrow_mut().push((span.phase, ns, alloc.allocated_bytes)));
    }
}

/// Per-layer samples a traced client thread gathers.
#[derive(Default)]
struct Trace {
    phase_ns: [Samples; 5],
    phase_bytes: [Samples; 5],
    typecheck: Samples,
    print: Samples,
}

impl Trace {
    /// Moves this thread's closed spans into the phase samples.
    fn collect_spans(&mut self) {
        for (phase, ns, bytes) in SPANS.with(|s| std::mem::take(&mut *s.borrow_mut())) {
            self.phase_ns[phase.index()].push_ns(ns);
            self.phase_bytes[phase.index()].push_ns(bytes);
        }
    }

    /// Times the type check and the printer on a generated unit.
    fn time_javamodel(&mut self, unit: &CompilationUnit, table: &TypeTable) {
        let t = Instant::now();
        let checked = check_unit(unit, table);
        self.typecheck.push(t.elapsed());
        let t = Instant::now();
        let printed = print_unit(unit);
        self.print.push(t.elapsed());
        let _ = std::hint::black_box((checked, printed));
    }

    fn merge(&mut self, mut other: Trace) {
        for i in 0..5 {
            self.phase_ns[i].append(std::mem::take(&mut other.phase_ns[i]));
            self.phase_bytes[i].append(std::mem::take(&mut other.phase_bytes[i]));
        }
        self.typecheck.append(other.typecheck);
        self.print.append(other.print);
    }
}

/// One generate through `engine`, as a reply: the generated source, or
/// the typed error class. `unit` receives the compilation unit.
fn generate(
    engine: &GenEngine,
    oracle: &Oracle,
    uc: u8,
    unit: &mut Option<CompilationUnit>,
) -> Result<Reply, String> {
    Ok(match engine.generate(&oracle.get(uc).case.template) {
        Ok(generated) => {
            *unit = Some(generated.unit);
            Reply::ok(generated.java_source)
        }
        Err(e) => Reply {
            class: "generation".to_owned(),
            body: e.to_string(),
        },
    })
}

/// The daemon's hot-reload, in-process: re-open the pack, build a
/// successor sharing the warm cache, warm it, swap it in, prune the
/// cache to the new pack's fingerprints.
fn reload(current: &RwLock<Arc<GenEngine>>) -> Result<Reply, String> {
    let pack = rules::open(PackSource::Embedded).map_err(|e| e.to_string())?;
    let keep: HashSet<u64> = pack.fingerprints.iter().copied().collect();
    let engine = current
        .read()
        .expect("no reload panics holding the lock")
        .clone();
    let successor = Arc::new(engine.with_rule_set(pack.rules));
    successor.warm().map_err(|e| e.to_string())?;
    *current.write().expect("no reload panics holding the lock") = successor.clone();
    successor
        .order_cache()
        .retain_fingerprints(|fp| keep.contains(&fp));
    Ok(Reply::ok(String::new()))
}

/// One cold start: open the embedded sources, build an engine with a
/// fresh ORDER cache, warm it, and run the set-up generate, which `log`
/// checks. Returns the engine and the time to the generate's reply.
fn cold_start(
    oracle: &Oracle,
    observer: &Arc<dyn GenObserver>,
    log: &mut Log,
) -> Result<(GenEngine, Duration), String> {
    let uc = plan::setup_uc();
    let op = Op::Generate(uc);
    let t0 = Instant::now();
    let pack = rules::open_uncached(PackSource::Embedded).map_err(|e| e.to_string())?;
    let engine = GenEngine::builder()
        .rules(pack.rules)
        .type_table(jca_type_table())
        .threads(CLIENTS)
        .observer(observer.clone())
        .build()
        .map_err(|e| e.to_string())?;
    engine.warm_traced().map_err(|e| e.to_string())?;
    let reply = run_op(None, &op, || generate(&engine, oracle, uc, &mut None));
    let elapsed = t0.elapsed();
    let mut one = Log::default();
    one.record(&op, &reply, oracle, elapsed, None);
    log.merge_checks(one);
    Ok((engine, elapsed))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let oracle = Oracle::build(PackSource::Embedded)?;
    let observer: Arc<dyn GenObserver> = if ctx.traced {
        Arc::new(SpanSink)
    } else {
        Arc::new(NoopObserver)
    };

    // Set-up: the first cold start builds the engine the window runs
    // on. The other cold starts are spread over the run, a few before
    // each segment, so they sample the machine's speed over the same
    // span as the window does.
    let mut setup = Samples::default();
    let mut log = Log::default();
    let (engine, elapsed) = cold_start(&oracle, &observer, &mut log)?;
    setup.push(elapsed);

    // The measured window, in segments; each client's stream of
    // shuffles runs on across them.
    let cache_before = engine.cache_stats();
    let mut streams: Vec<Shuffles> = (0..CLIENTS).map(|c| Shuffles::new(ctx.seed, c)).collect();
    let mut window = Duration::ZERO;
    let mut gen_segments = Vec::new();
    let mut trace = Trace::default();
    for k in 0..SEGMENTS {
        for _ in usize::from(k == 0)..SETUP_REPS / SEGMENTS {
            setup.push(cold_start(&oracle, &observer, &mut log)?.1);
        }
        let start = Instant::now();
        let stop_at = start + ctx.seconds / SEGMENTS as u32;
        let parts: Vec<(Log, Trace)> = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter_mut()
                .map(|stream| {
                    let (engine, oracle) = (&engine, &oracle);
                    s.spawn(move || {
                        let (mut log, mut trace) = (Log::default(), Trace::default());
                        for uc in stream.by_ref() {
                            let op = Op::Generate(uc);
                            let mut unit = None;
                            let t0 = Instant::now();
                            let reply = run_op(ctx.fault(), &op, || {
                                generate(engine, oracle, uc, &mut unit)
                            });
                            log.record(&op, &reply, oracle, t0.elapsed(), None);
                            if ctx.traced {
                                trace.collect_spans();
                                if let Some(unit) = unit {
                                    trace.time_javamodel(&unit, &oracle.get(uc).check_table);
                                }
                            }
                            if Instant::now() >= stop_at {
                                break;
                            }
                        }
                        (log, trace)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads contain their panics"))
                .collect()
        });
        let mut segment = Log::default();
        for (l, t) in parts {
            segment.merge(l);
            trace.merge(t);
        }
        window += segment.last_done.map_or(Duration::ZERO, |t| t - start);
        gen_segments.push(segment.gen.clone());
        log.merge(segment);
    }
    let cache_after = engine.cache_stats();

    // Probes: hostile selectors and in-process reloads.
    let current = RwLock::new(Arc::new(engine));
    let probed = probe_phase(ctx, &oracle, 0..PROBES, |op| match op {
        Op::Reject(selector) => Ok(match cognicryptgen::find_use_case(selector) {
            Ok(uc) => Reply::ok(format!("resolved to use case {}", uc.id)),
            Err(e) => Reply {
                class: Response::from_error(&e).class.to_owned(),
                body: e.to_string(),
            },
        }),
        Op::Reload => reload(&current),
        other => unreachable!("not a probe: {other:?}"),
    });
    log.merge_probes(probed);

    let peak_rss_kb = crate::daemon::vm_hwm_kb("/proc/self/status").unwrap_or(0);
    let mut notes = vec![format!(
        "probe phase: {} hostile selectors and {} in-process reloads, Poisson arrivals, idle engine",
        PROBES / 2,
        PROBES / 2
    )];
    let layers = if ctx.traced {
        let (open, warm, compiled) = time_open_and_warm(&PackSource::Embedded, SETUP_REPS)?;
        notes.push(format!("warm-up compiled {compiled} ORDER automata"));
        Some(layers(
            &log,
            &trace,
            &open,
            &warm,
            cache_before,
            cache_after,
        ))
    } else {
        None
    };
    Ok(Outcome {
        plan: PlanSummary::of(&plan::engine_prefix(ctx.seed)),
        log,
        window,
        gen_segments,
        setup,
        peak_rss_kb,
        layers,
        notes,
    })
}

fn layers(
    log: &Log,
    trace: &Trace,
    open: &Samples,
    warm: &Samples,
    before: cognicryptgen::statemachine::CacheStats,
    after: cognicryptgen::statemachine::CacheStats,
) -> Layers {
    let mut values = std::collections::BTreeMap::new();
    let ledger = engine_phases(&trace.phase_ns, &trace.phase_bytes, &mut values);
    values.insert(
        "javamodel.typecheck_p50_us",
        trace.typecheck.dist().p50_us(),
    );
    values.insert("javamodel.print_p50_us", trace.print.dist().p50_us());
    let hits = after.hits.saturating_sub(before.hits) as f64;
    let misses = after.misses.saturating_sub(before.misses) as f64;
    values.insert(
        "statemachine.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    values.insert("rules.open_ms", open.dist().p50_ms());
    values.insert("statemachine.warm_ms", warm.dist().p50_ms());
    Layers {
        values,
        ledger,
        total_us: us(log.gen.dist().mean_ns()),
        dispatch_parts: Vec::new(),
    }
}
