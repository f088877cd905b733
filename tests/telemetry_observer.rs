//! Telemetry suite: the `GenObserver` span contract, the per-generation
//! `GenRecord`, and the determinism guarantees of the metrics registry.
//!
//! * Span ordering — every generated template sees exactly one
//!   `span_enter`/`span_exit` pair per pipeline phase, in
//!   `Phase::ALL` order, never nested; its record shows one span per
//!   phase, one selection per rule its chains name, and resolution
//!   counts that sum to `resolve.params`.
//! * Batch records — slot `i` of a batch carries the record a solo
//!   generate of template `i` produces, at any thread count.
//! * Metrics determinism — a batch's slot records folded into a fresh
//!   registry (minus the `order_cache.*`
//!   hit/miss split, which races benignly on the shared cache, and the
//!   `mem.*` allocation metrics, whose cold-engine values depend on
//!   that same race — `tests/memtrack_trace.rs` pins them down on a
//!   warmed engine) are identical across thread counts and seeded
//!   input shuffles; total cache traffic is identical everywhere.
//! * Phase timings — every unit of a batch has one timed span per
//!   phase in its record.
//! * Builder — `GenEngine::builder()` validation.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cognicryptgen::core::engine::EngineBuildError;
use cognicryptgen::core::memtrack::AllocDelta;
use cognicryptgen::core::telemetry::{
    GenObserver, GenRecord, Metric, MetricsRegistry, Phase, PhaseStat, Span,
};
use cognicryptgen::core::{GenEngine, Template};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::usecases::all_use_cases;
use devharness::rng::{RandomSource, Xoshiro256};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Entry {
    Enter(String, Phase),
    Exit(String, Phase),
}

/// Observer that records the span sequence it sees.
#[derive(Default)]
struct Recorder {
    log: Mutex<Vec<Entry>>,
}

impl Recorder {
    fn take(&self) -> Vec<Entry> {
        std::mem::take(&mut self.log.lock().unwrap())
    }
}

impl GenObserver for Recorder {
    fn span_enter(&self, span: &Span<'_>) {
        self.log
            .lock()
            .unwrap()
            .push(Entry::Enter(span.unit.to_owned(), span.phase));
    }

    fn span_exit(&self, span: &Span<'_>, _elapsed: Duration, _alloc: AllocDelta) {
        self.log
            .lock()
            .unwrap()
            .push(Entry::Exit(span.unit.to_owned(), span.phase));
    }
}

fn engine() -> GenEngine {
    GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .type_table(jca_type_table())
        .build()
        .expect("rules supplied")
}

/// `record` with the measured fields — wall time and allocation —
/// zeroed, leaving what the generation decided and its span counts.
fn decisions(mut record: GenRecord) -> GenRecord {
    for stat in &mut record.phases {
        *stat = PhaseStat {
            spans: stat.spans,
            ..PhaseStat::default()
        };
    }
    record
}

#[test]
fn one_span_pair_per_phase_in_pipeline_order_for_every_use_case() {
    let recorder = Arc::new(Recorder::default());
    let engine = GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .type_table(jca_type_table())
        .observer(recorder.clone())
        .build()
        .expect("rules supplied");
    for uc in all_use_cases() {
        let record = engine.generate(&uc.template).expect("generates").record;
        let unit = uc.template.class_name.as_str();

        let mut open: Option<Phase> = None;
        let mut pairs_seen = Vec::new();
        for entry in recorder.take() {
            match entry {
                Entry::Enter(u, p) => {
                    assert_eq!(u, unit, "uc{}: span for a foreign unit", uc.id);
                    assert_eq!(open, None, "uc{}: nested span {p} inside {open:?}", uc.id);
                    open = Some(p);
                }
                Entry::Exit(u, p) => {
                    assert_eq!(u, unit, "uc{}: span for a foreign unit", uc.id);
                    assert_eq!(open, Some(p), "uc{}: exit without matching enter", uc.id);
                    open = None;
                    pairs_seen.push(p);
                }
            }
        }
        assert_eq!(open, None, "uc{}: span left open", uc.id);
        assert_eq!(
            pairs_seen,
            Phase::ALL.to_vec(),
            "uc{}: exactly one pair per phase, in pipeline order",
            uc.id
        );

        // The record agrees: one span per phase, one selection (and one
        // ORDER lookup) per rule the template's chains name.
        for phase in Phase::ALL {
            assert_eq!(record.phase(phase).spans, 1, "uc{} {phase}", uc.id);
        }
        let rules: u64 = uc
            .template
            .methods
            .iter()
            .filter_map(|m| m.chain.as_ref())
            .map(|chain| chain.entries.len() as u64)
            .sum();
        assert_eq!(record.selections, rules, "uc{}", uc.id);
        assert_eq!(record.candidates.count, rules, "uc{}", uc.id);
        assert_eq!(
            record.cache_hits + record.cache_misses,
            rules,
            "uc{}",
            uc.id
        );
        // The resolution counts sum to `resolve.params`.
        let registry = MetricsRegistry::new();
        record.fold_into(&registry);
        let by_kind: u64 = registry
            .snapshot()
            .iter()
            .filter(|(k, _)| k.starts_with("resolve.via.") || *k == "resolve.hoisted")
            .filter_map(|(_, m)| m.as_counter())
            .sum();
        assert!(record.params() > 0, "uc{}: nothing resolved", uc.id);
        assert_eq!(registry.counter("resolve.params"), record.params());
        assert_eq!(by_kind, record.params(), "uc{}", uc.id);
    }
}

#[test]
fn batch_slot_records_equal_solo_records_at_every_thread_count() {
    let templates: Vec<Template> = all_use_cases().into_iter().map(|uc| uc.template).collect();
    // Warmed engines serve every ORDER lookup from the cache, so the
    // cache outcomes do not depend on which job looked a rule up first.
    let solo_engine = engine();
    solo_engine.warm().expect("warms");
    let solo: Vec<GenRecord> = templates
        .iter()
        .map(|t| decisions(solo_engine.generate(t).expect("generates").record))
        .collect();
    for threads in [1usize, 2, 8] {
        let engine = engine();
        engine.warm().expect("warms");
        let results = engine.generate_batch(&templates, threads);
        assert_eq!(results.len(), templates.len());
        for (i, result) in results.into_iter().enumerate() {
            let record = result.expect("generates").record;
            assert_eq!(
                decisions(record),
                solo[i],
                "slot {i} at {threads} threads differs from a solo generate"
            );
        }
    }
}

/// A batch's slot records folded into a fresh registry, with the
/// scheduling-dependent keys removed: the hit/miss split of the shared
/// ORDER cache (two workers can race a first lookup and both record a
/// miss), and the `mem.*` allocation metrics, since that same race
/// changes how much compilation work — and thus allocation — each cold
/// run performs (`tests/memtrack_trace.rs` asserts `mem.*` determinism
/// on a warmed engine, where no such race exists). Also returns the
/// total of ORDER-cache lookups.
fn stable_metrics(records: &[GenRecord]) -> (BTreeMap<String, Metric>, u64) {
    let registry = MetricsRegistry::new();
    for record in records {
        record.fold_into(&registry);
    }
    let lookups = registry.counter("order_cache.hits")
        + registry.counter("order_cache.misses")
        + registry.counter("order_cache.uncached");
    let stable = registry
        .snapshot()
        .into_iter()
        .filter(|(k, _)| !k.starts_with("order_cache.") && !k.starts_with("mem."))
        .collect();
    (stable, lookups)
}

#[test]
fn metrics_are_deterministic_across_thread_counts_and_shuffles() {
    let cases = all_use_cases();
    let templates: Vec<Template> = cases.iter().map(|uc| uc.template.clone()).collect();

    let run = |order: &[usize], threads: usize| {
        let engine = engine();
        let permuted: Vec<Template> = order.iter().map(|&i| templates[i].clone()).collect();
        let records: Vec<GenRecord> = engine
            .generate_batch(&permuted, threads)
            .into_iter()
            .map(|result| result.expect("generates").record)
            .collect();
        stable_metrics(&records)
    };

    let identity: Vec<usize> = (0..templates.len()).collect();
    let (reference, reference_lookups) = run(&identity, 1);
    assert!(!reference.is_empty());
    assert!(reference_lookups > 0);
    // Phase span counters: one span per phase per template.
    for phase in Phase::ALL {
        assert_eq!(
            reference.get(&format!("phase.{}.spans", phase.name())),
            Some(&Metric::Counter(templates.len() as u64)),
            "phase {phase} span counter"
        );
    }

    let mut rng = Xoshiro256::seed_from_u64(0x7E1E_AE7E);
    for threads in [1usize, 2, 8] {
        for _shuffle in 0..3 {
            let mut order = identity.clone();
            for i in (1..order.len()).rev() {
                let j = rng.next_below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            let (metrics, lookups) = run(&order, threads);
            assert_eq!(
                metrics, reference,
                "metrics diverged at {threads} threads with order {order:?}"
            );
            assert_eq!(
                lookups, reference_lookups,
                "cache lookup total diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn phase_timings_cover_every_unit_of_a_batch() {
    let cases = all_use_cases();
    let templates: Vec<Template> = cases.iter().map(|uc| uc.template.clone()).collect();
    let results = engine().generate_batch(&templates, 4);
    assert_eq!(results.len(), cases.len(), "one record per use case");
    let mut total = Duration::ZERO;
    for (uc, result) in cases.iter().zip(results) {
        let record = result.expect("generates").record;
        for phase in Phase::ALL {
            assert_eq!(
                record.phase(phase).spans,
                1,
                "{} phase {phase} span count",
                uc.template.class_name
            );
        }
        total += record.total();
    }
    assert!(total > Duration::ZERO, "the batch took measurable time");
}

#[test]
fn builder_requires_rules_and_defaults_the_rest() {
    match GenEngine::builder().build() {
        Err(EngineBuildError::MissingRules) => {}
        other => panic!("expected MissingRules, got {other:?}"),
    }
    let e = EngineBuildError::MissingRules;
    assert!(e.to_string().contains("rule"), "{e}");

    // Type table, threads and observer all default: the engine works.
    let engine = GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .build()
        .expect("rules supplied");
    let uc = all_use_cases().remove(0);
    assert!(engine.generate(&uc.template).is_ok());
}
