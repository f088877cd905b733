//! Differential suite: the warm `GenEngine` path must be observably
//! identical to the legacy cold path for every Table-1 use case.
//!
//! "Cold" is the pre-engine behaviour — rules re-parsed from source,
//! every ORDER pattern recompiled, no cache anywhere. "Warm" is a
//! `GenEngine` whose compiled-ORDER cache was fully populated before the
//! measured generation, so every artefact lookup is a cache hit. For
//! every catalogued use case the suite asserts the two paths agree on
//!
//! * the decisions their generation records show,
//! * the static analyzer's verdicts on the emitted unit, and
//! * the observable behaviour when the generated code is *executed* on
//!   the simulated JCA provider (full interpreter round trip; the
//!   simulated `SecureRandom` is deterministic, so transcripts are
//!   byte-reproducible across interpreter instances).
//!
//! The emitted Java itself is pinned, on both paths, by
//! `tests/golden_catalogue.rs`.

use cognicryptgen::core::{GenEngine, Generated, Generator};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, open_uncached, PackSource};
use cognicryptgen::sast::{analyze_unit, AnalyzerOptions};
use cognicryptgen::usecases::all_use_cases;

mod common;
use common::transcript;

/// The legacy cold path: freshly parsed rules, no compiled-artefact
/// reuse of any kind.
fn cold(template: &cognicryptgen::core::Template) -> Generated {
    let rules = open_uncached(PackSource::Embedded)
        .expect("shipped rules parse")
        .rules;
    Generator::new()
        .generate_uncached(template, &rules, &jca_type_table())
        .expect("cold generation succeeds")
}

/// The warm engine path: a fresh engine, cache fully populated via
/// `warm()`, so the measured generation serves every artefact from the
/// cache (asserted through the hit counter).
fn warm(template: &cognicryptgen::core::Template) -> Generated {
    let engine = GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .type_table(jca_type_table())
        .build()
        .expect("rules supplied");
    engine.warm().expect("warm succeeds");
    let generated = engine.generate(template).expect("warm generation succeeds");
    let stats = engine.cache_stats();
    assert!(
        stats.hits > 0,
        "warm generation must be served from the cache: {stats:?}"
    );
    assert_eq!(
        stats.misses as usize, stats.entries,
        "only warm() itself may compile: {stats:?}"
    );
    generated
}

#[test]
fn warm_engine_makes_the_cold_paths_decisions_for_all_use_cases() {
    for uc in all_use_cases() {
        let c = cold(&uc.template);
        let w = warm(&uc.template);
        assert_eq!(c.hoisted, w.hoisted, "use case {} hoisting differs", uc.id);
        // The two paths make the same decisions: their records differ
        // only in how ORDER artefacts were obtained (enumerated on the
        // spot versus served from the cache, with DFA sizes).
        let (c, w) = (c.record, w.record);
        assert_eq!(c.selections, w.selections, "uc{} selections", uc.id);
        assert_eq!(c.candidates, w.candidates, "uc{} candidates", uc.id);
        assert_eq!(
            c.accepting_paths, w.accepting_paths,
            "uc{} accepting paths",
            uc.id
        );
        assert_eq!(c.hoisted_params, w.hoisted_params, "uc{} hoists", uc.id);
        assert_eq!(c.resolutions, w.resolutions, "uc{} resolutions", uc.id);
        assert_eq!(c.cache_uncached, c.selections, "uc{}", uc.id);
        assert_eq!((w.cache_hits, w.cache_uncached), (w.selections, 0));
    }
}

#[test]
fn observed_engine_hoists_like_the_unobserved_one() {
    // Telemetry must be purely observational: an engine carrying a live
    // observer (a span counter on top of the records and the metrics
    // registry) hoists exactly what a no-op-observer engine hoists.
    use cognicryptgen::core::memtrack::AllocDelta;
    use cognicryptgen::core::telemetry::{GenObserver, Span};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[derive(Default)]
    struct SpanCount(AtomicUsize);
    impl GenObserver for SpanCount {
        fn span_exit(&self, _: &Span<'_>, _: std::time::Duration, _: AllocDelta) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    let spans = Arc::new(SpanCount::default());
    let observed = GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .type_table(jca_type_table())
        .observer(spans.clone())
        .build()
        .expect("rules supplied");
    let unobserved = GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .type_table(jca_type_table())
        .build()
        .expect("rules supplied");
    for uc in all_use_cases() {
        let on = observed.generate(&uc.template).expect("generates");
        let off = unobserved.generate(&uc.template).expect("generates");
        assert_eq!(
            on.hoisted, off.hoisted,
            "use case {} hoisting differs",
            uc.id
        );
    }
    // The observer really ran: five span pairs per use case.
    assert_eq!(spans.0.load(Ordering::Relaxed), all_use_cases().len() * 5);
    assert!(!observed.metrics().is_empty());
}

#[test]
fn warm_engine_preserves_sast_verdicts_for_all_use_cases() {
    let table = jca_type_table();
    let rules = open_uncached(PackSource::Embedded).expect("parses").rules;
    for uc in all_use_cases() {
        let c = analyze_unit(
            &cold(&uc.template).unit,
            &rules,
            &table,
            AnalyzerOptions::default(),
        );
        let w = analyze_unit(
            &warm(&uc.template).unit,
            &rules,
            &table,
            AnalyzerOptions::default(),
        );
        let render =
            |ms: &[_]| -> Vec<String> { ms.iter().map(|m| format!("{m}")).collect::<Vec<_>>() };
        assert_eq!(
            render(&c),
            render(&w),
            "use case {} ({}) SAST verdicts diverged",
            uc.id,
            uc.name
        );
        assert!(
            c.is_empty(),
            "use case {} generated code has misuses",
            uc.id
        );
    }
}

#[test]
fn warm_engine_preserves_runtime_behaviour_for_all_use_cases() {
    for uc in all_use_cases() {
        let c = transcript(uc.id, &cold(&uc.template).unit);
        let w = transcript(uc.id, &warm(&uc.template).unit);
        assert!(!c.is_empty(), "use case {} has no driver", uc.id);
        assert_eq!(
            c, w,
            "use case {} ({}) runtime transcripts diverged",
            uc.id, uc.name
        );
    }
}
