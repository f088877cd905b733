//! Concurrency suite: `GenEngine::generate_batch` must be deterministic
//! in thread count and scheduling, and must contain worker failures to
//! their own result slot.
//!
//! The determinism tests run the full Table-1 batch at 1, 2 and 8
//! threads and under seeded random input shuffles (devharness PRNG —
//! reproducible, no external deps), asserting that every run produces
//! the same use-case → Java-source map. The poison tests inject a
//! panicking job and a failing template and assert the engine reports
//! the error in the poisoned slot without deadlocking or dropping
//! sibling results.

use std::collections::BTreeMap;

use cognicryptgen::core::engine::scatter;
use cognicryptgen::core::{EngineError, GenEngine, GenError, Template};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::usecases::all_use_cases;
use devharness::rng::{RandomSource, Xoshiro256};

fn engine() -> GenEngine {
    GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .type_table(jca_type_table())
        .build()
        .expect("rules supplied")
}

/// Fisher–Yates shuffle driven by the in-repo PRNG.
fn shuffled_indices(n: usize, rng: &mut Xoshiro256) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        idx.swap(i, j);
    }
    idx
}

/// Runs a batch over `order`-permuted templates and maps each result
/// back to its use-case id.
fn batch_outputs(
    engine: &GenEngine,
    ids: &[u8],
    templates: &[Template],
    order: &[usize],
    threads: usize,
) -> BTreeMap<u8, String> {
    let permuted: Vec<Template> = order.iter().map(|&i| templates[i].clone()).collect();
    let results = engine.generate_batch(&permuted, threads);
    assert_eq!(results.len(), permuted.len());
    order
        .iter()
        .zip(results)
        .map(|(&i, r)| {
            let generated = r.unwrap_or_else(|e| panic!("use case {} failed: {e}", ids[i]));
            (ids[i], generated.java_source)
        })
        .collect()
}

#[test]
fn batch_results_are_independent_of_thread_count_and_input_order() {
    let engine = engine();
    let cases = all_use_cases();
    let ids: Vec<u8> = cases.iter().map(|uc| uc.id).collect();
    let templates: Vec<Template> = cases.into_iter().map(|uc| uc.template).collect();

    let identity: Vec<usize> = (0..templates.len()).collect();
    let reference = batch_outputs(&engine, &ids, &templates, &identity, 1);
    assert_eq!(reference.len(), ids.len());

    let mut rng = Xoshiro256::seed_from_u64(0xC061_7C47);
    for threads in [1usize, 2, 8] {
        for _shuffle in 0..3 {
            let order = shuffled_indices(templates.len(), &mut rng);
            let outputs = batch_outputs(&engine, &ids, &templates, &order, threads);
            assert_eq!(
                outputs, reference,
                "batch diverged at {threads} threads with order {order:?}"
            );
        }
    }
}

#[test]
fn batch_slots_follow_input_positions_not_completion_order() {
    let engine = engine();
    let cases = all_use_cases();
    // Same template at positions 0 and 5, distinct ones elsewhere: the
    // result at each index must match the template at that index.
    let templates = vec![
        cases[10].template.clone(),
        cases[3].template.clone(),
        cases[10].template.clone(),
    ];
    let results = engine.generate_batch(&templates, 8);
    let sources: Vec<String> = results
        .into_iter()
        .map(|r| r.expect("generates").java_source)
        .collect();
    assert_eq!(sources[0], sources[2]);
    assert_ne!(sources[0], sources[1]);
    assert!(
        sources[1].contains("SecureSymmetricEncryptor"),
        "slot 1 holds uc4"
    );
    assert!(sources[0].contains("SecureHasher"), "slots 0/2 hold uc11");
}

#[test]
fn poisoned_worker_is_contained_without_losing_siblings() {
    // A job that panics mid-batch (e.g. template construction blowing up
    // inside the worker) must surface as Err in its own slot; all other
    // slots complete, and the call returns rather than deadlocking.
    let items: Vec<usize> = (0..11).collect();
    let results = scatter(&items, 8, |_, &v| {
        assert!(v != 5, "poisoned template at position 5");
        v * 10
    });
    assert_eq!(results.len(), 11);
    for (i, r) in results.iter().enumerate() {
        if i == 5 {
            let p = r.as_ref().unwrap_err();
            assert_eq!(p.index, 5);
            assert!(p.message.contains("poisoned template"), "{}", p.message);
        } else {
            assert_eq!(*r.as_ref().unwrap(), i * 10, "sibling {i} lost");
        }
    }
}

#[test]
fn failing_template_surfaces_a_gen_error_in_its_own_slot() {
    let engine = engine();
    let cases = all_use_cases();
    let bad = Template::new("p", "Broken").method(
        cognicryptgen::core::TemplateMethod::new(
            "go",
            cognicryptgen::javamodel::ast::JavaType::Void,
        )
        .chain(
            cognicryptgen::core::CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("no.such.Rule")
                .build(),
        ),
    );
    let templates = vec![
        cases[0].template.clone(),
        bad,
        cases[1].template.clone(),
        cases[2].template.clone(),
    ];
    let results = engine.generate_batch(&templates, 8);
    assert!(results[0].is_ok(), "sibling before the failure lost");
    assert!(
        matches!(results[1], Err(EngineError::Gen(GenError::UnknownRule(_)))),
        "slot 1 must carry the generation error"
    );
    assert!(results[2].is_ok(), "sibling after the failure lost");
    assert!(results[3].is_ok(), "sibling after the failure lost");
    // The engine stays usable after a failed batch item.
    assert!(engine.generate(&cases[0].template).is_ok());
}

#[test]
fn engine_survives_a_panicking_sibling_touching_the_shared_cache() {
    // Workers share the engine's OrderCache; a panic inside one job must
    // not poison it for the surviving workers or later calls.
    let engine = engine();
    let cases = all_use_cases();
    let templates: Vec<Template> = cases.iter().map(|uc| uc.template.clone()).collect();
    let results = scatter(&templates, 4, |i, t| {
        let generated = engine.generate(t).expect("generates");
        assert!(i != 7, "worker poisoned after touching the cache");
        generated.java_source
    });
    for (i, r) in results.iter().enumerate() {
        if i == 7 {
            assert!(r.is_err());
        } else {
            assert!(r.is_ok(), "sibling {i} lost");
        }
    }
    // Later single-shot and batch calls still work and still hit cache.
    assert!(engine.generate(&cases[7].template).is_ok());
    assert!(engine.cache_stats().hits > 0);
}
