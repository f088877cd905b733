//! Precompiled rule packs are a pure serialization of the source
//! pipeline: booting from a `.crpack` must change *nothing* observable
//! except cold-start cost.
//!
//! * **Output identity** — for every shipped use case, a pack-booted
//!   engine produces identical compilation units (so SAST verdicts and
//!   interpreter transcripts are identical by construction — asserted
//!   directly anyway for SAST, and spot-checked through the
//!   interpreter). The emitted Java of both boots is pinned by
//!   `tests/golden_catalogue.rs`.
//! * **All-hit cold start** — a pack-booted engine never compiles an
//!   ORDER artefact: seeding from the pack makes every compiled-ORDER
//!   lookup a cache hit, read from the generations' records.
//! * **Hostile files** — truncations and bit flips at every sampled
//!   offset of a real pack file surface as one typed `Rules` error
//!   through `rules::open`, never a panic.

use std::sync::Arc;

use cognicryptgen::core::GenEngine;
use cognicryptgen::interp::{Interpreter, Value};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{self, PackError, PackSource, RulePack, PACK_VERSION};
use cognicryptgen::sast::{analyze_unit, AnalyzerOptions};
use cognicryptgen::statemachine::OrderCache;
use cognicryptgen::usecases::all_use_cases;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cgen-packrt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the embedded rules as a `.crpack` file and opens it back.
fn compiled_pack(dir: &std::path::Path) -> (std::path::PathBuf, RulePack) {
    let bytes = rules::open(PackSource::Embedded)
        .unwrap()
        .to_bytes()
        .unwrap();
    let path = dir.join("jca.crpack");
    std::fs::write(&path, &bytes).unwrap();
    let pack = rules::open(PackSource::Compiled(path.clone())).unwrap();
    (path, pack)
}

#[test]
fn pack_boot_generates_the_source_boots_units_for_all_use_cases() {
    let dir = temp_dir("identity");
    let (_, pack) = compiled_pack(&dir);
    assert!(pack.is_precompiled());
    assert_eq!(pack.version, PACK_VERSION);

    let source = rules::open(PackSource::Embedded).unwrap();
    assert_eq!(pack.rules, source.rules, "decoded rule set diverges");
    assert_eq!(pack.pack_fingerprint(), source.pack_fingerprint());

    let from_source = GenEngine::builder()
        .rules(source.rules)
        .type_table(jca_type_table())
        .build()
        .unwrap();
    let from_pack = GenEngine::builder()
        .rules(pack.rules.clone())
        .type_table(jca_type_table())
        .build()
        .unwrap();

    let cases = all_use_cases();
    assert!(cases.len() >= 25);
    for uc in &cases {
        let s = from_source.generate(&uc.template).unwrap();
        let p = from_pack.generate(&uc.template).unwrap();
        assert_eq!(s.unit, p.unit, "use case {} unit diverged", uc.id);

        // Identical units make SAST identity a tautology — assert it
        // anyway so a future unit/source decoupling cannot silently
        // weaken the claim.
        let render = |unit| {
            analyze_unit(
                unit,
                from_source.rules(),
                from_source.table(),
                AnalyzerOptions::default(),
            )
            .iter()
            .map(|m| format!("{m}"))
            .collect::<Vec<_>>()
        };
        assert_eq!(
            render(&s.unit),
            render(&p.unit),
            "use case {} SAST diverged",
            uc.id
        );
    }

    // Interpreter spot check: the hashing showcase method runs to the
    // same value on both units.
    let uc = cases
        .iter()
        .find(|u| u.name.contains("hash"))
        .unwrap_or(&cases[10]);
    let s = from_source.generate(&uc.template).unwrap();
    let p = from_pack.generate(&uc.template).unwrap();
    let run = |unit| {
        Interpreter::new(unit)
            .call_static_style(
                "OutputClass",
                "templateUsage",
                vec![Value::Str("abc".into())],
            )
            .map(|v| format!("{v:?}"))
            .map_err(|e| e.to_string())
    };
    assert_eq!(
        run(&s.unit),
        run(&p.unit),
        "interpreter transcripts diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pack_boot_pre_seeds_the_cache_and_compiles_nothing() {
    let dir = temp_dir("allhit");
    let (_, pack) = compiled_pack(&dir);

    let cache = Arc::new(OrderCache::new());
    let seeded = pack.seed(&cache);
    assert_eq!(
        seeded,
        pack.fingerprints.len(),
        "every distinct fingerprint seeds exactly one artefact"
    );

    let engine = GenEngine::builder()
        .rules(pack.rules)
        .type_table(jca_type_table())
        .order_cache(cache)
        .build()
        .unwrap();

    // How the compiled-ORDER lookups were served, over every generation.
    let (mut hits, mut misses, mut uncached) = (0, 0, 0);
    for uc in all_use_cases() {
        let record = engine.generate(&uc.template).unwrap().record;
        hits += record.cache_hits;
        misses += record.cache_misses;
        uncached += record.cache_uncached;
    }

    assert!(hits > 0, "generation never consulted the cache");
    assert_eq!(misses, 0, "pack boot compiled {misses} ORDER artefacts");
    assert_eq!(uncached, 0, "pack boot fell back to the uncached path");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_pack_files_fail_with_a_typed_error_and_never_panic() {
    let dir = temp_dir("hostile");
    let (path, _) = compiled_pack(&dir);
    let bytes = std::fs::read(&path).unwrap();

    let open_expecting_error = |mutant: &[u8]| {
        let p = dir.join("mutant.crpack");
        std::fs::write(&p, mutant).unwrap();
        match rules::open(PackSource::Compiled(p)) {
            Ok(_) => panic!("corrupted pack decoded successfully"),
            Err(PackError::Crysl(e)) => {
                assert!(!e.to_string().is_empty());
            }
            Err(other) => panic!("unexpected error class: {other}"),
        }
    };

    // Truncation at every region boundary plus a sampled sweep.
    for end in [
        0usize,
        1,
        4,
        8,
        12,
        23,
        bytes.len() / 3,
        bytes.len() - 9,
        bytes.len() - 1,
    ] {
        open_expecting_error(&bytes[..end]);
    }
    for end in (0..bytes.len()).step_by(977) {
        open_expecting_error(&bytes[..end]);
    }

    // Bit flips across the file: header, rule region, artefact region,
    // checksum trailer.
    let mut mutant = bytes.clone();
    for offset in (0..bytes.len()).step_by(463) {
        for bit in [0, 3, 7] {
            mutant[offset] ^= 1 << bit;
            open_expecting_error(&mutant);
            mutant[offset] = bytes[offset];
        }
    }

    // A missing file is an I/O error, not a decode error.
    match rules::open(PackSource::Compiled(dir.join("absent.crpack"))) {
        Err(PackError::Io { .. }) => {}
        other => panic!("expected Io error, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
