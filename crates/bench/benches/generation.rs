//! Benches for every table/figure and the design-choice ablations called
//! out in DESIGN.md, on the in-repo `devharness` bench harness (hermetic,
//! no registry access). The run writes `BENCH_generation.json` — the
//! machine-readable trajectory data behind Table 1 / RQ5.
//!
//! * `table1/*` — generation runtime per use case (RQ2),
//! * `oldgen/*` — the XSL/Clafer baseline's generation runtime,
//! * `pipeline/*` — per-stage costs (rule parsing, FSM construction,
//!   path enumeration, SAST),
//! * `ablation/*` — path filters off, longest-path tie-break, fallback
//!   hoisting behaviour,
//! * `substrate/*`, `execution/*` — the simulated JCA and interpreter.
//!
//! Run with: `cargo bench -p cognicrypt-bench` (tune with
//! `DEVHARNESS_BENCH_SAMPLES` / `DEVHARNESS_BENCH_WARMUP`; output
//! directory with `DEVHARNESS_BENCH_DIR`).

use std::collections::BTreeMap;
use std::hint::black_box;

use devharness::bench::Harness;

use cognicrypt_core::pathsel::SelectionOptions;
use cognicrypt_core::{generate, GenEngine, Generator, GeneratorOptions};
use crysl::parse_rule;
use javamodel::jca::jca_type_table;
use rules::{open, open_uncached, PackSource, RULE_SOURCES};
use sast::{analyze_unit, AnalyzerOptions};
use statemachine::paths::{enumerate, PathLimit};
use statemachine::{Dfa, Nfa};
use usecases::all_use_cases;

fn bench_table1(h: &mut Harness) {
    // One engine for the group: warm-up runs fill its compiled-ORDER
    // cache, so the samples time generation against warm artefacts.
    let engine = GenEngine::builder()
        .rules(open(PackSource::Embedded).expect("parses").rules)
        .build()
        .expect("engine builds");
    h.group("table1");
    for uc in all_use_cases() {
        h.bench(&format!("uc{:02}_{}", uc.id, slug(uc.name)), || {
            let g = engine.generate(black_box(&uc.template)).expect("generates");
            black_box(g);
        });
    }
}

fn bench_oldgen(h: &mut Harness) {
    h.group("oldgen");
    for uc in oldgen::old_gen_use_cases() {
        h.bench(&format!("uc{:02}_{}", uc.id, slug(uc.name)), || {
            let out =
                oldgen::generate_use_case(black_box(&uc), &BTreeMap::new()).expect("generates");
            black_box(out);
        });
    }
}

fn bench_pipeline_stages(h: &mut Harness) {
    h.group("pipeline");
    // `open_uncached` is the always-reparse path; `open` would just
    // clone the process-wide parsed set and measure nothing.
    h.bench("parse_jca_ruleset", || {
        black_box(open_uncached(PackSource::Embedded).expect("parses").rules);
    });
    let src = RULE_SOURCES
        .iter()
        .find(|(n, _)| *n == "Cipher")
        .expect("Cipher rule shipped")
        .1;
    h.bench("parse_single_rule", || {
        black_box(parse_rule(black_box(src)).expect("parses"));
    });
    let rules = open(PackSource::Embedded).expect("parses").rules;
    h.bench("fsm_construction_all_rules", || {
        for r in rules.iter() {
            let dfa = Dfa::from_nfa(&Nfa::from_rule(r).expect("builds"));
            black_box(dfa);
        }
    });
    h.bench("path_enumeration_all_rules", || {
        for r in rules.iter() {
            black_box(enumerate(r, PathLimit::default()).expect("enumerates"));
        }
    });
    let table = jca_type_table();
    let generated = generate(&all_use_cases()[0].template, &rules, &table).expect("generates");
    h.bench("sast_analysis_pbe_files", || {
        black_box(analyze_unit(
            black_box(&generated.unit),
            &rules,
            &table,
            AnalyzerOptions::default(),
        ));
    });
}

fn bench_ablations(h: &mut Harness) {
    let rules = open(PackSource::Embedded).expect("parses").rules;
    let table = jca_type_table();
    // Hashing has the richest path structure of the configurations that
    // stay correct under every ablation: filters cannot be turned off
    // *correctness-free* for every use case; hashing works under all.
    let hash = all_use_cases()
        .into_iter()
        .find(|u| u.id == 11)
        .expect("hashing present");
    h.group("ablation");
    let configs: [(&str, SelectionOptions); 4] = [
        ("paper_defaults", SelectionOptions::default()),
        (
            "no_binding_filter",
            SelectionOptions {
                filter_template_bindings: false,
                ..SelectionOptions::default()
            },
        ),
        (
            "no_predicate_filter",
            SelectionOptions {
                filter_predicates: false,
                ..SelectionOptions::default()
            },
        ),
        (
            "longest_path",
            SelectionOptions {
                prefer_shortest: false,
                ..SelectionOptions::default()
            },
        ),
    ];
    for (name, selection) in configs {
        let generator = Generator::with_options(GeneratorOptions {
            selection,
            ..GeneratorOptions::default()
        });
        h.bench(name, || {
            let g = generator
                .generate_uncached(black_box(&hash.template), &rules, &table)
                .expect("generates");
            black_box(g);
        });
    }
}

fn bench_crypto_substrate(h: &mut Harness) {
    h.group("substrate");
    let data = vec![0xa5u8; 4096];
    h.bench("sha256_4k", || {
        black_box(jcasim::sha256::digest(black_box(&data)));
    });
    let aes = jcasim::aes::Aes128::new(&[7u8; 16]);
    let iv = [9u8; 16];
    h.bench("aes_cbc_4k", || {
        black_box(jcasim::modes::cbc_encrypt(&aes, &iv, black_box(&data)).expect("encrypts"));
    });
    h.bench("pbkdf2_1000_iters", || {
        black_box(jcasim::pbkdf2::pbkdf2_hmac_sha256(
            b"pwd", b"salt", 1000, 16,
        ));
    });
}

fn bench_execution(h: &mut Harness) {
    // Running the generated code end-to-end on the simulated provider —
    // the part of the paper's validation that was manual in Eclipse.
    let rules = open(PackSource::Embedded).expect("parses").rules;
    let table = jca_type_table();
    h.group("execution");
    let hashing = all_use_cases()
        .into_iter()
        .find(|u| u.id == 11)
        .expect("hashing present");
    let generated = generate(&hashing.template, &rules, &table).expect("generates");
    h.bench("interpret_hashing", || {
        let mut interp = interp::Interpreter::new(&generated.unit);
        let out = interp
            .call_static_style(
                "SecureHasher",
                "hash",
                vec![interp::Value::Str("benchmark input".into())],
            )
            .expect("runs");
        black_box(out);
    });
    let symmetric = all_use_cases()
        .into_iter()
        .find(|u| u.id == 4)
        .expect("symmetric present");
    let sym_gen = generate(&symmetric.template, &rules, &table).expect("generates");
    h.bench("interpret_symmetric_roundtrip", || {
        let mut interp = interp::Interpreter::new(&sym_gen.unit);
        let key = interp
            .call_static_style("SecureSymmetricEncryptor", "generateKey", vec![])
            .expect("keygen runs");
        let ct = interp
            .call_static_style(
                "SecureSymmetricEncryptor",
                "encrypt",
                vec![interp::Value::bytes(vec![7u8; 256]), key.clone()],
            )
            .expect("encrypt runs");
        let pt = interp
            .call_static_style("SecureSymmetricEncryptor", "decrypt", vec![ct, key])
            .expect("decrypt runs");
        black_box(pt);
    });
}

fn slug(name: &str) -> String {
    name.to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn main() {
    let mut h = Harness::new("generation");
    bench_table1(&mut h);
    bench_oldgen(&mut h);
    bench_pipeline_stages(&mut h);
    bench_ablations(&mut h);
    bench_crypto_substrate(&mut h);
    bench_execution(&mut h);
    match h.finish() {
        Ok(path) => println!("\nreport written to {}", path.display()),
        Err(e) => {
            eprintln!("failed to write bench report: {e}");
            std::process::exit(1);
        }
    }
}
