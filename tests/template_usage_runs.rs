//! The generated `templateUsage` showcase method is not documentation —
//! it is runnable code (the paper's artifact lets users call it from
//! `main`). These tests execute it through the interpreter.

use cognicryptgen::core::generate;
use cognicryptgen::interp::{Interpreter, Value};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::usecases;

#[test]
fn hashing_template_usage_executes() {
    let generated = generate(
        &usecases::use_case(11).unwrap().template,
        &open(PackSource::Embedded).unwrap().rules,
        &jca_type_table(),
    )
    .expect("generates");
    // templateUsage hoists the wrapper's unmatched parameters; for the
    // hasher that is the input string.
    let usage = generated
        .unit
        .find_class("OutputClass")
        .and_then(|c| c.find_method("templateUsage"))
        .expect("showcase method present");
    assert_eq!(usage.params.len(), 1);
    let mut interp = Interpreter::new(&generated.unit);
    let out = interp
        .call_static_style(
            "OutputClass",
            "templateUsage",
            vec![Value::Str("abc".into())],
        )
        .expect("showcase runs");
    // templateUsage returns void; its body ran the full pipeline.
    assert!(matches!(out, Value::Null));
}

#[test]
fn password_template_usage_chains_results_by_type() {
    let generated = generate(
        &usecases::use_case(9).unwrap().template,
        &open(PackSource::Embedded).unwrap().rules,
        &jca_type_table(),
    )
    .expect("generates");
    let usage = generated
        .unit
        .find_class("OutputClass")
        .and_then(|c| c.find_method("templateUsage"))
        .expect("showcase method present");
    // createSalt produces the byte[] that hashPassword and verifyPassword
    // consume; only the char[] password (twice, deduplicated by name
    // allocation) and the expected hash remain as parameters.
    let mut interp = Interpreter::new(&generated.unit);
    let args: Vec<Value> = usage
        .params
        .iter()
        .map(|p| match &p.ty {
            t if *t == cognicryptgen::javamodel::ast::JavaType::char_array() => {
                Value::chars("pw".chars().collect())
            }
            t if *t == cognicryptgen::javamodel::ast::JavaType::byte_array() => {
                Value::bytes(vec![0u8; 16])
            }
            other => panic!("unexpected hoisted parameter type {other}"),
        })
        .collect();
    interp
        .call_static_style("OutputClass", "templateUsage", args)
        .expect("showcase runs");
}

#[test]
fn pbe_template_usage_reuses_the_derived_key() {
    let generated = generate(
        &usecases::use_case(3).unwrap().template,
        &open(PackSource::Embedded).unwrap().rules,
        &jca_type_table(),
    )
    .expect("generates");
    let usage = generated
        .unit
        .find_class("OutputClass")
        .and_then(|c| c.find_method("templateUsage"))
        .expect("showcase present");
    // getKey's SecretKey result must flow into encrypt/decrypt by type
    // matching, so no SecretKey parameter is hoisted.
    assert!(
        usage
            .params
            .iter()
            .all(|p| p.ty
                != cognicryptgen::javamodel::ast::JavaType::class("javax.crypto.SecretKey")),
        "{:?}",
        usage.params
    );
    let mut interp = Interpreter::new(&generated.unit);
    let args: Vec<Value> = usage
        .params
        .iter()
        .map(|p| match &p.ty {
            t if *t == cognicryptgen::javamodel::ast::JavaType::char_array() => {
                Value::chars("pw".chars().collect())
            }
            t if *t == cognicryptgen::javamodel::ast::JavaType::byte_array() => {
                Value::bytes(b"plaintext payload".to_vec())
            }
            other => panic!("unexpected hoisted parameter type {other}"),
        })
        .collect();
    interp
        .call_static_style("OutputClass", "templateUsage", args)
        .expect("showcase runs end to end");
}
