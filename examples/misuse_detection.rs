//! The paper's motivating example (Figure 1): an insecure password-based
//! encryption implementation that compiles and runs without exceptions,
//! yet contains three security-breaking misuses — a constant salt, a
//! `String`-sourced password, and a missing `clearPassword()` call.
//!
//! This example runs the CrySL static analyzer over the insecure program
//! (all three misuses reported), then over the CogniCryptGEN-generated
//! counterpart (clean) — the paper's point that generation prevents
//! misuses that detection can only report after the fact.
//!
//! Run with: `cargo run --example misuse_detection`

use cognicryptgen::core::generate;
use cognicryptgen::javamodel::ast::*;
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::sast::{analyze_unit, AnalyzerOptions};
use cognicryptgen::usecases;

/// Figure 1, transcribed into the Java model.
fn insecure_pbe() -> CompilationUnit {
    let generate_key = MethodDecl::new("generateKey", JavaType::class("javax.crypto.SecretKey"))
        .param(JavaType::string(), "pwd") // misuse 2: password as String
        .statement(Stmt::decl_init(
            JavaType::byte_array(),
            "salt",
            // misuse 1: constant salt
            Expr::ArrayLit {
                elem: JavaType::Byte,
                elems: vec![15, -12, 94, 0, 12, 3, -65, 73, -1, -84, -35]
                    .into_iter()
                    .map(Expr::int)
                    .collect(),
            },
        ))
        .statement(Stmt::decl_init(
            JavaType::class("javax.crypto.spec.PBEKeySpec"),
            "spec",
            Expr::new_object(
                "javax.crypto.spec.PBEKeySpec",
                vec![
                    Expr::call(Expr::var("pwd"), "toCharArray", vec![]),
                    Expr::var("salt"),
                    Expr::int(100000), // the one thing Figure 1 gets right
                    Expr::int(256),
                ],
            ),
        ))
        .statement(Stmt::decl_init(
            JavaType::class("javax.crypto.SecretKeyFactory"),
            "skf",
            Expr::static_call(
                "javax.crypto.SecretKeyFactory",
                "getInstance",
                vec![Expr::str("PBKDF2WithHmacSHA256")],
            ),
        ))
        .statement(Stmt::decl_init(
            JavaType::class("javax.crypto.SecretKey"),
            "secretKey",
            Expr::call(Expr::var("skf"), "generateSecret", vec![Expr::var("spec")]),
        ))
        .statement(Stmt::decl_init(
            JavaType::byte_array(),
            "keyMaterial",
            Expr::call(Expr::var("secretKey"), "getEncoded", vec![]),
        ))
        .statement(Stmt::decl_init(
            JavaType::class("javax.crypto.spec.SecretKeySpec"),
            "cipherKey",
            Expr::new_object(
                "javax.crypto.spec.SecretKeySpec",
                vec![Expr::var("keyMaterial"), Expr::str("AES")],
            ),
        ))
        // misuse 3: clearPassword() never called
        .statement(Stmt::Return(Some(Expr::var("cipherKey"))));
    CompilationUnit::new("app").class(ClassDecl::new("InsecurePbe").method(generate_key))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rules = open(PackSource::Embedded)?.rules;
    let table = jca_type_table();

    println!("== Analyzing the paper's Figure 1 (hand-written, insecure) ==");
    let misuses = analyze_unit(&insecure_pbe(), &rules, &table, AnalyzerOptions::default());
    for m in &misuses {
        println!("  - {m}");
    }
    assert_eq!(misuses.len(), 3, "Figure 1 exhibits exactly three misuses");

    println!("\n== Analyzing the CogniCryptGEN-generated counterpart ==");
    let generated = generate(&usecases::use_case(3).unwrap().template, &rules, &table)?;
    let clean = analyze_unit(&generated.unit, &rules, &table, AnalyzerOptions::default());
    println!("  {} misuses", clean.len());
    assert!(clean.is_empty());
    println!("\nGeneration prevents what analysis can only detect.");
    Ok(())
}
