//! Quickstart: the paper's running example, end to end.
//!
//! Loads the Figure 4-style template for password-based encryption
//! (`crates/usecases/templates/uc03.java`), generates the Figure 5 Java
//! code from the CrySL rules, prints it, verifies it with the static
//! analyzer, and finally *executes* it on the simulated JCA provider to
//! derive a key and encrypt/decrypt a message.
//!
//! Run with: `cargo run --example quickstart`

use cognicryptgen::core::generate;
use cognicryptgen::interp::{Interpreter, Value};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::sast;
use cognicryptgen::usecases;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rules = open(PackSource::Embedded)?.rules;
    let table = jca_type_table();

    // 1. The code template for "PBE on byte arrays" (paper Table 1, #3).
    let template = &usecases::use_case(3)
        .expect("use case 3 is catalogued")
        .template;
    println!(
        "== Template: {} (3 methods, ~60 LoC of glue) ==\n",
        template.class_name
    );

    // 2. Generate: rules + template -> complete Java implementation.
    let generated = generate(template, &rules, &table)?;
    println!("== Generated Java (syntax-error free, type-checked) ==\n");
    println!("{}", generated.java_source);

    // 3. Verify with the CrySL static analyzer (CogniCryptSAST analogue).
    let misuses = sast::analyze_unit(
        &generated.unit,
        &rules,
        &table,
        sast::AnalyzerOptions::default(),
    );
    println!("== Static analysis: {} misuses ==\n", misuses.len());
    assert!(misuses.is_empty(), "generated code must be misuse-free");

    // 4. Execute the generated code on the simulated JCA provider.
    let mut interp = Interpreter::new(&generated.unit);
    let password: Vec<char> = "correct horse battery staple".chars().collect();
    let key = interp.call_static_style(
        "SecureByteArrayEncryptor",
        "getKey",
        vec![Value::chars(password)],
    )?;
    let secret = b"attack at dawn".to_vec();
    let ciphertext = interp.call_static_style(
        "SecureByteArrayEncryptor",
        "encrypt",
        vec![Value::bytes(secret.clone()), key.clone()],
    )?;
    let recovered =
        interp.call_static_style("SecureByteArrayEncryptor", "decrypt", vec![ciphertext, key])?;
    assert_eq!(recovered.as_bytes()?, secret);
    println!("== Executed: encrypt/decrypt round trip succeeded ==");
    Ok(())
}
