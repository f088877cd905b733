//! Hybrid encryption scenario (paper Table 1, #5–7).
//!
//! Generates the hybrid byte-array encryptor, then plays both sides of a
//! message exchange: the recipient publishes an RSA key pair; the sender
//! generates a fresh AES session key, encrypts the payload symmetrically
//! and wraps the session key under the recipient's public key; the
//! recipient unwraps and decrypts. The `instanceof` constraints of the
//! Cipher rule (paper §4) make the generator pick AES/CBC for the data
//! cipher and RSA for the key-wrapping cipher automatically.
//!
//! Run with: `cargo run --example hybrid_encryption`

use cognicryptgen::core::generate;
use cognicryptgen::interp::{Interpreter, Value};
use cognicryptgen::javamodel::ast::{ClassDecl, CompilationUnit, Expr, JavaType, MethodDecl, Stmt};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::usecases;

fn key_accessor(recv: Value, name: &str) -> Value {
    let m = MethodDecl::new("acc", JavaType::class("java.lang.Object"))
        .param(JavaType::class("java.security.KeyPair"), "kp")
        .statement(Stmt::Return(Some(Expr::call(
            Expr::var("kp"),
            name,
            vec![],
        ))));
    let unit = CompilationUnit::new("helper").class(ClassDecl::new("Acc").method(m));
    let mut helper = Interpreter::new(&unit);
    helper
        .call_static_style("Acc", "acc", vec![recv])
        .expect("accessor runs")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generated = generate(
        &usecases::use_case(7).unwrap().template,
        &open(PackSource::Embedded)?.rules,
        &jca_type_table(),
    )?;
    println!(
        "Generated {} lines of Java.\n",
        generated.java_source.lines().count()
    );

    let cls = "HybridByteArrayEncryptor";
    let mut interp = Interpreter::new(&generated.unit);

    // Recipient side: publish a key pair.
    let key_pair = interp.call_static_style(cls, "generateKeyPair", vec![])?;
    let public_key = key_accessor(key_pair.clone(), "getPublic");
    let private_key = key_accessor(key_pair, "getPrivate");
    println!("[recipient] key pair generated");

    // Sender side: fresh session key, encrypt, wrap.
    let session_key = interp.call_static_style(cls, "generateSessionKey", vec![])?;
    let payload = b"meet me at the usual place, 6pm".to_vec();
    let ciphertext = interp.call_static_style(
        cls,
        "encryptData",
        vec![Value::bytes(payload.clone()), session_key.clone()],
    )?;
    let wrapped_key =
        interp.call_static_style(cls, "wrapSessionKey", vec![session_key, public_key])?;
    println!(
        "[sender] payload encrypted ({} bytes), session key wrapped ({} bytes)",
        ciphertext.as_bytes()?.len(),
        wrapped_key.as_bytes()?.len()
    );

    // Recipient side: unwrap, decrypt.
    let recovered_key =
        interp.call_static_style(cls, "unwrapSessionKey", vec![wrapped_key, private_key])?;
    let decrypted =
        interp.call_static_style(cls, "decryptData", vec![ciphertext, recovered_key])?;
    assert_eq!(decrypted.as_bytes()?, payload);
    println!("[recipient] payload recovered: round trip succeeded");
    Ok(())
}
