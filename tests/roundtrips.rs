//! End-to-end execution of every generated use case on the simulated JCA
//! provider — the paper validates generated code by running it; we do the
//! same through the interpreter.

use cognicryptgen::core::generate;
use cognicryptgen::interp::{Interpreter, Value};
use cognicryptgen::javamodel::ast::{ClassDecl, CompilationUnit, Expr, JavaType, MethodDecl, Stmt};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::usecases;

fn generated_unit(template: &cognicryptgen::core::Template) -> CompilationUnit {
    generate(
        template,
        &open(PackSource::Embedded).unwrap().rules,
        &jca_type_table(),
    )
    .expect("generation succeeds")
    .unit
}

fn key_pair_accessor(recv: Value, name: &str) -> Value {
    let m = MethodDecl::new("acc", JavaType::class("java.lang.Object"))
        .param(JavaType::class("java.security.KeyPair"), "kp")
        .statement(Stmt::Return(Some(Expr::call(
            Expr::var("kp"),
            name,
            vec![],
        ))));
    let unit = CompilationUnit::new("helper").class(ClassDecl::new("Acc").method(m));
    Interpreter::new(&unit)
        .call_static_style("Acc", "acc", vec![recv])
        .expect("accessor runs")
}

#[test]
fn pbe_string_roundtrip() {
    let unit = generated_unit(&usecases::use_case(2).unwrap().template);
    let mut i = Interpreter::new(&unit);
    let key = i
        .call_static_style(
            "SecureStringEncryptor",
            "getKey",
            vec![Value::chars("pw".chars().collect())],
        )
        .unwrap();
    let ct = i
        .call_static_style(
            "SecureStringEncryptor",
            "encrypt",
            vec![Value::Str("integration secret".into()), key.clone()],
        )
        .unwrap();
    let pt = i
        .call_static_style("SecureStringEncryptor", "decrypt", vec![ct, key])
        .unwrap();
    assert_eq!(pt.as_str().unwrap(), "integration secret");
}

#[test]
fn pbe_file_roundtrip_with_many_sizes() {
    let unit = generated_unit(&usecases::use_case(1).unwrap().template);
    let mut i = Interpreter::new(&unit);
    let key = i
        .call_static_style(
            "SecureFileEncryptor",
            "getKey",
            vec![Value::chars("pw".chars().collect())],
        )
        .unwrap();
    for size in [0usize, 1, 15, 16, 17, 255, 4096] {
        let contents: Vec<u8> = (0..size).map(|b| (b % 251) as u8).collect();
        i.put_file("in.bin", contents.clone());
        i.call_static_style(
            "SecureFileEncryptor",
            "encryptFile",
            vec![
                Value::Str("in.bin".into()),
                Value::Str("ct.bin".into()),
                key.clone(),
            ],
        )
        .unwrap();
        i.call_static_style(
            "SecureFileEncryptor",
            "decryptFile",
            vec![
                Value::Str("ct.bin".into()),
                Value::Str("out.bin".into()),
                key.clone(),
            ],
        )
        .unwrap();
        assert_eq!(i.file("out.bin").unwrap(), contents, "size {size}");
    }
}

#[test]
fn symmetric_roundtrip() {
    let unit = generated_unit(&usecases::use_case(4).unwrap().template);
    let mut i = Interpreter::new(&unit);
    let key = i
        .call_static_style("SecureSymmetricEncryptor", "generateKey", vec![])
        .unwrap();
    let ct = i
        .call_static_style(
            "SecureSymmetricEncryptor",
            "encrypt",
            vec![Value::bytes(b"symmetric".to_vec()), key.clone()],
        )
        .unwrap();
    let pt = i
        .call_static_style("SecureSymmetricEncryptor", "decrypt", vec![ct, key])
        .unwrap();
    assert_eq!(pt.as_bytes().unwrap(), b"symmetric");
}

#[test]
fn hybrid_string_full_protocol() {
    let unit = generated_unit(&usecases::use_case(6).unwrap().template);
    let mut i = Interpreter::new(&unit);
    let cls = "HybridStringEncryptor";
    let kp = i.call_static_style(cls, "generateKeyPair", vec![]).unwrap();
    let public = key_pair_accessor(kp.clone(), "getPublic");
    let private = key_pair_accessor(kp, "getPrivate");
    let session = i
        .call_static_style(cls, "generateSessionKey", vec![])
        .unwrap();
    let ct = i
        .call_static_style(
            cls,
            "encryptData",
            vec![Value::Str("hybrid message".into()), session.clone()],
        )
        .unwrap();
    let wrapped = i
        .call_static_style(cls, "wrapSessionKey", vec![session, public])
        .unwrap();
    let recovered = i
        .call_static_style(cls, "unwrapSessionKey", vec![wrapped, private])
        .unwrap();
    let pt = i
        .call_static_style(cls, "decryptData", vec![ct, recovered])
        .unwrap();
    assert_eq!(pt.as_str().unwrap(), "hybrid message");
}

#[test]
fn hybrid_file_full_protocol() {
    let unit = generated_unit(&usecases::use_case(5).unwrap().template);
    let mut i = Interpreter::new(&unit);
    let cls = "HybridFileEncryptor";
    i.put_file("report.txt", b"quarterly numbers".to_vec());
    let kp = i.call_static_style(cls, "generateKeyPair", vec![]).unwrap();
    let public = key_pair_accessor(kp.clone(), "getPublic");
    let private = key_pair_accessor(kp, "getPrivate");
    let session = i
        .call_static_style(cls, "generateSessionKey", vec![])
        .unwrap();
    i.call_static_style(
        cls,
        "encryptFile",
        vec![
            Value::Str("report.txt".into()),
            Value::Str("report.enc".into()),
            session.clone(),
        ],
    )
    .unwrap();
    let wrapped = i
        .call_static_style(cls, "wrapSessionKey", vec![session, public])
        .unwrap();
    let recovered = i
        .call_static_style(cls, "unwrapSessionKey", vec![wrapped, private])
        .unwrap();
    i.call_static_style(
        cls,
        "decryptFile",
        vec![
            Value::Str("report.enc".into()),
            Value::Str("report.out".into()),
            recovered,
        ],
    )
    .unwrap();
    assert_eq!(i.file("report.out").unwrap(), b"quarterly numbers");
}

#[test]
fn asymmetric_roundtrip() {
    let unit = generated_unit(&usecases::use_case(8).unwrap().template);
    let mut i = Interpreter::new(&unit);
    let cls = "SecureAsymmetricEncryptor";
    let kp = i.call_static_style(cls, "generateKeyPair", vec![]).unwrap();
    let public = key_pair_accessor(kp.clone(), "getPublic");
    let private = key_pair_accessor(kp, "getPrivate");
    let ct = i
        .call_static_style(cls, "encrypt", vec![Value::Str("to bob".into()), public])
        .unwrap();
    let pt = i
        .call_static_style(cls, "decrypt", vec![ct, private])
        .unwrap();
    assert_eq!(pt.as_str().unwrap(), "to bob");
}

#[test]
fn password_storage_accepts_and_rejects() {
    let unit = generated_unit(&usecases::use_case(9).unwrap().template);
    let mut i = Interpreter::new(&unit);
    let cls = "SecurePasswordStore";
    let salt = i.call_static_style(cls, "createSalt", vec![]).unwrap();
    let hash = i
        .call_static_style(
            cls,
            "hashPassword",
            vec![Value::chars("pass".chars().collect()), salt.clone()],
        )
        .unwrap();
    assert!(i
        .call_static_style(
            cls,
            "verifyPassword",
            vec![
                Value::chars("pass".chars().collect()),
                salt.clone(),
                hash.clone()
            ],
        )
        .unwrap()
        .as_bool()
        .unwrap());
    assert!(!i
        .call_static_style(
            cls,
            "verifyPassword",
            vec![Value::chars("wrong".chars().collect()), salt, hash],
        )
        .unwrap()
        .as_bool()
        .unwrap());
}

#[test]
fn signing_roundtrip_and_tamper_detection() {
    let unit = generated_unit(&usecases::use_case(10).unwrap().template);
    let mut i = Interpreter::new(&unit);
    let cls = "SecureSigner";
    let kp = i.call_static_style(cls, "generateKeyPair", vec![]).unwrap();
    let public = key_pair_accessor(kp.clone(), "getPublic");
    let private = key_pair_accessor(kp, "getPrivate");
    let sig = i
        .call_static_style(cls, "sign", vec![Value::Str("contract".into()), private])
        .unwrap();
    assert!(i
        .call_static_style(
            cls,
            "verify",
            vec![Value::Str("contract".into()), sig.clone(), public.clone()],
        )
        .unwrap()
        .as_bool()
        .unwrap());
    assert!(!i
        .call_static_style(
            cls,
            "verify",
            vec![Value::Str("contract v2".into()), sig, public],
        )
        .unwrap()
        .as_bool()
        .unwrap());
}

#[test]
fn hashing_is_deterministic_and_collision_sensitive() {
    let unit = generated_unit(&usecases::use_case(11).unwrap().template);
    let mut i = Interpreter::new(&unit);
    let h1 = i
        .call_static_style("SecureHasher", "hash", vec![Value::Str("x".into())])
        .unwrap();
    let h2 = i
        .call_static_style("SecureHasher", "hash", vec![Value::Str("x".into())])
        .unwrap();
    let h3 = i
        .call_static_style("SecureHasher", "hash", vec![Value::Str("y".into())])
        .unwrap();
    assert_eq!(h1.as_bytes().unwrap(), h2.as_bytes().unwrap());
    assert_ne!(h1.as_bytes().unwrap(), h3.as_bytes().unwrap());
    assert_eq!(h1.as_bytes().unwrap().len(), 32);
}
