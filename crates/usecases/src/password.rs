//! Use case 9, secure user-password storage (`uc09.java`).

mod tests {
    use crate::fixture::{generated, Run};
    use interp::Value;

    fn password(p: &str) -> Value {
        Value::chars(p.chars().collect())
    }

    #[test]
    fn generated_code_uses_pbkdf2_and_clears_password() {
        let src = generated(9).java_source;
        assert!(
            src.contains("SecretKeyFactory.getInstance(\"PBKDF2WithHmacSHA256\")"),
            "{src}"
        );
        assert!(src.contains(".clearPassword();"), "{src}");
        assert!(
            src.contains("new PBEKeySpec(pwd, salt, 10000, 128)"),
            "{src}"
        );
    }

    #[test]
    fn store_and_verify_roundtrip() {
        let g = generated(9);
        let mut run = Run::new(&g);
        let salt = run.call("createSalt", vec![]);
        let hash = run.call("hashPassword", vec![password("s3cret!"), salt.clone()]);
        assert_eq!(hash.as_bytes().unwrap().len(), 16); // 128-bit hash
        let ok = run.call(
            "verifyPassword",
            vec![password("s3cret!"), salt.clone(), hash.clone()],
        );
        assert!(ok.as_bool().unwrap());
        let bad = run.call("verifyPassword", vec![password("wrong"), salt, hash]);
        assert!(!bad.as_bool().unwrap());
    }

    #[test]
    fn different_salts_give_different_hashes() {
        let g = generated(9);
        let mut run = Run::new(&g);
        let s1 = run.call("createSalt", vec![]);
        let s2 = run.call("createSalt", vec![]);
        assert_ne!(s1.as_bytes().unwrap(), s2.as_bytes().unwrap());
        let h1 = run.call("hashPassword", vec![password("same"), s1]);
        let h2 = run.call("hashPassword", vec![password("same"), s2]);
        assert_ne!(h1.as_bytes().unwrap(), h2.as_bytes().unwrap());
    }
}
