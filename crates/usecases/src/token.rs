//! Use cases 22–26, the token family (`uc22.java`–`uc26.java`).

mod tests {
    use crate::fixture::{generated, Run};
    use interp::Value;

    fn bytes(b: &[u8]) -> Value {
        Value::bytes(b.to_vec())
    }

    #[test]
    fn hmac_token_mints_and_verifies() {
        let g = generated(22);
        assert!(
            g.java_source.contains("Arrays.equals(tag, freshTag)"),
            "{}",
            g.java_source
        );
        let mut run = Run::new(&g);
        let key = run.call("generateKey", vec![]);
        let tag = run.call("mint", vec![bytes(b"grant:read"), key.clone()]);
        let ok = run.call(
            "verify",
            vec![bytes(b"grant:read"), tag.clone(), key.clone()],
        );
        assert!(ok.as_bool().unwrap());
        let forged = run.call("verify", vec![bytes(b"grant:write"), tag, key]);
        assert!(!forged.as_bool().unwrap());
    }

    #[test]
    fn hkdf_expansion_links_key_generation_into_the_kdf() {
        let g = generated(23);
        assert!(g.java_source.contains(".getEncoded()"), "{}", g.java_source);
        let mut run = Run::new(&g);
        let salt = run.call("generateSalt", vec![]);
        let s1 = run.call("expandKey", vec![salt.clone(), bytes(b"ctx-a")]);
        // KDF's first-choice output length.
        assert_eq!(s1.as_bytes().unwrap().len(), 32);
        // A fresh master key is generated per call: outputs differ.
        let s2 = run.call("expandKey", vec![salt, bytes(b"ctx-a")]);
        assert_ne!(s1.as_bytes().unwrap(), s2.as_bytes().unwrap());
    }

    #[test]
    fn derived_mac_tokens_are_deterministic_in_ikm_and_salt() {
        let g = generated(24);
        let mut run = Run::new(&g);
        let ikm = bytes(b"master secret");
        let salt = run.call("generateSalt", vec![]);
        let k1 = run.call("deriveMacKey", vec![ikm.clone(), salt.clone()]);
        let k2 = run.call("deriveMacKey", vec![ikm, salt]);
        let tag = run.call("mint", vec![bytes(b"claim"), k1]);
        let ok = run.call("verify", vec![bytes(b"claim"), tag, k2]);
        assert!(ok.as_bool().unwrap());
    }

    #[test]
    fn password_mac_tokens_roundtrip_through_getkey() {
        let g = generated(25);
        let mut run = Run::new(&g);
        let key = run.call("getKey", vec![Value::chars("hunter2".chars().collect())]);
        let claim = |c: &str| Value::Str(c.into());
        let tag = run.call("mint", vec![claim("session:42"), key.clone()]);
        let ok = run.call(
            "verify",
            vec![claim("session:42"), tag.clone(), key.clone()],
        );
        assert!(ok.as_bool().unwrap());
        let forged = run.call("verify", vec![claim("session:43"), tag, key]);
        assert!(!forged.as_bool().unwrap());
    }

    #[test]
    fn exported_keys_rebuild_and_decrypt() {
        let g = generated(26);
        assert!(g.java_source.contains(".getEncoded()"), "{}", g.java_source);
        let mut run = Run::new(&g);
        let material = run.call("exportFreshKey", vec![]);
        // The provider's AES keys are 128-bit.
        assert_eq!(material.as_bytes().unwrap().len(), 16);
        let key = run.call("importKey", vec![material]);
        let ct = run.call("encrypt", vec![bytes(b"transported"), key.clone()]);
        let pt = run.call("decrypt", vec![ct, key]);
        assert_eq!(pt.as_bytes().unwrap(), b"transported");
    }
}
