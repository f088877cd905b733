//! Use case 10, digital signing of strings (`uc10.java`).

mod tests {
    use crate::fixture::{generated, key_pair_part, Run};
    use interp::Value;

    #[test]
    fn bindings_select_sign_vs_verify_paths() {
        let src = generated(10).java_source;
        assert!(src.contains(".initSign(privateKey)"), "{src}");
        assert!(src.contains(".sign()"), "{src}");
        assert!(src.contains(".initVerify(publicKey)"), "{src}");
        assert!(src.contains(".verify(signature)"), "{src}");
        assert!(
            src.contains("Signature.getInstance(\"SHA256withRSA\")"),
            "{src}"
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let g = generated(10);
        let mut run = Run::new(&g);
        let kp = run.call("generateKeyPair", vec![]);
        let priv_key = key_pair_part(kp.clone(), "getPrivate");
        let pub_key = key_pair_part(kp, "getPublic");
        let msg = |m: &str| Value::Str(m.into());
        let sig = run.call("sign", vec![msg("signed message"), priv_key]);
        let ok = run.call(
            "verify",
            vec![msg("signed message"), sig.clone(), pub_key.clone()],
        );
        assert!(ok.as_bool().unwrap());
        let tampered = run.call("verify", vec![msg("tampered message"), sig, pub_key]);
        assert!(!tampered.as_bool().unwrap());
    }
}
