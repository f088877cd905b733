//! Use case 12, authenticated encryption with AES-GCM (`uc12.java`).

mod tests {
    use crate::fixture::{generated, Run};
    use interp::Value;

    #[test]
    fn generated_code_uses_gcm_with_full_tag() {
        let src = generated(12).java_source;
        assert!(
            src.contains("Cipher.getInstance(gcmTransformation)"),
            "{src}"
        );
        // GCMParameterSpec's tag length comes from the rule constraint.
        assert!(src.contains("new GCMParameterSpec(128, nonce)"), "{src}");
    }

    #[test]
    fn seal_open_roundtrip_and_tamper_detection() {
        let g = generated(12);
        let mut run = Run::new(&g);
        let key = run.call("generateKey", vec![]);
        let sealed = run.call(
            "seal",
            vec![Value::bytes(b"aead payload".to_vec()), key.clone()],
        );
        let opened = run.call("open", vec![sealed.clone(), key.clone()]);
        assert_eq!(opened.as_bytes().unwrap(), b"aead payload");
        // Flip a ciphertext byte: the GCM tag check must fail.
        let mut tampered = sealed.as_bytes().unwrap();
        *tampered.last_mut().unwrap() ^= 1;
        let err = run
            .try_call("open", vec![Value::bytes(tampered), key])
            .unwrap_err();
        assert!(err.message.contains("tag"), "{err}");
    }
}
