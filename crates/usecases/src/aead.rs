//! Use cases 13–16, the AEAD family (`uc13.java`–`uc16.java`).

mod tests {
    use crate::fixture::{chain_rules, generated, template, Run};
    use interp::Value;

    /// Generates case `id`, checks that its source contains every one of
    /// `needles`, and seals then opens a payload with a fresh key.
    fn roundtrip(id: u8, needles: &[&str]) {
        let g = generated(id);
        for needle in needles {
            assert!(g.java_source.contains(needle), "{}", g.java_source);
        }
        let mut run = Run::new(&g);
        let key = run.call("generateKey", vec![]);
        let payload = b"aead family payload".to_vec();
        let sealed = run.call("seal", vec![Value::bytes(payload.clone()), key.clone()]);
        let opened = run.call("open", vec![sealed, key]);
        assert_eq!(opened.as_bytes().unwrap(), payload);
    }

    #[test]
    fn gcm_siv_pins_the_transformation_and_roundtrips() {
        roundtrip(
            13,
            &[
                "\"AES/GCM-SIV/NoPadding\"",
                "new GCMParameterSpec(128, nonce)",
            ],
        );
    }

    #[test]
    fn gcm_siv_detects_tampering() {
        let g = generated(13);
        let mut run = Run::new(&g);
        let key = run.call("generateKey", vec![]);
        let sealed = run.call("seal", vec![Value::bytes(b"pt".to_vec()), key.clone()]);
        let mut tampered = sealed.as_bytes().unwrap();
        *tampered.last_mut().unwrap() ^= 1;
        let err = run
            .try_call("open", vec![Value::bytes(tampered), key])
            .unwrap_err();
        assert!(err.message.contains("tag"), "{err}");
    }

    #[test]
    fn chacha_poly_generates_a_chacha_key_and_roundtrips() {
        roundtrip(
            14,
            &[
                "KeyGenerator.getInstance(chachaAlg)",
                "\"ChaCha20-Poly1305\"",
            ],
        );
    }

    #[test]
    fn chacha_poly_strings_share_chains_with_byte_arrays() {
        assert_eq!(chain_rules(template(14)), chain_rules(template(15)));
        assert_ne!(template(14), template(15));
        let g = generated(15);
        let mut run = Run::new(&g);
        let key = run.call("generateKey", vec![]);
        let sealed = run.call(
            "sealText",
            vec![Value::Str("string payload".to_owned()), key.clone()],
        );
        let opened = run.call("openText", vec![sealed, key]);
        assert_eq!(opened.as_str().unwrap(), "string payload");
    }

    #[test]
    fn ctr_streams_roundtrip() {
        roundtrip(16, &["\"AES/CTR/NoPadding\""]);
    }
}
