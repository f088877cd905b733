//! Use cases 5–7, hybrid encryption (`uc05.java`–`uc07.java`).

mod tests {
    use crate::fixture::{generated, key_pair_part, Run};
    use interp::Value;

    #[test]
    fn instanceof_steers_transformations() {
        let src = generated(7).java_source;
        // Data cipher: symmetric; key-wrapping cipher: asymmetric.
        assert!(
            src.contains("Cipher.getInstance(\"AES/CBC/PKCS5Padding\")"),
            "{src}"
        );
        assert!(
            src.contains("Cipher.getInstance(\"RSA/ECB/PKCS1Padding\")"),
            "{src}"
        );
        assert!(src.contains(".wrap(sessionKey)"), "{src}");
        assert!(src.contains(".unwrap(wrapped, \"AES\", 3)"), "{src}");
    }

    #[test]
    fn hybrid_full_protocol_roundtrip() {
        let g = generated(7);
        let mut run = Run::new(&g);
        let key_pair = run.call("generateKeyPair", vec![]);
        let pub_key = key_pair_part(key_pair.clone(), "getPublic");
        let priv_key = key_pair_part(key_pair, "getPrivate");
        let session = run.call("generateSessionKey", vec![]);
        let ct = run.call(
            "encryptData",
            vec![Value::bytes(b"hybrid payload".to_vec()), session.clone()],
        );
        let wrapped = run.call("wrapSessionKey", vec![session, pub_key]);
        let recovered = run.call("unwrapSessionKey", vec![wrapped, priv_key]);
        let pt = run.call("decryptData", vec![ct, recovered]);
        assert_eq!(pt.as_bytes().unwrap(), b"hybrid payload");
    }
}
