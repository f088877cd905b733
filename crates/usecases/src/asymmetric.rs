//! Use case 8, asymmetric string encryption (`uc08.java`).

mod tests {
    use crate::fixture::{generated, key_pair_part, Run};
    use interp::Value;

    #[test]
    fn generator_picks_rsa_and_two_arg_init() {
        let src = generated(8).java_source;
        assert!(
            src.contains("Cipher.getInstance(\"RSA/ECB/PKCS1Padding\")"),
            "{src}"
        );
        // No IV spec rule considered, so the 2-argument init is chosen.
        assert!(src.contains(".init(1, publicKey)"), "{src}");
        assert!(src.contains(".init(mode, privateKey)"), "{src}");
        assert!(!src.contains("IvParameterSpec"), "{src}");
    }

    #[test]
    fn asymmetric_roundtrip_end_to_end() {
        let g = generated(8);
        let mut run = Run::new(&g);
        let kp = run.call("generateKeyPair", vec![]);
        let pub_key = key_pair_part(kp.clone(), "getPublic");
        let priv_key = key_pair_part(kp, "getPrivate");
        let ct = run.call("encrypt", vec![Value::Str("rsa secret".into()), pub_key]);
        assert_ne!(ct.as_bytes().unwrap(), b"rsa secret");
        let pt = run.call("decrypt", vec![ct, priv_key]);
        assert_eq!(pt.as_str().unwrap(), "rsa secret");
    }
}
