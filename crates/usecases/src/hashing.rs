//! Use case 11, hashing of strings (`uc11.java`).

mod tests {
    use crate::fixture::{generated, Run};
    use interp::Value;

    #[test]
    fn generated_code_uses_sha256() {
        let src = generated(11).java_source;
        assert!(
            src.contains("MessageDigest.getInstance(\"SHA-256\")"),
            "{src}"
        );
    }

    #[test]
    fn hash_matches_reference_sha256() {
        let g = generated(11);
        let out = Run::new(&g).call("hash", vec![Value::Str("abc".into())]);
        // NIST vector for SHA-256("abc").
        let expected: Vec<u8> = vec![
            0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01, 0xcf, 0xea, 0x41, 0x41, 0x40, 0xde, 0x5d, 0xae,
            0x22, 0x23, 0xb0, 0x03, 0x61, 0xa3, 0x96, 0x17, 0x7a, 0x9c, 0xb4, 0x10, 0xff, 0x61,
            0xf2, 0x00, 0x15, 0xad,
        ];
        assert_eq!(out.as_bytes().unwrap(), expected);
    }
}
