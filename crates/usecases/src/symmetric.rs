//! Use case 4, symmetric-key encryption (`uc04.java`).

mod tests {
    use crate::fixture::{generated, Run};
    use interp::{NativeState, Value};

    #[test]
    fn generated_code_selects_aes_128() {
        let src = generated(4).java_source;
        assert!(src.contains("KeyGenerator.getInstance(\"AES\")"), "{src}");
        assert!(src.contains(".init(128)"), "{src}");
        assert!(
            src.contains("Cipher.getInstance(\"AES/CBC/PKCS5Padding\")"),
            "{src}"
        );
    }

    #[test]
    fn symmetric_roundtrip_end_to_end() {
        let g = generated(4);
        let mut run = Run::new(&g);
        let key = run.call("generateKey", vec![]);
        let ct = run.call(
            "encrypt",
            vec![Value::bytes(b"payload".to_vec()), key.clone()],
        );
        let pt = run.call("decrypt", vec![ct, key]);
        assert_eq!(pt.as_bytes().unwrap(), b"payload");
    }

    #[test]
    fn distinct_keys_per_call() {
        let g = generated(4);
        let mut run = Run::new(&g);
        let mut encoded = || {
            let key = run.call("generateKey", vec![]);
            let object = key.as_object().unwrap();
            let state = &object.borrow().state;
            match state {
                NativeState::Key(k) => k.encoded(),
                _ => panic!("not a key"),
            }
        };
        assert_ne!(encoded(), encoded());
    }
}
