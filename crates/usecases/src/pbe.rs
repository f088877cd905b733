//! Use cases 1–3, password-based encryption (`uc01.java`–`uc03.java`).

mod tests {
    use crate::fixture::{generated, Run};
    use interp::Value;

    fn password(p: &str) -> Value {
        Value::chars(p.chars().collect())
    }

    #[test]
    fn pbe_bytes_roundtrip_end_to_end() {
        let g = generated(3);
        let mut run = Run::new(&g);
        let key = run.call("getKey", vec![password("correct horse")]);
        let msg = b"the quick brown fox".to_vec();
        let ct = run.call("encrypt", vec![Value::bytes(msg.clone()), key.clone()]);
        assert_ne!(ct.as_bytes().unwrap(), msg);
        let pt = run.call("decrypt", vec![ct, key]);
        assert_eq!(pt.as_bytes().unwrap(), msg);
    }

    #[test]
    fn pbe_strings_roundtrip_end_to_end() {
        let g = generated(2);
        let mut run = Run::new(&g);
        let key = run.call("getKey", vec![password("hunter2")]);
        let ct = run.call(
            "encrypt",
            vec![Value::Str("attack at dawn".into()), key.clone()],
        );
        let pt = run.call("decrypt", vec![ct, key]);
        assert_eq!(pt.as_str().unwrap(), "attack at dawn");
    }

    #[test]
    fn pbe_files_roundtrip_end_to_end() {
        let g = generated(1);
        let mut run = Run::new(&g);
        run.interp.put_file("plain.txt", b"file contents".to_vec());
        let key = run.call("getKey", vec![password("pw")]);
        let path = |p: &str| Value::Str(p.into());
        run.call(
            "encryptFile",
            vec![path("plain.txt"), path("cipher.bin"), key.clone()],
        );
        assert_ne!(run.interp.file("cipher.bin").unwrap(), b"file contents");
        run.call(
            "decryptFile",
            vec![path("cipher.bin"), path("roundtrip.txt"), key],
        );
        assert_eq!(run.interp.file("roundtrip.txt").unwrap(), b"file contents");
    }

    #[test]
    fn wrong_password_fails_to_decrypt() {
        let g = generated(3);
        let mut run = Run::new(&g);
        let right = run.call("getKey", vec![password("right")]);
        let wrong = run.call("getKey", vec![password("wrong")]);
        let ct = run.call(
            "encrypt",
            vec![Value::bytes(b"sixteen byte msg".to_vec()), right],
        );
        // Wrong key: padding failure or garbled output.
        if let Ok(pt) = run.try_call("decrypt", vec![ct, wrong]) {
            assert_ne!(pt.as_bytes().unwrap(), b"sixteen byte msg")
        }
    }
}
