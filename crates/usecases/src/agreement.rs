//! Use cases 17–21, the key-agreement family (`uc17.java`–`uc21.java`).

mod tests {
    use crate::fixture::{generated, key_pair_part, Run};
    use interp::Value;

    /// Two key pairs, split: (aPriv, aPub, bPriv, bPub).
    fn two_parties(run: &mut Run<'_>) -> (Value, Value, Value, Value) {
        let a = run.call("generateKeyPair", vec![]);
        let b = run.call("generateKeyPair", vec![]);
        (
            key_pair_part(a.clone(), "getPrivate"),
            key_pair_part(a, "getPublic"),
            key_pair_part(b.clone(), "getPrivate"),
            key_pair_part(b, "getPublic"),
        )
    }

    /// Checks that case `id` contains every one of `needles`, then has
    /// both parties derive its secret; returns the secret.
    fn agree(id: u8, needles: &[&str]) -> Vec<u8> {
        let g = generated(id);
        for needle in needles {
            assert!(g.java_source.contains(needle), "{}", g.java_source);
        }
        let mut run = Run::new(&g);
        let (a_priv, a_pub, b_priv, b_pub) = two_parties(&mut run);
        let s1 = run.call("deriveSecret", vec![a_priv, b_pub]);
        let s2 = run.call("deriveSecret", vec![b_priv, a_pub]);
        assert_eq!(s1.as_bytes().unwrap(), s2.as_bytes().unwrap());
        s1.as_bytes().unwrap()
    }

    #[test]
    fn dh_agreement_pins_the_algorithm_and_both_sides_agree() {
        agree(
            17,
            &[
                "KeyPairGenerator.getInstance(kpAlg)",
                "KeyAgreement.getInstance(\"DH\")",
            ],
        );
    }

    #[test]
    fn ecdh_agreement_agrees_across_parties() {
        assert!(!agree(18, &["KeyAgreement.getInstance(kaAlg)"]).is_empty());
    }

    /// Both parties derive a session key of case `id`; one seals, the
    /// other opens with its own key.
    fn session_roundtrip(id: u8, needles: &[&str]) {
        let g = generated(id);
        for needle in needles {
            assert!(g.java_source.contains(needle), "{}", g.java_source);
        }
        let mut run = Run::new(&g);
        let (a_priv, a_pub, b_priv, b_pub) = two_parties(&mut run);
        let salt = run.call("generateSalt", vec![]);
        let k1 = run.call("deriveSessionKey", vec![a_priv, b_pub, salt.clone()]);
        let k2 = run.call("deriveSessionKey", vec![b_priv, a_pub, salt]);
        let sealed = run.call("seal", vec![Value::bytes(b"session msg".to_vec()), k1]);
        let opened = run.call("open", vec![sealed, k2]);
        assert_eq!(opened.as_bytes().unwrap(), b"session msg");
    }

    #[test]
    fn dh_session_derives_an_aes_key_and_roundtrips() {
        // AES-128 needs exactly the pinned 16-byte HKDF output.
        session_roundtrip(19, &["deriveData(", "outLen"]);
    }

    #[test]
    fn ecdh_session_derives_a_chacha_key_and_roundtrips() {
        session_roundtrip(20, &["new SecretKeySpec(okm, keyAlg)"]);
    }

    #[test]
    fn agreed_mac_produces_matching_tags_on_both_sides() {
        let g = generated(21);
        assert!(
            g.java_source.contains("Mac.getInstance(\"HmacSHA256\")"),
            "{}",
            g.java_source
        );
        let mut run = Run::new(&g);
        let (a_priv, a_pub, b_priv, b_pub) = two_parties(&mut run);
        let salt = run.call("generateSalt", vec![]);
        let k1 = run.call("deriveMacKey", vec![a_priv, b_pub, salt.clone()]);
        let k2 = run.call("deriveMacKey", vec![b_priv, a_pub, salt]);
        let mut tag = |msg: &[u8], key: &Value| {
            run.call(
                "authenticate",
                vec![Value::bytes(msg.to_vec()), key.clone()],
            )
            .as_bytes()
            .unwrap()
        };
        let t1 = tag(b"channel msg", &k1);
        assert_eq!(t1, tag(b"channel msg", &k2));
        // A different message must change the tag.
        assert_ne!(t1, tag(b"other msg", &k1));
    }
}
