//! Property-based tests across the workspace: core invariants of the
//! state machines, the crypto substrate, and the generator pipeline.
//! Runs on the in-repo `devharness` property harness (hermetic, no
//! registry access).

use devharness::prop::{check, gens, Config, Gen};

use cognicryptgen::core::template::{parse_template, split_header};
use cognicryptgen::crysl::parse_rule;
use cognicryptgen::interp::base64;
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::jcasim::aes::Aes128;
use cognicryptgen::jcasim::modes;
use cognicryptgen::jcasim::pbkdf2::pbkdf2_hmac_sha256;
use cognicryptgen::jcasim::rng::SecureRandom;
use cognicryptgen::jcasim::rsa;
use cognicryptgen::jcasim::sha256;
use cognicryptgen::statemachine::paths::{enumerate, PathLimit};
use cognicryptgen::statemachine::{Dfa, Nfa};
use cognicryptgen::usecases;

fn cfg() -> Config {
    Config::default()
}

#[test]
fn sha256_incremental_matches_oneshot() {
    let g = gens::tuple2(gens::bytes(0, 2048), gens::usize_range(0, 2048));
    check(
        "sha256_incremental_matches_oneshot",
        &cfg(),
        &g,
        |(data, split)| {
            let split = (*split).min(data.len());
            let mut h = sha256::Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), sha256::digest(data));
        },
    );
}

#[test]
fn cbc_roundtrip() {
    let g = gens::tuple3(
        gens::byte_array::<16>(),
        gens::byte_array::<16>(),
        gens::bytes(0, 512),
    );
    check("cbc_roundtrip", &cfg(), &g, |(key, iv, pt)| {
        let aes = Aes128::new(key);
        let ct = modes::cbc_encrypt(&aes, iv, pt).unwrap();
        assert_eq!(modes::cbc_decrypt(&aes, iv, &ct).unwrap(), pt.clone());
    });
}

#[test]
fn gcm_roundtrip_and_tamper_detection() {
    let g = gens::tuple4(
        gens::byte_array::<16>(),
        gens::byte_array::<12>(),
        gens::bytes(0, 256),
        gens::usize_range(0, 256),
    );
    check(
        "gcm_roundtrip_and_tamper_detection",
        &cfg(),
        &g,
        |(key, nonce, pt, flip)| {
            let aes = Aes128::new(key);
            let ct = modes::gcm_encrypt(&aes, nonce, &[], pt).unwrap();
            assert_eq!(
                modes::gcm_decrypt(&aes, nonce, &[], &ct).unwrap(),
                pt.clone()
            );
            let mut tampered = ct.clone();
            let idx = flip % tampered.len();
            tampered[idx] ^= 1;
            assert!(modes::gcm_decrypt(&aes, nonce, &[], &tampered).is_err());
        },
    );
}

#[test]
fn pkcs7_roundtrip() {
    let g = gens::bytes(0, 200);
    check("pkcs7_roundtrip", &cfg(), &g, |pt| {
        let padded = modes::pkcs7_pad(pt, 16);
        assert_eq!(padded.len() % 16, 0);
        assert_eq!(modes::pkcs7_unpad(&padded, 16).unwrap(), pt.clone());
    });
}

#[test]
fn base64_roundtrip() {
    let g = gens::bytes(0, 300);
    check("base64_roundtrip", &cfg(), &g, |data| {
        assert_eq!(base64::decode(&base64::encode(data)).unwrap(), data.clone());
    });
}

#[test]
fn pbkdf2_length_and_salt_sensitivity() {
    let g = gens::tuple3(
        gens::bytes(1, 32),
        gens::bytes(1, 32),
        gens::usize_range(1, 64),
    );
    check(
        "pbkdf2_length_and_salt_sensitivity",
        &cfg(),
        &g,
        |(pwd, salt, len)| {
            let dk = pbkdf2_hmac_sha256(pwd, salt, 2, *len);
            assert_eq!(dk.len(), *len);
            let mut salt2 = salt.clone();
            salt2[0] ^= 0xff;
            assert_ne!(dk, pbkdf2_hmac_sha256(pwd, &salt2, 2, *len));
        },
    );
}

#[test]
fn rsa_roundtrip() {
    let g = gens::tuple2(gens::u64_any(), gens::bytes(0, 64));
    check("rsa_roundtrip", &cfg(), &g, |(seed, data)| {
        let kp = rsa::generate_key_pair(&mut SecureRandom::from_seed(*seed), 40).unwrap();
        let ct = rsa::encrypt(&kp.public, data);
        assert_eq!(rsa::decrypt(&kp.private, &ct).unwrap(), data.clone());
    });
}

#[test]
fn rsa_sign_verify() {
    let g = gens::tuple2(gens::u64_any(), gens::bytes(0, 64));
    check("rsa_sign_verify", &cfg(), &g, |(seed, data)| {
        let kp = rsa::generate_key_pair(&mut SecureRandom::from_seed(*seed), 40).unwrap();
        let sig = rsa::sign(&kp.private, data);
        assert!(rsa::verify(&kp.public, data, &sig));
        let mut other = data.clone();
        other.push(1);
        assert!(!rsa::verify(&kp.public, &other, &sig));
    });
}

/// Generator: random ORDER expressions over a fixed event alphabet,
/// rendered as rule source text. Depth-bounded recursion mirrors the
/// original `prop_recursive(3, ..)` strategy.
fn order_expr(depth: u32) -> Gen<String> {
    let leaf = gens::one_of(vec![
        "a".to_owned(),
        "b".to_owned(),
        "c".to_owned(),
        "d".to_owned(),
    ]);
    if depth == 0 {
        return leaf;
    }
    let inner = order_expr(depth - 1);
    let seq = gens::tuple2(inner.clone(), inner.clone()).map(|(x, y)| format!("({x}, {y})"));
    let alt = gens::tuple2(inner.clone(), inner.clone()).map(|(x, y)| format!("({x} | {y})"));
    let opt = inner.clone().map(|x| format!("({x})?"));
    let star = inner.clone().map(|x| format!("({x})*"));
    let plus = inner.map(|x| format!("({x})+"));
    gens::pick(vec![leaf, seq, alt, opt, star, plus])
}

fn word_gen(max_len: usize) -> Gen<Vec<usize>> {
    gens::vec(gens::usize_range(0, 4), 0, max_len)
}

/// Soundness of path enumeration: every path the generator would use
/// is accepted by the rule's own automaton.
#[test]
fn enumerated_paths_are_accepted_by_the_dfa() {
    check(
        "enumerated_paths_are_accepted_by_the_dfa",
        &Config::with_cases(64),
        &order_expr(3),
        |order| {
            let src = format!("SPEC X\nEVENTS a: fa(); b: fb(); c: fc(); d: fd();\nORDER {order}");
            let rule = parse_rule(&src).unwrap();
            let dfa = Dfa::from_nfa(&Nfa::from_rule(&rule).unwrap());
            if let Ok(paths) = enumerate(&rule, PathLimit(512)) {
                assert!(!paths.is_empty());
                for p in paths {
                    let word: Vec<&str> = p.iter().map(String::as_str).collect();
                    assert!(
                        dfa.accepts(word.iter().copied()),
                        "rejected {p:?} for {order}"
                    );
                }
            }
        },
    );
}

/// Minimization preserves the language on sampled words.
#[test]
fn minimized_dfa_is_equivalent() {
    let g = gens::tuple2(order_expr(3), word_gen(10));
    check(
        "minimized_dfa_is_equivalent",
        &Config::with_cases(64),
        &g,
        |(order, word)| {
            let src = format!("SPEC X\nEVENTS a: fa(); b: fb(); c: fc(); d: fd();\nORDER {order}");
            let rule = parse_rule(&src).unwrap();
            let dfa = Dfa::from_nfa(&Nfa::from_rule(&rule).unwrap());
            let min = dfa.minimize();
            assert!(min.state_count() <= dfa.state_count());
            let labels = ["a", "b", "c", "d"];
            let w: Vec<&str> = word.iter().map(|&i| labels[i]).collect();
            assert_eq!(
                dfa.accepts(w.iter().copied()),
                min.accepts(w.iter().copied())
            );
        },
    );
}

/// The DFA and a direct NFA simulation agree on membership.
#[test]
fn dfa_agrees_with_nfa_simulation() {
    let g = gens::tuple2(order_expr(3), word_gen(8));
    check(
        "dfa_agrees_with_nfa_simulation",
        &Config::with_cases(64),
        &g,
        |(order, word)| {
            let src = format!("SPEC X\nEVENTS a: fa(); b: fb(); c: fc(); d: fd();\nORDER {order}");
            let rule = parse_rule(&src).unwrap();
            let nfa = Nfa::from_rule(&rule).unwrap();
            let dfa = Dfa::from_nfa(&nfa);
            let labels = ["a", "b", "c", "d"];
            let w: Vec<&str> = word.iter().map(|&i| labels[i]).collect();
            // NFA simulation.
            let mut states = nfa.epsilon_closure(&std::collections::BTreeSet::from([nfa.start()]));
            let mut alive = true;
            for l in &w {
                states = nfa.epsilon_closure(&nfa.move_on(&states, l));
                if states.is_empty() {
                    alive = false;
                    break;
                }
            }
            let nfa_accepts = alive && states.contains(&nfa.accept());
            assert_eq!(dfa.accepts(w.iter().copied()), nfa_accepts);
        },
    );
}

/// Every prefix of every template file lowers to `Ok` or a typed
/// `Err`: cut template text never panics the header split, the Java
/// parser or the lowering.
#[test]
fn every_template_prefix_lowers_or_errs() {
    let files = usecases::catalogue();
    let table = jca_type_table();
    let g = gens::tuple2(
        gens::usize_range(0, files.len()),
        gens::usize_range(0, 4096),
    );
    check(
        "every_template_prefix_lowers_or_errs",
        &Config::with_cases(512),
        &g,
        |&(i, cut)| {
            let text = files[i].text;
            let prefix = &text[..cut % (text.len() + 1)];
            let lowered = split_header(prefix).and_then(|(_, java)| parse_template(java, &table));
            // Only a prefix holding the class's closing brace can lower.
            assert_eq!(
                lowered.is_ok(),
                prefix.trim_end() == text.trim_end(),
                "{prefix}"
            );
        },
    );
}
