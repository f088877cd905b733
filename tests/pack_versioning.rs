//! Pack-versioning suite: the same use-case template generated under
//! two versions of the `jca` catalog pack must follow each version's
//! CONSTRAINTS (divergent key-size constants), unknown versions must
//! fail with a typed CrySL pack error, and version-pinned `.crpack`
//! artefacts must coexist on disk and swap cleanly through one daemon
//! hot-reload cycle — and through a storm of concurrent ones. Every
//! catalog pack boots by one policy, from source and as a `.crpack`.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use cognicryptgen::core::GenEngine;
use cognicryptgen::crysl::CryslError;
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{self, PackError, PackSource, PACK_CATALOG};
use cognicryptgen::sast::{analyze_unit, AnalyzerOptions};
use cognicryptgen::serve::{http, Request, ServeConfig, Server, ServerState};
use cognicryptgen::usecases::all_use_cases;
use cognicryptgen::{Error, ServedPack};
use devharness::json::Json;

fn catalog(name: &str, version: u32) -> PackSource {
    PackSource::Catalog {
        name: name.to_owned(),
        version: Some(version),
    }
}

fn engine_for(source: PackSource) -> GenEngine {
    GenEngine::builder()
        .rules(rules::open(source).expect("catalog pack opens").rules)
        .type_table(jca_type_table())
        .build()
        .expect("engine builds")
}

/// A scratch directory unique to this test invocation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cognicrypt-packver-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn same_selector_diverges_in_key_size_across_rule_versions() {
    // Use case 8 (asymmetric string encryption) leaves the key size to
    // the rules: v1's minimum is 1024, v2 raised it to 2048.
    let uc = all_use_cases().into_iter().find(|u| u.id == 8).unwrap();
    let v1 = engine_for(catalog("jca", 1))
        .generate(&uc.template)
        .expect("generates under jca@v1");
    let v2 = engine_for(catalog("jca", 2))
        .generate(&uc.template)
        .expect("generates under jca@v2");
    assert!(
        v1.java_source.contains("keyPairGenerator.initialize(1024)"),
        "{}",
        v1.java_source
    );
    assert!(
        v2.java_source.contains("keyPairGenerator.initialize(2048)"),
        "{}",
        v2.java_source
    );
    // Each output is clean under the rules that produced it: the
    // divergence is constraint-following, not a misuse.
    let table = jca_type_table();
    for (source, generated) in [(catalog("jca", 1), &v1), (catalog("jca", 2), &v2)] {
        let rules = rules::open(source).unwrap().rules;
        let misuses = analyze_unit(&generated.unit, &rules, &table, AnalyzerOptions::default());
        assert!(misuses.is_empty(), "{misuses:?}");
    }
}

#[test]
fn unknown_pack_version_is_a_typed_crysl_error() {
    let err = rules::open(catalog("jca", 9)).unwrap_err();
    assert!(
        matches!(err, PackError::Crysl(CryslError::Pack { .. })),
        "{err:?}"
    );
    let message = err.to_string();
    assert!(message.contains("jca@v9"), "{message}");
    // The error names what this build actually ships.
    assert!(message.contains("jca@v2"), "{message}");
    assert!(message.contains("aead@v1"), "{message}");
}

#[test]
fn version_pinned_crpacks_coexist_through_one_daemon_reload_cycle() {
    let dir = scratch("reload");
    // Both version-pinned artefacts exist side by side; the daemon's
    // `--rules` path swaps between them via a symlink-free copy.
    let v1_bytes = rules::open(catalog("jca", 1)).unwrap().to_bytes().unwrap();
    let v2_bytes = rules::open(catalog("jca", 2)).unwrap().to_bytes().unwrap();
    fs::write(dir.join("jca_v1.crpack"), &v1_bytes).unwrap();
    fs::write(dir.join("jca_v2.crpack"), &v2_bytes).unwrap();
    let live = dir.join("live.crpack");
    fs::write(&live, &v1_bytes).unwrap();

    let config = ServeConfig {
        rules_path: Some(live.clone()),
        ..ServeConfig::http("127.0.0.1:0")
    };
    let handle = Server::start(&config).expect("daemon boots on jca@v1");
    let addr = handle.http_addr().expect("http bound").to_string();

    let (code, body) = http::request(&addr, "GET", "/generate/8", "").unwrap();
    assert_eq!(code, 200);
    assert!(body.contains("keyPairGenerator.initialize(1024)"), "{body}");

    // Swap the live pack to the pinned v2 artefact and hot-reload.
    fs::write(&live, &v2_bytes).unwrap();
    let (code, reload) = http::request(&addr, "POST", "/reload", "").unwrap();
    assert_eq!(code, 200, "{reload}");

    let (code, body) = http::request(&addr, "GET", "/generate/8", "").unwrap();
    assert_eq!(code, 200);
    assert!(body.contains("keyPairGenerator.initialize(2048)"), "{body}");

    // The pinned artefacts are still both on disk, undisturbed.
    assert_eq!(fs::read(dir.join("jca_v1.crpack")).unwrap(), v1_bytes);
    assert_eq!(fs::read(dir.join("jca_v2.crpack")).unwrap(), v2_bytes);

    let (code, _) = http::request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(code, 200);
    handle.join();
    let _ = fs::remove_dir_all(&dir);
}

fn golden(pack: &str, id: u8) -> String {
    let path = format!(
        "{}/tests/golden/{pack}/uc{id:02}.java",
        env!("CARGO_MANIFEST_DIR")
    );
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_catalog_pack_boots_by_one_policy_from_source_and_as_a_crpack() {
    let dir = scratch("boot-policy");
    for spec in PACK_CATALOG {
        let label = format!("{}@v{}", spec.name, spec.version);
        let pack = rules::open(catalog(spec.name, spec.version)).expect("catalog pack opens");
        let fingerprints = pack.fingerprints.len();
        let file = dir.join(format!("{label}.crpack"));
        fs::write(&file, pack.to_bytes().expect("pack compiles")).unwrap();

        // A source boot compiles each distinct ORDER once and seeds
        // nothing; a `.crpack` boot seeds every artefact and skips
        // warm-up, as the decoder already proved every lookup hits.
        let from_source = ServedPack::open(catalog(spec.name, spec.version), None).unwrap();
        let boot = from_source.boot_stats();
        assert_eq!(boot.warm_compiled, fingerprints, "{label} source boot");
        assert_eq!(boot.cache_seeded, 0, "{label} source boot");
        let from_pack = ServedPack::open(PackSource::Compiled(file), None).unwrap();
        let boot = from_pack.boot_stats();
        assert_eq!(boot.cache_seeded, fingerprints, "{label} .crpack boot");
        assert_eq!(
            (boot.warm_hits, boot.warm_compiled),
            (0, 0),
            "{label} .crpack boot"
        );

        for served in [&from_source, &from_pack] {
            assert_eq!(served.manifest().to_string(), label);
            let ids: Vec<u8> = served.cases().iter().map(|uc| uc.id).collect();
            assert_eq!(ids, spec.use_cases, "{label} cases");
            for uc in all_use_cases() {
                match served.case(&uc.id.to_string()) {
                    Ok(found) => {
                        assert!(
                            spec.use_cases.contains(&uc.id),
                            "{label} serves uc{}",
                            uc.id
                        );
                        assert_eq!(found.id, uc.id);
                    }
                    Err(err) => {
                        assert!(
                            !spec.use_cases.contains(&uc.id),
                            "{label} refuses uc{}",
                            uc.id
                        );
                        assert!(matches!(err, Error::Usage(_)), "{err:?}");
                        assert_eq!(err.exit_code(), 2);
                        assert_eq!(
                            err.to_string(),
                            format!(
                                "usage: the served rule pack does not declare use case {} ({})",
                                uc.id, uc.name
                            )
                        );
                    }
                }
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_reloads_across_pack_versions_serve_one_pack_per_request() {
    let dir = scratch("reload-storm");
    let bytes = |version| {
        rules::open(catalog("jca", version))
            .unwrap()
            .to_bytes()
            .unwrap()
    };
    let versions = [bytes(1), bytes(2)];
    let live = dir.join("live.crpack");
    fs::write(&live, &versions[0]).unwrap();
    let state = ServerState::new(&ServeConfig {
        rules_path: Some(live.clone()),
        ..ServeConfig::http("127.0.0.1:0")
    })
    .expect("daemon state boots on jca@v1");
    let uc05 = [golden("jca@v1", 5), golden("jca@v2", 5)];
    let uc17 = golden("jca@v2", 17);

    const RELOADS: usize = 150;
    let storming = AtomicBool::new(true);
    // Two generators, two reloaders and the file swapper start at once.
    let start = Barrier::new(5);
    std::thread::scope(|scope| {
        let (state, storming, start, live, dir) = (&state, &storming, &start, &live, &dir);
        let (uc05, uc17, versions) = (&uc05, &uc17, &versions);
        let generators: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    start.wait();
                    while storming.load(Ordering::Acquire) {
                        let reply = state.handle(&Request::Generate("17".to_owned()));
                        match reply.class {
                            "ok" => assert_eq!(&reply.body, uc17, "uc17 is jca@v2's golden"),
                            "usage" => assert!(
                                reply.body.contains("does not declare use case 17"),
                                "{}",
                                reply.body
                            ),
                            class => panic!("uc17 answered {class}: {}", reply.body),
                        }
                        let reply = state.handle(&Request::Generate("5".to_owned()));
                        assert_eq!(reply.class, "ok", "{}", reply.body);
                        assert!(uc05.contains(&reply.body), "uc05 is a golden file");
                    }
                })
            })
            .collect();
        let reloaders: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..RELOADS {
                        let reply = state.handle(&Request::Reload);
                        assert_eq!(reply.class, "ok", "{}", reply.body);
                    }
                })
            })
            .collect();
        // The pack file flips between the versions all storm long; a
        // rename keeps every open reading one whole file.
        let swapper = scope.spawn(move || {
            start.wait();
            for flip in 1.. {
                if !storming.load(Ordering::Acquire) {
                    break;
                }
                let next = dir.join("next.crpack");
                fs::write(&next, &versions[flip % 2]).unwrap();
                fs::rename(&next, live).unwrap();
            }
        });
        for reloader in reloaders {
            reloader.join().expect("reloader");
        }
        storming.store(false, Ordering::Release);
        for generator in generators {
            generator.join().expect("generator");
        }
        swapper.join().expect("swapper");
    });

    // Whatever pack the storm left behind, the daemon names the one it
    // serves.
    let loadz = Json::parse(&state.handle(&Request::Loadz).body).unwrap();
    let manifest = loadz
        .get("pack")
        .and_then(|p| p.get("manifest"))
        .and_then(Json::as_str)
        .expect("loadz names the served manifest")
        .to_owned();
    let emitted = state.handle(&Request::Generate("5".to_owned())).body;
    let expected = match manifest.as_str() {
        "jca@v1" => &uc05[0],
        "jca@v2" => &uc05[1],
        other => panic!("unexpected manifest {other}"),
    };
    assert_eq!(&emitted, expected, "/loadz names {manifest}");
    let _ = fs::remove_dir_all(&dir);
}
