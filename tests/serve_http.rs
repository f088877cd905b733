//! Protocol-level tests of the serve daemon: routes, typed error
//! classes, both transports, and the hot-reload cache-invalidation
//! semantics — all against in-process servers on ephemeral ports.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use cognicryptgen::serve::{http, ServeConfig, Server, ServerHandle, ServerState};
use cognicryptgen::usecases::all_use_cases;
use devharness::json::Json;

/// A scratch directory unique to this test invocation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cognicryptgen-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Writes the shipped rule sources into `dir` as a `*.crysl` pack,
/// skipping any class named in `skip`.
fn write_pack(dir: &PathBuf, skip: &[&str]) -> usize {
    for entry in fs::read_dir(dir).expect("readable pack dir").flatten() {
        let _ = fs::remove_file(entry.path());
    }
    let mut written = 0;
    for (name, source) in rules::RULE_SOURCES {
        if skip.contains(name) {
            continue;
        }
        fs::write(dir.join(format!("{name}.crysl")), source).expect("write rule");
        written += 1;
    }
    written
}

fn expected_source(selector: &str) -> String {
    let uc = cognicryptgen::find_use_case(selector).expect("known use case");
    cognicryptgen::jca_engine()
        .expect("shipped rules parse")
        .generate(&uc.template)
        .expect("generates")
        .java_source
}

#[test]
fn http_routes_answer_with_typed_classes() {
    let handle = Server::start(&ServeConfig::http("127.0.0.1:0")).expect("daemon boots");
    let addr = handle.http_addr().expect("http bound").to_string();

    let (code, body) = http::request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((code, body.as_str()), (200, "ok\n"));

    // The daemon's own output must be byte-identical to the one-shot
    // engine — same rules, same cache machinery, no drift.
    let (code, body) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, expected_source("1"));

    // POST variant takes the selector as the body.
    let (code, body) = http::request(&addr, "POST", "/generate", "1").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, expected_source("1"));

    // A bad selector is a typed usage error carrying the CLI exit code.
    let (code, body) = http::request(&addr, "GET", "/generate/no-such-case", "").unwrap();
    assert_eq!(code, 400);
    let doc = Json::parse(&body).expect("error body is JSON");
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("usage"));
    assert_eq!(doc.get("exit_code").and_then(Json::as_u64), Some(2));

    // Zero batch threads is the same usage error as `batch <dir> 0`.
    let (code, body) = http::request(&addr, "GET", "/batch/0", "").unwrap();
    assert_eq!(code, 400);
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("error")
            .and_then(Json::as_str),
        Some("usage")
    );

    // A real batch returns one member per shipped use case.
    let (code, body) = http::request(&addr, "GET", "/batch/2", "").unwrap();
    assert_eq!(code, 200);
    let doc = Json::parse(&body).expect("batch body is JSON");
    let Json::Obj(members) = &doc else {
        panic!("batch response is an object")
    };
    assert_eq!(members.len(), all_use_cases().len());
    assert_eq!(
        doc.get("uc01").and_then(Json::as_str),
        Some(expected_source("1").as_str())
    );

    let (code, body) = http::request(&addr, "GET", "/report", "").unwrap();
    assert_eq!(code, 200);
    let report = Json::parse(&body).expect("report body is JSON");
    cognicryptgen::report::validate(&report).expect("daemon report validates");

    let (code, _) = http::request(&addr, "GET", "/no-such-route", "").unwrap();
    assert_eq!(code, 404);
    let (code, _) = http::request(&addr, "DELETE", "/healthz", "").unwrap();
    assert_eq!(code, 405);

    let (code, body) = http::request(&addr, "GET", "/metrics", "").unwrap();
    assert_eq!(code, 200);
    assert!(body.contains("serve.requests counter"));
    assert!(body.contains("serve.errors.usage counter"));
    assert!(body.contains("mem.daemon.peak_live_bytes gauge"));

    handle.shutdown();
}

#[test]
fn hot_reload_prunes_exactly_the_removed_fingerprints() {
    let pack = scratch("serve-pack");
    let full = write_pack(&pack, &[]);

    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        uds_path: None,
        threads: 2,
        rules_path: Some(pack.clone()),
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots from the pack dir");
    let addr = handle.http_addr().expect("http bound").to_string();

    // Boot warms every rule, so the cache already holds the full pack.
    let before = expected_source("1");
    let (code, body) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, before);

    // Shrink the pack by one rule: reload must drop exactly the removed
    // rule's cache entry and keep every other warm artefact.
    let smaller = write_pack(&pack, &["Mac"]);
    assert_eq!(smaller, full - 1);
    let (code, body) = http::request(&addr, "POST", "/reload", "").unwrap();
    assert_eq!(code, 200);
    let doc = Json::parse(&body).expect("reload body is JSON");
    assert_eq!(
        doc.get("rules").and_then(Json::as_u64),
        Some(smaller as u64)
    );
    assert_eq!(
        doc.get("cache_entries_dropped").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        doc.get("cache_entries_kept").and_then(Json::as_u64),
        Some(smaller as u64)
    );

    // Restore the full pack: the removed rule recompiles, nothing else.
    write_pack(&pack, &[]);
    let (code, body) = http::request(&addr, "POST", "/reload", "").unwrap();
    assert_eq!(code, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("rules").and_then(Json::as_u64), Some(full as u64));
    assert_eq!(
        doc.get("cache_entries_dropped").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(
        doc.get("cache_entries_kept").and_then(Json::as_u64),
        Some(full as u64)
    );

    // Output across the reload cycle is still byte-identical.
    let (code, body) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, before);

    // A pack that fails to parse leaves the running engine untouched.
    fs::write(pack.join("Broken.crysl"), "SPEC not a rule {{{").unwrap();
    let (code, body) = http::request(&addr, "POST", "/reload", "").unwrap();
    assert_eq!(code, 500);
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("error")
            .and_then(Json::as_str),
        Some("rules")
    );
    let (code, body) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, before);

    handle.shutdown();
    let _ = fs::remove_dir_all(&pack);
}

#[test]
fn daemon_boots_from_a_compiled_pack_and_survives_a_corrupt_reload() {
    let dir = scratch("serve-crpack");
    let pack_bytes = rules::open(rules::PackSource::Embedded)
        .expect("shipped rules")
        .to_bytes()
        .expect("shipped rules pack");
    let pack_file = dir.join("jca.crpack");
    fs::write(&pack_file, &pack_bytes).unwrap();

    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        uds_path: None,
        threads: 2,
        rules_path: Some(pack_file.clone()),
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots from the .crpack");
    let addr = handle.http_addr().expect("http bound").to_string();

    // Pack-booted output is byte-identical to the embedded engine.
    let before = expected_source("1");
    let (code, body) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, before);

    // /loadz reports the compiled pack identity.
    let (code, body) = http::request(&addr, "GET", "/loadz", "").unwrap();
    assert_eq!(code, 200);
    let doc = Json::parse(&body).expect("loadz body is JSON");
    let pack_info = doc.get("pack").expect("loadz carries pack identity");
    assert_eq!(
        pack_info.get("kind").and_then(Json::as_str),
        Some("compiled")
    );
    assert_eq!(pack_info.get("precompiled").and_then(Json::as_u64), Some(1));
    let fingerprint = pack_info
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("pack fingerprint")
        .to_owned();

    // Reloading the intact file succeeds and seeds every artefact.
    let (code, body) = http::request(&addr, "POST", "/reload", "").unwrap();
    assert_eq!(code, 200);
    let doc = Json::parse(&body).expect("reload body is JSON");
    assert_eq!(
        doc.get("pack")
            .and_then(|p| p.get("kind"))
            .and_then(Json::as_str),
        Some("compiled")
    );

    // Corrupt the pack on disk: reload must fail with the typed `rules`
    // class and leave the running engine (and its pack identity) alone.
    let mut corrupt = pack_bytes.clone();
    corrupt[pack_bytes.len() / 2] ^= 0x40;
    fs::write(&pack_file, &corrupt).unwrap();
    let (code, body) = http::request(&addr, "POST", "/reload", "").unwrap();
    assert_eq!(code, 500);
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("error")
            .and_then(Json::as_str),
        Some("rules")
    );
    let (code, body) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, before);
    let (_, body) = http::request(&addr, "GET", "/loadz", "").unwrap();
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("pack")
            .and_then(|p| p.get("fingerprint"))
            .and_then(Json::as_str),
        Some(fingerprint.as_str())
    );

    // Truncation is rejected the same way.
    fs::write(&pack_file, &pack_bytes[..pack_bytes.len() / 4]).unwrap();
    let (code, _) = http::request(&addr, "POST", "/reload", "").unwrap();
    assert_eq!(code, 500);
    let (code, body) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 200);
    assert_eq!(body, before);

    // Restoring the file restores reloadability.
    fs::write(&pack_file, &pack_bytes).unwrap();
    let (code, _) = http::request(&addr, "POST", "/reload", "").unwrap();
    assert_eq!(code, 200);

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn report_describes_the_pack_the_daemon_serves() {
    let dir = scratch("serve-report-pack");
    let pack_file = dir.join("jca-v1.crpack");
    let status = Command::new(env!("CARGO_BIN_EXE_cognicryptgen"))
        .arg("compile-rules")
        .arg("jca@v1")
        .arg(&pack_file)
        .stdout(Stdio::null())
        .status()
        .expect("compile-rules runs");
    assert!(status.success());

    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        threads: 2,
        rules_path: Some(pack_file),
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots from the jca@v1 pack");
    let addr = handle.http_addr().expect("http bound").to_string();

    let (code, body) = http::request(&addr, "GET", "/loadz", "").unwrap();
    assert_eq!(code, 200);
    let loadz = Json::parse(&body).expect("loadz body is JSON");
    let served = loadz.get("pack").expect("served pack identity");

    let (code, body) = http::request(&addr, "GET", "/report", "").unwrap();
    assert_eq!(code, 200);
    let report = Json::parse(&body).expect("report body is JSON");
    cognicryptgen::report::validate(&report).expect("daemon report validates");
    let boot = report.get("boot").expect("report boot section");
    for (in_report, in_loadz) in [("pack_fingerprint", "fingerprint"), ("kind", "kind")] {
        assert_eq!(boot.get(in_report), served.get(in_loadz), "{in_report}");
    }
    // The rows are the use cases jca@v1 declares, not the catalogue.
    let rows = report
        .get("use_cases")
        .and_then(Json::as_arr)
        .map(<[Json]>::len);
    let declared = rules::catalog_pack("jca", Some(1)).unwrap().use_cases;
    assert_eq!(rows, Some(declared.len()));

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A daemon serving a subset pack refuses a use case the pack does
/// not declare with a typed usage error on both transports, exactly as
/// `/batch` and the CLI leave such a case out, instead of failing
/// generation for a rule the pack never shipped.
#[test]
fn undeclared_use_case_is_a_usage_error_on_both_transports() {
    let dir = scratch("serve-undeclared");
    let socket = dir.join("daemon.sock");
    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        uds_path: Some(socket.clone()),
        threads: 2,
        rules_path: Some("aead@v1".into()),
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots from aead@v1");
    let addr = handle.http_addr().expect("http bound").to_string();
    let declared = rules::catalog_pack("aead", Some(1)).unwrap().use_cases;
    assert!(!declared.contains(&1));

    let (code, body) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 400, "{body}");
    let doc = Json::parse(&body).expect("error body is JSON");
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("usage"));
    assert_eq!(doc.get("exit_code").and_then(Json::as_u64), Some(2));
    let (code, _) = http::request(&addr, "GET", &format!("/generate/{}", declared[0]), "").unwrap();
    assert_eq!(code, 200);

    let responses = cognicryptgen::serve::uds::request_lines(&socket, &["generate 1"]).unwrap();
    assert_eq!(
        responses[0].get("class").and_then(Json::as_str),
        Some("usage")
    );

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// `/loadz` over HTTP: one JSON object with the counters and gauges
/// perfbench samples, consistent before and after traffic.
#[test]
fn loadz_snapshot_is_served_over_http() {
    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        uds_path: None,
        threads: 2,
        rules_path: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots");
    let addr = handle.http_addr().expect("http bound").to_string();

    let (code, body) = http::request(&addr, "GET", "/loadz", "").unwrap();
    assert_eq!(code, 200);
    let doc = Json::parse(&body).expect("loadz is json");
    let before = doc.get("requests").and_then(Json::as_u64).expect("counter");

    let (code, _) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 200);
    let (code, _) = http::request(&addr, "GET", "/generate/nope", "").unwrap();
    assert_eq!(code, 400);

    let (code, body) = http::request(&addr, "GET", "/loadz", "").unwrap();
    assert_eq!(code, 200);
    let doc = Json::parse(&body).expect("loadz is json");
    assert!(doc.get("requests").and_then(Json::as_u64).unwrap() >= before + 2);
    assert_eq!(doc.get("request_panics").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("connection_panics").and_then(Json::as_u64), Some(0));
    let errors = doc.get("errors").expect("error class map");
    assert!(errors.get("usage").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert!(doc.get("order_cache").is_some());
    // Only GET is routed.
    let (code, _) = http::request(&addr, "POST", "/loadz", "").unwrap();
    assert_eq!(code, 405);
    handle.shutdown();
}

#[test]
fn serve_config_rejects_zero_threads_and_no_transport() {
    let Err(err) = Server::start(&ServeConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        threads: 0,
        ..ServeConfig::default()
    }) else {
        panic!("zero threads must be rejected");
    };
    assert!(matches!(err, cognicryptgen::Error::Usage(_)));
    assert_eq!(err.exit_code(), 2);

    let Err(err) = Server::start(&ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    }) else {
        panic!("no transport must be rejected");
    };
    assert!(matches!(err, cognicryptgen::Error::Usage(_)));
}

#[cfg(unix)]
#[test]
fn uds_line_protocol_frames_one_json_response_per_request() {
    use cognicryptgen::serve::uds;

    let dir = scratch("serve-uds");
    let socket = dir.join("daemon.sock");
    let config = ServeConfig {
        http_addr: None,
        uds_path: Some(socket.clone()),
        threads: 2,
        rules_path: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots on the socket");

    let responses = uds::request_lines(
        &socket,
        &["healthz", "generate 1", "bogus-verb", "batch 0", "generate"],
    )
    .expect("socket round trip");
    assert_eq!(responses.len(), 5);

    let class = |i: usize| responses[i].get("class").and_then(Json::as_str).unwrap();
    assert_eq!(class(0), "ok");
    assert_eq!(class(1), "ok");
    assert_eq!(
        responses[1].get("body").and_then(Json::as_str),
        Some(expected_source("1").as_str())
    );
    // Hostile lines get typed errors on their own lines; the stream
    // stays synchronised — well-formed neighbours are unaffected.
    assert_eq!(class(2), "protocol");
    assert_eq!(class(3), "usage");
    assert_eq!(class(4), "protocol");

    // `shutdown` over the socket stops the daemon; join() returns.
    let responses = uds::request_lines(&socket, &["shutdown"]).expect("shutdown accepted");
    assert_eq!(responses[0].get("class").and_then(Json::as_str), Some("ok"));
    handle.join();
    let _ = fs::remove_dir_all(&dir);
}

/// How long a stopping daemon may take to end every worker. Workers
/// block in `accept`, so a missed wake-up would hang for good; the
/// bound turns that into a failure.
const STOP_BOUND: Duration = Duration::from_secs(10);

/// Runs `stop` (which consumes the handle) on a thread and waits at
/// most [`STOP_BOUND`] for it to return.
fn stops_within_bound(handle: ServerHandle, stop: fn(ServerHandle)) {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        stop(handle);
        let _ = done.send(());
    });
    finished
        .recv_timeout(STOP_BOUND)
        .expect("every worker exits after the stop");
}

/// The request records in the daemon's `/tracez` ring, and its
/// `serve.requests` counter.
fn recorded(state: &ServerState) -> (usize, u64) {
    let doc = state.obs().tracez_json(false);
    let records = doc.get("records").and_then(Json::as_arr).unwrap().len();
    (records, state.metrics().counter("serve.requests"))
}

fn four_worker_config(tag: &str) -> (ServeConfig, PathBuf) {
    let dir = scratch(tag);
    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        uds_path: Some(dir.join("daemon.sock")),
        threads: 4,
        ..ServeConfig::default()
    };
    (config, dir)
}

/// A protocol `shutdown` on either transport ends all eight workers of
/// a four-worker daemon on both transports: the workers blocked in
/// `accept` are woken by connections that leave no request record.
#[cfg(unix)]
#[test]
fn protocol_shutdown_on_either_transport_stops_every_worker() {
    use cognicryptgen::serve::uds;

    for via in ["uds", "http"] {
        let (config, dir) = four_worker_config(&format!("serve-stop-{via}"));
        let socket = config.uds_path.clone().unwrap();
        let handle = Server::start(&config).expect("daemon boots");
        let addr = handle.http_addr().expect("http bound").to_string();
        let state = handle.state().clone();

        let (code, _) = http::request(&addr, "GET", "/generate/1", "").unwrap();
        assert_eq!(code, 200);
        let responses = uds::request_lines(&socket, &["generate 2"]).unwrap();
        assert_eq!(responses[0].get("class").and_then(Json::as_str), Some("ok"));

        if via == "uds" {
            let responses = uds::request_lines(&socket, &["shutdown"]).unwrap();
            assert_eq!(responses[0].get("class").and_then(Json::as_str), Some("ok"));
        } else {
            let (code, _) = http::request(&addr, "POST", "/shutdown", "").unwrap();
            assert_eq!(code, 200);
        }
        stops_within_bound(handle, ServerHandle::join);

        // Both listeners are closed, and only the three requests above
        // were recorded: no wake-up became a `rejected` record.
        assert!(std::net::TcpStream::connect(&addr).is_err(), "{via}");
        assert_eq!(recorded(&state), (3, 3), "{via}");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// `ServerHandle::shutdown` on a daemon that never served a request
/// returns, and its wake-ups leave no record either.
#[cfg(unix)]
#[test]
fn handle_shutdown_of_an_idle_daemon_returns() {
    let (config, dir) = four_worker_config("serve-stop-idle");
    let handle = Server::start(&config).expect("daemon boots");
    let state = handle.state().clone();
    stops_within_bound(handle, ServerHandle::shutdown);
    assert_eq!(recorded(&state), (0, 0));
    assert!(!config.uds_path.unwrap().exists());
    let _ = fs::remove_dir_all(&dir);
}
