//! Integration tests of the daemon's request-observability surfaces:
//! the `/tracez` access-record ring, `/statz` latency distributions,
//! and the `/profilez` capture window — over live transports, not the
//! unit-level ring in `serve::obs`'s own tests.

use std::collections::HashSet;

use cognicrypt_core::telemetry::validate_trace;
use cognicryptgen::serve::{http, obs, ServeConfig, Server, ServerHandle};
use devharness::histogram::Histogram;
use devharness::json::Json;

fn http_daemon(obs_capacity: usize) -> (ServerHandle, String) {
    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        threads: 4,
        obs_capacity,
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots");
    let addr = handle.http_addr().expect("http bound").to_string();
    (handle, addr)
}

fn get_json(addr: &str, path: &str) -> Json {
    let (code, body) = http::request(addr, "GET", path, "").unwrap();
    assert_eq!(code, 200, "GET {path} failed: {body}");
    Json::parse(&body).unwrap_or_else(|e| panic!("GET {path} body not JSON ({e}): {body}"))
}

#[test]
fn tracez_ring_keeps_only_the_newest_records() {
    let (handle, addr) = http_daemon(3);
    for _ in 0..5 {
        let (code, _) = http::request(&addr, "GET", "/generate/1", "").unwrap();
        assert_eq!(code, 200);
    }
    let doc = get_json(&addr, "/tracez");
    assert_eq!(doc.get("capacity").and_then(Json::as_u64), Some(3));
    assert_eq!(doc.get("count").and_then(Json::as_u64), Some(3));
    let records = doc.get("records").and_then(Json::as_arr).unwrap();
    let ids: Vec<u64> = records
        .iter()
        .map(|r| r.get("request_id").and_then(Json::as_u64).unwrap())
        .collect();
    // Newest first, oldest two of the five evicted.
    assert_eq!(ids, [5, 4, 3]);
    handle.shutdown();
}

#[test]
fn tracez_records_carry_the_full_schema_and_errors_filter() {
    let (handle, addr) = http_daemon(64);
    let (code, _) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 200);
    let (code, _) = http::request(&addr, "GET", "/generate/no-such-case", "").unwrap();
    assert_eq!(code, 400);
    // Unroutable traffic still lands in the ring, as `rejected`.
    let (code, _) = http::request(&addr, "GET", "/no-such-route", "").unwrap();
    assert_eq!(code, 404);

    let doc = get_json(&addr, "/tracez");
    let records = doc.get("records").and_then(Json::as_arr).unwrap();
    assert_eq!(records.len(), 3);
    for record in records {
        for field in ["request_id", "code", "wall_ns", "alloc_bytes", "cache_hits"] {
            assert!(
                record.get(field).and_then(Json::as_u64).is_some(),
                "record lacks numeric `{field}`: {record:?}"
            );
        }
        assert_eq!(record.get("transport").and_then(Json::as_str), Some("http"));
        let trace = record.get("trace_id").and_then(Json::as_str).unwrap();
        assert_eq!(trace.len(), 16);
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()));
    }
    // Newest-first: the 404 leads and is attributed to no endpoint.
    assert_eq!(
        records[0].get("endpoint").and_then(Json::as_str),
        Some("rejected")
    );
    assert_eq!(records[2].get("selector").and_then(Json::as_str), Some("1"));

    let errors = get_json(&addr, "/tracez?errors=1");
    let records = errors.get("records").and_then(Json::as_arr).unwrap();
    assert_eq!(records.len(), 2, "only the two failures survive the filter");
    assert!(records
        .iter()
        .all(|r| r.get("class").and_then(Json::as_str) != Some("ok")));
    handle.shutdown();
}

#[test]
fn trace_ids_stay_unique_across_an_eight_thread_soak() {
    let (handle, addr) = http_daemon(obs::DEFAULT_RING_CAPACITY);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..25 {
                    let (code, _) = http::request(&addr, "GET", "/generate/1", "").unwrap();
                    assert_eq!(code, 200);
                }
            });
        }
    });
    let doc = get_json(&addr, "/tracez");
    let records = doc.get("records").and_then(Json::as_arr).unwrap();
    assert_eq!(records.len(), 200);
    let traces: HashSet<&str> = records
        .iter()
        .map(|r| r.get("trace_id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(traces.len(), 200, "trace ids collided under concurrency");
    let ids: HashSet<u64> = records
        .iter()
        .map(|r| r.get("request_id").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(ids.len(), 200, "request ids collided under concurrency");
    handle.shutdown();
}

#[test]
fn statz_distributions_agree_with_the_traffic_that_was_sent() {
    let (handle, addr) = http_daemon(obs::DEFAULT_RING_CAPACITY);
    for _ in 0..20 {
        let (code, _) = http::request(&addr, "GET", "/generate/1", "").unwrap();
        assert_eq!(code, 200);
    }
    let (code, text) = http::request(&addr, "GET", "/statz", "").unwrap();
    assert_eq!(code, 200);
    assert!(text.contains("http.generate.ok"), "statz table: {text}");

    let doc = get_json(&addr, "/statz?json=1");
    let hist = Histogram::from_json(doc.get("http.generate.ok").expect("generate key"))
        .expect("statz histogram parses");
    assert_eq!(hist.count(), 20);
    assert!(hist.max() > 0);
    assert!(hist.quantile(0.50) <= hist.quantile(0.99));
    assert!(hist.quantile(0.99) <= hist.max());

    // The same distribution surfaces as gauges in /metrics.
    let (code, metrics) = http::request(&addr, "GET", "/metrics", "").unwrap();
    assert_eq!(code, 200);
    assert!(metrics.contains("serve.latency.http.generate.ok.count gauge 20"));
    assert!(metrics.contains("serve.latency.http.generate.ok.p99_ns gauge"));
    handle.shutdown();
}

#[test]
fn profilez_capture_round_trips_through_trace_check() {
    let (handle, addr) = http_daemon(obs::DEFAULT_RING_CAPACITY);

    // Nothing armed yet.
    let (code, body) = http::request(&addr, "GET", "/profilez", "").unwrap();
    assert_eq!(code, 404);
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("error")
            .and_then(Json::as_str),
        Some("not_found")
    );

    // Arm a two-request window; a second arm is refused with 409.
    let (code, body) = http::request(&addr, "POST", "/profilez", "2").unwrap();
    assert_eq!(code, 200);
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("armed")
            .and_then(Json::as_u64),
        Some(2)
    );
    let (code, body) = http::request(&addr, "POST", "/profilez", "5").unwrap();
    assert_eq!(code, 409, "double-arm must conflict: {body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("conflict"));
    assert_eq!(doc.get("remaining").and_then(Json::as_u64), Some(2));

    // While the window is open the capture is not yet fetchable.
    let (code, _) = http::request(&addr, "GET", "/profilez", "").unwrap();
    assert_eq!(code, 404);

    for _ in 0..2 {
        let (code, _) = http::request(&addr, "GET", "/generate/1", "").unwrap();
        assert_eq!(code, 200);
    }
    let trace = get_json(&addr, "/profilez");
    validate_trace(&trace).expect("captured trace passes trace-check");
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(!events.is_empty(), "two generations must emit spans");

    // The capture stays fetchable until the next arm.
    let again = get_json(&addr, "/profilez");
    assert_eq!(
        again
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(<[_]>::len),
        Some(events.len())
    );

    // Out-of-range windows are typed usage errors.
    for bad in ["0", "999999999"] {
        let (code, body) = http::request(&addr, "POST", "/profilez", bad).unwrap();
        assert_eq!(code, 400, "window `{bad}` must be refused: {body}");
    }
    handle.shutdown();
}

#[cfg(unix)]
#[test]
fn uds_transport_serves_the_same_observability_verbs() {
    use cognicryptgen::serve::uds;

    let socket = std::env::temp_dir().join(format!("cognicrypt-obs-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let config = ServeConfig {
        http_addr: None,
        uds_path: Some(socket.clone()),
        threads: 2,
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots");

    let responses = uds::request_lines(
        &socket,
        &[
            "profilez 1",
            "generate 1",
            "tracez",
            "tracez errors",
            "statz",
            "statz json",
            "profilez",
        ],
    )
    .unwrap();
    assert_eq!(responses.len(), 7);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(
            response.get("class").and_then(Json::as_str),
            Some("ok"),
            "line {i}: {response:?}"
        );
    }

    let tracez = Json::parse(responses[2].get("body").and_then(Json::as_str).unwrap()).unwrap();
    let records = tracez.get("records").and_then(Json::as_arr).unwrap();
    assert!(records
        .iter()
        .all(|r| r.get("transport").and_then(Json::as_str) == Some("uds")));

    let statz = Json::parse(responses[5].get("body").and_then(Json::as_str).unwrap()).unwrap();
    let hist = Histogram::from_json(statz.get("uds.generate.ok").expect("generate key")).unwrap();
    assert_eq!(hist.count(), 1);

    let trace = Json::parse(responses[6].get("body").and_then(Json::as_str).unwrap()).unwrap();
    validate_trace(&trace).expect("uds-fetched capture passes trace-check");
    handle.shutdown();
}

/// `/loadz` over the Unix-socket line protocol: the `loadz` verb
/// answers with the same JSON object inside one response frame.
#[cfg(unix)]
#[test]
fn loadz_snapshot_is_served_over_uds() {
    use cognicryptgen::serve::uds;

    let socket = std::env::temp_dir().join(format!("cognicrypt-loadz-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let config = ServeConfig {
        http_addr: None,
        uds_path: Some(socket.clone()),
        threads: 2,
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots");

    let responses = uds::request_lines(&socket, &["generate 1", "loadz"]).unwrap();
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].get("class").and_then(Json::as_str), Some("ok"));
    assert_eq!(responses[1].get("class").and_then(Json::as_str), Some("ok"));
    let body = responses[1].get("body").and_then(Json::as_str).unwrap();
    let doc = Json::parse(body).expect("loadz body is json");
    // The in-flight `loadz` request's own counter merges only after the
    // response is written, so only the earlier generate is guaranteed.
    assert!(doc.get("requests").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(doc.get("request_panics").and_then(Json::as_u64), Some(0));
    handle.shutdown();
}

/// A `/report` runs on the served engine, so an armed `/profilez`
/// window that the report closes holds every span of the report's
/// generations: five B/E pairs per declared use case.
#[test]
fn profilez_captures_a_report() {
    let (handle, addr) = http_daemon(obs::DEFAULT_RING_CAPACITY);
    let (code, body) = http::request(&addr, "POST", "/profilez", "1").unwrap();
    assert_eq!(code, 200, "{body}");
    let report = get_json(&addr, "/report");
    let cases = report
        .get("use_cases")
        .and_then(Json::as_arr)
        .expect("report rows")
        .len();
    assert!(cases > 0);

    let trace = get_json(&addr, "/profilez");
    validate_trace(&trace).expect("captured report passes trace-check");
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    };
    assert_eq!(count("B"), 5 * cases, "one span per phase per report row");
    assert_eq!(count("E"), 5 * cases);
    assert_eq!(events.len(), 10 * cases);
    handle.shutdown();
}

/// A capture armed while two clients keep generating holds whole
/// generations only: the served document passes `trace-check` as it
/// is, with five closed phases per captured generation.
#[test]
fn profilez_armed_under_concurrent_generates_serves_whole_generations() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let (handle, addr) = http_daemon(obs::DEFAULT_RING_CAPACITY);
    let stop = AtomicBool::new(false);
    let trace = std::thread::scope(|s| {
        for case in ["1", "11"] {
            let (addr, stop) = (&addr, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (code, _) =
                        http::request(addr, "GET", &format!("/generate/{case}"), "").unwrap();
                    assert_eq!(code, 200);
                }
            });
        }
        let (code, body) = http::request(&addr, "POST", "/profilez", "4").unwrap();
        assert_eq!(code, 200, "{body}");
        let deadline = Instant::now() + Duration::from_secs(60);
        let trace = loop {
            let (code, body) = http::request(&addr, "GET", "/profilez", "").unwrap();
            if code == 200 {
                break Json::parse(&body).expect("capture is JSON");
            }
            assert!(Instant::now() < deadline, "the window never closed: {body}");
            std::thread::sleep(Duration::from_millis(5));
        };
        stop.store(true, Ordering::Relaxed);
        trace
    });
    validate_trace(&trace).expect("served capture passes trace-check as it is");
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let count = |ph: &str, name: Option<&str>| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .filter(|e| name.is_none() || e.get("name").and_then(Json::as_str) == name)
            .count()
    };
    let generations = count("E", Some("assemble"));
    assert!(
        generations >= 4,
        "a 4-request window captured {generations}"
    );
    assert_eq!(count("E", None), 5 * generations);
    assert_eq!(count("B", None), 5 * generations);
    handle.shutdown();
}

/// `/tracez` cache counts are the sums of each request's own
/// generation records: two clients generating different use cases at
/// the same time on one warm daemon never count each other's ORDER
/// lookups, and a request that generates nothing counts none.
#[test]
fn tracez_cache_counts_are_exact_per_request_under_concurrency() {
    let (handle, addr) = http_daemon(obs::DEFAULT_RING_CAPACITY);
    let engine = cognicryptgen::jca_engine().expect("shipped rules parse");
    let lookups = |id: &str| {
        let uc = cognicryptgen::find_use_case(id).unwrap();
        engine.generate(&uc.template).unwrap().record.selections
    };
    let cases = [("1", lookups("1")), ("11", lookups("11"))];
    assert_ne!(cases[0].1, cases[1].1, "the cases must differ to tell");

    let (code, _) = http::request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(code, 200);
    let start = std::sync::Barrier::new(cases.len());
    std::thread::scope(|scope| {
        for (id, _) in cases {
            let (addr, start) = (&addr, &start);
            scope.spawn(move || {
                start.wait();
                for _ in 0..20 {
                    let path = format!("/generate/{id}");
                    let (code, _) = http::request(addr, "GET", &path, "").unwrap();
                    assert_eq!(code, 200);
                }
            });
        }
    });

    let doc = get_json(&addr, "/tracez");
    let records = doc.get("records").and_then(Json::as_arr).unwrap();
    assert_eq!(records.len(), 41);
    for record in records {
        let count = |field: &str| record.get(field).and_then(Json::as_u64).unwrap();
        let lookups = count("cache_hits") + count("cache_misses");
        match record.get("selector").and_then(Json::as_str) {
            Some(selector) => {
                let (_, solo) = cases.iter().find(|(id, _)| *id == selector).unwrap();
                assert_eq!(lookups, *solo, "uc{selector}: {record:?}");
                assert_eq!(count("cache_misses"), 0, "a warm daemon only hits");
            }
            None => assert_eq!(lookups, 0, "{record:?}"),
        }
    }
    handle.shutdown();
}
