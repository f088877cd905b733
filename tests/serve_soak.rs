//! Soak test for the serve daemon: thousands of concurrent requests,
//! well-formed and hostile interleaved, against one daemon instance.
//!
//! What must hold, per the daemon's contract:
//!
//! * every well-formed response is byte-identical to the one-shot
//!   engine's output for the same use case, whatever hostile traffic
//!   runs beside it;
//! * hostile traffic gets typed protocol errors — never a panic, never
//!   a hang, never a perturbed neighbour;
//! * hostile traffic does not starve well-formed traffic: the storm's
//!   well-formed p99 stays within 50× the p99 of a clean phase of
//!   well-formed traffic only (with a 10 ms floor on the baseline, so
//!   the bound is at least 500 ms and holds under the parallel test
//!   runner);
//! * the daemon's own `/statz` agrees with its clients: it counted
//!   exactly the `ok` generates they received, and its p99 is
//!   consistent with theirs;
//! * the daemon's peak live memory stays bounded: serving N× more
//!   requests must not grow the peak, because all request state is
//!   per-request and the warm caches reach steady state.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use cognicryptgen::core::memtrack::TrackingAlloc;
use cognicryptgen::serve::{http, ServeConfig, Server};
use cognicryptgen::usecases::all_use_cases;
use devharness::histogram::Histogram;
use devharness::json::Json;

/// The daemon-lifetime memory gauges are allocator-level figures, so
/// this test binary must install the tracking allocator just as the
/// CLI binary does.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

/// Requests per client thread per storm round.
const REQUESTS_PER_CLIENT: usize = 125;
/// Concurrent client threads.
const CLIENTS: usize = 8;

/// The daemon peak gauge is process-wide, so the HTTP and UDS soaks
/// must not interleave — a concurrent sibling's allocation spike
/// between two samples would read as a leak.
static SOAK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Parses one gauge/counter value out of a `/metrics` rendering.
fn metric(metrics: &str, name: &str) -> Option<u64> {
    metrics.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let mut parts = rest.split_whitespace();
        let kind = parts.next()?;
        if kind != "gauge" && kind != "counter" {
            return None;
        }
        parts.next()?.parse().ok()
    })
}

/// Runs `client(seed)` on [`CLIENTS`] threads at once, seeds
/// `offset..offset + CLIENTS`, and merges the latency histograms they
/// return.
fn fan_out(offset: usize, client: impl Fn(usize) -> Histogram + Sync) -> Histogram {
    let client = &client;
    std::thread::scope(|scope| {
        (0..CLIENTS)
            .map(|c| scope.spawn(move || client(offset + c)))
            .collect::<Vec<_>>()
            .into_iter()
            .fold(Histogram::new(), |mut merged, t| {
                merged.merge(&t.join().expect("client thread survives"));
                merged
            })
    })
}

/// Nanoseconds since `start`.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One well-formed generation over HTTP, checked byte-for-byte against
/// the one-shot engine; returns the client-observed latency (connect
/// to last byte), which is never below the daemon's wall time for it.
fn timed_generate(addr: &str, id: u8, expected: &BTreeMap<u8, String>) -> u64 {
    let start = Instant::now();
    let (code, body) = http::request(addr, "GET", &format!("/generate/{id}"), "").unwrap();
    let latency = elapsed_ns(start);
    assert_eq!(code, 200, "generate uc{id} failed mid-soak");
    assert_eq!(
        &body, &expected[&id],
        "daemon output for uc{id} diverged from the one-shot engine"
    );
    latency
}

/// One client's clean phase: about as many well-formed generations as
/// its storm issues, and nothing else. Returns their latencies.
fn clean(addr: &str, seed: usize, expected: &BTreeMap<u8, String>) -> Histogram {
    let ids: Vec<u8> = expected.keys().copied().collect();
    let mut latency = Histogram::new();
    for i in 0..REQUESTS_PER_CLIENT / 2 {
        latency.record(timed_generate(addr, ids[(seed + i) % ids.len()], expected));
    }
    latency
}

/// The `/statz` cross-check of one transport: the daemon's
/// `<transport>.generate.ok` distribution counts exactly the `ok`
/// generates the clients received, and its p99 is consistent with the
/// clients' p99. A client times connect and queueing on top of the
/// daemon's wall time, so per request server ≤ client, and the sound
/// check is one-directional on the histogram's documented bucket
/// bounds: the server's lower bound may not exceed the client's upper
/// bound.
fn cross_check_statz(statz: &Json, transport: &str, client: &Histogram) {
    let key = format!("{transport}.generate.ok");
    let server = Histogram::from_json(statz.get(&key).expect("statz has the generate key"))
        .expect("statz histogram parses");
    assert_eq!(
        server.count(),
        client.count(),
        "{key}: the daemon counted {} ok generates, its clients received {}",
        server.count(),
        client.count()
    );
    let (server_lo, _) = server.quantile_bounds(0.99);
    let (_, client_hi) = client.quantile_bounds(0.99);
    assert!(
        server_lo <= client_hi,
        "{key}: server p99 ≥ {server_lo} ns exceeds the client p99 ≤ {client_hi} ns"
    );
}

/// One client's storm: a deterministic mix of well-formed and hostile
/// requests, asserting every response inline. Returns the latencies of
/// the well-formed generations, each verified byte-identical.
fn storm(addr: &str, seed: usize, expected: &BTreeMap<u8, String>) -> Histogram {
    let ids: Vec<u8> = expected.keys().copied().collect();
    let mut latency = Histogram::new();
    for i in 0..REQUESTS_PER_CLIENT {
        match (seed + i) % 8 {
            // Most traffic: generations checked byte-for-byte.
            0..=3 => {
                let id = ids[(seed + i) % ids.len()];
                latency.record(timed_generate(addr, id, expected));
            }
            4 => {
                let (code, body) = http::request(addr, "GET", "/healthz", "").unwrap();
                assert_eq!((code, body.as_str()), (200, "ok\n"));
            }
            // Hostile: unknown selector → typed usage error.
            5 => {
                let (code, _) =
                    http::request(addr, "GET", "/generate/definitely-not-a-case", "").unwrap();
                assert_eq!(code, 400);
            }
            // Hostile: nonsense route and method.
            6 => {
                let (code, _) = http::request(addr, "GET", "/../../etc/passwd", "").unwrap();
                assert_eq!(code, 404);
                let (code, _) = http::request(addr, "PATCH", "/metrics", "").unwrap();
                assert_eq!(code, 405);
            }
            // Hostile: raw protocol garbage on a fresh connection.
            _ => {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(b"\x00\xffGARBAGE noise\r\n\r\n").unwrap();
                let mut reply = String::new();
                let _ = stream.read_to_string(&mut reply);
                assert!(
                    reply.starts_with("HTTP/1.1 400"),
                    "garbage must get a typed 400, got {reply:?}"
                );
            }
        }
    }
    latency
}

#[test]
fn soak_mixed_hostile_and_well_formed_traffic() {
    let _serialized = SOAK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let expected: BTreeMap<u8, String> = {
        let engine = cognicryptgen::jca_engine().expect("shipped rules parse");
        all_use_cases()
            .iter()
            .map(|uc| {
                (
                    uc.id,
                    engine
                        .generate(&uc.template)
                        .expect("generates")
                        .java_source,
                )
            })
            .collect()
    };

    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        uds_path: None,
        threads: 4,
        rules_path: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots");
    let addr = handle.http_addr().expect("http bound").to_string();

    // Header bomb: a request head over the 8KiB cap must be refused
    // without reading the rest, and the daemon must stay up.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let bomb = format!(
            "GET /healthz HTTP/1.1\r\nX-Bomb: {}\r\n\r\n",
            "A".repeat(16 * 1024)
        );
        let _ = stream.write_all(bomb.as_bytes());
        let mut reply = String::new();
        let _ = stream.read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.1 431"), "got {reply:?}");
    }
    // Connect-and-abandon must not wedge a worker permanently.
    drop(TcpStream::connect(&addr).unwrap());

    // The clean baseline: well-formed traffic only, same concurrency.
    let clean = fan_out(0, |seed| clean(&addr, seed, &expected));

    // Round one: the concurrent storm. Its well-formed tail must stay
    // isolated from the hostile traffic beside it.
    let mixed = fan_out(0, |seed| storm(&addr, seed, &expected));
    assert!(mixed.count() as usize >= CLIENTS * REQUESTS_PER_CLIENT / 2);
    let clean_p99 = clean.quantile(0.99);
    let mixed_p99 = mixed.quantile(0.99);
    let bound = 50 * clean_p99.max(10_000_000);
    assert!(
        mixed_p99 <= bound,
        "well-formed p99 {mixed_p99} ns under hostile traffic breaches 50× the clean \
         p99 {clean_p99} ns (bound {bound} ns)"
    );

    let (code, metrics_one) = http::request(&addr, "GET", "/metrics", "").unwrap();
    assert_eq!(code, 200);
    let requests_one = metric(&metrics_one, "serve.requests").expect("request counter present");
    assert!(requests_one as usize >= CLIENTS * REQUESTS_PER_CLIENT);
    assert_eq!(
        metric(&metrics_one, "serve.request.panics"),
        None,
        "a request panicked"
    );
    assert_eq!(
        metric(&metrics_one, "serve.connection.panics"),
        None,
        "a connection panicked"
    );
    let peak_one =
        metric(&metrics_one, "mem.daemon.peak_live_bytes").expect("daemon peak gauge present");
    assert!(peak_one > 0);

    // Round two: same volume again. The peak must be in steady state —
    // a growing peak under repeat identical load means request state
    // leaks past the request.
    let again = fan_out(3, |seed| storm(&addr, seed, &expected));
    let (_, metrics_two) = http::request(&addr, "GET", "/metrics", "").unwrap();
    let peak_two =
        metric(&metrics_two, "mem.daemon.peak_live_bytes").expect("daemon peak gauge present");
    assert!(
        peak_two <= peak_one + peak_one / 2,
        "peak grew {peak_one} -> {peak_two} across identical storms: request state is leaking"
    );
    // And an absolute ceiling: far above any honest steady state, far
    // below a leak of thousands of retained responses.
    assert!(
        peak_two < 512 * 1024 * 1024,
        "daemon peak {peak_two} bytes is unbounded"
    );

    // Every ok generate the clients received, and nothing else, is in
    // the daemon's own distribution.
    let (code, body) = http::request(&addr, "GET", "/statz?json=1", "").unwrap();
    assert_eq!(code, 200);
    let mut client = clean;
    client.merge(&mixed);
    client.merge(&again);
    cross_check_statz(&Json::parse(&body).expect("statz is JSON"), "http", &client);

    // The daemon is still healthy and still byte-identical after the
    // full soak.
    let (code, body) = http::request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    let (code, body) = http::request(&addr, "GET", "/generate/1", "").unwrap();
    assert_eq!(code, 200);
    assert_eq!(&body, &expected[&1]);

    // Protocol-level shutdown: workers drain and join.
    let (code, _) = http::request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(code, 200);
    handle.join();
}

/// One client's storm over the Unix-socket line protocol: a scripted
/// mix of well-formed and hostile lines pipelined through a single
/// connection, every response frame asserted in order. Returns one
/// latency per well-formed generation verified byte-identical: the
/// round trip of the script that carried it, which is never below the
/// daemon's wall time for the generate.
#[cfg(unix)]
fn uds_storm(socket: &std::path::Path, seed: usize, expected: &BTreeMap<u8, String>) -> Histogram {
    use cognicryptgen::serve::uds;

    let ids: Vec<u8> = expected.keys().copied().collect();
    let mut latency = Histogram::new();
    for round in 0..REQUESTS_PER_CLIENT / 5 {
        // One pipelined script per connection: the line protocol's
        // whole point is that hostile lines cannot desynchronise the
        // frames that follow them on the same stream.
        let id = ids[(seed + round) % ids.len()];
        let generate = format!("generate {id}");
        let script = [
            generate.as_str(),
            "healthz",
            "generate definitely-not-a-case",
            "frobnicate now",
            "loadz",
        ];
        let start = Instant::now();
        let responses = uds::request_lines(socket, &script).unwrap();
        let round_trip = elapsed_ns(start);
        assert_eq!(responses.len(), script.len(), "frame count diverged");
        let class = |i: usize| responses[i].get("class").and_then(Json::as_str).unwrap();
        assert_eq!(class(0), "ok", "generate uc{id} failed mid-soak");
        assert_eq!(
            responses[0].get("body").and_then(Json::as_str),
            Some(expected[&id].as_str()),
            "uds output for uc{id} diverged from the one-shot engine"
        );
        latency.record(round_trip);
        assert_eq!(class(1), "ok");
        assert_eq!(class(2), "usage", "hostile selector not typed");
        assert_eq!(class(3), "protocol", "garbage verb not typed");
        assert_eq!(class(4), "ok", "loadz unavailable under load");
        // A separate connection for the over-long line: the daemon
        // answers with a typed protocol error and drops that stream
        // (and only that stream).
        if round % 4 == seed % 4 {
            let bomb = "x".repeat(70 * 1024);
            let responses = uds::request_lines(socket, &[bomb.as_str()]).unwrap();
            assert_eq!(responses.len(), 1);
            assert_eq!(
                responses[0].get("class").and_then(Json::as_str),
                Some("protocol")
            );
        }
    }
    latency
}

/// The HTTP storm assertions, ported to the Unix-socket transport:
/// byte-identical well-formed output beside hostile lines, zero
/// panics, a `/statz` that agrees with the clients, and a daemon peak
/// that reaches steady state instead of growing with the request
/// count.
#[cfg(unix)]
#[test]
fn soak_uds_mixed_hostile_and_well_formed_traffic() {
    use cognicryptgen::serve::uds;

    let _serialized = SOAK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let expected: BTreeMap<u8, String> = {
        let engine = cognicryptgen::jca_engine().expect("shipped rules parse");
        all_use_cases()
            .iter()
            .map(|uc| {
                (
                    uc.id,
                    engine
                        .generate(&uc.template)
                        .expect("generates")
                        .java_source,
                )
            })
            .collect()
    };

    let socket = std::env::temp_dir().join(format!("cognicrypt-soak-{}.sock", std::process::id()));
    std::fs::remove_file(&socket).ok();
    let config = ServeConfig {
        http_addr: None,
        uds_path: Some(socket.clone()),
        threads: 4,
        rules_path: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(&config).expect("daemon boots");

    let metrics_text = |socket: &std::path::Path| -> String {
        let responses = uds::request_lines(socket, &["metrics"]).unwrap();
        responses[0]
            .get("body")
            .and_then(Json::as_str)
            .expect("metrics body")
            .to_owned()
    };

    // Round one: the concurrent storm.
    let first = fan_out(0, |seed| uds_storm(&socket, seed, &expected));
    assert!(first.count() as usize >= CLIENTS * (REQUESTS_PER_CLIENT / 5));

    let metrics_one = metrics_text(&socket);
    assert_eq!(
        metric(&metrics_one, "serve.request.panics"),
        None,
        "a request panicked"
    );
    assert_eq!(
        metric(&metrics_one, "serve.connection.panics"),
        None,
        "a connection panicked"
    );
    let peak_one =
        metric(&metrics_one, "mem.daemon.peak_live_bytes").expect("daemon peak gauge present");
    assert!(peak_one > 0);

    // Round two: same volume again — the peak must be steady-state.
    let again = fan_out(3, |seed| uds_storm(&socket, seed, &expected));
    let metrics_two = metrics_text(&socket);
    let peak_two =
        metric(&metrics_two, "mem.daemon.peak_live_bytes").expect("daemon peak gauge present");
    assert!(
        peak_two <= peak_one + peak_one / 2,
        "peak grew {peak_one} -> {peak_two} across identical storms: request state is leaking"
    );
    assert!(
        peak_two < 512 * 1024 * 1024,
        "daemon peak {peak_two} bytes is unbounded"
    );

    let responses = uds::request_lines(&socket, &["statz json"]).unwrap();
    let statz = responses[0]
        .get("body")
        .and_then(Json::as_str)
        .expect("statz body");
    let mut client = first;
    client.merge(&again);
    cross_check_statz(&Json::parse(statz).expect("statz is JSON"), "uds", &client);

    // Still healthy, still byte-identical, then a protocol shutdown.
    let responses = uds::request_lines(&socket, &["generate 1", "shutdown"]).unwrap();
    assert_eq!(responses[0].get("class").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        responses[0].get("body").and_then(Json::as_str),
        Some(expected[&1].as_str())
    );
    assert_eq!(responses[1].get("class").and_then(Json::as_str), Some("ok"));
    handle.join();
}
