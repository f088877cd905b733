//! The `load` subcommand: concrete [`Target`]s for the library engine
//! and the daemon's two transports, plus the orchestration that boots a
//! daemon, replays the seeded workload, writes `BENCH_load.json` and
//! turns any isolation violation into the invalid-input exit code.
//!
//! The harness crate ([`cognicrypt_load`]) owns the workload model, the
//! runner and the report; this module owns everything protocol-shaped:
//! how each [`OpKind`] maps onto a library call, an HTTP exchange or a
//! Unix-socket line, and how each response classifies into an
//! [`OutcomeClass`]. Keeping the mapping here (not in the crate) means
//! the harness can be pointed at hostile stub targets in tests, and the
//! crate graph stays acyclic — `crates/load` cannot depend on the
//! facade crate that owns `serve`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use cognicrypt_load::report::{LoadReport, SpecEcho, SUITE};
use cognicrypt_load::workload::{build_schedule, schedule_fingerprint, OpKind, WorkloadSpec};
use cognicrypt_load::{
    cross_check_quantile, run_target, Outcome, OutcomeClass, RunConfig, Target, TargetRun,
};
use devharness::histogram::Histogram;
use devharness::json::Json;

use crate::core::GenEngine;
use crate::fuzz::input::FuzzInput;
use crate::serve::{self, ServeConfig, Server};
use crate::usecases::{all_use_cases, UseCase};
use crate::{find_use_case, jca_engine, Error};

/// Which systems a load run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// The in-process [`GenEngine`] behind [`jca_engine`].
    Library,
    /// The daemon's HTTP transport.
    Http,
    /// The daemon's Unix-socket line protocol (Unix only).
    Uds,
}

impl TargetKind {
    fn parse(name: &str) -> Result<TargetKind, Error> {
        match name {
            "library" => Ok(TargetKind::Library),
            "http" => Ok(TargetKind::Http),
            "uds" => Ok(TargetKind::Uds),
            other => Err(Error::Usage(format!(
                "unknown load target `{other}` (use library, http, uds)"
            ))),
        }
    }
}

/// Everything the `load` subcommand parses from its flags.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Workload seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Mixed-phase operation budget per target.
    pub budget: u64,
    /// Concurrent client threads per target.
    pub clients: usize,
    /// Open-loop aggregate arrival rate (ops/s); `None` = closed loop.
    pub rate: Option<f64>,
    /// Fuzz corpus directory feeding hostile traffic.
    pub corpus: Option<PathBuf>,
    /// Where the report is written.
    pub out: PathBuf,
    /// Mixed p99 must stay within this factor of the clean p99.
    pub p99_factor: f64,
    /// Clean-p99 floor (milliseconds) under the factor bound.
    pub p99_floor_ms: u64,
    /// Targets to drive, in order.
    pub targets: Vec<TargetKind>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            seed: 1,
            budget: 2_000,
            clients: 4,
            rate: None,
            corpus: None,
            out: PathBuf::from(format!("BENCH_{SUITE}.json")),
            p99_factor: 50.0,
            p99_floor_ms: 10,
            targets: if cfg!(unix) {
                vec![TargetKind::Library, TargetKind::Http, TargetKind::Uds]
            } else {
                vec![TargetKind::Library, TargetKind::Http]
            },
        }
    }
}

impl LoadOptions {
    /// Parses the `load` subcommand's flags.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] for unknown flags or unparsable values.
    pub fn parse(args: &[String]) -> Result<LoadOptions, Error> {
        let mut opts = LoadOptions::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| Error::Usage(format!("{name} requires a value")))
            };
            match flag.as_str() {
                "--seed" => opts.seed = parse_num(&value("--seed")?, "--seed")?,
                "--budget" => opts.budget = parse_num(&value("--budget")?, "--budget")?,
                "--clients" => {
                    opts.clients = parse_num::<usize>(&value("--clients")?, "--clients")?
                }
                "--rate" => {
                    let v = value("--rate")?;
                    let rate: f64 = v
                        .parse()
                        .map_err(|_| Error::Usage(format!("invalid --rate `{v}`")))?;
                    opts.rate = (rate > 0.0).then_some(rate);
                }
                "--corpus" => opts.corpus = Some(value("--corpus")?.into()),
                "--out" => opts.out = value("--out")?.into(),
                "--p99-factor" => {
                    let v = value("--p99-factor")?;
                    opts.p99_factor = v
                        .parse()
                        .map_err(|_| Error::Usage(format!("invalid --p99-factor `{v}`")))?;
                }
                "--p99-floor-ms" => {
                    opts.p99_floor_ms = parse_num(&value("--p99-floor-ms")?, "--p99-floor-ms")?
                }
                "--targets" => {
                    opts.targets = value("--targets")?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(TargetKind::parse)
                        .collect::<Result<Vec<_>, _>>()?;
                }
                other => return Err(Error::Usage(format!("unknown load option `{other}`"))),
            }
        }
        if opts.budget == 0 {
            return Err(Error::Usage("--budget must be at least 1".to_owned()));
        }
        if opts.clients == 0 {
            return Err(Error::Usage("--clients must be at least 1".to_owned()));
        }
        if opts.targets.is_empty() {
            return Err(Error::Usage("--targets must name at least one".to_owned()));
        }
        if !cfg!(unix) && opts.targets.contains(&TargetKind::Uds) {
            return Err(Error::Usage(
                "the uds target needs Unix domain sockets".to_owned(),
            ));
        }
        Ok(opts)
    }
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, Error> {
    v.parse()
        .map_err(|_| Error::Usage(format!("invalid {flag} `{v}`")))
}

/// Reads the fuzz corpus directory: every decodable `rule` reproducer
/// becomes hostile traffic. Template reproducers and undecodable files
/// are skipped — the load harness replays hostile *inputs*, it does not
/// re-judge the corpus (that is `fuzz`'s job).
fn load_corpus(dir: &std::path::Path) -> Result<Vec<String>, Error> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| Error::io(dir.display().to_string(), e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    names.sort();
    let mut sources = Vec::new();
    for path in names {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        if let Ok(FuzzInput::Rule(source)) = FuzzInput::decode(&text) {
            sources.push(source);
        }
    }
    Ok(sources)
}

/// Classifies a decoded daemon error class string.
fn classify_error_class(class: &str) -> OutcomeClass {
    match class {
        "ok" => OutcomeClass::Ok,
        "panic" => OutcomeClass::Panic,
        "protocol" | "not_found" | "method_not_allowed" | "too_large" => {
            OutcomeClass::ProtocolError
        }
        _ => OutcomeClass::TypedError,
    }
}

/// Classifies one HTTP `(status, body)` exchange.
fn classify_http(code: u16, body: &str) -> Outcome {
    if code == 200 {
        return Outcome::ok();
    }
    let class = Json::parse(body)
        .ok()
        .and_then(|doc| doc.get("error").and_then(Json::as_str).map(str::to_owned))
        .unwrap_or_else(|| "protocol".to_owned());
    Outcome::classed(
        classify_error_class(&class),
        format!("http {code} class {class}"),
    )
}

/// Percent-encodes arbitrary text into one HTTP path segment.
fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 3);
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The in-process library target: drives the shared [`jca_engine`]
/// directly, with [`catch_unwind`] standing in for the daemon's
/// per-request containment.
struct LibraryTarget {
    engine: &'static GenEngine,
    cases: BTreeMap<u8, UseCase>,
    expected: Arc<BTreeMap<u8, String>>,
}

impl Target for LibraryTarget {
    fn name(&self) -> &'static str {
        "library"
    }

    fn call(&self, op: &OpKind) -> Outcome {
        let contained = |detail: &str, f: &dyn Fn() -> Outcome| -> Outcome {
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(outcome) => outcome,
                Err(_) => Outcome::classed(OutcomeClass::Panic, format!("panic in {detail}")),
            }
        };
        match op {
            OpKind::WellFormed { uc } => {
                let Some(case) = self.cases.get(uc) else {
                    return Outcome::classed(OutcomeClass::Transport, format!("no use case {uc}"));
                };
                contained("generate", &|| match self.engine.generate(&case.template) {
                    Ok(generated) => {
                        Outcome::verified(self.expected.get(uc) == Some(&generated.java_source))
                    }
                    Err(e) => Outcome::classed(OutcomeClass::TypedError, e.to_string()),
                })
            }
            OpKind::HostileSelector { payload } => {
                contained("selector lookup", &|| match find_use_case(payload) {
                    Ok(uc) => Outcome::classed(
                        OutcomeClass::Ok,
                        format!("hostile selector resolved to use case {}", uc.id),
                    ),
                    Err(_) => Outcome::classed(OutcomeClass::TypedError, "rejected"),
                })
            }
            OpKind::HostileRule { source } => {
                contained("crysl parse", &|| match crate::crysl::parse_rule(source) {
                    Ok(_) => Outcome::ok(),
                    Err(_) => Outcome::classed(OutcomeClass::TypedError, "parse rejected"),
                })
            }
            // No transport in-process: protocol attacks degrade to
            // selector garbage the resolver must refuse.
            OpKind::HostileProtocol { variant } => {
                let payload = match variant % 4 {
                    0 => "z".repeat(4096),
                    1 => "\u{1}\u{2}\u{7f}".to_owned(),
                    2 => "../../../../root".to_owned(),
                    _ => "%00%ff%fe".to_owned(),
                };
                contained("selector lookup", &|| match find_use_case(&payload) {
                    Ok(_) => Outcome::classed(OutcomeClass::Ok, "garbage selector resolved"),
                    Err(_) => Outcome::classed(OutcomeClass::TypedError, "rejected"),
                })
            }
            // The library's reload is rebuilding an engine from the
            // shipped pack — same work the daemon does on `/reload`.
            OpKind::Reload => contained("engine rebuild", &|| {
                let rebuilt = crate::rules::open(crate::rules::PackSource::Embedded)
                    .map_err(Error::from)
                    .map(|pack| pack.rules)
                    .and_then(|rules| {
                        GenEngine::builder()
                            .rules(rules)
                            .type_table(crate::javamodel::jca::jca_type_table())
                            .order_cache(self.engine.order_cache().clone())
                            .build()
                            .map_err(Error::from)
                    });
                match rebuilt {
                    Ok(_) => Outcome::ok(),
                    Err(e) => Outcome::classed(OutcomeClass::TypedError, e.to_string()),
                }
            }),
            OpKind::Snapshot => contained("cache stats", &|| {
                let _ = self.engine.cache_stats();
                Outcome::ok()
            }),
        }
    }
}

/// The HTTP transport target.
struct HttpTarget {
    addr: String,
    expected: Arc<BTreeMap<u8, String>>,
}

impl HttpTarget {
    fn exchange(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), Outcome> {
        serve::http::request(&self.addr, method, path, body)
            .map_err(|e| Outcome::classed(OutcomeClass::Transport, e.to_string()))
    }

    /// Writes raw garbage bytes and reads whatever status comes back —
    /// the attack [`serve::http::request`] is too well-behaved to send.
    fn raw_garbage(&self) -> Outcome {
        let go = || -> std::io::Result<(u16, String)> {
            let mut stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
            stream.set_write_timeout(Some(std::time::Duration::from_secs(10)))?;
            stream.write_all(b"\x01\x02 total garbage\r\n\r\n")?;
            stream.flush()?;
            let mut response = String::new();
            let mut reader = std::io::BufReader::new(stream);
            reader.read_to_string(&mut response)?;
            let code = response
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| std::io::Error::other("no status line"))?;
            let body = response
                .split_once("\r\n\r\n")
                .map(|(_, b)| b.to_owned())
                .unwrap_or_default();
            Ok((code, body))
        };
        match go() {
            Ok((code, body)) => classify_http(code, &body),
            Err(e) => Outcome::classed(OutcomeClass::Transport, e.to_string()),
        }
    }
}

impl Target for HttpTarget {
    fn name(&self) -> &'static str {
        "http"
    }

    fn call(&self, op: &OpKind) -> Outcome {
        match op {
            OpKind::WellFormed { uc } => {
                match self.exchange("GET", &format!("/generate/{uc}"), "") {
                    Ok((200, body)) => Outcome::verified(self.expected.get(uc) == Some(&body)),
                    Ok((code, body)) => classify_http(code, &body),
                    Err(outcome) => outcome,
                }
            }
            OpKind::HostileSelector { payload } => {
                let path = format!("/generate/{}", percent_encode(payload));
                match self.exchange("GET", &path, "") {
                    Ok((code, body)) => classify_http(code, &body),
                    Err(outcome) => outcome,
                }
            }
            // A rule source is not a selector: POSTing it must come
            // back as a typed refusal, whatever the bytes are.
            OpKind::HostileRule { source } => match self.exchange("POST", "/generate", source) {
                Ok((code, body)) => classify_http(code, &body),
                Err(outcome) => outcome,
            },
            OpKind::HostileProtocol { variant } => match variant % 4 {
                0 => self.raw_garbage(),
                1 => match self.exchange("DELETE", "/healthz", "") {
                    Ok((code, body)) => classify_http(code, &body),
                    Err(outcome) => outcome,
                },
                2 => match self.exchange("GET", "/no-such-route", "") {
                    Ok((code, body)) => classify_http(code, &body),
                    Err(outcome) => outcome,
                },
                _ => {
                    let path = format!("/{}", "a".repeat(9_000));
                    match self.exchange("GET", &path, "") {
                        Ok((code, body)) => classify_http(code, &body),
                        Err(outcome) => outcome,
                    }
                }
            },
            OpKind::Reload => match self.exchange("POST", "/reload", "") {
                Ok((200, _)) => Outcome::ok(),
                Ok((code, body)) => classify_http(code, &body),
                Err(outcome) => outcome,
            },
            OpKind::Snapshot => match self.exchange("GET", "/loadz", "") {
                Ok((200, body)) => match Json::parse(&body) {
                    Ok(_) => Outcome::ok(),
                    Err(e) => Outcome::classed(OutcomeClass::Transport, format!("loadz body: {e}")),
                },
                Ok((code, body)) => classify_http(code, &body),
                Err(outcome) => outcome,
            },
        }
    }
}

/// The Unix-socket transport target.
#[cfg(unix)]
struct UdsTarget {
    path: PathBuf,
    expected: Arc<BTreeMap<u8, String>>,
}

#[cfg(unix)]
impl UdsTarget {
    /// Sends `lines` on one connection and folds the per-line response
    /// classes into one outcome: any panic wins, then any typed error,
    /// then protocol errors; all-ok is ok.
    fn send(&self, lines: &[&str]) -> Outcome {
        let responses = match serve::uds::request_lines(&self.path, lines) {
            Ok(responses) => responses,
            Err(e) => return Outcome::classed(OutcomeClass::Transport, e.to_string()),
        };
        if responses.is_empty() {
            return Outcome::classed(OutcomeClass::Transport, "no response lines");
        }
        let mut folded = OutcomeClass::Ok;
        let mut detail = String::new();
        for response in &responses {
            let class = response.get("class").and_then(Json::as_str).unwrap_or("");
            let classified = classify_error_class(class);
            let outranks = match classified {
                OutcomeClass::Panic => true,
                OutcomeClass::TypedError => folded != OutcomeClass::Panic,
                OutcomeClass::ProtocolError => folded == OutcomeClass::Ok,
                _ => false,
            };
            if outranks {
                folded = classified;
                detail = format!("uds class {class}");
            }
        }
        Outcome::classed(folded, detail)
    }
}

#[cfg(unix)]
impl Target for UdsTarget {
    fn name(&self) -> &'static str {
        "uds"
    }

    fn call(&self, op: &OpKind) -> Outcome {
        match op {
            OpKind::WellFormed { uc } => {
                let responses =
                    match serve::uds::request_lines(&self.path, &[&format!("generate {uc}")]) {
                        Ok(responses) => responses,
                        Err(e) => return Outcome::classed(OutcomeClass::Transport, e.to_string()),
                    };
                let Some(response) = responses.first() else {
                    return Outcome::classed(OutcomeClass::Transport, "no response line");
                };
                match response.get("class").and_then(Json::as_str) {
                    Some("ok") => Outcome::verified(
                        response.get("body").and_then(Json::as_str)
                            == self.expected.get(uc).map(String::as_str),
                    ),
                    Some(class) => {
                        Outcome::classed(classify_error_class(class), format!("uds class {class}"))
                    }
                    None => Outcome::classed(OutcomeClass::Transport, "frame without class"),
                }
            }
            OpKind::HostileSelector { payload } => self.send(&[&format!("generate {payload}")]),
            // Each line of the rule source hits the line protocol as
            // its own (garbage) request; the stream must stay framed.
            OpKind::HostileRule { source } => {
                let lines: Vec<&str> = source.lines().filter(|l| !l.trim().is_empty()).collect();
                if lines.is_empty() {
                    self.send(&["OBJECTS"])
                } else {
                    self.send(&lines)
                }
            }
            OpKind::HostileProtocol { variant } => match variant % 4 {
                0 => self.send(&[&"x".repeat(70_000)]),
                1 => self.send(&["generate"]),
                2 => self.send(&["frobnicate now"]),
                _ => self.send(&["\u{fffd}\u{fffd} ??"]),
            },
            OpKind::Reload => self.send(&["reload"]),
            OpKind::Snapshot => self.send(&["loadz"]),
        }
    }
}

/// A booted daemon scoped to the load run.
struct DaemonEndpoints {
    http_addr: Option<String>,
    uds_path: Option<PathBuf>,
}

/// Fetches the daemon's `/statz` histogram for successful `generate`
/// requests on one transport, over that same transport.
fn fetch_server_generate_hist(
    endpoints: &DaemonEndpoints,
    kind: TargetKind,
) -> Result<Histogram, Error> {
    let (doc, key) = match kind {
        TargetKind::Http => {
            let addr = endpoints
                .http_addr
                .as_deref()
                .ok_or_else(|| Error::Invalid("daemon bound no HTTP address".to_owned()))?;
            let (code, body) = serve::http::request(addr, "GET", "/statz?json=1", "")
                .map_err(|e| Error::Invalid(format!("statz fetch: {e}")))?;
            if code != 200 {
                return Err(Error::Invalid(format!("statz fetch: status {code}")));
            }
            let doc = Json::parse(&body).map_err(|e| Error::Invalid(format!("statz body: {e}")))?;
            (doc, "http.generate.ok")
        }
        TargetKind::Uds => {
            #[cfg(unix)]
            {
                let path = endpoints
                    .uds_path
                    .as_deref()
                    .ok_or_else(|| Error::Invalid("daemon bound no socket".to_owned()))?;
                let responses = serve::uds::request_lines(path, &["statz json"])
                    .map_err(|e| Error::Invalid(format!("statz fetch: {e}")))?;
                let body = responses
                    .first()
                    .and_then(|r| r.get("body").and_then(Json::as_str))
                    .ok_or_else(|| Error::Invalid("statz fetch: no response body".to_owned()))?;
                let doc =
                    Json::parse(body).map_err(|e| Error::Invalid(format!("statz body: {e}")))?;
                (doc, "uds.generate.ok")
            }
            #[cfg(not(unix))]
            unreachable!("uds target rejected at option parsing")
        }
        TargetKind::Library => {
            return Err(Error::Invalid(
                "the library target has no daemon-side histogram".to_owned(),
            ))
        }
    };
    let hist = doc
        .get(key)
        .ok_or_else(|| Error::Invalid(format!("statz: no `{key}` histogram")))?;
    Histogram::from_json(hist).map_err(|e| Error::Invalid(format!("statz `{key}`: {e}")))
}

/// Runs the full load harness per `opts`: build schedules, boot a
/// daemon when a transport target asks for one, drive every target,
/// write the report, fail on any violation.
///
/// # Errors
///
/// [`Error::Usage`] for bad options, [`Error::Io`] for corpus/report
/// I/O, daemon boot failures as their own classes, and
/// [`Error::Invalid`] (exit code 6) when the run recorded violations —
/// a panicked daemon, a perturbed well-formed response, an accepted
/// hostile input, or a breached p99 bound.
pub fn run_load(opts: &LoadOptions) -> Result<(), Error> {
    let corpus = match &opts.corpus {
        Some(dir) => load_corpus(dir)?,
        None => Vec::new(),
    };
    let cases: BTreeMap<u8, UseCase> = all_use_cases().into_iter().map(|u| (u.id, u)).collect();
    let ids: Vec<u8> = cases.keys().copied().collect();

    let engine = jca_engine()?;
    let mut expected = BTreeMap::new();
    for (id, case) in &cases {
        expected.insert(*id, engine.generate(&case.template)?.java_source);
    }
    let expected = Arc::new(expected);

    let mixed_spec = WorkloadSpec::standard(opts.seed, opts.budget, ids, corpus);
    let clean_budget = (opts.budget / 4).max(1);
    let clean_spec = mixed_spec.clean_baseline(clean_budget);
    let mixed = build_schedule(&mixed_spec);
    let clean = build_schedule(&clean_spec);

    let needs_daemon = opts
        .targets
        .iter()
        .any(|t| matches!(t, TargetKind::Http | TargetKind::Uds));
    let (daemon, endpoints) = if needs_daemon {
        let config = ServeConfig {
            http_addr: opts
                .targets
                .contains(&TargetKind::Http)
                .then(|| "127.0.0.1:0".to_owned()),
            uds_path: opts.targets.contains(&TargetKind::Uds).then(|| {
                std::env::temp_dir().join(format!("cognicrypt-load-{}.sock", std::process::id()))
            }),
            threads: opts.clients.max(2),
            ..ServeConfig::default()
        };
        let handle = Server::start(&config)?;
        let endpoints = DaemonEndpoints {
            http_addr: handle.http_addr().map(|a| a.to_string()),
            uds_path: handle.uds_path().map(PathBuf::from),
        };
        (Some(handle), endpoints)
    } else {
        (
            None,
            DaemonEndpoints {
                http_addr: None,
                uds_path: None,
            },
        )
    };

    let config = RunConfig {
        clients: opts.clients,
        rate: opts.rate,
        p99_factor: opts.p99_factor,
        p99_floor_ns: opts.p99_floor_ms.saturating_mul(1_000_000),
    };

    let mut runs: Vec<TargetRun> = Vec::new();
    let mut daemon_violations = Vec::new();
    let mut gauges: Vec<(String, Json)> = Vec::new();
    for kind in &opts.targets {
        let run = match kind {
            TargetKind::Library => {
                let target = LibraryTarget {
                    engine,
                    cases: cases.clone(),
                    expected: expected.clone(),
                };
                run_target(&target, &clean, &mixed, &config)
            }
            TargetKind::Http => {
                let addr = endpoints
                    .http_addr
                    .clone()
                    .ok_or_else(|| Error::Invalid("daemon bound no HTTP address".to_owned()))?;
                let target = HttpTarget {
                    addr,
                    expected: expected.clone(),
                };
                run_target(&target, &clean, &mixed, &config)
            }
            TargetKind::Uds => {
                #[cfg(unix)]
                {
                    let path = endpoints
                        .uds_path
                        .clone()
                        .ok_or_else(|| Error::Invalid("daemon bound no socket".to_owned()))?;
                    let target = UdsTarget {
                        path,
                        expected: expected.clone(),
                    };
                    run_target(&target, &clean, &mixed, &config)
                }
                #[cfg(not(unix))]
                unreachable!("uds target rejected at option parsing")
            }
        };
        eprintln!(
            "load: {} done — {} ops, {} violations, p99 clean/mixed = {}/{} µs",
            run.target,
            run.clean.total_ops() + run.mixed.total_ops(),
            run.violation_count(),
            run.p99.clean_ns / 1_000,
            run.p99.mixed_ns / 1_000,
        );
        // Cross-check the daemon's own `/statz` wall-time distribution
        // for this transport's `generate` endpoint against the latency
        // the clients observed for the same requests. A daemon that
        // under-reports (stale histogram, dropped records) or a client
        // clock that drifts shows up as an inconsistent pair here.
        if matches!(kind, TargetKind::Http | TargetKind::Uds) {
            let transport = run.target;
            let mut client = run.clean.wellformed();
            client.merge(&run.mixed.wellformed());
            match fetch_server_generate_hist(&endpoints, *kind) {
                Ok(server) => {
                    let check = cross_check_quantile(&server, &client, 0.99);
                    if server.count() != client.count() {
                        daemon_violations.push(format!(
                            "{transport}: daemon counted {} ok generate requests, \
                             clients sent {}",
                            server.count(),
                            client.count(),
                        ));
                    }
                    if !check.ok {
                        daemon_violations.push(format!(
                            "{transport}: daemon p99 bucket [{}, {}] ns cannot describe \
                             the requests clients saw at [{}, {}] ns",
                            check.server_ns.0,
                            check.server_ns.1,
                            check.client_ns.0,
                            check.client_ns.1,
                        ));
                    }
                    eprintln!(
                        "load: {transport} statz cross-check — server p99 in [{}, {}] µs, \
                         client p99 in [{}, {}] µs, {}",
                        check.server_ns.0 / 1_000,
                        check.server_ns.1 / 1_000,
                        check.client_ns.0 / 1_000,
                        check.client_ns.1 / 1_000,
                        if check.ok {
                            "consistent"
                        } else {
                            "INCONSISTENT"
                        },
                    );
                    gauges.push((
                        format!("statz_p99_{transport}"),
                        Json::Obj(vec![
                            ("q".to_owned(), Json::Num(check.q)),
                            (
                                "server_lo_ns".to_owned(),
                                Json::Num(check.server_ns.0 as f64),
                            ),
                            (
                                "server_hi_ns".to_owned(),
                                Json::Num(check.server_ns.1 as f64),
                            ),
                            (
                                "client_lo_ns".to_owned(),
                                Json::Num(check.client_ns.0 as f64),
                            ),
                            (
                                "client_hi_ns".to_owned(),
                                Json::Num(check.client_ns.1 as f64),
                            ),
                            ("server_count".to_owned(), Json::Num(server.count() as f64)),
                            ("client_count".to_owned(), Json::Num(client.count() as f64)),
                            ("ok".to_owned(), Json::Bool(check.ok)),
                        ]),
                    ));
                }
                Err(e) => daemon_violations.push(format!("{transport}: {e}")),
            }
        }
        runs.push(run);
    }

    // End-of-run proof that nothing panicked inside the daemon, even
    // where a response got lost: the daemon's own counters must agree
    // with the per-response classification.
    if let Some(handle) = daemon {
        let snapshot = handle.state().loadz_snapshot();
        for counter in ["request_panics", "connection_panics"] {
            let count = snapshot.get(counter).and_then(Json::as_u64).unwrap_or(0);
            if count > 0 {
                daemon_violations.push(format!("daemon counted {count} {counter}"));
            }
        }
        gauges.push(("daemon".to_owned(), snapshot));
        handle.shutdown();
    }
    if let Some(kb) = devharness::bench::peak_rss_kb() {
        gauges.push(("harness_peak_rss_kb".to_owned(), Json::Num(kb as f64)));
    }

    let report = LoadReport {
        spec: SpecEcho {
            seed: opts.seed,
            budget: opts.budget,
            clean_budget,
            hostile_per_mille: mixed_spec.hostile_per_mille,
            corpus_files: mixed_spec.corpus.len() as u64,
            schedule_fingerprint: schedule_fingerprint(&mixed),
        },
        config,
        targets: runs,
        gauges,
    };
    let violations = report.violation_count() + daemon_violations.len() as u64;
    let doc = report.render();
    std::fs::write(&opts.out, format!("{doc}\n"))
        .map_err(|e| Error::io(opts.out.display().to_string(), e))?;

    print_summary(&report, &daemon_violations);
    println!("load report written to {}", opts.out.display());
    if violations > 0 {
        Err(Error::Invalid(format!(
            "load run recorded {violations} violation(s); see {}",
            opts.out.display()
        )))
    } else {
        Ok(())
    }
}

/// The human-readable run summary printed after the report is written.
fn print_summary(report: &LoadReport, daemon_violations: &[String]) {
    println!(
        "load: seed {} budget {} fingerprint {:016x}",
        report.spec.seed, report.spec.budget, report.spec.schedule_fingerprint
    );
    println!(
        "{:<9} {:>12} {:>12} {:>12} {:>12} {:>10} {:>6}",
        "target", "p50 µs", "p95 µs", "p99 µs", "p99 bound", "ops/s", "viol"
    );
    for run in &report.targets {
        let h = run.mixed.wellformed();
        println!(
            "{:<9} {:>12} {:>12} {:>12} {:>12} {:>10} {:>6}",
            run.target,
            h.quantile(0.50) / 1_000,
            h.quantile(0.95) / 1_000,
            h.quantile(0.99) / 1_000,
            run.p99.bound_ns / 1_000,
            run.mixed.throughput_millihz() / 1_000,
            run.violation_count(),
        );
        for message in run.violations().take(5) {
            println!("  violation: {message}");
        }
    }
    for message in daemon_violations {
        println!("  violation: {message}");
    }
}

/// The `load-check` subcommand: validate a written `BENCH_load.json`
/// structurally, and (with `--digest`) print the deterministic section
/// for the replay gate to diff.
///
/// # Errors
///
/// [`Error::Io`] reading the file; [`Error::Invalid`] for a malformed
/// report or one that recorded violations.
pub fn check_report(path: &str, digest: bool) -> Result<(), Error> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    let doc = Json::parse(&text).map_err(|e| Error::Invalid(format!("{path}: {e}")))?;
    let summary = cognicrypt_load::report::validate(&doc)
        .map_err(|e| Error::Invalid(format!("{path}: {e}")))?;
    if digest {
        print!(
            "{}",
            cognicrypt_load::report::deterministic_digest(&doc)
                .map_err(|e| Error::Invalid(format!("{path}: {e}")))?
        );
    } else {
        println!(
            "{path}: valid load report ({} results, {} target(s), fingerprint {}, {} violation(s))",
            summary.results.len(),
            summary.targets.len(),
            summary.schedule_fingerprint,
            summary.violation_count(),
        );
    }
    if summary.violation_count() > 0 {
        return Err(Error::Invalid(format!(
            "{path}: report records {} violation(s)",
            summary.violation_count()
        )));
    }
    Ok(())
}
