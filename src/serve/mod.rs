//! `cognicryptgen serve` — a long-lived generation daemon over
//! `std::net`, zero external dependencies.
//!
//! Everything else in this workspace is one-shot: parse rules, compile
//! ORDERs, generate, exit. A production system serving heavy traffic
//! needs a *resident* process that pays those costs once and then
//! answers requests from warm state. This module is that process:
//!
//! * one booted [`ServedPack`] (rules parsed once, every ORDER
//!   compiled or seeded at boot) behind a swap lock; each request
//!   reads one `Arc` snapshot of it, so the engine it generates on and
//!   the pack identity and declared cases it checks always belong
//!   together; the engine owns its compiled-ORDER cache, which
//!   hot-reload successors inherit;
//! * two transports over one transport-agnostic request core:
//!   minimal HTTP/1.1 on a [`std::net::TcpListener`] ([`http`]) and a
//!   line/JSON protocol on a Unix socket ([`uds`], unix only), each
//!   served by a pool of workers blocked in `accept`; a stop wakes
//!   them with one connection per worker
//!   ([`ServerState::request_stop`]);
//! * `generate`, `batch` and `report` served concurrently — batch
//!   requests fan out over the engine's existing scatter pool;
//! * `/metrics` rendered from the daemon's [`MetricsRegistry`] (written
//!   on every request, never sampled) plus the engine registry and the
//!   daemon-lifetime allocator counters from
//!   [`cognicrypt_core::memtrack`];
//! * rule-pack hot-reload: `/reload` re-opens the configured
//!   [`PackSource`] (a `*.crysl` source directory or a precompiled
//!   `.crpack` file, auto-detected), boots a successor
//!   [`ServedPack`] sharing the warm cache, swaps the whole value in,
//!   then prunes exactly the cache entries whose content-hash
//!   fingerprints the new pack no longer produces. Reloads run one at
//!   a time, from open to prune. A stale hit is impossible by
//!   construction — the cache key is the hash of the compilation
//!   input (`tests/cache_key_property.rs`) — so pruning is a memory
//!   bound, not a correctness requirement.
//!
//! Error discipline: every request is handled under `catch_unwind`
//! with the same typed [`Error`] classes (and exit-code mapping) as
//! the CLI. Hostile traffic gets a typed protocol error; it can
//! neither panic the daemon nor perturb concurrent well-formed
//! requests (the `serve_soak` suite drives thousands of mixed requests
//! to prove it).

pub mod http;
pub mod obs;
#[cfg(unix)]
pub mod uds;

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cognicrypt_core::memtrack::{self, AllocScope};
use cognicrypt_core::telemetry::{GenRecord, MetricsRegistry};
use cognicrypt_core::GenEngine;
use devharness::json::Json;
use rules::PackSource;

use crate::{report, Error, ServedPack};

/// How long a worker sleeps after a failed `accept` (EMFILE and the
/// like) before it retries, so a persistent error cannot spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Per-connection socket read/write timeout: a hostile client that
/// connects and stalls forever must release its worker.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon configuration, as parsed from `cognicryptgen serve` flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP address for the HTTP transport (`127.0.0.1:0` picks a free
    /// port). `None` disables HTTP.
    pub http_addr: Option<String>,
    /// Path for the Unix-socket transport. `None` disables it.
    pub uds_path: Option<PathBuf>,
    /// Accept-pool workers per transport.
    pub threads: usize,
    /// Rule pack served instead of the embedded JCA set, re-read on
    /// every `reload`: a directory of `*.crysl` sources or a
    /// precompiled `.crpack` file, auto-detected via
    /// [`PackSource::detect`]. `None` serves the embedded pack.
    pub rules_path: Option<PathBuf>,
    /// Requests at least this slow are logged to stderr and counted as
    /// `serve.requests.slow`. `None` disables slow-request logging.
    pub slow_ms: Option<u64>,
    /// Access records kept for `/tracez`
    /// ([`obs::DEFAULT_RING_CAPACITY`] by default); 0 disables
    /// per-request recording entirely (the bench baseline).
    pub obs_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            http_addr: None,
            uds_path: None,
            threads: 0,
            rules_path: None,
            slow_ms: None,
            obs_capacity: obs::DEFAULT_RING_CAPACITY,
        }
    }
}

impl ServeConfig {
    /// A config serving HTTP on `addr` with the default pool.
    pub fn http(addr: impl Into<String>) -> Self {
        ServeConfig {
            http_addr: Some(addr.into()),
            threads: GenEngine::DEFAULT_THREADS,
            ..ServeConfig::default()
        }
    }

    /// Checks the configuration before any resource is bound.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] when no transport is enabled or the thread
    /// count is zero — zero workers can serve nothing, so it is
    /// rejected here exactly as `batch 0` is rejected by the CLI.
    pub fn validate(&self) -> Result<(), Error> {
        if self.threads == 0 {
            return Err(Error::Usage(
                "thread count must be at least 1, got 0".to_owned(),
            ));
        }
        if self.http_addr.is_none() && self.uds_path.is_none() {
            return Err(Error::Usage(
                "serve needs at least one transport: --listen <addr> or --socket <path>".to_owned(),
            ));
        }
        Ok(())
    }
}

/// The pack identity `served` carries, as `/loadz` and `/reload` show
/// it: operators can tell which rules — and which loading path — a
/// resident process is actually using.
fn pack_json(served: &ServedPack) -> Json {
    let boot = served.boot_stats();
    Json::Obj(vec![
        ("origin".to_owned(), Json::Str(boot.origin.clone())),
        (
            "manifest".to_owned(),
            Json::Str(served.manifest().to_string()),
        ),
        ("kind".to_owned(), Json::Str(boot.kind.to_owned())),
        (
            "version".to_owned(),
            Json::Num(f64::from(boot.pack_version)),
        ),
        (
            "fingerprint".to_owned(),
            Json::Str(format!("{:016x}", boot.pack_fingerprint)),
        ),
        ("rules".to_owned(), Json::Num(boot.rules as f64)),
        (
            "precompiled".to_owned(),
            Json::Num(f64::from(u8::from(boot.precompiled))),
        ),
    ])
}

/// The [`PackSource`] a daemon (re)loads from: the configured path —
/// re-classified dir-vs-file on every call, so an operator can even
/// swap a source directory for a `.crpack` between reloads — or the
/// embedded set.
fn pack_source(rules_path: Option<&Path>) -> PackSource {
    rules_path.map_or(PackSource::Embedded, PackSource::detect)
}

/// One protocol request, decoded from either transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Healthz,
    /// Render the daemon + engine metrics.
    Metrics,
    /// A machine-readable load snapshot: request/error/panic totals and
    /// the allocator gauges, as one JSON object. Perfbench reads this
    /// instead of parsing the `/metrics` text.
    Loadz,
    /// Generate one use case (id or name fragment).
    Generate(String),
    /// Generate every shipped use case over `threads` workers.
    Batch(usize),
    /// Build the Table-1 report as JSON.
    Report,
    /// Hot-reload the rule pack and prune the compiled-ORDER cache.
    Reload,
    /// The access-record ring, newest first; optionally errors only.
    Tracez {
        /// Keep only records whose outcome class is not `"ok"`.
        errors_only: bool,
    },
    /// Latency quantiles per `transport.endpoint.class` key: a
    /// human-readable table, or serialized histograms as JSON.
    Statz {
        /// Render serialized histograms instead of the table.
        json: bool,
    },
    /// Arm a trace-capture window over the next N traced requests.
    ProfilezArm(u64),
    /// Fetch the finished trace capture.
    ProfilezGet,
    /// Stop accepting and drain.
    Shutdown,
}

impl Request {
    /// Stable lowercase name, used in `serve.requests.<name>` metrics.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Healthz => "healthz",
            Request::Metrics => "metrics",
            Request::Loadz => "loadz",
            Request::Generate(_) => "generate",
            Request::Batch(_) => "batch",
            Request::Report => "report",
            Request::Reload => "reload",
            Request::Tracez { .. } => "tracez",
            Request::Statz { .. } => "statz",
            Request::ProfilezArm(_) => "profilez_arm",
            Request::ProfilezGet => "profilez",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A finished response, transport-agnostic: the HTTP layer maps `code`
/// to a status line, the line protocol maps `class` to its JSON.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (`200`, `400`, `500`, …).
    pub code: u16,
    /// `"ok"` for success, the [`Error`] class name otherwise.
    pub class: &'static str,
    /// Body media type (`text/plain` or `application/json`).
    pub content_type: &'static str,
    /// Response payload.
    pub body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            code: 200,
            class: "ok",
            content_type,
            body,
        }
    }

    /// Encodes a typed error as a JSON body with the class, message
    /// and the CLI exit code of the same failure — scripts and clients
    /// branch on the class exactly as shell scripts branch on the exit
    /// code.
    pub fn from_error(err: &Error) -> Response {
        let (class, code) = match err {
            Error::Usage(_) => ("usage", 400),
            Error::Rules(_) => ("rules", 500),
            Error::Generation(_) => ("generation", 500),
            Error::Engine(_) => ("engine", 500),
            Error::EngineBuild(_) => ("engine", 500),
            Error::Io { .. } => ("io", 500),
            Error::Invalid(_) => ("invalid", 400),
        };
        let doc = Json::Obj(vec![
            ("error".to_owned(), Json::Str(class.to_owned())),
            ("message".to_owned(), Json::Str(err.to_string())),
            (
                "exit_code".to_owned(),
                Json::Num(f64::from(err.exit_code())),
            ),
        ]);
        Response {
            code,
            class,
            content_type: "application/json",
            body: format!("{doc}\n"),
        }
    }
}

/// The ORDER-cache traffic of the generations one request completed:
/// the sum of their records' counts, for the request's `/tracez`
/// record. Each record also joins an armed `/profilez` capture.
struct CacheTraffic<'p> {
    hits: u64,
    misses: u64,
    profile: &'p obs::ProfileSwitch,
}

impl CacheTraffic<'_> {
    fn add(&mut self, unit: &str, record: &GenRecord) {
        self.hits += record.cache_hits;
        self.misses += record.cache_misses;
        self.profile.fold(unit, record);
    }
}

/// The daemon's shared state: the swappable served pack, the
/// daemon-lifetime metrics registry, and the stop flag with the
/// listeners a stop wakes.
pub struct ServerState {
    served: RwLock<Arc<ServedPack>>,
    /// Held by a reload from open to prune, so reloads never overlap.
    reloading: Mutex<()>,
    metrics: Arc<MetricsRegistry>,
    rules_path: Option<PathBuf>,
    obs: obs::RequestObs,
    profile: obs::ProfileSwitch,
    slow_ns: Option<u64>,
    stop: AtomicBool,
    /// The bound listeners, set once by [`Server::start`] before any
    /// worker runs: [`ServerState::request_stop`] wakes their workers.
    listeners: OnceLock<Vec<Listening>>,
    /// Workers blocked in each listener's `accept`.
    workers_per_listener: usize,
}

impl ServerState {
    /// Builds the warm initial state: the rule pack booted
    /// ([`ServedPack::open`] over the embedded set, a source
    /// directory, or a precompiled `.crpack`) and daemon-lifetime
    /// allocator accounting enabled.
    ///
    /// # Errors
    ///
    /// Rule loading/decoding and boot failures, typed.
    pub fn new(config: &ServeConfig) -> Result<ServerState, Error> {
        config.validate()?;
        let served = ServedPack::open(pack_source(config.rules_path.as_deref()), None)?;
        memtrack::enable_process_stats();
        // Trace ids are seeded from the boot pack's fingerprint:
        // deterministic for a given pack, different across packs.
        let seed = served.boot_stats().pack_fingerprint;
        Ok(ServerState {
            served: RwLock::new(Arc::new(served)),
            reloading: Mutex::new(()),
            metrics: Arc::new(MetricsRegistry::new()),
            rules_path: config.rules_path.clone(),
            obs: obs::RequestObs::new(config.obs_capacity, seed),
            profile: obs::ProfileSwitch::new(),
            slow_ns: config.slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            stop: AtomicBool::new(false),
            listeners: OnceLock::new(),
            workers_per_listener: config.threads,
        })
    }

    /// The pack serving requests right now. A request reads it once
    /// and holds its own `Arc`, so a concurrent hot-reload never
    /// changes the rules, or the pack identity, under it. A poisoned
    /// lock still holds an intact value: the swap is one pointer store.
    pub fn served(&self) -> Arc<ServedPack> {
        self.served
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The daemon-lifetime metrics registry (`serve.*` names).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Whether shutdown was requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Requests shutdown: workers finish their current connection and
    /// exit their accept loops. The first request sets the flag, then
    /// wakes the workers blocked in `accept` with one connection per
    /// worker to each bound listener, so a stop that arrives over one
    /// transport (or in-process) also ends the other's workers. A
    /// worker that accepts after the flag is set drops the connection
    /// unserved and exits, so a wake is never a request.
    pub fn request_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for listener in self.listeners.get().into_iter().flatten() {
            for _ in 0..self.workers_per_listener {
                listener.wake();
            }
        }
    }

    /// [`ServerState::handle_tagged`] with the `"inproc"` transport
    /// tag — the entry point for in-process probing (tests, benches).
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_tagged("inproc", request)
    }

    /// Handles one decoded request with full containment: an
    /// [`AllocScope`] measures the request, its `serve.*` counters and
    /// histograms go straight into the daemon registry (every write is
    /// an add or an observe, which commute, so `/metrics` totals are
    /// independent of request interleaving; and every write happens
    /// outside the request's scope, so its allocation figures never
    /// include them), and a panic anywhere inside is caught and
    /// reported as a typed `"panic"` response — the worker, its
    /// siblings, and the daemon all survive. The finished request is
    /// recorded as a [`obs::RequestRecord`] under `transport`, fed
    /// into the latency histograms, counted against an armed
    /// `/profilez` window, and logged to stderr when it crossed the
    /// `--slow-ms` threshold.
    pub fn handle_tagged(&self, transport: &'static str, request: &Request) -> Response {
        let (request_id, trace_id) = self.obs.begin();
        self.metrics.add("serve.requests", 1);
        self.metrics
            .add(&format!("serve.requests.{}", request.name()), 1);

        let mut cache = CacheTraffic {
            hits: 0,
            misses: 0,
            profile: &self.profile,
        };
        let scope = AllocScope::enter();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(request, &mut cache)));
        let wall = start.elapsed();
        let alloc = scope.finish();
        self.metrics
            .observe("serve.request.peak_live_bytes", alloc.peak_live_bytes);
        self.metrics
            .observe("serve.request.alloc_bytes", alloc.allocated_bytes);

        // Only requests that run the generation pipeline produce
        // records; counting anything else against a capture window
        // would close it without capturing.
        if matches!(
            request,
            Request::Generate(_) | Request::Batch(_) | Request::Report
        ) {
            self.profile.note_request();
        }

        let response = match outcome {
            Ok(Ok(response)) => response,
            Ok(Err(err)) => Response::from_error(&err),
            Err(_) => {
                self.metrics.add("serve.request.panics", 1);
                Response {
                    code: 500,
                    class: "panic",
                    content_type: "application/json",
                    body: format!(
                        "{}\n",
                        Json::Obj(vec![(
                            "error".to_owned(),
                            Json::Str("panic contained to this request".to_owned()),
                        )])
                    ),
                }
            }
        };
        if response.class != "ok" {
            self.metrics
                .add(&format!("serve.errors.{}", response.class), 1);
        }
        self.metrics
            .observe("serve.response.bytes", response.body.len() as u64);

        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        if let Some(slow_ns) = self.slow_ns {
            if wall_ns >= slow_ns {
                self.metrics.add("serve.requests.slow", 1);
                eprintln!(
                    "serve: slow request trace_id={trace_id:016x} transport={transport} \
                     endpoint={} class={} wall_ms={:.1}",
                    request.name(),
                    response.class,
                    wall_ns as f64 / 1e6,
                );
            }
        }
        self.obs.record(obs::RequestRecord {
            request_id,
            trace_id,
            transport,
            endpoint: request.name(),
            selector: match request {
                Request::Generate(selector) => Some(selector.clone()),
                _ => None,
            },
            class: response.class,
            code: response.code,
            wall_ns,
            alloc_bytes: alloc.allocated_bytes,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        });
        response
    }

    /// Records traffic that never parsed into a [`Request`] — a
    /// malformed request line, an unknown route, an oversized body.
    /// Rejections get the same request identity and ring visibility as
    /// routed requests (endpoint `"rejected"`), so hostile traffic is
    /// attributable from `/tracez` alone.
    pub fn record_rejected(&self, transport: &'static str, response: &Response) {
        let (request_id, trace_id) = self.obs.begin();
        self.metrics.add("serve.requests", 1);
        self.metrics
            .add(&format!("serve.errors.{}", response.class), 1);
        self.obs.record(obs::RequestRecord {
            request_id,
            trace_id,
            transport,
            endpoint: "rejected",
            selector: None,
            class: response.class,
            code: response.code,
            wall_ns: 0,
            alloc_bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
        });
    }

    /// The per-request observability surface (for in-process probing).
    pub fn obs(&self) -> &obs::RequestObs {
        &self.obs
    }

    /// Serves one request, adding the records of the generations it
    /// runs to `cache`.
    fn dispatch(&self, request: &Request, cache: &mut CacheTraffic<'_>) -> Result<Response, Error> {
        match request {
            Request::Healthz => Ok(Response::ok("text/plain", "ok\n".to_owned())),
            Request::Metrics => Ok(Response::ok("text/plain", self.render_metrics())),
            Request::Loadz => Ok(Response::ok(
                "application/json",
                format!("{}\n", self.loadz_snapshot()),
            )),
            Request::Generate(selector) => {
                let served = self.served();
                let uc = served.case(selector)?;
                let generated = served.engine().generate(&uc.template)?;
                cache.add(&uc.template.class_name, &generated.record);
                Ok(Response::ok("text/plain", generated.java_source))
            }
            Request::Batch(threads) => {
                if *threads == 0 {
                    return Err(Error::Usage(
                        "thread count must be at least 1, got 0".to_owned(),
                    ));
                }
                let served = self.served();
                let cases = served.cases();
                let templates: Vec<_> = cases.iter().map(|uc| uc.template.clone()).collect();
                let results = served.engine().generate_batch(&templates, *threads);
                let mut members = Vec::with_capacity(cases.len());
                for (uc, result) in cases.iter().zip(results) {
                    let generated = result.map_err(Error::Engine)?;
                    cache.add(&uc.template.class_name, &generated.record);
                    members.push((format!("uc{:02}", uc.id), Json::Str(generated.java_source)));
                }
                Ok(Response::ok(
                    "application/json",
                    format!("{}\n", Json::Obj(members)),
                ))
            }
            Request::Report => {
                let report = report::build_served(&self.served())?;
                for row in &report.rows {
                    cache.add(&row.class, &row.record);
                }
                Ok(Response::ok(
                    "application/json",
                    format!("{}\n", report::to_json(&report)),
                ))
            }
            Request::Reload => self.reload(),
            Request::Tracez { errors_only } => Ok(Response::ok(
                "application/json",
                format!("{}\n", self.obs.tracez_json(*errors_only)),
            )),
            Request::Statz { json } => Ok(if *json {
                Response::ok("application/json", format!("{}\n", self.obs.statz_json()))
            } else {
                Response::ok("text/plain", self.obs.statz_text())
            }),
            Request::ProfilezArm(requests) => {
                if *requests == 0 || *requests > obs::MAX_PROFILE_REQUESTS {
                    return Err(Error::Usage(format!(
                        "profilez request count must be in 1..={}, got {requests}",
                        obs::MAX_PROFILE_REQUESTS
                    )));
                }
                match self.profile.arm(*requests) {
                    Ok(()) => Ok(Response::ok(
                        "application/json",
                        format!(
                            "{}\n",
                            Json::Obj(vec![("armed".to_owned(), Json::Num(*requests as f64),)])
                        ),
                    )),
                    // One capture at a time: arming over an open
                    // window is a typed conflict, not a silent reset.
                    Err(remaining) => Ok(Response {
                        code: 409,
                        class: "conflict",
                        content_type: "application/json",
                        body: format!(
                            "{}\n",
                            Json::Obj(vec![
                                ("error".to_owned(), Json::Str("conflict".to_owned())),
                                (
                                    "message".to_owned(),
                                    Json::Str("a capture window is already armed".to_owned()),
                                ),
                                ("remaining".to_owned(), Json::Num(remaining as f64)),
                            ])
                        ),
                    }),
                }
            }
            Request::ProfilezGet => {
                let (message, remaining) = match self.profile.fetch() {
                    obs::ProfileFetch::Ready(doc) => {
                        return Ok(Response::ok("application/json", format!("{doc}\n")));
                    }
                    obs::ProfileFetch::Armed { remaining } => {
                        ("capture in progress", Some(remaining))
                    }
                    obs::ProfileFetch::Idle => ("no capture armed", None),
                };
                let mut members = vec![
                    ("error".to_owned(), Json::Str("not_found".to_owned())),
                    ("message".to_owned(), Json::Str(message.to_owned())),
                ];
                if let Some(remaining) = remaining {
                    members.push(("remaining".to_owned(), Json::Num(remaining as f64)));
                }
                Ok(Response {
                    code: 404,
                    class: "not_found",
                    content_type: "application/json",
                    body: format!("{}\n", Json::Obj(members)),
                })
            }
            Request::Shutdown => {
                self.request_stop();
                Ok(Response::ok("text/plain", "shutting down\n".to_owned()))
            }
        }
    }

    /// Hot-reloads the rule pack: boot a successor [`ServedPack`] from
    /// the re-opened [`PackSource`] on the live ORDER cache (a source
    /// pack warms before the swap, so no request waits on reload
    /// compilation) → swap the whole value → prune every cache entry
    /// whose fingerprint the new pack does not produce. Reloads are
    /// serialized from open to prune, so the last to open is the last
    /// to swap. A broken pack — an unparsable source, a truncated or
    /// bit-flipped `.crpack` — fails the boot with a typed error and
    /// leaves the served pack and its cache untouched.
    fn reload(&self) -> Result<Response, Error> {
        let _reloading = self
            .reloading
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let source = pack_source(self.rules_path.as_deref());
        let successor = Arc::new(ServedPack::open(source, Some(&self.served()))?);
        *self.served.write().unwrap_or_else(PoisonError::into_inner) = successor.clone();
        let cache = successor.engine().order_cache();
        let keep = successor.fingerprints();
        let dropped = cache.retain_fingerprints(|fp| keep.binary_search(&fp).is_ok());
        self.metrics.add("serve.reloads", 1);
        let doc = Json::Obj(vec![
            (
                "rules".to_owned(),
                Json::Num(successor.engine().rules().len() as f64),
            ),
            (
                "cache_entries_kept".to_owned(),
                Json::Num(cache.len() as f64),
            ),
            (
                "cache_entries_dropped".to_owned(),
                Json::Num(dropped as f64),
            ),
            (
                "cache_entries_seeded".to_owned(),
                Json::Num(successor.boot_stats().cache_seeded as f64),
            ),
            ("pack".to_owned(), pack_json(&successor)),
        ]);
        Ok(Response::ok("application/json", format!("{doc}\n")))
    }

    /// The `/loadz` payload: request, error and panic totals plus the
    /// daemon-lifetime allocator gauges, as one JSON object. Everything
    /// in it also appears in `/metrics`; this is the same data shaped
    /// for a client that samples it programmatically mid-run, as
    /// perfbench reads it around each measured window.
    pub fn loadz_snapshot(&self) -> Json {
        use cognicrypt_core::telemetry::Metric;
        let snapshot = self.metrics.snapshot();
        let counter = |name: &str| -> f64 {
            snapshot.get(name).and_then(Metric::as_counter).unwrap_or(0) as f64
        };
        let mut errors = Vec::new();
        for (name, metric) in &snapshot {
            if let Some(class) = name.strip_prefix("serve.errors.") {
                errors.push((
                    class.to_owned(),
                    Json::Num(metric.as_counter().unwrap_or(0) as f64),
                ));
            }
        }
        let mut members = vec![
            ("requests".to_owned(), Json::Num(counter("serve.requests"))),
            (
                "request_panics".to_owned(),
                Json::Num(counter("serve.request.panics")),
            ),
            (
                "connection_panics".to_owned(),
                Json::Num(counter("serve.connection.panics")),
            ),
            ("reloads".to_owned(), Json::Num(counter("serve.reloads"))),
            ("errors".to_owned(), Json::Obj(errors)),
        ];
        if let Some(stats) = memtrack::process_stats() {
            members.push((
                "mem".to_owned(),
                Json::Obj(vec![
                    (
                        "allocated_bytes".to_owned(),
                        Json::Num(stats.allocated_bytes as f64),
                    ),
                    (
                        "live_bytes".to_owned(),
                        Json::Num(stats.live_bytes.max(0) as f64),
                    ),
                    (
                        "peak_live_bytes".to_owned(),
                        Json::Num(stats.peak_live_bytes.max(0) as f64),
                    ),
                ]),
            ));
        }
        let served = self.served();
        let cache = served.engine().cache_stats();
        members.push((
            "order_cache".to_owned(),
            Json::Obj(vec![
                ("entries".to_owned(), Json::Num(cache.entries as f64)),
                ("hits".to_owned(), Json::Num(cache.hits as f64)),
                ("misses".to_owned(), Json::Num(cache.misses as f64)),
            ]),
        ));
        members.push(("pack".to_owned(), pack_json(&served)));
        Json::Obj(members)
    }

    /// The `/metrics` payload: the daemon registry and the current
    /// engine registry merged (merge order cannot matter — that is the
    /// registry's contract), plus the daemon-lifetime allocator gauges
    /// from [`memtrack::process_stats`].
    pub fn render_metrics(&self) -> String {
        let merged = MetricsRegistry::new();
        merged.merge_from(&self.metrics);
        let served = self.served();
        merged.merge_from(served.engine().metrics());
        if let Some(stats) = memtrack::process_stats() {
            merged.set_gauge("mem.daemon.allocated_bytes", stats.allocated_bytes);
            merged.set_gauge("mem.daemon.live_bytes", stats.live_bytes.max(0) as u64);
            merged.set_gauge(
                "mem.daemon.peak_live_bytes",
                stats.peak_live_bytes.max(0) as u64,
            );
        }
        let boot = served.boot_stats();
        merged.set_gauge("serve.pack.version", u64::from(boot.pack_version));
        merged.set_gauge("serve.pack.fingerprint", boot.pack_fingerprint);
        merged.set_gauge("serve.pack.rules", boot.rules as u64);
        merged.set_gauge("serve.pack.precompiled", u64::from(boot.precompiled));
        self.obs.export_gauges(&merged);
        merged.render_text()
    }
}

/// A running daemon: its state, bound addresses and worker threads.
/// Obtained from [`Server::start`]; [`ServerHandle::shutdown`] stops
/// and joins it (dropping without shutdown detaches the workers).
pub struct ServerHandle {
    state: Arc<ServerState>,
    http_addr: Option<std::net::SocketAddr>,
    uds_path: Option<PathBuf>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The daemon's shared state (for in-process probing in tests).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// The bound HTTP address, when the HTTP transport is enabled.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http_addr
    }

    /// The bound Unix-socket path, when that transport is enabled.
    pub fn uds_path(&self) -> Option<&Path> {
        self.uds_path.as_deref()
    }

    /// Requests shutdown and joins every worker. Idempotent with a
    /// protocol-level `shutdown` that already stopped the daemon.
    pub fn shutdown(mut self) {
        self.state.request_stop();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Blocks until every worker exits (i.e. until a protocol-level
    /// `shutdown` request or [`ServerState::request_stop`]).
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Binds the configured transports, spawns the accept pools and
    /// returns immediately. `threads` workers per transport each block
    /// in `accept` on a shared listener. Both listeners are bound, and
    /// registered with the state for [`ServerState::request_stop`] to
    /// wake, before the first worker starts, so a stop can never miss
    /// a blocked worker.
    ///
    /// # Errors
    ///
    /// Config validation, rule loading, engine build and socket-bind
    /// failures — all typed, nothing panics.
    pub fn start(config: &ServeConfig) -> Result<ServerHandle, Error> {
        let state = Arc::new(ServerState::new(config)?);
        let mut listening = Vec::new();

        let (mut http_addr, mut http_listener) = (None, None);
        if let Some(addr) = &config.http_addr {
            let listener =
                TcpListener::bind(addr.as_str()).map_err(|e| Error::io(addr.clone(), e))?;
            let bound = listener
                .local_addr()
                .map_err(|e| Error::io(addr.clone(), e))?;
            listening.push(Listening::Http(bound));
            (http_addr, http_listener) = (Some(bound), Some(listener));
        }

        let mut uds_path = None;
        #[cfg(unix)]
        let mut uds_listener = None;
        #[cfg(unix)]
        if let Some(path) = &config.uds_path {
            // A stale socket file from a crashed daemon blocks bind;
            // remove it first (connect attempts to it fail anyway).
            let _ = std::fs::remove_file(path);
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| Error::io(path.display().to_string(), e))?;
            listening.push(Listening::Uds(path.clone()));
            (uds_path, uds_listener) = (Some(path.clone()), Some(listener));
        }
        #[cfg(not(unix))]
        if config.uds_path.is_some() {
            return Err(Error::Usage("--socket requires a unix platform".to_owned()));
        }

        let _ = state.listeners.set(listening);

        let mut workers = Vec::new();
        if let Some(listener) = http_listener {
            for ordinal in 0..config.threads {
                let listener = listener
                    .try_clone()
                    .map_err(|e| Error::io("clone http listener", e))?;
                let state = state.clone();
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("serve-http-{ordinal}"))
                        .spawn(move || {
                            accept_loop(
                                &state,
                                || listener.accept().map(|(s, _)| s),
                                http::serve_connection,
                            )
                        })
                        .map_err(|e| Error::io("spawn http worker", e))?,
                );
            }
        }
        #[cfg(unix)]
        if let Some(listener) = uds_listener {
            for ordinal in 0..config.threads {
                let listener = listener
                    .try_clone()
                    .map_err(|e| Error::io("clone uds listener", e))?;
                let state = state.clone();
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("serve-uds-{ordinal}"))
                        .spawn(move || {
                            accept_loop(
                                &state,
                                || listener.accept().map(|(s, _)| s),
                                uds::serve_connection,
                            )
                        })
                        .map_err(|e| Error::io("spawn uds worker", e))?,
                );
            }
        }

        Ok(ServerHandle {
            state,
            http_addr,
            uds_path,
            workers,
        })
    }
}

/// A bound listener as a client reaches it: where
/// [`ServerState::request_stop`] connects to wake the workers blocked
/// in its `accept`.
enum Listening {
    Http(SocketAddr),
    #[cfg(unix)]
    Uds(PathBuf),
}

impl Listening {
    /// Connects once and hangs up at once. An error is ignored: a
    /// connect fails when the listener is already closed, or when its
    /// backlog is full, and then the queued connections wake the
    /// workers instead.
    fn wake(&self) {
        match self {
            Listening::Http(bound) => {
                // A wildcard bind is reached over loopback.
                let mut addr = *bound;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr.ip() {
                        IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                let _ = TcpStream::connect_timeout(&addr, IO_TIMEOUT);
            }
            #[cfg(unix)]
            Listening::Uds(path) => {
                let _ = std::os::unix::net::UnixStream::connect(path);
            }
        }
    }
}

/// One worker's accept loop: block in `accept`, serve each connection
/// to completion, recheck the stop flag. A connection accepted after
/// the flag is set — a [`ServerState::request_stop`] wake, or a client
/// too late — is dropped unserved, so it leaves no record. Connection
/// handling is panic-contained a second time here so even a bug in
/// transport parsing (outside [`ServerState::handle`]'s containment)
/// can never take the worker down.
fn accept_loop<S>(
    state: &Arc<ServerState>,
    mut accept: impl FnMut() -> std::io::Result<S>,
    serve: impl Fn(&ServerState, S),
) {
    while !state.stopping() {
        let accepted = accept();
        if state.stopping() {
            return;
        }
        match accepted {
            Ok(stream) => {
                let result = catch_unwind(AssertUnwindSafe(|| serve(state, stream)));
                if result.is_err() {
                    state.metrics.add("serve.connection.panics", 1);
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}
