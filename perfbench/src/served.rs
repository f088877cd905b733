//! The traced daemon runs' layer ledger: the daemon's own `/tracez`
//! and `/profilez` records, joined with what the client stamped and
//! with bench-side timings of the daemon's public functions.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use cognicryptgen::javamodel::printer::print_unit;
use cognicryptgen::javamodel::typecheck::check_unit;
use devharness::json::Json;

use crate::daemon::{http_exchange, http_json, UdsConn};
use crate::oracle::Oracle;
use crate::stats::Samples;
use crate::{engine_phases, us, Layers, Log, PROFILE_REQUESTS};

/// The two ends of the measured window are marked with `healthz`
/// requests, which no workload sends otherwise.
pub const MARKER: &str = "healthz";

/// The daemon's observability surface, over the workload's transport.
/// Each request uses a connection of its own: a held Unix-socket
/// connection would keep one of the daemon's two workers from the
/// clients.
pub enum Control {
    Http(String),
    Uds(PathBuf),
}

impl Control {
    fn json(&mut self, what: &str) -> Result<Json, String> {
        match self {
            Control::Http(addr) => http_json(addr, "GET", &format!("/{what}"), ""),
            Control::Uds(path) => UdsConn::connect(path)?.json(what),
        }
    }

    fn marker(&mut self) -> Result<(), String> {
        match self {
            Control::Http(addr) => http_exchange(addr, "GET", &format!("/{MARKER}"), "").map(drop),
            Control::Uds(path) => UdsConn::connect(path)?.request(MARKER).map(drop),
        }
    }

    /// Opens a segment's window: the `/loadz` snapshot before it, the
    /// start marker, and a `/profilez` capture armed for its first
    /// generates.
    pub fn open_window(&mut self) -> Result<Json, String> {
        let loadz = self.json("loadz")?;
        self.marker()?;
        match self {
            Control::Http(addr) => {
                http_json(addr, "POST", "/profilez", &PROFILE_REQUESTS.to_string())?
            }
            Control::Uds(path) => {
                UdsConn::connect(path)?.json(&format!("profilez {PROFILE_REQUESTS}"))?
            }
        };
        Ok(loadz)
    }

    /// Closes a segment's window: the end marker and the `/loadz`
    /// snapshot after it.
    pub fn close_window(&mut self) -> Result<Json, String> {
        self.marker()?;
        self.json("loadz")
    }
}

/// What the daemon recorded about the measured windows.
#[derive(Default)]
pub struct Served {
    /// `wall_ns` of each successful generate on the transport.
    pub dispatch: Samples,
    /// `alloc_bytes` of the same records.
    pub alloc: Samples,
    /// `wall_ns` of every successful reload.
    pub reload: Samples,
    /// Engine span durations (ns) and bytes from the `/profilez`
    /// captures, per phase.
    pub phase_ns: [Samples; 5],
    pub phase_bytes: [Samples; 5],
    /// Whether any capture window closed and was fetched.
    pub profiled: bool,
    /// ORDER-cache hits and misses during the windows (`/loadz`).
    cache_hits: f64,
    cache_misses: f64,
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

impl Served {
    /// Fetches one daemon's `/profilez` capture and `/tracez` ring and
    /// adds the window between its markers, plus the cache traffic
    /// between the `/loadz` snapshots taken at the window's two ends.
    /// Returns a note when the capture was not available.
    pub fn collect(
        &mut self,
        control: &mut Control,
        transport: &str,
        loadz_before: &Json,
        loadz_after: &Json,
    ) -> Result<Option<String>, String> {
        let profilez = control.json("profilez");
        let tracez = control.json("tracez")?;
        self.absorb(&tracez, profilez.as_ref().ok(), transport);
        let cache = |doc: &Json, key: &str| doc.get("order_cache").map_or(0.0, |c| num(c, key));
        self.cache_hits += cache(loadz_after, "hits") - cache(loadz_before, "hits");
        self.cache_misses += cache(loadz_after, "misses") - cache(loadz_before, "misses");
        Ok(profilez
            .err()
            .map(|e| format!("profilez capture unavailable: {e}")))
    }

    /// Adds a `/tracez` document's records and a `/profilez` capture.
    pub fn absorb(&mut self, tracez: &Json, profilez: Option<&Json>, transport: &str) {
        let records = tracez.get("records").and_then(Json::as_arr).unwrap_or(&[]);
        let mut markers: Vec<f64> = records
            .iter()
            .filter(|r| text(r, "endpoint") == MARKER)
            .map(|r| num(r, "request_id"))
            .collect();
        markers.sort_by(f64::total_cmp);
        let (from, to) = match markers[..] {
            [a, b, ..] => (a, b),
            _ => (0.0, f64::INFINITY),
        };
        for r in records {
            let id = num(r, "request_id");
            match text(r, "endpoint") {
                "generate"
                    if text(r, "transport") == transport
                        && text(r, "class") == "ok"
                        && id > from
                        && id < to =>
                {
                    self.dispatch.push_ns(num(r, "wall_ns") as u64);
                    self.alloc.push_ns(num(r, "alloc_bytes") as u64);
                }
                "reload" if text(r, "class") == "ok" => {
                    self.reload.push_ns(num(r, "wall_ns") as u64)
                }
                _ => {}
            }
        }
        if let Some(events) = profilez
            .and_then(|p| p.get("traceEvents"))
            .and_then(Json::as_arr)
        {
            self.profiled = true;
            for e in events.iter().filter(|e| text(e, "ph") == "E") {
                let Some(i) = crate::PHASES
                    .iter()
                    .position(|(layer, _)| layer.strip_prefix("engine.") == Some(text(e, "name")))
                else {
                    continue;
                };
                let args = e.get("args").unwrap_or(&Json::Null);
                self.phase_ns[i].push_ns((num(args, "wall_us") * 1e3) as u64);
                self.phase_bytes[i].push_ns(num(args, "alloc_bytes") as u64);
            }
        }
    }

    /// ORDER-cache hits over lookups in the windows.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache_hits / (self.cache_hits + self.cache_misses).max(1.0)
    }
}

/// Bench-side timings of layers the daemon runs on each generate, on
/// the same use cases the window generated (at most `cap` of them):
/// `find_use_case` on the selector, and `check_unit` and `print_unit`
/// on the use case's expected compilation unit.
pub struct Replayed {
    pub lookup: Samples,
    pub typecheck: Samples,
    pub print: Samples,
}

pub fn replay(oracle: &Oracle, ucs: &[u8], cap: usize) -> Replayed {
    let mut out = Replayed {
        lookup: Samples::default(),
        typecheck: Samples::default(),
        print: Samples::default(),
    };
    for &uc in ucs.iter().take(cap) {
        let expected = oracle.get(uc);
        let selector = uc.to_string();
        let t = Instant::now();
        let found = cognicryptgen::find_use_case(&selector);
        out.lookup.push(t.elapsed());
        let t = Instant::now();
        let checked = check_unit(&expected.unit, &expected.check_table);
        out.typecheck.push(t.elapsed());
        let t = Instant::now();
        let printed = print_unit(&expected.unit);
        out.print.push(t.elapsed());
        let _ = std::hint::black_box((found, checked, printed));
    }
    out
}

/// The per-layer figures and the ledger of a traced daemon run over
/// `transport` (`http` or `uds`). `open` and `warm` are the boot
/// layers' samples; `warm` is empty where the daemon skips warm-up.
pub fn layers(
    transport: &str,
    log: &Log,
    served: &Served,
    replayed: &Replayed,
    open: &Samples,
    warm: &Samples,
) -> Layers {
    let http = transport == "http";
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let dispatch = served.dispatch.dist();
    let wait = log.wait.dist();
    let (wait_p50, body_p50) = if http {
        ("http.wait_p50_us", "http.body_p50_us")
    } else {
        ("uds.wait_p50_us", "uds.body_p50_us")
    };
    let gap = |client: u64, daemon: u64| us(client.saturating_sub(daemon) as f64);
    values.insert(
        wait_p50,
        gap(wait.quantile_ns(0.5), dispatch.quantile_ns(0.5)),
    );
    values.insert(body_p50, log.body.dist().p50_us());
    if http {
        values.insert("http.connect_p50_us", log.connect.dist().p50_us());
        values.insert(
            "http.wait_p99_us",
            gap(wait.tail_ns().1, dispatch.tail_ns().1),
        );
        values.insert(
            "harness.lag_p99_ms",
            log.lag.dist().tail_ns().1 as f64 / 1e6,
        );
    }
    values.insert("serve.dispatch_p50_us", dispatch.p50_us());
    values.insert("serve.dispatch_p99_us", us(dispatch.tail_ns().1 as f64));
    values.insert("serve.lookup_p50_us", replayed.lookup.dist().p50_us());
    values.insert(
        "serve.alloc_kb_per_gen",
        served.alloc.dist().mean_ns() / 1024.0,
    );
    values.insert("serve.reload_p50_us", served.reload.dist().p50_us());
    values.insert(
        "javamodel.typecheck_p50_us",
        replayed.typecheck.dist().p50_us(),
    );
    values.insert("javamodel.print_p50_us", replayed.print.dist().p50_us());
    values.insert("statemachine.cache_hit_ratio", served.cache_hit_ratio());
    values.insert("rules.open_ms", open.dist().p50_ms());
    values.insert("statemachine.warm_ms", warm.dist().p50_ms());

    let mut dispatch_parts = vec![("serve.lookup", us(replayed.lookup.dist().mean_ns()))];
    if served.profiled {
        dispatch_parts.extend(engine_phases(
            &served.phase_ns,
            &served.phase_bytes,
            &mut values,
        ));
    }
    let dispatch_mean = us(dispatch.mean_ns());
    let named: f64 = dispatch_parts.iter().map(|(_, v)| v).sum();
    dispatch_parts.push(("(rest of dispatch)", dispatch_mean - named));

    let client_wait = us(wait.mean_ns()) - dispatch_mean;
    let mut ledger = Vec::new();
    if http {
        ledger.push(("harness.lag", us(log.lag.dist().mean_ns())));
        ledger.push(("http.connect", us(log.connect.dist().mean_ns())));
        ledger.push(("http.wait", client_wait));
    } else {
        ledger.push(("uds.wait", client_wait));
    }
    ledger.push(("serve.dispatch", dispatch_mean));
    ledger.push((
        if http { "http.body" } else { "uds.body" },
        us(log.body.dist().mean_ns()),
    ));
    Layers {
        values,
        ledger,
        total_us: us(log.gen.dist().mean_ns()),
        dispatch_parts,
    }
}
