//! Per-request observability for the serve daemon.
//!
//! Three surfaces, all fed from [`super::ServerState::handle_tagged`]:
//!
//! * **Access records** — every request (including transport-level
//!   rejections) gets a monotonic request id and a seed-derived FNV-1a
//!   trace id, and ends as one [`RequestRecord`], folded into the
//!   daemon's registry and kept in a fixed-capacity ring buffer served
//!   as `GET /tracez` (newest first, `?errors=1` keeps only non-`ok`
//!   outcomes). The ring is a single short-lived mutex around a
//!   `VecDeque` — one push per request, no allocation beyond the
//!   record itself once the ring is full.
//! * **Latency distributions** — one [`devharness::histogram`]
//!   log-linear histogram per `transport.endpoint.class` key records
//!   request wall time in nanoseconds, with the histogram's documented
//!   1/32 relative-error bound. Rendered as a table (`GET /statz`), as
//!   machine-readable JSON (`GET /statz?json=1`, the format
//!   [`devharness::histogram::Histogram::from_json`] parses — the soak
//!   tests cross-check their client-side p99 against it), and as
//!   `serve.latency.*` gauges in `/metrics`.
//! * **Trace capture** — [`ProfileSwitch`] holds the `POST /profilez`
//!   capture window: the generations that `generate`, `batch` and
//!   `report` requests complete while it is armed are folded, whole,
//!   into a [`TraceRecorder`]. Arming is exclusive (second arm → 409),
//!   and a capture holds only whole generations, so the served trace
//!   always passes `trace-check`.
//!
//! Capacity 0 disables the ring and the histograms (`record` returns at
//! once, the fold still runs): the telemetry bench's baseline.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use cognicrypt_core::telemetry::{GenRecord, Metric, MetricsRegistry, TraceRecorder};
use devharness::histogram::Histogram;
use devharness::json::Json;

/// Access records kept when `--tracez-capacity` is not given.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Upper bound on the `POST /profilez` request count: a capture window
/// is a bounded diagnostic, not a firehose.
pub const MAX_PROFILE_REQUESTS: u64 = 10_000;

/// Locks a mutex, riding through poisoning: every writer below holds
/// the guard only to mutate plain data, so a poisoned value is intact.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The seed-derived trace id: FNV-1a over the daemon seed (the served
/// pack's fingerprint) and the monotonic request id. Deterministic for
/// a given pack and request ordinal, unique per request by
/// construction (FNV-1a is injective-enough over a 16-byte input for a
/// 64-bit output to collide only astronomically), and stable across
/// transports.
pub fn trace_id(seed: u64, request_id: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in seed
        .to_le_bytes()
        .into_iter()
        .chain(request_id.to_le_bytes())
    {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One finished request, as surfaced in `/tracez`.
#[derive(Debug, Clone, Default)]
pub struct RequestRecord {
    /// Monotonic per-daemon ordinal, starting at 1.
    pub request_id: u64,
    /// Seed-derived [`trace_id`].
    pub trace_id: u64,
    /// `"http"`, `"uds"`, or `"inproc"`.
    pub transport: &'static str,
    /// The [`super::Request::name`], or `"rejected"` for traffic that
    /// never parsed into a request.
    pub endpoint: &'static str,
    /// The use-case selector of a `generate` request.
    pub selector: Option<String>,
    /// Outcome class: `"ok"` or the typed error class.
    pub class: &'static str,
    /// HTTP status code of the response.
    pub code: u16,
    /// Request wall time (dispatch, not transport I/O).
    pub wall_ns: u64,
    /// Bytes allocated while handling the request.
    pub alloc_bytes: u64,
    /// Peak live bytes while handling the request.
    pub peak_live_bytes: u64,
    /// Response body length.
    pub response_bytes: u64,
    /// Whether the request reached the `--slow-ms` threshold.
    pub slow: bool,
    /// Compiled-ORDER cache hits of the generations the request
    /// completed: the sum over their records, so concurrent requests
    /// never count each other's traffic. Zero for requests that
    /// complete no generation.
    pub cache_hits: u64,
    /// Compiled-ORDER cache misses, summed the same way.
    pub cache_misses: u64,
}

impl RequestRecord {
    fn is_error(&self) -> bool {
        self.class != "ok"
    }

    /// Adds this request to `registry` under the `serve.*` names: the
    /// `requests` and `errors.<class>` counters; for a routed request
    /// (a rejection never reached dispatch) also `requests.<endpoint>`,
    /// the `request.alloc_bytes`, `request.peak_live_bytes` and
    /// `response.bytes` histograms, and `request.panics`,
    /// `requests.slow` and (a successful reload) `reloads`.
    pub fn fold_into(&self, registry: &MetricsRegistry) {
        registry.add("serve.requests", 1);
        if self.is_error() {
            registry.add(&format!("serve.errors.{}", self.class), 1);
        }
        if self.endpoint == "rejected" {
            return;
        }
        registry.add(&format!("serve.requests.{}", self.endpoint), 1);
        registry.observe("serve.request.peak_live_bytes", self.peak_live_bytes);
        registry.observe("serve.request.alloc_bytes", self.alloc_bytes);
        registry.observe("serve.response.bytes", self.response_bytes);
        let reloaded = self.endpoint == "reload" && !self.is_error();
        for (name, applies) in [
            ("serve.request.panics", self.class == "panic"),
            ("serve.requests.slow", self.slow),
            ("serve.reloads", reloaded),
        ] {
            if applies {
                registry.add(name, 1);
            }
        }
    }

    fn to_json(&self) -> Json {
        let mut members = vec![
            ("request_id".to_owned(), Json::Num(self.request_id as f64)),
            (
                "trace_id".to_owned(),
                Json::Str(format!("{:016x}", self.trace_id)),
            ),
            ("transport".to_owned(), Json::Str(self.transport.to_owned())),
            ("endpoint".to_owned(), Json::Str(self.endpoint.to_owned())),
        ];
        if let Some(selector) = &self.selector {
            members.push(("selector".to_owned(), Json::Str(selector.clone())));
        }
        members.extend([
            ("class".to_owned(), Json::Str(self.class.to_owned())),
            ("code".to_owned(), Json::Num(f64::from(self.code))),
            ("wall_ns".to_owned(), Json::Num(self.wall_ns as f64)),
            ("alloc_bytes".to_owned(), Json::Num(self.alloc_bytes as f64)),
            ("cache_hits".to_owned(), Json::Num(self.cache_hits as f64)),
            (
                "cache_misses".to_owned(),
                Json::Num(self.cache_misses as f64),
            ),
        ]);
        Json::Obj(members)
    }
}

/// Request identity plus the access-record ring and the latency
/// histograms. One instance per daemon, shared by every transport.
pub struct RequestObs {
    seed: u64,
    capacity: usize,
    next_id: AtomicU64,
    ring: Mutex<VecDeque<RequestRecord>>,
    /// Keyed `[transport, endpoint, class]`, which sorts as the joined
    /// `transport.endpoint.class` does.
    latency: Mutex<BTreeMap<[&'static str; 3], Histogram>>,
}

impl RequestObs {
    /// An observer keeping at most `capacity` records, deriving trace
    /// ids from `seed`. Capacity 0 disables recording (ids are still
    /// assigned).
    pub fn new(capacity: usize, seed: u64) -> RequestObs {
        RequestObs {
            seed,
            capacity,
            next_id: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(DEFAULT_RING_CAPACITY))),
            latency: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Assigns the next request identity: `(request_id, trace_id)`.
    pub fn begin(&self) -> (u64, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        (id, trace_id(self.seed, id))
    }

    /// Records one finished request into the ring and its latency
    /// histogram. No-op when the capacity is 0.
    pub fn record(&self, record: RequestRecord) {
        if self.capacity == 0 {
            return;
        }
        lock(&self.latency)
            .entry([record.transport, record.endpoint, record.class])
            .or_default()
            .record(record.wall_ns);
        let mut ring = lock(&self.ring);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The `/tracez` document: capacity, matched record count, and the
    /// records newest-first (optionally errors only).
    pub fn tracez_json(&self, errors_only: bool) -> Json {
        let ring = lock(&self.ring);
        let records: Vec<Json> = ring
            .iter()
            .rev()
            .filter(|r| !errors_only || r.is_error())
            .map(RequestRecord::to_json)
            .collect();
        Json::Obj(vec![
            ("capacity".to_owned(), Json::Num(self.capacity as f64)),
            ("count".to_owned(), Json::Num(records.len() as f64)),
            (
                "errors_only".to_owned(),
                Json::Num(f64::from(u8::from(errors_only))),
            ),
            ("records".to_owned(), Json::Arr(records)),
        ])
    }

    /// The `/statz?json=1` document: one serialized histogram per
    /// `transport.endpoint.class` key, each parseable by
    /// [`Histogram::from_json`].
    pub fn statz_json(&self) -> Json {
        let latency = lock(&self.latency);
        Json::Obj(
            latency
                .iter()
                .map(|(key, hist)| (key.join("."), hist.to_json()))
                .collect(),
        )
    }

    /// The human-readable `/statz` table: wall-time quantiles in
    /// microseconds per `transport.endpoint.class` key.
    pub fn statz_text(&self) -> String {
        let latency = lock(&self.latency);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
            "key", "count", "p50_us", "p95_us", "p99_us", "max_us"
        ));
        let us = |ns: u64| ns as f64 / 1000.0;
        for (key, hist) in latency.iter() {
            out.push_str(&format!(
                "{:<40} {:>10} {:>12.1} {:>12.1} {:>12.1} {:>12.1}\n",
                key.join("."),
                hist.count(),
                us(hist.quantile(0.50)),
                us(hist.quantile(0.95)),
                us(hist.quantile(0.99)),
                us(hist.max()),
            ));
        }
        out
    }

    /// Adds `serve.latency.<key>.{p50,p95,p99,max}_ns` gauges plus the
    /// per-key request count to `metrics` (the `/metrics` render).
    pub fn export_gauges(&self, metrics: &mut BTreeMap<String, Metric>) {
        for (key, hist) in lock(&self.latency).iter() {
            let key = key.join(".");
            for (figure, value) in [
                ("count", hist.count()),
                ("p50_ns", hist.quantile(0.50)),
                ("p95_ns", hist.quantile(0.95)),
                ("p99_ns", hist.quantile(0.99)),
                ("max_ns", hist.max()),
            ] {
                let name = format!("serve.latency.{key}.{figure}");
                metrics.insert(name, Metric::Gauge(value));
            }
        }
    }
}

/// The `POST /profilez` capture window state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum CaptureState {
    /// No capture armed and none ready.
    #[default]
    Idle,
    /// Capturing: `remaining` more counted requests close the window.
    Armed { remaining: u64 },
    /// A finished capture is waiting to be fetched.
    Ready,
}

/// What `GET /profilez` finds.
pub enum ProfileFetch {
    /// Nothing was ever armed (or the last capture was re-armed away).
    Idle,
    /// A capture window is still open.
    Armed {
        /// Counted requests still to come.
        remaining: u64,
    },
    /// The finished capture.
    Ready(Json),
}

/// The daemon's `/profilez` capture window: while it is armed, every
/// generation record a request folds in joins a [`TraceRecorder`].
/// Records arrive whole once their generation returns, so a window
/// opened or closed mid-generation never cuts a span in half.
#[derive(Default)]
pub struct ProfileSwitch {
    capture: Mutex<(CaptureState, TraceRecorder)>,
}

impl ProfileSwitch {
    /// A disarmed switch.
    pub fn new() -> ProfileSwitch {
        ProfileSwitch::default()
    }

    /// Arms a capture window over the next `requests` counted
    /// requests, discarding any previously finished capture.
    ///
    /// # Errors
    ///
    /// The remaining count of an already-armed window — exactly one
    /// capture at a time, so the caller answers 409.
    pub fn arm(&self, requests: u64) -> Result<(), u64> {
        let mut capture = lock(&self.capture);
        if let CaptureState::Armed { remaining } = capture.0 {
            return Err(remaining);
        }
        *capture = (
            CaptureState::Armed {
                remaining: requests,
            },
            TraceRecorder::new(),
        );
        Ok(())
    }

    /// Folds one finished generation of the template class `unit` into
    /// an armed capture; a no-op otherwise.
    pub fn fold(&self, unit: &str, record: &GenRecord) {
        let mut capture = lock(&self.capture);
        if let CaptureState::Armed { .. } = capture.0 {
            capture.1.add(unit, record);
        }
    }

    /// Counts one finished request against an open window; the last
    /// one closes it. Requests that run no generation (`healthz`,
    /// `/tracez` itself, …) must not be counted — the caller filters.
    pub fn note_request(&self) {
        let mut capture = lock(&self.capture);
        if let CaptureState::Armed { remaining } = capture.0 {
            capture.0 = match remaining {
                0 | 1 => CaptureState::Ready,
                _ => CaptureState::Armed {
                    remaining: remaining - 1,
                },
            };
        }
    }

    /// The capture, if one is ready. The capture stays fetchable until
    /// the next [`ProfileSwitch::arm`].
    pub fn fetch(&self) -> ProfileFetch {
        let capture = lock(&self.capture);
        match capture.0 {
            CaptureState::Idle => ProfileFetch::Idle,
            CaptureState::Armed { remaining } => ProfileFetch::Armed { remaining },
            CaptureState::Ready => ProfileFetch::Ready(capture.1.to_json()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, class: &'static str) -> RequestRecord {
        RequestRecord {
            request_id: id,
            trace_id: trace_id(7, id),
            transport: "inproc",
            endpoint: "generate",
            selector: Some("uc01".to_owned()),
            class,
            code: if class == "ok" { 200 } else { 400 },
            wall_ns: 1000 * id,
            alloc_bytes: 64,
            cache_hits: 1,
            ..RequestRecord::default()
        }
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(trace_id(1, 1), trace_id(1, 1));
        assert_ne!(trace_id(1, 1), trace_id(1, 2));
        assert_ne!(trace_id(1, 1), trace_id(2, 1));
        let obs = RequestObs::new(4, 42);
        let (id1, t1) = obs.begin();
        let (id2, t2) = obs.begin();
        assert_eq!((id1, id2), (1, 2));
        assert_eq!(t1, trace_id(42, 1));
        assert_ne!(t1, t2);
    }

    #[test]
    fn ring_evicts_oldest_and_serves_newest_first() {
        let obs = RequestObs::new(3, 0);
        for id in 1..=5 {
            obs.record(record(id, "ok"));
        }
        let doc = obs.tracez_json(false);
        let records = doc.get("records").and_then(Json::as_arr).unwrap();
        let ids: Vec<u64> = records
            .iter()
            .map(|r| r.get("request_id").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(ids, [5, 4, 3]);
        assert_eq!(doc.get("capacity").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn errors_filter_keeps_only_non_ok_outcomes() {
        let obs = RequestObs::new(8, 0);
        obs.record(record(1, "ok"));
        obs.record(record(2, "usage"));
        obs.record(record(3, "ok"));
        let doc = obs.tracez_json(true);
        let records = doc.get("records").and_then(Json::as_arr).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].get("class").and_then(Json::as_str),
            Some("usage")
        );
    }

    #[test]
    fn capacity_zero_disables_recording() {
        let obs = RequestObs::new(0, 0);
        obs.record(record(1, "ok"));
        let doc = obs.tracez_json(false);
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(0));
        assert_eq!(obs.statz_json(), Json::Obj(vec![]));
    }

    #[test]
    fn statz_histograms_round_trip_and_bound_the_samples() {
        let obs = RequestObs::new(16, 0);
        for id in 1..=10 {
            obs.record(record(id, "ok"));
        }
        let doc = obs.statz_json();
        let hist = Histogram::from_json(doc.get("inproc.generate.ok").unwrap()).unwrap();
        assert_eq!(hist.count(), 10);
        assert_eq!(hist.max(), 10_000);
        let (lo, hi) = hist.quantile_bounds(0.5);
        assert!(lo <= 5000 && 5000 <= hi, "p50 bounds {lo}..{hi}");
        let text = obs.statz_text();
        assert!(text.contains("inproc.generate.ok"));
        assert!(text.lines().count() >= 2);
    }

    #[test]
    fn profile_switch_arm_capture_fetch_state_machine() {
        let switch = ProfileSwitch::new();
        assert!(matches!(switch.fetch(), ProfileFetch::Idle));
        // A note with nothing armed is a no-op.
        switch.note_request();
        switch.arm(2).unwrap();
        // Double-arm is refused with the remaining count.
        assert_eq!(switch.arm(5), Err(2));
        assert!(matches!(
            switch.fetch(),
            ProfileFetch::Armed { remaining: 2 }
        ));
        // While armed, finished generations join the capture.
        let mut record = GenRecord::default();
        record.phases[0].spans = 1;
        switch.fold("U", &record);
        switch.note_request();
        switch.note_request();
        let ProfileFetch::Ready(doc) = switch.fetch() else {
            panic!("capture should be ready after the window closes");
        };
        cognicrypt_core::telemetry::validate_trace(&doc).unwrap();
        assert_eq!(
            doc.get("traceEvents").and_then(Json::as_arr).unwrap().len(),
            2
        );
        // Disarmed again: folds are dropped, the capture stays fetchable.
        switch.fold("V", &record);
        let ProfileFetch::Ready(doc) = switch.fetch() else {
            panic!("capture should remain fetchable");
        };
        assert_eq!(
            doc.get("traceEvents").and_then(Json::as_arr).unwrap().len(),
            2
        );
        // Re-arming discards it and opens a fresh window.
        switch.arm(1).unwrap();
        assert!(matches!(
            switch.fetch(),
            ProfileFetch::Armed { remaining: 1 }
        ));
    }
}
