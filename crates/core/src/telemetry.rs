//! Pipeline telemetry: one fixed-shape [`GenRecord`] per generation,
//! the live span hooks of [`GenObserver`], a metrics registry the
//! records fold into, and a Chrome-trace recorder.
//!
//! The paper's evaluation (Table 1, RQ2/RQ3) reports *per-use-case*
//! runtime and memory for the five-phase pipeline, and the CrySL line of
//! work stresses rule-level diagnostics over opaque totals. This module
//! is the observability layer that makes both visible without changing
//! what the pipeline emits:
//!
//! * [`GenRecord`] — what one generation decided and what each phase
//!   cost: per-[`Phase`] wall time and [`AllocDelta`] (when
//!   [`crate::memtrack`] is installed), ORDER-cache hits and misses, DFA
//!   state counts, enumerated accepting paths, path-selection candidates
//!   and per-parameter resolution kinds. It holds no heap data, so the
//!   phases write it without allocating; every generation returns it as
//!   `Generated::record`.
//! * [`GenRecord::fold_into`] — the one mapping from records onto named
//!   metrics in a [`MetricsRegistry`]: counters, gauges and histograms
//!   whose merges commute, so per-generation folds in input order give
//!   one aggregate regardless of scheduling.
//! * [`TraceRecorder`] — another fold over records: each phase's start
//!   offset on one process-wide monotonic clock and its wall time
//!   become a `B`/`E` pair in Chrome Trace Event Format, openable in
//!   `chrome://tracing` or Perfetto ([`validate_trace`] checks a
//!   written file's invariants).
//! * [`GenObserver`] — the live hook trait: one span per [`Phase`] per
//!   template (enter, then exit with the measured wall time and the
//!   span's [`AllocDelta`]). No surface of this repository attaches
//!   one; it stays for outside users.
//!
//! Everything here is `std`-only; the [`NoopObserver`] path adds no
//! measurable work, and the differential suite proves telemetry-on
//! output byte-identical to telemetry-off.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use devharness::json::Json;

use crate::memtrack::{AllocDelta, AllocScope};

/// The five pipeline phases of the paper's Figure 6, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Gather rules and template parameters from each call chain.
    Collect,
    /// Connect rules through ENSURES/REQUIRES predicates.
    Link,
    /// Select a method sequence per rule from its state machine.
    Select,
    /// Find a value for every method parameter.
    Resolve,
    /// Emit the Java code, the showcase class, and the type check.
    Assemble,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 5] = [
        Phase::Collect,
        Phase::Link,
        Phase::Select,
        Phase::Resolve,
        Phase::Assemble,
    ];

    /// Stable lowercase name, used in metric keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Collect => "collect",
            Phase::Link => "link",
            Phase::Select => "select",
            Phase::Resolve => "resolve",
            Phase::Assemble => "assemble",
        }
    }

    /// Position in [`Phase::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One phase execution for one template: the unit label is the template
/// class name, which is what Table 1 keys its rows by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span<'a> {
    /// Template class name (the per-use-case label).
    pub unit: &'a str,
    /// The pipeline phase this span covers.
    pub phase: Phase,
}

/// How a rule parameter obtained its value (the discriminant of
/// [`crate::resolve::Resolution`], without payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionKind {
    /// Bound to a template variable by `addParameter`.
    Template,
    /// Supplied by a predicate link from an earlier rule.
    Linked,
    /// Bound by an earlier event of the same rule.
    OwnReturn,
    /// A literal derived from CONSTRAINTS.
    Constraint,
    /// Unresolvable — hoisted into the wrapper signature.
    Hoist,
}

impl ResolutionKind {
    /// Position in [`GenRecord::resolutions`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Observer hooks for the generation pipeline.
///
/// Both methods have empty defaults, so an implementation only overrides
/// what it cares about. Implementations must be `Send + Sync`: the
/// engine shares one observer across batch workers. Hook invariants the
/// generator guarantees (and the test suite enforces):
///
/// * spans never nest and arrive in [`Phase::ALL`] order — exactly one
///   `span_enter`/`span_exit` pair per phase per generated template;
/// * `span_exit` receives the monotonic wall time of the span plus the
///   span's [`AllocDelta`] — the same figures the generation's
///   [`GenRecord`] keeps — and is called even when the phase fails
///   (the error still propagates);
/// * the alloc delta is all zeros unless the binary installed
///   [`crate::memtrack::TrackingAlloc`] as its global allocator.
pub trait GenObserver: Send + Sync {
    /// A pipeline phase is starting for `span.unit`.
    fn span_enter(&self, span: &Span<'_>) {
        let _ = span;
    }

    /// A pipeline phase finished after `elapsed` of monotonic wall
    /// time, allocating `alloc` on the executing thread.
    fn span_exit(&self, span: &Span<'_>, elapsed: Duration, alloc: AllocDelta) {
        let _ = (span, elapsed, alloc);
    }
}

/// The do-nothing observer: the default everywhere, and the reference
/// point of the telemetry-off differential tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl GenObserver for NoopObserver {}

/// A `&'static` no-op observer for default parameters.
pub fn noop() -> &'static NoopObserver {
    static NOOP: NoopObserver = NoopObserver;
    &NOOP
}

/// RAII span: `span_enter` on construction; on drop, the start offset,
/// the measured monotonic time and the span's [`AllocDelta`] go into
/// the phase's slot of the generation's [`GenRecord`] and to
/// `span_exit` — so a phase that errors out still closes its span and
/// the enter/exit pairing invariant holds.
///
/// The span holds the record for as long as the phase runs; the phase
/// body adds to it through [`SpanTimer::record`]. The allocation scope
/// opens *after* `span_enter` returns and the delta is computed
/// *before* `span_exit` runs, so an observer's own bookkeeping at the
/// span boundaries is never charged to the phase.
pub struct SpanTimer<'o, 'u, 'r> {
    observer: &'o dyn GenObserver,
    span: Span<'u>,
    record: &'r mut GenRecord,
    scope: Option<AllocScope>,
    start: Instant,
}

impl<'o, 'u, 'r> SpanTimer<'o, 'u, 'r> {
    /// Opens the span and starts the clock and the allocation scope.
    pub fn enter(observer: &'o dyn GenObserver, span: Span<'u>, record: &'r mut GenRecord) -> Self {
        observer.span_enter(&span);
        let scope = Some(AllocScope::enter());
        // Fixed before the clock reads, so no span starts before it.
        epoch();
        SpanTimer {
            observer,
            span,
            record,
            scope,
            start: Instant::now(),
        }
    }

    /// The generation's record, for the phase to add what it decided.
    pub fn record(&mut self) -> &mut GenRecord {
        self.record
    }
}

impl Drop for SpanTimer<'_, '_, '_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let alloc = self
            .scope
            .take()
            .map(AllocScope::finish)
            .unwrap_or_default();
        let slot = &mut self.record.phases[self.span.phase.index()];
        if slot.spans == 0 {
            slot.start = self.start.duration_since(epoch());
        }
        slot.spans += 1;
        slot.total += elapsed;
        slot.alloc_bytes += alloc.allocated_bytes;
        slot.allocations += alloc.allocations;
        slot.peak_live_bytes = slot.peak_live_bytes.max(alloc.peak_live_bytes);
        self.observer.span_exit(&self.span, elapsed, alloc);
    }
}

// ---------------------------------------------------------------------
// GenRecord
// ---------------------------------------------------------------------

/// Wall time, span count and allocation activity of one phase of one
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStat {
    /// Completed spans: 1 once the phase ran, 0 when an earlier phase
    /// failed.
    pub spans: u64,
    /// When the phase's first span started, as an offset from the
    /// process-wide trace epoch: where [`TraceRecorder`] places it.
    pub start: Duration,
    /// Monotonic wall time of the phase.
    pub total: Duration,
    /// Bytes allocated inside the phase (zero unless
    /// [`crate::memtrack::TrackingAlloc`] is installed).
    pub alloc_bytes: u64,
    /// Allocations inside the phase.
    pub allocations: u64,
    /// Scope-relative peak of live bytes the phase reached.
    pub peak_live_bytes: u64,
}

/// One generation's telemetry, in a fixed shape: the five phases'
/// [`PhaseStat`]s, written as each span closes, and the rule-level
/// facts the select and resolve phases decide. A failed generation's
/// record holds what ran before the failure.
///
/// Metric names [`GenRecord::fold_into`] writes:
///
/// * `phase.<phase>.spans` — completed spans per phase (counter);
/// * `mem.phase.<phase>.alloc_bytes` — bytes allocated inside the
///   phase (counter);
/// * `mem.phase.<phase>.peak_live_bytes` — scope-relative peak live
///   bytes per span (histogram; `max` is the figure of interest);
/// * `order_cache.hits` / `order_cache.misses` / `order_cache.uncached`
///   — compiled-ORDER lookups by outcome (counters);
/// * `order.dfa_states`, `order.accepting_paths` — per-rule artefact
///   sizes (histograms);
/// * `pathsel.selections` (counter), `pathsel.candidates` (histogram),
///   `pathsel.hoisted_params` (counter);
/// * `resolve.params`, `resolve.hoisted` and `resolve.via.<kind>` —
///   parameter resolution outcomes (counters).
///
/// A name appears only once something was counted under it. Durations
/// are deliberately *not* folded — wall time varies across runs and
/// would break the registry's determinism; read them from the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenRecord {
    /// One slot per [`Phase::ALL`] entry, in phase order.
    pub phases: [PhaseStat; 5],
    /// Compiled-ORDER lookups served from the cache.
    pub cache_hits: u64,
    /// Compiled-ORDER lookups that compiled and inserted the artefact.
    pub cache_misses: u64,
    /// Rules enumerated with no cache in play (the reference path).
    pub cache_uncached: u64,
    /// States of each looked-up rule's minimized DFA; the uncached
    /// path builds none and records nothing here.
    pub dfa_states: HistogramStat,
    /// Accepting call sequences enumerated per rule.
    pub accepting_paths: HistogramStat,
    /// Paths each path selection considered.
    pub candidates: HistogramStat,
    /// Rules whose path selection finished.
    pub selections: u64,
    /// Parameters the chosen paths leave to the hoisting fallback.
    pub hoisted_params: u64,
    /// Planned parameters per [`ResolutionKind`], indexed by
    /// [`ResolutionKind::index`]; the `Hoist` slot counts fallback
    /// hoists.
    pub resolutions: [u64; 5],
}

/// `[spans, alloc_bytes, peak_live_bytes]` metric names per phase.
const PHASE_KEYS: [[&str; 3]; 5] = [
    [
        "phase.collect.spans",
        "mem.phase.collect.alloc_bytes",
        "mem.phase.collect.peak_live_bytes",
    ],
    [
        "phase.link.spans",
        "mem.phase.link.alloc_bytes",
        "mem.phase.link.peak_live_bytes",
    ],
    [
        "phase.select.spans",
        "mem.phase.select.alloc_bytes",
        "mem.phase.select.peak_live_bytes",
    ],
    [
        "phase.resolve.spans",
        "mem.phase.resolve.alloc_bytes",
        "mem.phase.resolve.peak_live_bytes",
    ],
    [
        "phase.assemble.spans",
        "mem.phase.assemble.alloc_bytes",
        "mem.phase.assemble.peak_live_bytes",
    ],
];

/// Metric name per [`ResolutionKind`] slot.
const RESOLUTION_KEYS: [&str; 5] = [
    "resolve.via.template",
    "resolve.via.linked",
    "resolve.via.own_return",
    "resolve.via.constraint",
    "resolve.hoisted",
];

impl GenRecord {
    /// The stat for one phase.
    pub fn phase(&self, phase: Phase) -> PhaseStat {
        self.phases[phase.index()]
    }

    /// Wall time summed over all five phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|p| p.total).sum()
    }

    /// Bytes allocated, summed over all five phases.
    pub fn alloc_total_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.alloc_bytes).sum()
    }

    /// The largest per-span peak of live bytes any phase reached.
    pub fn peak_live_bytes(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.peak_live_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Parameters planned with resolution `kind`.
    pub fn resolved(&self, kind: ResolutionKind) -> u64 {
        self.resolutions[kind.index()]
    }

    /// Parameters planned, of every kind (`resolve.params`).
    pub fn params(&self) -> u64 {
        self.resolutions.iter().sum()
    }

    /// Adds this record to `registry` under the metric names listed on
    /// [`GenRecord`], taking the registry's lock once.
    pub fn fold_into(&self, registry: &MetricsRegistry) {
        let mut map = registry.lock();
        let mut put = |name: &str, metric| merge_metric(&mut map, name, metric);
        for (stat, [spans, alloc, peak]) in self.phases.iter().zip(PHASE_KEYS) {
            if stat.spans > 0 {
                put(spans, Metric::Counter(stat.spans));
                put(alloc, Metric::Counter(stat.alloc_bytes));
                let mut live = HistogramStat::default();
                live.observe(stat.peak_live_bytes);
                put(peak, Metric::Histogram(live));
            }
        }
        let counters = [
            ("order_cache.hits", self.cache_hits),
            ("order_cache.misses", self.cache_misses),
            ("order_cache.uncached", self.cache_uncached),
            ("pathsel.selections", self.selections),
            ("resolve.params", self.params()),
        ];
        for (name, n) in counters
            .into_iter()
            .chain(RESOLUTION_KEYS.into_iter().zip(self.resolutions))
        {
            if n > 0 {
                put(name, Metric::Counter(n));
            }
        }
        if self.selections > 0 {
            put(
                "pathsel.hoisted_params",
                Metric::Counter(self.hoisted_params),
            );
        }
        for (name, h) in [
            ("order.dfa_states", self.dfa_states),
            ("order.accepting_paths", self.accepting_paths),
            ("pathsel.candidates", self.candidates),
        ] {
            if h.count > 0 {
                put(name, Metric::Histogram(h));
            }
        }
    }
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

/// Order-insensitive histogram summary: merging two summaries gives the
/// same result whatever the merge order, which is what makes batch
/// metrics deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramStat {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramStat {
    /// Folds one sample in.
    pub fn observe(&mut self, sample: u64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
    }

    /// Folds another summary in (commutative and associative).
    pub fn merge(&mut self, other: &HistogramStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Arithmetic mean of the samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Monotonic count; merges by addition.
    Counter(u64),
    /// Last-set value; merges by maximum (the only order-insensitive
    /// choice that keeps batch aggregation deterministic).
    Gauge(u64),
    /// Sample summary; merges per [`HistogramStat::merge`].
    Histogram(HistogramStat),
}

impl Metric {
    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            Metric::Counter(n) => Some(*n),
            _ => None,
        }
    }

    /// The histogram summary, if this is a histogram.
    pub fn as_histogram(&self) -> Option<HistogramStat> {
        match self {
            Metric::Histogram(h) => Some(*h),
            _ => None,
        }
    }
}

/// Merges `metric` into the entry `name`, creating it empty first:
/// counters add, gauges take the maximum, histograms merge. A kind
/// mismatch leaves the entry intact (and is flagged in debug builds).
fn merge_metric(map: &mut BTreeMap<String, Metric>, name: &str, metric: Metric) {
    if !map.contains_key(name) {
        let empty = match metric {
            Metric::Counter(_) => Metric::Counter(0),
            Metric::Gauge(_) => Metric::Gauge(0),
            Metric::Histogram(_) => Metric::Histogram(HistogramStat::default()),
        };
        map.insert(name.to_owned(), empty);
    }
    match (map.get_mut(name).expect("inserted above"), metric) {
        (Metric::Counter(mine), Metric::Counter(n)) => *mine += n,
        (Metric::Gauge(mine), Metric::Gauge(g)) => *mine = (*mine).max(g),
        (Metric::Histogram(mine), Metric::Histogram(h)) => mine.merge(&h),
        (mine, theirs) => {
            debug_assert!(
                false,
                "`{name}`: metric kind mismatch: {mine:?} vs {theirs:?}"
            );
        }
    }
}

/// A thread-safe registry of named counters, gauges and histograms.
///
/// Keys are sorted (`BTreeMap`), every merge operation is commutative
/// and associative, and histograms store order-insensitive summaries —
/// so two registries that saw the same multiset of operations are equal,
/// and folding per-generation records in input order after a batch
/// yields the same aggregate at any thread count.
///
/// A name is bound to the kind of its first write; operations of a
/// different kind on the same name are ignored (and flagged in debug
/// builds) rather than corrupting the entry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter `name`, creating it at zero first.
    pub fn add(&self, name: &str, n: u64) {
        merge_metric(&mut self.lock(), name, Metric::Counter(n));
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        let mut map = self.lock();
        match map.entry(name.to_owned()).or_insert(Metric::Gauge(value)) {
            Metric::Gauge(g) => *g = value,
            other => debug_assert!(false, "`{name}` is not a gauge: {other:?}"),
        }
    }

    /// Folds `sample` into the histogram `name`.
    pub fn observe(&self, name: &str, sample: u64) {
        let mut h = HistogramStat::default();
        h.observe(sample);
        merge_metric(&mut self.lock(), name, Metric::Histogram(h));
    }

    /// The metric registered under `name`.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.lock().get(name).copied()
    }

    /// The counter `name`, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.get(name).and_then(|m| m.as_counter()).unwrap_or(0)
    }

    /// Folds every metric of `other` into this registry: counters add,
    /// gauges take the maximum, histograms merge their summaries. The
    /// result is independent of merge order.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        let theirs = other.snapshot();
        let mut map = self.lock();
        for (name, metric) in theirs {
            merge_metric(&mut map, &name, metric);
        }
    }

    /// All metrics, keyed and sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, Metric> {
        self.lock().clone()
    }

    /// Whether no metric was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Renders every metric as a line-oriented text exposition, sorted
    /// by name — the payload of a daemon's `/metrics` endpoint. One
    /// line per metric:
    ///
    /// ```text
    /// <name> counter <value>
    /// <name> gauge <value>
    /// <name> histogram count=<n> sum=<s> min=<lo> max=<hi>
    /// ```
    ///
    /// The format is deterministic: two registries that saw the same
    /// multiset of operations render byte-identical text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, metric) in self.snapshot() {
            match metric {
                Metric::Counter(n) => {
                    let _ = writeln!(out, "{name} counter {n}");
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} gauge {g}");
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name} histogram count={} sum={} min={} max={}",
                        h.count, h.sum, h.min, h.max
                    );
                }
            }
        }
        out
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

// ---------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------

/// The process-wide origin of every [`PhaseStat::start`]: one monotonic
/// clock, fixed before the first span of the process reads it.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A fold of whole generation records into a [Chrome Trace Event
/// Format] document — load the written file in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev) to see the pipeline's phases on
/// a timeline.
///
/// Each record brings its phases' start offsets and wall times, so the
/// fold needs no live hook. At render time every generation goes to a
/// lane (`tid`): in start order, the first lane whose last generation
/// has ended, so a batch needs no more lanes than it had threads.
/// What [`validate_trace`] checks then holds by construction:
///
/// * every `B` has a matching `E` with the same name on the same `tid`
///   (the fold only ever holds whole generations);
/// * timestamps are non-decreasing per `tid` (a generation's phases
///   run one after another, and a lane's generations do not overlap);
/// * `E` events carry the phase's wall time and allocation figures in
///   `args`.
///
/// [Chrome Trace Event Format]:
/// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
#[derive(Debug, Default)]
pub struct TraceRecorder {
    generations: Vec<(String, GenRecord)>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Folds in one generation of the template class `unit`.
    pub fn add(&mut self, unit: &str, record: &GenRecord) {
        self.generations.push((unit.to_owned(), *record));
    }

    /// Renders the folded generations as a Chrome Trace Event Format
    /// document (object form, `traceEvents` array): one `B`/`E` pair
    /// per phase that ran.
    pub fn to_json(&self) -> Json {
        let ran = |record: &GenRecord| {
            let mut phases = record.phases.iter().filter(|p| p.spans > 0);
            let first = phases.next()?;
            let end = phases.fold(first.start + first.total, |end, p| {
                end.max(p.start + p.total)
            });
            Some((first.start, end))
        };
        let mut order: Vec<_> = self
            .generations
            .iter()
            .filter_map(|(unit, record)| Some((ran(record)?, unit, record)))
            .collect();
        order.sort_by_key(|&((start, _), _, _)| start);
        let mut lanes: Vec<Duration> = Vec::new();
        let mut events = Vec::new();
        for ((start, end), unit, record) in order {
            let tid = lanes
                .iter()
                .position(|&free| free <= start)
                .unwrap_or_else(|| {
                    lanes.push(Duration::ZERO);
                    lanes.len() - 1
                });
            lanes[tid] = end;
            for (phase, stat) in Phase::ALL.into_iter().zip(&record.phases) {
                if stat.spans == 0 {
                    continue;
                }
                let unit = ("unit".to_owned(), Json::Str(unit.clone()));
                events.push(trace_event(phase, "B", stat.start, tid, vec![unit.clone()]));
                let figures = [
                    ("wall_us", stat.total.as_secs_f64() * 1e6),
                    ("alloc_bytes", stat.alloc_bytes as f64),
                    ("allocations", stat.allocations as f64),
                    ("peak_live_bytes", stat.peak_live_bytes as f64),
                ];
                let args = std::iter::once(unit)
                    .chain(figures.map(|(k, v)| (k.to_owned(), Json::Num(v))))
                    .collect();
                events.push(trace_event(phase, "E", stat.start + stat.total, tid, args));
            }
        }
        Json::Obj(vec![
            ("traceEvents".to_owned(), Json::Arr(events)),
            ("displayTimeUnit".to_owned(), Json::Str("ms".to_owned())),
        ])
    }
}

/// One Chrome trace event of `phase` at `at` past the epoch, in
/// microseconds.
fn trace_event(
    phase: Phase,
    ph: &str,
    at: Duration,
    tid: usize,
    args: Vec<(String, Json)>,
) -> Json {
    Json::Obj(vec![
        ("name".to_owned(), Json::Str(phase.name().to_owned())),
        ("cat".to_owned(), Json::Str("phase".to_owned())),
        ("ph".to_owned(), Json::Str(ph.to_owned())),
        ("ts".to_owned(), Json::Num(at.as_nanos() as f64 / 1000.0)),
        ("pid".to_owned(), Json::Num(1.0)),
        ("tid".to_owned(), Json::Num(tid as f64)),
        ("args".to_owned(), Json::Obj(args)),
    ])
}

/// Validates a written Chrome-trace document: a `traceEvents` array
/// whose `B`/`E` events are strictly paired (same name, LIFO per
/// `tid`) with non-decreasing timestamps per `tid`; only `B`, `E` and
/// `i` phase types are accepted.
///
/// # Errors
///
/// A description of the first violation found.
pub fn validate_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    // tid → (open-span name stack, last timestamp seen).
    let mut threads: BTreeMap<u64, (Vec<String>, f64)> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `name`"))?;
        let tid = event
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing numeric `tid`"))?;
        let ts = event
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric `ts`"))?;
        let (stack, last_ts) = threads.entry(tid).or_insert_with(|| (Vec::new(), ts));
        if ts < *last_ts {
            return Err(format!(
                "event {i}: timestamp {ts} goes backwards on tid {tid} (last {last_ts})"
            ));
        }
        *last_ts = ts;
        match ph {
            "B" => stack.push(name.to_owned()),
            "E" => match stack.pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: `E` for `{name}` closes open span `{open}` on tid {tid}"
                    ));
                }
                None => {
                    return Err(format!(
                        "event {i}: `E` for `{name}` without an open span on tid {tid}"
                    ));
                }
            },
            "i" => {}
            other => return Err(format!("event {i}: unsupported phase type `{other}`")),
        }
    }
    for (tid, (stack, _)) in &threads {
        if let Some(open) = stack.last() {
            return Err(format!("span `{open}` left open on tid {tid}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered_and_named() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["collect", "link", "select", "resolve", "assemble"]);
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn span_timer_pairs_enter_and_exit_and_records_even_on_early_exit() {
        #[derive(Default)]
        struct Log(Mutex<Vec<(Phase, bool)>>);
        impl GenObserver for Log {
            fn span_enter(&self, span: &Span<'_>) {
                self.0.lock().unwrap().push((span.phase, true));
            }
            fn span_exit(&self, span: &Span<'_>, _e: Duration, _a: AllocDelta) {
                self.0.lock().unwrap().push((span.phase, false));
            }
        }
        let log = Log::default();
        let mut record = GenRecord::default();
        let mut run = |fail: bool| -> Result<(), ()> {
            let mut span = SpanTimer::enter(
                &log,
                Span {
                    unit: "U",
                    phase: Phase::Select,
                },
                &mut record,
            );
            span.record().selections += 1;
            if fail {
                return Err(());
            }
            Ok(())
        };
        run(false).unwrap();
        run(true).unwrap_err();
        let seq = log.0.lock().unwrap().clone();
        assert_eq!(
            seq,
            vec![
                (Phase::Select, true),
                (Phase::Select, false),
                (Phase::Select, true),
                (Phase::Select, false),
            ]
        );
        assert_eq!(record.selections, 2);
        assert_eq!(record.phase(Phase::Select).spans, 2);
        assert_eq!(record.phase(Phase::Link).spans, 0);
    }

    #[test]
    fn histogram_merge_is_order_insensitive() {
        let samples = [5u64, 1, 9, 3, 3];
        let mut one = HistogramStat::default();
        for s in samples {
            one.observe(s);
        }
        let mut forward = HistogramStat::default();
        let mut backward = HistogramStat::default();
        for s in samples {
            let mut h = HistogramStat::default();
            h.observe(s);
            forward.merge(&h);
        }
        for s in samples.iter().rev() {
            let mut h = HistogramStat::default();
            h.observe(*s);
            backward.merge(&h);
        }
        assert_eq!(one, forward);
        assert_eq!(one, backward);
        assert_eq!(one.count, 5);
        assert_eq!(one.sum, 21);
        assert_eq!((one.min, one.max), (1, 9));
        assert_eq!(one.mean(), Some(4.2));
    }

    #[test]
    fn registry_merge_is_deterministic_across_orders() {
        let build = |ops: &[(&str, u64)]| {
            let r = MetricsRegistry::new();
            for (name, v) in ops {
                match *name {
                    n if n.starts_with("c.") => r.add(n, *v),
                    n if n.starts_with("g.") => r.set_gauge(n, *v),
                    n => r.observe(n, *v),
                }
            }
            r
        };
        let a = build(&[("c.x", 2), ("g.y", 7), ("h.z", 10)]);
        let b = build(&[("c.x", 3), ("g.y", 5), ("h.z", 4)]);
        let ab = MetricsRegistry::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let ba = MetricsRegistry::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.counter("c.x"), 5);
        assert_eq!(ab.get("g.y"), Some(Metric::Gauge(7)));
        let h = ab.get("h.z").unwrap().as_histogram().unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 14, 4, 10));
    }

    #[test]
    fn render_text_is_sorted_stable_and_covers_every_kind() {
        let r = MetricsRegistry::new();
        r.add("serve.requests", 7);
        r.set_gauge("serve.inflight", 2);
        r.observe("serve.bytes", 10);
        r.observe("serve.bytes", 4);
        let text = r.render_text();
        assert_eq!(
            text,
            "serve.bytes histogram count=2 sum=14 min=4 max=10\n\
             serve.inflight gauge 2\n\
             serve.requests counter 7\n"
        );
        // Same operations, different order — byte-identical exposition.
        let r2 = MetricsRegistry::new();
        r2.observe("serve.bytes", 4);
        r2.set_gauge("serve.inflight", 2);
        r2.observe("serve.bytes", 10);
        r2.add("serve.requests", 7);
        assert_eq!(r2.render_text(), text);
        assert_eq!(MetricsRegistry::new().render_text(), "");
    }

    #[test]
    fn record_folds_onto_the_metric_names() {
        let mut record = GenRecord::default();
        record.phases[Phase::Link.index()] = PhaseStat {
            spans: 1,
            start: Duration::from_micros(1),
            total: Duration::from_micros(3),
            alloc_bytes: 4096,
            allocations: 7,
            peak_live_bytes: 2048,
        };
        record.cache_hits = 1;
        record.cache_misses = 1;
        record.dfa_states.observe(4);
        record.dfa_states.observe(4);
        record.accepting_paths.observe(2);
        record.selections = 1;
        record.candidates.observe(2);
        record.resolutions[ResolutionKind::Constraint.index()] = 1;
        record.resolutions[ResolutionKind::Hoist.index()] = 1;

        let r = MetricsRegistry::new();
        record.fold_into(&r);
        record.fold_into(&r);
        assert_eq!(r.counter("order_cache.misses"), 2);
        assert_eq!(r.counter("order_cache.hits"), 2);
        assert_eq!(r.counter("pathsel.selections"), 2);
        assert_eq!(r.counter("resolve.params"), 4);
        assert_eq!(r.counter("resolve.via.constraint"), 2);
        assert_eq!(r.counter("resolve.hoisted"), 2);
        assert_eq!(r.counter("phase.link.spans"), 2);
        assert_eq!(r.counter("mem.phase.link.alloc_bytes"), 8192);
        let peak = r
            .get("mem.phase.link.peak_live_bytes")
            .unwrap()
            .as_histogram()
            .unwrap();
        assert_eq!((peak.count, peak.max), (2, 2048));
        let states = r.get("order.dfa_states").unwrap().as_histogram().unwrap();
        assert_eq!((states.count, states.sum), (4, 16));
        // Zero-valued counts touch nothing, except the hoist counter of
        // a finished selection and the memory counter of a closed span.
        assert_eq!(r.get("pathsel.hoisted_params"), Some(Metric::Counter(0)));
        for absent in [
            "order_cache.uncached",
            "resolve.via.template",
            "phase.collect.spans",
            "mem.phase.collect.alloc_bytes",
        ] {
            assert_eq!(r.get(absent), None, "{absent}");
        }
        GenRecord::default().fold_into(&r);
        assert_eq!(r.counter("pathsel.selections"), 2);
    }

    #[test]
    fn trace_recorder_emits_paired_validated_chrome_events() {
        let mut record = GenRecord::default();
        drop(SpanTimer::enter(
            noop(),
            Span {
                unit: "U",
                phase: Phase::Select,
            },
            &mut record,
        ));
        let mut rec = TraceRecorder::new();
        rec.add("U", &record);
        // A record in which no phase ran adds no event.
        rec.add("V", &GenRecord::default());
        let doc = rec.to_json();
        validate_trace(&doc).unwrap();

        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2); // B, E
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("select"));
        assert_eq!(events[0].get("cat").and_then(Json::as_str), Some("phase"));
        let exit = &events[1];
        assert_eq!(exit.get("ph").and_then(Json::as_str), Some("E"));
        let args = exit.get("args").unwrap();
        assert_eq!(args.get("unit").and_then(Json::as_str), Some("U"));
        for figure in ["wall_us", "alloc_bytes", "allocations", "peak_live_bytes"] {
            assert!(args.get(figure).is_some(), "{figure}");
        }
        // The serialized document round-trips through the writer/parser.
        validate_trace(&Json::parse(&doc.to_string()).unwrap()).unwrap();
    }

    #[test]
    fn trace_lanes_reuse_the_first_free_lane_in_start_order() {
        let at = |start_us, len_us| {
            let mut record = GenRecord::default();
            record.phases[Phase::Collect.index()] = PhaseStat {
                spans: 1,
                start: Duration::from_micros(start_us),
                total: Duration::from_micros(len_us),
                ..PhaseStat::default()
            };
            record
        };
        let mut rec = TraceRecorder::new();
        // Out of start order: [0, 10) and [5, 15) overlap, and [10, 20)
        // starts as the first ends.
        for (start, len) in [(10, 10), (0, 10), (5, 10)] {
            rec.add("U", &at(start, len));
        }
        let doc = rec.to_json();
        validate_trace(&doc).unwrap();
        let begins: Vec<(u64, f64)> = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .map(|e| {
                let num = |k| e.get(k).and_then(Json::as_f64).unwrap();
                (num("tid") as u64, num("ts"))
            })
            .collect();
        assert_eq!(begins, [(0, 0.0), (1, 5.0), (0, 10.0)]);
    }

    #[test]
    fn validate_trace_rejects_malformed_streams() {
        let ev = |ph: &str, name: &str, tid: f64, ts: f64| {
            Json::Obj(vec![
                ("name".to_owned(), Json::Str(name.to_owned())),
                ("ph".to_owned(), Json::Str(ph.to_owned())),
                ("ts".to_owned(), Json::Num(ts)),
                ("tid".to_owned(), Json::Num(tid)),
            ])
        };
        let doc =
            |events: Vec<Json>| Json::Obj(vec![("traceEvents".to_owned(), Json::Arr(events))]);

        assert!(validate_trace(&Json::Obj(vec![])).is_err());
        // Unclosed span.
        assert!(validate_trace(&doc(vec![ev("B", "select", 0.0, 1.0)]))
            .unwrap_err()
            .contains("left open"));
        // E without B.
        assert!(validate_trace(&doc(vec![ev("E", "select", 0.0, 1.0)])).is_err());
        // Name mismatch on close.
        assert!(validate_trace(&doc(vec![
            ev("B", "select", 0.0, 1.0),
            ev("E", "resolve", 0.0, 2.0),
        ]))
        .is_err());
        // Timestamp going backwards on one tid.
        assert!(validate_trace(&doc(vec![
            ev("B", "select", 0.0, 5.0),
            ev("E", "select", 0.0, 3.0),
        ]))
        .unwrap_err()
        .contains("backwards"));
        // Interleaved tids are independent stacks and clocks.
        validate_trace(&doc(vec![
            ev("B", "select", 0.0, 5.0),
            ev("B", "resolve", 1.0, 1.0),
            ev("E", "select", 0.0, 6.0),
            ev("i", "marker", 1.0, 2.0),
            ev("E", "resolve", 1.0, 2.0),
        ]))
        .unwrap();
        // Unsupported phase type.
        assert!(validate_trace(&doc(vec![ev("X", "select", 0.0, 1.0)])).is_err());
    }

    #[test]
    fn kind_mismatch_is_ignored_not_corrupting() {
        // In release builds a mismatched operation must leave the
        // original metric intact. (Debug builds assert instead.)
        let r = MetricsRegistry::new();
        r.add("x", 1);
        if cfg!(not(debug_assertions)) {
            r.observe("x", 5);
            assert_eq!(r.get("x"), Some(Metric::Counter(1)));
        }
        assert_eq!(r.counter("x"), 1);
    }
}
