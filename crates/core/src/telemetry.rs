//! Pipeline telemetry: the `GenObserver` hook API, per-phase timings
//! and memory accounting, a metrics registry, and a Chrome-trace
//! recorder.
//!
//! The paper's evaluation (Table 1, RQ2/RQ3) reports *per-use-case*
//! runtime and memory for the five-phase pipeline, and the CrySL line of
//! work stresses rule-level diagnostics over opaque totals. This module
//! is the observability layer that makes both visible without changing
//! what the pipeline emits:
//!
//! * [`GenObserver`] — the hook trait. The generator opens one span per
//!   [`Phase`] per template (enter/exit with the measured wall time and
//!   the [`AllocDelta`] of the span, when [`crate::memtrack`] is
//!   installed) and reports fine-grained [`Event`]s from inside the
//!   phases: ORDER-cache hits and misses, DFA state counts, enumerated
//!   accepting paths, per-parameter resolution outcomes, batch-worker
//!   job placement.
//! * [`PhaseTimings`] — an observer that accumulates monotonic per-phase
//!   wall time *and* per-phase allocation deltas per template unit —
//!   both of Table 1's measured columns.
//! * [`MetricsRegistry`] — named counters, gauges and histograms with a
//!   deterministic [`MetricsRegistry::merge_from`], so per-worker
//!   registries collected by a batch can be folded in input order into
//!   one aggregate regardless of scheduling.
//! * [`MetricsCollector`] — the observer that maps spans and events onto
//!   a registry (see the module constants for the metric names).
//! * [`TraceRecorder`] — an observer that records the span/event stream
//!   with monotonic timestamps and serializes it in Chrome Trace Event
//!   Format, openable in `chrome://tracing` or Perfetto
//!   ([`validate_trace`] checks a written file's invariants).
//!
//! Everything here is `std`-only and allocation-light; the
//! [`NoopObserver`] path adds no measurable work, and the differential
//! suite proves telemetry-on output byte-identical to telemetry-off.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
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

/// How a compiled-ORDER lookup was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache.
    Hit,
    /// Compiled on this lookup and inserted.
    Miss,
    /// No cache in play — the cold enumeration path.
    Uncached,
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
    /// Stable lowercase name, used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            ResolutionKind::Template => "template",
            ResolutionKind::Linked => "linked",
            ResolutionKind::OwnReturn => "own_return",
            ResolutionKind::Constraint => "constraint",
            ResolutionKind::Hoist => "hoist",
        }
    }
}

/// A fine-grained pipeline event, reported from inside a phase span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// A rule's compiled-ORDER artefact was obtained during selection.
    /// `dfa_states` is `None` on the cold path, which enumerates paths
    /// without building the minimized DFA.
    OrderCompiled {
        /// Rule class name.
        rule: &'a str,
        /// States of the minimized DFA, when compiled.
        dfa_states: Option<usize>,
        /// Enumerated accepting call sequences.
        accepting_paths: usize,
        /// How the artefact was served.
        cache: CacheOutcome,
    },
    /// Path selection finished for one rule.
    PathSelected {
        /// Rule class name.
        rule: &'a str,
        /// Paths the selector considered (the enumerated set).
        enumerated: usize,
        /// Call count of the chosen path.
        chosen_len: usize,
        /// Parameters the chosen path leaves to the hoisting fallback.
        hoisted: usize,
    },
    /// A method parameter of a selected path was resolved.
    ParamResolved {
        /// Rule class name.
        rule: &'a str,
        /// The CrySL variable.
        variable: &'a str,
        /// Which resolution rule supplied the value.
        via: ResolutionKind,
    },
    /// A method parameter fell through to the hoisting fallback.
    ParamHoisted {
        /// Rule class name.
        rule: &'a str,
        /// The CrySL variable.
        variable: &'a str,
    },
    /// A batch job completed on an engine worker. Reported *after* the
    /// fan-out joins, in input order; the worker assignment itself is
    /// scheduling-dependent.
    BatchJob {
        /// Worker ordinal within the batch pool.
        worker: usize,
        /// Index of the job in the batch input.
        index: usize,
    },
}

/// Observer hooks for the generation pipeline.
///
/// All methods have empty defaults, so an implementation only overrides
/// what it cares about. Implementations must be `Send + Sync`: the
/// engine shares one observer across batch workers. Hook invariants the
/// generator guarantees (and the test suite enforces):
///
/// * spans never nest and arrive in [`Phase::ALL`] order — exactly one
///   `span_enter`/`span_exit` pair per phase per generated template;
/// * `span_exit` receives the monotonic wall time of the span plus the
///   span's [`AllocDelta`], and is called even when the phase fails
///   (the error still propagates);
/// * the alloc delta is all zeros unless the binary installed
///   [`crate::memtrack::TrackingAlloc`] as its global allocator;
/// * events are reported between the enter and exit of the phase they
///   belong to, except [`Event::BatchJob`], which the engine reports
///   after the batch joins.
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

    /// A fine-grained pipeline event occurred.
    fn event(&self, event: &Event<'_>) {
        let _ = event;
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

/// Forwards every hook to both targets, in order. Lets the engine run
/// its own metrics collector alongside a user-supplied observer without
/// allocating.
#[derive(Clone, Copy)]
pub struct Tee<'a>(pub &'a dyn GenObserver, pub &'a dyn GenObserver);

impl GenObserver for Tee<'_> {
    fn span_enter(&self, span: &Span<'_>) {
        self.0.span_enter(span);
        self.1.span_enter(span);
    }

    fn span_exit(&self, span: &Span<'_>, elapsed: Duration, alloc: AllocDelta) {
        self.0.span_exit(span, elapsed, alloc);
        self.1.span_exit(span, elapsed, alloc);
    }

    fn event(&self, event: &Event<'_>) {
        self.0.event(event);
        self.1.event(event);
    }
}

/// Forwards every hook to a list of shared observers, in order.
#[derive(Default, Clone)]
pub struct Fanout {
    targets: Vec<Arc<dyn GenObserver>>,
}

impl Fanout {
    /// An empty fan-out (equivalent to [`NoopObserver`]).
    pub fn new() -> Self {
        Fanout::default()
    }

    /// Adds a target observer.
    pub fn with(mut self, target: Arc<dyn GenObserver>) -> Self {
        self.targets.push(target);
        self
    }
}

impl fmt::Debug for Fanout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fanout({} targets)", self.targets.len())
    }
}

impl GenObserver for Fanout {
    fn span_enter(&self, span: &Span<'_>) {
        for t in &self.targets {
            t.span_enter(span);
        }
    }

    fn span_exit(&self, span: &Span<'_>, elapsed: Duration, alloc: AllocDelta) {
        for t in &self.targets {
            t.span_exit(span, elapsed, alloc);
        }
    }

    fn event(&self, event: &Event<'_>) {
        for t in &self.targets {
            t.event(event);
        }
    }
}

/// RAII span: `span_enter` on construction, `span_exit` with the
/// measured monotonic time and the span's [`AllocDelta`] on drop — so a
/// phase that errors out still closes its span and the enter/exit
/// pairing invariant holds.
///
/// The allocation scope opens *after* `span_enter` returns and the
/// delta is computed *before* `span_exit` runs, so an observer's own
/// bookkeeping at the span boundaries is never charged to the phase.
/// Event-handling allocations inside the phase are in scope — they are
/// part of what the phase cost.
pub struct SpanTimer<'o, 'u> {
    observer: &'o dyn GenObserver,
    span: Span<'u>,
    scope: Option<AllocScope>,
    start: Instant,
}

impl<'o, 'u> SpanTimer<'o, 'u> {
    /// Opens the span and starts the clock and the allocation scope.
    pub fn enter(observer: &'o dyn GenObserver, span: Span<'u>) -> Self {
        observer.span_enter(&span);
        SpanTimer {
            observer,
            span,
            scope: Some(AllocScope::enter()),
            start: Instant::now(),
        }
    }
}

impl Drop for SpanTimer<'_, '_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let alloc = self
            .scope
            .take()
            .map(AllocScope::finish)
            .unwrap_or_default();
        self.observer.span_exit(&self.span, elapsed, alloc);
    }
}

// ---------------------------------------------------------------------
// PhaseTimings
// ---------------------------------------------------------------------

/// Accumulated wall time, span count and allocation activity for one
/// phase of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStat {
    /// Completed spans.
    pub spans: u64,
    /// Total monotonic wall time across those spans.
    pub total: Duration,
    /// Bytes allocated across those spans (zero unless
    /// [`crate::memtrack::TrackingAlloc`] is installed).
    pub alloc_bytes: u64,
    /// Allocations across those spans.
    pub allocations: u64,
    /// Largest scope-relative peak of live bytes any single span
    /// reached.
    pub peak_live_bytes: u64,
}

/// Per-phase timings of one template unit (one Table-1 row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitTimings {
    /// Template class name.
    pub unit: String,
    /// One slot per [`Phase::ALL`] entry, in phase order.
    pub phases: [PhaseStat; 5],
}

impl UnitTimings {
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
}

/// An observer that collects monotonic per-phase wall time and
/// allocation deltas per unit — the Table-1 runtime *and* memory
/// columns, split by pipeline phase.
///
/// Thread-safe; share it via [`Arc`] between the engine observer slot
/// and the reporting code that reads the snapshot afterwards.
#[derive(Debug, Default)]
pub struct PhaseTimings {
    inner: Mutex<BTreeMap<String, [PhaseStat; 5]>>,
}

impl PhaseTimings {
    /// An empty collector.
    pub fn new() -> Self {
        PhaseTimings::default()
    }

    /// The timings recorded for `unit`, if any span completed for it.
    pub fn unit(&self, unit: &str) -> Option<UnitTimings> {
        self.lock().get(unit).map(|phases| UnitTimings {
            unit: unit.to_owned(),
            phases: *phases,
        })
    }

    /// All recorded units, sorted by unit name.
    pub fn snapshot(&self) -> Vec<UnitTimings> {
        self.lock()
            .iter()
            .map(|(unit, phases)| UnitTimings {
                unit: unit.clone(),
                phases: *phases,
            })
            .collect()
    }

    /// Drops all recorded timings.
    pub fn reset(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, [PhaseStat; 5]>> {
        match self.inner.lock() {
            Ok(g) => g,
            // Writers only do field arithmetic; the map is never left
            // mid-mutation, so continuing after a poisoned lock is sound.
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl GenObserver for PhaseTimings {
    fn span_exit(&self, span: &Span<'_>, elapsed: Duration, alloc: AllocDelta) {
        let mut map = self.lock();
        let slot = &mut map.entry(span.unit.to_owned()).or_default()[span.phase.index()];
        slot.spans += 1;
        slot.total += elapsed;
        slot.alloc_bytes += alloc.allocated_bytes;
        slot.allocations += alloc.allocations;
        slot.peak_live_bytes = slot.peak_live_bytes.max(alloc.peak_live_bytes);
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

/// A thread-safe registry of named counters, gauges and histograms.
///
/// Keys are sorted (`BTreeMap`), every merge operation is commutative
/// and associative, and histograms store order-insensitive summaries —
/// so two registries that saw the same multiset of operations are equal,
/// and folding per-worker registries in input order after a batch yields
/// the same aggregate at any thread count.
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
        let mut map = self.lock();
        match map.entry(name.to_owned()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += n,
            other => debug_assert!(false, "`{name}` is not a counter: {other:?}"),
        }
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
        let mut map = self.lock();
        match map
            .entry(name.to_owned())
            .or_insert(Metric::Histogram(HistogramStat::default()))
        {
            Metric::Histogram(h) => h.observe(sample),
            other => debug_assert!(false, "`{name}` is not a histogram: {other:?}"),
        }
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
            match (
                map.entry(name).or_insert(match metric {
                    Metric::Counter(_) => Metric::Counter(0),
                    Metric::Gauge(_) => Metric::Gauge(0),
                    Metric::Histogram(_) => Metric::Histogram(HistogramStat::default()),
                }),
                metric,
            ) {
                (Metric::Counter(mine), Metric::Counter(n)) => *mine += n,
                (Metric::Gauge(mine), Metric::Gauge(g)) => *mine = (*mine).max(g),
                (Metric::Histogram(mine), Metric::Histogram(h)) => mine.merge(&h),
                (mine, theirs) => {
                    debug_assert!(false, "metric kind mismatch: {mine:?} vs {theirs:?}");
                }
            }
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
// MetricsCollector
// ---------------------------------------------------------------------

/// The observer that maps pipeline spans and events onto a
/// [`MetricsRegistry`].
///
/// Metric names it writes:
///
/// * `phase.<phase>.spans` — completed spans per phase (counter);
/// * `mem.phase.<phase>.alloc_bytes` — bytes allocated inside the
///   phase's spans (counter; zero unless
///   [`crate::memtrack::TrackingAlloc`] is installed);
/// * `mem.phase.<phase>.peak_live_bytes` — scope-relative peak live
///   bytes per span (histogram; `max` is the figure of interest);
/// * `order_cache.hits` / `order_cache.misses` / `order_cache.uncached`
///   — compiled-ORDER lookups by outcome (counters);
/// * `order.dfa_states`, `order.accepting_paths` — per-rule artefact
///   sizes (histograms);
/// * `pathsel.selections` (counter), `pathsel.candidates` (histogram),
///   `pathsel.hoisted_params` (counter);
/// * `resolve.params`, `resolve.hoisted` and `resolve.via.<kind>` —
///   parameter resolution outcomes (counters);
/// * `engine.batch.worker.<NN>.jobs` — jobs per batch worker (counter;
///   inherently scheduling-dependent, excluded from the determinism
///   guarantees).
///
/// Durations are deliberately *not* recorded here — wall time varies
/// across runs and would break the registry's determinism. Use
/// [`PhaseTimings`] for time.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    registry: Arc<MetricsRegistry>,
}

impl MetricsCollector {
    /// A collector writing into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        MetricsCollector { registry }
    }

    /// A collector over a fresh private registry.
    pub fn fresh() -> Self {
        MetricsCollector::new(Arc::new(MetricsRegistry::new()))
    }

    /// The registry this collector writes into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

impl GenObserver for MetricsCollector {
    fn span_exit(&self, span: &Span<'_>, _elapsed: Duration, alloc: AllocDelta) {
        let phase = span.phase.name();
        self.registry.add(&format!("phase.{phase}.spans"), 1);
        self.registry.add(
            &format!("mem.phase.{phase}.alloc_bytes"),
            alloc.allocated_bytes,
        );
        self.registry.observe(
            &format!("mem.phase.{phase}.peak_live_bytes"),
            alloc.peak_live_bytes,
        );
    }

    fn event(&self, event: &Event<'_>) {
        let r = &*self.registry;
        match event {
            Event::OrderCompiled {
                dfa_states,
                accepting_paths,
                cache,
                ..
            } => {
                let outcome = match cache {
                    CacheOutcome::Hit => "order_cache.hits",
                    CacheOutcome::Miss => "order_cache.misses",
                    CacheOutcome::Uncached => "order_cache.uncached",
                };
                r.add(outcome, 1);
                if let Some(states) = dfa_states {
                    r.observe("order.dfa_states", *states as u64);
                }
                r.observe("order.accepting_paths", *accepting_paths as u64);
            }
            Event::PathSelected {
                enumerated,
                hoisted,
                ..
            } => {
                r.add("pathsel.selections", 1);
                r.observe("pathsel.candidates", *enumerated as u64);
                r.add("pathsel.hoisted_params", *hoisted as u64);
            }
            Event::ParamResolved { via, .. } => {
                r.add("resolve.params", 1);
                r.add(&format!("resolve.via.{}", via.name()), 1);
            }
            Event::ParamHoisted { .. } => {
                r.add("resolve.params", 1);
                r.add("resolve.hoisted", 1);
            }
            Event::BatchJob { worker, .. } => {
                r.add(&format!("engine.batch.worker.{worker:02}.jobs"), 1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------

/// One recorded trace entry, already reduced to the Chrome Trace Event
/// Format fields.
#[derive(Debug, Clone)]
struct TraceEvent {
    /// Event name (`name`): the phase name for spans, the event kind
    /// for instants.
    name: &'static str,
    /// Category (`cat`): `"phase"`, `"pipeline"` or `"engine"`.
    cat: &'static str,
    /// Phase type (`ph`): `'B'` (span begin), `'E'` (span end) or
    /// `'i'` (instant).
    ph: char,
    /// Microseconds since the recorder was created (`ts`).
    ts_us: f64,
    /// Small integer id of the recording thread (`tid`).
    tid: u64,
    /// The `args` object payload.
    args: Vec<(String, Json)>,
}

#[derive(Debug, Default)]
struct TraceInner {
    events: Vec<TraceEvent>,
    /// Maps OS thread identity to a stable small integer, in order of
    /// first appearance.
    tids: Vec<ThreadId>,
}

/// An observer that records the span/event stream with monotonic
/// timestamps and serializes it as a [Chrome Trace Event Format]
/// document — load the written file in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev) to see the pipeline's phases per
/// thread on a timeline, with cache traffic and resolution outcomes as
/// instant markers.
///
/// Guarantees the recorder maintains (and [`validate_trace`] checks on
/// a written file):
///
/// * every `B` has a matching `E` with the same name on the same `tid`
///   (spans close on error paths because [`SpanTimer`] is RAII);
/// * timestamps are non-decreasing per `tid` (they are taken from one
///   monotonic clock under the recorder's lock);
/// * `E` events carry the span's wall time and [`AllocDelta`] in
///   `args`; instant events carry their payload (cache outcome, DFA and
///   path-set sizes, resolution kinds) in `args`.
///
/// [Chrome Trace Event Format]:
/// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
#[derive(Debug)]
pub struct TraceRecorder {
    start: Instant,
    inner: Mutex<TraceInner>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        TraceRecorder {
            start: Instant::now(),
            inner: Mutex::new(TraceInner::default()),
        }
    }

    /// Recorded events so far.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Drops all recorded events (the clock keeps running, so a
    /// recorder reused across runs stays monotonic).
    pub fn reset(&self) {
        self.lock().events.clear();
    }

    fn lock(&self) -> MutexGuard<'_, TraceInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Appends one event, stamping it with the current thread's stable
    /// id and the recorder clock. The timestamp is taken under the lock
    /// so the event vector is globally time-ordered.
    fn push(&self, name: &'static str, cat: &'static str, ph: char, args: Vec<(String, Json)>) {
        let thread = std::thread::current().id();
        let mut inner = self.lock();
        let tid = match inner.tids.iter().position(|&t| t == thread) {
            Some(i) => i as u64,
            None => {
                inner.tids.push(thread);
                (inner.tids.len() - 1) as u64
            }
        };
        let ts_us = self.start.elapsed().as_nanos() as f64 / 1000.0;
        inner.events.push(TraceEvent {
            name,
            cat,
            ph,
            ts_us,
            tid,
            args,
        });
    }

    /// Serializes everything recorded so far as a Chrome Trace Event
    /// Format document (object form, `traceEvents` array).
    pub fn to_json(&self) -> Json {
        let inner = self.lock();
        Self::render(inner.events.iter())
    }

    fn render<'e>(events: impl Iterator<Item = &'e TraceEvent>) -> Json {
        let events = events
            .map(|e| {
                let mut members = vec![
                    ("name".to_owned(), Json::Str(e.name.to_owned())),
                    ("cat".to_owned(), Json::Str(e.cat.to_owned())),
                    ("ph".to_owned(), Json::Str(e.ph.to_string())),
                    ("ts".to_owned(), Json::Num(e.ts_us)),
                    ("pid".to_owned(), Json::Num(1.0)),
                    ("tid".to_owned(), Json::Num(e.tid as f64)),
                ];
                if e.ph == 'i' {
                    // Instant scope: thread-level marker.
                    members.push(("s".to_owned(), Json::Str("t".to_owned())));
                }
                members.push(("args".to_owned(), Json::Obj(e.args.clone())));
                Json::Obj(members)
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".to_owned(), Json::Arr(events)),
            ("displayTimeUnit".to_owned(), Json::Str("ms".to_owned())),
        ])
    }

    /// [`TraceRecorder::to_json`] with capture-boundary artefacts
    /// removed, so the document always passes [`validate_trace`].
    ///
    /// A recorder that is armed and disarmed *while spans are in
    /// flight* — the daemon's `/profilez` capture window — can hold a
    /// truncated stream: an `E` whose `B` fell before arming, or a `B`
    /// whose `E` fell after disarming. Neither is recorder breakage
    /// (the full stream is balanced; the window just cut it), so this
    /// export drops exactly those unpaired events per `tid` and keeps
    /// everything else, instants included.
    pub fn to_balanced_json(&self) -> Json {
        let inner = self.lock();
        let mut keep = vec![true; inner.events.len()];
        // tid → stack of indices of currently-open B events.
        let mut open: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, e) in inner.events.iter().enumerate() {
            match e.ph {
                'B' => open.entry(e.tid).or_default().push(i),
                'E' => {
                    let stack = open.entry(e.tid).or_default();
                    match stack.last() {
                        Some(&b) if inner.events[b].name == e.name => {
                            stack.pop();
                        }
                        // An E that closes nothing we saw begin: its B
                        // predates the capture window.
                        _ => keep[i] = false,
                    }
                }
                _ => {}
            }
        }
        // B events still open at the end: their E postdates the
        // capture window.
        for (_, stack) in open {
            for b in stack {
                keep[b] = false;
            }
        }
        Self::render(
            inner
                .events
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(e, _)| e),
        )
    }
}

fn num(n: usize) -> Json {
    Json::Num(n as f64)
}

impl GenObserver for TraceRecorder {
    fn span_enter(&self, span: &Span<'_>) {
        self.push(
            span.phase.name(),
            "phase",
            'B',
            vec![("unit".to_owned(), Json::Str(span.unit.to_owned()))],
        );
    }

    fn span_exit(&self, span: &Span<'_>, elapsed: Duration, alloc: AllocDelta) {
        self.push(
            span.phase.name(),
            "phase",
            'E',
            vec![
                ("unit".to_owned(), Json::Str(span.unit.to_owned())),
                ("wall_us".to_owned(), Json::Num(elapsed.as_secs_f64() * 1e6)),
                (
                    "alloc_bytes".to_owned(),
                    Json::Num(alloc.allocated_bytes as f64),
                ),
                (
                    "freed_bytes".to_owned(),
                    Json::Num(alloc.freed_bytes as f64),
                ),
                (
                    "allocations".to_owned(),
                    Json::Num(alloc.allocations as f64),
                ),
                (
                    "peak_live_bytes".to_owned(),
                    Json::Num(alloc.peak_live_bytes as f64),
                ),
            ],
        );
    }

    fn event(&self, event: &Event<'_>) {
        let (name, cat, args) = match event {
            Event::OrderCompiled {
                rule,
                dfa_states,
                accepting_paths,
                cache,
            } => (
                "order_compiled",
                "pipeline",
                vec![
                    ("rule".to_owned(), Json::Str((*rule).to_owned())),
                    (
                        "cache".to_owned(),
                        Json::Str(
                            match cache {
                                CacheOutcome::Hit => "hit",
                                CacheOutcome::Miss => "miss",
                                CacheOutcome::Uncached => "uncached",
                            }
                            .to_owned(),
                        ),
                    ),
                    ("dfa_states".to_owned(), dfa_states.map_or(Json::Null, num)),
                    ("accepting_paths".to_owned(), num(*accepting_paths)),
                ],
            ),
            Event::PathSelected {
                rule,
                enumerated,
                chosen_len,
                hoisted,
            } => (
                "path_selected",
                "pipeline",
                vec![
                    ("rule".to_owned(), Json::Str((*rule).to_owned())),
                    ("enumerated".to_owned(), num(*enumerated)),
                    ("chosen_len".to_owned(), num(*chosen_len)),
                    ("hoisted".to_owned(), num(*hoisted)),
                ],
            ),
            Event::ParamResolved {
                rule,
                variable,
                via,
            } => (
                "param_resolved",
                "pipeline",
                vec![
                    ("rule".to_owned(), Json::Str((*rule).to_owned())),
                    ("variable".to_owned(), Json::Str((*variable).to_owned())),
                    ("via".to_owned(), Json::Str(via.name().to_owned())),
                ],
            ),
            Event::ParamHoisted { rule, variable } => (
                "param_hoisted",
                "pipeline",
                vec![
                    ("rule".to_owned(), Json::Str((*rule).to_owned())),
                    ("variable".to_owned(), Json::Str((*variable).to_owned())),
                ],
            ),
            Event::BatchJob { worker, index } => (
                "batch_job",
                "engine",
                vec![
                    ("worker".to_owned(), num(*worker)),
                    ("index".to_owned(), num(*index)),
                ],
            ),
        };
        self.push(name, cat, 'i', args);
    }
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
    fn span_timer_pairs_enter_and_exit_even_on_early_exit() {
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
        let run = |fail: bool| -> Result<(), ()> {
            let _span = SpanTimer::enter(
                &log,
                Span {
                    unit: "U",
                    phase: Phase::Select,
                },
            );
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
    }

    #[test]
    fn phase_timings_accumulate_per_unit() {
        let t = PhaseTimings::new();
        let span = Span {
            unit: "A",
            phase: Phase::Collect,
        };
        let alloc = AllocDelta {
            allocated_bytes: 100,
            freed_bytes: 40,
            allocations: 3,
            peak_live_bytes: 64,
        };
        t.span_exit(&span, Duration::from_millis(2), alloc);
        t.span_exit(&span, Duration::from_millis(3), alloc);
        t.span_exit(
            &Span {
                unit: "B",
                phase: Phase::Assemble,
            },
            Duration::from_millis(1),
            AllocDelta::default(),
        );
        let a = t.unit("A").unwrap();
        assert_eq!(a.phase(Phase::Collect).spans, 2);
        assert_eq!(a.phase(Phase::Collect).total, Duration::from_millis(5));
        assert_eq!(a.phase(Phase::Collect).alloc_bytes, 200);
        assert_eq!(a.phase(Phase::Collect).allocations, 6);
        assert_eq!(a.phase(Phase::Collect).peak_live_bytes, 64);
        assert_eq!(a.phase(Phase::Link).spans, 0);
        assert_eq!(a.total(), Duration::from_millis(5));
        assert_eq!(a.alloc_total_bytes(), 200);
        assert_eq!(a.peak_live_bytes(), 64);
        assert_eq!(t.snapshot().len(), 2);
        t.reset();
        assert!(t.snapshot().is_empty());
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
    fn collector_maps_events_onto_metric_names() {
        let c = MetricsCollector::fresh();
        c.event(&Event::OrderCompiled {
            rule: "R",
            dfa_states: Some(4),
            accepting_paths: 2,
            cache: CacheOutcome::Miss,
        });
        c.event(&Event::OrderCompiled {
            rule: "R",
            dfa_states: Some(4),
            accepting_paths: 2,
            cache: CacheOutcome::Hit,
        });
        c.event(&Event::PathSelected {
            rule: "R",
            enumerated: 2,
            chosen_len: 3,
            hoisted: 1,
        });
        c.event(&Event::ParamResolved {
            rule: "R",
            variable: "v",
            via: ResolutionKind::Constraint,
        });
        c.event(&Event::ParamHoisted {
            rule: "R",
            variable: "w",
        });
        c.event(&Event::BatchJob {
            worker: 1,
            index: 0,
        });
        c.span_exit(
            &Span {
                unit: "U",
                phase: Phase::Link,
            },
            Duration::ZERO,
            AllocDelta {
                allocated_bytes: 4096,
                freed_bytes: 1024,
                allocations: 7,
                peak_live_bytes: 2048,
            },
        );
        let r = c.registry();
        assert_eq!(r.counter("order_cache.misses"), 1);
        assert_eq!(r.counter("order_cache.hits"), 1);
        assert_eq!(r.counter("pathsel.selections"), 1);
        assert_eq!(r.counter("pathsel.hoisted_params"), 1);
        assert_eq!(r.counter("resolve.params"), 2);
        assert_eq!(r.counter("resolve.via.constraint"), 1);
        assert_eq!(r.counter("resolve.hoisted"), 1);
        assert_eq!(r.counter("engine.batch.worker.01.jobs"), 1);
        assert_eq!(r.counter("phase.link.spans"), 1);
        assert_eq!(r.counter("mem.phase.link.alloc_bytes"), 4096);
        let peak = r
            .get("mem.phase.link.peak_live_bytes")
            .unwrap()
            .as_histogram()
            .unwrap();
        assert_eq!((peak.count, peak.max), (1, 2048));
        let states = r.get("order.dfa_states").unwrap().as_histogram().unwrap();
        assert_eq!((states.count, states.sum), (2, 8));
    }

    #[test]
    fn trace_recorder_emits_paired_validated_chrome_events() {
        let rec = TraceRecorder::new();
        {
            let _t = SpanTimer::enter(
                &rec,
                Span {
                    unit: "U",
                    phase: Phase::Select,
                },
            );
            rec.event(&Event::OrderCompiled {
                rule: "Cipher",
                dfa_states: Some(5),
                accepting_paths: 2,
                cache: CacheOutcome::Miss,
            });
            rec.event(&Event::ParamResolved {
                rule: "Cipher",
                variable: "transformation",
                via: ResolutionKind::Constraint,
            });
        }
        assert_eq!(rec.len(), 4); // B, i, i, E
        let doc = rec.to_json();
        validate_trace(&doc).unwrap();

        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("select"));
        let instant = &events[1];
        assert_eq!(instant.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(instant.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(
            instant
                .get("args")
                .and_then(|a| a.get("cache"))
                .and_then(Json::as_str),
            Some("miss")
        );
        let exit = &events[3];
        assert_eq!(exit.get("ph").and_then(Json::as_str), Some("E"));
        assert!(exit
            .get("args")
            .and_then(|a| a.get("alloc_bytes"))
            .is_some());
        // The serialized document round-trips through the writer/parser.
        validate_trace(&Json::parse(&doc.to_string()).unwrap()).unwrap();

        rec.reset();
        assert!(rec.is_empty());
    }

    #[test]
    fn balanced_export_drops_exactly_the_boundary_truncated_events() {
        let rec = TraceRecorder::new();
        let span = |phase| Span { unit: "U", phase };
        // Orphan E: its B fell before the capture window opened.
        rec.span_exit(
            &span(Phase::Select),
            Duration::from_micros(3),
            AllocDelta::default(),
        );
        // A complete pair with an instant inside survives untouched.
        rec.span_enter(&span(Phase::Resolve));
        rec.event(&Event::ParamResolved {
            rule: "Cipher",
            variable: "transformation",
            via: ResolutionKind::Constraint,
        });
        rec.span_exit(
            &span(Phase::Resolve),
            Duration::from_micros(7),
            AllocDelta::default(),
        );
        // Dangling B: its E falls after the capture window closed.
        rec.span_enter(&span(Phase::Assemble));

        // The raw stream is truncated at both ends and fails validation.
        assert!(validate_trace(&rec.to_json()).is_err());

        // The balanced export passes and keeps the complete interior.
        let doc = rec.to_balanced_json();
        validate_trace(&doc).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(phases, ["B", "i", "E"]);
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("resolve")
        );
        assert_eq!(
            events[2].get("name").and_then(Json::as_str),
            Some("resolve")
        );
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
            ev("i", "order_compiled", 1.0, 2.0),
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

    #[test]
    fn tee_and_fanout_forward_to_all_targets() {
        #[derive(Default)]
        struct Count(Mutex<u32>);
        impl GenObserver for Count {
            fn event(&self, _e: &Event<'_>) {
                *self.0.lock().unwrap() += 1;
            }
        }
        let a = Count::default();
        let b = Count::default();
        Tee(&a, &b).event(&Event::BatchJob {
            worker: 0,
            index: 0,
        });
        assert_eq!(*a.0.lock().unwrap(), 1);
        assert_eq!(*b.0.lock().unwrap(), 1);

        let x: Arc<Count> = Arc::new(Count::default());
        let fan = Fanout::new().with(x.clone()).with(Arc::new(NoopObserver));
        fan.event(&Event::BatchJob {
            worker: 0,
            index: 1,
        });
        fan.event(&Event::BatchJob {
            worker: 0,
            index: 2,
        });
        assert_eq!(*x.0.lock().unwrap(), 2);
    }
}
