//! `GenEngine`: a thread-safe, cached, parallel generation session —
//! the cached path into the one pipeline body.
//!
//! The paper's generator treats CrySL rules as stable artefacts, yet the
//! reference path ([`crate::Generator::generate_uncached`]) recompiles
//! every rule's ORDER pattern (NFA → DFA → minimization → path
//! enumeration) on every run. The engine owns the compiled artefacts in
//! a [`statemachine::OrderCache`] keyed by a content hash of each
//! rule's EVENTS + ORDER sections, so repeat generations reuse them,
//! and fans batches of templates out over scoped worker threads with
//! deterministic, input-ordered results. A cache is shared only where a
//! caller hands one engine's `Arc` to the next
//! ([`EngineBuilder::order_cache`], [`GenEngine::with_rule_set`]);
//! there is no process-wide cache.
//!
//! Three entry points, from low to high level:
//!
//! * [`scatter`] — the generic fan-out primitive: run one job per item
//!   on a fixed-size worker pool, catching worker panics so one poisoned
//!   job can neither deadlock the batch nor discard sibling results;
//! * [`GenEngine::generate`] — single-template generation against the
//!   engine's shared rule set, type table and warm cache;
//! * [`GenEngine::generate_batch`] — N templates, M worker threads,
//!   output `i` always corresponding to input `i` regardless of thread
//!   count or scheduling.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crysl::RuleSet;
use javamodel::TypeTable;
use statemachine::{CacheLookup, CacheStats, OrderCache};

use crate::error::GenError;
use crate::generator::{Generated, Generator, GeneratorOptions};
use crate::telemetry::{GenObserver, NoopObserver};
use crate::template::Template;

/// How an engine warm-up was served, reported by
/// [`GenEngine::warm_traced`]: rules whose ORDER artefact was already
/// in the cache (seeded from a precompiled pack or left warm by an
/// earlier engine) versus rules that had to compile now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Rules served from existing cache entries.
    pub hits: usize,
    /// Rules compiled during this warm-up.
    pub compiled: usize,
}

/// A worker thread panicked while running a batch job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the poisoned item in the input slice.
    pub index: usize,
    /// The panic payload, rendered to text.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch worker panicked on item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// A batch item's failure: either an ordinary generation error or a
/// panic the engine contained to that item.
#[derive(Debug)]
pub enum EngineError {
    /// The pipeline rejected the template.
    Gen(GenError),
    /// The worker running the template panicked.
    Worker(WorkerPanic),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Gen(e) => e.fmt(f),
            EngineError::Worker(p) => p.fmt(f),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Gen(e) => Some(e),
            EngineError::Worker(p) => Some(p),
        }
    }
}

impl From<GenError> for EngineError {
    fn from(e: GenError) -> Self {
        EngineError::Gen(e)
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_owned();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "<non-string panic payload>".to_owned()
}

/// Fans `items` out over at most `threads` scoped workers, running
/// `f(index, item)` once per item and returning the results in input
/// order.
///
/// Guarantees, independent of thread count and OS scheduling:
///
/// * result `i` is always `f(i, &items[i])` — deterministic ordering;
/// * a panicking job is reported as `Err(WorkerPanic)` in its own slot;
///   the worker survives and continues draining the queue, so sibling
///   results are never lost and the call always returns.
///
/// `threads` is a ceiling, not a demand: the pool is additionally capped
/// at the item count and at the machine's available parallelism, since
/// the jobs are CPU-bound and oversubscribed workers only add scheduling
/// overhead.
pub fn scatter<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let job = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).map_err(|payload| WorkerPanic {
            index: i,
            message: panic_text(payload),
        })
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = threads.clamp(1, n).min(cores.max(1));
    if threads == 1 {
        // One worker: run on the caller's thread — same per-job panic
        // containment, no spawn/join overhead.
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, WorkerPanic>>> = Vec::new();
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let (job, next) = (&job, &next);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        produced.push((i, job(i)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            // Workers never unwind: every job runs under catch_unwind.
            for (i, outcome) in handle.join().expect("batch worker survives job panics") {
                slots[i] = Some(outcome);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// The engine builder was given an unusable configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineBuildError {
    /// `.rules(…)` was never called.
    MissingRules,
    /// `.threads(0)` was requested — a pool of zero workers can run
    /// nothing, so the engine rejects it instead of silently clamping.
    ZeroThreads,
}

impl std::fmt::Display for EngineBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineBuildError::MissingRules => {
                write!(f, "GenEngine::builder() needs a rule set: call .rules(…)")
            }
            EngineBuildError::ZeroThreads => {
                write!(f, "thread count must be at least 1, got 0")
            }
        }
    }
}

impl std::error::Error for EngineBuildError {}

/// Configures and builds a [`GenEngine`]. Obtained from
/// [`GenEngine::builder`]; every knob except [`EngineBuilder::rules`]
/// has a default.
pub struct EngineBuilder {
    rules: Option<Arc<RuleSet>>,
    table: Option<Arc<TypeTable>>,
    options: GeneratorOptions,
    threads: usize,
    observer: Arc<dyn GenObserver>,
    cache: Option<Arc<OrderCache>>,
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("rules", &self.rules.as_ref().map(|_| "RuleSet"))
            .field("table", &self.table.as_ref().map(|_| "TypeTable"))
            .field("options", &self.options)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            rules: None,
            table: None,
            options: GeneratorOptions::default(),
            threads: GenEngine::DEFAULT_THREADS,
            observer: Arc::new(NoopObserver),
            cache: None,
        }
    }
}

impl EngineBuilder {
    /// The rule set the engine generates against. Required.
    pub fn rules(mut self, rules: impl Into<Arc<RuleSet>>) -> Self {
        self.rules = Some(rules.into());
        self
    }

    /// The Java type table. Defaults to the modelled JCA table
    /// ([`javamodel::jca::jca_type_table`]).
    pub fn type_table(mut self, table: impl Into<Arc<TypeTable>>) -> Self {
        self.table = Some(table.into());
        self
    }

    /// Generator options. Defaults to the paper-faithful defaults.
    pub fn options(mut self, options: GeneratorOptions) -> Self {
        self.options = options;
        self
    }

    /// Default worker-thread ceiling for [`GenEngine::batch`].
    /// Defaults to [`GenEngine::DEFAULT_THREADS`];
    /// [`GenEngine::generate_batch`] takes an explicit count and
    /// ignores this. Zero is rejected by [`EngineBuilder::build`] with
    /// [`EngineBuildError::ZeroThreads`] — a thread count must be
    /// validated wherever it enters, never silently repaired.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The compiled-ORDER cache the engine serves lookups from.
    /// Defaults to a fresh private cache. Supplying a shared
    /// [`Arc<OrderCache>`] lets a resident process keep artefacts warm
    /// across engine rebuilds (e.g. a rule-pack hot-reload): content-
    /// hash keying makes sharing safe — an entry can only ever be
    /// served to a rule whose compilation input is byte-identical to
    /// the one it was compiled from.
    pub fn order_cache(mut self, cache: Arc<OrderCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Live span hooks for every generation this engine runs. Defaults
    /// to [`NoopObserver`]. Every generation also returns its
    /// record ([`Generated::record`]), independent of this hook.
    pub fn observer(mut self, observer: Arc<dyn GenObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// [`EngineBuildError::MissingRules`] when no rule set was
    /// supplied; [`EngineBuildError::ZeroThreads`] when `.threads(0)`
    /// was requested.
    pub fn build(self) -> Result<GenEngine, EngineBuildError> {
        let rules = self.rules.ok_or(EngineBuildError::MissingRules)?;
        if self.threads == 0 {
            return Err(EngineBuildError::ZeroThreads);
        }
        let table = self
            .table
            .unwrap_or_else(|| Arc::new(javamodel::jca::jca_type_table()));
        Ok(GenEngine {
            rules,
            table,
            options: self.options,
            threads: self.threads,
            observer: self.observer,
            cache: self.cache.unwrap_or_else(|| Arc::new(OrderCache::new())),
        })
    }
}

/// A thread-safe generation session: shared rules, type table, options,
/// observer and a compiled-ORDER cache that persists across calls. It
/// keeps no metrics: each generation's record ([`Generated::record`])
/// goes back to the caller, who folds it wherever it keeps its books.
///
/// Construction is cheap relative to what the engine amortizes: the
/// expensive state (parsed rules, compiled DFAs and path sets) is either
/// shared via [`Arc`] or built lazily on first use and reused after.
pub struct GenEngine {
    rules: Arc<RuleSet>,
    table: Arc<TypeTable>,
    options: GeneratorOptions,
    threads: usize,
    observer: Arc<dyn GenObserver>,
    cache: Arc<OrderCache>,
}

impl std::fmt::Debug for GenEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenEngine")
            .field("options", &self.options)
            .field("threads", &self.threads)
            .field("cache", &self.cache.stats())
            .finish_non_exhaustive()
    }
}

impl GenEngine {
    /// Default worker-thread ceiling used by [`GenEngine::batch`] when
    /// the builder did not override it.
    pub const DEFAULT_THREADS: usize = 4;

    /// Starts configuring an engine: `GenEngine::builder().rules(…)
    /// [.type_table(…)] [.threads(n)] [.observer(…)] .build()`.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The engine's rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The engine's type table.
    pub fn table(&self) -> &TypeTable {
        &self.table
    }

    /// Entry/hit/miss counters of the engine's compiled-ORDER cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine's compiled-ORDER cache. Handing the `Arc` to
    /// [`EngineBuilder::order_cache`] of a successor engine carries the
    /// warm artefacts across a rule-set swap.
    pub fn order_cache(&self) -> &Arc<OrderCache> {
        &self.cache
    }

    /// A successor engine over `rules` that shares everything else with
    /// this one — type table, options, thread ceiling, observer and the
    /// compiled-ORDER cache (all by `Arc`). This is the rule-pack
    /// hot-reload primitive for a resident process: in-flight requests
    /// keep generating against the engine they started on, new requests
    /// pick up the successor, and unchanged rules still hit the warm
    /// cache. Call [`OrderCache::retain_fingerprints`] on the shared
    /// cache afterwards to drop artefacts the new set no longer
    /// produces.
    pub fn with_rule_set(&self, rules: impl Into<Arc<RuleSet>>) -> GenEngine {
        GenEngine {
            rules: rules.into(),
            table: self.table.clone(),
            options: self.options,
            threads: self.threads,
            observer: self.observer.clone(),
            cache: self.cache.clone(),
        }
    }

    /// Precompiles the ORDER artefact of every rule in the set, so the
    /// first generation after startup pays no compilation cost.
    ///
    /// # Errors
    ///
    /// The first [`GenError::StateMachine`] hit while compiling a rule.
    pub fn warm(&self) -> Result<(), GenError> {
        self.warm_traced().map(|_| ())
    }

    /// [`GenEngine::warm`] that also reports how many rules were served
    /// from already-cached artefacts versus compiled on the spot. An
    /// engine booted from a precompiled rule pack (whose artefacts were
    /// seeded into the cache via `OrderCache::seed`) must report
    /// `compiled == 0` — the assertion behind the pack subsystem's
    /// zero-compilation cold-start guarantee.
    ///
    /// # Errors
    ///
    /// See [`GenEngine::warm`].
    pub fn warm_traced(&self) -> Result<WarmStats, GenError> {
        let mut stats = WarmStats::default();
        for rule in self.rules.iter() {
            match self.cache.get_or_compile_traced(rule)? {
                (_, CacheLookup::Hit) => stats.hits += 1,
                (_, CacheLookup::Miss) => stats.compiled += 1,
            }
        }
        Ok(stats)
    }

    /// Generates code for one template against the engine's shared
    /// state, reusing (and extending) the compiled-ORDER cache. The
    /// engine's observer sees the run's spans; the run's record comes
    /// back as [`Generated::record`].
    ///
    /// # Errors
    ///
    /// See [`Generator::generate_uncached`].
    pub fn generate(&self, template: &Template) -> Result<Generated, GenError> {
        Generator::with_options(self.options).run(
            template,
            &self.rules,
            &self.table,
            Some(&self.cache),
            self.observer.as_ref(),
        )
    }

    /// [`GenEngine::generate_batch`] with the engine's configured
    /// default thread ceiling.
    pub fn batch(&self, templates: &[Template]) -> Vec<Result<Generated, EngineError>> {
        self.generate_batch(templates, self.threads)
    }

    /// Generates a batch of templates on up to `threads` worker threads.
    ///
    /// Result `i` always corresponds to `templates[i]`, whatever the
    /// thread count or scheduling. A template whose generation fails —
    /// or whose worker panics — yields an `Err` in its own slot without
    /// affecting siblings or deadlocking the batch. Each slot's record
    /// is its [`Generated::record`].
    pub fn generate_batch(
        &self,
        templates: &[Template],
        threads: usize,
    ) -> Vec<Result<Generated, EngineError>> {
        scatter(templates, threads, |_, t| self.generate(t))
            .into_iter()
            .map(|slot| slot.map_err(EngineError::Worker)?.map_err(EngineError::Gen))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{CrySlCodeGenerator, TemplateMethod};
    use javamodel::ast::{Expr, JavaType, Stmt};
    use javamodel::jca::jca_type_table;

    fn digest_rule_set() -> RuleSet {
        let mut set = RuleSet::new();
        set.add_source(
            "SPEC java.security.MessageDigest\nOBJECTS java.lang.String alg; byte[] input; byte[] output;\nEVENTS g1: getInstance(alg); u1: update(input); d1: output = digest(input);\nORDER g1, u1?, d1\nCONSTRAINTS alg in {\"SHA-256\"};",
        )
        .unwrap();
        set
    }

    fn hash_template() -> Template {
        let chain = CrySlCodeGenerator::get_instance()
            .consider_crysl_rule("java.security.MessageDigest")
            .add_parameter("data", "input")
            .add_return_object("hash")
            .build();
        let method = TemplateMethod::new("hash", JavaType::byte_array())
            .param(JavaType::byte_array(), "data")
            .pre(Stmt::decl_init(
                JavaType::byte_array(),
                "hash",
                Expr::null(),
            ))
            .chain(chain)
            .post(Stmt::Return(Some(Expr::var("hash"))));
        Template::new("p", "Hasher").method(method)
    }

    #[test]
    fn engine_generates_and_caches() {
        let engine = GenEngine::builder()
            .rules(digest_rule_set())
            .type_table(jca_type_table())
            .build()
            .unwrap();
        let first = engine.generate(&hash_template()).unwrap();
        let second = engine.generate(&hash_template()).unwrap();
        assert_eq!(first.java_source, second.java_source);
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.hits >= 1, "second run must hit the cache: {stats:?}");
    }

    #[test]
    fn warm_precompiles_every_rule() {
        let engine = GenEngine::builder()
            .rules(digest_rule_set())
            .type_table(jca_type_table())
            .build()
            .unwrap();
        engine.warm().unwrap();
        assert_eq!(engine.cache_stats().entries, 1);
        engine.generate(&hash_template()).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "generation after warm() never compiles");
    }

    #[test]
    fn batch_preserves_input_order() {
        let engine = GenEngine::builder()
            .rules(digest_rule_set())
            .type_table(jca_type_table())
            .build()
            .unwrap();
        let templates: Vec<Template> = (0..6).map(|_| hash_template()).collect();
        for threads in [1, 2, 8] {
            let results = engine.generate_batch(&templates, threads);
            assert_eq!(results.len(), templates.len());
            for r in &results {
                assert!(r.is_ok());
            }
        }
    }

    #[test]
    fn batch_surfaces_generation_errors_per_slot() {
        let engine = GenEngine::builder()
            .rules(digest_rule_set())
            .type_table(jca_type_table())
            .build()
            .unwrap();
        let bad = Template::new("p", "C").method(
            TemplateMethod::new("go", JavaType::Void).chain(
                CrySlCodeGenerator::get_instance()
                    .consider_crysl_rule("no.such.Rule")
                    .build(),
            ),
        );
        let templates = vec![hash_template(), bad, hash_template()];
        let results = engine.generate_batch(&templates, 2);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(EngineError::Gen(GenError::UnknownRule(_)))
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn zero_threads_is_a_build_error_not_a_silent_clamp() {
        let err = GenEngine::builder()
            .rules(digest_rule_set())
            .threads(0)
            .build()
            .unwrap_err();
        assert_eq!(err, EngineBuildError::ZeroThreads);
        assert!(err.to_string().contains("got 0"));
    }

    #[test]
    fn with_rule_set_shares_the_cache_across_the_swap() {
        let engine = GenEngine::builder()
            .rules(digest_rule_set())
            .type_table(jca_type_table())
            .build()
            .unwrap();
        let first = engine.generate(&hash_template()).unwrap();
        assert_eq!(engine.cache_stats().entries, 1);

        // Swap in a byte-identical rule set: the successor serves the
        // same artefact from the shared warm cache (a hit, no compile).
        let successor = engine.with_rule_set(digest_rule_set());
        assert!(Arc::ptr_eq(engine.order_cache(), successor.order_cache()));
        let misses_before = successor.cache_stats().misses;
        let second = successor.generate(&hash_template()).unwrap();
        assert_eq!(first.java_source, second.java_source);
        assert_eq!(successor.cache_stats().misses, misses_before);
    }

    #[test]
    fn order_cache_prunes_to_the_new_rule_sets_fingerprints() {
        let engine = GenEngine::builder()
            .rules(digest_rule_set())
            .type_table(jca_type_table())
            .build()
            .unwrap();
        engine.warm().unwrap();
        assert_eq!(engine.cache_stats().entries, 1);

        // A "changed" rule set: same class, different ORDER.
        let mut changed = RuleSet::new();
        changed
            .add_source(
                "SPEC java.security.MessageDigest\nOBJECTS java.lang.String alg; byte[] input; byte[] output;\nEVENTS g1: getInstance(alg); u1: update(input); d1: output = digest(input);\nORDER g1, u1+, d1\nCONSTRAINTS alg in {\"SHA-256\"};",
            )
            .unwrap();
        let successor = engine.with_rule_set(changed);
        successor.warm().unwrap();
        // Old + new fingerprints both present until invalidation...
        assert_eq!(successor.cache_stats().entries, 2);
        // ...then retain exactly the successor's fingerprints.
        let keep: Vec<u64> = successor
            .rules()
            .iter()
            .map(statemachine::compile::order_fingerprint)
            .collect();
        let dropped = successor
            .order_cache()
            .retain_fingerprints(|fp| keep.contains(&fp));
        assert_eq!(dropped, 1);
        assert_eq!(successor.cache_stats().entries, 1);
        successor.generate(&hash_template()).unwrap();
    }

    #[test]
    fn scatter_contains_panics_to_their_slot() {
        let items: Vec<usize> = (0..10).collect();
        let results = scatter(&items, 4, |_, &v| {
            assert!(v != 5, "poisoned item");
            v * 2
        });
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.index, 5);
                assert!(p.message.contains("poisoned item"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2);
            }
        }
    }

    #[test]
    fn scatter_handles_empty_and_oversized_thread_counts() {
        let empty: Vec<u8> = Vec::new();
        assert!(scatter(&empty, 8, |_, _| ()).is_empty());
        let one = [7u8];
        let r = scatter(&one, 64, |_, &v| v + 1);
        assert_eq!(r[0].as_ref().copied().unwrap(), 8);
    }
}
