//! CogniCryptGEN — generating code for the secure usage of crypto APIs.
//!
//! This crate reproduces the paper's contribution: a code generator that
//! combines minimal Java code templates with CrySL rules and emits a
//! complete, compilable, rule-compliant implementation of a cryptographic
//! use case. The pipeline follows the paper's Figure 6:
//!
//! 1. [`collect`] — gather the rules and template parameters from each
//!    fluent-API call chain,
//! 2. [`link`] — connect rules through ENSURES/REQUIRES predicates,
//! 3. [`pathsel`] — select method sequences from each rule's finite state
//!    machine, filtering by template objects and predicate compatibility,
//! 4. [`resolve`] — find values for every method parameter (template
//!    bindings, predicate-matched objects, constraint literals, fallback
//!    hoisting),
//! 5. [`assemble`] — emit the Java code plus the showcase
//!    `templateUsage()` method.
//!
//! Generation has two entry points over one pipeline body.
//! [`engine::GenEngine`] is the cached path: it owns the parsed rules,
//! the type table and a compiled-ORDER cache across calls and fans
//! batches out over worker threads. [`Generator::generate_uncached`] is
//! the stateless reference path, compiling every ORDER afresh;
//! [`generate`] is its default-options shorthand. No cache is shared
//! behind the caller's back: two calls reuse compiled artefacts only
//! through the same engine (or engines handed the same cache).
//!
//! # Example
//!
//! ```
//! use cognicrypt_core::template::parse_template;
//! use cognicrypt_core::generate;
//! use javamodel::jca::jca_type_table;
//!
//! let table = jca_type_table();
//! let template = parse_template(r#"package de.crypto.cognicrypt;
//!
//! public class Hasher {
//!     public byte[] hash(byte[] data) {
//!         byte[] hash = null;
//!         CrySLCodeGenerator.getInstance().
//!             considerCrySLRule("java.security.MessageDigest").
//!             addParameter(data, "input").
//!             addReturnObject(hash).generate();
//!         return hash;
//!     }
//! }
//! "#, &table)?;
//! let pack = rules::open(rules::PackSource::Embedded)?;
//! let generated = generate(&template, &pack.rules, &table)?;
//! assert!(generated.java_source.contains("MessageDigest.getInstance(\"SHA-256\")"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Observability: every generation returns a [`telemetry::GenRecord`]
//! (`Generated::record`) holding each phase's start, wall time and
//! allocation delta and what the phases decided (cache traffic, DFA
//! sizes, path selection, parameter resolution). Everything else is a
//! fold over records, done by whoever keeps them: the engine keeps no
//! metrics, [`telemetry::GenRecord::fold_into`] turns records into the
//! caller's [`telemetry::MetricsRegistry`] (the daemon's one registry,
//! a report's), and [`telemetry::TraceRecorder`] into a Chrome trace. The
//! [`telemetry::GenObserver`] hook API, which sees one live span per
//! phase per template, remains for outside users.

pub mod assemble;
pub mod collect;
pub mod engine;
pub mod error;
pub mod generator;
pub mod link;
pub mod memtrack;
pub mod pathsel;
pub mod resolve;
pub mod telemetry;
pub mod template;

pub use engine::{EngineBuildError, EngineBuilder, EngineError, GenEngine, WarmStats, WorkerPanic};
pub use error::GenError;
pub use generator::{generate, Generated, Generator, GeneratorOptions};
pub use memtrack::{AllocDelta, AllocScope, ProcessStats, TrackingAlloc};
pub use telemetry::{
    validate_trace, GenObserver, GenRecord, MetricsRegistry, NoopObserver, Phase, TraceRecorder,
};
pub use template::{CrySlCodeGenerator, Template, TemplateMethod};
