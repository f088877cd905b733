//! Zero-external-dependency development harness for the workspace.
//!
//! The build environment is hermetic: no network, no crates.io registry.
//! This crate replaces the three external dev dependencies the workspace
//! used to pull in, with deterministic in-repo implementations:
//!
//! * [`rng`] — a seedable xoshiro256**-class PRNG behind a small
//!   `RngCore`-like trait ([`rng::RandomSource`]), used by `jcasim`'s
//!   `SecureRandom` simulation and by the property harness;
//! * [`prop`] — a property-testing harness with composable generators,
//!   seeded shrinking, configurable case counts and failure-seed replay;
//! * [`bench`] — a benchmark harness (warmup, N iterations, min / median /
//!   p95, peak-RSS sampling where available) with machine-readable JSON
//!   output for the Table 1 / RQ5 trajectory data;
//! * [`json`] — the minimal JSON reader/writer backing the bench output,
//!   so reports round-trip through a parser in tests;
//! * [`histogram`] — an HDR-style log-linear latency histogram
//!   (O(1) record, bounded-error quantiles, order-insensitive merge)
//!   for workloads with millions of samples, where [`bench`]'s
//!   sample-vector statistics would not scale.
//!
//! Everything here is `std`-only by design; adding an external dependency
//! to this crate defeats its purpose.

pub mod bench;
pub mod histogram;
pub mod json;
pub mod prop;
pub mod rng;
