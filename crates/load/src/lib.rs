//! `cognicrypt-load` — the seeded workload model that perfbench
//! replays: zipf-skewed well-formed traffic with hostile requests,
//! reloads and snapshots interleaved, as a pure function of its spec.

pub mod workload;
