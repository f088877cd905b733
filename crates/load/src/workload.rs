//! The seeded workload model: which operations a run issues, in what
//! proportions, in what order.
//!
//! A schedule is a pure function of a [`WorkloadSpec`] — same spec,
//! same seed, same `Vec<Op>`, byte for byte — so two replays of one
//! spec issue identical traffic and only wall-clock latencies differ.
//! Perfbench's `uds-mixed` workload replays the standard mix
//! ([`WorkloadSpec::standard`]) and draws its hostile probes from it.
//!
//! The shape mimics a production day, not a microbenchmark:
//!
//! * **zipf-skewed well-formed traffic** — real request streams
//!   concentrate on a few hot use cases. Hotness is sampled from a
//!   zipf(s) distribution over the shipped use cases, so caches are
//!   exercised with realistic hit skew instead of a uniform sweep;
//! * **hostile traffic interleaved** — malformed selectors (synthetic
//!   and drawn from the fuzz reproducer corpus), malformed CrySL rule
//!   sources, and transport-level garbage, mixed into the same stream
//!   the well-formed requests ride on;
//! * **mid-run rule-pack reloads** — every `reload_every` operations,
//!   so the engine-swap path runs under concurrent load;
//! * **periodic snapshots** — `/loadz` samples that double as a probe
//!   that the observability surface itself stays cheap and available
//!   under pressure.

use devharness::rng::{RandomSource, Xoshiro256};

/// One operation class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Generate one shipped use case; the response must be
    /// byte-identical to the one-shot engine's output.
    WellFormed {
        /// Table-1 use-case id.
        uc: u8,
    },
    /// A selector that matches no use case — synthetic garbage or a
    /// line drawn from a fuzz-corpus reproducer. Must yield a typed
    /// error, never a panic.
    HostileSelector {
        /// The selector text (single line, bounded length).
        payload: String,
    },
    /// A CrySL source thrown at the front-end (library target) or used
    /// as an oversized/garbage request body (transport targets). Must
    /// parse cleanly or fail with a typed error — never panic.
    HostileRule {
        /// The full source text.
        source: String,
    },
    /// Transport-level garbage: raw bytes, bad routes, bad methods,
    /// header bombs, over-long lines. The variant selects the attack.
    HostileProtocol {
        /// Attack selector, interpreted per target.
        variant: u8,
    },
    /// Hot-reload the rule pack mid-run.
    Reload,
    /// Sample the load snapshot (`/loadz` or equivalent).
    Snapshot,
}

impl OpKind {
    /// Stable class name.
    pub fn class(&self) -> &'static str {
        match self {
            OpKind::WellFormed { .. } => "wellformed",
            OpKind::HostileSelector { .. } => "hostile_selector",
            OpKind::HostileRule { .. } => "hostile_rule",
            OpKind::HostileProtocol { .. } => "hostile_protocol",
            OpKind::Reload => "reload",
            OpKind::Snapshot => "snapshot",
        }
    }
}

/// One scheduled operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Position in the schedule.
    pub index: u64,
    /// What to do.
    pub kind: OpKind,
}

/// Everything that determines a schedule. Two equal specs produce
/// equal schedules.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// PRNG seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Operations in the schedule.
    pub budget: u64,
    /// Hostile operations per 1000 (selector + rule + protocol,
    /// split evenly-ish by the sampler). 0 = clean traffic only.
    pub hostile_per_mille: u32,
    /// A reload every this many operations (0 = never).
    pub reload_every: u64,
    /// A snapshot every this many operations (0 = never).
    pub snapshot_every: u64,
    /// Zipf skew exponent for use-case popularity (1.0 ≈ classic web
    /// skew; 0.0 = uniform).
    pub zipf_s: f64,
    /// Use-case ids to draw from, hottest first.
    pub use_case_ids: Vec<u8>,
    /// Fuzz-corpus reproducer sources for hostile traffic (may be
    /// empty; synthetic hostiles are always available).
    pub corpus: Vec<String>,
}

impl WorkloadSpec {
    /// The default mix over the given use cases: 25 % hostile, a
    /// reload every 97 ops, a snapshot every 61, classic zipf skew.
    pub fn standard(seed: u64, budget: u64, use_case_ids: Vec<u8>, corpus: Vec<String>) -> Self {
        WorkloadSpec {
            seed,
            budget,
            hostile_per_mille: 250,
            reload_every: 97,
            snapshot_every: 61,
            zipf_s: 1.0,
            use_case_ids,
            corpus,
        }
    }
}

/// Every shipped use-case id in catalogue order (hottest first under
/// the zipf skew), read from the template files' headers.
pub fn catalogue_ids() -> Vec<u8> {
    usecases::catalogue().iter().map(|f| f.id).collect()
}

/// A seeded zipf(s) sampler over ranks `0..n`: rank `k` has weight
/// `1/(k+1)^s`. With `s = 0` it degenerates to uniform.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut impl RandomSource) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.next_f64() * total;
        self.cumulative
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// Synthetic hostile selectors that every daemon must refuse with a
/// typed error: traversal attempts, encodings, control bytes, unicode,
/// and plain junk.
const SYNTHETIC_SELECTORS: [&str; 6] = [
    "definitely-not-a-case",
    "../../etc/passwd",
    "%2e%2e%2f%2e%2e%2fsecret",
    "uc\u{0}1\u{7f}",
    "\u{202e}esac-esu",
    "0",
];

/// Synthetic broken CrySL sources for when no corpus is supplied:
/// unbalanced sections, undeclared objects, deep nesting.
fn synthetic_rule(rng: &mut impl RandomSource) -> String {
    match rng.next_below(4) {
        0 => "OBJECTS int x;".to_owned(),
        1 => "SPEC a.B\nCONSTRAINTS ghost >= 1;".to_owned(),
        2 => format!(
            "SPEC a.B\nEVENTS e: f();\nORDER {}e{}",
            "(".repeat(80),
            ")".repeat(80)
        ),
        _ => format!(
            "SPEC a.B\nEVENTS e: f(undeclared);\nORDER e // {}",
            "x".repeat(256)
        ),
    }
}

/// Reduces a corpus source to a single bounded line usable as a
/// selector without breaking line-oriented transports.
fn corpus_selector(source: &str) -> String {
    let line: String = source
        .chars()
        .filter(|c| !c.is_control())
        .take(160)
        .collect();
    if line.trim().is_empty() {
        SYNTHETIC_SELECTORS[0].to_owned()
    } else {
        line
    }
}

/// Builds the deterministic operation schedule for `spec`.
pub fn build_schedule(spec: &WorkloadSpec) -> Vec<Op> {
    assert!(
        !spec.use_case_ids.is_empty(),
        "workload needs at least one use case"
    );
    let mut rng = Xoshiro256::seed_from_u64(spec.seed);
    let zipf = Zipf::new(spec.use_case_ids.len(), spec.zipf_s);
    let mut ops = Vec::with_capacity(spec.budget as usize);
    for index in 0..spec.budget {
        if spec.reload_every > 0 && index > 0 && index % spec.reload_every == 0 {
            ops.push(Op {
                index,
                kind: OpKind::Reload,
            });
            continue;
        }
        if spec.snapshot_every > 0 && index > 0 && index % spec.snapshot_every == 0 {
            ops.push(Op {
                index,
                kind: OpKind::Snapshot,
            });
            continue;
        }
        let hostile = rng.next_below(1000) < u64::from(spec.hostile_per_mille);
        let kind = if hostile {
            match rng.next_below(3) {
                0 => {
                    let payload = if !spec.corpus.is_empty() && rng.next_bool() {
                        let i = rng.next_below(spec.corpus.len() as u64) as usize;
                        corpus_selector(&spec.corpus[i])
                    } else {
                        let i = rng.next_below(SYNTHETIC_SELECTORS.len() as u64) as usize;
                        SYNTHETIC_SELECTORS[i].to_owned()
                    };
                    OpKind::HostileSelector { payload }
                }
                1 => {
                    let source = if spec.corpus.is_empty() {
                        synthetic_rule(&mut rng)
                    } else {
                        let i = rng.next_below(spec.corpus.len() as u64) as usize;
                        spec.corpus[i].clone()
                    };
                    OpKind::HostileRule { source }
                }
                _ => OpKind::HostileProtocol {
                    variant: rng.next_below(4) as u8,
                },
            }
        } else {
            let rank = zipf.sample(&mut rng);
            OpKind::WellFormed {
                uc: spec.use_case_ids[rank],
            }
        };
        ops.push(Op { index, kind });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The standard mix perfbench's `uds-mixed` replays, over the
    /// catalogue. A longer budget only extends the schedule: the first
    /// 2000 ops are the same for any budget of at least 2000.
    fn spec() -> WorkloadSpec {
        WorkloadSpec::standard(7, 2_000, catalogue_ids(), vec!["SPEC x.Y".to_owned()])
    }

    #[test]
    fn id_universe_derives_from_the_catalogue() {
        let all = catalogue_ids();
        assert!(all.len() >= 25, "catalogue shrank to {}", all.len());
        let unique: BTreeSet<u8> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "duplicate use-case id in {all:?}");
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_spec() {
        let a = build_schedule(&spec());
        assert_eq!(a, build_schedule(&spec()));
        let mut other = spec();
        other.seed = 8;
        assert_ne!(a, build_schedule(&other));
    }

    #[test]
    fn zipf_skews_toward_the_hot_case() {
        let ops = build_schedule(&spec());
        let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
        for op in &ops {
            if let OpKind::WellFormed { uc } = op.kind {
                *counts.entry(uc).or_default() += 1;
            }
        }
        let ids = catalogue_ids();
        let hot = counts[&ids[0]];
        let cold = counts.get(ids.last().unwrap()).copied().unwrap_or(0);
        assert!(
            hot >= 3 * cold.max(1),
            "zipf skew missing: hot={hot} cold={cold}"
        );
        // Every case still appears: the tail is cold, not absent.
        assert_eq!(counts.len(), ids.len());
    }

    #[test]
    fn mix_matches_the_per_mille_knob() {
        let ops = build_schedule(&spec());
        let hostile = ops
            .iter()
            .filter(|o| o.kind.class().starts_with("hostile"))
            .count();
        let frac = hostile as f64 / ops.len() as f64;
        assert!(
            (0.15..0.35).contains(&frac),
            "hostile fraction {frac} far from 0.25"
        );
        // The replayed mix is never quietly partial: every op class
        // and every catalogued use case occurs.
        let classes: BTreeSet<&str> = ops.iter().map(|o| o.kind.class()).collect();
        let expected: BTreeSet<&str> = [
            "wellformed",
            "hostile_selector",
            "hostile_rule",
            "hostile_protocol",
            "reload",
            "snapshot",
        ]
        .into();
        assert_eq!(classes, expected);
        let cases: BTreeSet<u8> = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::WellFormed { uc } => Some(uc),
                _ => None,
            })
            .collect();
        assert_eq!(cases, catalogue_ids().into_iter().collect());
    }

    #[test]
    fn corpus_selectors_are_single_bounded_lines() {
        let s = corpus_selector("SPEC a.B\nEVENTS e: f();\n\u{0}junk");
        assert!(!s.contains('\n'));
        assert!(!s.chars().any(char::is_control));
        assert!(s.chars().count() <= 160);
        assert_eq!(corpus_selector("\n\n\t"), SYNTHETIC_SELECTORS[0]);
    }
}
