//! Seeded operation plans. Every input a workload sends is a pure
//! function of the `--seed` argument; only timings differ between two
//! runs with one seed.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use cognicryptgen::fuzz::input::FuzzInput;
use cognicryptgen::load::workload::{build_schedule, catalogue_ids, OpKind, WorkloadSpec, Zipf};
use devharness::rng::{RandomSource, Xoshiro256};

/// Client threads in every workload (the machine has two cores).
pub const CLIENTS: usize = 2;

/// One benchmark operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Generate one catalogued use case by id.
    Generate(u8),
    /// A hostile request that must be refused with a typed or protocol
    /// error: a selector for the engine and HTTP, a whole protocol line
    /// for UDS.
    Reject(String),
    /// Hot-reload the rule pack.
    Reload,
    /// Fetch the daemon's latency histograms (`statz json`).
    Statz,
}

impl Op {
    pub fn class(&self) -> &'static str {
        match self {
            Op::Generate(_) => "generate",
            Op::Reject(_) => "reject",
            Op::Reload => "reload",
            Op::Statz => "statz",
        }
    }
}

/// The deterministic face of a plan: a fingerprint of the op sequence
/// and the op count per class and per generated use case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSummary {
    pub fingerprint: u64,
    pub counts: BTreeMap<String, u64>,
}

impl PlanSummary {
    pub fn of<'a>(ops: impl IntoIterator<Item = &'a Op>) -> PlanSummary {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut counts = BTreeMap::new();
        for op in ops {
            eat(op.class().as_bytes());
            match op {
                Op::Generate(uc) => {
                    eat(&[*uc]);
                    *counts.entry(format!("generate.uc{uc:02}")).or_default() += 1;
                }
                Op::Reject(payload) => eat(payload.as_bytes()),
                Op::Reload | Op::Statz => {}
            }
            eat(&[0xff]);
            *counts.entry(op.class().to_owned()).or_default() += 1;
        }
        PlanSummary {
            fingerprint: hash,
            counts,
        }
    }

    /// The class totals only, for the one-line summary.
    pub fn class_counts(&self) -> String {
        self.counts
            .iter()
            .filter(|(k, _)| !k.contains('.'))
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn client_rng(seed: u64, stream: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Client `c`'s endless op stream in the engine workload: seeded
/// shuffles of every catalogued use case, one after another.
pub struct Shuffles {
    rng: Xoshiro256,
    ids: Vec<u8>,
    pos: usize,
}

impl Shuffles {
    pub fn new(seed: u64, client: usize) -> Shuffles {
        let ids = catalogue_ids();
        Shuffles {
            rng: client_rng(seed, client as u64 + 1),
            pos: ids.len(),
            ids,
        }
    }
}

impl Iterator for Shuffles {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.pos == self.ids.len() {
            for i in (1..self.ids.len()).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                self.ids.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.ids[self.pos - 1])
    }
}

/// The generate that ends every cold start: the catalogue's first use
/// case whatever the seed, so `setup_s` times the same work in every
/// run (outputs differ several-fold in size between use cases).
pub fn setup_uc() -> u8 {
    catalogue_ids()[0]
}

/// The printed prefix of the engine workload's streams: the first 64
/// shuffles of each client, interleaved client by client.
pub fn engine_prefix(seed: u64) -> Vec<Op> {
    let per_client = 64 * catalogue_ids().len();
    let streams: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|c| Shuffles::new(seed, c).take(per_client).collect())
        .collect();
    (0..per_client)
        .flat_map(|i| streams.iter().map(move |s| Op::Generate(s[i])))
        .collect()
}

/// `n` use-case ids drawn zipf(1.0) over the catalogue, hottest first:
/// the HTTP workload's arrivals, in arrival order.
pub fn zipf_ids(seed: u64, n: usize) -> Vec<Op> {
    let ids = catalogue_ids();
    let zipf = Zipf::new(ids.len(), 1.0);
    let mut rng = client_rng(seed, 0);
    (0..n)
        .map(|_| Op::Generate(ids[zipf.sample(&mut rng)]))
        .collect()
}

/// Due offsets of `n` Poisson arrivals at `rate` per second, from the
/// first: seeded exponential gaps, so arrivals fall at every phase of
/// any periodic activity in the system under test.
pub fn poisson_offsets(seed: u64, stream: u64, n: usize, rate: f64) -> Vec<Duration> {
    let mut rng = client_rng(seed, stream);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            let offset = Duration::from_secs_f64(at);
            at += -(1.0 - rng.next_f64()).ln() / rate;
            offset
        })
        .collect()
}

/// The fuzz reproducers under `dir` that decode as CrySL rules: the
/// corpus hostile traffic is drawn from. A missing directory yields
/// none, leaving the synthetic hostile inputs.
pub fn load_corpus(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    paths
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .filter_map(|text| match FuzzInput::decode(&text) {
            Ok(FuzzInput::Rule(source)) => Some(source),
            _ => None,
        })
        .collect()
}

/// Probe ops for the workloads whose main traffic has no hostile
/// requests or reloads: `n` ops, alternating a hostile selector from
/// the load harness's vocabulary and a reload.
pub fn probes(seed: u64, n: usize, corpus: &[String]) -> Vec<Op> {
    let spec = WorkloadSpec {
        hostile_per_mille: 1000,
        reload_every: 0,
        snapshot_every: 0,
        ..WorkloadSpec::standard(seed, 4 * n as u64, catalogue_ids(), corpus.to_vec())
    };
    let mut selectors = build_schedule(&spec)
        .into_iter()
        .filter_map(|op| match op.kind {
            OpKind::HostileSelector { payload } => Some(payload),
            _ => None,
        });
    (0..n)
        .map(|i| match i % 2 {
            1 => Op::Reload,
            _ => Op::Reject(
                selectors
                    .next()
                    .expect("four schedule ops per probe suffice"),
            ),
        })
        .collect()
}

/// Protocol verbs of the UDS line protocol. A corpus line starting with
/// one would be a real request, not hostile input, so it is skipped.
const VERBS: [&str; 11] = [
    "healthz", "metrics", "loadz", "generate", "batch", "report", "reload", "tracez", "statz",
    "profilez", "shutdown",
];

/// The UDS workload: the load harness's standard mix
/// ([`WorkloadSpec::standard`]) over the catalogue, one protocol line
/// per op. Hostile selectors become `generate <selector>`, a corpus
/// rule becomes one of its source lines (chosen by the op's index), and
/// the protocol attacks are bad selectors and unknown verbs. The line-cap bomb, which makes
/// the daemon close the connection, is replaced by a malformed `batch`
/// line: that attack belongs to the load harness.
pub fn uds_mixed(seed: u64, budget: u64, corpus: &[String]) -> Vec<Op> {
    let spec = WorkloadSpec::standard(seed, budget, catalogue_ids(), corpus.to_vec());
    let mut ops = Vec::with_capacity(budget as usize);
    for op in build_schedule(&spec) {
        match op.kind {
            OpKind::WellFormed { uc } => ops.push(Op::Generate(uc)),
            OpKind::HostileSelector { payload } => {
                ops.push(Op::Reject(format!("generate {payload}")))
            }
            OpKind::HostileRule { source } => {
                let lines: Vec<&str> = source
                    .lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .filter(|l| !VERBS.contains(&l.split_whitespace().next().unwrap_or("")))
                    .collect();
                let line = match lines.len() {
                    0 => "OBJECTS",
                    n => lines[op.index as usize % n],
                };
                ops.push(Op::Reject(line.to_owned()));
            }
            OpKind::HostileProtocol { variant } => ops.push(Op::Reject(
                match variant % 4 {
                    0 => "batch many",
                    1 => "generate",
                    2 => "frobnicate now",
                    _ => "\u{fffd}\u{fffd} ??",
                }
                .to_owned(),
            )),
            OpKind::Reload => ops.push(Op::Reload),
            OpKind::Snapshot => ops.push(Op::Statz),
        }
    }
    ops
}

/// Client `c`'s share of a plan: ops `c`, `c + CLIENTS`, … in order.
pub fn share(ops: &[Op], client: usize) -> impl Iterator<Item = (usize, &Op)> {
    ops.iter().enumerate().skip(client).step_by(CLIENTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        load_corpus(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus"))
    }

    #[test]
    fn the_corpus_is_found() {
        assert!(!corpus().is_empty());
    }

    #[test]
    fn engine_streams_repeat_per_seed_and_cover_the_catalogue() {
        let a = PlanSummary::of(&engine_prefix(7));
        assert_eq!(a, PlanSummary::of(&engine_prefix(7)));
        let b = PlanSummary::of(&engine_prefix(8));
        assert_ne!(a.fingerprint, b.fingerprint);
        // Whole shuffles: every use case equally often, whatever the
        // seed, so only the order (the fingerprint) depends on it.
        let n = catalogue_ids().len() as u64;
        assert_eq!(a.counts["generate"], CLIENTS as u64 * 64 * n);
        assert_eq!(a.counts["generate.uc01"], CLIENTS as u64 * 64);
        assert_eq!(a.counts, b.counts);
        // The two clients run different orders.
        let c0: Vec<u8> = Shuffles::new(7, 0).take(52).collect();
        let c1: Vec<u8> = Shuffles::new(7, 1).take(52).collect();
        assert_ne!(c0, c1);
    }

    #[test]
    fn zipf_arrivals_repeat_per_seed_and_change_with_it() {
        let a = PlanSummary::of(&zipf_ids(7, 2000));
        assert_eq!(a, PlanSummary::of(&zipf_ids(7, 2000)));
        let b = PlanSummary::of(&zipf_ids(8, 2000));
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.counts, b.counts);
        assert!(a.counts["generate.uc01"] > 3 * a.counts["generate.uc26"]);
    }

    #[test]
    fn uds_mix_repeats_per_seed_and_changes_with_it() {
        let a = PlanSummary::of(&uds_mixed(7, 5000, &corpus()));
        assert_eq!(a, PlanSummary::of(&uds_mixed(7, 5000, &corpus())));
        let b = PlanSummary::of(&uds_mixed(8, 5000, &corpus()));
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.counts, b.counts);
        for class in ["generate", "reject", "reload", "statz"] {
            assert!(a.counts[class] > 0, "{class} missing: {:?}", a.counts);
        }
        // A reload every 97 ops and a snapshot every 61 of the schedule.
        assert_eq!(a.counts["reload"], (5000 - 1) / 97);
    }

    #[test]
    fn hostile_inputs_never_resolve_to_a_use_case() {
        let ops = probes(3, 500, &corpus());
        assert_eq!(ops.iter().filter(|o| **o == Op::Reload).count(), 250);
        for op in &ops {
            if let Op::Reject(selector) = op {
                assert!(
                    cognicryptgen::find_use_case(selector).is_err(),
                    "{selector:?}"
                );
            }
        }
        for op in uds_mixed(3, 3000, &corpus()) {
            if let Op::Reject(line) = op {
                assert!(!line.contains('\n'));
                if let Some(selector) = line.strip_prefix("generate ") {
                    assert!(cognicryptgen::find_use_case(selector.trim()).is_err());
                }
            }
        }
    }

    #[test]
    fn poisson_arrivals_keep_their_rate() {
        let offsets = poisson_offsets(5, 0, 20_000, 500.0);
        assert_eq!(offsets, poisson_offsets(5, 0, 20_000, 500.0));
        assert_eq!(offsets[0], Duration::ZERO);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let span = offsets.last().unwrap().as_secs_f64();
        assert!((38.0..42.0).contains(&span), "{span}");
    }

    #[test]
    fn clients_split_a_plan_without_overlap() {
        let ops = zipf_ids(1, 11);
        let mut seen: Vec<usize> = (0..CLIENTS)
            .flat_map(|c| share(&ops, c).map(|(i, _)| i).collect::<Vec<_>>())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..11).collect::<Vec<_>>());
    }
}
