//! The repository benchmark: three workloads driven through public
//! surfaces only — `GenEngine` in-process, and the release
//! `cognicryptgen serve` daemon as a child process over HTTP and over
//! a Unix socket. Every reply is checked against expected outputs
//! validated before the clock starts; any failure fails the run.
//!
//! An untraced run prints the end-to-end metrics. A traced run times
//! each layer from outside the program — calls into each layer's
//! public functions, the daemon's `/tracez` and `/profilez` records —
//! and reconciles the layers against the client-measured total.
//! See `README.md` in this directory.

pub mod daemon;
mod engine;
mod http;
pub mod oracle;
pub mod plan;
mod served;
pub mod stats;
mod uds;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cognicryptgen::rules::PackSource;
use devharness::json::Json;

use daemon::{Daemon, Stamps};
use oracle::{check, run_op, CallError, Fault, FaultKind, Oracle, Reply, Tally};
use plan::{Op, PlanSummary};
use stats::Samples;

/// Cold starts per run. `setup_s` is the mean of the middle 80 % of
/// their times: a daemon's boot time has two modes 5 ms apart (its
/// first `accept` may or may not wait out the accept poll), and a
/// median would jump between them from run to run.
pub const SETUP_REPS: usize = 32;

/// Segments of the measured window. A daemon workload runs each on its
/// own instance: every fourth of the cold-started daemons.
pub const SEGMENTS: usize = 8;

/// Hostile requests and reloads, alternating, in the probe phase of
/// the workloads whose main traffic has neither.
pub const PROBES: usize = 2000;

/// Mean arrival rate of the probes, per second.
const PROBE_RATE: f64 = 1000.0;

/// Generate requests a traced daemon run captures through `/profilez`,
/// per segment.
const PROFILE_REQUESTS: u64 = 16;

/// `/tracez` ring size in traced daemon runs: holds a whole run.
const TRACEZ_CAPACITY: &str = "1000000";

/// The open-loop arrival rate of `http-zipf`, requests per second. The
/// daemon completes about 1000 req/s closed-loop with two clients, but
/// at half of that the two client threads already queue requests (the
/// ledger's largest layer was `harness.lag`), and at 200 req/s their
/// queue still moved `gen_p99_ms` by up to a third between runs. At
/// this rate the daemon's own layers dominate and the tail is steady.
pub const HTTP_RATE: f64 = 100.0;

/// Schedule length of `uds-mixed`; a run ends early if it exhausts it.
const UDS_BUDGET: u64 = 250_000;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineCatalogue,
    HttpZipf,
    UdsMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EngineCatalogue,
        Workload::HttpZipf,
        Workload::UdsMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineCatalogue => "engine-catalogue",
            Workload::HttpZipf => "http-zipf",
            Workload::UdsMixed => "uds-mixed",
        }
    }
}

/// End-to-end metrics, in `BENCHMARK.json` order: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("gen_p50_ms", "ms"),
    ("gen_p99_ms", "ms"),
    ("gen_rps", "1/s"),
    ("reject_p50_ms", "ms"),
    ("reload_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order. A
/// layer that a workload's requests never pass through reports 0.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("http.connect_p50_us", "us"),
    ("http.wait_p50_us", "us"),
    ("http.wait_p99_us", "us"),
    ("http.body_p50_us", "us"),
    ("uds.wait_p50_us", "us"),
    ("uds.body_p50_us", "us"),
    ("serve.dispatch_p50_us", "us"),
    ("serve.dispatch_p99_us", "us"),
    ("serve.lookup_p50_us", "us"),
    ("serve.alloc_kb_per_gen", "KiB"),
    ("serve.reload_p50_us", "us"),
    ("engine.collect_p50_us", "us"),
    ("engine.link_p50_us", "us"),
    ("engine.select_p50_us", "us"),
    ("engine.resolve_p50_us", "us"),
    ("engine.assemble_p50_us", "us"),
    ("engine.select_alloc_kb", "KiB"),
    ("engine.assemble_alloc_kb", "KiB"),
    ("javamodel.typecheck_p50_us", "us"),
    ("javamodel.print_p50_us", "us"),
    ("statemachine.cache_hit_ratio", "ratio"),
    ("rules.open_ms", "ms"),
    ("statemachine.warm_ms", "ms"),
    ("harness.lag_p99_ms", "ms"),
    ("ledger.unaccounted_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub fault: Option<Fault>,
    pub daemon_bin: PathBuf,
    /// Scratch directory of this run, inside `.bench_run`.
    pub run_dir: PathBuf,
    pub baseline_gen_p50_ms: Option<f64>,
    pub corpus: Vec<String>,
}

const USAGE: &str = "perfbench --workload <engine-catalogue|http-zipf|uds-mixed> --seed <n> \
--seconds <n> --trace <0|1> --daemon <cognicryptgen binary> [--baseline-gen-p50-ms <ms>] \
 [--inject <wrong-byte|panic|transport|wrong-class>]";

impl Ctx {
    pub fn parse(args: &[String]) -> Result<Ctx, String> {
        let mut it = args.iter();
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(flag.as_str(), value.as_str());
        }
        let get = |name: &str| flags.get(name).copied();
        let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
        let num = |name: &str, v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("invalid {name} `{v}`"))
        };
        for flag in flags.keys() {
            if !matches!(
                *flag,
                "--workload"
                    | "--seed"
                    | "--seconds"
                    | "--trace"
                    | "--daemon"
                    | "--baseline-gen-p50-ms"
                    | "--inject"
            ) {
                return Err(format!("unknown option {flag}"));
            }
        }
        let name = need("--workload")?;
        let workload = Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?;
        let seed = need("--seed")?;
        let seed = seed
            .parse()
            .map_err(|_| format!("invalid --seed `{seed}`"))?;
        let seconds = num("--seconds", need("--seconds")?)?;
        if seconds <= 0.0 {
            return Err("--seconds must be positive".to_owned());
        }
        let traced = match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("invalid --trace `{other}`")),
        };
        let fault = match get("--inject") {
            Some(name) => Some(Fault::new(
                FaultKind::parse(name).ok_or_else(|| format!("unknown fault `{name}`"))?,
            )),
            None => None,
        };
        let baseline_gen_p50_ms = get("--baseline-gen-p50-ms")
            .map(|v| num("--baseline-gen-p50-ms", v))
            .transpose()?;
        Ok(Ctx {
            workload,
            seed,
            seconds: Duration::from_secs_f64(seconds),
            traced,
            fault,
            daemon_bin: PathBuf::from(need("--daemon")?),
            run_dir: PathBuf::from(".bench_run"),
            baseline_gen_p50_ms,
            corpus: plan::load_corpus(std::path::Path::new("corpus")),
        })
    }

    fn fault(&self) -> Option<&Fault> {
        self.fault.as_ref()
    }
}

/// One client thread's record of the ops it ran.
#[derive(Debug, Default)]
pub struct Log {
    pub tally: Tally,
    pub executed: BTreeMap<&'static str, u64>,
    /// Latency of each correct well-formed generate.
    pub gen: Samples,
    pub reject: Samples,
    pub reload: Samples,
    /// Use case of each correct well-formed generate, in order.
    pub gen_ucs: Vec<u8>,
    /// Client-side layer stamps of the correct generates.
    pub connect: Samples,
    pub wait: Samples,
    pub body: Samples,
    /// How late the open-loop pacer sent each request.
    pub lag: Samples,
    pub last_done: Option<Instant>,
}

impl Log {
    /// Records one finished op: its verdict, and on success its latency
    /// under the op's class (plus the transport stamps of a generate).
    pub fn record(
        &mut self,
        op: &Op,
        reply: &Result<Reply, CallError>,
        oracle: &Oracle,
        latency: Duration,
        stamps: Option<&Stamps>,
    ) {
        let verdict = check(op, reply, oracle);
        self.tally.record(op, verdict);
        *self.executed.entry(op.class()).or_default() += 1;
        self.last_done = Some(Instant::now());
        if verdict.is_err() {
            return;
        }
        match op {
            Op::Generate(uc) => {
                self.gen.push(latency);
                self.gen_ucs.push(*uc);
                if let Some(s) = stamps {
                    self.connect.push(s.connect());
                    self.wait.push(s.wait());
                    self.body.push(s.body());
                }
            }
            Op::Reject(_) => self.reject.push(latency),
            Op::Reload => self.reload.push(latency),
            Op::Statz => {}
        }
    }

    pub fn merge(&mut self, other: Log) {
        self.tally.merge(other.tally);
        for (class, n) in other.executed {
            *self.executed.entry(class).or_default() += n;
        }
        self.gen.append(other.gen);
        self.reject.append(other.reject);
        self.reload.append(other.reload);
        self.gen_ucs.extend(other.gen_ucs);
        self.connect.append(other.connect);
        self.wait.append(other.wait);
        self.body.append(other.body);
        self.lag.append(other.lag);
        self.last_done = self.last_done.max(other.last_done);
    }

    /// Folds in ops that count toward correctness but whose timings
    /// belong to no latency metric: the first generate of each boot.
    pub fn merge_checks(&mut self, other: Log) {
        self.tally.merge(other.tally);
        for (class, n) in other.executed {
            *self.executed.entry(class).or_default() += n;
        }
    }

    /// Folds in a probe phase: its reject and reload latencies, and the
    /// correctness of everything it ran.
    pub fn merge_probes(&mut self, mut probed: Log) {
        self.reject.append(std::mem::take(&mut probed.reject));
        self.reload.append(std::mem::take(&mut probed.reload));
        self.merge_checks(probed);
    }
}

/// What a workload hands back for reporting.
pub struct Outcome {
    pub plan: PlanSummary,
    /// Ops of the measured window plus set-up and probes.
    pub log: Log,
    /// The measured window: first due instant to last reply, summed
    /// over segments.
    pub window: Duration,
    /// Latencies of the correct generates, per segment of the window.
    pub gen_segments: Vec<Samples>,
    pub setup: Samples,
    pub peak_rss_kb: u64,
    /// Traced runs only.
    pub layers: Option<Layers>,
    pub notes: Vec<String>,
}

/// The traced run's per-layer figures and the ledger that reconciles
/// them against the client-measured total.
#[derive(Debug)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    /// Top-level layers of one well-formed generate: mean microseconds
    /// each, in request order. They should sum to `total_us`.
    pub ledger: Vec<(&'static str, f64)>,
    /// Mean client-measured microseconds of one well-formed generate.
    pub total_us: f64,
    /// Breakdown of the daemon's dispatch: mean microseconds.
    pub dispatch_parts: Vec<(&'static str, f64)>,
}

/// Cold-starts the daemon `SETUP_REPS` times: spawn, then the first
/// correct generate (timed from spawn: one `setup_s` sample). Every
/// fourth instance then runs `segment(daemon, k)` for the next segment
/// `k` of the measured window before it is stopped. Spreading a run
/// over several daemon instances keeps one instance's scheduling luck
/// from setting the run's figures. `call` sends one op to a daemon.
/// Returns the boot times, the boot ops' log, and the largest peak RSS
/// of a segment's instance, in KiB.
pub fn segmented(
    ctx: &Ctx,
    oracle: &Oracle,
    args: &[String],
    first: &Op,
    call: impl Fn(&Daemon, &Op) -> Result<Reply, String>,
    mut segment: impl FnMut(&Daemon, usize) -> Result<(), String>,
) -> Result<(Samples, Log, u64), String> {
    const STRIDE: usize = SETUP_REPS / SEGMENTS;
    let mut setup = Samples::default();
    let mut log = Log::default();
    let mut peak_rss_kb = 0;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let daemon = Daemon::spawn(&ctx.daemon_bin, args)?;
        let reply = run_op(None, first, || call(&daemon, first));
        let elapsed = t0.elapsed();
        let mut one = Log::default();
        one.record(first, &reply, oracle, elapsed, None);
        log.merge_checks(one);
        setup.push(elapsed);
        if rep % STRIDE == STRIDE - 1 {
            segment(&daemon, rep / STRIDE)?;
            peak_rss_kb = peak_rss_kb.max(daemon.peak_rss_kb().unwrap_or(0));
        }
        daemon.stop();
    }
    Ok((setup, log, peak_rss_kb))
}

/// Segment `k`'s share of `n` items, out of `SEGMENTS`.
pub fn segment_range(n: usize, k: usize) -> std::ops::Range<usize> {
    n * k / SEGMENTS..n * (k + 1) / SEGMENTS
}

/// Sends the seeded probes `plan::probes` in `range` from one client
/// thread at Poisson arrivals, `PROBE_RATE` per second, to an otherwise
/// idle target. Each probe is timed from its send; the latencies land
/// in the returned log's reject and reload samples.
pub fn probe_phase(
    ctx: &Ctx,
    oracle: &Oracle,
    range: std::ops::Range<usize>,
    probe: impl Fn(&Op) -> Result<Reply, String>,
) -> Log {
    let probes = plan::probes(ctx.seed, PROBES, &ctx.corpus);
    let offsets = plan::poisson_offsets(ctx.seed, 99, PROBES, PROBE_RATE);
    let base = offsets[range.start];
    let mut log = Log::default();
    let start = Instant::now();
    for i in range {
        let (op, due) = (&probes[i], start + (offsets[i] - base));
        if let Some(ahead) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(ahead);
        }
        let t0 = Instant::now();
        let reply = run_op(None, op, || probe(op));
        log.record(op, &reply, oracle, t0.elapsed(), None);
    }
    log
}

/// Times `reps` cold opens of `source` and warm-ups of a fresh engine
/// over it: the `rules.open_ms` and `statemachine.warm_ms` layers.
/// Returns the two sample sets and the rules the warm-up compiled.
pub fn time_open_and_warm(
    source: &PackSource,
    reps: usize,
) -> Result<(Samples, Samples, usize), String> {
    use cognicryptgen::core::GenEngine;
    let (mut open, mut warm, mut compiled) = (Samples::default(), Samples::default(), 0);
    for _ in 0..reps {
        let t0 = Instant::now();
        let pack =
            cognicryptgen::rules::open_uncached(source.clone()).map_err(|e| e.to_string())?;
        open.push(t0.elapsed());
        let engine = GenEngine::builder()
            .rules(pack.rules)
            .build()
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        compiled = engine.warm_traced().map_err(|e| e.to_string())?.compiled;
        warm.push(t1.elapsed());
    }
    Ok((open, warm, compiled))
}

/// Microseconds of nanoseconds.
fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Each engine phase as a layer: its name in the ledger and its p50
/// metric, in pipeline order.
const PHASES: [(&str, &str); 5] = [
    ("engine.collect", "engine.collect_p50_us"),
    ("engine.link", "engine.link_p50_us"),
    ("engine.select", "engine.select_p50_us"),
    ("engine.resolve", "engine.resolve_p50_us"),
    ("engine.assemble", "engine.assemble_p50_us"),
];

/// Fills the engine-phase metrics from per-phase span durations (ns)
/// and allocated bytes, indexed by `Phase::index`; returns each phase's
/// mean microseconds per generate, for the ledger.
fn engine_phases(
    ns: &[Samples; 5],
    bytes: &[Samples; 5],
    values: &mut BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64)> {
    use cognicryptgen::core::Phase;
    let kib = |phase: Phase| bytes[phase.index()].dist().quantile_ns(0.5) as f64 / 1024.0;
    values.insert("engine.select_alloc_kb", kib(Phase::Select));
    values.insert("engine.assemble_alloc_kb", kib(Phase::Assemble));
    PHASES
        .iter()
        .zip(ns)
        .map(|((layer, metric), samples)| {
            let dist = samples.dist();
            values.insert(metric, dist.p50_us());
            (*layer, us(dist.mean_ns()))
        })
        .collect()
}

/// Runs one workload and prints its report; returns the exit code.
pub fn run(args: &[String]) -> i32 {
    let ctx = match Ctx::parse(args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: {USAGE}");
            return 2;
        }
    };
    if ctx.traced && ctx.baseline_gen_p50_ms.is_none() {
        eprintln!("perfbench: --trace 1 needs --baseline-gen-p50-ms (run.py supplies it)");
        return 2;
    }
    let run_dir = ctx
        .run_dir
        .join(format!("{}-{}", ctx.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: {}: {e}", run_dir.display());
        return 2;
    }
    let ctx = Ctx { run_dir, ..ctx };
    let outcome = match ctx.workload {
        Workload::EngineCatalogue => engine::run(&ctx),
        Workload::HttpZipf => http::run(&ctx),
        Workload::UdsMixed => uds::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    match outcome {
        Ok(outcome) => report(&ctx, &outcome),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload.name());
            1
        }
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
}

fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    let log = &outcome.log;
    let gen = log.gen.dist();
    // The tail of each segment (one daemon instance, or one slice of
    // the in-process window), then the median across segments: a host
    // stall that queues an open loop for tens of milliseconds moves
    // one segment's tail, not the run's figure.
    let tails: Vec<(u32, u64)> = outcome
        .gen_segments
        .iter()
        .map(|s| s.dist().tail_ns())
        .collect();
    let mut tail_values = Samples::default();
    for (_, ns) in &tails {
        tail_values.push_ns(*ns);
    }
    let tail_ns = tail_values.dist().quantile_ns(0.5);
    let tail_p = tails.iter().map(|(p, _)| *p).min().unwrap_or(50);
    let secs = outcome.window.as_secs_f64().max(1e-9);
    let failed = log.tally.failed_total();
    let metric = |name, value, unit, samples, note: &str| Metric {
        name,
        value,
        unit,
        samples,
        note: note.to_owned(),
    };
    vec![
        metric("gen_p50_ms", gen.p50_ms(), "ms", log.gen.len(), ""),
        metric(
            "gen_p99_ms",
            tail_ns as f64 / 1e6,
            "ms",
            log.gen.len(),
            &format!(
                "median over {} segments of each one's p{tail_p}",
                tails.len()
            ),
        ),
        metric(
            "gen_rps",
            log.gen.len() as f64 / secs,
            "1/s",
            log.gen.len(),
            &format!("over {secs:.3} s"),
        ),
        metric(
            "reject_p50_ms",
            log.reject.dist().p50_ms(),
            "ms",
            log.reject.len(),
            "",
        ),
        metric(
            "reload_p50_ms",
            log.reload.dist().p50_ms(),
            "ms",
            log.reload.len(),
            "",
        ),
        metric(
            "setup_s",
            outcome.setup.dist().trimmed_mean_ns(0.1) / 1e9,
            "s",
            outcome.setup.len(),
            "mean of the middle 80% of cold starts",
        ),
        metric(
            "peak_rss_mb",
            outcome.peak_rss_kb as f64 / 1024.0,
            "MiB",
            1,
            "VmHWM",
        ),
        metric(
            "fail_ratio",
            failed as f64 / log.tally.attempted.max(1) as f64,
            "ratio",
            log.tally.attempted as usize,
            "printed only: always 0 on a correct run",
        ),
    ]
}

fn print_table(metrics: &[Metric]) {
    println!(
        "  {:<28} {:>14} {:<6} {:>9}  note",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "  {:<28} {:>14.4} {:<6} {:>9}  {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
}

fn report(ctx: &Ctx, outcome: &Outcome) -> i32 {
    let log = &outcome.log;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds.as_secs_f64(),
        u8::from(ctx.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "  plan fingerprint {:016x}, planned ops: {}",
        outcome.plan.fingerprint,
        outcome.plan.class_counts()
    );
    println!(
        "  executed ops: {}",
        log.executed
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let e2e = end_to_end(outcome);
    print_table(&e2e);
    let gen = log.gen.dist();
    println!(
        "  per-segment generate p50 (ms): {}",
        outcome
            .gen_segments
            .iter()
            .map(|s| format!("{:.4}", s.dist().p50_ms()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  generate latency quantiles (ms): {}",
        [0.9, 0.99, 0.999, 1.0]
            .map(|q| format!("q{q}={:.3}", gen.quantile_ns(q) as f64 / 1e6))
            .join(" ")
    );
    let failed = log.tally.failed_total();
    if failed > 0 {
        println!(
            "  FAILED {failed} of {} ops: {}",
            log.tally.attempted,
            log.tally
                .failed
                .iter()
                .map(|(k, v)| format!("{}={v}", k.name()))
                .collect::<Vec<_>>()
                .join(" ")
        );
        for m in &log.tally.messages {
            println!("    {m}");
        }
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(layers) = &outcome.layers {
        let gen_p50 = log.gen.dist().p50_ms();
        let baseline = ctx.baseline_gen_p50_ms.unwrap_or(f64::NAN);
        let overhead = gen_p50 / baseline;
        let named: f64 = layers.ledger.iter().map(|(_, v)| v).sum();
        let unaccounted = 1.0 - named / layers.total_us.max(1e-9);
        println!("  per-layer (traced run; 0 = layer not on this workload's path):");
        let mut values = layers.values.clone();
        values.insert("ledger.unaccounted_share", unaccounted);
        values.insert("trace.overhead_ratio", overhead);
        for (name, unit) in PER_LAYER {
            let value = values.get(name).copied().unwrap_or(0.0);
            println!("  {name:<28} {value:>14.4} {unit}");
            metrics.push((name, value, unit));
        }
        println!(
            "  ledger: one well-formed generate, mean {:.1} us client-measured",
            layers.total_us
        );
        for (name, mean) in &layers.ledger {
            println!(
                "    {name:<26} {mean:>12.1} us {:>6.1}%",
                100.0 * mean / layers.total_us.max(1e-9)
            );
        }
        println!(
            "    {:<26} {:>12.1} us {:>6.1}%",
            "(unaccounted)",
            layers.total_us - named,
            100.0 * unaccounted
        );
        if let Some((name, mean)) = layers.ledger.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
            println!(
                "  largest layer: {name} ({:.1}% of the total)",
                100.0 * mean / layers.total_us.max(1e-9)
            );
        }
        if !layers.dispatch_parts.is_empty() {
            println!("  inside serve.dispatch (mean us):");
            for (name, mean) in &layers.dispatch_parts {
                println!("    {name:<26} {mean:>12.1}");
            }
        }
        println!("  unaccounted_share {unaccounted:.4}");
        println!(
            "  trace.overhead_ratio {overhead:.4} (traced gen_p50 {gen_p50:.4} ms / untraced {baseline:.4} ms)"
        );
    } else {
        for m in e2e.iter().filter(|m| m.name != "fail_ratio") {
            metrics.push((m.name, m.value, m.unit));
        }
    }

    let correct = failed == 0;
    let members = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                (*name).to_owned(),
                Json::Obj(vec![
                    ("value".to_owned(), Json::Num(finite(*value))),
                    ("unit".to_owned(), Json::Str((*unit).to_owned())),
                ]),
            )
        })
        .collect();
    let doc = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        (
            "attempted".to_owned(),
            Json::Num(log.tally.attempted as f64),
        ),
        ("failed".to_owned(), Json::Num(failed as f64)),
        ("metrics".to_owned(), Json::Obj(members)),
    ]);
    println!("{doc}");
    if correct {
        0
    } else {
        1
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the workloads and metrics this
    /// code reports, in the same order and units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads", "name"), workloads);
        assert_eq!(
            names("end_to_end", "name"),
            END_TO_END.map(|(n, _)| n).to_vec()
        );
        assert_eq!(
            names("end_to_end", "unit"),
            END_TO_END.map(|(_, u)| u).to_vec()
        );
        assert_eq!(
            names("per_layer", "name"),
            PER_LAYER.map(|(n, _)| n).to_vec()
        );
        assert_eq!(
            names("per_layer", "unit"),
            PER_LAYER.map(|(_, u)| u).to_vec()
        );
    }

    #[test]
    fn options_parse_and_reject_unknowns() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ctx = Ctx::parse(&args(
            "--workload uds-mixed --seed 9 --seconds 2 --trace 0 --daemon d --inject wrong-byte",
        ))
        .unwrap();
        assert_eq!(ctx.workload, Workload::UdsMixed);
        assert_eq!(ctx.seed, 9);
        assert!(ctx.fault.is_some());
        assert!(Ctx::parse(&args(
            "--workload nope --seed 1 --seconds 1 --trace 0 --daemon d"
        ))
        .is_err());
        assert!(Ctx::parse(&args(
            "--workload http-zipf --seed 1 --seconds 1 --trace 2 --daemon d"
        ))
        .is_err());
        assert!(Ctx::parse(&args(
            "--workload http-zipf --seed 1 --seconds 1 --trace 0 --daemon d --bogus 1"
        ))
        .is_err());
    }
}
