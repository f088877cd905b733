//! `cognicryptgen` — command-line front end for the reproduction.
//!
//! ```text
//! cognicryptgen list                  list the shipped use cases
//! cognicryptgen generate <id|name>    generate a use case, print Java
//! cognicryptgen batch <dir> [threads] generate all use cases into <dir>
//! cognicryptgen template <id|name>    print the use case's code template
//! cognicryptgen rules [class]         print the CrySL rule set (or one rule)
//! cognicryptgen compile-rules <src-dir|--embedded> <out.crpack>
//!                                     parse + validate a rule set, precompile
//!                                     every ORDER automaton, and write the
//!                                     versioned, checksummed binary rule pack
//!                                     — a later `--rules <out.crpack>` boot
//!                                     (CLI or daemon) deserializes it and
//!                                     skips parsing and ORDER compilation
//!                                     entirely
//! cognicryptgen analyze <file>        run the misuse analyzer on Java text
//!                                     against the --rules pack (default:
//!                                     the embedded one)
//! cognicryptgen oldgen <id>           run the XSL/Clafer baseline generator
//! cognicryptgen report [dir]          run all use cases instrumented, print
//!                                     the Table-1 timing/memory/metrics report
//!                                     and write REPORT_table1.json into [dir]
//! cognicryptgen report-check <file>   validate a written Table-1 report
//! cognicryptgen trace-check <file>    validate a written Chrome trace
//! cognicryptgen fuzz [--budget <n>] [--seed <s>] [--corpus <dir>]
//!                                     deterministic fuzzing of the CrySL
//!                                     front-end and generation pipeline;
//!                                     replays <dir> first, writes new crash
//!                                     reproducers there, exits non-zero on
//!                                     any crash
//! cognicryptgen serve [--listen <addr>] [--socket <path>]
//!                     [--threads <n>] [--rules <dir|pack.crpack>]
//!                     [--slow-ms <n>] [--tracez-capacity <n>]
//!                                     run the long-lived generation daemon:
//!                                     one warm engine, HTTP/1.1 and/or a
//!                                     Unix-socket line protocol, /metrics,
//!                                     rule-pack hot-reload, per-request
//!                                     observability (/tracez access records,
//!                                     /statz latency quantiles, /profilez
//!                                     on-demand trace capture; --slow-ms
//!                                     logs slow requests to stderr)
//! ```
//!
//! `generate`, `batch`, `report` and `analyze` additionally accept
//! `--rules <dir|pack.crpack|name@vN>` — serve (or, for `analyze`,
//! check against) a rule pack other than the embedded one,
//! auto-detected as a `*.crysl` source directory, a precompiled binary
//! pack or a catalogued pack name — and all but `analyze` accept
//! `--trace <file>`:
//! the records of the run's generations are folded into a
//! [`TraceRecorder`] and written as Chrome Trace Event Format JSON —
//! open the file in `chrome://tracing` or Perfetto. Every one of them
//! boots its pack through [`ServedPack::boot`], as the daemon does, and
//! a traced run boots the same pack as an untraced one, so the
//! generated Java is the same either way, which the golden-catalogue
//! suite asserts.
//!
//! The binary installs [`TrackingAlloc`] as its global allocator, so
//! per-phase `alloc_bytes`/`peak_live_bytes` in `report` output and in
//! traces are real allocator-level figures, not zeros.
//!
//! Failures exit with a per-class code (usage 2, rules 3,
//! generation/engine 4, I/O 5, invalid input 6) so scripts can branch
//! without parsing stderr.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use cognicryptgen::core::memtrack::TrackingAlloc;
use cognicryptgen::core::telemetry::{validate_trace, TraceRecorder};
use cognicryptgen::core::GenEngine;
use cognicryptgen::javamodel::parser::parse_java;
use cognicryptgen::report::{self, REPORT_FILE};
use cognicryptgen::rules::{self, PackSource};
use cognicryptgen::sast::{analyze_unit, AnalyzerOptions};
use cognicryptgen::serve::{ServeConfig, Server};
use cognicryptgen::{find_case_file, Error, ServedPack};
use devharness::json::Json;

/// Every allocation of the CLI process is counted, so phase spans carry
/// real allocation deltas (library users opt in from their own binary).
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

const USAGE: &str = "cognicryptgen <list|generate|batch|template|rules|compile-rules|analyze|oldgen|report|report-check|trace-check|fuzz|serve> [arg..] [--rules <dir|pack|name@vN>] [--trace <file>]";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = extract_trace(&mut args).and_then(|trace| {
        let trace = trace.as_deref();
        let rules_flag = extract_flag(&mut args, "--rules", "a rule pack path")?;
        let pack = rules_flag.as_deref();
        match args.first().map(String::as_str) {
            Some("list") => reject_custom(trace, pack, "list").and_then(|()| cmd_list()),
            Some("generate") => {
                selector(args.get(1)).and_then(|selector| cmd_generate(selector, pack, trace))
            }
            Some("batch") => cmd_batch(
                args.get(1).map(String::as_str),
                args.get(2).map(String::as_str),
                pack,
                trace,
            ),
            Some("template") => {
                reject_custom(trace, pack, "template").and_then(|()| cmd_template(args.get(1)))
            }
            Some("rules") => reject_custom(trace, pack, "rules")
                .and_then(|()| cmd_rules(args.get(1).map(String::as_str))),
            Some("compile-rules") => reject_custom(trace, pack, "compile-rules")
                .and_then(|()| cmd_compile_rules(&args[1..])),
            Some("analyze") => reject_trace(trace, "analyze")
                .and_then(|()| cmd_analyze(args.get(1).map(String::as_str), pack)),
            Some("oldgen") => reject_custom(trace, pack, "oldgen")
                .and_then(|()| cmd_oldgen(args.get(1).map(String::as_str))),
            Some("report") => cmd_report(args.get(1).map(String::as_str), pack, trace),
            Some("report-check") => reject_custom(trace, pack, "report-check")
                .and_then(|()| cmd_report_check(args.get(1).map(String::as_str))),
            Some("trace-check") => reject_custom(trace, pack, "trace-check")
                .and_then(|()| cmd_trace_check(args.get(1).map(String::as_str))),
            Some("fuzz") => reject_custom(trace, pack, "fuzz").and_then(|()| cmd_fuzz(&args[1..])),
            Some("serve") => {
                // `serve` parses its own --rules flag (it was never
                // extracted above because extract_flag runs first —
                // so serve's flag is the same one, reinjected here).
                reject_trace(trace, "serve")?;
                let mut serve_args = args[1..].to_vec();
                if let Some(path) = rules_flag.clone() {
                    serve_args.push("--rules".to_owned());
                    serve_args.push(path);
                }
                cmd_serve(&serve_args)
            }
            _ => Err(Error::Usage(USAGE.to_owned())),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Removes `--trace <file>` from the argument list, wherever it sits.
/// The extraction is strict: a `--trace` without a following path, or a
/// second `--trace`, is a usage error — before this normalization a
/// repeated flag silently became a positional argument of whatever
/// subcommand ran, with the second path ignored.
fn extract_trace(args: &mut Vec<String>) -> Result<Option<String>, Error> {
    let mut trace = None;
    while let Some(i) = args.iter().position(|a| a == "--trace") {
        if trace.is_some() {
            return Err(Error::Usage("--trace given more than once".to_owned()));
        }
        if i + 1 >= args.len() {
            return Err(Error::Usage("--trace requires a file path".to_owned()));
        }
        args.remove(i);
        trace = Some(args.remove(i));
    }
    Ok(trace)
}

fn reject_trace(trace: Option<&str>, cmd: &str) -> Result<(), Error> {
    match trace {
        Some(_) => Err(Error::Usage(format!(
            "--trace is not supported by `{cmd}` (use generate, batch or report)"
        ))),
        None => Ok(()),
    }
}

/// Rejects both cross-cutting flags for subcommands taking neither.
fn reject_custom(trace: Option<&str>, pack: Option<&str>, cmd: &str) -> Result<(), Error> {
    reject_trace(trace, cmd)?;
    match pack {
        Some(_) => Err(Error::Usage(format!(
            "--rules is not supported by `{cmd}` (use generate, batch, report, analyze or serve)"
        ))),
        None => Ok(()),
    }
}

/// Removes `--<flag> <value>` from the argument list, wherever it
/// sits, with the same strictness as [`extract_trace`].
fn extract_flag(args: &mut Vec<String>, flag: &str, what: &str) -> Result<Option<String>, Error> {
    let mut value = None;
    while let Some(i) = args.iter().position(|a| a == flag) {
        if value.is_some() {
            return Err(Error::Usage(format!("{flag} given more than once")));
        }
        if i + 1 >= args.len() {
            return Err(Error::Usage(format!("{flag} requires {what}")));
        }
        args.remove(i);
        value = Some(args.remove(i));
    }
    Ok(value)
}

/// The pack `--rules` names — the embedded one without the flag.
fn source(pack: Option<&str>) -> PackSource {
    pack.map_or(PackSource::Embedded, PackSource::detect)
}

/// Validates and writes the folded trace, reporting to stderr so
/// stdout stays reserved for the command's own output.
fn write_trace(trace: &TraceRecorder, path: &str) -> Result<(), Error> {
    let doc = trace.to_json();
    validate_trace(&doc).map_err(|e| Error::Invalid(format!("recorded trace: {e}")))?;
    std::fs::write(path, format!("{doc}\n")).map_err(|e| Error::io(path, e))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map_or(0, <[_]>::len);
    eprintln!("trace: {events} events written to {path}");
    Ok(())
}

fn selector(arg: Option<&String>) -> Result<&str, Error> {
    arg.map(String::as_str)
        .ok_or_else(|| Error::Usage("missing use-case id or name".to_owned()))
}

fn cmd_list() -> Result<(), Error> {
    println!("{:<4} {:<32} Sources", "#", "Use case (paper Table 1)");
    for file in usecases::catalogue() {
        println!("{:<4} {:<32} {}", file.id, file.name, file.sources);
    }
    Ok(())
}

fn cmd_generate(selector: &str, pack: Option<&str>, trace: Option<&str>) -> Result<(), Error> {
    let served = ServedPack::open(source(pack), None)?;
    let uc = served.case(selector)?;
    let generated = served.engine().generate(&uc.template)?;
    if let Some(path) = trace {
        let mut recorder = TraceRecorder::new();
        recorder.add(&uc.template.class_name, &generated.record);
        write_trace(&recorder, path)?;
    }
    print!("{}", generated.java_source);
    Ok(())
}

/// `batch <dir> [threads]` — generate every catalogued use case in one
/// engine session, fanned over worker threads, writing `uc01.java` …
/// `uc26.java` into `dir`. A `--rules` pack that names a catalog entry
/// (directly, or through a compiled `.crpack`'s manifest) narrows the
/// run to the use-case subset that pack declares. Any per-case failure
/// is reported and turns the whole invocation into a failure after all
/// cases ran.
fn cmd_batch(
    outdir: Option<&str>,
    threads: Option<&str>,
    pack: Option<&str>,
    trace: Option<&str>,
) -> Result<(), Error> {
    let outdir =
        outdir.ok_or_else(|| Error::Usage("missing output directory for batch".to_owned()))?;
    let threads = match threads {
        Some(t) => t
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| Error::Usage(format!("invalid thread count `{t}`")))?,
        None => 4,
    };
    let outdir = Path::new(outdir);
    std::fs::create_dir_all(outdir).map_err(|e| Error::io(outdir.display().to_string(), e))?;

    let served = ServedPack::open(source(pack), None)?;
    let engine = served.engine();
    let cases = served.cases();
    let total = usecases::catalogue().len();
    if cases.len() < total {
        println!(
            "batch: rule pack declares {} of {} catalogued use cases",
            cases.len(),
            total
        );
    }
    let templates: Vec<_> = cases.iter().map(|uc| uc.template.clone()).collect();
    let results = engine.generate_batch(&templates, threads);

    let mut recorder = TraceRecorder::new();
    let mut last_failure = None;
    let mut failures = 0usize;
    for (uc, result) in cases.iter().zip(results) {
        match result {
            Ok(generated) => {
                recorder.add(&uc.template.class_name, &generated.record);
                let path = outdir.join(format!("uc{:02}.java", uc.id));
                std::fs::write(&path, &generated.java_source)
                    .map_err(|e| Error::io(path.display().to_string(), e))?;
                println!(
                    "uc{:02} {:<32} ok ({} bytes)",
                    uc.id,
                    uc.name,
                    generated.java_source.len()
                );
            }
            Err(e) => {
                failures += 1;
                eprintln!("uc{:02} {:<32} FAILED: {e}", uc.id, uc.name);
                last_failure = Some(e);
            }
        }
    }
    if let Some(path) = trace {
        write_trace(&recorder, path)?;
    }
    let stats = engine.cache_stats();
    println!(
        "batch: {} of {} generated with {} threads (order cache: {} entries, {} hits, {} misses)",
        cases.len() - failures,
        cases.len(),
        threads,
        stats.entries,
        stats.hits,
        stats.misses
    );
    match last_failure {
        Some(e) => Err(Error::Engine(e)),
        None => Ok(()),
    }
}

/// `template <id|name>` — print the use case's template file verbatim.
fn cmd_template(arg: Option<&String>) -> Result<(), Error> {
    print!("{}", find_case_file(selector(arg)?)?.text);
    Ok(())
}

fn cmd_rules(class: Option<&str>) -> Result<(), Error> {
    let set = rules::open(PackSource::Embedded)?.rules;
    match class {
        Some(name) => {
            let rule = set
                .by_name(name)
                .ok_or_else(|| Error::Usage(format!("no rule for `{name}`")))?;
            print!("{}", cognicryptgen::crysl::printer::print_rule(rule));
        }
        None => {
            for rule in set.iter() {
                println!("{}", rule.class_name);
            }
        }
    }
    Ok(())
}

/// `compile-rules <src-dir|name[@vN]|--embedded> <out.crpack>` — parse
/// and validate a rule set (a `*.crysl` source directory, a catalog
/// pack named `jca@v1`-style, or the embedded set), precompile every
/// ORDER automaton (minimized DFA plus its enumerated paths, keyed by
/// content-hash fingerprint), and write the whole thing as the
/// versioned, checksummed binary rule pack a later `--rules
/// <out.crpack>` boot loads without touching the CrySL front-end or
/// the NFA→DFA pipeline. Catalog packs carry their `name@vN` manifest
/// into the compiled artefact, so a version-pinned `.crpack` stays
/// distinguishable after distribution.
fn cmd_compile_rules(args: &[String]) -> Result<(), Error> {
    let (src, out) = match args {
        [src, out] => (src.as_str(), out.as_str()),
        _ => {
            return Err(Error::Usage(
                "compile-rules <src-dir|name[@vN]|--embedded> <out.crpack>".to_owned(),
            ))
        }
    };
    let source = if src == "--embedded" {
        PackSource::Embedded
    } else {
        PackSource::detect(src)
    };
    // Uncached: a compiler run must parse its actual input, not a
    // previously cached embedded set.
    let pack = rules::open_uncached(source)?;
    let bytes = pack.to_bytes()?;
    std::fs::write(out, &bytes).map_err(|e| Error::io(out, e))?;
    println!(
        "compile-rules: {} ({} rules), {} ORDER artefacts, pack v{} fingerprint {:016x}, {} bytes -> {out}",
        pack.manifest,
        pack.rules.len(),
        pack.fingerprints.len(),
        cognicryptgen::rules::PACK_VERSION,
        pack.pack_fingerprint(),
        bytes.len(),
    );
    Ok(())
}

/// `analyze <file>` — check Java text against the rule pack `--rules`
/// names (the embedded one by default), so code generated under a pack
/// is judged by that same pack.
fn cmd_analyze(path: Option<&str>, pack: Option<&str>) -> Result<(), Error> {
    let path = path.ok_or_else(|| Error::Usage("missing file to analyze".to_owned()))?;
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    // Every ORDER of a booted pack has compiled (at boot, or when its
    // `.crpack` was written), so a rule the analyzer could not track
    // fails here, typed, before any analysis.
    let served = ServedPack::open(source(pack), None)?;
    let (rules, table) = (served.engine().rules(), served.engine().table());
    let unit = parse_java(&text, table).map_err(|e| Error::Invalid(e.to_string()))?;
    let misuses = analyze_unit(&unit, rules, table, AnalyzerOptions::default());
    if misuses.is_empty() {
        println!("no misuses found");
    } else {
        for m in &misuses {
            println!("{m}");
        }
    }
    Ok(())
}

fn cmd_oldgen(selector: Option<&str>) -> Result<(), Error> {
    let selector = selector.ok_or_else(|| Error::Usage("missing use-case id".to_owned()))?;
    let id: u8 = selector
        .parse()
        .map_err(|_| Error::Usage("oldgen expects a numeric use-case id".to_owned()))?;
    let uc = cognicryptgen::oldgen::old_gen_use_cases()
        .into_iter()
        .find(|u| u.id == id)
        .ok_or_else(|| Error::Usage(format!("old generator does not support use case {id}")))?;
    let out = cognicryptgen::oldgen::generate_use_case(&uc, &BTreeMap::new())
        .map_err(|e| Error::Invalid(e.to_string()))?;
    print!("{out}");
    Ok(())
}

/// `report [dir]` — generate every use case the pack declares (all of
/// them for the embedded pack) on an instrumented engine, print the
/// Table-1 per-phase timing table with the pipeline metrics, and write
/// the machine-readable `REPORT_table1.json` into `dir` (default:
/// current directory).
fn cmd_report(outdir: Option<&str>, pack: Option<&str>, trace: Option<&str>) -> Result<(), Error> {
    let outdir = Path::new(outdir.unwrap_or("."));
    std::fs::create_dir_all(outdir).map_err(|e| Error::io(outdir.display().to_string(), e))?;
    let report = report::build_from(source(pack))?;
    if let Some(path) = trace {
        let mut recorder = TraceRecorder::new();
        for row in &report.rows {
            recorder.add(&row.class, &row.record);
        }
        write_trace(&recorder, path)?;
    }
    print!("{}", report::render_text(&report));
    let path = outdir.join(REPORT_FILE);
    let doc = report::to_json(&report);
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| Error::io(path.display().to_string(), e))?;
    println!("\nreport written to {}", path.display());
    Ok(())
}

/// `report-check <file>` — parse a previously written Table-1 report
/// and validate its shape (every catalogued use case, all five phases, metrics).
fn cmd_report_check(path: Option<&str>) -> Result<(), Error> {
    let path = path.ok_or_else(|| Error::Usage("missing report file to check".to_owned()))?;
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    let doc = Json::parse(&text).map_err(|e| Error::Invalid(format!("{path}: {e}")))?;
    report::validate(&doc).map_err(|e| Error::Invalid(format!("{path}: {e}")))?;
    println!("{path}: valid table1 report");
    Ok(())
}

/// `fuzz [--budget <n>] [--seed <s>] [--corpus <dir>]` — run the
/// deterministic fuzzing harness: replay the corpus directory (if
/// given), then execute `n` fresh inputs derived from the seed. New
/// crash classes are minimized and written into the corpus directory.
/// The session log goes to stdout; any crash or undecodable corpus file
/// makes the invocation fail with the invalid-input exit code.
fn cmd_fuzz(args: &[String]) -> Result<(), Error> {
    let mut config = cognicryptgen::fuzz::FuzzConfig {
        budget: 1000,
        seed: 1,
        corpus: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| Error::Usage(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--budget" => {
                let v = value("--budget")?;
                config.budget = v
                    .parse()
                    .map_err(|_| Error::Usage(format!("invalid budget `{v}`")))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                config.seed = v
                    .parse()
                    .map_err(|_| Error::Usage(format!("invalid seed `{v}`")))?;
            }
            "--corpus" => config.corpus = Some(value("--corpus")?.into()),
            other => return Err(Error::Usage(format!("unknown fuzz option `{other}`"))),
        }
    }
    let report = cognicryptgen::fuzz::run(&config).map_err(Error::Invalid)?;
    print!("{}", report.log);
    if report.is_clean() {
        Ok(())
    } else {
        Err(Error::Invalid(format!(
            "fuzzing found {} crash class(es) and {} undecodable corpus file(s)",
            report.crashes.len(),
            report.decode_errors.len()
        )))
    }
}

/// `serve [--listen <addr>] [--socket <path>] [--threads <n>]
/// [--rules <dir|pack.crpack>] [--slow-ms <n>] [--tracez-capacity <n>]`
/// — run the generation
/// daemon until a protocol-level `shutdown` request. With no transport
/// flag, HTTP binds `127.0.0.1:0` (a free port); the bound endpoints
/// are printed as parseable `listening …` lines before the process
/// blocks. `--slow-ms` logs every request at or above the threshold to
/// stderr and counts it as `serve.requests.slow`; `--tracez-capacity`
/// sizes the `/tracez` access-record ring (0 turns off the ring and
/// the `/statz` histograms; `/metrics` counts every request anyway);
/// `--threads` (1 to 256) sizes each transport's accept pool.
fn cmd_serve(args: &[String]) -> Result<(), Error> {
    let mut config = ServeConfig {
        threads: GenEngine::DEFAULT_THREADS,
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| Error::Usage(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--listen" => config.http_addr = Some(value("--listen")?),
            "--socket" => config.uds_path = Some(value("--socket")?.into()),
            "--rules" => config.rules_path = Some(value("--rules")?.into()),
            "--threads" => {
                let v = value("--threads")?;
                config.threads = v
                    .parse()
                    .map_err(|_| Error::Usage(format!("invalid thread count `{v}`")))?;
            }
            "--slow-ms" => {
                let v = value("--slow-ms")?;
                config.slow_ms = Some(
                    v.parse()
                        .map_err(|_| Error::Usage(format!("invalid slow threshold `{v}`")))?,
                );
            }
            "--tracez-capacity" => {
                let v = value("--tracez-capacity")?;
                config.obs_capacity = v
                    .parse()
                    .map_err(|_| Error::Usage(format!("invalid tracez capacity `{v}`")))?;
            }
            other => return Err(Error::Usage(format!("unknown serve option `{other}`"))),
        }
    }
    if config.http_addr.is_none() && config.uds_path.is_none() {
        config.http_addr = Some("127.0.0.1:0".to_owned());
    }

    let handle = Server::start(&config)?;
    if let Some(addr) = handle.http_addr() {
        println!("listening http={addr}");
    }
    if let Some(path) = handle.uds_path() {
        println!("listening uds={}", path.display());
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    eprintln!("serve: shut down cleanly");
    Ok(())
}

/// `trace-check <file>` — parse a previously written Chrome trace and
/// validate its invariants (paired B/E spans, monotonic per-tid
/// timestamps).
fn cmd_trace_check(path: Option<&str>) -> Result<(), Error> {
    let path = path.ok_or_else(|| Error::Usage("missing trace file to check".to_owned()))?;
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    let doc = Json::parse(&text).map_err(|e| Error::Invalid(format!("{path}: {e}")))?;
    validate_trace(&doc).map_err(|e| Error::Invalid(format!("{path}: {e}")))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map_or(0, |events| events.len());
    println!("{path}: valid chrome trace ({events} events)");
    Ok(())
}
