//! The Table-1 reporter: runs every use case a rule pack declares (the
//! whole catalogue for the embedded pack) through an engine and renders
//! the paper's evaluation table — per-use-case, per-phase runtime *and
//! memory*, the CogniCryptSAST misuse count of the generated code, plus
//! the pipeline metrics — as text and as a devharness-JSON document
//! (`REPORT_table1.json`). Each row is one generation's [`GenRecord`];
//! the metrics are those records folded together.
//!
//! Memory comes from two instruments. Per-phase `alloc_bytes` /
//! `peak_live_bytes` are allocator-level figures each record's phase
//! spans measure through
//! [`cognicrypt_core::memtrack`] — they are non-zero only when the
//! running binary installed [`cognicrypt_core::memtrack::TrackingAlloc`]
//! as its global allocator (the CLI does; library test binaries don't,
//! so [`validate`] accepts zeros). The whole-process `peak_rss_kb`
//! comes from [`devharness::bench::peak_rss`] with its source recorded.
//!
//! Wall times and RSS vary run to run; everything else in the report
//! (metric counters, histogram summaries, cache traffic, source sizes)
//! is deterministic, which is what [`validate`] checks a written report
//! against.

use std::time::Instant;

use cognicrypt_core::telemetry::{GenRecord, Metric, MetricsRegistry, Phase};
use devharness::bench::{peak_rss, PeakRss};
use devharness::json::Json;
use rules::PackSource;
use sast::{analyze_unit, AnalyzerOptions};

use crate::{Error, ServedPack};

/// File name the CLI `report` subcommand writes.
pub const REPORT_FILE: &str = "REPORT_table1.json";

/// One Table-1 row: a use case, its generated size and the record of
/// its generation.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Use-case id (catalogue numbering; 1–11 are the paper's Table 1).
    pub id: u8,
    /// Use-case name.
    pub name: String,
    /// Generated template class name (the timing unit label).
    pub class: String,
    /// Bytes of generated Java source.
    pub java_bytes: usize,
    /// Misuses CogniCryptSAST finds in the generated code under the
    /// engine's own rules (RQ1: must be 0).
    pub sast_misuses: usize,
    /// The generation's record: per-phase wall time and memory.
    pub record: GenRecord,
}

/// How the reporting engine booted: which rule pack it loaded, how
/// long loading took, and whether the ORDER artefacts were compiled
/// during warm-up or pre-seeded from a precompiled `.crpack`. A
/// pack-booted run must show `warm_compiled == 0` — the whole point of
/// compiling a pack is that boot performs zero ORDER compilation.
#[derive(Debug, Clone)]
pub struct BootStats {
    /// The opened [`PackSource`], rendered (`embedded`,
    /// `source-dir:<path>`, `compiled:<path>`).
    pub origin: String,
    /// The source kind (`embedded` / `source-dir` / `compiled`).
    pub kind: &'static str,
    /// The `.crpack` format version the pack has or would serialize as.
    pub pack_version: u32,
    /// Content-hash fingerprint over the pack's ORDER fingerprints.
    pub pack_fingerprint: u64,
    /// Rules in the pack.
    pub rules: usize,
    /// Whether the pack carried precompiled ORDER artefacts.
    pub precompiled: bool,
    /// Wall time of the pack open that booted the engine
    /// (lex/parse/validate for sources, checksum + decode for a
    /// compiled pack).
    pub rules_load_us: f64,
    /// ORDER artefacts pre-seeded into the cache from the pack.
    pub cache_seeded: usize,
    /// Warm-up lookups served by already-present artefacts.
    pub warm_hits: usize,
    /// Warm-up lookups that had to compile. Both warm-up figures are 0
    /// for a precompiled pack, whose boot skips warm-up.
    pub warm_compiled: usize,
}

/// A full Table-1 report: one row per shipped use case plus the
/// engine-level metrics of the run.
#[derive(Debug)]
pub struct Table1Report {
    /// Rows in use-case id order.
    pub rows: Vec<ReportRow>,
    /// The rows' records folded into one registry, snapshotted.
    pub metrics: std::collections::BTreeMap<String, Metric>,
    /// Whole-process peak RSS after the run, with the facility that
    /// reported it; `None` where the platform exposes neither
    /// `getrusage` nor procfs.
    pub peak_rss: Option<PeakRss>,
    /// How the reporting engine booted (pack origin, load time, warm
    /// cache traffic).
    pub boot: BootStats,
}

/// Opens `source` uncached and timed, boots it ([`ServedPack::boot`])
/// and reports on it ([`build_served`]); the `boot` section shows the
/// real cold-start cost of the loading path — a source pack compiles
/// every ORDER artefact during warm-up, a compiled pack seeds them all
/// and skips warm-up, so each row times a warm generation and no row
/// pays for compiling an ORDER automaton.
///
/// # Errors
///
/// The typed pack open and boot failures, and [`Error::Generation`]
/// when a declared use case fails to generate.
pub fn build_from(source: PackSource) -> Result<Table1Report, Error> {
    let started = Instant::now();
    let pack = rules::open_uncached(source)?;
    build_served(&ServedPack::boot(pack, started.elapsed(), None)?)
}

/// The report on `served` (the daemon's `/report`): every use case the
/// pack declares ([`ServedPack::cases`]), in id order on one thread,
/// generated on the pack's engine itself — its metrics see the records,
/// like any other generation. The report's own metrics are the rows'
/// records folded into a fresh registry, and a trace of the run is the
/// same records folded into a
/// [`cognicrypt_core::telemetry::TraceRecorder`]. The `boot` section
/// says how the pack was loaded.
///
/// # Errors
///
/// [`Error::Generation`] when a declared use case fails to generate.
pub(crate) fn build_served(served: &ServedPack) -> Result<Table1Report, Error> {
    let engine = served.engine();
    let metrics = MetricsRegistry::new();
    let mut rows = Vec::new();
    for uc in served.cases() {
        let generated = engine.generate(&uc.template)?;
        generated.record.fold_into(&metrics);
        // Analysed after `generate` returns, so no phase span or record
        // includes the analysis.
        let sast_misuses = analyze_unit(
            &generated.unit,
            engine.rules(),
            engine.table(),
            AnalyzerOptions::default(),
        )
        .len();
        rows.push(ReportRow {
            id: uc.id,
            name: uc.name.to_owned(),
            class: uc.template.class_name.clone(),
            java_bytes: generated.java_source.len(),
            sast_misuses,
            record: generated.record,
        });
    }
    Ok(Table1Report {
        rows,
        metrics: metrics.snapshot(),
        peak_rss: peak_rss(),
        boot: served.boot_stats().clone(),
    })
}

fn micros(d: std::time::Duration) -> f64 {
    // Round to whole nanoseconds' worth of precision; the JSON writer
    // prints shortest-roundtrip floats.
    d.as_secs_f64() * 1e6
}

/// Renders the report as the text table the `report` subcommand prints.
pub fn render_text(report: &Table1Report) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<4} {:<34} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>7} {:>5}",
        "#",
        "Use case (paper Table 1)",
        "collect",
        "link",
        "select",
        "resolve",
        "assemble",
        "total µs",
        "bytes",
        "SAST"
    );
    for row in &report.rows {
        let t = &row.record;
        let _ = writeln!(
            out,
            "{:<4} {:<34} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>7} {:>5}",
            row.id,
            row.name,
            micros(t.phase(Phase::Collect).total),
            micros(t.phase(Phase::Link).total),
            micros(t.phase(Phase::Select).total),
            micros(t.phase(Phase::Resolve).total),
            micros(t.phase(Phase::Assemble).total),
            micros(t.total()),
            row.java_bytes,
            row.sast_misuses,
        );
    }
    let _ = writeln!(
        out,
        "\n{:<4} {:<34} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "#",
        "Memory (kB allocated)",
        "collect",
        "link",
        "select",
        "resolve",
        "assemble",
        "total kB",
        "peak kB"
    );
    for row in &report.rows {
        let t = &row.record;
        let kb = |p: Phase| t.phase(p).alloc_bytes as f64 / 1024.0;
        let _ = writeln!(
            out,
            "{:<4} {:<34} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>9.1}",
            row.id,
            row.name,
            kb(Phase::Collect),
            kb(Phase::Link),
            kb(Phase::Select),
            kb(Phase::Resolve),
            kb(Phase::Assemble),
            t.alloc_total_bytes() as f64 / 1024.0,
            t.peak_live_bytes() as f64 / 1024.0,
        );
    }
    match report.peak_rss {
        Some(p) => {
            let _ = writeln!(
                out,
                "\nprocess peak RSS: {} kB (via {})",
                p.kb,
                p.source.name()
            );
        }
        None => {
            let _ = writeln!(out, "\nprocess peak RSS: unavailable on this platform");
        }
    }
    let boot = &report.boot;
    let _ = writeln!(
        out,
        "boot: {} ({} rules, pack v{} fingerprint {:016x}) loaded in {:.1} µs; {} artefacts seeded, warm-up {} hits / {} compiled",
        boot.origin,
        boot.rules,
        boot.pack_version,
        boot.pack_fingerprint,
        boot.rules_load_us,
        boot.cache_seeded,
        boot.warm_hits,
        boot.warm_compiled,
    );
    if report
        .rows
        .iter()
        .all(|r| r.record.alloc_total_bytes() == 0)
    {
        let _ = writeln!(
            out,
            "note: allocation columns are zero — the running binary did not install memtrack::TrackingAlloc"
        );
    }
    let _ = writeln!(out, "\nmetrics:");
    for (name, metric) in &report.metrics {
        match metric {
            Metric::Counter(n) => {
                let _ = writeln!(out, "  {name} = {n}");
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "  {name} = {g} (gauge)");
            }
            Metric::Histogram(h) => {
                let _ = writeln!(
                    out,
                    "  {name}: count={} sum={} min={} max={}",
                    h.count, h.sum, h.min, h.max
                );
            }
        }
    }
    out
}

/// Serializes the report to the devharness-JSON document written as
/// [`REPORT_FILE`].
pub fn to_json(report: &Table1Report) -> Json {
    let rows = report
        .rows
        .iter()
        .map(|row| {
            let phases = Phase::ALL
                .iter()
                .map(|&p| {
                    (
                        p.name().to_owned(),
                        Json::Num(micros(row.record.phase(p).total)),
                    )
                })
                .collect();
            let mem = Phase::ALL
                .iter()
                .map(|&p| {
                    let stat = row.record.phase(p);
                    (
                        p.name().to_owned(),
                        Json::Obj(vec![
                            ("alloc_bytes".to_owned(), Json::Num(stat.alloc_bytes as f64)),
                            (
                                "peak_live_bytes".to_owned(),
                                Json::Num(stat.peak_live_bytes as f64),
                            ),
                        ]),
                    )
                })
                .collect();
            Json::Obj(vec![
                ("id".to_owned(), Json::Num(f64::from(row.id))),
                ("name".to_owned(), Json::Str(row.name.clone())),
                ("class".to_owned(), Json::Str(row.class.clone())),
                ("phases_us".to_owned(), Json::Obj(phases)),
                ("total_us".to_owned(), Json::Num(micros(row.record.total()))),
                ("phases_mem".to_owned(), Json::Obj(mem)),
                (
                    "alloc_total_bytes".to_owned(),
                    Json::Num(row.record.alloc_total_bytes() as f64),
                ),
                (
                    "peak_live_bytes".to_owned(),
                    Json::Num(row.record.peak_live_bytes() as f64),
                ),
                ("java_bytes".to_owned(), Json::Num(row.java_bytes as f64)),
                (
                    "sast_misuses".to_owned(),
                    Json::Num(row.sast_misuses as f64),
                ),
            ])
        })
        .collect();
    let metrics = report
        .metrics
        .iter()
        .map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(n) => Json::Num(*n as f64),
                Metric::Gauge(g) => Json::Obj(vec![("gauge".to_owned(), Json::Num(*g as f64))]),
                Metric::Histogram(h) => Json::Obj(vec![
                    ("count".to_owned(), Json::Num(h.count as f64)),
                    ("sum".to_owned(), Json::Num(h.sum as f64)),
                    ("min".to_owned(), Json::Num(h.min as f64)),
                    ("max".to_owned(), Json::Num(h.max as f64)),
                ]),
            };
            (name.clone(), value)
        })
        .collect();
    let boot = &report.boot;
    let boot_json = Json::Obj(vec![
        ("origin".to_owned(), Json::Str(boot.origin.clone())),
        ("kind".to_owned(), Json::Str(boot.kind.to_owned())),
        (
            "pack_version".to_owned(),
            Json::Num(f64::from(boot.pack_version)),
        ),
        (
            "pack_fingerprint".to_owned(),
            Json::Str(format!("{:016x}", boot.pack_fingerprint)),
        ),
        ("rules".to_owned(), Json::Num(boot.rules as f64)),
        (
            "precompiled".to_owned(),
            Json::Num(f64::from(u8::from(boot.precompiled))),
        ),
        ("rules_load_us".to_owned(), Json::Num(boot.rules_load_us)),
        (
            "cache_seeded".to_owned(),
            Json::Num(boot.cache_seeded as f64),
        ),
        ("warm_hits".to_owned(), Json::Num(boot.warm_hits as f64)),
        (
            "warm_compiled".to_owned(),
            Json::Num(boot.warm_compiled as f64),
        ),
    ]);
    Json::Obj(vec![
        ("report".to_owned(), Json::Str("table1".to_owned())),
        ("use_cases".to_owned(), Json::Arr(rows)),
        ("metrics".to_owned(), Json::Obj(metrics)),
        ("boot".to_owned(), boot_json),
        (
            "peak_rss_kb".to_owned(),
            match report.peak_rss {
                Some(p) => Json::Num(p.kb as f64),
                None => Json::Null,
            },
        ),
        (
            "peak_rss_source".to_owned(),
            match report.peak_rss {
                Some(p) => Json::Str(p.source.name().to_owned()),
                None => Json::Null,
            },
        ),
    ])
}

/// Validates a written report document: it must be the `table1` report,
/// cover distinct catalogued use cases — every one of them when the
/// embedded pack booted, a non-empty subset for other packs, which may
/// declare fewer — each with all five phase timings and a total, plus
/// per-phase `alloc_bytes`/`peak_live_bytes` memory figures, row
/// totals and an integer `sast_misuses` of 0 (RQ1: the generated code
/// passes CogniCryptSAST); carry a non-empty metrics object,
/// declare its whole-process `peak_rss_kb` with the source that
/// measured it (both may be null where the platform exposes neither),
/// and carry a `boot` section naming the rule-pack origin and its
/// load/warm-up figures — with zero warm-up compilations whenever the
/// pack was precompiled.
///
/// Memory figures of zero are accepted: they mean the writing binary
/// did not install the tracking allocator, not a malformed report.
///
/// # Errors
///
/// A description of the first violation found.
pub fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("report").and_then(Json::as_str) != Some("table1") {
        return Err("not a table1 report (missing `report: \"table1\"`)".to_owned());
    }
    let cases = doc
        .get("use_cases")
        .and_then(Json::as_arr)
        .ok_or("missing `use_cases` array")?;
    // The embedded pack declares the whole catalogue; others may
    // declare a subset, which the document does not name.
    let expected = usecases::catalogue().len();
    let kind = doc.get("boot").and_then(|b| b.get("kind"));
    let embedded = kind.and_then(Json::as_str) == Some("embedded");
    if cases.is_empty() || (embedded && cases.len() != expected) {
        return Err(format!(
            "expected {expected} use cases, found {}",
            cases.len()
        ));
    }
    let mut seen = vec![false; expected];
    for case in cases {
        let id = case
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("use case without numeric `id`")?;
        if !(1..=expected as u64).contains(&id) {
            return Err(format!("use-case id {id} out of catalogue range"));
        }
        if std::mem::replace(&mut seen[(id - 1) as usize], true) {
            return Err(format!("use-case id {id} appears twice"));
        }
        for key in ["name", "class"] {
            if case.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("use case {id} missing `{key}`"));
            }
        }
        let phases = case
            .get("phases_us")
            .ok_or_else(|| format!("use case {id} missing `phases_us`"))?;
        for phase in Phase::ALL {
            if phases.get(phase.name()).and_then(Json::as_f64).is_none() {
                return Err(format!("use case {id} missing phase `{phase}` timing"));
            }
        }
        if case.get("total_us").and_then(Json::as_f64).is_none() {
            return Err(format!("use case {id} missing `total_us`"));
        }
        let mem = case
            .get("phases_mem")
            .ok_or_else(|| format!("use case {id} missing `phases_mem`"))?;
        for phase in Phase::ALL {
            let slot = mem
                .get(phase.name())
                .ok_or_else(|| format!("use case {id} missing phase `{phase}` memory"))?;
            for key in ["alloc_bytes", "peak_live_bytes"] {
                if slot.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!(
                        "use case {id} phase `{phase}` missing integer `{key}`"
                    ));
                }
            }
        }
        for key in ["alloc_total_bytes", "peak_live_bytes"] {
            if case.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("use case {id} missing integer `{key}`"));
            }
        }
        match case.get("sast_misuses").and_then(Json::as_u64) {
            Some(0) => {}
            Some(n) => return Err(format!("use case {id} has {n} SAST misuses (must be 0)")),
            None => return Err(format!("use case {id} missing integer `sast_misuses`")),
        }
    }
    match doc.get("metrics") {
        Some(Json::Obj(members)) if !members.is_empty() => {}
        Some(Json::Obj(_)) => return Err("`metrics` object is empty".to_owned()),
        _ => return Err("missing `metrics` object".to_owned()),
    }
    let boot = doc.get("boot").ok_or("missing `boot` object")?;
    for key in ["origin", "kind", "pack_fingerprint"] {
        if boot.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("`boot` missing string `{key}`"));
        }
    }
    for key in [
        "pack_version",
        "rules",
        "precompiled",
        "rules_load_us",
        "cache_seeded",
        "warm_hits",
        "warm_compiled",
    ] {
        if boot.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("`boot` missing numeric `{key}`"));
        }
    }
    // The invariant the whole precompiled-pack subsystem exists for: a
    // pack-booted report must have compiled nothing during warm-up.
    let precompiled = boot.get("precompiled").and_then(Json::as_f64) == Some(1.0);
    let compiled = boot
        .get("warm_compiled")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if precompiled && compiled != 0.0 {
        return Err(format!(
            "precompiled boot reports {compiled} warm-up compilations (must be 0)"
        ));
    }
    match doc.get("peak_rss_kb") {
        Some(Json::Null) | Some(Json::Num(_)) => {}
        Some(_) => return Err("`peak_rss_kb` must be a number or null".to_owned()),
        None => return Err("missing `peak_rss_kb`".to_owned()),
    }
    match doc.get("peak_rss_source") {
        Some(Json::Null) | Some(Json::Str(_)) => {}
        Some(_) => return Err("`peak_rss_source` must be a string or null".to_owned()),
        None => return Err("missing `peak_rss_source`".to_owned()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_use_cases_and_validates() {
        let report = build_from(PackSource::Embedded).expect("report builds");
        let expected = usecases::all_use_cases().len() as u8;
        assert!(expected >= 25);
        assert_eq!(report.rows.len(), expected as usize);
        let ids: Vec<u8> = report.rows.iter().map(|r| r.id).collect();
        assert_eq!(ids, (1..=expected).collect::<Vec<u8>>());
        for row in &report.rows {
            assert!(row.java_bytes > 0, "uc{} emitted nothing", row.id);
            for phase in Phase::ALL {
                assert_eq!(
                    row.record.phase(phase).spans,
                    1,
                    "uc{} ({}) phase {phase} span count",
                    row.id,
                    row.class
                );
            }
        }
        // Cache traffic was recorded, and the boot warmed every rule's
        // ORDER automaton, so no row compiled one.
        assert!(report.metrics.contains_key("order_cache.hits"));
        assert!(!report.metrics.contains_key("order_cache.misses"));
        assert!(report.boot.warm_compiled > 0);

        let doc = to_json(&report);
        validate(&doc).expect("fresh report validates");

        // Every row carries the per-phase memory columns (zeros here:
        // this test binary does not install the tracking allocator).
        let cases = doc.get("use_cases").and_then(Json::as_arr).unwrap();
        for case in cases {
            let mem = case.get("phases_mem").expect("phases_mem present");
            for phase in Phase::ALL {
                let slot = mem
                    .get(phase.name())
                    .expect("every phase has a memory slot");
                assert!(slot.get("alloc_bytes").and_then(Json::as_u64).is_some());
                assert!(slot.get("peak_live_bytes").and_then(Json::as_u64).is_some());
            }
            assert!(case
                .get("alloc_total_bytes")
                .and_then(Json::as_u64)
                .is_some());
        }
        // The process-level RSS figure is present on Linux, with its
        // measuring facility named.
        if cfg!(target_os = "linux") {
            assert!(doc.get("peak_rss_kb").and_then(Json::as_u64).unwrap_or(0) > 0);
            assert!(doc.get("peak_rss_source").and_then(Json::as_str).is_some());
        }

        // The document round-trips through the devharness parser.
        let reparsed = Json::parse(&doc.to_string()).expect("parses");
        validate(&reparsed).expect("reparsed report validates");
    }

    #[test]
    fn report_rows_fold_into_a_valid_trace() {
        let report = build_from(PackSource::Embedded).expect("report builds");
        let expected = usecases::all_use_cases().len();
        assert_eq!(report.rows.len(), expected);
        let mut trace = cognicrypt_core::telemetry::TraceRecorder::new();
        for row in &report.rows {
            trace.add(&row.class, &row.record);
        }
        let doc = trace.to_json();
        cognicrypt_core::telemetry::validate_trace(&doc).expect("folded trace validates");
        // Every use case × 5 phases × (B + E), on one lane: the rows
        // ran one after another on one thread.
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), expected * 10);
        assert!(events
            .iter()
            .all(|e| e.get("tid").and_then(Json::as_u64) == Some(0)));
    }

    #[test]
    fn pack_booted_report_compiles_nothing_and_matches_the_embedded_run() {
        let dir = std::env::temp_dir().join(format!("cgen-report-pack-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pack_path = dir.join("jca.crpack");
        let bytes = rules::open(PackSource::Embedded)
            .unwrap()
            .to_bytes()
            .unwrap();
        std::fs::write(&pack_path, bytes).unwrap();

        let from_pack =
            build_from(PackSource::Compiled(pack_path.clone())).expect("pack-booted report builds");
        let boot = &from_pack.boot;
        assert_eq!(boot.kind, "compiled");
        assert!(boot.precompiled);
        assert!(boot.cache_seeded > 0);
        // Seeding covers every rule (the decoder refuses a pack that
        // lacks an artefact), so the boot skips warm-up altogether.
        assert_eq!((boot.warm_hits, boot.warm_compiled), (0, 0));

        // Same generated output as an embedded-source run, row by row.
        let from_source = build_from(PackSource::Embedded).expect("embedded report builds");
        assert!(!from_source.boot.precompiled);
        assert_eq!(from_source.boot.cache_seeded, 0);
        let sizes = |r: &Table1Report| -> Vec<(u8, usize)> {
            r.rows.iter().map(|row| (row.id, row.java_bytes)).collect()
        };
        assert_eq!(sizes(&from_pack), sizes(&from_source));

        validate(&to_json(&from_pack)).expect("pack-booted report validates");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_pack_report_emits_exactly_its_declared_rows() {
        let source = PackSource::Catalog {
            name: "aead".to_owned(),
            version: Some(1),
        };
        let report = build_from(source).expect("aead@v1 report builds");
        let declared = rules::catalog_pack("aead", Some(1)).unwrap().use_cases;
        let ids: Vec<u8> = report.rows.iter().map(|r| r.id).collect();
        assert_eq!(ids, declared);
        validate(&to_json(&report)).expect("a declared-subset report validates");
    }

    #[test]
    fn deterministic_metrics_match_the_committed_report() {
        // Everything but the allocator figures (zeros in this test
        // binary) is a pure function of the embedded pack: path
        // selection, ORDER-cache traffic and resolution kinds.
        let deterministic = |doc: &Json| -> Vec<(String, Json)> {
            match doc.get("metrics") {
                Some(Json::Obj(members)) => members
                    .iter()
                    .filter(|(k, _)| !k.starts_with("mem."))
                    .cloned()
                    .collect(),
                other => panic!("metrics object expected, got {other:?}"),
            }
        };
        let committed =
            Json::parse(include_str!("../REPORT_table1.json")).expect("committed report parses");
        let report = build_from(PackSource::Embedded).expect("report builds");
        assert_eq!(deterministic(&to_json(&report)), deterministic(&committed));
    }

    #[test]
    fn validate_rejects_mutilated_reports() {
        let report = build_from(PackSource::Embedded).expect("report builds");
        let doc = to_json(&report);

        let strip = |doc: &Json, key: &str| -> Json {
            match doc {
                Json::Obj(members) => {
                    Json::Obj(members.iter().filter(|(k, _)| k != key).cloned().collect())
                }
                other => other.clone(),
            }
        };
        assert!(validate(&strip(&doc, "report")).is_err());
        assert!(validate(&strip(&doc, "use_cases")).is_err());
        assert!(validate(&strip(&doc, "metrics")).is_err());
        assert!(validate(&strip(&doc, "boot")).is_err());
        assert!(validate(&strip(&doc, "peak_rss_kb")).is_err());
        assert!(validate(&strip(&doc, "peak_rss_source")).is_err());

        // `doc` with its first row replaced by `edit` of it.
        let edit_first_case = |edit: &dyn Fn(&Json) -> Json| -> Json {
            let mut doc = doc.clone();
            if let Json::Obj(members) = &mut doc {
                for (k, v) in members.iter_mut() {
                    if k == "use_cases" {
                        if let Json::Arr(cases) = v {
                            cases[0] = edit(&cases[0]);
                        }
                    }
                }
            }
            doc
        };
        // A row without its memory columns or its SAST count is rejected,
        // and so is a row whose generated code has a misuse.
        for key in ["phases_mem", "sast_misuses"] {
            let err = validate(&edit_first_case(&|case| strip(case, key))).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
        let misused = edit_first_case(&|case| match strip(case, "sast_misuses") {
            Json::Obj(mut members) => {
                members.push(("sast_misuses".to_owned(), Json::Num(1.0)));
                Json::Obj(members)
            }
            other => other,
        });
        assert!(validate(&misused).unwrap_err().contains("1 SAST misuses"));

        // Ten use cases is not Table 1.
        if let Json::Obj(mut members) = doc.clone() {
            for (k, v) in &mut members {
                if k == "use_cases" {
                    if let Json::Arr(cases) = v {
                        cases.pop();
                    }
                }
            }
            assert!(validate(&Json::Obj(members)).is_err());
        }

        let text = render_text(&report);
        assert!(text.contains("SecureHasher") || text.contains("Hashing"));
        assert!(text.contains("order_cache.hits"));
    }
}
