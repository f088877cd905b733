//! The golden catalogue: `tests/golden/<pack>/ucNN.java` is the Java
//! every use case a catalog pack declares generates, and every
//! generation path must emit exactly those bytes — `generate_uncached`,
//! warm and observed engines, `generate_batch` at 1, 2 and 8 threads, a
//! `compile-rules` `.crpack` boot, the CLI's `batch` and `generate`
//! traced and untraced, and a `.crpack`-booted daemon over HTTP and UDS
//! before and after a reload. The embedded pack is held to `jca@v2`'s
//! files, the catalog entry it ships as. Each golden file also parses,
//! type-checks and is SAST-clean under its own pack (RQ1).
//! The template files the outputs come from are held to the catalogue
//! too: `crates/usecases/templates/` is exactly `uc01.java` …
//! `uc26.java`, and `list` prints their headers.
//!
//! An intended output change regenerates a pack's files from the
//! repository root with `cargo run --release -- batch
//! tests/golden/<pack> 1 --rules <pack>`; a failure names every
//! divergent file and prints that command.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cognicryptgen::core::memtrack::AllocDelta;
use cognicryptgen::core::telemetry::{GenObserver, Span};
use cognicryptgen::core::template::{parse_template, split_header};
use cognicryptgen::core::{GenEngine, Generator};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::javamodel::parser::parse_java;
use cognicryptgen::javamodel::typecheck::check_unit;
use cognicryptgen::javamodel::typetable::ClassDef;
use cognicryptgen::rules::{self, catalog_pack, PackSource, PackSpec, PACK_CATALOG};
use cognicryptgen::sast::{analyze_unit, AnalyzerOptions};
use cognicryptgen::serve::{http, uds, ServeConfig, Server};
use cognicryptgen::statemachine::OrderCache;
use cognicryptgen::usecases::{self, all_use_cases, UseCase};
use devharness::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_cognicryptgen");

/// What `cognicryptgen list` prints: one row per template file header.
const LIST: &str = "\
#    Use case (paper Table 1)         Sources\n\
1    PBE on Files                     [21]\n\
2    PBE on Strings                   [21], [27]\n\
3    PBE on Byte-Arrays               [21]\n\
4    Symmetric-Key Encryption         [27], [29]\n\
5    Hybrid File Encryption           [21]\n\
6    Hybrid String Encryption         [21]\n\
7    Hybrid Byte-Array Encryption     [21]\n\
8    Asymmetric String Encryption     [27]\n\
9    Secure User-Password Storage     [21], [27]\n\
10   Digital Signing of Strings       [21], [27], [29]\n\
11   Hashing of Strings               [27]\n\
12   Authenticated Encryption (AES-GCM) ext\n\
13   Deterministic AEAD (AES-GCM-SIV) ext\n\
14   ChaCha20-Poly1305 on Byte-Arrays ext\n\
15   ChaCha20-Poly1305 on Strings     ext\n\
16   AES-CTR Stream Encryption        ext\n\
17   DH Shared-Secret Derivation      ext\n\
18   ECDH Shared-Secret Derivation    ext\n\
19   DH Session Encryption (AES-GCM)  ext\n\
20   ECDH Session Encryption (ChaCha20-Poly1305) ext\n\
21   MAC under an Agreed Key          ext\n\
22   HMAC Token Minting               ext\n\
23   HKDF Subkey Expansion            ext\n\
24   HKDF-Derived MAC Tokens          ext\n\
25   Password-Derived MAC Tokens      ext\n\
26   Key Export/Import Transport      ext\n";

/// A pack as the paths name it: a catalog entry (`name: Some("jca@v1")`)
/// or the embedded rules (`None`), with the catalog entry whose golden
/// files apply.
struct Subject {
    spec: &'static PackSpec,
    name: Option<String>,
}

impl Subject {
    fn label(&self) -> &str {
        self.name.as_deref().unwrap_or("embedded")
    }

    fn source(&self) -> PackSource {
        self.name
            .as_ref()
            .map_or(PackSource::Embedded, PackSource::detect)
    }

    /// The CLI's `--rules` arguments selecting this pack.
    fn rules_args(&self) -> Vec<&str> {
        self.name
            .as_deref()
            .map_or(Vec::new(), |name| vec!["--rules", name])
    }

    /// The use cases the pack declares, in id order.
    fn cases(&self) -> Vec<UseCase> {
        all_use_cases()
            .into_iter()
            .filter(|uc| self.spec.use_cases.contains(&uc.id))
            .collect()
    }
}

/// Every catalog pack, then the embedded one.
fn subjects() -> Vec<Subject> {
    let catalog = PACK_CATALOG.iter().map(|spec| Subject {
        spec,
        name: Some(pack_name(spec)),
    });
    let embedded = Subject {
        spec: catalog_pack("jca", None).expect("the catalog ships a jca pack"),
        name: None,
    };
    catalog.chain([embedded]).collect()
}

fn pack_name(spec: &PackSpec) -> String {
    format!("{}@v{}", spec.name, spec.version)
}

fn golden_file(spec: &PackSpec, id: u8) -> String {
    format!("tests/golden/{}/uc{id:02}.java", pack_name(spec))
}

/// The `ucNN.java` names a pack's golden directory (or a `batch`
/// output directory) must hold: one per declared case.
fn declared_files(spec: &PackSpec) -> BTreeSet<String> {
    spec.use_cases
        .iter()
        .map(|id| format!("uc{id:02}.java"))
        .collect()
}

fn file_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

fn regenerate<'a>(packs: impl IntoIterator<Item = &'a String>) -> String {
    let mut text =
        "If the output change is intended, regenerate from the repository root:".to_owned();
    for pack in packs {
        text += &format!("\n    cargo run --release -- batch tests/golden/{pack} 1 --rules {pack}");
    }
    text
}

/// The divergences one test found, reported together so a failure
/// names every affected golden file.
#[derive(Default)]
struct Divergences {
    found: Vec<String>,
    packs: BTreeSet<String>,
}

impl Divergences {
    /// Compares what `path` generated for use case `id` under `spec`'s
    /// pack with its golden file; a failed generation diverges too.
    fn check(&mut self, path: &str, spec: &PackSpec, id: u8, output: Result<String, impl Display>) {
        let file = golden_file(spec, id);
        let golden = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(&file))
            .unwrap_or_else(|e| format!("<unreadable: {e}>"));
        let problem = match output {
            Ok(output) if output == golden => return,
            Ok(output) => {
                let line = golden.lines().zip(output.lines()).position(|(g, o)| g != o);
                let line =
                    line.unwrap_or_else(|| golden.lines().count().min(output.lines().count()));
                format!(
                    "differs at line {}\n    golden: {:?}\n    output: {:?}",
                    line + 1,
                    nth_line(&golden, line),
                    nth_line(&output, line)
                )
            }
            Err(e) => format!("failed: {e}"),
        };
        self.found.push(format!("{file}: {path} {problem}"));
        self.packs.insert(pack_name(spec));
    }

    fn finish(self) {
        assert!(
            self.found.is_empty(),
            "{} output(s) diverge from the golden catalogue:\n{}\n{}",
            self.found.len(),
            self.found.join("\n"),
            regenerate(&self.packs)
        );
    }
}

fn nth_line(text: &str, n: usize) -> &str {
    text.lines().nth(n).unwrap_or("<end of file>")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgen-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn cli(args: &[&str]) -> Output {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "cognicryptgen {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `compile-rules` the subject's pack into `dir`.
fn compile_rules(subject: &Subject, dir: &Path) -> PathBuf {
    let out = dir.join(format!("{}.crpack", subject.label()));
    let src = subject.name.as_deref().unwrap_or("--embedded");
    cli(&["compile-rules", src, out.to_str().unwrap()]);
    out
}

/// Runs CLI `batch` into a fresh `dir` with `args` appended and checks
/// what it wrote: exactly the declared cases, each its golden file.
fn check_cli_batch(found: &mut Divergences, subject: &Subject, dir: &Path, args: &[&str]) {
    cli(&[&["batch", dir.to_str().unwrap()], args].concat());
    let path = format!("CLI batch {} ({})", args.join(" "), subject.label());
    assert_eq!(file_names(dir), declared_files(subject.spec), "{path}");
    for &id in subject.spec.use_cases {
        let output = fs::read_to_string(dir.join(format!("uc{id:02}.java")));
        found.check(&path, subject.spec, id, output);
    }
}

#[test]
fn golden_catalogue_holds_exactly_the_declared_cases_of_every_catalog_pack() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let catalog: BTreeSet<String> = PACK_CATALOG.iter().map(pack_name).collect();
    assert_eq!(file_names(&root), catalog, "one directory per catalog pack");
    for spec in PACK_CATALOG {
        let name = pack_name(spec);
        assert_eq!(
            file_names(&root.join(&name)),
            declared_files(spec),
            "tests/golden/{name} must hold exactly the declared cases\n{}",
            regenerate([&name])
        );
    }
    let files: usize = PACK_CATALOG.iter().map(|s| s.use_cases.len()).sum();
    assert_eq!(files, 64);
}

/// `crates/usecases/templates/` is exactly the catalogue: `uc01.java` …
/// `uc26.java`, each header naming its own file, class names unique, and
/// `list` prints the headers.
#[test]
fn template_files_are_the_catalogue_and_list_prints_it() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/usecases/templates");
    let names: Vec<String> = (1..=26).map(|id| format!("uc{id:02}.java")).collect();
    assert_eq!(file_names(&dir), names.iter().cloned().collect());
    let table = jca_type_table();
    let mut classes = BTreeSet::new();
    for (name, file) in names.iter().zip(usecases::catalogue()) {
        let text = fs::read_to_string(dir.join(name)).unwrap();
        let (header, java) = split_header(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(format!("uc{:02}.java", header.id), *name, "header id");
        assert_eq!(text, file.text, "{name} is catalogue entry {}", file.id);
        let template = parse_template(java, &table).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            classes.insert(template.class_name),
            "{name}: class name taken"
        );
    }
    assert_eq!(usecases::catalogue().len(), names.len());
    assert_eq!(String::from_utf8(cli(&["list"]).stdout).unwrap(), LIST);
}

#[test]
fn golden_files_parse_type_check_and_are_sast_clean_under_their_own_pack() {
    let table = jca_type_table();
    for subject in subjects().into_iter().filter(|s| s.name.is_some()) {
        let rules = rules::open(subject.source()).expect("pack opens").rules;
        for uc in subject.cases() {
            let file = golden_file(subject.spec, uc.id);
            let source = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(&file))
                .unwrap_or_else(|e| panic!("{file}: {e}"));
            let unit = parse_java(&source, &table)
                .unwrap_or_else(|e| panic!("{file} does not parse: {e}"));
            // `templateUsage` instantiates the generated class itself.
            let mut check_table = table.clone();
            check_table.add(ClassDef::new(uc.template.class_name.clone()).ctor(vec![]));
            check_unit(&unit, &check_table)
                .unwrap_or_else(|e| panic!("{file} does not type-check: {e}"));
            let misuses = analyze_unit(&unit, &rules, &table, AnalyzerOptions::default());
            assert!(misuses.is_empty(), "{file} has misuses: {misuses:?}");
        }
    }
}

/// A live observer counting the span pairs it sees.
#[derive(Default)]
struct SpanCount(AtomicUsize);

impl GenObserver for SpanCount {
    fn span_exit(&self, _span: &Span<'_>, _elapsed: Duration, _alloc: AllocDelta) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn uncached_warm_and_observed_engines_emit_the_golden_files() {
    let mut found = Divergences::default();
    let table = jca_type_table();
    for subject in subjects() {
        let rules = rules::open(subject.source()).expect("pack opens").rules;
        let engine = || {
            GenEngine::builder()
                .rules(rules.clone())
                .type_table(table.clone())
        };
        let warm = engine().build().expect("engine builds");
        warm.warm().expect("warm succeeds");
        let spans = Arc::new(SpanCount::default());
        let observed = engine()
            .observer(spans.clone())
            .build()
            .expect("engine builds");
        let (cases, label) = (subject.cases(), subject.label());
        for uc in &cases {
            let uncached = Generator::new().generate_uncached(&uc.template, &rules, &table);
            for (path, result) in [
                ("generate_uncached", uncached),
                ("warm GenEngine", warm.generate(&uc.template)),
                ("observed GenEngine", observed.generate(&uc.template)),
            ] {
                let output = result.map(|g| g.java_source);
                found.check(&format!("{path} ({label})"), subject.spec, uc.id, output);
            }
        }
        // The observer saw every generation: five span pairs each.
        assert_eq!(
            spans.0.swap(0, Ordering::Relaxed),
            cases.len() * 5,
            "{label}"
        );
    }
    found.finish();
}

#[test]
fn batches_at_1_2_and_8_threads_emit_the_golden_files() {
    let mut found = Divergences::default();
    for subject in subjects() {
        let engine = GenEngine::builder()
            .rules(rules::open(subject.source()).expect("pack opens").rules)
            .type_table(jca_type_table())
            .build()
            .expect("engine builds");
        let templates: Vec<_> = subject.cases().into_iter().map(|uc| uc.template).collect();
        for threads in [1, 2, 8] {
            let path = format!("generate_batch at {threads} threads ({})", subject.label());
            let results = engine.generate_batch(&templates, threads);
            assert_eq!(results.len(), templates.len(), "{path}");
            for (&id, result) in subject.spec.use_cases.iter().zip(results) {
                found.check(&path, subject.spec, id, result.map(|g| g.java_source));
            }
        }
    }
    found.finish();
}

#[test]
fn compiled_pack_engines_emit_the_golden_files() {
    let dir = scratch("engine-crpack");
    let mut found = Divergences::default();
    for subject in subjects() {
        let pack = rules::open(PackSource::Compiled(compile_rules(&subject, &dir)))
            .expect("compiled pack opens");
        assert!(pack.is_precompiled());
        let cache = Arc::new(OrderCache::new());
        pack.seed(&cache);
        let engine = GenEngine::builder()
            .rules(pack.rules)
            .type_table(jca_type_table())
            .order_cache(cache)
            .build()
            .expect("engine builds");
        let path = format!("engine booted from a .crpack ({})", subject.label());
        for uc in subject.cases() {
            let output = engine.generate(&uc.template).map(|g| g.java_source);
            found.check(&path, subject.spec, uc.id, output);
        }
    }
    let _ = fs::remove_dir_all(&dir);
    found.finish();
}

#[test]
fn cli_batch_generate_and_trace_emit_the_golden_files() {
    let dir = scratch("cli");
    let mut found = Divergences::default();
    for subject in subjects() {
        let label = subject.label();
        let rules = subject.rules_args();
        let crpack = compile_rules(&subject, &dir);
        let trace = dir.join(format!("{label}.trace.json"));
        let trace = trace.to_str().unwrap();

        let batch_dir = |kind: &str| dir.join(format!("{kind}-{label}"));
        check_cli_batch(
            &mut found,
            &subject,
            &batch_dir("batch"),
            &[&["8"], &rules[..]].concat(),
        );
        let pack_args = ["8", "--rules", crpack.to_str().unwrap()];
        check_cli_batch(&mut found, &subject, &batch_dir("pack"), &pack_args);
        let traced = [&["2", "--trace", trace], &rules[..]].concat();
        check_cli_batch(&mut found, &subject, &batch_dir("traced"), &traced);
        cli(&["trace-check", trace]);

        for (i, &id) in subject.spec.use_cases.iter().enumerate() {
            let id_arg = id.to_string();
            let mut args = [&["generate", id_arg.as_str()], &rules[..]].concat();
            // Each pack's first case also runs traced.
            if i == 0 {
                args.extend(["--trace", trace]);
            }
            let output = String::from_utf8(cli(&args).stdout).map_err(|e| e.to_string());
            let path = format!("CLI {} ({label})", args.join(" "));
            found.check(&path, subject.spec, id, output);
            if i == 0 {
                cli(&["trace-check", trace]);
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
    found.finish();
}

#[cfg(unix)]
#[test]
fn compiled_pack_daemon_serves_the_golden_files_over_http_and_uds_across_a_reload() {
    let dir = scratch("daemon");
    let mut found = Divergences::default();
    for subject in subjects() {
        let label = subject.label();
        let socket = dir.join(format!("{label}.sock"));
        let config = ServeConfig {
            http_addr: Some("127.0.0.1:0".to_owned()),
            uds_path: Some(socket.clone()),
            threads: 2,
            rules_path: Some(compile_rules(&subject, &dir)),
            ..ServeConfig::default()
        };
        let handle = Server::start(&config).expect("daemon boots from the .crpack");
        let addr = handle.http_addr().expect("http bound").to_string();
        let ids = subject.spec.use_cases;
        let lines: Vec<String> = ids.iter().map(|id| format!("generate {id}")).collect();
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();

        for phase in ["booted", "reloaded"] {
            let path = format!("daemon over HTTP, {phase} ({label})");
            for &id in ids {
                let output = match http::request(&addr, "GET", &format!("/generate/{id}"), "") {
                    Ok((200, body)) => Ok(body),
                    Ok((code, body)) => Err(format!("status {code}: {body}")),
                    Err(e) => Err(e.to_string()),
                };
                found.check(&path, subject.spec, id, output);
            }
            let path = format!("daemon over UDS, {phase} ({label})");
            let responses = uds::request_lines(&socket, &lines).expect("socket round trip");
            assert_eq!(responses.len(), lines.len(), "{path}");
            for (&id, response) in ids.iter().zip(&responses) {
                let ok = response.get("class").and_then(Json::as_str) == Some("ok");
                let output = match response.get("body").and_then(Json::as_str) {
                    Some(body) if ok => Ok(body.to_owned()),
                    _ => Err(response.to_string()),
                };
                found.check(&path, subject.spec, id, output);
            }
            if phase == "booted" {
                let (code, body) = http::request(&addr, "POST", "/reload", "").unwrap();
                assert_eq!(code, 200, "reload of {label}: {body}");
            }
        }
        handle.shutdown();
    }
    let _ = fs::remove_dir_all(&dir);
    found.finish();
}
