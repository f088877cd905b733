//! End-to-end CLI contract tests over the real binary: per-class exit
//! codes, the strict `--trace` flag normalization across every
//! subcommand, `generate` and `analyze` under the global `--rules`
//! (a rule past the DFA state bound refused at boot), the
//! daemon's clean exit on a shutdown request and its typed refusal of a
//! truncated rule pack.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use cognicryptgen::serve::http;

const BIN: &str = env!("CARGO_BIN_EXE_cognicryptgen");

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("binary runs")
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("no signal death")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cognicryptgen-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn zero_threads_is_a_usage_error_with_exit_code_2() {
    let dir = scratch("batch-zero");
    let out = run(&["batch", dir.to_str().unwrap(), "0"]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid thread count"));

    // The same guard covers the daemon config.
    let out = run(&["serve", "--threads", "0"]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("at least 1"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker count past the per-transport ceiling is refused before any
/// bind or spawn. The address cannot be bound either, so were the
/// count let through, the run would end in an I/O error (exit 5)
/// without starting a worker.
#[test]
fn serve_thread_count_past_the_ceiling_is_a_usage_error_with_exit_code_2() {
    let out = run(&["serve", "--threads", "100000", "--listen", "256.0.0.1:0"]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("at most 256 per transport, got 100000"));
}

#[test]
fn usage_failures_all_exit_2() {
    assert_eq!(exit_code(&run(&[])), 2);
    assert_eq!(exit_code(&run(&["no-such-command"])), 2);
    assert_eq!(exit_code(&run(&["generate"])), 2);
    assert_eq!(exit_code(&run(&["generate", "no-such-use-case"])), 2);
    assert_eq!(exit_code(&run(&["serve", "--no-such-flag"])), 2);
}

#[test]
fn trace_flag_is_rejected_uniformly_where_unsupported() {
    // Subcommands without trace support must say so — wherever the
    // flag sits in the argument list.
    for args in [
        vec!["list", "--trace", "/tmp/t.json"],
        vec!["--trace", "/tmp/t.json", "list"],
        vec!["template", "1", "--trace", "/tmp/t.json"],
        vec!["rules", "--trace", "/tmp/t.json"],
        vec!["analyze", "--trace", "/tmp/t.json"],
        vec!["oldgen", "--trace", "/tmp/t.json"],
        vec!["report-check", "--trace", "/tmp/t.json"],
        vec!["trace-check", "--trace", "/tmp/t.json"],
        vec!["fuzz", "--trace", "/tmp/t.json"],
        vec!["serve", "--trace", "/tmp/t.json"],
    ] {
        let out = run(&args);
        assert_eq!(
            exit_code(&out),
            2,
            "args {args:?}, stderr: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("--trace is not supported"),
            "args {args:?}, stderr: {}",
            stderr(&out)
        );
    }
}

#[test]
fn trace_flag_normalization_is_strict() {
    // `--trace` without a path.
    let out = run(&["generate", "1", "--trace"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr(&out).contains("--trace requires a file path"));

    // A duplicated `--trace` used to survive as a stray positional
    // argument; now it is a hard usage error.
    let out = run(&[
        "generate",
        "1",
        "--trace",
        "/tmp/a.json",
        "--trace",
        "/tmp/b.json",
    ]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr(&out).contains("--trace given more than once"));
}

#[test]
fn generate_refuses_a_use_case_the_rules_pack_does_not_declare() {
    // aead@v1 declares no password-based case: uc01 is a usage error,
    // as it is for the daemon, not a generation failure over a rule the
    // pack never shipped.
    let out = run(&["generate", "1", "--rules", "aead@v1"]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("does not declare use case 1"));
    let out = run(&["generate", "4", "--rules", "aead@v1"]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
}

#[test]
fn analyze_judges_code_by_the_rules_pack_it_was_generated_under() {
    let dir = scratch("analyze-rules");
    let out = run(&["batch", dir.to_str().unwrap(), "2", "--rules", "jca@v1"]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let uc06 = dir.join("uc06.java");
    let uc06 = uc06.to_str().unwrap();

    // Checked against the pack that generated it, the code is clean.
    let out = run(&["analyze", uc06, "--rules", "jca@v1"]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "no misuses found\n");

    // The embedded jca@v2 rules reject v1's RSA key size.
    let out = run(&["analyze", uc06]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains("ConstraintError on java.security.KeyPairGenerator")
            && report.contains("keySize in {2048, 4096, 256}"),
        "{report}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_refuses_a_rule_past_the_dfa_state_bound_with_exit_3() {
    // After `(c | cP)*, c`, 24 more events need 2^25 DFA states: the
    // boot's ORDER compilation stops at the state bound, typed, before
    // the analyzer ever tracks a PBEKeySpec of the analysed code.
    let dir = scratch("analyze-blowup");
    let rules = dir.join("rules");
    std::fs::create_dir_all(&rules).unwrap();
    let order = vec!["(c | cP)"; 24].join(", ");
    std::fs::write(
        rules.join("PBEKeySpec.crysl"),
        format!(
            "SPEC javax.crypto.spec.PBEKeySpec\nOBJECTS\n    char[] password;\n    byte[] salt;\n    \
             int iterationCount;\n    int keylength;\nEVENTS\n    \
             c: PBEKeySpec(password, salt, iterationCount, keylength);\n    \
             cP: clearPassword();\nORDER\n    (c | cP)*, c, {order}\n"
        ),
    )
    .unwrap();
    let out = run(&["generate", "1"]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let java = dir.join("uc01.java");
    std::fs::write(&java, &out.stdout).unwrap();

    let out = run(&[
        "analyze",
        java.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 3, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("DFA construction exceeded limit of 65536 states"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "no analysis ran");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_exits_0_after_a_shutdown_request() {
    let mut daemon = Command::new(BIN)
        .args(["serve", "--listen", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");

    // The daemon announces its bound endpoint as a parseable line.
    let stdout = daemon.stdout.take().expect("piped stdout");
    let announce = BufReader::new(stdout)
        .lines()
        .next()
        .expect("daemon prints its endpoint")
        .expect("readable stdout");
    let addr = announce
        .strip_prefix("listening http=")
        .unwrap_or_else(|| panic!("unexpected announce line {announce:?}"));

    let (code, body) = http::request(addr, "POST", "/shutdown", "").expect("shutdown request");
    assert_eq!(code, 200, "shutdown refused: {body}");
    let status = daemon.wait().expect("daemon exits after shutdown");
    assert_eq!(status.code(), Some(0), "daemon must exit cleanly");
}

#[test]
fn serve_on_a_truncated_pack_exits_3() {
    let dir = scratch("serve-truncated");
    let pack = dir.join("jca.crpack");
    let out = run(&["compile-rules", "--embedded", pack.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let broken = dir.join("broken.crpack");
    std::fs::write(&broken, &std::fs::read(&pack).unwrap()[..100]).unwrap();

    let mut daemon = Command::new(BIN)
        .args(["serve", "--listen", "127.0.0.1:0", "--rules"])
        .arg(&broken)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    // A daemon that booted anyway would serve forever: give it a deadline.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("waitable") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = daemon.kill();
            let _ = daemon.wait();
            panic!("serve booted from a truncated pack");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut err = String::new();
    let _ = daemon.stderr.take().unwrap().read_to_string(&mut err);
    assert_eq!(status.code(), Some(3), "stderr: {err}");
    assert!(
        err.contains("invalid rule pack: truncated pack: the file ends at byte 100"),
        "stderr: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
