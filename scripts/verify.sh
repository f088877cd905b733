#!/usr/bin/env bash
# Tier-1 verification, hermetically: build and test with no network and
# no crates.io registry. Any attempt to resolve an external dependency
# makes cargo fail under --offline, so dependency rot can never silently
# return. Run from anywhere; operates on the repo this script lives in.

set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"

# Belt and braces: even if a future cargo invocation drops the flag,
# CARGO_NET_OFFLINE keeps the network forbidden for the whole run.
export CARGO_NET_OFFLINE=true

# No manifest may reference the external dev dependencies the in-repo
# devharness crate replaces (PRNG, property-testing and benchmark
# frameworks) — their return would reintroduce registry access.
banned='rand|proptest|criterion'
manifests="$(git ls-files '*Cargo.toml')"
if matches="$(grep -nE "$banned" $manifests)"; then
    echo "error: banned external dependency reference in a manifest:" >&2
    echo "$matches" >&2
    exit 1
fi

# The pre-0.3 constructors are gone; call sites must use
# rules::open(PackSource) and GenEngine::builder(). No source file may
# mention the old names, not even their one-time defining modules.
old_apis='jca_rules\(|try_jca_rules\(|shared_jca_rules\(|GenEngine::new\(|GenEngine::with_options\('
sources="$(git ls-files '*.rs')"
if matches="$(grep -nE "$old_apis" $sources)"; then
    echo "error: deprecated constructor call outside its defining module:" >&2
    echo "$matches" >&2
    exit 1
fi

# The PackSource redesign is complete: the deprecated loader shims are
# deleted, so nothing is exempt any more — no source file may call the
# old qualified entry points, and no crate may define the shim names
# again (their return would resurrect the pre-PackSource API).
old_loaders='rules::load\(|rules::load_shared\(|rules::load_uncached\(|rules::rule_set_from_sources\(|serve::load_rule_pack\(|fn load_shared\(|fn load_uncached\(|fn rule_set_from_sources\(|fn load_rule_pack\('
if matches="$(grep -nE "$old_loaders" $sources)"; then
    echo "error: pre-PackSource loader call site:" >&2
    echo "$matches" >&2
    exit 1
fi

# The use-case templates are Java files (crates/usecases/templates/),
# lowered by core::template::parse_template: the Rust template
# builders and the renderer that printed them as Java are deleted, and
# no source file may define or call them again.
old_builders='\b(render_java|pbe_files|pbe_strings|pbe_byte_arrays|get_key_chain|get_key_method|encrypt_chain|decrypt_chain|symmetric_encryption|generate_key_chain|hybrid_files|hybrid_strings|hybrid_byte_arrays|key_pair_chain|wrap_key_chain|unwrap_key_chain|asymmetric_strings|rsa_encrypt_chain|rsa_decrypt_chain|password_storage|create_salt_chain|hash_chain|signing_strings|sign_chain|verify_chain|hashing_strings|authenticated_encryption|gcm_encrypt_chain|gcm_decrypt_chain|gcm_siv_encryption|chacha_poly_encryption|chacha_poly_strings|ctr_encryption|chacha_key_chain|aead_encrypt_chain|aead_decrypt_chain|seal_method|open_method|aes_key_method|dh_agreement|ecdh_agreement|dh_session_encryption|ecdh_session_encryption|agreed_mac|pinned_key_pair_chain|hmac_token|hkdf_subkeys|derived_mac_token|password_mac_token|key_transport|mac_chain)\('
if matches="$(grep -nE "$old_builders" $sources)"; then
    echo "error: deleted Rust template builder or render_java:" >&2
    echo "$matches" >&2
    exit 1
fi

# The analyzer runs on rules that may be untrusted (`analyze --rules
# <dir>`), so its subset construction must be bounded: no
# `Dfa::from_nfa` under crates/sast/src, only `Dfa::try_from_nfa`.
if matches="$(grep -nE '\bfrom_nfa\b' $(git ls-files 'crates/sast/src/*.rs'))"; then
    echo "error: unbounded Dfa::from_nfa in the analyzer (use Dfa::try_from_nfa):" >&2
    echo "$matches" >&2
    exit 1
fi

echo "==> cargo build --release --offline --locked"
cargo build --release --offline --locked

# Generation has two entry points over one pipeline body and no
# process-wide ORDER cache, path selection has one entry point,
# parameters are resolved by one walk, perfbench is the one benchmark
# (the load harness's runner, CLI and pacing are gone), telemetry is
# one record per generation (the event stream and the observers that
# re-derived metrics and timings from it are gone), the CLI's
# serve-check daemon probe is gone (the serve tests probe the daemon),
# the daemon's workers block in accept instead of polling a
# non-blocking listener, the Chrome trace is a fold over whole
# records (nothing to balance), a rule pack boots one way
# (`ServedPack::boot`: no daemon pack-info lock, no CLI-only engine,
# no free declared-case check), and metrics have one registry per
# owner with records as the only input (nothing to merge registries
# from, no hand-set gauges); the deleted routes must not come back.
old_routes='\b(to_balanced_json|cmd_serve_check|shared_order_cache|generate_observed|generate_with_cache|scatter_on_workers|LoadObserver|report_path_resolutions|select_path_traced|select_path_for_return|loadcli|run_load|LoadOptions|cross_check_quantile|schedule_fingerprint|clean_baseline|standard_catalogue|Pacer|MetricsCollector|PhaseTimings|UnitTimings|Fanout|Tee|generate_into|BatchJob|ACCEPT_POLL|PackInfo|custom_engine|check_declared|merge_from|set_gauge)\b'
if matches="$(grep -nE "$old_routes" $sources)"; then
    echo "error: deleted generation route, process-wide cache, resolution walk, load harness, telemetry event stream, daemon probe, accept poll, trace balancing, second pack boot or registry merge:" >&2
    echo "$matches" >&2
    exit 1
fi

# The engine keeps no metrics: every generation hands its record back,
# and the daemon (or a report) folds it into the one registry it owns.
if matches="$(grep -n 'MetricsRegistry' crates/core/src/engine.rs)"; then
    echo "error: the engine owns a metrics registry again (fold records where they are kept):" >&2
    echo "$matches" >&2
    exit 1
fi

# Every surface of the program reads spans from `GenRecord`: the live
# hook trait keeps its no-op impl and its unit tests in telemetry.rs,
# and the test-local observers that pin the hook contract. perfbench's
# `SpanSink` is its one outside user until the benchmark folds records
# (ROADMAP item 3). No other code may implement it again.
if matches="$(grep -nE 'impl GenObserver for' $sources | grep -vE '^(crates/core/src/telemetry\.rs:|tests/|perfbench/)')"; then
    echo "error: GenObserver implemented outside telemetry.rs, tests/ and perfbench/:" >&2
    echo "$matches" >&2
    exit 1
fi

# The whole workspace, not just the root package: the member crates'
# unit tests (the core engine, generator and telemetry among them)
# gate here exactly as they do in CI.
echo "==> cargo test -q --workspace --offline --locked"
cargo test -q --workspace --offline --locked

# That run includes tests/golden_catalogue.rs, which checks every
# generation path (library, CLI, traced, batch, `.crpack` boot, daemon)
# against the golden files in tests/golden/.

# The Table-1 telemetry report must cover every catalogued use case with
# all five phase timings and non-empty metrics; report-check validates
# the schema of the file report just wrote.
echo "==> cli report -> REPORT_table1.json"
cli="target/release/cognicryptgen"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
"$cli" report "$workdir/report" >/dev/null
report="$workdir/report/REPORT_table1.json"
test -s "$report"
"$cli" report-check "$report"

# Scenario-count gate: the freshly generated report must carry at least
# as many use-case rows as the committed REPORT_table1.json. A smaller
# report means the catalogue (or the report pipeline) silently lost
# scenarios — exactly the regression a scale-out PR must not allow.
committed_rows="$(grep -o '"id":' REPORT_table1.json | wc -l)"
generated_rows="$(grep -o '"id":' "$report" | wc -l)"
if [ "$generated_rows" -lt "$committed_rows" ]; then
    echo "error: report emits $generated_rows use-case rows; the committed REPORT_table1.json has $committed_rows" >&2
    exit 1
fi
echo "==> report covers $generated_rows use cases (committed baseline: $committed_rows)"

# Corpus replay: every committed fuzz reproducer must pass the oracles
# it once crashed. A budget of 0 replays the corpus and runs nothing
# else, so the gate is deterministic and fast; any crash or undecodable
# corpus file makes the CLI exit non-zero.
echo "==> cli fuzz --corpus corpus/ --budget 0"
"$cli" fuzz --corpus corpus/ --budget 0

# Perfbench's own tests: every workload's plan is a pure function of
# its seed, and every injected fault is caught by the reply oracle.
echo "==> cargo test --manifest-path perfbench/Cargo.toml"
cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> hermetic verify OK"
