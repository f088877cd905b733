//! Regenerates the paper's **RQ5** numbers: the user-study comparison of
//! CogniCryptGEN against the XSL-based old generator.
//!
//! Human subjects cannot be re-run; the replayed dataset is synthesized
//! to match the paper's reported aggregates (see `stats::study`), and the
//! full analysis pipeline — SUS/NPS scoring, latin-square assignment,
//! Wilcoxon signed-rank tests — re-derives every reported number.
//!
//! The output is the markdown EXPERIMENTS.md embeds, and
//! `crates/bench/tests/experiments.rs` fails when the two differ.
//!
//! Run with: `cargo run --release -p cognicrypt-bench --bin rq5`

use stats::study::{evaluate, replayed_study};

fn main() {
    let r = evaluate(&replayed_study());
    println!("| Metric | measured | paper |");
    println!("|---|---|---|");
    println!("| SUS, CogniCryptGEN | {:.1} | 76.3 |", r.sus_gen_mean);
    println!("| SUS, CogniCrypt_old-gen | {:.1} | 50.8 |", r.sus_old_mean);
    println!("| NPS, CogniCryptGEN | {:.1} | 56.3 |", r.nps_gen);
    println!("| NPS, CogniCrypt_old-gen | {:.1} | -43.7 |", r.nps_old);
    println!("| Wilcoxon p (SUS) | {:.4} | 0.005 |", r.p_sus);
    println!("| Wilcoxon p (NPS) | {:.4} | 0.005 |", r.p_nps);
    println!(
        "| Wilcoxon p (completion times) | {:.4} | > 0.05 |",
        r.p_times
    );
    println!(
        "| Encryption task slowdown (GEN) | {:.1}% | 38% |",
        r.encryption_slowdown_pct
    );
    println!(
        "| Hashing task speedup (GEN) | {:.1}% | 63.2% |",
        r.hashing_speedup_pct
    );
}
