//! Regenerates the paper's **Table 2** (RQ4): the lines of code a crypto
//! expert must write to implement each use case — XSL + Clafer artefacts
//! for the old generator vs. the Java code template for CogniCryptGEN.
//!
//! The numbers come from the *actual artefacts in this repository*: the
//! eight XSL/Clafer files in `crates/oldgen` and the matching Java
//! templates in `crates/usecases/templates/`, counted below their header
//! line. The shape to compare against the paper: the new generator's
//! templates are a fraction of the old artefacts, and need no extra
//! languages.
//!
//! The output is the markdown EXPERIMENTS.md embeds, and
//! `crates/bench/tests/experiments.rs` fails when the two differ.
//!
//! Run with: `cargo run --release -p cognicrypt-bench --bin table2`

use javamodel::printer::count_loc;
use oldgen::old_gen_use_cases;

fn main() {
    let old = old_gen_use_cases();
    let new = usecases::catalogue();

    println!("| # | Use case | XSL | Clafer | old total | Java template |");
    println!("|---|----------|-----|--------|-----------|---------------|");
    let mut sum_old = 0usize;
    let mut sum_new = 0usize;
    for o in &old {
        let n = new
            .iter()
            .find(|u| u.id == o.id)
            .expect("old-gen use cases are a subset of the new ones");
        let xsl = count_loc(o.xsl_source);
        let clafer = count_loc(o.clafer_source);
        let java = count_loc(n.java);
        println!(
            "| {} | {} | {xsl} | {clafer} | {} | {java} |",
            o.id,
            o.name,
            xsl + clafer
        );
        sum_old += xsl + clafer;
        sum_new += java;
    }
    println!(
        "| — | mean | — | — | {} | {} |",
        sum_old / old.len(),
        sum_new / old.len()
    );
    println!();
    println!(
        "CogniCryptGEN templates: {sum_new} LoC of plain Java against {sum_old} LoC of XSL + Clafer, {:.0}% of the old effort.",
        100.0 * sum_new as f64 / sum_old as f64
    );
}
