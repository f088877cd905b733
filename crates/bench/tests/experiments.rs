//! Pins EXPERIMENTS.md to the code that produces its figures.
//!
//! Table 2 and RQ5 must be exactly what the `table2` and `rq5` binaries
//! print: every markdown row they emit, cell by cell, and every other
//! line they emit, verbatim. Table 1's deterministic figures — its rows,
//! the rule count and the RQ1 verdict — must be what
//! `cognicryptgen report` computes. Table 1's timing and memory columns
//! are one representative run and are not pinned.

use std::process::Command;

use cognicryptgen::report::build_from;
use rules::PackSource;

const DOC: &str = include_str!("../../../EXPERIMENTS.md");

/// The header row of EXPERIMENTS.md's Table 1, transcribed from
/// `cognicryptgen report`.
const TABLE1_HEADER: &str = "| # | Use case | collect | link | select | resolve | assemble | total µs | peak kB | SAST misuses |";

fn cells(row: &str) -> Vec<&str> {
    row.trim()
        .trim_start_matches('|')
        .trim_end_matches('|')
        .split('|')
        .map(str::trim)
        .collect()
}

/// The table in EXPERIMENTS.md whose header row is `header`: that row,
/// its separator and its body rows.
fn doc_table(header: &str) -> Vec<&'static str> {
    let table: Vec<&str> = DOC
        .lines()
        .skip_while(|line| *line != header)
        .take_while(|line| line.starts_with('|'))
        .collect();
    assert!(
        !table.is_empty(),
        "EXPERIMENTS.md has no table headed `{header}`"
    );
    table
}

fn run(binary: &str) -> String {
    let out = Command::new(binary).output().expect("binary runs");
    assert!(out.status.success(), "{binary} failed: {out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// Fails, naming the figure, the row and the column, where EXPERIMENTS.md
/// differs from what `binary` prints.
fn assert_doc_embeds(figure: &str, binary: &str, printed: &str) {
    let rows: Vec<&str> = printed.lines().filter(|l| l.starts_with('|')).collect();
    let header = cells(rows[0]);
    let doc = doc_table(rows[0]);
    assert_eq!(
        doc.len(),
        rows.len(),
        "{figure}: EXPERIMENTS.md has {} table lines, `{binary}` prints {}",
        doc.len(),
        rows.len()
    );
    for (doc_row, row) in doc.iter().zip(&rows) {
        let (doc_cells, row_cells) = (cells(doc_row), cells(row));
        assert_eq!(
            doc_cells.len(),
            row_cells.len(),
            "{figure}: EXPERIMENTS.md row `{doc_row}` has a different column count from `{row}`"
        );
        // A row is named by its leading label cells.
        let label: Vec<&str> = header
            .iter()
            .zip(&row_cells)
            .take_while(|(column, _)| matches!(**column, "#" | "Use case" | "Metric"))
            .map(|(_, cell)| *cell)
            .collect();
        let label = label.join(" ");
        for ((column, doc_cell), cell) in header.iter().zip(&doc_cells).zip(&row_cells) {
            assert_eq!(
                doc_cell, cell,
                "{figure}, row `{label}`, column `{column}`: EXPERIMENTS.md has {doc_cell}, `{binary}` prints {cell}"
            );
        }
    }
    for line in printed.lines() {
        if !line.is_empty() && !line.starts_with('|') {
            assert!(
                DOC.lines().any(|l| l == line),
                "{figure}: EXPERIMENTS.md lacks the line `{binary}` prints: `{line}`"
            );
        }
    }
}

#[test]
fn table2_in_experiments_md_is_what_table2_prints() {
    let printed = run(env!("CARGO_BIN_EXE_table2"));
    assert_doc_embeds("Table 2", "table2", &printed);
    // The paper's shape: every template is smaller than the old
    // artefacts it replaces, and so is the mean.
    for row in printed.lines().filter(|l| l.starts_with('|')).skip(2) {
        let c = cells(row);
        let old: usize = c[4].parse().expect("old total is a count");
        let java: usize = c[5].parse().expect("Java LoC is a count");
        assert!(java < old, "Table 2 row `{row}`: template not smaller");
    }
}

#[test]
fn rq5_in_experiments_md_is_what_rq5_prints() {
    assert_doc_embeds("RQ5", "rq5", &run(env!("CARGO_BIN_EXE_rq5")));
}

#[test]
fn table1_in_experiments_md_has_the_reports_rows_rules_and_verdict() {
    let report = build_from(PackSource::Embedded).expect("report builds");
    let doc = doc_table(TABLE1_HEADER);
    let body = &doc[2..];
    assert_eq!(
        body.len(),
        report.rows.len(),
        "Table 1: EXPERIMENTS.md has {} rows, `cognicryptgen report` emits {}",
        body.len(),
        report.rows.len()
    );
    for (line, row) in body.iter().zip(&report.rows) {
        let c = cells(line);
        assert_eq!(
            (c[0], c[1]),
            (row.id.to_string().as_str(), row.name.as_str()),
            "Table 1: EXPERIMENTS.md row `{line}` is not use case {} {}",
            row.id,
            row.name
        );
        assert_eq!(
            c[9],
            row.sast_misuses.to_string(),
            "Table 1, row `{} {}`, column `SAST misuses`: EXPERIMENTS.md has {}, `cognicryptgen report` computes {}",
            row.id,
            row.name,
            c[9],
            row.sast_misuses
        );
    }
    let misuses: usize = report.rows.iter().map(|r| r.sast_misuses).sum();
    let verdict = format!(
        "RQ1: **{} of {}** use cases generate, and CogniCryptSAST finds **{misuses} misuses** in the generated code under the embedded pack's **{} CrySL rules**.",
        report.rows.len(),
        usecases::all_use_cases().len(),
        report.boot.rules
    );
    assert!(
        DOC.lines().any(|l| l == verdict),
        "Table 1: EXPERIMENTS.md lacks the RQ1 verdict `cognicryptgen report` computes: `{verdict}`"
    );
}
