//! `cargo xtask` — workspace automation entry point.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`\n");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask <task>\n\n\
         tasks:\n  \
         lint [--json]           run every iPrism lint rule over every workspace .rs file\n                          \
         in one pass; --json prints the report as one JSON document\n\n\
         lint rules:\n  \
         tokens: no-panic-in-lib, no-float-eq, no-wallclock-in-sim, pub-fn-docs,\n          \
         no-hash-collections, no-unseeded-rng, raw-f64-param, raw-f64-return,\n          \
         angle-conv-outside-units, partial-cmp-unwrap, unguarded-float-div,\n          \
         float-int-cast, world-step-outside-sim\n  \
         graph:  hot-path-panic, hot-path-alloc, hot-path-nondet, hot-path-marker\n  \
         flow:   unit-mixed-dim, unit-raw-reentry, unit-angle-raw, par-float-accum,\n          \
         par-shared-mut, unordered-reduce\n  \
         audit:  dead-waiver\n\
         waive a finding with `// iprism-lint: allow(<rule>)` on or above the line\n\
         (see docs/STATIC_ANALYSIS.md for the full catalogue)"
    );
}

fn workspace_root() -> PathBuf {
    // xtask lives one level below the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .to_path_buf()
}

fn lint(flags: &[String]) -> ExitCode {
    let mut json = false;
    for flag in flags {
        if flag == "--json" {
            json = true;
        } else {
            eprintln!("xtask lint: unknown flag `{flag}`\n");
            print_usage();
            return ExitCode::from(2);
        }
    }
    let report = match xtask::run_lint(&workspace_root()) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("xtask lint: I/O error: {err}");
            return ExitCode::from(2);
        }
    };
    let violations = report.diagnostics.len();
    if json {
        println!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        let verdict = match violations {
            0 => "no violations".to_string(),
            n => format!("{n} violation(s)"),
        };
        println!("xtask lint: {}; {verdict}", report.summary());
    }
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
