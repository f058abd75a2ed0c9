//! CLI for the repo's developer tasks. The linting itself lives in the
//! `xtask` library crate (`lexer`/`scope`/`rules`/`engine`/`report`) so
//! the test suite can drive it on fixture sources.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::{engine, report};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask `{other}`; available: lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint [--format text|json] [--out FILE]");
            ExitCode::FAILURE
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut format = "text".to_string();
    let mut out_file: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" => format = f.clone(),
                _ => {
                    eprintln!("--format takes `text` or `json`");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(f) => out_file = Some(PathBuf::from(f)),
                None => {
                    eprintln!("--out takes a file path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown lint option `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = match engine::lint_workspace(&workspace_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let rendered = match format.as_str() {
        "json" => report::json(&report),
        _ => report::text(&report),
    };
    match &out_file {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("xtask lint: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            // Keep the human summary visible even when the report goes to
            // a file (CI uploads the file, developers read the terminal).
            eprint!("{}", report::text(&report));
        }
        None => print!("{rendered}"),
    }
    if format == "json" && out_file.is_none() {
        eprint!("{}", report::text(&report));
    }

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}
