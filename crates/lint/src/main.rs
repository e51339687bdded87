//! `smt-lint` — CLI for the workspace determinism lint.
//!
//! ```text
//! smt-lint [--root DIR] [--verbose] [--rules] [--json PATH]
//! ```
//!
//! `--json PATH` writes machine-readable diagnostics (every finding with
//! code, file, line, item, message, allowlisted flag) alongside the human
//! report; `-` writes the JSON to stdout instead of the human report.
//!
//! Exit 0: clean. Exit 1: non-allowlisted diagnostics (printed one per
//! line as `path:line: CODE message`). Exit 2: usage or I/O failure,
//! including a missing source or documentation input.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: smt-lint [--root DIR] [--verbose] [--rules] [--json PATH]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut verbose = false;
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => return usage("--json needs a path (or `-` for stdout)"),
            },
            "--verbose" | "-v" => verbose = true,
            "--rules" => {
                for c in smt_lint::RuleCode::ALL {
                    println!("{c}  {}", c.summary());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match smt_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => return usage("not inside a cargo workspace (pass --root)"),
            }
        }
    };
    match smt_lint::run(&root) {
        Ok(report) => {
            let json = smt_lint::render_json(&report);
            match &json_out {
                Some(p) if p.as_os_str() == "-" => print!("{json}"),
                Some(p) => {
                    if let Err(e) = std::fs::write(p, &json) {
                        eprintln!("smt-lint: writing {}: {e}", p.display());
                        return ExitCode::from(2);
                    }
                    print!("{}", smt_lint::render(&report, verbose));
                }
                None => print!("{}", smt_lint::render(&report, verbose)),
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("smt-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("smt-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
