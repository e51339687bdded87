//! # smt-lint — the workspace's determinism and robustness lint
//!
//! An offline static-analysis pass over this repository's *own* sources,
//! enforcing syntactically the policies the simulator's bit-identical
//! determinism and the campaign's fault tolerance rely on:
//!
//! | Code | Rule | Scope |
//! |---|---|---|
//! | `SMT001` | no default-hasher `HashMap`/`HashSet` (use `FastMap`) | pipeline, uarch, core |
//! | `SMT002` | no `Instant::now` / `SystemTime` | everywhere but `bench` |
//! | `SMT003` | no `unwrap()` / `expect()` / `panic!` | experiments, trace (not chaos) |
//! | `SMT004` | no float `==` / `!=` | metrics |
//! | `SMT005` | no stale allowlist entries | the allowlist itself |
//! | `SMT006` | cycle counter written only in `advance_clock` | pipeline |
//! | `SMT009` | `PolicyKind` dispatch exhaustive; policy contracts explicit | cross-file |
//! | `SMT010` | every `INVxxx` invariant tested and documented | cross-file |
//! | `SMT011` | hooks structurally dominated by `ENABLED` (token-tree) | pipeline |
//! | `SMT012` | exit codes match the documented 0–5 contract | experiments, docs |
//!
//! `#[cfg(test)]` modules, `tests/`, `benches/` and `examples/` trees are
//! exempt throughout: the rules guard production paths.
//!
//! SMT001–SMT006 are *local* rules: token scans over one masked file
//! ([`lexer::mask_source`] → [`rules::scan_file`]). SMT009–SMT012 are
//! *cross-file* rules: every file is parsed into balanced-delimiter token
//! trees ([`tokens`]) and distilled into a structural [`model::FileModel`]
//! (enum variants, fns with mention sets, match arms, impl blocks,
//! consts, strings, hook-call gating); [`xrules::scan_workspace`] then
//! checks coverage invariants across the whole workspace model plus the
//! documentation files.
//!
//! Intentional exceptions live in `lint.allow` at the repository root,
//! one per line with a mandatory justification (`CODE path  why`, or
//! item-granular `CODE path#Type::field  why` for the cross-file rules);
//! an entry that stops matching anything becomes an `SMT005` error so the
//! list can only shrink. Run it as `cargo run -p smt-lint`; CI runs it as
//! the "Static analysis" gate. Its only dependency is the workspace's
//! `smt-obs`, whose [`smt_obs::Json`] builds the `--json` report.

pub mod allow;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod tokens;
pub mod xrules;

pub use allow::{apply, parse_allowlist, AllowEntry, Report};
pub use rules::{scan_file, Diagnostic, RuleCode};

use std::path::{Path, PathBuf};

use smt_obs::Json;

/// The allowlist's canonical location, relative to the workspace root.
pub const ALLOWLIST_NAME: &str = "lint.allow";

/// Every `.rs` production source in the workspace: `crates/*/src/**/*.rs`,
/// excluding `tests/`, `benches/` and `examples/` trees. Sorted, so runs
/// are deterministic.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "tests" | "benches" | "examples") {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Repo-relative, `/`-separated rendering of `path` under `root`.
fn rel(root: &Path, path: &Path) -> String {
    let r = path.strip_prefix(root).unwrap_or(path);
    r.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Auxiliary sources the cross-file rules consult (integration tests that
/// are not linted locally but whose *contents* are coverage evidence).
const AUX_SOURCES: [&str; 1] = ["crates/pipeline/tests/sanitizer.rs"];

/// Documentation files the cross-file rules consult.
const DOC_SOURCES: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];

/// Scan the whole workspace and apply the allowlist at `root/lint.allow`
/// (an absent allowlist means "no exceptions"). `Err` carries usage-level
/// failures: an unreadable source, auxiliary source or documentation
/// file, or a malformed allowlist.
pub fn run(root: &Path) -> Result<Report, String> {
    let allow_path = root.join(ALLOWLIST_NAME);
    let entries = if allow_path.is_file() {
        parse_allowlist(&read(&allow_path)?).map_err(|errs| errs.join("\n"))?
    } else {
        Vec::new()
    };
    let files = workspace_sources(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    if files.is_empty() {
        return Err(format!("no sources under {}/crates", root.display()));
    }
    let mut diags = Vec::new();
    let mut models = Vec::with_capacity(files.len());
    for f in &files {
        let path = rel(root, f);
        let src = read(f)?;
        diags.extend(scan_file(&path, &src));
        models.push((path, model::extract(&src)));
    }
    let mut aux = Vec::new();
    for a in AUX_SOURCES {
        aux.push((a.to_string(), model::extract(&read(&root.join(a))?)));
    }
    let mut docs = Vec::new();
    for d in DOC_SOURCES {
        docs.push((d.to_string(), read(&root.join(d))?));
    }
    let ws = xrules::Workspace {
        files: models,
        aux,
        docs,
    };
    diags.extend(xrules::scan_workspace(&ws));
    let mut report = apply(diags, &entries, ALLOWLIST_NAME);
    report.files = files.len();
    Ok(report)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Machine-readable report: one object with every diagnostic (active and
/// suppressed), for CI annotation and artifact upload. Keys are emitted
/// in sorted order.
pub fn render_json(report: &Report) -> String {
    let diags = report
        .active
        .iter()
        .map(|d| (d, false))
        .chain(report.suppressed.iter().map(|d| (d, true)))
        .map(|(d, allowed)| {
            Json::obj(vec![
                ("allowlisted", Json::Bool(allowed)),
                ("code", Json::str(d.code.as_str())),
                ("item", d.item.as_deref().map_or(Json::Null, Json::str)),
                ("line", Json::U64(d.line as u64)),
                ("message", Json::str(&d.message)),
                ("path", Json::str(&d.path)),
                ("snippet", Json::str(&d.snippet)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("clean", Json::Bool(report.is_clean())),
        ("diagnostics", Json::Arr(diags)),
        ("files", Json::U64(report.files as u64)),
        ("version", Json::U64(2)),
    ])
    .render_pretty()
}

/// Walk upward from `start` to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Human-readable report; `verbose` also lists suppressed diagnostics
/// with the allowlist reasons they matched.
pub fn render(report: &Report, verbose: bool) -> String {
    let mut s = String::new();
    for d in &report.active {
        s.push_str(&format!("{d}\n"));
    }
    if verbose && !report.suppressed.is_empty() {
        s.push_str(&format!(
            "\n{} diagnostic(s) suppressed by {}:\n",
            report.suppressed.len(),
            ALLOWLIST_NAME
        ));
        for d in &report.suppressed {
            s.push_str(&format!("  [allowed] {}:{} {}\n", d.path, d.line, d.code));
        }
    }
    s.push_str(&format!(
        "{} file(s) scanned: {} violation(s), {} suppressed\n",
        report.files,
        report.active.len(),
        report.suppressed.len()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates/lint/Cargo.toml").is_file());
    }

    #[test]
    fn source_walk_skips_test_trees() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = workspace_sources(&root).expect("walk");
        assert!(files.iter().any(|f| f.ends_with("src/sim.rs")));
        assert!(!files.iter().any(|f| {
            f.components()
                .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "examples")
        }));
    }

    #[test]
    fn json_report_is_pinned() {
        let report = Report {
            active: vec![Diagnostic {
                code: RuleCode::Smt003,
                path: "crates/experiments/src/x.rs".to_string(),
                line: 7,
                snippet: r#"let p = "a\b".unwrap();"#.to_string(),
                message: "unwrap() aborts the campaign".to_string(),
                item: None,
            }],
            suppressed: vec![Diagnostic {
                code: RuleCode::Smt009,
                path: "crates/core/src/stall_flush.rs".to_string(),
                line: 12,
                snippet: "Flush::quiescence_safe".to_string(),
                message: "relies on the trait default".to_string(),
                item: Some("Flush::quiescence_safe".to_string()),
            }],
            files: 2,
        };
        let expected = r#"{
  "clean": false,
  "diagnostics": [
    {
      "allowlisted": false,
      "code": "SMT003",
      "item": null,
      "line": 7,
      "message": "unwrap() aborts the campaign",
      "path": "crates/experiments/src/x.rs",
      "snippet": "let p = \"a\\b\".unwrap();"
    },
    {
      "allowlisted": true,
      "code": "SMT009",
      "item": "Flush::quiescence_safe",
      "line": 12,
      "message": "relies on the trait default",
      "path": "crates/core/src/stall_flush.rs",
      "snippet": "Flush::quiescence_safe"
    }
  ],
  "files": 2,
  "version": 2
}
"#;
        assert_eq!(render_json(&report), expected);
    }
}
