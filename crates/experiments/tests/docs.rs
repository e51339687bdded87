//! Doc-consistency checks: the CLI invocations documented in README.md
//! and EXPERIMENTS.md must agree with the CLI that actually ships.
//!
//! The CLI's usage text is a hand-rolled string in `src/main.rs` (no
//! argument-parsing framework), so nothing ties the docs to the code at
//! compile time. These tests close the loop the cheap way: every
//! `smt-experiments -- ...` command line quoted in the top-level docs is
//! parsed, and each `--flag` and each subcommand/experiment name must
//! appear in the usage text / experiment suite. A renamed flag or a
//! removed experiment now fails the build instead of rotting in the docs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/experiments -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `--flag` token occurring in `text`.
fn flags_in(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for raw in text.split_whitespace() {
        let token = raw.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
        if let Some(rest) = token.strip_prefix("--") {
            if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
                out.insert(format!("--{rest}"));
            }
        }
    }
    out
}

/// The USAGE string in `src/main.rs`: what `--help`-style output prints.
fn usage_text() -> String {
    let main = read(&repo_root().join("crates/experiments/src/main.rs"));
    let start = main
        .find("const USAGE")
        .expect("main.rs lost its USAGE string");
    let end = main[start..].find("\";").expect("unterminated USAGE") + start;
    main[start..end].to_string()
}

/// The flag vocabulary the CLI itself documents.
fn usage_flags() -> BTreeSet<String> {
    flags_in(&usage_text())
}

/// Subcommands and experiment names the CLI accepts.
fn known_commands() -> BTreeSet<String> {
    let mut names: BTreeSet<String> = smt_experiments::suite::ALL
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    for extra in ["all", "compare", "cache", "trace", "report"] {
        names.insert(extra.to_string());
    }
    names
}

/// Command lines of the form `smt-experiments -- <args>` quoted in `doc`.
fn documented_invocations(doc: &str) -> Vec<String> {
    doc.lines()
        .filter_map(|l| {
            let i = l.find("smt-experiments")?;
            let rest = &l[i + "smt-experiments".len()..];
            let rest = rest.trim_start();
            let args = rest
                .strip_prefix("-- ")
                .or_else(|| rest.strip_prefix("--\t"))?;
            Some(args.trim().to_string())
        })
        .collect()
}

fn check_doc(name: &str) {
    let doc = read(&repo_root().join(name));
    let usage = usage_flags();
    let commands = known_commands();
    let invocations = documented_invocations(&doc);
    assert!(
        !invocations.is_empty(),
        "{name} documents no smt-experiments invocations; the extraction broke"
    );
    for inv in &invocations {
        for flag in flags_in(inv) {
            assert!(
                usage.contains(&flag),
                "{name} documents `smt-experiments -- {inv}` but `{flag}` is not in the \
                 CLI usage text — stale docs or an undocumented flag"
            );
        }
        // The first bare word is the subcommand / experiment name.
        if let Some(first) = inv.split_whitespace().find(|t| !t.starts_with('-')) {
            let first = first.trim_matches(|c: char| !(c.is_ascii_alphanumeric()));
            if !first.is_empty()
                && first
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
            {
                assert!(
                    commands.contains(first),
                    "{name} documents `smt-experiments -- {inv}` but `{first}` is not a \
                     known experiment or subcommand"
                );
            }
        }
    }
}

#[test]
fn readme_invocations_match_the_cli() {
    check_doc("README.md");
}

#[test]
fn experiments_md_invocations_match_the_cli() {
    check_doc("EXPERIMENTS.md");
}

#[test]
fn usage_names_every_experiment() {
    // The suite is the source of truth for what `all` runs; the usage
    // text must name each entry (and `meta` specifically must be there —
    // it is the results chapter's repro entry point).
    let main = read(&repo_root().join("crates/experiments/src/main.rs"));
    for (name, _) in smt_experiments::suite::ALL {
        assert!(
            main.contains(&format!("\n  {name}")) || main.contains(&format!(" {name} ")),
            "experiment `{name}` missing from the USAGE text"
        );
    }
}

/// From the first (case-insensitive) `exit code` mention in `text` to the
/// end of that paragraph.
fn exit_code_section(text: &str) -> Option<&str> {
    let start = text.to_ascii_lowercase().find("exit code")?;
    let len = text[start..].find("\n\n").unwrap_or(text.len() - start);
    Some(&text[start..start + len])
}

/// `digit` occurs in `text` as a standalone number.
fn names_code(text: &str, digit: char) -> bool {
    let b = text.as_bytes();
    text.char_indices().any(|(i, c)| {
        c == digit
            && (i == 0 || !b[i - 1].is_ascii_alphanumeric())
            && b.get(i + 1).is_none_or(|n| !n.is_ascii_alphanumeric())
    })
}

/// DESIGN.md's exit-code list: §9.1, from its heading to the next one.
fn design_error_taxonomy(text: &str) -> Option<&str> {
    let start = text.find("\n### 9.1")? + 1;
    let len = text[start..]
        .match_indices("\n#")
        .next()
        .map_or(text.len() - start, |(i, _)| i);
    Some(&text[start..start + len])
}

/// Statuses the CLI no longer returns: 4 (the retired fault injector's)
/// and 5 (the retired interrupted-and-resumable status).
const RETIRED: [u32; 2] = [4, 5];

#[test]
fn usage_and_docs_name_the_live_exit_codes_only() {
    use smt_experiments::error::Exit;
    type Section = fn(&str) -> Option<&str>;
    let doc = |name: &str| read(&repo_root().join(name));
    let docs: [(&str, String, Section); 4] = [
        ("the USAGE text", usage_text(), exit_code_section),
        ("README.md", doc("README.md"), exit_code_section),
        ("EXPERIMENTS.md", doc("EXPERIMENTS.md"), exit_code_section),
        ("DESIGN.md", doc("DESIGN.md"), design_error_taxonomy),
    ];
    for retired in RETIRED {
        assert!(
            Exit::ALL.iter().all(|e| e.code() != retired as i32),
            "status {retired} is live again; take it off RETIRED"
        );
    }
    for (name, text, section_of) in &docs {
        let section = section_of(text).unwrap_or_else(|| panic!("{name} has no exit-code section"));
        for exit in Exit::ALL {
            let digit = char::from_digit(exit.code() as u32, 10).expect("single-digit code");
            assert!(
                names_code(section, digit),
                "{name}'s exit-code section does not name {} ({exit:?}):\n{section}",
                exit.code()
            );
        }
        for retired in RETIRED {
            let digit = char::from_digit(retired, 10).expect("single-digit code");
            assert!(
                !names_code(section, digit),
                "{name}'s exit-code section still names the retired status {retired}:\n{section}"
            );
        }
    }
}
