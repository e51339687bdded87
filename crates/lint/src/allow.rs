//! The allowlist: the only sanctioned way to keep a diagnostic.
//!
//! Format (`lint.allow` at the repository root), one entry per line:
//!
//! ```text
//! # comment
//! SMT002 crates/pipeline/src/sim.rs  watchdog wall-clock check, sampled off the hot path
//! ```
//!
//! `CODE  repo/relative/path.rs  justification…` — whitespace-separated,
//! justification mandatory (an entry without one is a parse error: the
//! point of the file is that every suppression explains itself). An entry
//! suppresses every diagnostic of that code in that file; an entry that
//! suppresses *nothing* is itself reported as [`RuleCode::Smt005`] so the
//! list can only shrink as violations are fixed.
//!
//! Cross-file rules (SMT009+) report *item-granular* findings, and their
//! entries name the item after a `#`:
//!
//! ```text
//! SMT009 crates/core/src/stall_flush.rs#Flush::quiescence_safe  contract inherited for a migration window
//! ```
//!
//! An item entry suppresses only that item's finding; a plain path entry
//! still suppresses every finding of its code in the file.

use crate::rules::{Diagnostic, RuleCode};

#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub code: RuleCode,
    pub path: String,
    /// Item granularity (`Type::field` after a `#` in the entry), if any.
    pub item: Option<String>,
    pub reason: String,
    /// 1-based line in the allowlist file (for SMT005 reports).
    pub line: usize,
}

impl AllowEntry {
    /// The `path` or `path#item` spelling, as written in the file.
    pub fn target(&self) -> String {
        match &self.item {
            Some(it) => format!("{}#{}", self.path, it),
            None => self.path.clone(),
        }
    }

    fn matches(&self, d: &Diagnostic) -> bool {
        self.code == d.code
            && self.path == d.path
            && match &self.item {
                Some(it) => d.item.as_deref() == Some(it.as_str()),
                None => true,
            }
    }
}

/// Parse the allowlist text. Returns every malformed line as an error
/// string; a half-parsed allowlist must never half-suppress.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, Vec<String>> {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let code = parts.next().unwrap_or("");
        let target = parts.next().unwrap_or("").trim();
        let reason = parts.next().unwrap_or("").trim();
        let (path, item) = match target.split_once('#') {
            Some((p, it)) if !it.is_empty() => (p, Some(it.to_string())),
            _ => (target, None),
        };
        let Some(code) = RuleCode::parse(code) else {
            errors.push(format!("allowlist line {}: unknown code {code:?}", idx + 1));
            continue;
        };
        if code == RuleCode::Smt005 {
            errors.push(format!(
                "allowlist line {}: SMT005 (stale entry) cannot itself be allowlisted",
                idx + 1
            ));
            continue;
        }
        if path.is_empty() {
            errors.push(format!("allowlist line {}: missing path", idx + 1));
            continue;
        }
        if reason.is_empty() {
            errors.push(format!(
                "allowlist line {}: entry for {} {} has no justification",
                idx + 1,
                code,
                target
            ));
            continue;
        }
        entries.push(AllowEntry {
            code,
            path: path.to_string(),
            item,
            reason: reason.to_string(),
            line: idx + 1,
        });
    }
    if errors.is_empty() {
        Ok(entries)
    } else {
        Err(errors)
    }
}

/// The outcome of a lint run after the allowlist is applied.
#[derive(Debug, Default)]
pub struct Report {
    /// Diagnostics not covered by any allowlist entry — these fail CI.
    /// Includes one `SMT005` per stale allowlist entry.
    pub active: Vec<Diagnostic>,
    /// Diagnostics an allowlist entry absorbed (shown with `--verbose`).
    pub suppressed: Vec<Diagnostic>,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.active.is_empty()
    }
}

/// Split raw diagnostics into active and suppressed, and convert stale
/// allowlist entries into active `SMT005` diagnostics.
pub fn apply(diags: Vec<Diagnostic>, allow: &[AllowEntry], allow_path: &str) -> Report {
    let mut used = vec![false; allow.len()];
    let mut report = Report::default();
    for d in diags {
        // Prefer the most specific entry (item-granular before whole-file)
        // so a stale item entry cannot hide behind a broad one.
        let hit = allow
            .iter()
            .position(|a| a.item.is_some() && a.matches(&d))
            .or_else(|| allow.iter().position(|a| a.item.is_none() && a.matches(&d)));
        match hit {
            Some(i) => {
                used[i] = true;
                report.suppressed.push(d);
            }
            None => report.active.push(d),
        }
    }
    for (a, used) in allow.iter().zip(used) {
        if !used {
            report.active.push(Diagnostic {
                code: RuleCode::Smt005,
                path: allow_path.to_string(),
                line: a.line,
                snippet: format!("{} {}  {}", a.code, a.target(), a.reason),
                message: format!(
                    "stale allowlist entry: no {} diagnostic in {} — delete it",
                    a.code,
                    a.target()
                ),
                item: None,
            });
        }
    }
    report
        .active
        .sort_by(|a, b| (a.path.as_str(), a.line, a.code).cmp(&(b.path.as_str(), b.line, b.code)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: RuleCode, path: &str) -> Diagnostic {
        Diagnostic {
            code,
            path: path.to_string(),
            line: 1,
            snippet: String::new(),
            message: String::new(),
            item: None,
        }
    }

    fn item_diag(code: RuleCode, path: &str, item: &str) -> Diagnostic {
        Diagnostic {
            item: Some(item.to_string()),
            ..diag(code, path)
        }
    }

    #[test]
    fn parses_entries_and_skips_comments() {
        let text = "# header\n\nSMT002 crates/pipeline/src/sim.rs  the watchdog's wall clock\n";
        let entries = parse_allowlist(text).expect("valid");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].code, RuleCode::Smt002);
        assert_eq!(entries[0].path, "crates/pipeline/src/sim.rs");
        assert!(entries[0].reason.contains("watchdog"));
    }

    #[test]
    fn justification_is_mandatory() {
        let errs = parse_allowlist("SMT001 crates/uarch/src/fasthash.rs\n").unwrap_err();
        assert!(errs[0].contains("no justification"), "{errs:?}");
    }

    #[test]
    fn unknown_codes_and_selfreferential_smt005_are_rejected() {
        assert!(parse_allowlist("SMT999 x.rs why\n").is_err());
        assert!(parse_allowlist("SMT005 lint.allow why\n").is_err());
    }

    #[test]
    fn matching_entries_suppress_and_stale_entries_fire_smt005() {
        let entries = parse_allowlist(
            "SMT001 crates/uarch/src/fasthash.rs  the FastMap definition site\n\
             SMT002 crates/nowhere/src/gone.rs  a file that no longer trips\n",
        )
        .expect("valid");
        let diags = vec![
            diag(RuleCode::Smt001, "crates/uarch/src/fasthash.rs"),
            diag(RuleCode::Smt001, "crates/pipeline/src/sim.rs"),
        ];
        let r = apply(diags, &entries, "lint.allow");
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.active.len(), 2);
        assert!(r.active.iter().any(|d| d.code == RuleCode::Smt005));
        assert!(r
            .active
            .iter()
            .any(|d| d.code == RuleCode::Smt001 && d.path.ends_with("sim.rs")));
    }

    #[test]
    fn item_entries_parse_and_match_only_their_item() {
        let entries = parse_allowlist(
            "SMT009 crates/core/src/stall_flush.rs#Flush::quiescence_safe  contract inherited for a migration window\n",
        )
        .expect("valid");
        assert_eq!(entries[0].path, "crates/core/src/stall_flush.rs");
        assert_eq!(entries[0].item.as_deref(), Some("Flush::quiescence_safe"));
        let diags = vec![
            item_diag(
                RuleCode::Smt009,
                "crates/core/src/stall_flush.rs",
                "Flush::quiescence_safe",
            ),
            item_diag(
                RuleCode::Smt009,
                "crates/core/src/stall_flush.rs",
                "Stall::quiescence_safe",
            ),
        ];
        let r = apply(diags, &entries, "lint.allow");
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(
            r.suppressed[0].item.as_deref(),
            Some("Flush::quiescence_safe")
        );
        assert!(r
            .active
            .iter()
            .any(|d| d.item.as_deref() == Some("Stall::quiescence_safe")));
        assert!(
            !r.active.iter().any(|d| d.code == RuleCode::Smt005),
            "the item entry was used, so it is not stale"
        );
    }

    #[test]
    fn plain_path_entry_still_covers_item_diagnostics() {
        let entries = parse_allowlist(
            "SMT009 crates/core/src/stall_flush.rs  whole-file waiver for a migration window\n",
        )
        .expect("valid");
        let diags = vec![item_diag(
            RuleCode::Smt009,
            "crates/core/src/stall_flush.rs",
            "Flush::quiescence_safe",
        )];
        let r = apply(diags, &entries, "lint.allow");
        assert_eq!(r.suppressed.len(), 1);
        assert!(r.active.is_empty());
    }
}
