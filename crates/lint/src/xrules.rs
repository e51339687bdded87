//! Cross-file rules (SMT009–SMT012) over the workspace model.
//!
//! These rules never read source text: they run entirely over the
//! [`FileModel`]s extracted by `model.rs` and the documentation texts.

use crate::model::{FileModel, FnDef};
use crate::rules::{Diagnostic, RuleCode};

/// Everything the cross-file rules see.
pub struct Workspace {
    /// Lintable sources: `(repo-relative path, model)`, sorted by path.
    pub files: Vec<(String, FileModel)>,
    /// Auxiliary sources consulted but not linted locally (integration
    /// test files named by rules, e.g. `crates/pipeline/tests/sanitizer.rs`).
    pub aux: Vec<(String, FileModel)>,
    /// Documentation texts: `(repo-relative path, raw contents)`.
    pub docs: Vec<(String, String)>,
}

impl Workspace {
    fn file(&self, path: &str) -> Option<&FileModel> {
        self.files.iter().find(|(p, _)| p == path).map(|(_, m)| m)
    }

    fn aux_file(&self, path: &str) -> Option<&FileModel> {
        self.aux.iter().find(|(p, _)| p == path).map(|(_, m)| m)
    }

    fn doc(&self, path: &str) -> Option<&str> {
        self.docs
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, t)| t.as_str())
    }
}

const SANITIZER_PATH: &str = "crates/pipeline/src/sanitizer.rs";
const SANITIZER_TESTS_PATH: &str = "crates/pipeline/tests/sanitizer.rs";
const ERROR_PATH: &str = "crates/experiments/src/error.rs";
const MAIN_PATH: &str = "crates/experiments/src/main.rs";

/// Run every cross-file rule.
pub fn scan_workspace(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    dispatch_exhaustiveness(ws, &mut out);
    invariant_coverage(ws, &mut out);
    hook_gating(ws, &mut out);
    exit_code_contract(ws, &mut out);
    out
}

fn diag(code: RuleCode, path: &str, line: usize, item: String, message: String) -> Diagnostic {
    Diagnostic {
        code,
        path: path.to_string(),
        line,
        snippet: item.clone(),
        message,
        item: Some(item),
    }
}

// ---------------------------------------------------------------------
// SMT009 — PolicyKind dispatch exhaustiveness
// ---------------------------------------------------------------------

/// The `PolicyKind` methods whose match must stay variant-exhaustive
/// (each has deliberately explicit arms — no wildcard — so a new variant
/// fails to compile *or* fails this lint, never silently misroutes).
const POLICY_DISPATCH_FNS: [&str; 4] = ["name", "parse", "build", "dispatch"];

fn dispatch_exhaustiveness(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some((factory_path, factory, kind)) = ws
        .files
        .iter()
        .find_map(|(p, m)| m.enum_named("PolicyKind").map(|e| (p.as_str(), m, e)))
    else {
        return;
    };
    for fname in POLICY_DISPATCH_FNS {
        let fns: Vec<&FnDef> = factory.methods_of("PolicyKind", fname).collect();
        if fns.is_empty() {
            out.push(diag(
                RuleCode::Smt009,
                factory_path,
                kind.line,
                format!("PolicyKind::{fname}"),
                format!("PolicyKind is missing required dispatch fn `{fname}`"),
            ));
            continue;
        }
        // Covered when the variant appears in a match-arm head, or —
        // for fns like `parse` whose arm heads are (masked) string
        // literals — anywhere in the fn at all.
        for v in &kind.variants {
            if !fns
                .iter()
                .any(|f| f.has_arm(&v.name) || f.mentions(&v.name))
            {
                out.push(diag(
                    RuleCode::Smt009,
                    factory_path,
                    fns[0].line,
                    format!("{}::{}", fname, v.name),
                    format!(
                        "PolicyKind::{} has no match arm in `{}` — every variant must be \
                         explicitly handled",
                        v.name, fname
                    ),
                ));
            }
        }
    }
    // Policy-contract half: every concrete type routed through `dispatch`
    // must take an explicit stance on `quiescence_safe` (skip-engine
    // safety is a per-policy decision, not a trait default), and a policy
    // that defines `warn_level` must also define `audit_order` (warn
    // semantics imply an ordering contract the sanitizer can audit).
    let dispatched: Vec<&FnDef> = factory.methods_of("PolicyKind", "dispatch").collect();
    for (path, m) in &ws.files {
        for im in &m.impls {
            if im.in_test
                || im.trait_name.as_deref() != Some("FetchPolicy")
                || !dispatched.iter().any(|f| f.mentions(&im.ty))
            {
                continue;
            }
            let methods: Vec<&str> = m
                .impls
                .iter()
                .filter(|i| {
                    !i.in_test && i.ty == im.ty && i.trait_name.as_deref() == Some("FetchPolicy")
                })
                .flat_map(|i| i.methods.iter().map(String::as_str))
                .collect();
            if !methods.contains(&"quiescence_safe") {
                out.push(diag(
                    RuleCode::Smt009,
                    path,
                    im.line,
                    format!("{}::quiescence_safe", im.ty),
                    format!(
                        "`{}` is dispatched by PolicyKind but relies on the trait default for \
                         `quiescence_safe`; state the skip-safety contract explicitly",
                        im.ty
                    ),
                ));
            }
            if methods.contains(&"warn_level") && !methods.contains(&"audit_order") {
                out.push(diag(
                    RuleCode::Smt009,
                    path,
                    im.line,
                    format!("{}::audit_order", im.ty),
                    format!(
                        "`{}` defines `warn_level` but not `audit_order`; warn-driven ordering \
                         must expose its audit contract",
                        im.ty
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// SMT010 — invariant coverage
// ---------------------------------------------------------------------

fn invariant_coverage(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some(san) = ws.file(SANITIZER_PATH) else {
        return;
    };
    let Some(inv) = san.enum_named("InvariantCode") else {
        return;
    };
    // The INVxxx codes, in declaration order (the `code()` match returns
    // them variant by variant, so first-occurrence order pairs 1:1 with
    // the variant list).
    let mut codes: Vec<&str> = Vec::new();
    for (_, s) in &san.strings {
        if is_inv_code(s) && !codes.contains(&s.as_str()) {
            codes.push(s);
        }
    }
    if codes.len() != inv.variants.len() {
        out.push(diag(
            RuleCode::Smt010,
            SANITIZER_PATH,
            inv.line,
            "InvariantCode".to_string(),
            format!(
                "cannot pair InvariantCode variants with INVxxx strings: {} variants vs {} \
                 distinct codes",
                inv.variants.len(),
                codes.len()
            ),
        ));
        return;
    }
    let tests = ws.aux_file(SANITIZER_TESTS_PATH);
    let design = ws.doc("DESIGN.md");
    for (v, code) in inv.variants.iter().zip(&codes) {
        let tested = tests.is_some_and(|t| {
            t.fns.iter().any(|f| f.mentions(&v.name))
                || t.strings.iter().any(|(_, s)| s.contains(code))
        });
        if !tested {
            out.push(diag(
                RuleCode::Smt010,
                SANITIZER_PATH,
                v.line,
                format!("InvariantCode::{}", v.name),
                format!(
                    "{code} ({}) has no firing mutation test in {SANITIZER_TESTS_PATH}",
                    v.name
                ),
            ));
        }
        let documented = design.is_some_and(|t| t.contains(code));
        if !documented {
            out.push(diag(
                RuleCode::Smt010,
                SANITIZER_PATH,
                v.line,
                format!("InvariantCode::{}", v.name),
                format!("{code} ({}) is not documented in DESIGN.md", v.name),
            ));
        }
    }
}

fn is_inv_code(s: &str) -> bool {
    s.len() == 6 && s.starts_with("INV") && s[3..].bytes().all(|b| b.is_ascii_digit())
}

// ---------------------------------------------------------------------
// SMT011 — structural hook gating
// ---------------------------------------------------------------------

fn hook_gating(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for (path, m) in &ws.files {
        if !path.starts_with("crates/pipeline/") {
            continue;
        }
        for h in &m.hook_calls {
            if h.in_test || h.gated {
                continue;
            }
            out.push(diag(
                RuleCode::Smt011,
                path,
                h.line,
                h.hook.clone(),
                format!(
                    "`{}` call is not structurally dominated by a positive `ENABLED` branch; \
                     move it inside the monomorphized gate",
                    h.hook
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// SMT012 — exit-code contract
// ---------------------------------------------------------------------

/// The documented process exit codes (see README.md / EXPERIMENTS.md).
const EXIT_CONTRACT: [i64; 6] = [0, 1, 2, 3, 4, 5];

fn exit_code_contract(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // (a) The EXIT_* constants form exactly the documented set.
    if let Some(err) = ws.file(ERROR_PATH) {
        let exits: Vec<_> = err
            .consts
            .iter()
            .filter(|c| !c.in_test && c.name.starts_with("EXIT_"))
            .collect();
        let mut seen: Vec<i64> = Vec::new();
        for c in &exits {
            match c.value {
                Some(v) if EXIT_CONTRACT.contains(&v) => {
                    if seen.contains(&v) {
                        out.push(diag(
                            RuleCode::Smt012,
                            ERROR_PATH,
                            c.line,
                            c.name.clone(),
                            format!("`{}` duplicates exit code {v}", c.name),
                        ));
                    }
                    seen.push(v);
                }
                Some(v) => out.push(diag(
                    RuleCode::Smt012,
                    ERROR_PATH,
                    c.line,
                    c.name.clone(),
                    format!(
                        "`{}` = {v} is outside the documented 0–5 exit-code contract",
                        c.name
                    ),
                )),
                None => out.push(diag(
                    RuleCode::Smt012,
                    ERROR_PATH,
                    c.line,
                    c.name.clone(),
                    format!("`{}` must be a literal integer exit code", c.name),
                )),
            }
        }
        for v in EXIT_CONTRACT {
            if !seen.contains(&v) {
                out.push(diag(
                    RuleCode::Smt012,
                    ERROR_PATH,
                    exits.first().map_or(1, |c| c.line),
                    format!("EXIT_{v}"),
                    format!("no EXIT_* constant defines documented exit code {v}"),
                ));
            }
        }
    }
    // (b) No raw integer literals at exit() call sites.
    for (path, m) in &ws.files {
        if !path.starts_with("crates/experiments/") {
            continue;
        }
        for e in &m.exit_calls {
            if e.in_test || !e.has_literal {
                continue;
            }
            out.push(diag(
                RuleCode::Smt012,
                path,
                e.line,
                "exit-literal".to_string(),
                "raw integer literal in exit(); use the named EXIT_* constants".to_string(),
            ));
        }
    }
    // (c) The CLI usage text documents every code.
    if let Some(main) = ws.file(MAIN_PATH) {
        let usage = main
            .strings
            .iter()
            .find(|(_, s)| s.to_ascii_lowercase().contains("exit codes"));
        match usage {
            None => out.push(diag(
                RuleCode::Smt012,
                MAIN_PATH,
                1,
                "usage-exit-codes".to_string(),
                "usage text has no `exit codes` section".to_string(),
            )),
            Some((line, text)) => {
                for v in EXIT_CONTRACT {
                    if !mentions_digit(text, v) {
                        out.push(diag(
                            RuleCode::Smt012,
                            MAIN_PATH,
                            *line,
                            "usage-exit-codes".to_string(),
                            format!("usage text's exit-codes section does not mention {v}"),
                        ));
                    }
                }
            }
        }
    }
    // (d) README.md / EXPERIMENTS.md document every code near their
    // exit-code anchor.
    for doc_path in ["README.md", "EXPERIMENTS.md"] {
        let Some(text) = ws.doc(doc_path) else {
            continue;
        };
        let lower = text.to_ascii_lowercase();
        let Some(anchor) = lower.find("exit code") else {
            out.push(diag(
                RuleCode::Smt012,
                doc_path,
                1,
                "doc-exit-codes".to_string(),
                format!("{doc_path} has no `exit code` section"),
            ));
            continue;
        };
        let anchor_line = crate::lexer::line_of(text, anchor);
        let window: String = text
            .lines()
            .skip(anchor_line.saturating_sub(1))
            .take(15)
            .collect::<Vec<_>>()
            .join("\n");
        for v in EXIT_CONTRACT {
            if !mentions_digit(&window, v) {
                out.push(diag(
                    RuleCode::Smt012,
                    doc_path,
                    anchor_line,
                    "doc-exit-codes".to_string(),
                    format!(
                        "{doc_path}'s exit-code section does not mention code {v} within 15 \
                         lines of the anchor"
                    ),
                ));
            }
        }
    }
}

/// True when `text` contains the (single-digit) value as a standalone
/// number — not as part of a longer number or identifier.
fn mentions_digit(text: &str, v: i64) -> bool {
    let needle = (b'0' + v as u8) as char;
    let b = text.as_bytes();
    text.char_indices().any(|(i, c)| {
        c == needle
            && (i == 0 || !b[i - 1].is_ascii_alphanumeric())
            && (i + 1 >= b.len() || !b[i + 1].is_ascii_alphanumeric())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::extract;

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(p, src)| (p.to_string(), extract(src)))
                .collect(),
            aux: Vec::new(),
            docs: Vec::new(),
        }
    }

    #[test]
    fn smt009_flags_missing_dispatch_arm() {
        let src = r#"
pub enum PolicyKind { A, B }
impl PolicyKind {
    pub fn name(self) -> &'static str {
        match self { PolicyKind::A => "A", PolicyKind::B => "B" }
    }
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s { "A" => Some(PolicyKind::A), "B" => Some(PolicyKind::B), _ => None }
    }
    pub fn build(self) -> u32 {
        match self { PolicyKind::A => 1, PolicyKind::B => 2 }
    }
    pub fn dispatch(self) -> u32 {
        match self { PolicyKind::A => 1 }
    }
}
"#;
        let w = ws(vec![("crates/core/src/factory.rs", src)]);
        let diags = scan_workspace(&w);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Smt009)
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].item.as_deref(), Some("dispatch::B"));
    }

    #[test]
    fn smt009_requires_explicit_quiescence_safe() {
        let factory = r#"
pub enum PolicyKind { A }
impl PolicyKind {
    pub fn name(self) -> &'static str { match self { PolicyKind::A => "A" } }
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s { "A" => Some(PolicyKind::A), _ => None }
    }
    pub fn build(self) -> u32 { match self { PolicyKind::A => 1 } }
    pub fn dispatch<V>(self, v: V) -> u32 {
        match self { PolicyKind::A => v.visit(Alpha::new()) }
    }
}
"#;
        let alpha = r#"
pub struct Alpha;
impl FetchPolicy for Alpha {
    fn order(&self) -> u32 { 0 }
}
"#;
        let w = ws(vec![
            ("crates/core/src/factory.rs", factory),
            ("crates/core/src/alpha.rs", alpha),
        ]);
        let diags = scan_workspace(&w);
        assert!(
            diags.iter().any(|d| d.code == RuleCode::Smt009
                && d.item.as_deref() == Some("Alpha::quiescence_safe")),
            "{diags:?}"
        );
    }

    #[test]
    fn smt010_pairs_variants_with_codes_and_checks_tests_and_docs() {
        let san = r#"
pub enum InvariantCode { FooCheck, BarCheck }
impl InvariantCode {
    pub fn code(self) -> &'static str {
        match self {
            InvariantCode::FooCheck => "INV001",
            InvariantCode::BarCheck => "INV002",
        }
    }
}
"#;
        let tests_src = r#"
#[test]
fn foo_fires() { assert_caught(Mutation::Leak, InvariantCode::FooCheck); }
"#;
        let w = Workspace {
            files: vec![(SANITIZER_PATH.to_string(), extract(san))],
            aux: vec![(SANITIZER_TESTS_PATH.to_string(), extract(tests_src))],
            docs: vec![(
                "DESIGN.md".to_string(),
                "INV001 is documented here.".to_string(),
            )],
        };
        let diags = scan_workspace(&w);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Smt010)
            .collect();
        // BarCheck: untested AND undocumented → two findings; FooCheck clean.
        assert_eq!(hits.len(), 2, "{diags:?}");
        assert!(hits
            .iter()
            .all(|d| d.item.as_deref() == Some("InvariantCode::BarCheck")));
    }

    #[test]
    fn smt011_flags_structurally_ungated_hook() {
        let flagged = |path: &str, src: &str| -> Vec<String> {
            scan_workspace(&ws(vec![(path, src)]))
                .into_iter()
                .filter(|d| d.code == RuleCode::Smt011)
                .filter_map(|d| d.item)
                .collect()
        };
        let sim = "crates/pipeline/src/sim.rs";
        let src = r#"
impl<P: Probe> Sim<P> {
    fn step(&mut self) {
        if P::ENABLED {
            self.probe.on_sample(1);
        }
        self.probe.on_gate(2);
    }
}
"#;
        assert_eq!(flagged(sim, src), ["on_gate"]);
        // Scoped to the pipeline crate: probe impls in obs call their own
        // hooks freely.
        let bad = "impl Sim { fn tick(&mut self) { self.probe.on_cycle_state(&s); } }\n";
        assert_eq!(flagged(sim, bad), ["on_cycle_state"]);
        assert!(flagged("crates/obs/src/interval.rs", bad).is_empty());
        // A positive block and an early-return guard both gate.
        let block =
            "impl Sim { fn tick(&mut self) { if P::ENABLED { self.probe.on_sample(&s); } } }\n";
        assert!(flagged(sim, block).is_empty());
        let guard = "impl Sim { fn feed(&mut self) { if !P::ENABLED { return; } \
                     self.probe.on_quiescent_span(&s, 4); } }\n";
        assert!(flagged(sim, guard).is_empty());
        // The gate must dominate the call: an ENABLED in an earlier fn, an
        // ENABLED read into a local, or a negated condition does not.
        let elsewhere = "impl Sim { fn a(&self) -> bool { P::ENABLED }\n\
                         fn tick(&mut self) { self.sanitizer.audit_cycle(); } }\n";
        assert_eq!(flagged(sim, elsewhere), ["audit_cycle"]);
        let local = "impl Sim { fn tick(&mut self) { let on = P::ENABLED; \
                     self.probe.on_ungate(&s); } }\n";
        assert_eq!(flagged(sim, local), ["on_ungate"]);
        let negated = "impl Sim { fn tick(&mut self) { if !S::ENABLED || x { \
                       self.sanitizer.audit_cycle(); } } }\n";
        assert_eq!(flagged(sim, negated), ["audit_cycle"]);
        // Identity-argument hooks are not tracked, and definitions of the
        // tracked hooks are not calls.
        let identity =
            "impl Sim { fn commit(&mut self) { self.probe.on_commit(self.now, t, seq, pc); } }\n";
        assert!(flagged(sim, identity).is_empty());
        let def = "impl Probe for P { fn on_sample(&mut self, _s: &S) {} }\n";
        assert!(flagged(sim, def).is_empty());
    }

    #[test]
    fn smt012_checks_consts_calls_usage_and_docs() {
        let err = r#"
pub const EXIT_OK: i32 = 0;
pub const EXIT_RUNTIME: i32 = 1;
pub const EXIT_USAGE: i32 = 2;
pub const EXIT_PARTIAL: i32 = 3;
pub const EXIT_CHAOS: i32 = 4;
pub const EXIT_INT: i32 = 5;
pub const EXIT_BOGUS: i32 = 9;
"#;
        let main_src = r#"
const USAGE: &str = "usage...\nexit codes: 0 ok, 1 runtime, 2 usage, 3 partial, 4 chaos";
fn main() { std::process::exit(3); }
"#;
        let w = Workspace {
            files: vec![
                (ERROR_PATH.to_string(), extract(err)),
                (MAIN_PATH.to_string(), extract(main_src)),
            ],
            aux: Vec::new(),
            docs: vec![
                (
                    "README.md".to_string(),
                    "## Exit codes\n`0` `1` `2` `3` `4` `5`\n".to_string(),
                ),
                ("EXPERIMENTS.md".to_string(), "no section here".to_string()),
            ],
        };
        let diags = scan_workspace(&w);
        let items: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Smt012)
            .map(|d| d.item.clone().unwrap_or_default())
            .collect();
        assert!(items.contains(&"EXIT_BOGUS".to_string()), "{items:?}");
        assert!(items.contains(&"exit-literal".to_string()), "{items:?}");
        // usage text misses code 5
        assert!(items.contains(&"usage-exit-codes".to_string()), "{items:?}");
        // EXPERIMENTS.md has no section at all
        assert!(items.contains(&"doc-exit-codes".to_string()), "{items:?}");
    }
}
