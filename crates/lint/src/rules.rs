//! The lint rules and their scopes.
//!
//! Every rule has a stable diagnostic code (`SMT001`…) that the allowlist
//! and CI reference; codes are never renumbered, only retired. Rules scan
//! *masked* source (comments and string/char literals blanked — see
//! [`crate::lexer::mask_source`]) and skip `#[cfg(test)]` regions where
//! the rule only concerns production paths.

use crate::lexer::{ident_boundary, line_of, test_region_lines};

/// Stable diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleCode {
    /// Default-hasher `HashMap`/`HashSet` in simulator code. Iteration
    /// order of the default `RandomState` hasher varies across runs, so
    /// any iteration that feeds simulated state or output ordering breaks
    /// bit-identical determinism. Simulator crates use `FastMap`
    /// (`smt_uarch::fasthash`), whose hasher is fixed-seed.
    Smt001,
    /// Wall-clock reads (`Instant::now`, `SystemTime`) outside the
    /// watchdog and the bench crate. Simulated time is the only clock a
    /// deterministic simulator may consult.
    Smt002,
    /// `.unwrap()` / `.expect(` / `panic!` on user-facing paths
    /// (experiments + trace crates). Campaign code degrades to typed
    /// `ExpError`s and partial results; a stray unwrap turns a recoverable
    /// fault into an abort.
    Smt003,
    /// Float `==` / `!=` in the metrics crate. Metric comparisons go
    /// through explicit tolerances; exact float equality is either a bug
    /// or an accident waiting for a rounding change.
    Smt004,
    /// A stale allowlist entry: it suppressed nothing in this run. Stale
    /// entries hide regressions (the next real diagnostic in that file
    /// would be silently absorbed), so they are errors themselves.
    Smt005,
    /// A direct write to the simulator's cycle counter (`self.now`) in the
    /// pipeline crate outside `advance_clock`, the engine's single
    /// clock-advance point. The quiescence-skipping engine's closed-form
    /// accounting (round-robin offset, watchdog checkpoints, skip
    /// statistics) is only correct if every advance — naive step or bulk
    /// skip — funnels through that one function.
    Smt006,
    /// `PolicyKind` dispatch exhaustiveness (cross-file): every variant
    /// must have explicit match arms in `name`/`parse`/`build`/`dispatch`,
    /// and every concrete policy type routed through `dispatch` must state
    /// its `quiescence_safe` contract explicitly (plus `audit_order` when
    /// it defines `warn_level`). A wildcard arm or trait default here turns
    /// an unhandled new policy into silent misbehavior instead of a lint.
    Smt009,
    /// Invariant-coverage drift (cross-file): every `INVxxx` code declared
    /// on `InvariantCode` in `sanitizer.rs` must have a firing mutation
    /// test in `crates/pipeline/tests/sanitizer.rs` and a mention in
    /// DESIGN.md §10. An untested invariant is one refactor away from
    /// never firing; an undocumented one cannot be triaged.
    Smt010,
    /// Structurally ungated observability hook call: a call to one of
    /// the state-constructing hooks in [`crate::model::GATED_HOOKS`]
    /// (probe hooks that take snapshots or views, the sanitizer's cycle
    /// audit, the interval feeder) in the pipeline crate that is not
    /// dominated by a positive `const ENABLED` branch (or an
    /// `if !ENABLED { return }` guard, or the body of another tracked
    /// hook). The rule walks the token tree, so a hook moved out of its
    /// gate fires even when `ENABLED` still appears earlier in the
    /// function. An ungated call makes every unprobed run pay for
    /// telemetry it discards, breaking the zero-cost-when-disabled
    /// contract bench `pr6` gates.
    Smt011,
    /// Exit-code contract drift (cross-file): the `EXIT_*` constants in
    /// `crates/experiments/src/error.rs` must form exactly the documented
    /// 0–5 set, every `process::exit` call must use them (no raw integer
    /// literals), and the usage text, README.md and EXPERIMENTS.md must
    /// document every value. Scripts and CI match on these codes.
    Smt012,
}

impl RuleCode {
    pub const ALL: [RuleCode; 10] = [
        RuleCode::Smt001,
        RuleCode::Smt002,
        RuleCode::Smt003,
        RuleCode::Smt004,
        RuleCode::Smt005,
        RuleCode::Smt006,
        RuleCode::Smt009,
        RuleCode::Smt010,
        RuleCode::Smt011,
        RuleCode::Smt012,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            RuleCode::Smt001 => "SMT001",
            RuleCode::Smt002 => "SMT002",
            RuleCode::Smt003 => "SMT003",
            RuleCode::Smt004 => "SMT004",
            RuleCode::Smt005 => "SMT005",
            RuleCode::Smt006 => "SMT006",
            RuleCode::Smt009 => "SMT009",
            RuleCode::Smt010 => "SMT010",
            RuleCode::Smt011 => "SMT011",
            RuleCode::Smt012 => "SMT012",
        }
    }

    pub fn parse(s: &str) -> Option<RuleCode> {
        RuleCode::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    pub fn summary(self) -> &'static str {
        match self {
            RuleCode::Smt001 => "default-hasher HashMap/HashSet in simulator code",
            RuleCode::Smt002 => "wall-clock read outside the watchdog/bench crates",
            RuleCode::Smt003 => "unwrap/expect/panic! on a user-facing path",
            RuleCode::Smt004 => "exact float equality in metrics",
            RuleCode::Smt005 => "stale allowlist entry (suppressed nothing)",
            RuleCode::Smt006 => "cycle counter written outside advance_clock",
            RuleCode::Smt009 => "PolicyKind variant or policy contract not dispatched",
            RuleCode::Smt010 => "invariant code without mutation test or doc mention",
            RuleCode::Smt011 => "hook call not structurally dominated by ENABLED",
            RuleCode::Smt012 => "exit-code contract drift (consts/calls/docs)",
        }
    }
}

impl std::fmt::Display for RuleCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub code: RuleCode,
    /// Repo-relative, `/`-separated.
    pub path: String,
    /// 1-based.
    pub line: usize,
    /// The offending source line, trimmed (from the *unmasked* source, so
    /// the report shows what the author wrote).
    pub snippet: String,
    pub message: String,
    /// Item granularity for cross-file rules (e.g. `Simulator::waiter_pool`
    /// or `InvariantCode::EventLenMismatch`). An allowlist entry of the
    /// form `CODE path#item reason` suppresses exactly this finding; plain
    /// `CODE path` entries still match the whole file.
    pub item: Option<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}\n    {}",
            self.path, self.line, self.code, self.message, self.snippet
        )
    }
}

fn in_crate(path: &str, krate: &str) -> bool {
    path.starts_with(&format!("crates/{krate}/"))
}

/// Crates whose code is (or feeds) the deterministic simulation core.
fn sim_core_scope(path: &str) -> bool {
    in_crate(path, "pipeline") || in_crate(path, "uarch") || in_crate(path, "core")
}

/// Crates whose code runs on behalf of a CLI user.
fn user_facing_scope(path: &str) -> bool {
    in_crate(path, "experiments") || in_crate(path, "trace")
}

/// Scan one file; `path` is repo-relative. `src` is the raw source.
pub fn scan_file(path: &str, src: &str) -> Vec<Diagnostic> {
    let masked = crate::lexer::mask_source(src);
    let test_lines = test_region_lines(&masked);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let mut push = |code: RuleCode, line: usize, message: String| {
        out.push(Diagnostic {
            code,
            path: path.to_string(),
            line,
            item: None,
            snippet: raw_lines
                .get(line - 1)
                .map_or(String::new(), |l| l.trim().to_string()),
            message,
        });
    };
    let in_test = |line: usize| test_lines.get(line - 1).copied().unwrap_or(false);

    if sim_core_scope(path) {
        for name in ["HashMap", "HashSet"] {
            for at in find_idents(&masked, name) {
                let line = line_of(&masked, at);
                if !in_test(line) {
                    push(
                        RuleCode::Smt001,
                        line,
                        format!("default-hasher {name}; use FastMap (smt_uarch::fasthash) or a sorted structure"),
                    );
                }
            }
        }
    }

    if !in_crate(path, "bench") {
        for name in ["Instant", "SystemTime"] {
            for at in find_idents(&masked, name) {
                // `Instant` alone (a type in a signature) is fine; the
                // read is `Instant::now`. `SystemTime` is banned outright
                // — even holding one implies a wall-clock read upstream.
                if name == "Instant" && !masked[at..].starts_with("Instant::now") {
                    continue;
                }
                let line = line_of(&masked, at);
                if !in_test(line) {
                    push(
                        RuleCode::Smt002,
                        line,
                        format!("{name} is a wall-clock read; simulators tell time in cycles (watchdog/bench excepted via the allowlist)"),
                    );
                }
            }
        }
    }

    // The chaos harness exists to throw panics at the campaign's
    // isolation boundary; its faults are intentional by construction.
    if user_facing_scope(path) && !path.ends_with("/chaos.rs") {
        for at in find_idents(&masked, "unwrap") {
            let b = masked.as_bytes();
            let dotted = at > 0 && prev_nonspace(b, at) == Some(b'.');
            let called = masked[at + "unwrap".len()..].trim_start().starts_with("()");
            if dotted && called {
                let line = line_of(&masked, at);
                if !in_test(line) {
                    push(
                        RuleCode::Smt003,
                        line,
                        "unwrap() aborts the campaign; return a typed ExpError or recover"
                            .to_string(),
                    );
                }
            }
        }
        for at in find_idents(&masked, "expect") {
            let b = masked.as_bytes();
            let dotted = at > 0 && prev_nonspace(b, at) == Some(b'.');
            let called = masked[at + "expect".len()..].trim_start().starts_with('(');
            if dotted && called {
                let line = line_of(&masked, at);
                if !in_test(line) {
                    push(
                        RuleCode::Smt003,
                        line,
                        "expect() aborts the campaign; return a typed ExpError or recover"
                            .to_string(),
                    );
                }
            }
        }
        for at in find_idents(&masked, "panic") {
            let called = masked[at + "panic".len()..].trim_start().starts_with('!');
            if called {
                let line = line_of(&masked, at);
                if !in_test(line) {
                    push(
                        RuleCode::Smt003,
                        line,
                        "panic! on a user-facing path; campaigns degrade to partial results"
                            .to_string(),
                    );
                }
            }
        }
    }

    if in_crate(path, "pipeline") {
        let exempt = advance_clock_lines(&masked);
        for at in find_idents(&masked, "now") {
            let b = masked.as_bytes();
            // Only writes to the simulator's own counter: `self.now`
            // followed by an assignment operator.
            if prev_nonspace(b, at) != Some(b'.') {
                continue;
            }
            let dot = masked[..at].rfind('.').expect("prev nonspace was a dot");
            let receiver = masked[..dot].trim_end();
            if !receiver.ends_with("self")
                || receiver
                    .as_bytes()
                    .get(receiver.len().wrapping_sub(5))
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
            {
                continue;
            }
            let rest = masked[at + "now".len()..].trim_start();
            let is_write = rest.starts_with("+=")
                || rest.starts_with("-=")
                || (rest.starts_with('=') && !rest.starts_with("==") && !rest.starts_with("=>"));
            if !is_write {
                continue;
            }
            let line = line_of(&masked, at);
            if !in_test(line) && !exempt.as_ref().is_some_and(|r| r.contains(&line)) {
                push(
                    RuleCode::Smt006,
                    line,
                    "cycle counter written outside advance_clock; every clock advance (naive or bulk) must go through the single advance point".to_string(),
                );
            }
        }
    }

    if in_crate(path, "metrics") {
        for (idx, line) in masked.lines().enumerate() {
            if !in_test(idx + 1) && float_equality(line) {
                push(
                    RuleCode::Smt004,
                    idx + 1,
                    "exact float equality; compare with an explicit tolerance".to_string(),
                );
            }
        }
    }

    out
}

/// Offsets of standalone occurrences of identifier `name` in `s`.
fn find_idents(s: &str, name: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(p) = s.get(from..).and_then(|t| t.find(name)) {
        let at = from + p;
        if ident_boundary(s, at, name.len()) {
            hits.push(at);
        }
        from = at + 1;
    }
    hits
}

/// 1-based line numbers of the body of `fn advance_clock` — the engine's
/// single clock-advance point, exempt from `SMT006` — located by brace
/// matching on the masked source (masking guarantees no braces hide in
/// strings or comments). Returns `None` when the file has no such
/// function.
fn advance_clock_lines(masked: &str) -> Option<std::ops::RangeInclusive<usize>> {
    let at = masked.find("fn advance_clock")?;
    let open = masked[at..].find('{').map(|p| at + p)?;
    let mut depth = 0usize;
    let mut end = open;
    for (i, &c) in masked.as_bytes()[open..].iter().enumerate() {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    end = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    Some(line_of(masked, open)..=line_of(masked, end))
}

fn prev_nonspace(b: &[u8], at: usize) -> Option<u8> {
    b[..at]
        .iter()
        .rev()
        .copied()
        .find(|c| !c.is_ascii_whitespace())
}

/// Heuristic: a `==`/`!=` with a float-typed operand on either side — a
/// float literal (`0.95`), an `as f64`/`as f32` cast, or an `f64::`/
/// `f32::` constant. Purely syntactic: float-typed *variables* compared
/// directly are invisible to it, which is acceptable for a lint whose job
/// is to keep the obvious cases out.
fn float_equality(masked_line: &str) -> bool {
    let l = masked_line;
    for op in ["==", "!="] {
        let mut from = 0;
        while let Some(p) = l.get(from..).and_then(|t| t.find(op)) {
            let at = from + p;
            // Skip `!==`/`===`-like artifacts and pattern `=>`.
            let left = l[..at].trim_end();
            let right = l[at + 2..].trim_start();
            if operand_is_floaty(left, true) || operand_is_floaty(right, false) {
                return true;
            }
            from = at + 2;
        }
    }
    false
}

fn operand_is_floaty(side: &str, is_left: bool) -> bool {
    let token: &str = if is_left {
        side.rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == ':'))
            .next()
            .unwrap_or("")
    } else {
        side.split(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == ':'))
            .next()
            .unwrap_or("")
    };
    if token.contains("f64") || token.contains("f32") {
        return true;
    }
    // Float literal: digits '.' digits (e.g. 0.95, 1., 3.0e2).
    let mut chars = token.chars().peekable();
    let mut saw_digit = false;
    while let Some(c) = chars.peek() {
        if c.is_ascii_digit() || *c == '_' {
            saw_digit |= c.is_ascii_digit();
            chars.next();
        } else {
            break;
        }
    }
    saw_digit && chars.peek() == Some(&'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(path: &str, src: &str) -> Vec<RuleCode> {
        scan_file(path, src).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn default_hasher_in_pipeline_is_flagged() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let got = codes("crates/pipeline/src/x.rs", src);
        assert!(got.iter().all(|c| *c == RuleCode::Smt001));
        assert_eq!(got.len(), 3);
        // Same text outside the simulator scope: clean.
        assert!(codes("crates/experiments/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_test_module_is_allowed() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(codes("crates/uarch/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_reads_are_flagged_everywhere_but_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            codes("crates/metrics/src/x.rs", src),
            vec![RuleCode::Smt002]
        );
        assert!(codes("crates/bench/src/x.rs", src).is_empty());
        // A plain `Instant` in a type position is not a read.
        let ty = "struct S { t: std::time::Instant }\n";
        assert!(codes("crates/metrics/src/x.rs", ty).is_empty());
    }

    #[test]
    fn panic_paths_are_flagged_only_in_user_facing_crates() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g() { panic!(\"no\"); }\nfn h(r: Result<u32, ()>) -> u32 { r.expect(\"yes\") }\n";
        let got = codes("crates/experiments/src/x.rs", src);
        assert_eq!(got, vec![RuleCode::Smt003; 3]);
        assert!(codes("crates/pipeline/src/x.rs", src).is_empty());
        // chaos.rs throws panics on purpose.
        assert!(codes("crates/experiments/src/chaos.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_tests_and_comments_is_allowed() {
        let src = "// call .unwrap() like this\nfn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(codes("crates/trace/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 3) }\n";
        assert!(codes("crates/experiments/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_equality_in_metrics_is_flagged() {
        let src = "fn f(x: f64) -> bool { x == 0.95 }\n";
        assert_eq!(
            codes("crates/metrics/src/x.rs", src),
            vec![RuleCode::Smt004]
        );
        let casts = "fn g(a: u64, b: u64) -> bool { a as f64 == b as f64 }\n";
        assert_eq!(
            codes("crates/metrics/src/x.rs", casts),
            vec![RuleCode::Smt004]
        );
        let ints = "fn h(a: u64, b: u64) -> bool { a == b }\n";
        assert!(codes("crates/metrics/src/x.rs", ints).is_empty());
        // Tolerance-based comparison: fine.
        let tol = "fn k(x: f64) -> bool { (x - 0.95).abs() < 1e-9 }\n";
        assert!(codes("crates/metrics/src/x.rs", tol).is_empty());
    }

    #[test]
    fn cycle_counter_writes_outside_advance_clock_are_flagged() {
        for write in ["self.now += 1;", "self.now -= 1;", "self.now = 5;"] {
            let src = format!("impl Sim {{ fn tick(&mut self) {{ {write} }} }}\n");
            assert_eq!(
                codes("crates/pipeline/src/sim.rs", &src),
                vec![RuleCode::Smt006],
                "{write}"
            );
            // The rule is scoped to the pipeline crate.
            assert!(codes("crates/uarch/src/x.rs", &src).is_empty());
        }
    }

    #[test]
    fn cycle_counter_reads_and_comparisons_are_allowed() {
        let src = "impl Sim { fn q(&self) -> bool { self.now == 3 || self.now >= 4 }\n\
                   fn r(&self) -> u64 { self.now + 1 } }\n";
        assert!(codes("crates/pipeline/src/sim.rs", src).is_empty());
        // A local variable named `now` is not the simulator's counter.
        let local = "fn f() { let mut now = 0u64; now += 1; let _ = now; }\n";
        assert!(codes("crates/pipeline/src/events.rs", local).is_empty());
    }

    #[test]
    fn advance_clock_body_is_the_exempt_single_advance_point() {
        let src = "impl Sim {\n\
                   fn advance_clock(&mut self, cycles: u64) {\n\
                   if cycles > 0 {\n\
                   self.now += cycles;\n\
                   }\n\
                   }\n\
                   fn elsewhere(&mut self) { self.now += 1; }\n\
                   }\n";
        let got = scan_file("crates/pipeline/src/sim.rs", src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].code, RuleCode::Smt006);
        assert_eq!(got[0].line, 7, "only the write outside advance_clock");
    }

    #[test]
    fn codes_round_trip_through_parse() {
        for c in RuleCode::ALL {
            assert_eq!(RuleCode::parse(c.as_str()), Some(c));
        }
        assert_eq!(RuleCode::parse("SMT999"), None);
    }
}
