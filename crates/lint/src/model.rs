//! Per-file structural model extracted from token trees.
//!
//! `extract` walks the token tree of one masked source file and produces a
//! flat [`FileModel`]: enum variants, functions (with their identifier and
//! match-arm mention sets), impl blocks, integer consts, string literals,
//! tracked observability-hook calls (with structural `ENABLED` gating),
//! and `exit(..)` call sites. The cross-file rules in `xrules.rs` run
//! entirely over these models and never re-read source text.

use crate::lexer::{extract_strings, line_of, mask_source, test_region_lines};
use crate::tokens::{self, Delim, Tok};

/// Named item (an enum variant) with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Named {
    pub name: String,
    pub line: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumDef {
    pub name: String,
    pub line: usize,
    pub variants: Vec<Named>,
    pub in_test: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    pub name: String,
    pub line: usize,
    /// `Some(type)` when defined inside an `impl` block.
    pub owner: Option<String>,
    /// Sorted, deduplicated identifiers mentioned anywhere in the
    /// signature or body.
    pub idents: Vec<String>,
    /// Sorted, deduplicated identifiers appearing in `match` arm heads.
    pub arm_idents: Vec<String>,
    pub in_test: bool,
}

impl FnDef {
    pub fn mentions(&self, ident: &str) -> bool {
        self.idents
            .binary_search_by(|s| s.as_str().cmp(ident))
            .is_ok()
    }

    pub fn has_arm(&self, ident: &str) -> bool {
        self.arm_idents
            .binary_search_by(|s| s.as_str().cmp(ident))
            .is_ok()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplDef {
    pub ty: String,
    pub trait_name: Option<String>,
    pub line: usize,
    pub methods: Vec<String>,
    pub in_test: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstDef {
    pub name: String,
    pub line: usize,
    /// Integer value when the initializer is a single numeric literal.
    pub value: Option<i64>,
    pub in_test: bool,
}

/// The state-constructing observability hooks: the work happens *before*
/// the call (snapshot vecs, PolicyView, gate classification), so the call
/// site itself must sit under a `const ENABLED` gate (rule SMT011).
/// Identity-argument hooks such as `on_commit(thread)` are not tracked:
/// an empty inlineable method monomorphizes away with or without a gate.
pub const GATED_HOOKS: [&str; 8] = [
    "on_cycle_state",
    "on_quiescent_span",
    "on_sample",
    "on_gate",
    "on_ungate",
    "on_warn_change",
    "audit_cycle",
    "feed_cycle_probe",
];

/// A call to one of the tracked observability hooks, with the result of
/// the structural gating analysis (see [`GATED_HOOKS`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HookCall {
    pub hook: String,
    pub line: usize,
    /// True when the call is dominated by a positive `ENABLED` branch (or
    /// sits after an `if !..ENABLED { return/continue/break }` guard, or
    /// inside the body of a tracked hook itself).
    pub gated: bool,
    pub in_test: bool,
}

/// A call to `exit(..)` (e.g. `std::process::exit`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExitCall {
    pub line: usize,
    /// True when the argument list contains a bare numeric literal.
    pub has_literal: bool,
    pub in_test: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FileModel {
    pub enums: Vec<EnumDef>,
    pub fns: Vec<FnDef>,
    pub impls: Vec<ImplDef>,
    pub consts: Vec<ConstDef>,
    /// String literals as `(line, content)`, comments excluded.
    pub strings: Vec<(usize, String)>,
    pub hook_calls: Vec<HookCall>,
    pub exit_calls: Vec<ExitCall>,
}

impl FileModel {
    pub fn enum_named(&self, name: &str) -> Option<&EnumDef> {
        self.enums.iter().find(|e| e.name == name && !e.in_test)
    }

    /// All non-test fns with the given name owned by `ty` (across impls).
    pub fn methods_of<'a>(&'a self, ty: &'a str, name: &'a str) -> impl Iterator<Item = &'a FnDef> {
        self.fns
            .iter()
            .filter(move |f| !f.in_test && f.name == name && f.owner.as_deref() == Some(ty))
    }
}

/// Extract the structural model of one source file.
pub fn extract(src: &str) -> FileModel {
    let masked = mask_source(src);
    let toks = tokens::parse(&masked);
    let flags = test_region_lines(&masked);
    let mut m = FileModel {
        strings: extract_strings(src),
        ..FileModel::default()
    };
    let mut ex = Extractor {
        masked: &masked,
        flags: &flags,
        model: &mut m,
    };
    ex.walk_items(&toks, None);
    ex.walk_hooks(&toks, false);
    m
}

struct Extractor<'a> {
    masked: &'a str,
    flags: &'a [bool],
    model: &'a mut FileModel,
}

impl Extractor<'_> {
    fn line(&self, off: usize) -> usize {
        line_of(self.masked, off)
    }

    fn in_test(&self, line: usize) -> bool {
        self.flags
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Walk a token list at item level (file root, `mod`/`impl`/`trait`
    /// bodies). `owner` is the impl self-type context.
    fn walk_items(&mut self, toks: &[Tok], owner: Option<&str>) {
        let mut i = 0;
        while i < toks.len() {
            // Skip attributes: `#[...]` (outer) and `#![...]` (inner).
            if toks[i].is_punct(b'#') {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_punct(b'!')) {
                    j += 1;
                }
                if toks
                    .get(j)
                    .is_some_and(|t| t.group(Delim::Bracket).is_some())
                {
                    i = j + 1;
                    continue;
                }
            }
            let Some(kw) = toks[i].ident_text() else {
                i += 1;
                continue;
            };
            match kw {
                // Skipped whole, so `const` generics in the header are
                // not mistaken for const items.
                "struct" => i = find_body(toks, i + 1).1,
                "enum" => i = self.take_enum(toks, i),
                "fn" => i = self.take_fn(toks, i, owner),
                "impl" => i = self.take_impl(toks, i),
                "trait" => i = self.take_trait(toks, i),
                "mod" => {
                    // `mod name { ... }` — recurse in the same context.
                    let (body, next) = find_body(toks, i + 1);
                    if let Some(b) = body {
                        if let Some(inner) = toks[b].group(Delim::Brace) {
                            self.walk_items(inner, owner);
                        }
                    }
                    i = next;
                }
                "const" | "static" => i = self.take_const(toks, i),
                _ => i += 1,
            }
        }
    }

    fn take_enum(&mut self, toks: &[Tok], kw: usize) -> usize {
        let Some(name_tok) = toks.get(kw + 1) else {
            return kw + 1;
        };
        let Some(name) = name_tok.ident_text() else {
            return kw + 1;
        };
        let line = self.line(name_tok.off());
        let (body, next) = find_body(toks, kw + 2);
        let variants = match body {
            Some(b) => self.parse_variants(toks[b].group(Delim::Brace).unwrap_or(&[])),
            None => Vec::new(),
        };
        self.model.enums.push(EnumDef {
            name: name.to_string(),
            line,
            variants,
            in_test: self.in_test(line),
        });
        next
    }

    /// Parse enum variant names, skipping attributes, payloads, and
    /// explicit discriminants.
    fn parse_variants(&self, toks: &[Tok]) -> Vec<Named> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_punct(b'#') {
                i += 1;
                if toks
                    .get(i)
                    .is_some_and(|t| t.group(Delim::Bracket).is_some())
                {
                    i += 1;
                }
                continue;
            }
            if let Some(name) = toks[i].ident_text() {
                out.push(Named {
                    name: name.to_string(),
                    line: self.line(toks[i].off()),
                });
                i = skip_to_comma(toks, i + 1);
                continue;
            }
            i += 1;
        }
        out
    }

    fn take_fn(&mut self, toks: &[Tok], kw: usize, owner: Option<&str>) -> usize {
        let Some(name_tok) = toks.get(kw + 1) else {
            return kw + 1;
        };
        let Some(name) = name_tok.ident_text() else {
            // `fn(u64) -> u64` type position, not an item.
            return kw + 1;
        };
        let line = self.line(name_tok.off());
        let (body, next) = find_body(toks, kw + 2);
        let sig_end = body.unwrap_or(next);
        let mut idents: Vec<&str> = Vec::new();
        tokens::collect_idents(&toks[kw + 2..sig_end.min(toks.len())], &mut idents);
        let mut arm_idents: Vec<String> = Vec::new();
        if let Some(b) = body {
            if let Some(inner) = toks[b].group(Delim::Brace) {
                tokens::collect_idents(inner, &mut idents);
                collect_arm_idents(inner, &mut arm_idents);
            }
        }
        self.model.fns.push(FnDef {
            name: name.to_string(),
            line,
            owner: owner.map(str::to_string),
            idents: sort_dedup(idents),
            arm_idents: sort_dedup_owned(arm_idents),
            in_test: self.in_test(line),
        });
        next
    }

    fn take_impl(&mut self, toks: &[Tok], kw: usize) -> usize {
        let (body, next) = find_body(toks, kw + 1);
        let header_end = body.unwrap_or(next);
        // Depth-0 idents of the header (generic params live inside `<..>`
        // and are excluded by the same angle tracking find_body uses).
        let header = depth0_idents(&toks[kw + 1..header_end.min(toks.len())]);
        let for_pos = header.iter().position(|(t, _)| *t == "for");
        let (ty, trait_name, ty_off) = match for_pos {
            Some(p) => {
                let ty = header[p + 1..].last();
                let tr = header[..p]
                    .iter()
                    .rfind(|(t, _)| !matches!(*t, "impl" | "dyn" | "const" | "unsafe"));
                match ty {
                    Some((t, off)) => (*t, tr.map(|(n, _)| n.to_string()), *off),
                    None => return next,
                }
            }
            None => match header
                .iter()
                .rfind(|(t, _)| !matches!(*t, "impl" | "dyn" | "const" | "unsafe"))
            {
                Some((t, off)) => (*t, None, *off),
                None => return next,
            },
        };
        let line = self.line(ty_off);
        let mut methods = Vec::new();
        if let Some(b) = body {
            if let Some(inner) = toks[b].group(Delim::Brace) {
                let before = self.model.fns.len();
                self.walk_items(inner, Some(ty));
                methods = self.model.fns[before..]
                    .iter()
                    .map(|f| f.name.clone())
                    .collect();
            }
        }
        self.model.impls.push(ImplDef {
            ty: ty.to_string(),
            trait_name,
            line,
            methods,
            in_test: self.in_test(line),
        });
        next
    }

    fn take_trait(&mut self, toks: &[Tok], kw: usize) -> usize {
        if toks.get(kw + 1).and_then(|t| t.ident_text()).is_none() {
            return kw + 1;
        }
        let (body, next) = find_body(toks, kw + 2);
        if let Some(b) = body {
            if let Some(inner) = toks[b].group(Delim::Brace) {
                self.walk_items(inner, None);
            }
        }
        next
    }

    fn take_const(&mut self, toks: &[Tok], kw: usize) -> usize {
        let Some(name_tok) = toks.get(kw + 1) else {
            return kw + 1;
        };
        let Some(name) = name_tok.ident_text() else {
            return kw + 1;
        };
        // `const fn ...`, `static mut ...`: not a const item name.
        if matches!(name, "fn" | "mut" | "unsafe" | "extern") {
            return kw + 1;
        }
        let line = self.line(name_tok.off());
        // Find `=` then the value tokens up to `;`.
        let mut i = kw + 2;
        while i < toks.len() && !toks[i].is_punct(b'=') && !toks[i].is_punct(b';') {
            i += 1;
        }
        let mut value = None;
        if i < toks.len() && toks[i].is_punct(b'=') {
            let start = i + 1;
            let mut end = start;
            while end < toks.len() && !toks[end].is_punct(b';') {
                end += 1;
            }
            if end == start + 1 {
                if let Tok::Number { text, .. } = &toks[start] {
                    value = parse_int(text);
                }
            }
            i = end;
        }
        self.model.consts.push(ConstDef {
            name: name.to_string(),
            line,
            value,
            in_test: self.in_test(line),
        });
        i + 1
    }

    /// Structural `ENABLED`-gating walk over the whole file: records every
    /// call to a tracked hook (and to `exit`) with whether it is dominated
    /// by a positive `ENABLED` condition.
    fn walk_hooks(&mut self, toks: &[Tok], gated_at_entry: bool) {
        let mut gated = gated_at_entry;
        let mut i = 0;
        while i < toks.len() {
            match &toks[i] {
                Tok::Ident { text, .. } if text == "fn" => {
                    // Enter the fn body with fresh gating: a tracked hook's
                    // own body is reachable only through a gated call.
                    let name = toks.get(i + 1).and_then(|t| t.ident_text());
                    let (body, next) = find_body(toks, i + 2);
                    if let Some(b) = body {
                        let entry = name.is_some_and(|n| GATED_HOOKS.contains(&n));
                        if let Some(inner) = toks[b].group(Delim::Brace) {
                            self.walk_hooks(inner, entry);
                        }
                    }
                    i = next;
                }
                Tok::Ident { text, .. } if text == "if" => {
                    let mut j = i + 1;
                    while j < toks.len() && toks[j].group(Delim::Brace).is_none() {
                        j += 1;
                    }
                    let cond = &toks[i + 1..j.min(toks.len())];
                    let neg = cond.first().is_some_and(|t| t.is_punct(b'!'));
                    let mut cond_ids = Vec::new();
                    tokens::collect_idents(cond, &mut cond_ids);
                    let has_enabled = cond_ids.contains(&"ENABLED");
                    // Calls inside the condition itself (rare) inherit the
                    // surrounding gating.
                    self.scan_calls(cond, gated);
                    if j < toks.len() {
                        if let Some(block) = toks[j].group(Delim::Brace) {
                            let block_gated = gated || (has_enabled && !neg);
                            self.walk_hooks(block, block_gated);
                            if has_enabled && neg && block_exits(block) {
                                // `if !..ENABLED { return; }` guard: the
                                // rest of this scope is enabled-only.
                                gated = true;
                            }
                        }
                    }
                    i = j + 1;
                }
                Tok::Group { toks: inner, .. } => {
                    // Check for a hook call heading this group first.
                    self.walk_hooks(inner, gated);
                    i += 1;
                }
                Tok::Ident { text, off } => {
                    let is_call = toks
                        .get(i + 1)
                        .is_some_and(|t| t.group(Delim::Paren).is_some());
                    let after_fn_kw = i > 0 && toks[i - 1].is_ident("fn");
                    if is_call && !after_fn_kw {
                        let line = self.line(*off);
                        if GATED_HOOKS.contains(&text.as_str()) {
                            self.model.hook_calls.push(HookCall {
                                hook: text.clone(),
                                line,
                                gated,
                                in_test: self.in_test(line),
                            });
                        } else if text == "exit" {
                            let args = toks[i + 1].group(Delim::Paren).unwrap_or(&[]);
                            self.model.exit_calls.push(ExitCall {
                                line,
                                has_literal: contains_number(args),
                                in_test: self.in_test(line),
                            });
                        }
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    fn scan_calls(&mut self, toks: &[Tok], gated: bool) {
        // Conditions contain no `if`/`fn`, so the generic walk is safe.
        for t in toks {
            if let Tok::Group { toks: inner, .. } = t {
                self.walk_hooks(inner, gated);
            }
        }
    }
}

/// True when the block contains a top-level early exit.
fn block_exits(toks: &[Tok]) -> bool {
    toks.iter().any(|t| {
        matches!(t, Tok::Ident { text, .. }
            if text == "return" || text == "continue" || text == "break")
    })
}

fn contains_number(toks: &[Tok]) -> bool {
    toks.iter().any(|t| match t {
        Tok::Number { .. } => true,
        Tok::Group { toks, .. } => contains_number(toks),
        _ => false,
    })
}

/// Scan forward from `i` for the item body: the first `{..}` group or `;`
/// at angle-depth 0 (`->` arrows and generic args are skipped). Returns
/// `(body index, index after the item)`.
fn find_body(toks: &[Tok], mut i: usize) -> (Option<usize>, usize) {
    let mut angle: i32 = 0;
    while i < toks.len() {
        match &toks[i] {
            Tok::Punct { ch: b'<', .. } => angle += 1,
            Tok::Punct { ch: b'>', .. } => {
                let arrow = i > 0 && toks[i - 1].is_punct(b'-');
                if !arrow {
                    angle = (angle - 1).max(0);
                }
            }
            Tok::Punct { ch: b';', .. } if angle == 0 => return (None, i + 1),
            Tok::Group {
                delim: Delim::Brace,
                ..
            } if angle == 0 => return (Some(i), i + 1),
            _ => {}
        }
        i += 1;
    }
    (None, i)
}

/// Skip to just past the next `,` at angle-depth 0.
fn skip_to_comma(toks: &[Tok], mut i: usize) -> usize {
    let mut angle: i32 = 0;
    while i < toks.len() {
        match &toks[i] {
            Tok::Punct { ch: b'<', .. } => angle += 1,
            Tok::Punct { ch: b'>', .. } => {
                let arrow = i > 0 && toks[i - 1].is_punct(b'-');
                if !arrow {
                    angle = (angle - 1).max(0);
                }
            }
            Tok::Punct { ch: b',', .. } if angle == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Depth-0 identifiers (outside `<..>`) with their offsets.
fn depth0_idents(toks: &[Tok]) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    let mut angle: i32 = 0;
    for (i, t) in toks.iter().enumerate() {
        match t {
            Tok::Punct { ch: b'<', .. } => angle += 1,
            Tok::Punct { ch: b'>', .. } => {
                let arrow = i > 0 && toks[i - 1].is_punct(b'-');
                if !arrow {
                    angle = (angle - 1).max(0);
                }
            }
            Tok::Ident { text, off } if angle == 0 => out.push((text.as_str(), *off)),
            _ => {}
        }
    }
    out
}

/// Collect identifiers appearing in `match` arm heads (recursively).
fn collect_arm_idents(toks: &[Tok], out: &mut Vec<String>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("match") {
            let mut j = i + 1;
            while j < toks.len() && toks[j].group(Delim::Brace).is_none() {
                j += 1;
            }
            if let Some(arms) = toks.get(j).and_then(|t| t.group(Delim::Brace)) {
                extract_arms(arms, out);
                i = j + 1;
                continue;
            }
        }
        if let Tok::Group { toks: inner, .. } = &toks[i] {
            collect_arm_idents(inner, out);
        }
        i += 1;
    }
}

fn extract_arms(toks: &[Tok], out: &mut Vec<String>) {
    let mut i = 0;
    while i < toks.len() {
        // Head: tokens until the fat arrow `=>`.
        let mut head_end = None;
        let mut j = i;
        while j + 1 < toks.len() {
            if toks[j].is_punct(b'=') && toks[j + 1].is_punct(b'>') {
                // Not the `=` of `==`/`<=`/`>=`/`!=`.
                let prev_op = j > i
                    && matches!(&toks[j - 1], Tok::Punct { ch, .. }
                        if matches!(ch, b'=' | b'<' | b'>' | b'!'));
                if !prev_op {
                    head_end = Some(j);
                    break;
                }
            }
            j += 1;
        }
        let Some(he) = head_end else { break };
        let mut ids = Vec::new();
        tokens::collect_idents(&toks[i..he], &mut ids);
        out.extend(ids.into_iter().map(str::to_string));
        // Body: a brace group, or an expression up to the next depth-0 `,`.
        let mut k = he + 2;
        if let Some(t) = toks.get(k) {
            if t.group(Delim::Brace).is_some() {
                collect_arm_idents(std::slice::from_ref(&toks[k]), out);
                k += 1;
                if toks.get(k).is_some_and(|t| t.is_punct(b',')) {
                    k += 1;
                }
            } else {
                let start = k;
                while k < toks.len() && !toks[k].is_punct(b',') {
                    k += 1;
                }
                collect_arm_idents(&toks[start..k], out);
                if k < toks.len() {
                    k += 1;
                }
            }
        }
        i = k;
    }
}

fn parse_int(text: &str) -> Option<i64> {
    let t = text.replace('_', "");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        return i64::from_str_radix(&digits, 16).ok();
    }
    let digits: String = t.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn sort_dedup(mut v: Vec<&str>) -> Vec<String> {
    v.sort_unstable();
    v.dedup();
    v.into_iter().map(str::to_string).collect()
}

fn sort_dedup_owned(mut v: Vec<String>) -> Vec<String> {
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
pub struct Machine {
    pub now: u64,
    stats: Vec<(usize, u64)>,
    scratch: Box<dyn Fn(u64) -> u64>,
}

pub enum Kind {
    A,
    B(u32),
    C { x: u8 },
}

impl Machine {
    pub fn save_state(&self, out: &mut Vec<u8>) {
        put(out, self.now);
        for s in &self.stats {
            put(out, s.1);
        }
    }
    pub fn load_state(&mut self) {
        self.now = 0;
        self.stats.clear();
    }
    fn classify(&self, k: Kind) -> u32 {
        match k {
            Kind::A => 0,
            Kind::B(v) => v,
            Kind::C { x } => x as u32,
        }
    }
}

impl Default for Machine {
    fn default() -> Self { todo!() }
}

pub const LIMIT: u64 = 256;
pub const NAME: &str = "machine";

#[cfg(test)]
mod tests {
    fn helper() {}
}
"#;

    #[test]
    fn extracts_enum_variants() {
        let m = extract(SAMPLE);
        let e = m.enum_named("Kind").expect("Kind");
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn fns_carry_owner_and_trait() {
        let m = extract(SAMPLE);
        assert!(m.methods_of("Machine", "save_state").next().is_some());
        assert!(m.methods_of("Machine", "load_state").next().is_some());
    }

    #[test]
    fn match_arm_idents_are_collected() {
        let m = extract(SAMPLE);
        let classify = m
            .methods_of("Machine", "classify")
            .next()
            .expect("classify");
        assert!(classify.has_arm("A"));
        assert!(classify.has_arm("B"));
        assert!(classify.has_arm("C"));
        assert!(!classify.has_arm("save_state"));
    }

    #[test]
    fn consts_and_strings() {
        let m = extract(SAMPLE);
        let limit = m.consts.iter().find(|c| c.name == "LIMIT").unwrap();
        assert_eq!(limit.value, Some(256));
        assert!(m.strings.iter().any(|(_, s)| s == "machine"));
    }

    #[test]
    fn impl_methods_listed() {
        let m = extract(SAMPLE);
        let inherent = m
            .impls
            .iter()
            .find(|i| i.ty == "Machine" && i.trait_name.is_none())
            .unwrap();
        assert!(inherent.methods.contains(&"save_state".to_string()));
        assert!(inherent.methods.contains(&"load_state".to_string()));
        let tr = m
            .impls
            .iter()
            .find(|i| i.trait_name.as_deref() == Some("Default"))
            .unwrap();
        assert_eq!(tr.ty, "Machine");
    }

    #[test]
    fn test_region_items_flagged() {
        let m = extract(SAMPLE);
        let helper = m.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_test);
    }

    #[test]
    fn hook_gating_positive_and_guard() {
        let src = r#"
impl<P: Probe> Sim<P> {
    fn step(&mut self) {
        if P::ENABLED {
            self.probe.on_sample(1);
        }
        self.probe.on_gate(2);
        if !P::ENABLED {
            return;
        }
        self.probe.on_ungate(3);
    }
    fn audit_cycle(&mut self) {
        self.probe.on_warn_change(4);
    }
}
"#;
        let m = extract(src);
        let by_hook = |h: &str| {
            m.hook_calls
                .iter()
                .find(|c| c.hook == h)
                .unwrap_or_else(|| panic!("{h} not found"))
        };
        assert!(by_hook("on_sample").gated, "inside if ENABLED");
        assert!(!by_hook("on_gate").gated, "no gate");
        assert!(by_hook("on_ungate").gated, "after !ENABLED guard");
        assert!(by_hook("on_warn_change").gated, "inside tracked hook body");
    }

    #[test]
    fn exit_calls_flag_literals() {
        let src = r#"
fn main() {
    std::process::exit(2);
    std::process::exit(EXIT_OK);
}
"#;
        let m = extract(src);
        assert_eq!(m.exit_calls.len(), 2);
        assert!(m.exit_calls[0].has_literal);
        assert!(!m.exit_calls[1].has_literal);
    }
}
