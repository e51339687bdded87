//! Shared scaffolding for smt-lint's integration tests: copy the real
//! workspace's lint inputs (sources, aux tests, docs, allowlist) into a
//! throwaway root so tests can corrupt them freely without touching the
//! checkout.

// Each integration-test binary compiles this module separately and uses
// its own subset of the helpers.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

/// Lint inputs outside the `crates/*/src` walk.
const EXTRA: [&str; 5] = [
    "lint.allow",
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    "crates/pipeline/tests/sanitizer.rs",
];

pub struct TempWorkspace {
    pub root: PathBuf,
}

impl TempWorkspace {
    /// Copy every lint input of the real workspace under a fresh temp
    /// dir. `tag` keeps concurrently running tests out of each other's
    /// trees.
    pub fn copy_current(tag: &str) -> TempWorkspace {
        let real = smt_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root above crates/lint");
        let root = std::env::temp_dir().join(format!("smt-lint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for f in smt_lint::workspace_sources(&real).expect("workspace walk") {
            copy_into(&real, &root, &f);
        }
        for e in EXTRA {
            let src = real.join(e);
            if src.is_file() {
                copy_into(&real, &root, &src);
            }
        }
        TempWorkspace { root }
    }

    /// Replace `needle` with `replacement` in `rel`. The needle must be
    /// present: a vanished needle means the mutation no longer tests what
    /// it claims to, and the test should fail loudly rather than pass.
    pub fn mutate(&self, rel: &str, needle: &str, replacement: &str) {
        let path = self.root.join(rel);
        let text = std::fs::read_to_string(&path).expect("mutation target exists");
        assert!(
            text.contains(needle),
            "{rel} no longer contains {needle:?}; update this mutation test"
        );
        std::fs::write(&path, text.replace(needle, replacement)).expect("write mutated file");
    }

    /// Append `text` to `rel`.
    pub fn append(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        let mut body = std::fs::read_to_string(&path).expect("append target exists");
        body.push_str(text);
        std::fs::write(&path, body).expect("write appended file");
    }

    /// Lint the copied tree.
    pub fn run(&self) -> smt_lint::Report {
        smt_lint::run(&self.root).expect("lint runs on the copied tree")
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn copy_into(real: &Path, root: &Path, src: &Path) {
    let rel = src.strip_prefix(real).expect("source under workspace root");
    let dst = root.join(rel);
    std::fs::create_dir_all(dst.parent().expect("non-root destination")).expect("mkdir");
    std::fs::copy(src, &dst).expect("copy lint input");
}
