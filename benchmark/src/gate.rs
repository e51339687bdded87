//! The correctness gate. Every problem a check finds adds one to `failed`
//! in the run's result; `tests/gate.rs` plants a fault for each check and
//! shows that it fires.

use std::collections::BTreeMap;

use crate::adapter::{self, Counters, MachineSnapshot};

/// Parse a digest list: one `<label> <hex digest>` pair per line.
pub fn parse_digests(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (label, hex) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed digest line {line:?}"))?;
        let digest = u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16)
            .map_err(|e| format!("digest line {line:?}: {e}"))?;
        out.insert(label.to_string(), digest);
    }
    Ok(out)
}

pub fn render_digests(digests: &BTreeMap<String, u64>) -> String {
    digests
        .iter()
        .map(|(label, d)| format!("{label} {d:#018x}\n"))
        .collect()
}

/// One problem per observed request whose digest differs from its
/// reference, or that has no reference.
pub fn digest_mismatches(
    observed: &[(String, u64)],
    reference: &BTreeMap<String, u64>,
) -> Vec<String> {
    observed
        .iter()
        .filter_map(|(label, d)| match reference.get(label) {
            Some(r) if r == d => None,
            Some(r) => Some(format!("{label}: digest {d:#018x}, reference {r:#018x}")),
            None => Some(format!("{label}: no reference digest")),
        })
        .collect()
}

/// The cold pass must start from an empty cache and simulate everything
/// it needs: nothing may come from disk.
pub fn cold_pass_problems(entries_before: usize, c: Counters) -> Vec<String> {
    let mut out = Vec::new();
    if entries_before != 0 {
        out.push(format!(
            "cold pass: cache held {entries_before} entries before it ran"
        ));
    }
    if c.sim_runs == 0 {
        out.push("cold pass: simulated nothing".to_string());
    }
    if c.disk_hits != 0 {
        out.push(format!("cold pass: {} results came from disk", c.disk_hits));
    }
    out
}

/// The warm pass must be served entirely from the cache.
pub fn warm_pass_problems(c: Counters) -> Vec<String> {
    if c.sim_runs == 0 {
        Vec::new()
    } else {
        vec![format!("warm pass: simulated {} runs", c.sim_runs)]
    }
}

/// One problem per failure the campaign recorded beyond the `errors` its
/// requests returned: failures that did not fail a request, such as an
/// interval export or cache store that could not be written.
pub fn unreported_failures(what: &str, errors: usize, recorded: usize) -> Vec<String> {
    (errors..recorded)
        .map(|i| {
            format!(
                "{what}: recorded failure {} beyond the requests' errors",
                i + 1
            )
        })
        .collect()
}

/// A `--intervals` pass must leave one interval series per request.
pub fn interval_series_problems(series: usize, requests: usize) -> Vec<String> {
    if series == requests {
        Vec::new()
    } else {
        vec![format!(
            "{series} interval series written for {requests} requests"
        )]
    }
}

/// One problem per warm report that failed, or that differs from the cold
/// pass's report of the same experiment.
pub fn warm_report_mismatches(
    cold: &[(String, String)],
    warm: &[(String, Result<String, String>)],
) -> Vec<String> {
    warm.iter()
        .filter_map(|(name, r)| {
            let cold = cold.iter().find(|(n, _)| n == name).map(|(_, b)| b);
            match (r, cold) {
                (Ok(body), Some(cold)) if body == cold => None,
                (Ok(_), _) => Some(format!("{name}: warm report differs from the cold one")),
                (Err(e), _) => Some(format!("{name} (warm): {e}")),
            }
        })
        .collect()
}

/// One problem per warm result that failed, or whose digest differs from
/// the latest cold digest recorded under its label.
pub fn warm_digest_mismatches(
    cold: &[(String, u64)],
    warm: &[(String, Result<u64, String>)],
) -> Vec<String> {
    warm.iter()
        .filter_map(|(label, r)| {
            let want = cold.iter().rev().find(|(l, _)| l == label).map(|(_, d)| d);
            match r {
                Ok(d) if Some(d) == want => None,
                Ok(_) => Some(format!("{label}: warm result differs from the cold one")),
                Err(e) => Some(format!("{label} (warm): {e}")),
            }
        })
        .collect()
}

/// A digest the layer pass computed must equal the request's reference.
pub fn digest_check(what: &str, got: u64, want: Option<u64>) -> Result<(), String> {
    match want {
        Some(w) if w == got => Ok(()),
        Some(w) => Err(format!("{what}: digest {got:#018x}, reference {w:#018x}")),
        None => Err(format!("{what}: no reference digest")),
    }
}

/// A decoded snapshot must re-encode to the bytes it was decoded from.
pub fn reencodes(snap: &MachineSnapshot, bytes: &[u8]) -> Result<(), String> {
    if adapter::encode(snap) == bytes {
        Ok(())
    } else {
        Err("snapshot does not re-encode to its own bytes".to_string())
    }
}

/// A stored entry must load back, with the digest it was stored with.
pub fn loaded_back(what: &str, loaded: Option<u64>, stored: u64) -> Result<(), String> {
    match loaded {
        Some(d) if d == stored => Ok(()),
        Some(d) => Err(format!(
            "{what} loaded back with digest {d:#018x}, stored {stored:#018x}"
        )),
        None => Err(format!("{what} did not load back")),
    }
}

/// Split a paper-all golden into its `== <experiment> ==` sections.
pub fn parse_reports(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in text.split_inclusive('\n') {
        let header = line
            .trim_end()
            .strip_prefix("== ")
            .and_then(|l| l.strip_suffix(" =="));
        if let Some(name) = header {
            if let Some((n, body)) = current.take() {
                out.insert(n, body);
            }
            current = Some((name.to_string(), String::new()));
        } else if let Some((_, body)) = current.as_mut() {
            body.push_str(line);
        }
    }
    if let Some((n, body)) = current {
        out.insert(n, body);
    }
    out
}

pub fn render_reports(reports: &[(String, String)]) -> String {
    reports
        .iter()
        .map(|(name, body)| format!("== {name} ==\n{body}\n"))
        .collect()
}

/// One problem per experiment whose report differs from the golden (or
/// has none), naming the first differing line.
pub fn report_mismatches(
    observed: &[(String, String)],
    golden: &BTreeMap<String, String>,
) -> Vec<String> {
    observed
        .iter()
        .filter_map(|(name, body)| {
            let Some(want) = golden.get(name) else {
                return Some(format!("{name}: no golden report"));
            };
            // The golden stores each body followed by one separator line.
            let want = want.strip_suffix('\n').unwrap_or(want);
            (body != want).then(|| {
                let line = body
                    .lines()
                    .zip(want.lines())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| body.lines().count().min(want.lines().count()));
                format!(
                    "{name}: report differs from the golden at line {}",
                    line + 1
                )
            })
        })
        .collect()
}

/// The `key = value` pairs of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut inside = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if let (true, Some((k, v))) = (inside, line.split_once('=')) {
            out.insert(k.trim().to_string(), v.trim().to_string());
        }
    }
    out
}

/// The benchmark's release profile must equal the repository root's, so
/// that the standalone package builds the simulator the way the
/// repository does.
pub fn profile_check(root_manifest: &str, bench_manifest: &str) -> Result<(), String> {
    let root = release_profile(root_manifest);
    let bench = release_profile(bench_manifest);
    if root.is_empty() {
        return Err("root manifest has no [profile.release]".to_string());
    }
    if root == bench {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: repository {root:?}, benchmark {bench:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("8-MEM/DWARN".to_string(), 0xdead_beef_u64);
        assert_eq!(parse_digests(&render_digests(&m)).unwrap(), m);
        assert!(parse_digests("no-digest-here").is_err());
    }

    #[test]
    fn reports_round_trip() {
        let reports = vec![
            ("fig1".to_string(), "a\nb\n".to_string()),
            ("fig2".to_string(), "c\n".to_string()),
        ];
        let golden = parse_reports(&render_reports(&reports));
        assert!(report_mismatches(&reports, &golden).is_empty());
    }

    #[test]
    fn identical_profiles_pass() {
        let root = "[package]\nname = \"x\"\n[profile.release]\n# why\nlto = true\ndebug = true\n";
        let bench = "[profile.release]\ndebug = true\nlto = true # same\n[workspace]\n";
        assert!(profile_check(root, bench).is_ok());
    }
}
