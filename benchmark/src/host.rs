//! What every result records about the host it ran on, the process
//! counters read from `/proc`, and the CPU binding set-up timing uses.

use std::path::Path;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Logical CPUs listed in `/proc/cpuinfo`.
fn core_count(cpuinfo: &str) -> usize {
    cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count()
}

fn cpu_model(cpuinfo: &str) -> String {
    cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mountinfo`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in read("/proc/self/mountinfo").lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// The commit checked out in `root`, when it is a git work tree.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown (not a git work tree)".to_string()
    } else {
        commit.to_string()
    }
}

/// The host block as a JSON object.
pub fn block(root: &Path, scratch: &Path, jobs: usize, seed: u64) -> String {
    use crate::json::{number, object, string};
    let cpuinfo = read("/proc/cpuinfo");
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    object([
        ("cores", number(core_count(&cpuinfo) as f64)),
        ("available_parallelism", number(parallelism as f64)),
        ("cpu", string(&cpu_model(&cpuinfo))),
        ("rustc", string(&rustc_version())),
        ("kernel", string(read("/proc/sys/kernel/osrelease").trim())),
        ("scratch_fs", string(&fs_type(scratch))),
        ("smt_jobs", number(jobs as f64)),
        ("seed", number(seed as f64)),
        ("commit", string(&git_commit(root))),
    ])
}

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks (USER_HZ = 100 on Linux).
    let stat = read("/proc/self/stat");
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return f64::NAN;
    };
    let f: Vec<&str> = rest.split(' ').collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

// glibc's affinity calls; `pid` 0 is the calling thread.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU affinity mask: glibc's `cpu_set_t`, 1024 bits.
pub struct Affinity([u64; 16]);

impl Affinity {
    /// The calling thread's mask, if the kernel gives it.
    pub fn current() -> Option<Affinity> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let ok = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } == 0;
        ok.then_some(Affinity(mask))
    }

    /// The mask holding `cpu` alone.
    pub fn only(cpu: usize) -> Affinity {
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        Affinity(mask)
    }

    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Bind the calling thread to this mask; false if the kernel refused.
    pub fn apply(&self) -> bool {
        // SAFETY: `self.0` is a readable buffer of the size passed.
        unsafe { sched_setaffinity(0, size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpuinfo() {
        let info = "processor\t: 0\nmodel name\t: Test CPU @ 1GHz\nprocessor\t: 1\n";
        assert_eq!(core_count(info), 2);
        assert_eq!(cpu_model(info), "Test CPU @ 1GHz");
    }

    #[test]
    fn affinity_round_trips() {
        let original = Affinity::current().expect("affinity mask");
        let cpus = original.cpus();
        assert!(!cpus.is_empty());
        assert!(Affinity::only(cpus[0]).apply());
        assert_eq!(
            Affinity::current().expect("affinity mask").cpus(),
            [cpus[0]]
        );
        assert!(original.apply());
        assert_eq!(Affinity::current().expect("affinity mask").cpus(), cpus);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert_ne!(fs_type(Path::new(".")), "");
    }
}
