//! Facts about the process and the machine that every result carries.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by all threads of this process
/// (`/proc/self/stat`, 100 Hz ticks).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}

/// The commit under test: `KS_LEDGER_COMMIT` if set, else `git
/// rev-parse` when the working directory is a git checkout (an exported
/// tree is not, and git is not sent looking above it).
pub fn commit() -> String {
    std::env::var("KS_LEDGER_COMMIT").unwrap_or_else(|_| {
        if Path::new(".git").exists() {
            first_line("git", &["rev-parse", "--short=12", "HEAD"])
        } else {
            "unknown".to_string()
        }
    })
}

/// A per-process scratch directory under `out`, removed on drop. All
/// artifact stores a run creates live here, inside the checkout.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(out: &Path) -> std::io::Result<ScratchDir> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Non-blank lines under `crates/<name>/src`, per crate, for every
/// crate of the repository (ROADMAP aim 2's number). Empty when the
/// process does not run from the repository root.
pub fn loc_per_crate() -> Vec<(String, u64)> {
    fn count(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let p = e.path();
                if p.is_dir() {
                    count(&p)
                } else if p.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&p).map_or(0, |s| {
                        s.lines().filter(|l| !l.trim().is_empty()).count() as u64
                    })
                } else {
                    0
                }
            })
            .sum()
    }
    let Ok(entries) = std::fs::read_dir("crates") else {
        return Vec::new();
    };
    let mut out: Vec<(String, u64)> = entries
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                count(&e.path().join("src")),
            )
        })
        .collect();
    out.sort();
    out
}
