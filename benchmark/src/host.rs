//! The host record stamped into every output: a timing without the
//! machine it was taken on cannot be compared with anything.

use std::fs;
use std::path::Path;
use std::process::Command;

use crate::json::{arr, num, obj, str, Json};

/// One cache level of cpu0, from sysfs.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLevel {
    /// `L1d`, `L2`, `L3`, ...
    pub label: String,
    /// Capacity in bytes.
    pub bytes: u64,
}

/// What a run needs to say about where it ran.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Data and unified caches of cpu0 (instruction caches skipped).
    pub caches: Vec<CacheLevel>,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// The checkout's commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probe the host. Nothing here can fail a run: an unreadable source
    /// reads as `unknown` / no entry.
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            caches: read_caches(Path::new("/sys/devices/system/cpu/cpu0/cache")),
            rustc: Command::new("rustc")
                .arg("-V")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".into()),
            commit: git_head(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The record as JSON.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("nproc", num(self.nproc as f64)),
            (
                "caches",
                arr(self
                    .caches
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("level", str(&c.label)),
                            ("bytes", num(c.bytes as f64)),
                        ])
                    })
                    .collect()),
            ),
            ("rustc", str(&self.rustc)),
            ("commit", str(&self.commit)),
        ])
    }

    /// `L1d 48 KiB, L2 2 MiB, ...` for the text report.
    pub fn caches_text(&self) -> String {
        if self.caches.is_empty() {
            return "unknown".into();
        }
        self.caches
            .iter()
            .map(|c| format!("{} {}", c.label, human_bytes(c.bytes)))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// `1536` -> `1.5 KiB`.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if v.fract() == 0.0 {
        format!("{v:.0} {}", UNITS[u])
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// Parse a sysfs cache size (`48K`, `2048K`, `260M`).
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

fn read_caches(dir: &Path) -> Vec<CacheLevel> {
    let read = |i: usize, f: &str| fs::read_to_string(dir.join(format!("index{i}/{f}"))).ok();
    (0..8)
        .filter_map(|i| {
            let level = read(i, "level")?.trim().to_string();
            let kind = read(i, "type")?.trim().to_string();
            let bytes = parse_size(&read(i, "size")?)?;
            let suffix = match kind.as_str() {
                "Data" => "d",
                "Unified" => "",
                _ => return None,
            };
            Some(CacheLevel {
                label: format!("L{level}{suffix}"),
                bytes,
            })
        })
        .collect()
}

/// The commit `.git/HEAD` names, read from the files directly so that no
/// `git` process walks out of the checkout looking for a repository.
fn git_head(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 when
/// `/proc/self/status` has no such line.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, write};

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("266240K"), Some(266_240 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("K"), None);
    }

    #[test]
    fn byte_counts_read_naturally() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(48 << 10), "48 KiB");
        assert_eq!(human_bytes(1536), "1.5 KiB");
        assert_eq!(human_bytes(260 << 20), "260 MiB");
    }

    #[test]
    fn probing_never_fails() {
        let h = Host::probe();
        assert!(h.nproc >= 1);
        assert!(!h.rustc.is_empty() && !h.commit.is_empty());
        assert!(peak_rss_mb() >= 0.0);
        assert!(parse(&write(&h.to_json())).is_ok());
    }
}
