//! Host facts recorded with every result, and the process's peak memory.
//!
//! A timing means little without the machine it came from: the CPUs the
//! process may run on (affinity), the CPUs online, what the standard
//! library reports as available parallelism, the compiler, and the
//! source commit. Nothing multi-core may be read into a result whose
//! `cpus_available` is 1.

use std::process::Command;

/// The facts printed with every result.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// CPUs in this process's affinity mask (`Cpus_allowed_list`).
    pub cpus_available: usize,
    /// CPUs the kernel has online (`/sys/devices/system/cpu/online`).
    pub cpus_online: usize,
    /// `std::thread::available_parallelism`, what `nproc` prints.
    pub nproc: usize,
    /// `rustc --version` of the compiler that built this benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown`.
    pub commit: String,
}

impl HostFacts {
    /// Reads the facts of the running host.
    pub fn probe() -> HostFacts {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let affinity = status_field(&status, "Cpus_allowed_list:").unwrap_or_default();
        let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
        HostFacts {
            cpus_available: cpu_list_len(&affinity),
            cpus_online: cpu_list_len(&online),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("OHMBENCH_RUSTC").to_string(),
            commit: git_commit(),
        }
    }

    /// One JSON object with every fact.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpus_available\":{},\"cpus_online\":{},\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
            self.cpus_available,
            self.cpus_online,
            self.nproc,
            ohm_core::json::escape_json(&self.rustc),
            ohm_core::json::escape_json(&self.commit),
        )
    }
}

/// The commit checked out in the working directory; `unknown` outside a
/// git repository.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The value after `key` on its line of a `/proc/<pid>/status` document.
fn status_field(status: &str, key: &str) -> Option<String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}

/// Number of CPUs in a kernel CPU list such as `0-3,8,10-11`.
pub fn cpu_list_len(list: &str) -> usize {
    list.trim()
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|range| match range.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(range.parse::<usize>().is_ok()),
        })
        .sum()
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count_ranges_and_singles() {
        assert_eq!(cpu_list_len("0-1\n"), 2);
        assert_eq!(cpu_list_len("0"), 1);
        assert_eq!(cpu_list_len("0-3,8,10-11"), 7);
        assert_eq!(cpu_list_len(""), 0);
    }

    #[test]
    fn this_host_reports_cpus_and_memory() {
        let facts = HostFacts::probe();
        assert!(facts.nproc >= 1);
        assert!(facts.rustc.starts_with("rustc"));
        assert!(peak_rss_mb() > 0.0);
        assert!(facts.to_json().contains("\"cpus_online\""));
    }
}
