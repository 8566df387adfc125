//! Process accounting from `/proc/self` and the provenance recorded with
//! every result set.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux architecture the benchmark targets).
const TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds this process has used, over all its threads.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the fields after it are plain.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the file, 12 and 13 after the
    // name (state is the first of them).
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// CPUs the machine has online, whatever this process's affinity.
pub fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo").map_or(0, |info| {
        info.lines()
            .filter(|line| line.starts_with("processor"))
            .count()
    })
}

/// Worker threads this process may run in parallel (`nproc`).
pub fn nproc() -> u32 {
    std::thread::available_parallelism()
        .map(|count| count.get() as u32)
        .unwrap_or(1)
}

/// The lowest-numbered CPU this process may run on.
pub fn first_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let end = list
        .find(|ch: char| !ch.is_ascii_digit())
        .unwrap_or(list.len());
    list[..end].parse().ok()
}

/// The CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |path: &Path| std::fs::read_to_string(path).ok();
    let resolve = || -> Option<String> {
        let head = read(&git.join("HEAD"))?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Some(commit) = read(&git.join(reference)) {
            return Some(commit.trim().to_string());
        }
        read(&git.join("packed-refs"))?.lines().find_map(|line| {
            let (commit, name) = line.split_once(' ')?;
            (name == reference).then(|| commit.to_string())
        })
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

/// The compiler the benchmark was built with.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}
