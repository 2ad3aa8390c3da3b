//! Process CPU time and peak memory from `/proc`.

use std::io;

/// CPU time of process `pid`, seconds: the scheduler's nanosecond run
/// time (`/proc/<pid>/task/*/schedstat`, first field) summed over its live
/// threads. Tick-sampled `utime`/`stime` are too coarse for the few CPU
/// seconds a pass costs.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between listing and reading.
        let Ok(stat) = std::fs::read_to_string(path) else {
            continue;
        };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad schedstat"))?;
    }
    Ok(ns as f64 * 1e-9)
}

/// Host-wide CPU time stolen from this machine's virtual CPUs
/// (`/proc/stat`, `steal` column), seconds.
pub fn steal_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let line = stat
        .lines()
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty /proc/stat"))?;
    let ticks = line
        .split_whitespace()
        .nth(8)
        .and_then(|f| f.parse::<f64>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no steal column"))?;
    Ok(ticks / USER_HZ)
}

/// Kernel clock ticks per second for `/proc/stat` times (`USER_HZ`, 100
/// on every mainstream Linux target).
const USER_HZ: f64 = 100.0;

/// Peak resident set (VmHWM) of process `pid`, MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        let t0 = super::cpu_seconds(pid).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(super::cpu_seconds(pid).unwrap() > t0);
        assert!(super::peak_rss_mb(pid).unwrap() > 0.0);
    }
}
