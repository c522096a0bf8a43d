//! What the kernel says about this process: peak resident set and CPU time.
//!
//! Each (workload, repetition) is its own process, so both are per run.
//! Read from `/proc/self` just before the child exits; no libc needed.

/// `VmHWM` in MB, or 0 where `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of the whole process (all threads, exited
/// ones included), at the kernel's tick resolution. `USER_HZ` is 100 on
/// every Linux ABI.
pub fn cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the line, 11 and 12 after `)`.
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_ascii_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0)
}
