//! Process-level readings from `/proc`: CPU seconds and peak RSS.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every supported architecture.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of this process (all threads, exited ones too), s.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, i.e. 11 and 12 past `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: f64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_S
}

/// `VmHWM` — the high-water mark of the resident set, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
