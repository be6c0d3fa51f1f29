//! What the OS says about this process, read from `/proc/self`.

use std::fs;

fn status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Voluntary + involuntary context switches of the main thread. Worker
/// threads the program spawns and joins show up here as the main thread
/// blocking on them.
pub fn ctx_switches() -> Option<u64> {
    Some(status_kb("voluntary_ctxt_switches:")? + status_kb("nonvoluntary_ctxt_switches:")?)
}

/// User + system CPU seconds of the whole process, every thread it ever
/// ran included.
pub fn cpu_seconds() -> Option<f64> {
    // Linux fixes USER_HZ at 100 for every architecture it reports in
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // the command name (field 2) may hold spaces: count from its closing paren
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// The highest-numbered CPU this process may run on, from
/// `Cpus_allowed_list` (`0-1`, `0,2-5`).
pub fn last_allowed_cpu() -> Option<u32> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    line.rsplit(|c: char| !c.is_ascii_digit())
        .find(|part| !part.is_empty())?
        .parse()
        .ok()
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn proc_self_is_readable() {
        assert!(peak_rss_mb().unwrap() > 0.5);
        assert!(ctx_switches().is_some());
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(last_allowed_cpu().is_some());
    }
}
