//! Whole-process CPU time and peak resident set, read from `/proc/self`.

/// Kernel clock ticks per second (`USER_HZ`): 100 on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of the whole process, all threads, living
/// and ended. `None` where `/proc` is absent.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|t| t as f64 / TICKS_PER_SECOND)
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state): utime is the 12th from there.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of the process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (dc bench) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    123 45 0 0 20 0 7 0 1000 100000 2000";
        assert_eq!(parse_cpu_ticks(stat), Some(168));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_the_other_lines() {
        let status = "Name:\tdcbench\nVmPeak:\t  900 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51_200));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_both() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
