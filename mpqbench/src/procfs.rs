//! Readers for the process's own CPU time, peak memory and CPU set, from
//! `/proc/self`. The parsers take the file text, so tests can feed them
//! fixed samples.

use std::fs;

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`: the
/// kernel reports them in `USER_HZ`, which the Linux ABI fixes at 100.
const USER_HZ: f64 = 100.0;

/// User and system CPU time of the process, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The CPU time spent between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) from a
/// `/proc/<pid>/stat` line. The command name (field 2) is parenthesised
/// and may itself contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (the state), so field 14 is index 11.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / USER_HZ,
        sys_s: stime as f64 / USER_HZ,
    })
}

/// The `kB` value of one `Key:   123 kB` line of `/proc/<pid>/status`.
fn status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// The peak resident set size (`VmHWM`) in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status_kb(status, "VmHWM")
}

/// How many CPUs the process may run on, from `Cpus_allowed_list`
/// (e.g. `0-3,6` is five CPUs) — what `nproc` reports.
pub fn parse_cpus_allowed(status: &str) -> Option<usize> {
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut count = 0;
    for part in list.split(',') {
        count += match part.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(count)
}

/// The process's CPU times so far.
pub fn cpu_times() -> CpuTimes {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .expect("/proc/self/stat lists utime and stime")
}

/// The process's peak resident set size so far, in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    let kb = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_vm_hwm_kb(&t))
        .expect("/proc/self/status lists VmHWM");
    kb as f64 / 1024.0
}

/// The CPUs this process may use (`nproc`), if `/proc` says.
pub fn cpus_allowed() -> Option<usize> {
    parse_cpus_allowed(&fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name with spaces and a ')' inside must not shift the
        // fields: utime = 250 ticks, stime = 75 ticks.
        let line = "4242 (odd) name) R 1 4242 4242 0 -1 4194304 120 0 0 0 250 75 0 0 20 0 3 0 \
                    100 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let t = parse_stat(line).expect("parses");
        assert_eq!(t.user_s, 2.5);
        assert_eq!(t.sys_s, 0.75);
        assert_eq!(t.total_s(), 3.25);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn status_lines_give_peak_rss_and_cpu_count() {
        let status = "Name:\tmpqbench\nVmPeak:\t  900 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n\
                      Cpus_allowed:\tf\nCpus_allowed_list:\t0-3,6\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_cpus_allowed(status), Some(5));
        assert_eq!(parse_cpus_allowed("Cpus_allowed_list:\t0\n"), Some(1));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 5 kB\n"), None);
    }

    #[test]
    fn live_readers_see_this_process_work() {
        let before = cpu_times();
        let rss_before = peak_rss_mb();
        // Burn at least 0.2 s of CPU; the counters tick every 10 ms.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_secs_f64() < 0.2 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = cpu_times().since(&before);
        assert!(spent.total_s() >= 0.1, "spent {spent:?}");
        // Touch 32 MB: the high-water mark must rise past its old value
        // or already be above the touched size.
        let block = std::hint::black_box(vec![1u8; 32 << 20]);
        let rss_after = peak_rss_mb();
        assert!(
            rss_after >= rss_before.max(32.0),
            "{rss_before} -> {rss_after}"
        );
        drop(block);
        assert!(cpus_allowed().is_some_and(|n| n >= 1));
    }
}
