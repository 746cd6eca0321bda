//! Linux `/proc` readers: process CPU time, per-thread CPU time and the
//! resident-set high-water mark.

use std::fs::File;
use std::os::unix::fs::FileExt;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
pub const USER_HZ: u64 = 100;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Nanoseconds on CPU (the first field) from a `schedstat` file's text.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// CPU time of the whole process (every thread, live or exited), in ns.
pub fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? * (1_000_000_000 / USER_HZ))
}

/// Host-wide steal time in clock ticks (the 8th value of the `cpu` line)
/// from the text of `/proc/stat`: time the hypervisor ran something else
/// while this machine's CPUs wanted to run.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Host-wide steal time so far, in ns (0 when unavailable).
pub fn steal_ns() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .map_or(0, |t| t * (1_000_000_000 / USER_HZ))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vmhwm_kib(&status)? as f64 / 1024.0)
}

/// The calling thread's CPU clock. Opened once per thread and re-read with
/// `pread`, so a sample costs one system call.
#[derive(Debug)]
pub struct ThreadCpu {
    file: Option<File>,
}

impl ThreadCpu {
    /// Open the calling thread's `schedstat`. Must be used on the thread
    /// that opened it.
    pub fn open() -> ThreadCpu {
        ThreadCpu {
            file: File::open("/proc/thread-self/schedstat").ok(),
        }
    }

    /// Nanoseconds this thread has spent on CPU (0 when unavailable).
    pub fn now_ns(&self) -> u64 {
        let Some(f) = &self.file else { return 0 };
        let mut buf = [0u8; 96];
        match f.read_at(&mut buf, 0) {
            Ok(n) => std::str::from_utf8(&buf[..n])
                .ok()
                .and_then(parse_schedstat_ns)
                .unwrap_or(0),
            Err(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn stat_parser_skips_a_command_name_with_spaces() {
        let stat = "4242 (my (odd) cmd) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    1234 567 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1234 + 567));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) R 1"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn schedstat_parser_reads_the_runtime_field() {
        assert_eq!(parse_schedstat_ns("123456789 1000 42\n"), Some(123_456_789));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn stat_parser_reads_host_steal() {
        let stat = "cpu  1759276 0 99841 1870585 500 0 2568 80079 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(80_079));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn status_parser_reads_vmhwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(51_200));
        assert_eq!(parse_vmhwm_kib("VmRSS: 1 kB\n"), None);
    }

    fn spin(d: Duration) -> u64 {
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < d {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        x
    }

    #[test]
    fn live_readers_track_a_busy_loop() {
        let thread = ThreadCpu::open();
        let t0 = thread.now_ns();
        let p0 = process_cpu_ns().expect("/proc/self/stat");
        std::hint::black_box(spin(Duration::from_millis(300)));
        let dt = thread.now_ns() - t0;
        let dp = process_cpu_ns().expect("/proc/self/stat") - p0;
        // Busy for 300 ms of wall time: on CPU for most of it (the host may
        // preempt), and the process clock saw at least what the thread did
        // up to its 10 ms tick granularity.
        assert!(dt > 100_000_000 && dt < 400_000_000, "thread cpu {} ns", dt);
        assert!(
            dp + 20_000_000 >= dt,
            "process {} ns < thread {} ns",
            dp,
            dt
        );
        let hwm = peak_rss_mib().expect("/proc/self/status");
        assert!(hwm > 0.5, "VmHWM {} MiB", hwm);
    }
}
