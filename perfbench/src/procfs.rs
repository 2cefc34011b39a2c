//! Process accounting with the standard library only.
//!
//! CPU time comes from `/proc/<pid>/stat` (`utime` + `stime`, which cover
//! every thread the process ever ran, exited ones included) and peak RSS
//! from `VmHWM` in `/proc/<pid>/status`. Context switches are the one
//! figure `/proc` cannot give for a whole process: the
//! `*_ctxt_switches` lines of `status` count the leader thread only, so a
//! process whose worker threads come and go would read near zero. They are
//! taken from `getrusage` (this process) or `wait4` (a child, at exit)
//! instead, which the kernel accumulates across all threads.
//!
//! A child that has exited has no `/proc` entry left to read, so the
//! accounting of a run-to-completion child comes from `wait4` as a whole:
//! its CPU times, its peak RSS (`ru_maxrss`, the same high-water mark as
//! `VmHWM`) and its context switches.

use std::io;

/// Ticks per second of the `/proc/<pid>/stat` time fields. Linux fixes
/// this user-visible unit (`USER_HZ`) at 100 on every architecture it
/// exports `/proc` for.
const USER_HZ: f64 = 100.0;

/// One reading of a process's accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcSample {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Peak resident set size (`VmHWM`), KiB.
    pub peak_rss_kb: u64,
}

impl ProcSample {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Peak RSS in MB (10^6 bytes).
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_kb as f64 * 1024.0 / 1e6
    }
}

/// Read `/proc/self` (`pid = None`) or `/proc/<pid>`.
pub fn read(pid: Option<u32>) -> io::Result<ProcSample> {
    let dir = match pid {
        Some(p) => format!("/proc/{p}"),
        None => "/proc/self".to_string(),
    };
    let stat = std::fs::read_to_string(format!("{dir}/stat"))?;
    let status = std::fs::read_to_string(format!("{dir}/status"))?;
    parse(&stat, &status).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unparseable {dir}/stat or {dir}/status"),
        )
    })
}

/// Parse the text of a `stat` and a `status` file.
pub fn parse(stat: &str, status: &str) -> Option<ProcSample> {
    // The command name (field 2) is parenthesised and may itself hold
    // spaces or parentheses; the fields after the last ')' start at
    // field 3 (state), so utime (14) and stime (15) are at 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    let user = ticks(11)?;
    let sys = ticks(12)?;
    let peak_rss_kb = status.lines().find_map(|line| {
        let value = line.strip_prefix("VmHWM:")?;
        value.split_whitespace().next()?.parse().ok()
    })?;
    Some(ProcSample {
        user_s: user as f64 / USER_HZ,
        sys_s: sys as f64 / USER_HZ,
        peak_rss_kb,
    })
}

/// `(steal, total)` CPU ticks of this machine so far, from the `cpu` line
/// of `/proc/stat`. Steal is time the host ran something else while this
/// machine had work for that CPU.
pub fn cpu_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    parse_cpu_ticks(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable /proc/stat"))
}

/// Parse the aggregate `cpu` line of `/proc/stat`: user, nice, system,
/// idle, iowait, irq, softirq, steal, then guest times that `user` and
/// `nice` already include.
pub fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// The share of this machine's CPU time the host withheld between two
/// [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs,
/// the first `ru_maxrss` (KiB) and the last two `ru_nvcsw` and
/// `ru_nivcsw`.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

impl Rusage {
    fn ctx_switches(&self) -> u64 {
        (self.longs[12] + self.longs[13]) as u64
    }
}

fn seconds(tv: [i64; 2]) -> f64 {
    tv[0] as f64 + tv[1] as f64 / 1e6
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// Voluntary plus involuntary context switches of this process, all
/// threads included.
pub fn self_ctx_switches() -> io::Result<u64> {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout; getrusage writes only within it.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(usage.ctx_switches())
}

/// A reaped child's exit and its accounting over its whole life.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// It exited with status 0.
    pub success: bool,
    /// CPU times and peak RSS.
    pub proc: ProcSample,
    /// Voluntary plus involuntary context switches, all threads.
    pub ctx_switches: u64,
}

/// Wait for child `pid` to exit and reap it.
pub fn reap(pid: u32) -> io::Result<Exit> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: both out-pointers refer to live locals of the right
        // types; wait4 writes only within them.
        let r = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
        if r == pid as i32 {
            return Ok(Exit {
                success: status == 0,
                proc: ProcSample {
                    user_s: seconds(usage.utime),
                    sys_s: seconds(usage.stime),
                    peak_rss_kb: usage.longs[0] as u64,
                },
                ctx_switches: usage.ctx_switches(),
            });
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (repro (serve) x) S 1 4242 4242 0 -1 4194560 12717 0 0 0 \
                        731 289 0 0 20 0 5 0 123456 1207959552 30112 18446744073709551615";

    const STATUS: &str = "Name:\trepro\nState:\tS (sleeping)\nVmPeak:\t 1179648 kB\n\
                          VmHWM:\t  120448 kB\nVmRSS:\t  118000 kB\nThreads:\t5\n\
                          voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";

    #[test]
    fn parses_cpu_and_peak_rss_from_fixed_text() {
        let s = parse(STAT, STATUS).expect("sample parses");
        assert_eq!(s.user_s, 7.31);
        assert_eq!(s.sys_s, 2.89);
        assert_eq!(s.peak_rss_kb, 120_448);
        assert!((s.cpu_s() - 10.2).abs() < 1e-9);
        assert!((s.peak_rss_mb() - 123.338752).abs() < 1e-9);
    }

    #[test]
    fn rejects_truncated_text() {
        assert!(parse("4242 (repro) S 1 2 3", STATUS).is_none());
        assert!(parse(STAT, "Name:\trepro\n").is_none());
        assert!(parse("no parenthesis at all", STATUS).is_none());
    }

    #[test]
    fn steal_comes_from_the_aggregate_cpu_line() {
        let before = "cpu  100 0 50 800 5 0 5 40 7 0\ncpu0 50 0 25 400 2 0 2 20 0 0\n";
        let after = "cpu  200 0 60 900 5 0 5 80 9 0\ncpu0 99 0 30 450 2 0 2 40 0 0\n";
        assert_eq!(parse_cpu_ticks(before), Some((40, 1000)));
        assert_eq!(parse_cpu_ticks(after), Some((80, 1250)));
        assert_eq!(steal_share((40, 1000), (80, 1250)), 0.16);
        assert_eq!(steal_share((40, 1000), (40, 1000)), 0.0);
        assert!(parse_cpu_ticks("cpu0 1 2 3\n").is_none());
        assert!(parse_cpu_ticks("cpu  1 2 3\n").is_none());
    }

    #[test]
    #[allow(clippy::zombie_processes)] // `reap` waits for it.
    fn reaps_a_child_with_its_accounting() {
        let child = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .spawn()
            .expect("spawn sh");
        let exit = reap(child.id()).expect("reap");
        assert!(exit.success);
        assert!(exit.proc.peak_rss_kb > 0);
        assert!(exit.proc.cpu_s() > 0.0);
        assert!(exit.ctx_switches > 0);
    }

    #[test]
    fn reads_this_process() {
        let s = read(None).expect("/proc/self is readable");
        assert!(s.peak_rss_kb > 0);
        assert!(self_ctx_switches().is_ok());
        assert!(cpu_ticks().is_ok());
    }
}
