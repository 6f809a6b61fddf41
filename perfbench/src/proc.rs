//! Process and host counters from the kernel.
//!
//! Every reader returns `None` when its source is missing or malformed,
//! which is what happens off Linux: the benchmark then reports the
//! dependent metric as unavailable instead of guessing.

use std::time::Duration;

/// CPU time and context switches of the whole process: every thread,
/// live or exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Voluntary plus involuntary context switches.
    pub context_switches: u64,
}

impl Usage {
    /// What was used between `self` and a later reading.
    #[must_use]
    pub fn until(self, later: Usage) -> Usage {
        Usage {
            cpu: later.cpu.saturating_sub(self.cpu),
            context_switches: later.context_switches.saturating_sub(self.context_switches),
        }
    }
}

/// Reads the process's [`Usage`] from `getrusage(RUSAGE_SELF)`. Unlike
/// the `utime`/`stime` fields of `/proc/self/stat`, which count 10 ms
/// ticks, its CPU times resolve microseconds: a pass of a few hundred
/// queries needs that.
#[must_use]
pub fn usage() -> Option<Usage> {
    let raw = rusage::self_usage()?;
    let micros = |sec: i64, usec: i64| -> Option<u64> {
        u64::try_from(sec.checked_mul(1_000_000)?.checked_add(usec)?).ok()
    };
    let cpu = micros(raw.utime.0, raw.utime.1)?.checked_add(micros(raw.stime.0, raw.stime.1)?)?;
    Some(Usage {
        cpu: Duration::from_micros(cpu),
        context_switches: u64::try_from(raw.nvcsw.checked_add(raw.nivcsw)?).ok()?,
    })
}

/// The fields of `struct rusage` the benchmark reads.
struct RawUsage {
    utime: (i64, i64),
    stime: (i64, i64),
    nvcsw: i64,
    nivcsw: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod rusage {
    use super::RawUsage;
    use std::os::raw::{c_int, c_long};

    /// `struct rusage` as 64-bit Linux lays it out: two `struct timeval`
    /// (two `long`s each), then fourteen `long` counters, of which
    /// `ru_nvcsw` and `ru_nivcsw` are the last two.
    #[repr(C)]
    struct Rusage {
        utime: [c_long; 2],
        stime: [c_long; 2],
        counters: [c_long; 14],
    }

    const RUSAGE_SELF: c_int = 0;

    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }

    pub(super) fn self_usage() -> Option<RawUsage> {
        let mut usage = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            counters: [0; 14],
        };
        // SAFETY: `usage` is a live, writable, properly aligned value
        // with the layout of the kernel's `struct rusage` on this
        // target (checked by the `cfg` above), and RUSAGE_SELF is a
        // valid `who`; getrusage writes only within that struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        (rc == 0).then(|| RawUsage {
            utime: (usage.utime[0], usage.utime[1]),
            stime: (usage.stime[0], usage.stime[1]),
            nvcsw: usage.counters[12],
            nivcsw: usage.counters[13],
        })
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod rusage {
    pub(super) fn self_usage() -> Option<super::RawUsage> {
        None
    }
}

/// Peak resident set size of the process (`VmHWM`), in bytes.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field(&status, "VmHWM:")?.checked_mul(1024)
}

/// The first number after `key` on its line of a `/proc` status file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Cumulative host CPU ticks from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCpu {
    /// Ticks stolen by the hypervisor for other guests.
    pub steal: u64,
    /// Ticks in every state (user through steal).
    pub total: u64,
}

/// Reads the host's cumulative CPU ticks.
#[must_use]
pub fn host_cpu() -> Option<HostCpu> {
    parse_host_cpu(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted inside user and nice.
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    if ticks.len() < 8 {
        return None;
    }
    Some(HostCpu {
        steal: ticks[7],
        total: ticks.iter().sum(),
    })
}

/// Percentage of host CPU time stolen between two readings.
#[must_use]
pub fn steal_pct(before: HostCpu, after: HostCpu) -> Option<f64> {
    let total = after.total.checked_sub(before.total)?;
    let steal = after.steal.checked_sub(before.steal)?;
    (total > 0).then(|| 100.0 * steal as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_by_key() {
        let status = "Name:\tbench\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(20480));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(status, "VmRSS:"), None);
    }

    #[test]
    fn host_steal_share_is_a_delta_ratio() {
        let a = parse_host_cpu("cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(
            a,
            HostCpu {
                steal: 40,
                total: 1000
            }
        );
        let b = HostCpu {
            steal: 70,
            total: 1200,
        };
        assert_eq!(steal_pct(a, b), Some(15.0));
        assert_eq!(steal_pct(a, a), None);
        assert_eq!(parse_host_cpu("cpu  1 2 3\n"), None);
    }

    #[test]
    fn usage_deltas_saturate() {
        let early = Usage {
            cpu: Duration::from_millis(5),
            context_switches: 9,
        };
        let late = Usage {
            cpu: Duration::from_millis(12),
            context_switches: 10,
        };
        assert_eq!(
            early.until(late),
            Usage {
                cpu: Duration::from_millis(7),
                context_switches: 1
            }
        );
        assert_eq!(late.until(early).cpu, Duration::ZERO);
    }

    #[test]
    fn live_readers_work_on_linux_and_are_none_elsewhere() {
        let on_linux = cfg!(all(target_os = "linux", target_pointer_width = "64"));
        assert_eq!(
            peak_rss_bytes().is_some_and(|b| b > 0),
            cfg!(target_os = "linux")
        );
        assert_eq!(host_cpu().is_some(), cfg!(target_os = "linux"));
        let Some(before) = usage() else {
            assert!(!on_linux, "getrusage must work on Linux");
            return;
        };
        // Burn a few milliseconds of CPU; the microsecond clock sees it.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let used = before.until(usage().expect("still readable"));
        assert!(used.cpu >= Duration::from_millis(1), "{used:?}");
    }
}
