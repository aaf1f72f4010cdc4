//! Readings from `/proc`: process CPU time, a child's memory high-water
//! mark, and the host's steal time.

use std::fs;
use std::io;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unreadable {what}"))
}

/// User plus system CPU seconds of a process (`"self"` or a pid), all
/// threads included, exited ones too.
pub fn cpu_seconds(pid: &str) -> io::Result<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // the command name may hold spaces; the numeric fields follow its `)`
    let rest = stat.rsplit_once(')').ok_or_else(|| bad("stat"))?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields 14 and 15 of the file (utime, stime) are 12th and 13th here
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| bad("stat times"))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_S)
}

/// Resident-set high-water mark of a process (`VmHWM`), in bytes.
pub fn vm_hwm_bytes(pid: &str) -> io::Result<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| bad("VmHWM"))?;
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("VmHWM value"))?;
    Ok(kib * 1024)
}

/// Cumulative host CPU time from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct HostTimes {
    steal: u64,
    total: u64,
}

impl HostTimes {
    /// Read the counters now.
    pub fn now() -> io::Result<HostTimes> {
        let stat = fs::read_to_string("/proc/stat")?;
        let line = stat.lines().next().ok_or_else(|| bad("/proc/stat"))?;
        let ticks: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8) // user nice system idle iowait irq softirq steal
            .map(|v| v.parse().map_err(|_| bad("/proc/stat")))
            .collect::<io::Result<_>>()?;
        if ticks.len() < 8 {
            return Err(bad("/proc/stat"));
        }
        Ok(HostTimes {
            steal: ticks[7],
            total: ticks.iter().sum(),
        })
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(&self, earlier: &HostTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
