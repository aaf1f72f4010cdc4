//! The calling thread's CPU clock, for timings that must not count time a
//! thread spent descheduled: the islands' critical path
//! ([`crate::IslandTiming`]) and the generation-cost table of the bench
//! crate.

use std::time::{Duration, Instant};

/// CPU time consumed by the calling thread (`CLOCK_THREAD_CPUTIME_ID`).
/// Unlike wall elapsed, this excludes time the thread spent descheduled,
/// so work that shares fewer cores than it has threads still measures
/// only its own compute. `None` where the clock is unavailable.
#[cfg(target_os = "linux")]
pub fn thread_cpu_now() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        // libc is already linked by std; no crate dependency involved
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`-layout struct and the
    // clock id is a compile-time constant the kernel accepts.
    (unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0)
        .then(|| Duration::new(ts.tv_sec.max(0) as u64, ts.tv_nsec as u32))
}

/// CPU time consumed by the calling thread; unavailable off Linux.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_now() -> Option<Duration> {
    None
}

/// A stopwatch on the calling thread's CPU clock ([`thread_cpu_now`]),
/// falling back to wall time where that clock is unavailable. Start and
/// read it on the same thread.
#[derive(Debug, Clone, Copy)]
pub struct CpuStopwatch {
    wall: Instant,
    cpu: Option<Duration>,
}

impl CpuStopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        CpuStopwatch {
            wall: Instant::now(),
            cpu: thread_cpu_now(),
        }
    }

    /// Thread CPU time since [`CpuStopwatch::start`] when measurable, wall
    /// elapsed otherwise.
    pub fn elapsed(&self) -> Duration {
        match (self.cpu, thread_cpu_now()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => self.wall.elapsed(),
        }
    }
}
