//! Process measurements from the C library, with no file opened:
//! CPU time (which, unlike wall time, excludes time the hypervisor or
//! another process holds the core) and peak memory.

/// CPU time this process has used so far, all threads, seconds.
/// `NaN` where unavailable.
pub fn cpu_time_s() -> f64 {
    clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time the calling thread has used so far, seconds. `NaN` where
/// unavailable.
pub fn thread_cpu_s() -> f64 {
    clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

fn clock_s(clock: i32) -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` on 64-bit Linux.
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` has the layout of `struct timespec` on this
        // target and is valid for writes for the whole call.
        if unsafe { clock_gettime(clock, &mut ts) } == 0 {
            return ts.sec as f64 + ts.nsec as f64 * 1e-9;
        }
    }
    let _ = clock;
    f64::NAN
}

/// Peak resident set size of this process, MiB (the kernel's `VmHWM`).
/// `NaN` where unavailable.
pub fn peak_rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct rusage` on 64-bit Linux: two `timeval`s, then
        /// fourteen `long`s of which `ru_maxrss` (KiB) is the first.
        #[repr(C)]
        struct RUsage {
            times: [i64; 4],
            maxrss: i64,
            rest: [i64; 13],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        }
        const RUSAGE_SELF: i32 = 0;
        let mut u = RUsage {
            times: [0; 4],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `u` has the size and alignment of `struct rusage` on
        // this target and is valid for writes for the whole call.
        if unsafe { getrusage(RUSAGE_SELF, &mut u) } == 0 {
            return u.maxrss as f64 / 1024.0;
        }
    }
    f64::NAN
}

/// Wall and CPU seconds elapsed since a [`Stopwatch::start`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: std::time::Instant::now(),
            cpu_s: cpu_time_s(),
        }
    }

    /// Wall seconds so far.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds so far, all threads of the process.
    pub fn cpu_s(&self) -> f64 {
        cpu_time_s() - self.cpu_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        while sw.wall_s() < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(sw.cpu_s() > 0.005, "busy loop used {} CPU s", sw.cpu_s());
        assert!(thread_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
