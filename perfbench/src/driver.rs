//! Load driver: offers a schedule of items to a serving target on one
//! thread, either as fast as possible (closed loop) or at due times
//! (open loop), and accounts latency, lag and window conservation.
//!
//! In the open loop every completion is timed from the wall time its
//! window was *due*, not from when the driver got round to sending it,
//! so a stall shows up in the latency of everything queued behind it.
//! In the closed loop a window is timed from the call that closed it to
//! the call that returned its prediction, on the driver thread's CPU
//! clock: the program under test runs on that thread and never blocks,
//! so time the core was taken away (hypervisor, other processes) is not
//! charged to it.
//! Between due times the driver sleeps, then yields the core until the
//! due time, so it never keeps a core from a runnable program thread.

use std::time::{Duration, Instant};

/// The outcome of one closed window, as seen by the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// When the window was due: the `due_s` the item whose data closed
    /// it was offered with (ignored for failures).
    pub due_s: f64,
    /// `false` when the window was lost (shed, refused, undelivered).
    pub ok: bool,
}

/// A serving system under load. Items are indices into the driver's
/// schedule; the target owns the data behind them.
pub trait Target {
    /// Offers scheduled item `item`, due at `due_s` on the driver's
    /// clock, appending any completions the call returned.
    fn offer(&mut self, item: usize, due_s: f64, out: &mut Vec<Completion>);
    /// The driver is caught up with the schedule: make progress on
    /// pending work and collect completions.
    fn idle(&mut self, out: &mut Vec<Completion>);
    /// No more items: drain everything in flight.
    fn finish(&mut self, out: &mut Vec<Completion>);
}

/// What one open-loop run measured.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopRun {
    /// Latency of every completion, ms (`+∞` for failures).
    pub latency_ms: Vec<f64>,
    /// How late each item was offered relative to its due time, ms.
    pub lag_ms: Vec<f64>,
    /// Items offered.
    pub offered: usize,
}

/// Offers items `0..due_s.len()` at `t0 + due_s[i]` and times each
/// completion from its window's due time to the return of the call
/// that delivered it.
///
/// The loop offers every item that is due, then calls
/// [`Target::idle`], then sleeps until the next due time.
pub fn run_open_loop<T: Target>(target: &mut T, due_s: &[f64]) -> OpenLoopRun {
    let mut run = OpenLoopRun::default();
    let mut out = Vec::new();
    let t0 = Instant::now();
    let clock = || t0.elapsed().as_secs_f64();
    let mut i = 0;
    while i < due_s.len() {
        let now = clock();
        if due_s[i] > now {
            target.idle(&mut out);
            record(&mut out, clock(), &mut run.latency_ms);
            wait_until(t0, due_s[i]);
            continue;
        }
        run.lag_ms.push((now - due_s[i]) * 1e3);
        target.offer(i, due_s[i], &mut out);
        record(&mut out, clock(), &mut run.latency_ms);
        run.offered += 1;
        i += 1;
    }
    target.finish(&mut out);
    record(&mut out, clock(), &mut run.latency_ms);
    run
}

/// Times the completions a call returned at `now` (same clock as their
/// `due_s`), in ms; failures are `+∞`.
fn record(out: &mut Vec<Completion>, now: f64, latency_ms: &mut Vec<f64>) {
    latency_ms.extend(out.drain(..).map(|c| {
        if c.ok {
            (now - c.due_s) * 1e3
        } else {
            f64::INFINITY
        }
    }));
}

/// Timer wake-ups overshoot by up to milliseconds under load, which
/// would be charged to the program as latency. Waits longer than this
/// sleep until this much before the due time.
const SLEEP_MARGIN_S: f64 = 0.002;

/// Waits until `t0 + due_s`: sleeps for all but the last
/// [`SLEEP_MARGIN_S`], then yields the core in a loop, so any runnable
/// thread of the program gets it first.
fn wait_until(t0: Instant, due_s: f64) {
    let left = due_s - t0.elapsed().as_secs_f64();
    if left > SLEEP_MARGIN_S {
        std::thread::sleep(Duration::from_secs_f64(left - SLEEP_MARGIN_S));
    }
    while t0.elapsed().as_secs_f64() < due_s {
        std::thread::yield_now();
    }
}

/// What one closed-loop pass measured.
#[derive(Debug, Clone, Default)]
pub struct ClosedLoopRun {
    /// Windows that became predictions.
    pub emitted: usize,
    /// Per completion: thread CPU ms from the call that closed its
    /// window to the call that returned it (`+∞` for failures).
    pub latency_ms: Vec<f64>,
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of the whole process.
    pub cpu_s: f64,
}

/// Offers items `range` back to back (closed loop), then drains.
pub fn run_closed_loop<T: Target>(target: &mut T, range: std::ops::Range<usize>) -> ClosedLoopRun {
    let mut run = ClosedLoopRun::default();
    let mut out = Vec::new();
    let sw = crate::sys::Stopwatch::start();
    for i in range {
        target.offer(i, crate::sys::thread_cpu_s(), &mut out);
        record(&mut out, crate::sys::thread_cpu_s(), &mut run.latency_ms);
    }
    target.finish(&mut out);
    record(&mut out, crate::sys::thread_cpu_s(), &mut run.latency_ms);
    run.emitted = run.latency_ms.iter().filter(|l| l.is_finite()).count();
    run.wall_s = sw.wall_s();
    run.cpu_s = sw.cpu_s();
    run
}

/// Per-session window accounting for the conservation check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTally {
    /// Windows the stream closed.
    pub closed: u64,
    /// Windows that became predictions.
    pub emitted: u64,
    /// Windows lost to the client: shed, refused or undelivered.
    pub failed: u64,
}

/// Checks that every closed window is accounted for:
///
/// `closed = emitted + suppressed + failed + ring-fill`, where ring-fill
/// is the first `history_len − 1` windows after a session starts (and
/// after each reset, which only a suppression can cause).
///
/// Per-session suppression counts are not observable from outside the
/// engine, so the check is exact per session up to the start-up
/// ring-fill, and the remainder must be explained by the
/// `suppressed` total: with no suppressions it must be zero, and each
/// suppression explains at most itself plus one refill.
pub fn check_conservation(
    tallies: &[WindowTally],
    suppressed: u64,
    history_len: usize,
) -> Result<(), String> {
    let fill = history_len.saturating_sub(1) as u64;
    let mut extra = 0u64;
    for (s, t) in tallies.iter().enumerate() {
        let accounted = t.emitted + t.failed;
        if accounted > t.closed {
            return Err(format!(
                "session {s}: {} emitted + {} failed exceed {} closed windows",
                t.emitted, t.failed, t.closed
            ));
        }
        let residual = t.closed - accounted;
        let startup = t.closed.min(fill);
        if residual < startup {
            return Err(format!(
                "session {s}: {residual} unaccounted windows, fewer than the {startup} ring-fill windows"
            ));
        }
        extra += residual - startup;
    }
    let max_extra = suppressed * (fill + 1);
    if extra < suppressed || extra > max_extra {
        return Err(format!(
            "{extra} windows beyond start-up ring-fill, but {suppressed} suppressions explain \
             between {suppressed} and {max_extra}"
        ));
    }
    Ok(())
}

/// The client's view of a session's window boundaries: a window closes
/// when a reading at or past its end arrives (the public
/// `SessionWindow::push` contract), tracked with the same
/// floating-point steps. Windows are `[k·frame, (k+1)·frame)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowClock {
    start: f64,
    /// Windows closed so far.
    pub closed: u64,
}

impl WindowClock {
    /// Advances past a reading at `t`, calling `on_close(window_end)`
    /// for every window it closes.
    pub fn advance(&mut self, t: f64, frame_s: f64, mut on_close: impl FnMut(f64)) {
        while t >= self.start + frame_s {
            on_close(self.start + frame_s);
            self.start += frame_s;
            self.closed += 1;
        }
    }
}

/// Checks one emitted probability vector: finite and summing to 1.
pub fn probabilities_ok(p: &[f32]) -> bool {
    !p.is_empty()
        && p.iter().all(|v| v.is_finite() && *v >= 0.0)
        && (p.iter().map(|&v| v as f64).sum::<f64>() - 1.0).abs() <= 1e-4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tail;

    /// Completes each item's window on the spot, except that one item
    /// stalls the target for `stall`.
    struct StallTarget {
        item_due_s: Vec<f64>,
        stall_at: usize,
        stall: Duration,
    }

    impl Target for StallTarget {
        fn offer(&mut self, item: usize, _: f64, out: &mut Vec<Completion>) {
            if item == self.stall_at {
                std::thread::sleep(self.stall);
            }
            out.push(Completion {
                due_s: self.item_due_s[item],
                ok: true,
            });
        }
        fn idle(&mut self, _: &mut Vec<Completion>) {}
        fn finish(&mut self, _: &mut Vec<Completion>) {}
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // 1500 items 1 ms apart; item 300 stalls for 50 ms. Items due
        // during the stall are offered late, and their latency must
        // show it even though the target answers them instantly.
        let n = 1500;
        let due: Vec<f64> = (0..n).map(|i| i as f64 * 1e-3).collect();
        let mut t = StallTarget {
            item_due_s: due.clone(),
            stall_at: 300,
            stall: Duration::from_millis(50),
        };
        let run = run_open_loop(&mut t, &due);
        assert_eq!(run.offered, n);
        let lat = Tail::of(&run.latency_ms).unwrap();
        let lag = Tail::of(&run.lag_ms).unwrap();
        assert!(lat.n == n && lat.q == 0.99);
        assert!(
            lat.tail >= 25.0,
            "p99 latency {} ms hides the stall",
            lat.tail
        );
        assert!(lag.tail >= 25.0, "p99 lag {} ms hides the stall", lag.tail);
        // The stalled item itself waited the full 50 ms.
        assert!(run.latency_ms.iter().cloned().fold(0.0, f64::max) >= 50.0);
        // Most items were on time: the stall is a tail, not the median.
        assert!(lat.p50 < 5.0, "median {} ms", lat.p50);
    }

    #[test]
    fn closed_loop_times_windows_from_the_closing_call() {
        // Each window completes on the next call, and every call does
        // 1 ms of CPU work; the last window is drained by `finish`.
        struct NextCall(Option<f64>);
        impl Target for NextCall {
            fn offer(&mut self, _: usize, due_s: f64, out: &mut Vec<Completion>) {
                let start = crate::sys::thread_cpu_s();
                while crate::sys::thread_cpu_s() - start < 1e-3 {
                    std::hint::spin_loop();
                }
                if let Some(due_s) = self.0.replace(due_s) {
                    out.push(Completion { due_s, ok: true });
                }
            }
            fn idle(&mut self, _: &mut Vec<Completion>) {}
            fn finish(&mut self, out: &mut Vec<Completion>) {
                if let Some(due_s) = self.0.take() {
                    out.push(Completion { due_s, ok: true });
                }
            }
        }
        let run = run_closed_loop(&mut NextCall(None), 0..5);
        assert_eq!(run.emitted, 5);
        assert!(
            run.latency_ms[..4].iter().all(|&l| l >= 2.0),
            "{:?}",
            run.latency_ms
        );
        assert!(run.latency_ms[4] >= 1.0);
        assert!(run.cpu_s >= 0.005);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        struct Lossy;
        impl Target for Lossy {
            fn offer(&mut self, item: usize, due_s: f64, out: &mut Vec<Completion>) {
                out.push(Completion {
                    due_s,
                    ok: !item.is_multiple_of(50),
                });
            }
            fn idle(&mut self, _: &mut Vec<Completion>) {}
            fn finish(&mut self, _: &mut Vec<Completion>) {}
        }
        let due = vec![0.0; 1000];
        let run = run_open_loop(&mut Lossy, &due);
        assert_eq!(
            run.latency_ms.iter().filter(|v| v.is_infinite()).count(),
            20
        );
        // 2 % failed, so p99 is a failure.
        assert!(Tail::of(&run.latency_ms).unwrap().tail.is_infinite());
    }

    #[test]
    fn conservation_balances_startup_fill_and_suppressions() {
        let h = 12;
        let clean = WindowTally {
            closed: 100,
            emitted: 89,
            failed: 0,
        };
        assert!(check_conservation(&[clean, clean], 0, h).is_ok());
        // A shed window is a failure, and still balances.
        let shed = WindowTally {
            closed: 100,
            emitted: 88,
            failed: 1,
        };
        assert!(check_conservation(&[clean, shed], 0, h).is_ok());
        // A window that vanished without a suppression does not.
        let lost = WindowTally {
            closed: 100,
            emitted: 88,
            failed: 0,
        };
        assert!(check_conservation(&[clean, lost], 0, h).is_err());
        // One stale window: itself suppressed, then a full refill.
        let stale = WindowTally {
            closed: 100,
            emitted: 77,
            failed: 0,
        };
        assert!(check_conservation(&[clean, stale], 1, h).is_ok());
        assert!(check_conservation(&[clean, stale], 0, h).is_err());
        // A suppression the windows do not reflect is an error too.
        assert!(check_conservation(&[clean, clean], 1, h).is_err());
        // More emitted than closed is impossible.
        let over = WindowTally {
            closed: 5,
            emitted: 6,
            failed: 0,
        };
        assert!(check_conservation(&[over], 0, h).is_err());
        // Short sessions never fill the ring.
        let short = WindowTally {
            closed: 5,
            emitted: 0,
            failed: 0,
        };
        assert!(check_conservation(&[short], 0, h).is_ok());
    }

    #[test]
    fn window_clock_follows_the_close_rule() {
        let mut c = WindowClock::default();
        let mut ends = Vec::new();
        c.advance(0.49, 0.5, |e| ends.push(e));
        assert_eq!(c.closed, 0);
        c.advance(0.5, 0.5, |e| ends.push(e));
        assert_eq!((c.closed, ends.clone()), (1, vec![0.5]));
        // An older reading closes nothing.
        c.advance(0.3, 0.5, |e| ends.push(e));
        c.advance(10.2, 0.5, |e| ends.push(e));
        assert_eq!(c.closed, 20);
        assert_eq!(ends.last(), Some(&10.0));
    }

    #[test]
    fn probability_check() {
        assert!(probabilities_ok(&[0.25, 0.75]));
        assert!(!probabilities_ok(&[0.25, 0.7]));
        assert!(!probabilities_ok(&[f32::NAN, 1.0]));
        assert!(!probabilities_ok(&[]));
    }
}
