//! Deterministic parallel execution over index-pure tasks.
//!
//! The hot paths of this workspace (dataset generation, per-tag
//! pseudospectrum construction, the baseline battery) all share one
//! shape: `n` independent tasks where task `i`'s result depends only on
//! `i` and on shared read-only state — never on execution order or on
//! the other tasks. For that shape, [`parallel_map`] provides a
//! work-stealing `std::thread::scope` pool whose output is **bit-
//! identical to the serial loop** for any thread count: results are
//! placed by index, so scheduling nondeterminism can never reorder or
//! alter them.
//!
//! No external dependencies; the pool is plain `std` (scoped threads +
//! an atomic work counter), the same idiom as the gradient sharding in
//! `m2ai-nn`'s trainer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Tasks-dispatched counter, resolved once per process.
fn tasks_executed() -> &'static m2ai_obs::Counter {
    static C: std::sync::OnceLock<m2ai_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        m2ai_obs::counter(
            "m2ai_par_tasks_total",
            "index-pure tasks dispatched through parallel_map",
            &[],
        )
    })
}

/// Resolves a thread-count knob: `0` means "use the machine's available
/// parallelism", any other value is taken literally.
pub fn resolve_threads(n_threads: usize) -> usize {
    if n_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        n_threads
    }
}

/// Maps `f` over `0..n_items` on up to `n_threads` workers, returning
/// results ordered by index.
///
/// `f` must be index-pure: `f(i)` may read shared state but its result
/// must depend only on `i`. Under that contract the output is
/// bit-identical to `(0..n_items).map(f).collect()` regardless of
/// `n_threads` (0 = auto-detect, 1 = run serially on the caller's
/// thread).
///
/// Work is distributed dynamically: each worker repeatedly claims the
/// next unclaimed index from an atomic counter, so uneven task costs
/// don't idle workers.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn parallel_map<T, F>(n_items: usize, n_threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    tasks_executed().add(n_items as u64);
    let threads = resolve_threads(n_threads).min(n_items);
    if threads <= 1 {
        return (0..n_items).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_items {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = (0..n_items).map(|_| None).collect();
    for (i, v) in per_worker.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_for_any_thread_count() {
        let serial: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for threads in [0, 1, 2, 3, 8, 33] {
            let par = parallel_map(97, threads, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<usize> = parallel_map(0, 4, |i| i);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(1, 4, |i| i * 2), vec![0]);
    }

    #[test]
    fn uneven_task_costs_keep_order() {
        // Early indices sleep, late ones return instantly: results must
        // still come back in index order.
        let out = parallel_map(16, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn shared_read_only_state() {
        let table: Vec<f64> = (0..50).map(|i| i as f64 * 0.5).collect();
        let out = parallel_map(50, 3, |i| table[i] * 2.0);
        assert_eq!(out, (0..50).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_zero_uses_hardware() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        parallel_map(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
