//! First-party structured parallelism for the CCA reproduction.
//!
//! The workspace is hermetic (no rayon), so the parallel solve layer rests
//! on a deliberately small primitive: [`par_map_indexed`], a scoped,
//! fixed-size worker pool over [`std::thread::scope`] that maps a function
//! over `0..len` and returns the results **in index order**. Determinism is
//! the point: callers pair it with [`cca_rand::StreamFamily`]-style
//! per-index RNG substreams and index-ordered reductions, so the output is
//! byte-identical for any thread count — including `threads = 1`, which
//! runs inline on the calling thread with no pool at all.
//!
//! [`DeadlineGate`] is the companion cancellation primitive: a shared
//! wall-clock deadline latched through an atomic flag, checked by every
//! worker between work items, so one slow worker cannot overshoot a budget
//! by a whole batch.
//!
//! Panic semantics: a panic inside the mapped function tears down the pool
//! (the scope joins every worker) and then resumes the original panic on
//! the caller's thread — identical to the serial behavior, never a hang.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Number of hardware threads available to this process, with a floor of 1
/// (the standard query can fail on exotic platforms; 1 is always safe).
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `0..len` on a scoped pool of at most `threads` workers and
/// returns the results in index order.
///
/// * `threads <= 1` (or `len <= 1`) runs inline on the calling thread —
///   bit-for-bit the plain serial loop, no threads spawned.
/// * Workers claim indices from a shared atomic counter (work stealing), so
///   an expensive item does not serialise the rest; each worker buffers
///   `(index, value)` pairs and the results are merged by index afterwards.
///   **Completion order never leaks into the output order.**
/// * If `f` panics for any index, every worker is joined and the first
///   observed panic resumes on the caller's thread.
///
/// Determinism contract: for a pure `f`, the returned vector is identical
/// for every `threads` value. For an `f` that consults shared state (e.g. a
/// [`DeadlineGate`]), only the items it gates may differ.
pub fn par_map_indexed<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(len).max(1);
    if workers == 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for bucket in buckets {
        for (i, v) in bucket {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index in 0..len is claimed exactly once"))
        .collect()
}

/// A shared wall-clock deadline with a sticky atomic latch.
///
/// Workers call [`DeadlineGate::expired`] between work items; the first
/// observation of the deadline (or an explicit [`DeadlineGate::trip`])
/// latches the gate, so every subsequent check on every thread is a cheap
/// atomic load — and crucially, once tripped the gate **stays** tripped,
/// giving all workers a consistent stop signal.
#[derive(Debug)]
pub struct DeadlineGate {
    deadline: Option<Instant>,
    tripped: AtomicBool,
}

impl DeadlineGate {
    /// A gate over `deadline`; `None` never expires (unless tripped).
    #[must_use]
    pub fn new(deadline: Option<Instant>) -> Self {
        DeadlineGate {
            deadline,
            tripped: AtomicBool::new(false),
        }
    }

    /// The deadline this gate watches, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True once the deadline has passed or [`DeadlineGate::trip`] was
    /// called; sticky thereafter.
    #[must_use]
    pub fn expired(&self) -> bool {
        if self.tripped.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.tripped.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Latches the gate manually (e.g. first error wins, stop the rest).
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn maps_in_index_order_for_every_thread_count() {
        let want: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                par_map_indexed(threads, 97, |i| i * i),
                want,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn handles_degenerate_lengths() {
        assert_eq!(par_map_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(8, 1, |i| i + 1), vec![1]);
        assert_eq!(par_map_indexed(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = par_map_indexed(4, 1000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Early indices sleep; late indices finish first. Output order
        // must not care.
        let out = par_map_indexed(4, 8, |i| {
            if i < 2 {
                std::thread::sleep(Duration::from_millis(20));
            }
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(4, 16, |i| {
                if i == 5 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload: {msg:?}");
    }

    #[test]
    fn gate_without_deadline_never_expires_until_tripped() {
        let gate = DeadlineGate::new(None);
        assert!(!gate.expired());
        gate.trip();
        assert!(gate.expired());
        assert!(gate.expired(), "trip is sticky");
    }

    #[test]
    fn gate_latches_a_past_deadline() {
        let gate = DeadlineGate::new(Some(Instant::now()));
        assert!(gate.expired());
        assert!(gate.expired());
        let future = DeadlineGate::new(Some(Instant::now() + Duration::from_secs(3600)));
        assert!(!future.expired());
        assert!(
            future.deadline().is_some(),
            "deadline accessor reports the configured instant"
        );
    }

    #[test]
    fn available_parallelism_is_at_least_one() {
        assert!(available_parallelism() >= 1);
    }
}
