//! Phased closed loops: every load thread runs phase `p` until its
//! deadline, then all threads stop together so the caller can read
//! counters between phases with nothing in flight.

use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Synchronizes `threads` workers and one controller through a fixed
/// sequence of timed phases.
pub struct Gate {
    barrier: Barrier,
    durations: Vec<Duration>,
}

impl Gate {
    /// A gate for `threads` workers through phases of the given lengths.
    pub fn new(threads: usize, durations: Vec<Duration>) -> Gate {
        Gate {
            barrier: Barrier::new(threads + 1),
            durations,
        }
    }

    /// Number of phases.
    pub fn phases(&self) -> usize {
        self.durations.len()
    }

    /// Worker side: waits until phase `p` starts and returns its deadline.
    /// A worker issues no request after the deadline, then calls
    /// [`Gate::end`].
    pub fn start(&self, p: usize) -> Instant {
        self.barrier.wait();
        Instant::now() + self.durations[p]
    }

    /// Worker side: the current phase's work is done.
    pub fn end(&self) {
        self.barrier.wait();
    }

    /// Controller side: runs every phase, calling `between(p)` after phase
    /// `p` ends (all workers idle). Returns each phase's wall time, from
    /// its start until the last worker finished its last request.
    pub fn control(&self, mut between: impl FnMut(usize)) -> Vec<Duration> {
        (0..self.phases())
            .map(|p| {
                self.barrier.wait();
                let t0 = Instant::now();
                self.barrier.wait();
                let took = t0.elapsed();
                between(p);
                took
            })
            .collect()
    }
}
