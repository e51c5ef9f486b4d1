//! Deterministic timing for evaluation passes.
//!
//! [`EvaluationTimings`](crate::EvaluationTimings) are part of every
//! [`EvaluationReport`](crate::EvaluationReport), so under the default
//! [`TimingMode::Wall`] two otherwise identical runs differ in their
//! reports. [`TimingMode::Logical`] replaces wall-clock reads with a
//! monotone tick counter (1 µs per read), making the whole report —
//! timings included — bit-identical across runs and machines. The
//! determinism suite and the lint gate's `no-nondeterminism` rule both
//! lean on this: the single sanctioned `Instant::now()` call in the
//! workspace lives here, behind the `Wall` arm.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// How a [`Clock`] measures elapsed time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TimingMode {
    /// Real wall-clock time (`Instant::now`). Timings are meaningful but
    /// differ run to run.
    #[default]
    Wall,
    /// A logical tick counter: each [`Clock::now`] advances time by
    /// exactly 1 µs. Timings are reproducible bit-for-bit but measure
    /// the *number of clock reads*, not real time.
    Logical,
}

/// A timestamp captured by [`Clock::now`].
#[derive(Debug, Clone, Copy)]
pub enum ClockInstant {
    /// A wall-clock timestamp.
    Wall(Instant),
    /// A logical tick count.
    Logical(u64),
}

/// A clock that is either the real wall clock or a deterministic
/// logical counter, per [`TimingMode`].
#[derive(Debug)]
pub struct Clock {
    mode: TimingMode,
    ticks: Cell<u64>,
}

impl Clock {
    /// Builds a clock in the given mode. Logical clocks start at tick 0.
    pub fn new(mode: TimingMode) -> Self {
        Clock {
            mode,
            ticks: Cell::new(0),
        }
    }

    /// The clock's mode.
    pub fn mode(&self) -> TimingMode {
        self.mode
    }

    /// Captures the current time. In [`TimingMode::Logical`] this
    /// advances the tick counter by one.
    pub fn now(&self) -> ClockInstant {
        match self.mode {
            TimingMode::Wall => {
                // ripq-lint: allow(no-nondeterminism) -- the sole sanctioned wall-clock read; disabled entirely under TimingMode::Logical
                ClockInstant::Wall(Instant::now())
            }
            TimingMode::Logical => {
                let t = self.ticks.get();
                self.ticks.set(t + 1);
                ClockInstant::Logical(t)
            }
        }
    }

    /// Elapsed time since `start`. Logical instants yield exactly
    /// `(current tick − start tick)` microseconds, so the same sequence
    /// of [`Clock::now`] calls always produces the same durations.
    pub fn since(&self, start: ClockInstant) -> Duration {
        match start {
            ClockInstant::Wall(i) => i.elapsed(),
            ClockInstant::Logical(t) => Duration::from_micros(self.ticks.get().saturating_sub(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_is_deterministic() {
        let runs: Vec<Vec<Duration>> = (0..2)
            .map(|_| {
                let clock = Clock::new(TimingMode::Logical);
                let a = clock.now();
                let b = clock.now();
                let d1 = clock.since(b);
                let c = clock.now();
                vec![d1, clock.since(a), clock.since(c)]
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0][0], Duration::from_micros(1));
        assert_eq!(runs[0][1], Duration::from_micros(3));
        // now() post-increments: since(c) sees the counter one past c's tick.
        assert_eq!(runs[0][2], Duration::from_micros(1));
    }

    #[test]
    fn wall_clock_advances() {
        let clock = Clock::new(TimingMode::Wall);
        assert_eq!(clock.mode(), TimingMode::Wall);
        let t = clock.now();
        assert!(clock.since(t) < Duration::from_secs(60));
    }

    #[test]
    fn default_mode_is_wall() {
        assert_eq!(TimingMode::default(), TimingMode::Wall);
    }
}
