//! Injected time sources.
//!
//! The workspace bans wall-clock reads outside this module's
//! [`MonotonicClock`] and the `cli`/`bench` edges (`disallowed-methods`
//! in `crates/clippy.toml`), so experiment code stays bit-for-bit
//! deterministic. Anything that wants to *measure* time — the tracer, the
//! profiler, a benchmark — receives a [`Clock`] instead of calling
//! `Instant::now()` itself:
//!
//! * [`MonotonicClock`] wraps `std::time::Instant` and is constructed once
//!   at the CLI/bench edge;
//! * [`FakeClock`] is a shared atomic counter for tests: time advances only
//!   when the test says so (or by a fixed step per read), so traces are
//!   byte-for-byte reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond time source.
///
/// Implementations must be monotone (successive reads never decrease) and
/// cheap: the tracer reads the clock twice per span.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since the clock's origin.
    fn now_ns(&self) -> u64;
}

/// The real wall clock: nanoseconds since construction, via
/// `std::time::Instant`.
///
/// This is the **only** sanctioned `Instant` read site outside the
/// `cli`/`bench` crates; everything else takes a [`Clock`].
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "MonotonicClock is the Clock seam's one wall-clock read"
        )]
        let origin = Instant::now();
        Self { origin }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // saturate rather than wrap: a process does not live 2^64 ns
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A deterministic test clock: an atomic nanosecond counter that advances
/// only via [`FakeClock::advance`] / [`FakeClock::set`], plus an optional
/// fixed `step` added after every read so consecutive events get distinct,
/// reproducible timestamps.
///
/// Clones share the same underlying counter, so a test can keep a handle
/// while the recorder owns another.
#[derive(Debug, Clone)]
pub struct FakeClock {
    now: Arc<AtomicU64>,
    step: u64,
}

impl FakeClock {
    /// A fake clock frozen at 0 (reads do not advance it).
    pub fn new() -> Self {
        Self::stepping(0)
    }

    /// A fake clock starting at 0 that self-advances by `step_ns` after
    /// every [`Clock::now_ns`] read.
    pub fn stepping(step_ns: u64) -> Self {
        Self {
            now: Arc::new(AtomicU64::new(0)),
            step: step_ns,
        }
    }

    /// Advances the clock by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }

    /// Jumps the clock to an absolute value.
    pub fn set(&self, ns: u64) {
        self.now.store(ns, Ordering::Relaxed);
    }
}

impl Default for FakeClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.now.fetch_add(self.step, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_decreases() {
        let c = MonotonicClock::new();
        let mut last = 0;
        for _ in 0..100 {
            let t = c.now_ns();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn fake_clock_advances_only_on_demand() {
        let c = FakeClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
        c.advance(250);
        assert_eq!(c.now_ns(), 250);
        c.set(7);
        assert_eq!(c.now_ns(), 7);
    }

    #[test]
    fn stepping_clock_yields_distinct_timestamps() {
        let c = FakeClock::stepping(10);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 10);
        assert_eq!(c.now_ns(), 20);
    }

    #[test]
    fn fake_clock_clones_share_the_counter() {
        let a = FakeClock::new();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now_ns(), 42);
    }
}
