//! Low-overhead timestamps for per-step timing.
//!
//! `Instant::now()` around every simulated reference costs more than an
//! L1 hit does, so the tracer reads the CPU's time-stamp counter
//! instead and converts ticks to nanoseconds with a span measured on both
//! clocks.

use std::time::Duration;

/// Current time-stamp counter value.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn ticks() -> u64 {
    // SAFETY: RDTSC reads the time-stamp counter; it has no memory
    // effects and no preconditions on any x86-64 CPU.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Nanoseconds since the first call (hosts without a time-stamp counter).
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn ticks() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Median ticks between two back-to-back reads: the cost a timed
/// interval carries from the timer itself, subtracted per interval.
pub fn pair_ticks() -> u64 {
    let mut d: Vec<u64> = (0..4_001)
        .map(|_| {
            let a = ticks();
            ticks() - a
        })
        .collect();
    d.sort_unstable();
    d[d.len() / 2]
}

/// Tick-to-nanosecond conversion derived from one interval read on both
/// the tick counter and the monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    ns_per_tick: f64,
}

impl Calibration {
    /// Calibrates from an interval that lasted `ticks` ticks and `wall`.
    pub fn from_span(ticks: u64, wall: Duration) -> Self {
        let ns_per_tick = if ticks == 0 {
            1.0
        } else {
            wall.as_nanos() as f64 / ticks as f64
        };
        Self { ns_per_tick }
    }

    /// Converts a tick count to nanoseconds.
    pub fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn calibration_tracks_the_monotonic_clock() {
        let (t0, w0) = (ticks(), Instant::now());
        std::thread::sleep(Duration::from_millis(20));
        let (t1, wall) = (ticks(), w0.elapsed());
        let cal = Calibration::from_span(t1 - t0, wall);
        let ns = cal.ns(t1 - t0);
        assert!(
            (ns - wall.as_nanos() as f64).abs() < 1.0,
            "{ns} vs {wall:?}"
        );
        assert!(t1 > t0);
        assert!(pair_ticks() < t1 - t0);
    }
}
