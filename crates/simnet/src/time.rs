//! Virtual time: instants, durations, and bandwidth arithmetic.
//!
//! All simulated time is kept in integer nanoseconds so that results are
//! exactly reproducible across platforms (no floating-point drift in the
//! event queue). Bandwidths are bytes/second; converting a transfer size to
//! a duration rounds *up*, so a transfer never completes early.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The zero value.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Duration since an earlier instant. Panics if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier instant is in the future"),
        )
    }

    /// Duration since `earlier`, saturating at zero.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero value.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    #[inline]
    /// Value in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    /// Value in microseconds, as a float (reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[inline]
    /// Value in seconds, as a float (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    #[inline]
    /// True if this is the zero value.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    #[inline]
    /// The larger of the two values.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Scale by an integer factor (saturating).
    #[inline]
    pub fn saturating_mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }
}

/// Shorthand constructors, re-exported at the crate root.
pub mod units {
    use super::SimDuration;

    /// `n` nanoseconds.
    #[inline]
    pub const fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    /// `n` microseconds.
    #[inline]
    pub const fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    /// `n` milliseconds.
    #[inline]
    pub const fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// `n` seconds.
    #[inline]
    pub const fn secs(n: u64) -> SimDuration {
        SimDuration::from_secs(n)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow in subtraction"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{}ns", ns)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

/// A transfer rate in bytes per second.
///
/// The zero bandwidth is invalid; constructors reject it so that duration
/// computation can never divide by zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// From raw bytes/second. Panics on zero.
    #[inline]
    pub const fn bytes_per_sec(bps: u64) -> Bandwidth {
        assert!(bps > 0, "bandwidth must be positive");
        Bandwidth(bps)
    }

    /// From megabytes/second (decimal MB, matching how NIC datasheets of the
    /// era quoted application-level throughput).
    #[inline]
    pub const fn mb_per_sec(mb: u64) -> Bandwidth {
        Bandwidth::bytes_per_sec(mb * 1_000_000)
    }

    #[inline]
    /// Rate in bytes per second.
    pub fn as_bytes_per_sec(self) -> u64 {
        self.0
    }

    /// Time to move `bytes` at this rate, rounded up to whole nanoseconds.
    ///
    /// Rounding up means a simulated transfer is never faster than the
    /// physical rate allows, so measured bandwidth converges to the
    /// configured rate from below.
    #[inline]
    pub fn time_for(self, bytes: u64) -> SimDuration {
        // ns = bytes * 1e9 / rate, computed in u128 to avoid overflow for
        // multi-gigabyte transfers.
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(self.0 as u128);
        SimDuration(ns as u64)
    }

    /// Observed rate for `bytes` moved in `elapsed` (for reporting).
    pub fn observed(bytes: u64, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return f64::INFINITY;
        }
        bytes as f64 / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::units::*;
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::ZERO + us(5) + ns(250);
        assert_eq!(t.as_nanos(), 5_250);
        assert_eq!(t.since(SimTime(250)), us(5));
        assert_eq!(t - SimTime(5_000), ns(250));
    }

    #[test]
    fn duration_units() {
        assert_eq!(secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(ms(3).as_nanos(), 3_000_000);
        assert_eq!(us(7) * 3, us(21));
        assert_eq!(us(21) / 3, us(7));
        assert_eq!(us(9) - us(4), us(5));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_underflow_panics() {
        let _ = us(1) - us(2);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_future_panics() {
        let _ = SimTime(10).since(SimTime(20));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(SimTime(10).saturating_since(SimTime(20)), ns(0));
        assert_eq!(SimTime(20).saturating_since(SimTime(10)), ns(10));
    }

    #[test]
    fn bandwidth_rounds_up() {
        let bw = Bandwidth::bytes_per_sec(3);
        // 1 byte at 3 B/s = 333333333.33 ns, must round up.
        assert_eq!(bw.time_for(1).as_nanos(), 333_333_334);
        // Zero bytes take zero time.
        assert_eq!(bw.time_for(0), SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_large_transfer_no_overflow() {
        let bw = Bandwidth::mb_per_sec(110);
        let d = bw.time_for(16 << 30); // 16 GiB
        assert!(d.as_secs_f64() > 150.0 && d.as_secs_f64() < 160.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::bytes_per_sec(0);
    }

    #[test]
    fn display_is_humane() {
        assert_eq!(format!("{}", ns(17)), "17ns");
        assert_eq!(format!("{}", us(5)), "5.000us");
        assert_eq!(format!("{}", ms(2) + us(500)), "2.500ms");
        assert_eq!(format!("{}", secs(1)), "1.000s");
    }

    #[test]
    fn observed_bandwidth() {
        let r = Bandwidth::observed(1_000_000, ms(10));
        assert!((r - 100_000_000.0).abs() < 1.0);
        assert!(Bandwidth::observed(1, SimDuration::ZERO).is_infinite());
    }
}
