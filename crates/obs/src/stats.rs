//! The primitive metric instruments: counters, byte meters, and sample
//! sets — the one sample type.
//!
//! Every instrument is cloneable — a clone shares state with the original,
//! so a layer can keep a cheap handle while the
//! [`Registry`](crate::Registry) retains another for snapshotting. Counters
//! and byte meters are lock-free (`AtomicU64`). Durations are plain `u64`
//! nanoseconds of *virtual* time; this crate knows nothing about the
//! simulator's time types.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone event counter.
#[derive(Clone, Default)]
pub struct Counter {
    n: Arc<AtomicU64>,
}

impl Counter {
    /// Create a new instance with default state.
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    /// Add `n` to the value.
    pub fn add(&self, n: u64) {
        self.n.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }
}

/// Counts operations and the bytes they moved.
#[derive(Clone, Default)]
pub struct ByteMeter {
    /// Operation count.
    pub ops: Counter,
    /// Byte count.
    pub bytes: Counter,
}

impl ByteMeter {
    /// Create a new instance with default state.
    pub fn new() -> ByteMeter {
        ByteMeter::default()
    }

    /// Record one sample.
    pub fn record(&self, bytes: u64) {
        self.ops.inc();
        self.bytes.add(bytes);
    }
}

/// An exact-quantile sample recorder: latencies in tables, queue depths in
/// the registry.
///
/// `SampleSet` keeps every sample (bench-scale cardinalities) and computes
/// nearest-rank quantiles over the sorted set, so a quoted p99 is an actual
/// recorded sample — never a bucket's upper bound, which can sit almost 2×
/// above the true one.
#[derive(Clone, Default)]
pub struct SampleSet {
    samples: Arc<std::sync::Mutex<Vec<u64>>>,
}

impl SampleSet {
    /// Create a new instance with default state.
    pub fn new() -> SampleSet {
        SampleSet::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.lock().push(v);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<u64>> {
        self.samples.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.lock().len() as u64
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.lock().iter().sum()
    }

    /// Arithmetic mean of recorded samples (0 if none).
    pub fn mean(&self) -> f64 {
        let s = self.lock();
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<u64>() as f64 / s.len() as f64
        }
    }

    /// The largest recorded sample (0 if none).
    pub fn max(&self) -> u64 {
        self.lock().iter().copied().max().unwrap_or(0)
    }

    /// Exact nearest-rank quantile: the smallest recorded sample `x` such
    /// that at least `ceil(q·n)` samples are `<= x` — always one of the
    /// recorded samples. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        nearest_rank(&self.sorted(), q)
    }

    /// The samples so far, ascending.
    pub(crate) fn sorted(&self) -> Vec<u64> {
        let mut s = self.lock().clone();
        s.sort_unstable();
        s
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted`; 0 when empty.
pub(crate) fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q.clamp(0.0, 1.0)).ceil() as usize;
    sorted[rank.max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_clone_shares_state() {
        let c = Counter::new();
        let c2 = c.clone();
        c2.add(7);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn byte_meter_math() {
        let m = ByteMeter::new();
        m.record(100);
        m.record(300);
        assert_eq!(m.ops.get(), 2);
        assert_eq!(m.bytes.get(), 400);
        // A clone records into the same meter.
        m.clone().record(50);
        assert_eq!((m.ops.get(), m.bytes.get()), (3, 450));
    }

    #[test]
    fn sample_set_exact_quantiles() {
        let s = SampleSet::new();
        // 1..=100 in scrambled order: p50 = 50, p99 = 99, max = 100.
        for v in (1..=100u64).rev() {
            s.record(v);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        assert_eq!(s.quantile(0.5), 50);
        assert_eq!(s.quantile(0.99), 99);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.max(), 100);
    }

    #[test]
    fn sample_set_quotes_a_recorded_sample() {
        // A tight cluster around 3000: a log2 bucket could only answer
        // 4096, its upper bound; the sample set answers a sample.
        let s = SampleSet::new();
        for v in [2900u64, 2950, 3000, 3050] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.5), 2950);
        assert_eq!(s.quantile(0.99), 3050);
    }

    #[test]
    fn sample_set_empty_and_clone_shares_state() {
        let s = SampleSet::new();
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        let s2 = s.clone();
        s2.record(7);
        assert_eq!(s.count(), 1);
    }
}
