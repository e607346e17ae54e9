//! A small deterministic PRNG (SplitMix64) for seeded workloads and
//! randomized tests, and its counter-based twin ([`keyed`]) for draws that
//! must not depend on how many other draws came first.
//!
//! The simulator's determinism contract extends to its inputs: experiment
//! scripts and property-style tests must generate identical sequences on
//! every run and every platform. SplitMix64 is tiny, fast, passes BigCrush,
//! and — unlike an external `rand` dependency — is fully pinned in-tree.

/// SplitMix64's increment (the golden ratio in 64 bits).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijective scramble of one word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based draw ("Parallel Random Numbers: As Easy as 1, 2, 3",
/// Salmon et al., SC 2011): the words of `key`, then `index`, each folded
/// in by one SplitMix64 step. A stream named by `key` yields its
/// `index`-th value whatever any other stream drew before it.
pub fn keyed(key: &[u64], index: u64) -> u64 {
    let words = key.iter().chain([&index]);
    words.fold(0, |h, &w| mix((h ^ w).wrapping_add(GAMMA)))
}

/// `x` mapped onto `[0, bound)` (Lemire's multiply-shift; bias is
/// < 2^-64 per draw, irrelevant for workloads and tests). `bound` must be
/// nonzero.
pub fn below(x: u64, bound: u64) -> u64 {
    assert!(bound > 0, "Rng64::below(0)");
    ((x as u128 * bound as u128) >> 64) as u64
}

/// `x` as a coin flip with probability `p` of `true`.
pub fn chance(x: u64, p: f64) -> bool {
    (x as f64 / u64::MAX as f64) < p
}

/// A 64-bit SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Seed the generator.
    pub fn new(seed: u64) -> Rng64 {
        Rng64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        below(self.next_u64(), bound)
    }

    /// Uniform value in `[lo, hi)` (half-open, like `gen_range`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// One random byte.
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.byte()).collect()
    }

    /// A coin flip with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        chance(self.next_u64(), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a: Vec<u64> = {
            let mut r = Rng64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng64::new(43);
        assert_ne!(a[0], r.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng64::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    /// A keyed stream flips its coins at the asked rate, on every key: a
    /// 5 % loss over 20 000 frames of each of eight links drops 5 % ± 0.5 %.
    #[test]
    fn keyed_chance_keeps_its_rate_on_every_key() {
        for link in 0..8u64 {
            let key = [7, link, link + 1, 0];
            let hits = (0..20_000)
                .filter(|&i| chance(keyed(&key, i), 0.05))
                .count();
            assert!((900..1100).contains(&hits), "link {link}: {hits} of 20 000");
        }
    }

    #[test]
    fn known_first_value() {
        // Pin the algorithm: changing the generator would silently change
        // every seeded experiment.
        let mut r = Rng64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }
}
