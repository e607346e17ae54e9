//! Seed → inputs. Everything a workload feeds the program is made here
//! from `--seed`: the per-rank op scripts (order, offsets, mix), the byte
//! pattern every write carries and every read is checked against, and the
//! think time between calls. The program under test sees only the calls.
//!
//! The generator is the benchmark's own (SplitMix64), not `simnet::Rng64`,
//! so a change to the simulator's RNG cannot change the benchmark's inputs.

/// Granularity of the byte pattern and of the shadow version table: every
/// offset and length in every script is a multiple of this.
pub const UNIT: u64 = 4096;

/// Upper end of each of the two seeded shares of its own CPU a rank spends
/// around a timed call — thinking before it, then preparing it — each
/// uniform in `0..=THINK_MAX_NS`. Real ranks never issue in perfect
/// lockstep; the jitter is two to six orders of magnitude below a call's
/// latency, so it perturbs interleavings without changing load.
pub const THINK_MAX_NS: u64 = 100;

/// SplitMix64: tiny, seedable, and good enough for shuffles and offsets.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one purpose (`stream`) of one rank, so scripts of
    /// different ranks and uses never share a sequence.
    pub fn derive(seed: u64, rank: usize, stream: u64) -> SplitMix {
        let mut r = SplitMix(seed ^ mix(rank as u64 + 1) ^ mix(stream.wrapping_mul(0x9E37) + 7));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..bound` (`bound > 0`), by widening multiply.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `0..n` in a seeded order.
    pub fn permutation(&mut self, n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        self.shuffle(&mut v);
        v
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// --- the byte pattern -------------------------------------------------------

/// Version of a unit nobody has written: reads as zeros.
pub const UNWRITTEN: u32 = 0;
/// Version of a unit whose last write returned an error: its bytes are
/// unknowable, so checks skip it.
pub const UNKNOWN: u32 = u32::MAX;

fn unit_base(seed: u64, version: u32, unit: u64) -> u64 {
    seed ^ mix(unit.wrapping_add(0x51_7C_C1_B7))
        ^ (version as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// Fill `buf` (one unit or a prefix of one) with the bytes that version
/// `version` of file unit `unit` holds under `seed`.
pub fn fill_unit(buf: &mut [u8], seed: u64, version: u32, unit: u64) {
    debug_assert!(buf.len() as u64 <= UNIT && buf.len().is_multiple_of(8));
    if version == UNWRITTEN {
        buf.fill(0);
        return;
    }
    let base = unit_base(seed, version, unit);
    for (w, chunk) in buf.chunks_exact_mut(8).enumerate() {
        let z = mix(base.wrapping_add((w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        chunk.copy_from_slice(&z.to_le_bytes());
    }
}

/// Whether `buf` holds exactly version `version` of file unit `unit`.
/// [`UNKNOWN`] matches anything.
pub fn check_unit(buf: &[u8], seed: u64, version: u32, unit: u64) -> bool {
    debug_assert!(buf.len() as u64 <= UNIT && buf.len().is_multiple_of(8));
    match version {
        UNKNOWN => true,
        UNWRITTEN => buf.iter().all(|&b| b == 0),
        _ => {
            let base = unit_base(seed, version, unit);
            buf.chunks_exact(8).enumerate().all(|(w, chunk)| {
                let z = mix(base.wrapping_add((w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                chunk == z.to_le_bytes()
            })
        }
    }
}

// --- scripts ----------------------------------------------------------------

/// One MPI-IO call of a script. Offsets and lengths are bytes in the file
/// (contiguous view), multiples of [`UNIT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `MpiFile::read_at`, checked against the pattern.
    Read { off: u64, len: u64 },
    /// `MpiFile::write_at` of the next version of the units it covers.
    Write { off: u64, len: u64 },
    /// `MpiFile::get_size`, checked against the plan's file size.
    GetSize,
    /// `MpiFile::sync` as a timed call of the script (the untimed syncs
    /// before barriers are not ops).
    Sync,
    /// `read_at_all` of `blocks` etypes at etype offset `at` of the rank's
    /// interleaved view.
    ReadAll { at: u64, blocks: u64 },
    /// `write_at_all`, same addressing.
    WriteAll { at: u64, blocks: u64 },
}

impl Op {
    /// Label used in spans.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Read { .. } => "read_at",
            Op::Write { .. } => "write_at",
            Op::GetSize => "get_size",
            Op::Sync => "sync",
            Op::ReadAll { .. } => "read_at_all",
            Op::WriteAll { .. } => "write_at_all",
        }
    }

    /// Bytes the call moves (0 for metadata calls).
    pub fn bytes(&self) -> u64 {
        match *self {
            Op::Read { len, .. } | Op::Write { len, .. } => len,
            Op::ReadAll { blocks, .. } | Op::WriteAll { blocks, .. } => blocks * UNIT,
            Op::GetSize | Op::Sync => 0,
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write { .. } | Op::WriteAll { .. })
    }

    pub fn is_read(&self) -> bool {
        matches!(self, Op::Read { .. } | Op::ReadAll { .. })
    }
}

/// A barrier-delimited group of timed calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    pub name: &'static str,
    /// Its bytes and virtual span feed `sim_wr_MBps` / `sim_rd_MBps`.
    pub feeds_bw: bool,
    /// Its call latencies feed `sim_op_p50_us` / `sim_op_p99_us`.
    pub feeds_lat: bool,
    /// One script per rank.
    pub ops: Vec<Vec<Op>>,
}

/// `count` sequential requests of `req` bytes starting at `base`.
pub fn sequential(base: u64, req: u64, count: u64, write: bool) -> Vec<Op> {
    (0..count)
        .map(|i| {
            let (off, len) = (base + i * req, req);
            if write {
                Op::Write { off, len }
            } else {
                Op::Read { off, len }
            }
        })
        .collect()
}

/// The small-op mix: exactly `reads` 4 KiB reads, `writes` 4 KiB writes and
/// `sizes` `get_size` calls over the `blocks` units starting at `base`, in
/// a seeded order at seeded offsets. Exact counts keep the bytes moved the
/// same for every seed; only order and placement vary.
pub fn small_mix(
    rng: &mut SplitMix,
    base: u64,
    blocks: u64,
    reads: u64,
    writes: u64,
    sizes: u64,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity((reads + writes + sizes) as usize);
    for _ in 0..reads {
        ops.push(Op::Read {
            off: base + rng.below(blocks) * UNIT,
            len: UNIT,
        });
    }
    for _ in 0..writes {
        ops.push(Op::Write {
            off: base + rng.below(blocks) * UNIT,
            len: UNIT,
        });
    }
    ops.extend(std::iter::repeat_n(Op::GetSize, sizes as usize));
    rng.shuffle(&mut ops);
    ops
}

/// `passes` passes over the `blocks` units at `base`, each pass reading
/// every unit once in its own seeded order and ending with `sizes`
/// `get_size` calls. A seeded order keeps the hit ratio of a
/// larger-than-cache region independent of the eviction policy's bias
/// toward scans.
pub fn reread_passes(
    rng: &mut SplitMix,
    base: u64,
    blocks: u64,
    passes: u64,
    sizes: u64,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity((passes * (blocks + sizes)) as usize);
    for _ in 0..passes {
        for b in rng.permutation(blocks) {
            ops.push(Op::Read {
                off: base + b * UNIT,
                len: UNIT,
            });
        }
        ops.extend(std::iter::repeat_n(Op::GetSize, sizes as usize));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let draw = |seed| {
            let mut r = SplitMix::derive(seed, 3, 1);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let mut a = SplitMix::derive(42, 0, 1);
        let mut b = SplitMix::derive(42, 1, 1);
        let mut c = SplitMix::derive(42, 0, 2);
        let x = a.next_u64();
        assert_ne!(x, b.next_u64());
        assert_ne!(x, c.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_permutation_is_one() {
        let mut r = SplitMix::derive(9, 0, 0);
        assert!((0..10_000).all(|_| r.below(7) < 7));
        let mut p = r.permutation(257);
        assert_ne!(p, (0..257).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn pattern_round_trips_and_tells_versions_units_and_seeds_apart() {
        let mut buf = vec![0u8; UNIT as usize];
        fill_unit(&mut buf, 11, 2, 5);
        assert!(check_unit(&buf, 11, 2, 5));
        assert!(!check_unit(&buf, 11, 3, 5), "version");
        assert!(!check_unit(&buf, 11, 2, 6), "unit");
        assert!(!check_unit(&buf, 12, 2, 5), "seed");
        assert!(check_unit(&buf, 11, UNKNOWN, 5));
        assert!(!check_unit(&buf, 11, UNWRITTEN, 5));
        buf[100] ^= 1;
        assert!(!check_unit(&buf, 11, 2, 5), "one flipped bit must show");
        fill_unit(&mut buf, 11, UNWRITTEN, 5);
        assert!(buf.iter().all(|&b| b == 0) && check_unit(&buf, 11, UNWRITTEN, 5));
    }

    #[test]
    fn small_mix_has_exact_counts_in_a_seeded_order() {
        let gen = |seed| small_mix(&mut SplitMix::derive(seed, 0, 0), 1 << 20, 256, 70, 20, 10);
        let a = gen(1);
        assert_eq!(a, gen(1));
        assert_ne!(a, gen(2));
        assert_eq!(a.iter().filter(|o| o.is_read()).count(), 70);
        assert_eq!(a.iter().filter(|o| o.is_write()).count(), 20);
        assert_eq!(a.iter().filter(|o| **o == Op::GetSize).count(), 10);
        for op in &a {
            if let Op::Read { off, len } | Op::Write { off, len } = *op {
                assert!(off >= 1 << 20 && off + len <= (1 << 20) + 256 * UNIT && off % UNIT == 0);
            }
        }
    }

    #[test]
    fn reread_passes_cover_every_block_each_pass() {
        let ops = reread_passes(&mut SplitMix::derive(5, 0, 0), 0, 64, 3, 2);
        assert_eq!(ops.len(), 3 * 66);
        for pass in ops.chunks(66) {
            let mut offs: Vec<u64> = pass[..64]
                .iter()
                .map(|o| match o {
                    Op::Read { off, .. } => *off / UNIT,
                    _ => panic!("reads first"),
                })
                .collect();
            offs.sort_unstable();
            assert_eq!(offs, (0..64).collect::<Vec<_>>());
            assert_eq!(&pass[64..], &[Op::GetSize, Op::GetSize]);
        }
    }
}
