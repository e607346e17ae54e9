//! The seven workloads: for each, the testbed it runs on and the plan —
//! hints, prefill and barrier-delimited phases of per-rank scripts — that
//! `--seed` expands to. Shapes and sizes are frozen here; README.md gives
//! the reason each workload exists and which layers it loads.
//!
//! Only the user-facing API appears: `Testbed::{new, switched,
//! with_faults}`, `Backend`, `FaultPlan`. What a rank does with its plan is
//! in `exec.rs`.

use mpiio::{Backend, Testbed};
use simnet::FaultPlan;

use crate::script::{reread_passes, sequential, small_mix, Op, Phase, SplitMix, UNIT};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// Request size of the streaming and incast workloads.
const BIG_REQ: u64 = 128 * KIB;
/// Stripe unit asked for on the striped backends (so the benchmark can
/// map a file offset to its server when it checks the stored image).
pub const STRIPE_UNIT: u64 = 64 * KIB;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamLarge,
    SmallopMix,
    CollInterleaved,
    RereadCached,
    FabricIncast,
    NfsBaseline,
    LossyReplay,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::StreamLarge,
        Workload::SmallopMix,
        Workload::CollInterleaved,
        Workload::RereadCached,
        Workload::FabricIncast,
        Workload::NfsBaseline,
        Workload::LossyReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamLarge => "stream_large",
            Workload::SmallopMix => "smallop_mix",
            Workload::CollInterleaved => "coll_interleaved",
            Workload::RereadCached => "reread_cached",
            Workload::FabricIncast => "fabric_incast",
            Workload::NfsBaseline => "nfs_baseline",
            Workload::LossyReplay => "lossy_replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one-line reason, as `BENCHMARK.json` records it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::StreamLarge => "128 KiB independent writes then reads on DAFS: the direct RDMA path, payload-bound host time; kernel handoff, cache, collective and fabric do little",
            Workload::SmallopMix => "70/20/10 mix of 4 KiB reads, writes and get_size on DAFS, cache off: the inline path, handoff-bound host time, one server CPU serialises four ranks",
            Workload::CollInterleaved => "4 KiB-interleaved collective writes and reads over two striped servers: the only load on view flattening, two-phase exchange, pipelining, list I/O and striping",
            Workload::RereadCached => "re-reads with dafs_cache on, over a region that fits the page cache and one twice its size, then a writer recalling the readers: the only load on lease, page and attr cache",
            Workload::FabricIncast => "128 ranks behind a switch with a 4:1 trunk reading 128 KiB blocks: the only load on simnet::topo, and the only one with over 100 actors and 500 sessions",
            Workload::NfsBaseline => "the streaming and small-op scripts at quarter size on NFS over TCP: the paper's comparison column, which a DAFS-side change must not move",
            Workload::LossyReplay => "32 KiB writes and reads on DAFS under 1 % seeded frame loss: puts reconnect, replay, inline fallback and ADIO retries on the measured path and gives the failure count teeth",
        }
    }
}

/// Full size, or about a tenth of it for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::Full, Scale::Smoke]
            .into_iter()
            .find(|s| s.name() == name)
    }

    /// `full` at full scale, a tenth (at least `floor`) at smoke scale.
    fn of(self, full: u64, floor: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 10).max(floor),
        }
    }
}

/// Everything a run of one workload is made of, expanded from a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub ranks: usize,
    /// Hints the timed handle is opened with.
    pub hints: Vec<(&'static str, String)>,
    /// Rank `r` sees every `ranks`-th 4 KiB block, starting at block `r`
    /// (the collective workload); otherwise the view is contiguous bytes.
    pub interleaved: bool,
    /// Servers the file is striped over in [`STRIPE_UNIT`] blocks (1 = not
    /// striped).
    pub servers: usize,
    /// Untimed writes before the start barrier, one script per rank,
    /// issued through a handle opened with default hints.
    pub prefill: Vec<Vec<Op>>,
    pub phases: Vec<Phase>,
    /// File size once prefill and all phases are done; also what
    /// `get_size` must return wherever a script calls it.
    pub file_bytes: u64,
}

impl Plan {
    /// Largest transfer of any op, for sizing the rank's buffers.
    pub fn max_op_bytes(&self) -> u64 {
        self.prefill
            .iter()
            .chain(self.phases.iter().flat_map(|p| p.ops.iter()))
            .flatten()
            .map(Op::bytes)
            .max()
            .unwrap_or(0)
            .max(UNIT)
    }

    /// Timed calls in the whole plan.
    pub fn timed_calls(&self) -> usize {
        self.phases
            .iter()
            .flat_map(|p| p.ops.iter())
            .map(Vec::len)
            .sum()
    }
}

/// Build the testbed a workload runs on. Only `lossy_replay` uses the
/// seed: its fault timeline is an input like any other.
pub fn testbed(w: Workload, seed: u64) -> Testbed {
    match w {
        Workload::StreamLarge | Workload::SmallopMix | Workload::RereadCached => {
            Testbed::new(Backend::dafs())
        }
        Workload::CollInterleaved => Testbed::new(Backend::dafs_striped(COLL_SERVERS)),
        Workload::FabricIncast => Testbed::switched(INCAST_RANKS, INCAST_SERVERS, 4),
        Workload::NfsBaseline => Testbed::new(Backend::nfs()),
        Workload::LossyReplay => Testbed::with_faults(
            Backend::dafs(),
            FaultPlan::builder(SplitMix::derive(seed, 0, STREAM_FAULTS).next_u64())
                .loss(0.01)
                .build(),
        ),
    }
}

const COLL_SERVERS: usize = 2;
const INCAST_RANKS: usize = 128;
const INCAST_SERVERS: usize = 4;

// RNG stream ids: one per use, so adding a use never shifts another.
const STREAM_SCRIPT: u64 = 1;
const STREAM_FAULTS: u64 = 2;
const STREAM_SHARED: u64 = 3;

fn per_rank(ranks: usize, mut f: impl FnMut(usize) -> Vec<Op>) -> Vec<Vec<Op>> {
    (0..ranks).map(&mut f).collect()
}

fn phase(name: &'static str, ops: Vec<Vec<Op>>) -> Phase {
    Phase {
        name,
        feeds_bw: true,
        feeds_lat: true,
        ops,
    }
}

/// Expand `seed` into the plan of workload `w`.
pub fn plan(w: Workload, seed: u64, scale: Scale) -> Plan {
    let script_rng = |rank: usize| SplitMix::derive(seed, rank, STREAM_SCRIPT);
    let base = Plan {
        ranks: 4,
        hints: Vec::new(),
        interleaved: false,
        servers: 1,
        prefill: Vec::new(),
        phases: Vec::new(),
        file_bytes: 0,
    };
    match w {
        Workload::StreamLarge => {
            // 48 MiB per rank in 128 KiB requests: 384 writes, 384 reads.
            let count = scale.of(384, 32);
            let region = count * BIG_REQ;
            Plan {
                phases: vec![
                    phase(
                        "write",
                        per_rank(4, |r| sequential(r as u64 * region, BIG_REQ, count, true)),
                    ),
                    phase(
                        "read",
                        per_rank(4, |r| sequential(r as u64 * region, BIG_REQ, count, false)),
                    ),
                ],
                file_bytes: 4 * region,
                ..base
            }
        }
        Workload::SmallopMix => {
            // 7 500 calls per rank over the rank's own 1 MiB.
            let n = scale.of(7_500, 300);
            Plan {
                prefill: per_rank(4, |r| {
                    sequential(r as u64 * MIB, BIG_REQ, MIB / BIG_REQ, true)
                }),
                phases: vec![phase(
                    "mix",
                    per_rank(4, |r| {
                        small_mix(
                            &mut script_rng(r),
                            r as u64 * MIB,
                            MIB / UNIT,
                            n * 7 / 10,
                            n * 2 / 10,
                            n / 10,
                        )
                    }),
                )],
                file_bytes: 4 * MIB,
                ..base
            }
        }
        Workload::CollInterleaved => {
            // 64 collective writes then 64 collective reads per rank, each
            // 64 blocks (256 KiB) of the rank's view, so one call moves
            // 2 MiB across 8 ranks; slots are visited in one seeded order
            // shared by all ranks. A 64 KiB collective buffer makes each
            // aggregator sweep its 256 KiB file domain in four windows.
            let ranks = 8usize;
            let calls = scale.of(64, 8);
            let blocks = 64u64;
            let order = SplitMix::derive(seed, 0, STREAM_SHARED).permutation(calls);
            let script = |write: bool| -> Vec<Op> {
                order
                    .iter()
                    .map(|slot| {
                        let at = slot * blocks;
                        if write {
                            Op::WriteAll { at, blocks }
                        } else {
                            Op::ReadAll { at, blocks }
                        }
                    })
                    .collect()
            };
            Plan {
                ranks,
                hints: vec![
                    ("cb_buffer_size", (64 * KIB).to_string()),
                    ("striping_unit", STRIPE_UNIT.to_string()),
                ],
                interleaved: true,
                servers: COLL_SERVERS,
                phases: vec![
                    phase("write_all", per_rank(ranks, |_| script(true))),
                    phase("read_all", per_rank(ranks, |_| script(false))),
                ],
                file_bytes: calls * blocks * UNIT * ranks as u64,
                ..base
            }
        }
        Workload::RereadCached => {
            // Per rank a 1 MiB region (fits the 4 MiB page cache) and an
            // 8 MiB region (twice the cache). The big half gets two passes,
            // not eight: every miss is a wire read, and eight passes would
            // run for over ten seconds.
            let small = scale.of(1024, 128) * KIB;
            let big = scale.of(8, 1) * MIB;
            let big_base = 4 * small;
            let (fit_passes, big_passes) = (scale.of(8, 2), 2);
            let small_at = |r: usize| r as u64 * small;
            let big_at = |r: usize| big_base + r as u64 * big;
            let mut rngs: Vec<SplitMix> = (0..4).map(script_rng).collect();
            let fit = per_rank(4, |r| {
                reread_passes(&mut rngs[r], small_at(r), small / UNIT, fit_passes, 8)
            });
            let large = per_rank(4, |r| {
                reread_passes(&mut rngs[r], big_at(r), big / UNIT, big_passes, 8)
            });
            // Rank 0 overwrites every fourth page of its small region and
            // syncs while ranks 1-3 are still re-reading theirs.
            let recall = per_rank(4, |r| {
                if r == 0 {
                    let mut ops: Vec<Op> = (0..small / UNIT)
                        .step_by(4)
                        .map(|b| Op::Write {
                            off: small_at(0) + b * UNIT,
                            len: UNIT,
                        })
                        .collect();
                    ops.push(Op::Sync);
                    ops
                } else {
                    reread_passes(&mut rngs[r], small_at(r), small / UNIT, 2, 8)
                }
            });
            let reread = per_rank(4, |r| {
                reread_passes(&mut rngs[r], small_at(r), small / UNIT, 1, 8)
            });
            Plan {
                hints: vec![("dafs_cache", "enable".to_string())],
                prefill: per_rank(4, |r| {
                    let mut ops = sequential(small_at(r), BIG_REQ, small / BIG_REQ, true);
                    ops.extend(sequential(big_at(r), BIG_REQ, big / BIG_REQ, true));
                    ops
                }),
                phases: vec![
                    phase("fit", fit),
                    phase("big", large),
                    phase("recall", recall),
                    phase("reread", reread),
                ],
                file_bytes: big_base + 4 * big,
                ..base
            }
        }
        Workload::FabricIncast => {
            // Every rank writes its own 128 KiB block, then reads seeded
            // blocks of the whole file, so reads cross all four servers.
            let ranks = INCAST_RANKS;
            let reads = scale.of(INCAST_READS, 2);
            Plan {
                ranks,
                hints: vec![("striping_unit", STRIPE_UNIT.to_string())],
                servers: INCAST_SERVERS,
                phases: vec![
                    phase(
                        "write",
                        per_rank(ranks, |r| sequential(r as u64 * BIG_REQ, BIG_REQ, 1, true)),
                    ),
                    phase(
                        "read",
                        per_rank(ranks, |r| {
                            let mut rng = script_rng(r);
                            (0..reads)
                                .map(|_| Op::Read {
                                    off: rng.below(ranks as u64) * BIG_REQ,
                                    len: BIG_REQ,
                                })
                                .collect()
                        }),
                    ),
                ],
                file_bytes: ranks as u64 * BIG_REQ,
                ..base
            }
        }
        Workload::NfsBaseline => {
            // stream_large at a quarter (bandwidth metrics), then
            // smallop_mix at a quarter over the first MiB of each rank's
            // region (latency metrics).
            let count = scale.of(128, 8);
            let region = count * BIG_REQ;
            let n = scale.of(2_500, 100);
            let stream = |name, write| Phase {
                feeds_lat: false,
                ..phase(
                    name,
                    per_rank(4, |r| sequential(r as u64 * region, BIG_REQ, count, write)),
                )
            };
            Plan {
                phases: vec![
                    stream("write", true),
                    stream("read", false),
                    Phase {
                        feeds_bw: false,
                        ..phase(
                            "mix",
                            per_rank(4, |r| {
                                small_mix(
                                    &mut script_rng(r),
                                    r as u64 * region,
                                    MIB / UNIT,
                                    n * 7 / 10,
                                    n * 2 / 10,
                                    n / 10,
                                )
                            }),
                        )
                    },
                ],
                file_bytes: 4 * region,
                ..base
            }
        }
        Workload::LossyReplay => {
            // 32 KiB requests: each rank writes its region in order, then
            // reads it back in a seeded order.
            let req = 32 * KIB;
            let count = scale.of(LOSSY_CALLS, 32);
            let region = count * req;
            Plan {
                phases: vec![
                    phase(
                        "write",
                        per_rank(4, |r| sequential(r as u64 * region, req, count, true)),
                    ),
                    phase(
                        "read",
                        per_rank(4, |r| {
                            script_rng(r)
                                .permutation(count)
                                .into_iter()
                                .map(|b| Op::Read {
                                    off: r as u64 * region + b * req,
                                    len: req,
                                })
                                .collect()
                        }),
                    ),
                ],
                file_bytes: 4 * region,
                ..base
            }
        }
    }
}

/// Reads per rank of `fabric_incast` at full scale.
const INCAST_READS: u64 = 24;
/// Writes (and reads) per rank of `lossy_replay` at full scale.
const LOSSY_CALLS: u64 = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_different_seed_different_plan() {
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Smoke] {
                assert_eq!(plan(w, 7, scale), plan(w, 7, scale), "{}", w.name());
            }
        }
        // Workloads whose scripts (not only their bytes and think times)
        // come from the seed.
        for w in [
            Workload::SmallopMix,
            Workload::CollInterleaved,
            Workload::RereadCached,
            Workload::FabricIncast,
            Workload::NfsBaseline,
            Workload::LossyReplay,
        ] {
            assert_ne!(
                plan(w, 7, Scale::Full),
                plan(w, 8, Scale::Full),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn every_workload_has_a_thousand_timed_calls_with_writes_and_reads() {
        for w in Workload::ALL {
            let p = plan(w, 1, Scale::Full);
            assert!(p.timed_calls() >= 1000, "{}: {}", w.name(), p.timed_calls());
            for (flag, what) in [(true, "bw"), (false, "lat")] {
                let feeding = p
                    .phases
                    .iter()
                    .filter(|ph| if flag { ph.feeds_bw } else { ph.feeds_lat });
                let ops: Vec<&Op> = feeding.flat_map(|ph| ph.ops.iter().flatten()).collect();
                assert!(!ops.is_empty(), "{}: no phase feeds {what}", w.name());
                if flag {
                    assert!(
                        ops.iter().any(|o| o.is_write()),
                        "{}: sim_wr_MBps would be 0",
                        w.name()
                    );
                    assert!(
                        ops.iter().any(|o| o.is_read()),
                        "{}: sim_rd_MBps would be 0",
                        w.name()
                    );
                }
            }
            assert!(p.phases.iter().all(|ph| ph.ops.len() == p.ranks));
            assert!(p.prefill.is_empty() || p.prefill.len() == p.ranks);
        }
    }

    #[test]
    fn ops_are_unit_aligned_and_inside_the_file() {
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Smoke] {
                let p = plan(w, 3, scale);
                let all = p
                    .prefill
                    .iter()
                    .chain(p.phases.iter().flat_map(|ph| ph.ops.iter()))
                    .flatten();
                for op in all {
                    match *op {
                        Op::Read { off, len } | Op::Write { off, len } => {
                            assert!(off % UNIT == 0 && len % UNIT == 0 && len > 0);
                            assert!(off + len <= p.file_bytes, "{} {op:?}", w.name());
                        }
                        Op::ReadAll { at, blocks } | Op::WriteAll { at, blocks } => {
                            assert!(p.interleaved);
                            assert!((at + blocks) * UNIT * p.ranks as u64 <= p.file_bytes);
                        }
                        Op::GetSize | Op::Sync => {}
                    }
                }
            }
        }
    }

    #[test]
    fn smoke_is_about_a_tenth() {
        for w in Workload::ALL {
            let (full, smoke) = (plan(w, 1, Scale::Full), plan(w, 1, Scale::Smoke));
            let (f, s) = (full.timed_calls(), smoke.timed_calls());
            assert!(s * 4 <= f && s > 0, "{}: smoke {s} vs full {f}", w.name());
            assert_eq!(full.phases.len(), smoke.phases.len());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
        assert_eq!(Scale::from_name("smoke"), Some(Scale::Smoke));
    }
}
