//! X-2 (extension) — mixed small-operation workload: latency distribution.
//!
//! File servers live on op *mixes*, not pure streams. A seeded random
//! workload (70% 4 KiB reads, 20% 4 KiB writes, 10% getattrs over a small
//! working set of files) is replayed identically against DAFS and NFS; the
//! table reports mean / p50 / p99 per-op latency as exact nearest-rank
//! quantiles over the full sample set ([`SampleSet`]) — every quoted
//! quantile is an actual recorded latency, not a log₂-bucket upper bound.
//!
//! Expected shape: the whole DAFS distribution sits several× below NFS,
//! and the tails stay tight (no kernel-path interrupt jitter terms).

use dafs::DafsClientConfig;
use memfs::{MemFs, NodeId, ROOT_ID};
use nfsv3::NfsClientConfig;
use simnet::{Rng64, SampleSet};
use via::ViaCost;

use crate::report::{Cell, Table, Unit};
use crate::testbeds::{timed, with_dafs_client, with_nfs_client};

const FILES: usize = 8;
const OPS: usize = 400;
const IO: u64 = 4 << 10;
const SEED: u64 = 0x1FF2_2002;

/// The op script, generated identically for both stacks.
#[derive(Clone, Copy)]
enum Op {
    Read { file: usize, off: u64 },
    Write { file: usize, off: u64 },
    GetAttr { file: usize },
}

fn script() -> Vec<Op> {
    let mut rng = Rng64::new(SEED);
    (0..OPS)
        .map(|_| {
            let file = rng.range_usize(0, FILES);
            let off = rng.below(16) * IO;
            match rng.below(10) {
                0..7 => Op::Read { file, off },
                7..9 => Op::Write { file, off },
                _ => Op::GetAttr { file },
            }
        })
        .collect()
}

fn prefill(fs: &MemFs) {
    for i in 0..FILES {
        let f = fs.create(ROOT_ID, &format!("f{i}")).unwrap();
        fs.write(f.id, 0, &vec![i as u8; (16 * IO) as usize])
            .unwrap();
    }
}

fn dafs_hist() -> SampleSet {
    with_dafs_client(
        ViaCost::default(),
        DafsClientConfig::default(),
        None,
        prefill,
        move |ctx, c, nic| {
            let files: Vec<NodeId> = (0..FILES)
                .map(|i| c.lookup(ctx, ROOT_ID, &format!("f{i}")).unwrap().id)
                .collect();
            let buf = nic.host().mem.alloc(IO as usize);
            let hist = SampleSet::new();
            for op in script() {
                hist.record(timed(ctx, || match op {
                    Op::Read { file, off } => _ = c.read(ctx, files[file], off, buf, IO).unwrap(),
                    Op::Write { file, off } => _ = c.write(ctx, files[file], off, buf, IO).unwrap(),
                    Op::GetAttr { file } => _ = c.getattr(ctx, files[file]).unwrap(),
                }));
            }
            hist
        },
    )
    .0
}

fn nfs_hist() -> SampleSet {
    with_nfs_client(
        NfsClientConfig::default(),
        None,
        prefill,
        move |ctx, c, _| {
            let files: Vec<NodeId> = (0..FILES)
                .map(|i| c.lookup(ctx, ROOT_ID, &format!("f{i}")).unwrap().id)
                .collect();
            let data = vec![7u8; IO as usize];
            let hist = SampleSet::new();
            for op in script() {
                hist.record(timed(ctx, || match op {
                    Op::Read { file, off } => _ = c.read(ctx, files[file], off, IO).unwrap(),
                    Op::Write { file, off } => _ = c.write(ctx, files[file], off, &data).unwrap(),
                    Op::GetAttr { file } => _ = c.getattr_uncached(ctx, files[file]).unwrap(),
                }));
            }
            hist
        },
    )
    .0
}

/// Run X-2.
pub fn run() -> Table {
    let mut t = Table::new(
        "X-2 (extension): mixed small-op workload latency (us)",
        &[
            ("stack", 0),
            ("mean", 1),
            ("p50", 0),
            ("p99", 0),
            ("max", 1),
        ],
    );
    let d = dafs_hist();
    let n = nfs_hist();
    for (name, h) in [("dafs", &d), ("nfs", &n)] {
        t.row([
            Cell::text(name),
            Cell::Ratio(h.sum(), h.count(), Unit::Us),
            Cell::us(h.quantile(0.5)),
            Cell::us(h.quantile(0.99)),
            Cell::us(h.max()),
        ]);
    }
    t.note(&format!(
        "identical seeded script ({OPS} ops, 70/20/10 read/write/getattr over {FILES} files); \
         NFS/DAFS mean ratio = {:.1}x",
        n.mean() / d.mean()
    ));
    t.note("quantiles are exact (nearest-rank over the full sample set)");
    t
}
