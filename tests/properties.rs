//! Property-style tests on the core invariants: datatype flattening, view
//! translation, the in-memory filesystem, and end-to-end parallel-write
//! correctness.
//!
//! Inputs are generated with the in-tree deterministic PRNG
//! ([`simnet::Rng64`]) instead of an external property-testing framework:
//! every run explores exactly the same cases, so a failure seed is the test
//! name itself.

use mpio_dafs::memfs::{MemFs, ROOT_ID};
use mpio_dafs::mpiio::FileView;
use mpio_dafs::mpiio::{
    read_at_all, write_at_all, Backend, Datatype, Hints, MpiFile, OpenMode, Testbed,
};
use mpio_dafs::simnet::Rng64;

// ---------------------------------------------------------------------------
// Datatype algebra
// ---------------------------------------------------------------------------

/// A small random datatype, recursing up to `depth` constructor levels.
fn gen_datatype(rng: &mut Rng64, depth: u32) -> Datatype {
    if depth == 0 {
        return Datatype::bytes(rng.range(1, 16));
    }
    match rng.below(5) {
        0 => Datatype::bytes(rng.range(1, 16)),
        1 => {
            let inner = gen_datatype(rng, depth - 1);
            Datatype::contiguous(rng.range(1, 4), &inner)
        }
        2 => {
            let inner = gen_datatype(rng, depth - 1);
            let c = rng.range(1, 4);
            let b = rng.range(1, 3);
            let extra = rng.below(6) as i64;
            // stride >= blocklen keeps lb at 0 and runs forward.
            Datatype::vector(c, b, b as i64 + extra, &inner)
        }
        3 => {
            let inner = gen_datatype(rng, depth - 1);
            let blocks: Vec<(u64, i64)> = (0..rng.range(1, 4))
                .map(|_| (rng.range(1, 3), rng.below(8) as i64))
                .collect();
            Datatype::indexed(&blocks, &inner)
        }
        _ => {
            let inner = gen_datatype(rng, depth - 1);
            let ext = inner.extent();
            Datatype::resized(&inner, 0, ext + rng.below(8))
        }
    }
}

/// flatten() == type_map() with adjacent runs merged; size is the sum.
#[test]
fn flatten_matches_merged_typemap() {
    let mut rng = Rng64::new(0xDA7A_0001);
    for _ in 0..128 {
        let dt = gen_datatype(&mut rng, 3);
        let f = dt.flatten();
        let tm = dt.type_map();
        let mut merged: Vec<(i64, u64)> = Vec::new();
        for (off, len) in tm {
            match merged.last_mut() {
                Some((lo, ll)) if *lo + *ll as i64 == off => *ll += len,
                _ => merged.push((off, len)),
            }
        }
        assert_eq!(&f.runs, &merged, "datatype {dt:?}");
        assert_eq!(f.size, merged.iter().map(|r| r.1).sum::<u64>());
        // Note: runs need NOT fit inside [lb, lb+extent) — a Resized type
        // may legally shrink the extent below the data span (overlapping
        // tiling). Only the natural (non-resized) bound is universal:
        if f.size > 0 {
            assert!(f.extent > 0, "nonempty type with zero extent: {dt:?}");
        }
    }
}

/// Tiling property: contiguous(2, dt) == dt runs followed by dt runs
/// shifted by the extent.
#[test]
fn contiguous_two_is_shifted_self() {
    let mut rng = Rng64::new(0xDA7A_0002);
    for _ in 0..128 {
        let dt = gen_datatype(&mut rng, 3);
        let two = Datatype::contiguous(2, &dt).flatten();
        let one = dt.flatten();
        let mut expect = one.runs.clone();
        for (off, len) in &one.runs {
            let shifted = (*off + one.extent as i64, *len);
            match expect.last_mut() {
                Some((lo, ll)) if *lo + *ll as i64 == shifted.0 => *ll += shifted.1,
                _ => expect.push(shifted),
            }
        }
        assert_eq!(two.runs, expect, "datatype {dt:?}");
    }
}

// ---------------------------------------------------------------------------
// View translation
// ---------------------------------------------------------------------------

/// Reference implementation: map one logical byte at a time.
fn naive_map(view: &FileView, logical: u64, len: u64) -> Vec<u64> {
    (logical..logical + len)
        .map(|l| {
            let r = view.map(l, 1);
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].1, 1);
            r[0].0
        })
        .collect()
}

/// map(l, n) must equal n single-byte mappings, in order, and the physical
/// bytes of distinct logical bytes must be distinct.
#[test]
fn view_map_agrees_with_bytewise() {
    let mut rng = Rng64::new(0xDA7A_0003);
    for _ in 0..64 {
        let disp = rng.below(64);
        let take = rng.range(1, 12);
        let skip = rng.below(12);
        let logical = rng.below(64);
        let len = rng.range(1, 48);
        let ft = Datatype::resized(&Datatype::bytes(take), 0, take + skip);
        let view = FileView::new(disp, &Datatype::bytes(1), &ft);
        let ranges = view.map(logical, len);
        let flat: Vec<u64> = ranges.iter().flat_map(|(off, l)| *off..*off + *l).collect();
        let naive = naive_map(&view, logical, len);
        assert_eq!(&flat, &naive, "disp={disp} take={take} skip={skip}");
        assert_eq!(flat.len() as u64, len);
        // Injectivity.
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len() as u64, len);
    }
}

/// Disjoint rank views tile the file: the union of all ranks' physical
/// bytes for the same logical range is disjoint.
#[test]
fn rank_views_partition_disjointly() {
    let mut rng = Rng64::new(0xDA7A_0004);
    for _ in 0..64 {
        let ranks = rng.range_usize(2, 5);
        let block = rng.range(1, 16);
        let len = rng.range(1, 64);
        let mut seen = std::collections::HashSet::new();
        for r in 0..ranks {
            let el = Datatype::bytes(block);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (r as u64 * block) as i64)], &el),
                0,
                ranks as u64 * block,
            );
            let view = FileView::new(0, &Datatype::bytes(1), &ft);
            for (off, l) in view.map(0, len) {
                for b in off..off + l {
                    assert!(seen.insert(b), "byte {b} claimed twice");
                }
            }
        }
        assert_eq!(seen.len() as u64, ranks as u64 * len);
    }
}

// ---------------------------------------------------------------------------
// Filesystem model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FsOp {
    Write { off: u64, data: Vec<u8> },
    Truncate { size: u64 },
    Read { off: u64, len: u64 },
}

fn gen_fsop(rng: &mut Rng64) -> FsOp {
    match rng.below(3) {
        0 => {
            let off = rng.below(512);
            let len = rng.range_usize(1, 64);
            FsOp::Write {
                off,
                data: rng.bytes(len),
            }
        }
        1 => FsOp::Truncate {
            size: rng.below(600),
        },
        _ => FsOp::Read {
            off: rng.below(600),
            len: rng.below(128),
        },
    }
}

/// memfs agrees with a Vec<u8> reference model under random op sequences.
#[test]
fn memfs_matches_reference_model() {
    let mut rng = Rng64::new(0xDA7A_0005);
    for case in 0..128 {
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "model").unwrap();
        let mut model: Vec<u8> = Vec::new();
        for _ in 0..rng.range_usize(1, 40) {
            let op = gen_fsop(&mut rng);
            match op {
                FsOp::Write { off, data } => {
                    fs.write(f.id, off, &data).unwrap();
                    let end = off as usize + data.len();
                    if end > model.len() {
                        model.resize(end, 0);
                    }
                    model[off as usize..end].copy_from_slice(&data);
                }
                FsOp::Truncate { size } => {
                    fs.setattr(f.id, mpio_dafs::memfs::SetAttr { size: Some(size) })
                        .unwrap();
                    model.resize(size as usize, 0);
                }
                FsOp::Read { off, len } => {
                    let got = fs.read(f.id, off, len).unwrap();
                    let s = (off as usize).min(model.len());
                    let e = ((off + len) as usize).min(model.len());
                    assert_eq!(&got, &model[s..e], "case {case}");
                }
            }
            assert_eq!(fs.getattr(f.id).unwrap().size, model.len() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end parallel write
// ---------------------------------------------------------------------------

/// The pipelined double-buffered sweep (the default) lands exactly the
/// same bytes as the strictly synchronous sweep
/// (`romio_cb_pipeline=disable`) — and as no sweep at all
/// (`romio_cb_{read,write}=disable`: each rank's independent access plus a
/// barrier) — for random strided geometries on every backend, and
/// collective reads return the written data in every mode.
#[test]
fn pipelined_collective_matches_synchronous() {
    let mut rng = Rng64::new(0xDA7A_0007);
    for case in 0..6 {
        let ranks = rng.range_usize(2, 5);
        let block = rng.range(1, 9) * 512;
        let rounds = rng.range_usize(1, 4);
        let mut images: Vec<Vec<u8>> = Vec::new();
        for (cb, pipeline) in [
            ("enable", "disable"),
            ("enable", "enable"),
            ("disable", "disable"),
            ("disable", "enable"),
        ] {
            let backend = match case % 3 {
                0 => Backend::dafs(),
                1 => Backend::nfs(),
                _ => Backend::ufs(),
            };
            let tb = Testbed::new(backend);
            let fs = tb.fs.clone();
            tb.run(ranks, move |ctx, comm, adio| {
                let host = comm.host().clone();
                let mut hints = Hints::default();
                // A small collective buffer forces a multi-phase sweep,
                // so the pipeline actually has windows to overlap.
                hints.set("cb_buffer_size", "4096");
                hints.set("romio_cb_pipeline", pipeline);
                hints.set("romio_cb_read", cb);
                hints.set("romio_cb_write", cb);
                let f = MpiFile::open(ctx, adio, &host, "/eq", OpenMode::create(), hints).unwrap();
                let el = Datatype::bytes(block);
                let ft = Datatype::resized(
                    &Datatype::hindexed(&[(1, (comm.rank() as u64 * block) as i64)], &el),
                    0,
                    ranks as u64 * block,
                );
                f.set_view(0, &el, &ft);
                let total = rounds as u64 * block;
                let src = host.mem.alloc(total as usize);
                for round in 0..rounds {
                    host.mem.fill(
                        src.offset(round as u64 * block),
                        block as usize,
                        (comm.rank() * rounds + round + 1) as u8,
                    );
                }
                write_at_all(ctx, comm, &f, 0, src, total).unwrap();
                // Read it back collectively: must see exactly what we wrote.
                let dst = host.mem.alloc(total as usize);
                let n = read_at_all(ctx, comm, &f, 0, dst, total).unwrap();
                assert_eq!(n, total);
                assert_eq!(
                    host.mem.read_vec(dst, total as usize),
                    host.mem.read_vec(src, total as usize),
                    "collective read-back mismatch (cb={cb}, pipeline={pipeline})"
                );
            });
            let attr = fs.resolve("/eq").unwrap();
            images.push(fs.read(attr.id, 0, attr.size).unwrap());
        }
        for (mode, image) in images.iter().enumerate().skip(1) {
            assert_eq!(
                &images[0], image,
                "case {case}: hint mode {mode} left a different file than the synchronous sweep"
            );
        }
    }
}

/// Collective interleaved writes through the full DAFS stack equal the
/// analytically constructed file, for random block sizes / rounds / rank
/// counts. Whole-cluster simulations are comparatively expensive; a few
/// cases with random geometry still cover the interesting interleavings.
#[test]
fn collective_write_equals_reference() {
    let mut rng = Rng64::new(0xDA7A_0006);
    for _ in 0..6 {
        let ranks = rng.range_usize(2, 5);
        let block = rng.range(1, 9) * 1024;
        let rounds = rng.range_usize(1, 4);
        let tb = Testbed::new(Backend::dafs());
        let fs = tb.fs.clone();
        tb.run(ranks, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(ctx, adio, &host, "/p", OpenMode::create(), Hints::default())
                .unwrap();
            let el = Datatype::bytes(block);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (comm.rank() as u64 * block) as i64)], &el),
                0,
                ranks as u64 * block,
            );
            f.set_view(0, &el, &ft);
            let src = host.mem.alloc((rounds as u64 * block) as usize);
            for round in 0..rounds {
                host.mem.fill(
                    src.offset(round as u64 * block),
                    block as usize,
                    (comm.rank() * rounds + round + 1) as u8,
                );
            }
            write_at_all(ctx, comm, &f, 0, src, rounds as u64 * block).unwrap();
        });
        let attr = fs.resolve("/p").unwrap();
        assert_eq!(attr.size, rounds as u64 * ranks as u64 * block);
        let data = fs.read(attr.id, 0, attr.size).unwrap();
        for round in 0..rounds {
            for r in 0..ranks {
                let start = (round * ranks + r) as u64 * block;
                let expect = (r * rounds + round + 1) as u8;
                assert!(
                    data[start as usize..(start + block) as usize]
                        .iter()
                        .all(|&b| b == expect),
                    "round {round} rank {r}"
                );
            }
        }
    }
}
