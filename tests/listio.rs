//! List-I/O equivalence and data-sieving regression tests.
//!
//! The wire-level vectored ops must be a pure performance change: for any
//! sorted non-overlapping range list, the bytes a strided write puts on
//! the server — and a strided read returns — are identical whether the
//! request ships as one list op (`dafs_listio` on, the default), is
//! data-sieved (`dafs_listio=disable`, `romio_ds_*=enable`), or issued as
//! per-range batches. Inputs come from the in-tree deterministic PRNG
//! ([`simnet::Rng64`]), so every run explores exactly the same cases.

use mpio_dafs::memfs::MemFs;
use mpio_dafs::mpiio::{
    read_at_all, write_at_all, Backend, Datatype, Hints, MpiFile, OpenMode, Testbed,
};
use mpio_dafs::simnet::{FaultPlan, Rng64};

/// A random sorted, non-overlapping range list. Lengths and gaps are drawn
/// below `max_len`/`max_gap`; a zero gap makes adjacent ranges, which the
/// view flattening merges — both shapes must behave.
fn gen_ranges(rng: &mut Rng64, max_n: usize, max_len: u64, max_gap: u64) -> Vec<(u64, u64)> {
    let n = rng.range_usize(2, max_n + 1);
    let mut off = rng.below(2048);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = rng.range(1, max_len + 1);
        out.push((off, len));
        off += len + rng.below(max_gap + 1);
    }
    out
}

/// A filetype whose first tile is exactly `ranges`: one `hindexed` block of
/// `len` bytes at each range's absolute displacement.
fn strided_ft(ranges: &[(u64, u64)]) -> Datatype {
    let blocks: Vec<(u64, i64)> = ranges.iter().map(|&(o, l)| (l, o as i64)).collect();
    Datatype::hindexed(&blocks, &Datatype::bytes(1))
}

/// Each server's piece file of `path`, whole, in server order.
fn server_pieces(fss: &[MemFs], path: &str) -> Vec<Vec<u8>> {
    fss.iter()
        .map(|fs| {
            let attr = fs.resolve(path).unwrap();
            fs.read(attr.id, 0, attr.size).unwrap()
        })
        .collect()
}

/// Reassemble the logical byte stream from round-robin striped piece
/// files (logical block `g` lives on server `g % n` at local block
/// `g / n`). Piece files may legitimately differ in *trailing zeros*
/// between I/O strategies — sieving writes whole gap-covering windows,
/// per-range and list writes only the requested bytes — so equivalence is
/// judged on the logical image, where a short piece reads as zeros.
fn logical_image(pieces: &[Vec<u8>], stripe: u64) -> Vec<u8> {
    if let [single] = pieces {
        return single.clone();
    }
    let n = pieces.len() as u64;
    let mut size = 0u64;
    for (s, p) in pieces.iter().enumerate() {
        if p.is_empty() {
            continue;
        }
        let last = p.len() as u64 - 1;
        size = size.max(((last / stripe) * n + s as u64) * stripe + last % stripe + 1);
    }
    let mut img = vec![0u8; size as usize];
    for (b, out) in img.iter_mut().enumerate() {
        let g = b as u64 / stripe;
        let local = ((g / n) * stripe + b as u64 % stripe) as usize;
        let piece = &pieces[(g % n) as usize];
        if local < piece.len() {
            *out = piece[local];
        }
    }
    img
}

/// One strided write + read-back on a fresh single-rank testbed. The file
/// is pre-filled with `background` (exercising read-modify-write against
/// existing bytes and short reads past EOF), then `payload` is written
/// through a view shaped like `ranges` and read back for comparison.
/// Returns the logical file image for cross-configuration equality.
fn run_case(
    backend: Backend,
    plan: Option<FaultPlan>,
    stripe: u64,
    pairs: Vec<(String, String)>,
    ranges: Vec<(u64, u64)>,
    payload: Vec<u8>,
    background: Vec<u8>,
) -> Vec<u8> {
    let tb = match plan {
        Some(p) => Testbed::with_faults(backend, p),
        None => Testbed::new(backend),
    };
    let fss = if tb.server_fss.is_empty() {
        vec![tb.fs.clone()]
    } else {
        tb.server_fss.clone()
    };
    tb.run(1, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let hints = Hints::from_pairs(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        let f = MpiFile::open(ctx, adio, &host, "/case", OpenMode::create(), hints).unwrap();
        if !background.is_empty() {
            let bg = host.mem.alloc(background.len());
            host.mem.write(bg, &background);
            f.write_at(ctx, 0, bg, background.len() as u64).unwrap();
        }
        let total = payload.len() as u64;
        let src = host.mem.alloc(payload.len());
        host.mem.write(src, &payload);
        f.set_view(0, &Datatype::bytes(1), &strided_ft(&ranges));
        f.write_at(ctx, 0, src, total).unwrap();
        let dst = host.mem.alloc(payload.len());
        let n = f.read_at(ctx, 0, dst, total).unwrap();
        assert_eq!(n, total, "short strided read-back");
        assert_eq!(
            host.mem.read_vec(dst, payload.len()),
            payload,
            "strided read-back returned different bytes than written"
        );
    });
    logical_image(&server_pieces(&fss, "/case"), stripe)
}

/// The three routing configurations under test. All must land identical
/// bytes for the same request.
fn configs() -> [Vec<(String, String)>; 3] {
    let p = |kv: &[(&str, &str)]| {
        kv.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect::<Vec<_>>()
    };
    [
        // Wire-level list I/O (the DAFS default).
        p(&[]),
        // Data sieving, as before this optimization existed.
        p(&[
            ("dafs_listio", "disable"),
            ("romio_ds_read", "enable"),
            ("romio_ds_write", "enable"),
        ]),
        // Per-range batches: no sieving, no list ops.
        p(&[
            ("dafs_listio", "disable"),
            ("romio_ds_read", "disable"),
            ("romio_ds_write", "disable"),
        ]),
    ]
}

fn equivalence_cases(
    backend_of: impl Fn() -> Backend,
    plan_of: impl Fn(u64) -> Option<FaultPlan>,
    stripe: u64,
    extra: &[(&str, &str)],
    seed: u64,
    cases: usize,
    label: &str,
) {
    let mut rng = Rng64::new(seed);
    for case in 0..cases {
        // Mostly short dense lists; every 8th case a long tiny-segment list
        // that overflows LIST_MAX_SEGMENTS and must split across requests.
        let ranges = if case % 8 == 7 {
            gen_ranges(&mut rng, 300, 24, 48)
        } else {
            gen_ranges(&mut rng, 15, 4096, 2048)
        };
        let total: u64 = ranges.iter().map(|r| r.1).sum();
        let payload = rng.bytes(total as usize);
        // Background covering a random prefix of the extent, so some cases
        // sieve against existing bytes and some run past EOF.
        let extent = ranges.last().unwrap().0 + ranges.last().unwrap().1;
        let bg_len = rng.below(extent + 1) as usize;
        let background = rng.bytes(bg_len);
        let images: Vec<Vec<u8>> = configs()
            .into_iter()
            .map(|mut pairs| {
                pairs.extend(extra.iter().map(|(k, v)| (k.to_string(), v.to_string())));
                run_case(
                    backend_of(),
                    plan_of(seed ^ case as u64),
                    stripe,
                    pairs,
                    ranges.clone(),
                    payload.clone(),
                    background.clone(),
                )
            })
            .collect();
        assert_eq!(
            images[0],
            images[1],
            "{label} case {case}: list-I/O file image differs from sieving ({} ranges)",
            ranges.len()
        );
        assert_eq!(
            images[1],
            images[2],
            "{label} case {case}: sieved file image differs from per-range ({} ranges)",
            ranges.len()
        );
    }
}

/// ≥100 random sorted range lists across the three suites below; list I/O,
/// sieving and per-range batches must land byte-identical files on every
/// one (and each suite's read-backs must return the written payload).
#[test]
fn list_io_matches_sieving_raw_dafs() {
    equivalence_cases(Backend::dafs, |_| None, 0, &[], 0x115D_0001, 48, "dafs");
}

#[test]
fn list_io_matches_sieving_striped() {
    // A small stripe unit forces most lists to split across servers.
    equivalence_cases(
        || Backend::dafs_striped(3),
        |_| None,
        4096,
        &[("striping_unit", "4096")],
        0x115D_0002,
        32,
        "striped",
    );
}

#[test]
fn list_io_matches_sieving_under_faults() {
    // Seeded packet loss: list ops, their per-range fallback after failed
    // replays, and sieving must still agree byte-for-byte.
    let plan = |seed: u64| Some(FaultPlan::builder(seed).loss(0.01).build());
    equivalence_cases(Backend::dafs, plan, 0, &[], 0x115D_0003, 12, "dafs+loss");
    equivalence_cases(
        || Backend::dafs_striped(2),
        plan,
        8192,
        &[("striping_unit", "8192")],
        0x115D_0004,
        12,
        "striped+loss",
    );
}

/// Regression: a sieved write whose last window runs past EOF must
/// zero-fill the inter-range gap in that window, not persist whatever the
/// reused sieve buffer held from the previous window. (The short window
/// read stops at EOF; the whole-window write-back used to push the stale
/// tail into the file where the per-range path writes zeros.)
#[test]
fn sieved_write_zero_fills_gap_past_eof() {
    // ind_wr_buffer_size=4096 splits these ranges into two windows:
    // [(0,2000)] fills the sieve buffer with payload bytes, then
    // [(5000,100),(6000,100)] reads only 50 bytes (EOF at 5050) and
    // write-backs the 1100-byte window — including the 5100..6000 gap.
    let ranges = vec![(0u64, 2000u64), (5000, 100), (6000, 100)];
    let payload = vec![0xCD; 2200];
    let background = vec![0xAB; 5050];
    let sieve_pairs = vec![
        ("dafs_listio".to_string(), "disable".to_string()),
        ("romio_ds_write".to_string(), "enable".to_string()),
        ("ind_wr_buffer_size".to_string(), "4096".to_string()),
    ];
    let per_range_pairs = vec![
        ("dafs_listio".to_string(), "disable".to_string()),
        ("romio_ds_write".to_string(), "disable".to_string()),
    ];
    let sieved = run_case(
        Backend::dafs(),
        None,
        0,
        sieve_pairs,
        ranges.clone(),
        payload.clone(),
        background.clone(),
    );
    let per_range = run_case(
        Backend::dafs(),
        None,
        0,
        per_range_pairs,
        ranges,
        payload,
        background,
    );
    let img = &sieved;
    assert_eq!(img.len(), 6100);
    assert!(img[..2000].iter().all(|&b| b == 0xCD), "payload window 1");
    assert!(img[2000..5000].iter().all(|&b| b == 0xAB), "background");
    assert!(
        img[5000..5100].iter().all(|&b| b == 0xCD),
        "payload range 2"
    );
    assert!(
        img[5100..6000].iter().all(|&b| b == 0),
        "gap past EOF must be zero-filled, not hold stale sieve-buffer bytes"
    );
    assert!(img[6000..].iter().all(|&b| b == 0xCD), "payload range 3");
    assert_eq!(sieved, per_range, "sieved image differs from per-range");
}

/// One interleaved collective write then read on a fresh testbed: 4 ranks,
/// rank `r` owning every 4th 4 KiB block of a view displaced by `disp`
/// bytes, 48 blocks each. Every rank checks its read-back; returns the
/// logical server image and the servers' request count.
fn collective_case(backend: Backend, cb: u64, pipelined: bool, disp: u64) -> (Vec<u8>, u64) {
    const RANKS: u64 = 4;
    const BLOCK: u64 = 4 << 10;
    const BLOCKS: u64 = 48;
    let tb = Testbed::new(backend);
    let fss = tb.server_fss.clone();
    let report = tb.run(RANKS as usize, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let mut hints = Hints::default();
        hints.set("cb_buffer_size", &cb.to_string());
        hints.set(
            "romio_cb_pipeline",
            if pipelined { "enable" } else { "disable" },
        );
        let f = MpiFile::open(ctx, adio, &host, "/coll", OpenMode::create(), hints).unwrap();
        let el = Datatype::bytes(BLOCK);
        let ft = Datatype::resized(
            &Datatype::hindexed(&[(1, (comm.rank() as u64 * BLOCK) as i64)], &el),
            0,
            RANKS * BLOCK,
        );
        f.set_view(disp, &el, &ft);
        let total = BLOCKS * BLOCK;
        let payload = Rng64::new(0xC011 + comm.rank() as u64).bytes(total as usize);
        let src = host.mem.alloc(payload.len());
        host.mem.write(src, &payload);
        write_at_all(ctx, comm, &f, 0, src, total).unwrap();
        let dst = host.mem.alloc(payload.len());
        assert_eq!(read_at_all(ctx, comm, &f, 0, dst, total).unwrap(), total);
        assert_eq!(
            host.mem.read_vec(dst, payload.len()),
            payload,
            "collective read-back differs from what rank {} wrote",
            comm.rank()
        );
    });
    let image = logical_image(&server_pieces(&fss, "/coll"), 64 << 10);
    (image, report.server_ops)
}

/// The stripe-aware two-phase sweep is a pure performance change: over 1
/// to 4 servers, with collective buffers below, at and above the stripe
/// unit, pipelined or not, through a view that starts 20 KiB into a
/// stripe, every rank reads back what it wrote and the servers hold, piece
/// by piece, the bytes one server holds.
#[test]
fn striped_collective_sweep_lands_the_one_server_image() {
    const DISP: u64 = 20 << 10;
    let (reference, _) = collective_case(Backend::dafs(), 4 << 20, true, DISP);
    assert_eq!(reference.len() as u64, DISP + 4 * 48 * 4096);
    for servers in 1..=4 {
        for cb in [16u64 << 10, 64 << 10, 256 << 10] {
            for pipelined in [true, false] {
                let (image, _) =
                    collective_case(Backend::dafs_striped(servers), cb, pipelined, DISP);
                assert!(
                    image == reference,
                    "{servers} servers, cb {cb}, pipelined {pipelined}: server image differs"
                );
            }
        }
    }
}

/// Windows sit on the stripe grid wherever the view starts, so a window's
/// list request never splits over two servers because the view is
/// displaced: the displaced call reaches into one more stripe than the
/// aligned one (13 instead of 12) and costs exactly that one request more,
/// in the write and in the read. Contiguous domains cut from a displaced
/// `gmin` straddled a stripe boundary in every window and paid double.
#[test]
fn displaced_view_costs_one_request_per_stripe_touched() {
    let (_, aligned) = collective_case(Backend::dafs_striped(2), 64 << 10, true, 0);
    let (_, displaced) = collective_case(Backend::dafs_striped(2), 64 << 10, true, 20 << 10);
    assert_eq!(displaced, aligned + 2, "server requests, whole job");
}
