//! Integration tests spanning all crates: whole-stack scenarios through
//! the umbrella crate, with byte-level verification on the server
//! filesystem and cross-backend behavioural assertions.

use mpio_dafs::dafs::DafsClientConfig;
use mpio_dafs::mpiio::{
    read_at_all, write_at_all, Backend, Datatype, Hints, MpiFile, OpenMode, Testbed,
};
use mpio_dafs::simnet::{Rng64, SimDuration};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Eight ranks, nested-strided (matrix-column) access, collective write,
/// independent read-back, full byte verification.
#[test]
fn eight_rank_column_partitioned_matrix() {
    const N: usize = 256; // N x N matrix of 8-byte elements
    const RANKS: usize = 8;
    let tb = Testbed::new(Backend::dafs());
    let fs = tb.fs.clone();
    tb.run(RANKS, |ctx, comm, adio| {
        let host = comm.host().clone();
        let cols = N / comm.size();
        let file = MpiFile::open(
            ctx,
            adio,
            &host,
            "/matrix.bin",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        // Column-block view: rank r owns columns [r*cols, (r+1)*cols).
        let ft = Datatype::subarray(
            &[N as u64, N as u64],
            &[N as u64, cols as u64],
            &[0, (comm.rank() * cols) as u64],
            &Datatype::bytes(8),
        );
        file.set_view(0, &Datatype::bytes(8), &ft);
        let mine = N * cols * 8;
        let src = host.mem.alloc(mine);
        // Values encode (row, col) so placement errors are detectable.
        for row in 0..N {
            for c in 0..cols {
                let col = comm.rank() * cols + c;
                let v = ((row as u64) << 32 | col as u64).to_le_bytes();
                host.mem
                    .write(src.offset(((row * cols + c) * 8) as u64), &v);
            }
        }
        write_at_all(ctx, comm, &file, 0, src, mine as u64).unwrap();
        comm.barrier(ctx);
        // Independent strided read-back of my own columns.
        let dst = host.mem.alloc(mine);
        let n = file.read_at(ctx, 0, dst, mine as u64).unwrap();
        assert_eq!(n as usize, mine);
        assert_eq!(host.mem.read_vec(dst, mine), host.mem.read_vec(src, mine));
    });
    // Server-side: element (row, col) must hold (row<<32 | col).
    let attr = fs.resolve("/matrix.bin").unwrap();
    assert_eq!(attr.size, (N * N * 8) as u64);
    for (row, col) in [(0usize, 0usize), (1, 37), (100, 200), (255, 255), (17, 31)] {
        let raw = fs.read(attr.id, ((row * N + col) * 8) as u64, 8).unwrap();
        let v = u64::from_le_bytes(raw.try_into().unwrap());
        assert_eq!(v, (row as u64) << 32 | col as u64, "element ({row},{col})");
    }
}

/// The same workload on DAFS and NFS must produce byte-identical files;
/// only the timing differs.
#[test]
fn backends_agree_on_file_contents() {
    fn run(backend: Backend) -> (Vec<u8>, u64) {
        let tb = Testbed::new(backend);
        let fs = tb.fs.clone();
        let report = tb.run(3, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(ctx, adio, &host, "/x", OpenMode::create(), Hints::default())
                .unwrap();
            // Interleaved 10 KiB blocks via hindexed view.
            let el = Datatype::bytes(10 << 10);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (comm.rank() * (10 << 10)) as i64)], &el),
                0,
                3 * (10 << 10),
            );
            f.set_view(0, &el, &ft);
            let src = host.mem.alloc(2 * (10 << 10));
            host.mem
                .fill(src, 2 * (10 << 10), comm.rank() as u8 * 3 + 1);
            write_at_all(ctx, comm, &f, 0, src, 2 * (10 << 10)).unwrap();
        });
        let attr = fs.resolve("/x").unwrap();
        (
            fs.read(attr.id, 0, attr.size).unwrap(),
            report.end_time.as_nanos(),
        )
    }
    let (dafs_bytes, dafs_time) = run(Backend::dafs());
    let (nfs_bytes, nfs_time) = run(Backend::nfs());
    let (ufs_bytes, _) = run(Backend::ufs());
    assert_eq!(dafs_bytes, nfs_bytes);
    assert_eq!(dafs_bytes, ufs_bytes);
    assert!(
        dafs_time < nfs_time,
        "DAFS ({dafs_time}ns) must finish before NFS ({nfs_time}ns)"
    );
}

/// Client CPU overhead: a large sequential DAFS direct read must burn far
/// less client CPU than the same read over NFS (zero-copy vs copies).
#[test]
fn dafs_client_cpu_is_far_below_nfs() {
    const LEN: usize = 16 << 20;
    fn run(backend: Backend) -> SimDuration {
        let tb = Testbed::new(backend);
        // Pre-populate on the server.
        let f = tb.fs.create(memfs::ROOT_ID, "big").unwrap();
        tb.fs.write(f.id, 0, &vec![7u8; LEN]).unwrap();
        let report = tb.run(1, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(ctx, adio, &host, "/big", OpenMode::open(), Hints::default())
                .unwrap();
            let dst = host.mem.alloc(LEN);
            let n = f.read_at(ctx, 0, dst, LEN as u64).unwrap();
            assert_eq!(n as usize, LEN);
        });
        report.ranks_cpu
    }
    let dafs = run(Backend::dafs());
    let nfs = run(Backend::nfs());
    assert!(
        dafs.as_nanos() * 5 < nfs.as_nanos(),
        "client CPU: dafs {dafs} vs nfs {nfs}; expected ≥5x gap"
    );
}

/// Inline vs direct switchover: small requests stay inline, large go
/// direct, both with correct data.
#[test]
fn inline_direct_threshold_behaviour() {
    let tb = Testbed::new(Backend::dafs());
    let fs = tb.fs.clone();
    tb.run(1, |ctx, comm, adio| {
        let host = comm.host().clone();
        let f =
            MpiFile::open(ctx, adio, &host, "/t", OpenMode::create(), Hints::default()).unwrap();
        // 4 KiB (inline) then 64 KiB (direct) at disjoint offsets.
        let small = host.mem.alloc(4 << 10);
        host.mem.fill(small, 4 << 10, 0xAA);
        f.write_at(ctx, 0, small, 4 << 10).unwrap();
        let large = host.mem.alloc(64 << 10);
        host.mem.fill(large, 64 << 10, 0xBB);
        f.write_at(ctx, 4 << 10, large, 64 << 10).unwrap();
        let back = host.mem.alloc(68 << 10);
        assert_eq!(f.read_at(ctx, 0, back, 68 << 10).unwrap(), 68 << 10);
        assert_eq!(host.mem.read_vec(back, 1), vec![0xAA]);
        assert_eq!(host.mem.read_vec(back.offset(4 << 10), 1), vec![0xBB]);
    });
    let attr = fs.resolve("/t").unwrap();
    assert_eq!(attr.size, 68 << 10);
}

/// Collective read after collective write with a *different* number of
/// aggregators (cb_nodes hint) still returns the right bytes.
#[test]
fn cb_nodes_hint_changes_aggregators_not_answers() {
    for cb_nodes in ["1", "2", "4"] {
        let tb = Testbed::new(Backend::dafs());
        let expected_block = 32 << 10;
        tb.run(4, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let mut hints = Hints::default();
            hints.set("cb_nodes", cb_nodes);
            let f = MpiFile::open(ctx, adio, &host, "/agg", OpenMode::create(), hints).unwrap();
            let el = Datatype::bytes(expected_block);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (comm.rank() as u64 * expected_block) as i64)], &el),
                0,
                4 * expected_block,
            );
            f.set_view(0, &el, &ft);
            let src = host.mem.alloc(2 * expected_block as usize);
            host.mem
                .fill(src, 2 * expected_block as usize, comm.rank() as u8 + 1);
            write_at_all(ctx, comm, &f, 0, src, 2 * expected_block).unwrap();
            comm.barrier(ctx);
            let dst = host.mem.alloc(2 * expected_block as usize);
            let n = read_at_all(ctx, comm, &f, 0, dst, 2 * expected_block).unwrap();
            assert_eq!(n, 2 * expected_block);
            assert_eq!(
                host.mem.read_vec(dst, 2 * expected_block as usize),
                vec![comm.rank() as u8 + 1; 2 * expected_block as usize],
                "cb_nodes={cb_nodes}"
            );
        });
    }
}

/// Only what stays on the host is copied: eight ranks interleaved at a
/// grain, `write_at_all` then `read_at_all` of `N` bytes each, with the
/// benchmark's 8 aggregators x 4 windows. At a 4 KiB grain every other
/// rank's pieces ride the exchange as data segments, so `mpiio.copy_bytes`
/// counts `N` per direction — each aggregator's own pieces, which no NIC
/// touches. At a 16-byte grain a message's pieces are below the gather
/// floor and every byte is copied once: `8N` per direction. The ranks' own
/// buffers move in place. On two striped DAFS servers and on UFS,
/// pipelined and not.
#[test]
fn two_phase_copies_only_what_stays_on_the_host() {
    const RANKS: u64 = 8;
    const N: u64 = 256 << 10;
    for (grain, copied) in [(4096u64, N), (16, RANKS * N)] {
        for (name, backend) in [
            ("dafs_striped(2)", Backend::dafs_striped(2)),
            ("ufs", Backend::ufs()),
        ] {
            for pipeline in ["enable", "disable"] {
                let after_write = Arc::new(AtomicU64::new(0));
                let seen = after_write.clone();
                let report =
                    Testbed::new(backend.clone()).run(RANKS as usize, move |ctx, comm, adio| {
                        let host = comm.host().clone();
                        let mut hints = Hints::default();
                        hints.set("cb_buffer_size", "65536");
                        hints.set("romio_cb_pipeline", pipeline);
                        let f =
                            MpiFile::open(ctx, adio, &host, "/copies", OpenMode::create(), hints)
                                .unwrap();
                        let el = Datatype::bytes(grain);
                        let mine =
                            Datatype::hindexed(&[(1, (comm.rank() as u64 * grain) as i64)], &el);
                        f.set_view(0, &el, &Datatype::resized(&mine, 0, RANKS * grain));
                        let buf = host.mem.alloc(N as usize);
                        host.mem.fill(buf, N as usize, comm.rank() as u8 + 1);
                        assert_eq!(write_at_all(ctx, comm, &f, 0, buf, N), Ok(N));
                        // Every rank's copies are in: the call ends in a barrier.
                        if comm.rank() == 0 {
                            seen.store(
                                ctx.metrics().counter("mpiio.copy_bytes").get(),
                                Ordering::Relaxed,
                            );
                        }
                        f.sync(ctx).unwrap();
                        comm.barrier(ctx);
                        host.mem.fill(buf, N as usize, 0);
                        assert_eq!(read_at_all(ctx, comm, &f, 0, buf, N), Ok(N));
                        assert_eq!(
                            host.mem.read_vec(buf, N as usize),
                            vec![comm.rank() as u8 + 1; N as usize]
                        );
                    });
                let total = report.snapshot.get("mpiio.copy_bytes").unwrap().value();
                let wrote = after_write.load(Ordering::Relaxed);
                let what = format!("{name} grain={grain} pipeline={pipeline}");
                assert_eq!(wrote, copied, "write: {what}");
                assert_eq!(total - wrote, copied, "read: {what}");
            }
        }
    }
}

/// The MPI rail, counted: the benchmark's collective call (eight ranks
/// 4 KiB-interleaved, 8 aggregators x 4 windows, two striped DAFS servers)
/// sends 45 messages per rank for a write and 45 for a read — the extents'
/// ring allgather (7), the one request exchange (7), one `alltoallv` per
/// window (4 x 7) and the closing barrier (3). Its bytes are the extents,
/// the requests — a count per window and two 4 KiB pieces in each — and the
/// 7/8 of every rank's data that goes to another rank: no data message
/// carries a descriptor.
#[test]
fn the_benchmark_call_sends_45_messages_per_rank_each_way() {
    const RANKS: u64 = 8;
    const N: u64 = 256 << 10;
    let run = |read: bool| {
        let report =
            Testbed::new(Backend::dafs_striped(2)).run(RANKS as usize, move |ctx, comm, adio| {
                let host = comm.host().clone();
                let mut hints = Hints::default();
                hints.set("cb_buffer_size", "65536");
                let f =
                    MpiFile::open(ctx, adio, &host, "/rail", OpenMode::create(), hints).unwrap();
                let el = Datatype::bytes(4096);
                let mine = Datatype::hindexed(&[(1, comm.rank() as i64 * 4096)], &el);
                f.set_view(0, &el, &Datatype::resized(&mine, 0, RANKS * 4096));
                let buf = host.mem.alloc(N as usize);
                assert_eq!(write_at_all(ctx, comm, &f, 0, buf, N), Ok(N));
                if read {
                    assert_eq!(read_at_all(ctx, comm, &f, 0, buf, N), Ok(N));
                }
            });
        let metric = |k: &str| report.snapshot.get(k).unwrap().value();
        (metric("mpi.msgs"), metric("mpi.bytes"))
    };
    let (write, both) = (run(false), run(true));
    let read = (both.0 - write.0, both.1 - write.1);
    let peers = RANKS * (RANKS - 1);
    let extents = peers * 16;
    let requests = peers * 4 * (8 + 2 * 16);
    for (call, (msgs, bytes)) in [("write", write), ("read", read)] {
        assert_eq!(msgs, RANKS * 45, "{call}");
        assert_eq!(bytes, extents + requests + (RANKS - 1) * N, "{call}");
    }
}

/// A two-phase read past the end of file comes back short, as an
/// independent one does: two ranks write 4 KiB each collectively, the file
/// is cut to 6 000 bytes, and each reads its 4 KiB back with
/// `read_at_all`. Rank 1 gets 1 904 bytes, and its buffer past them keeps
/// what it held — not the collective buffer's stale copy of its write.
#[test]
fn a_two_phase_read_past_eof_is_short_and_lands_nothing_stale() {
    const BLOCK: u64 = 4096;
    const SIZE: u64 = 6000;
    for (name, backend) in [("dafs", Backend::dafs()), ("ufs", Backend::ufs())] {
        for pipeline in ["enable", "disable"] {
            let what = format!("{name} pipeline={pipeline}");
            Testbed::new(backend.clone()).run(2, move |ctx, comm, adio| {
                let host = comm.host().clone();
                let mut hints = Hints::default();
                hints.set("romio_cb_pipeline", pipeline);
                let f = MpiFile::open(ctx, adio, &host, "/eof", OpenMode::create(), hints).unwrap();
                let at = comm.rank() as u64 * BLOCK;
                let mine = 0xAA + comm.rank() as u8;
                let buf = host.mem.alloc(BLOCK as usize);
                host.mem.fill(buf, BLOCK as usize, mine);
                assert_eq!(write_at_all(ctx, comm, &f, at, buf, BLOCK), Ok(BLOCK));
                if comm.rank() == 0 {
                    f.set_size(ctx, SIZE).unwrap();
                }
                comm.barrier(ctx);
                host.mem.fill(buf, BLOCK as usize, 0xEE);
                let n = read_at_all(ctx, comm, &f, at, buf, BLOCK).unwrap();
                let want = BLOCK.min(SIZE - at);
                assert_eq!(n, want, "{what} rank {}", comm.rank());
                let got = host.mem.read_vec(buf, BLOCK as usize);
                let (read, rest) = got.split_at(want as usize);
                assert!(read.iter().all(|&b| b == mine), "{what}: wrong bytes read");
                assert!(
                    rest.iter().all(|&b| b == 0xEE),
                    "{what}: bytes past EOF landed"
                );
            });
        }
    }
}

/// The aggregators' collective buffers outlive the call: eight ranks
/// 4 KiB-interleaved on two striped DAFS servers, pipelined, two
/// `write_at_all`s then two `read_at_all`s of `N` bytes each on one handle.
/// The first write touches each buffer twice, which registers it; the second
/// write finds every window's buffer registered, so it registers nothing and
/// its inline list writes gather their segments in place — no payload byte
/// copied — and the second read's direct reads land in the same buffers
/// without a registration. Every byte read back is the second write's.
#[test]
fn the_second_collective_call_registers_and_copies_nothing() {
    const RANKS: u64 = 8;
    const N: u64 = 256 << 10;
    // (registrations, payload bytes copied) after each call.
    let marks = Arc::new(std::sync::Mutex::new(Vec::new()));
    let m = marks.clone();
    Testbed::new(Backend::dafs_striped(2)).run(RANKS as usize, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let mut hints = Hints::default();
        hints.set("cb_buffer_size", "65536");
        let f = MpiFile::open(ctx, adio, &host, "/twice", OpenMode::create(), hints).unwrap();
        let el = Datatype::bytes(4096);
        let mine = Datatype::hindexed(&[(1, comm.rank() as i64 * 4096)], &el);
        f.set_view(0, &el, &Datatype::resized(&mine, 0, RANKS * 4096));
        let buf = host.mem.alloc(N as usize);
        // Every rank's registrations and copies are in: a call ends in a
        // barrier, and the next one does neither before rank 0 joins it.
        let mark = || {
            if comm.rank() == 0 {
                let snap = ctx.obs().snapshot(ctx.now().as_nanos());
                let registrations = snap.expect("via.mem.registered").field("ops");
                let copied = snap.expect("dafs.inline.copied_bytes").value();
                m.lock().unwrap().push((registrations, copied));
            }
        };
        let fill = |call: u8| comm.rank() as u8 * 2 + call + 1;
        for call in 0..2 {
            host.mem.fill(buf, N as usize, fill(call));
            assert_eq!(write_at_all(ctx, comm, &f, 0, buf, N), Ok(N));
            mark();
        }
        f.sync(ctx).unwrap();
        comm.barrier(ctx);
        for _ in 0..2 {
            host.mem.fill(buf, N as usize, 0);
            assert_eq!(read_at_all(ctx, comm, &f, 0, buf, N), Ok(N));
            assert_eq!(
                host.mem.read_vec(buf, N as usize),
                vec![fill(1); N as usize],
                "rank {}",
                comm.rank()
            );
            mark();
        }
    });
    let marks = marks.lock().unwrap();
    let [w1, w2, r1, r2] = marks[..] else {
        panic!("four calls, four marks: {marks:?}")
    };
    assert_eq!(w2.0 - w1.0, 0, "the second write registers: {marks:?}");
    assert_eq!(w2.1 - w1.1, 0, "the second write copies: {marks:?}");
    assert_eq!(r2.0 - r1.0, 0, "the second read registers: {marks:?}");
}

/// Aggregate DAFS bandwidth grows with client count until the server NIC
/// saturates near the wire rate.
#[test]
fn scaling_reaches_server_wire_saturation() {
    const PER_RANK: usize = 4 << 20;
    fn agg_bw(ranks: usize) -> f64 {
        let tb = Testbed::new(Backend::dafs());
        let end = Arc::new(AtomicU64::new(0));
        let e2 = end.clone();
        tb.run(ranks, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(ctx, adio, &host, "/s", OpenMode::create(), Hints::default())
                .unwrap();
            let src = host.mem.alloc(PER_RANK);
            comm.barrier(ctx);
            let t0 = ctx.now();
            f.write_at(ctx, (comm.rank() * PER_RANK) as u64, src, PER_RANK as u64)
                .unwrap();
            comm.barrier(ctx);
            e2.fetch_max(ctx.now().since(t0).as_nanos(), Ordering::Relaxed);
        });
        (ranks * PER_RANK) as f64 / (end.load(Ordering::Relaxed) as f64 / 1e9) / 1e6
    }
    let bw1 = agg_bw(1);
    let bw4 = agg_bw(4);
    let bw8 = agg_bw(8);
    // One client nearly saturates a DAFS server on large writes; more
    // clients must not exceed the wire and must not collapse.
    assert!(bw4 <= 111.0 && bw8 <= 111.0, "over the wire? {bw4} {bw8}");
    assert!(
        bw8 > 95.0,
        "saturated aggregate should hold near wire: {bw8}"
    );
    assert!(bw1 > 80.0, "single client underperforms: {bw1}");
}

use mpio_dafs::memfs;

/// The `dafs_cache` hint end to end: `enable` routes the MPI-IO data path
/// through the lease-coherent client cache (re-reads and get_size become
/// client-local), the default leaves the op stream untouched.
#[test]
fn dafs_cache_hint_serves_rereads_from_client_cache() {
    const LEN: usize = 64 << 10;
    fn run(cache_hint: Option<&'static str>) -> (u64, u64) {
        let tb = Testbed::new(Backend::dafs());
        let f = tb.fs.create(memfs::ROOT_ID, "hot").unwrap();
        let payload: Vec<u8> = (0..LEN as u32).map(|i| (i % 239) as u8).collect();
        tb.fs.write(f.id, 0, &payload).unwrap();
        let report = tb.run(1, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let mut hints = Hints::default();
            if let Some(v) = cache_hint {
                hints.set("dafs_cache", v);
            }
            let f = MpiFile::open(ctx, adio, &host, "/hot", OpenMode::open(), hints).unwrap();
            let dst = host.mem.alloc(LEN);
            for _ in 0..4 {
                host.mem.fill(dst, LEN, 0);
                let n = f.read_at(ctx, 0, dst, LEN as u64).unwrap();
                assert_eq!(n as usize, LEN);
                assert_eq!(
                    host.mem.read_vec(dst, LEN),
                    (0..LEN as u32)
                        .map(|i| (i % 239) as u8)
                        .collect::<Vec<u8>>()
                );
                assert_eq!(f.get_size(ctx).unwrap(), LEN as u64);
            }
        });
        let metric = |k: &str| report.snapshot.get(k).map(|e| e.value()).unwrap_or(0);
        (metric("dafs.cache.hits"), metric("dafs.cache.attr_hits"))
    }
    let (hits, attr_hits) = run(Some("enable"));
    assert!(hits >= 3, "re-reads never hit the cache: {hits}");
    assert!(
        attr_hits >= 3,
        "get_size never hit the cached attr: {attr_hits}"
    );
    // Default (automatic) and explicit disable: strictly opt-in, so the
    // cache must stay cold and unregistered.
    assert_eq!(run(None), (0, 0));
    assert_eq!(run(Some("disable")), (0, 0));
}

/// Run-length form of a byte image, so a mismatch prints a few pairs
/// instead of sixteen thousand numbers.
type Runs = Vec<(u8, usize)>;

fn runs(bytes: &[u8]) -> Runs {
    let mut out = Runs::new();
    for &b in bytes {
        match out.last_mut() {
            Some((v, n)) if *v == b => *n += 1,
            _ => out.push((b, 1)),
        }
    }
    out
}

/// A write-back session (`cache_write_back` + `dafs_cache=enable`) buffers
/// 16 KiB of `0x55` dirty over a server file of `0xAA`, then goes through a
/// 1-KiB-of-every-4-KiB view on the same handle: optionally a strided write
/// of `0x77`, then a strided read, then `sync`. Returns what the read saw
/// and the server file afterwards, both run-length encoded.
fn strided_access_over_dirty_pages(strided_write: bool) -> (Runs, Runs) {
    const LEN: usize = 16 << 10;
    let backend = Backend::Dafs {
        client: DafsClientConfig {
            cache_write_back: true,
            ..DafsClientConfig::default()
        },
        servers: 1,
    };
    let tb = Testbed::new(backend);
    let fs = tb.fs.clone();
    let node = fs.create(memfs::ROOT_ID, "wb").unwrap();
    fs.write(node.id, 0, &[0xAA; LEN]).unwrap();
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let s2 = seen.clone();
    tb.run(1, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let mut hints = Hints::default();
        hints.set("dafs_cache", "enable");
        let f = MpiFile::open(ctx, adio, &host, "/wb", OpenMode::open(), hints).unwrap();
        let buf = host.mem.alloc(LEN);
        host.mem.fill(buf, LEN, 0x55);
        f.write_at(ctx, 0, buf, LEN as u64).unwrap();
        let el = Datatype::bytes(1 << 10);
        f.set_view(0, &el, &Datatype::resized(&el, 0, 4 << 10));
        if strided_write {
            host.mem.fill(buf, 4 << 10, 0x77);
            f.write_at(ctx, 0, buf, 4 << 10).unwrap();
        }
        host.mem.fill(buf, 4 << 10, 0);
        assert_eq!(f.read_at(ctx, 0, buf, 4 << 10).unwrap(), 4 << 10);
        *s2.lock().unwrap() = runs(&host.mem.read_vec(buf, 4 << 10));
        f.sync(ctx).unwrap();
    });
    let stored = runs(&fs.read(node.id, 0, 1 << 20).unwrap());
    let seen = seen.lock().unwrap().clone();
    (seen, stored)
}

/// ROADMAP "Leases that are live: terms, expiry, fencing, and recalls
/// serviced", its cache bypass, read side: a list read on a handle that
/// holds dirty write-back pages must return the buffered bytes, not the
/// server's pre-write ones.
#[test]
fn list_read_sees_buffered_write_back_data() {
    let (seen, stored) = strided_access_over_dirty_pages(false);
    assert_eq!(
        seen,
        [(0x55, 4 << 10)],
        "strided read went past dirty pages"
    );
    assert_eq!(stored, [(0x55, 16 << 10)]);
}

/// Write side of the same bug: a list write over dirty pages must not
/// drop them unflushed — after `sync` the file holds the buffered 16 KiB
/// with the strided kilobytes on top, not the strided kilobytes alone.
#[test]
fn list_write_does_not_drop_dirty_write_back_pages() {
    let (seen, stored) = strided_access_over_dirty_pages(true);
    assert_eq!(seen, [(0x77, 4 << 10)]);
    let want: Runs = (0..4)
        .flat_map(|_| [(0x77, 1 << 10), (0x55, 3 << 10)])
        .collect();
    assert_eq!(stored, want, "dirty pages were dropped unflushed");
}

/// A dense view is the byte stream, whatever its tile size: one seeded
/// script of independent, split-phase and shared-pointer I/O must end at
/// the same virtual time, after the same number of DAFS requests, with the
/// same file, under the default view and under dense views tiled by 1 byte
/// and by 4 KiB (the view layer maps all three to one range per call).
#[test]
fn dense_views_are_the_byte_stream() {
    const REGION: u64 = 1 << 20;
    const MAX: u64 = 200 << 10;
    fn run(tile: Option<u64>) -> (u64, u64, Vec<u8>) {
        let tb = Testbed::new(Backend::dafs());
        let fs = tb.fs.clone();
        let report = tb.run(2, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/dense",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            if let Some(tile) = tile {
                f.set_view(0, &Datatype::bytes(1), &Datatype::bytes(tile));
            }
            // Each rank owns one region; shared-pointer appends land past both.
            if comm.rank() == 0 {
                f.seek_shared(ctx, 2 * REGION).unwrap();
            }
            comm.barrier(ctx);
            let base = comm.rank() as u64 * REGION;
            let mut model = vec![0u8; REGION as usize];
            let mut rng = Rng64::new(0xD15E ^ comm.rank() as u64);
            let buf = host.mem.alloc(MAX as usize);
            for _ in 0..48 {
                let len = rng.range(1, MAX + 1);
                let off = rng.range(0, REGION - len + 1);
                let op = rng.range(0, 5);
                if matches!(op, 0 | 2 | 4) {
                    let data = rng.bytes(len as usize);
                    host.mem.write(buf, &data);
                    match op {
                        0 => assert_eq!(f.write_at(ctx, base + off, buf, len).unwrap(), len),
                        2 => assert_eq!(
                            f.iwrite_at(ctx, base + off, buf, len).wait(ctx).unwrap(),
                            len
                        ),
                        _ => {
                            f.write_shared(ctx, buf, len).unwrap();
                            continue;
                        }
                    }
                    model[off as usize..(off + len) as usize].copy_from_slice(&data);
                } else {
                    host.mem.fill(buf, len as usize, 0);
                    let n = match op {
                        1 => f.read_at(ctx, base + off, buf, len).unwrap(),
                        _ => f.iread_at(ctx, base + off, buf, len).wait(ctx).unwrap(),
                    } as usize;
                    // Short only at end of file; what came back is this
                    // rank's own bytes (holes read as zeros).
                    assert_eq!(
                        host.mem.read_vec(buf, n),
                        &model[off as usize..off as usize + n]
                    );
                }
            }
        });
        let attr = fs.resolve("/dense").unwrap();
        (
            report.end_time.as_nanos(),
            report.snapshot.expect("dafs.ops").value(),
            fs.read(attr.id, 0, attr.size).unwrap(),
        )
    }
    let default = run(None);
    assert!(default.2.len() as u64 > 2 * REGION, "no shared appends");
    for tile in [1, 4096] {
        let dense = run(Some(tile));
        assert_eq!(
            (dense.0, dense.1),
            (default.0, default.1),
            "bytes({tile}) view: (end time, dafs.ops) differ from the default view"
        );
        assert!(
            dense.2 == default.2,
            "bytes({tile}) view: file image differs"
        );
    }
}

/// Memory-side datatypes go through the datatype's flattened form on every
/// call: a 1 000-run memory type round-trips through the file, lands packed
/// in it, and leaves the holes between its runs untouched.
#[test]
fn thousand_run_memory_type_round_trips() {
    const RUNS: u64 = 1_000;
    const TILES: u64 = 2;
    let tb = Testbed::new(Backend::dafs());
    let fs = tb.fs.clone();
    tb.run(1, |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/mem",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        // 8 bytes of every 16.
        let memtype = Datatype::resized(
            &Datatype::vector(RUNS, 1, 2, &Datatype::bytes(8)),
            0,
            RUNS * 16,
        );
        assert_eq!(memtype.flatten().runs.len() as u64, RUNS);
        let span = (TILES * RUNS * 16) as usize;
        let payload = TILES * RUNS * 8;
        let pattern: Vec<u8> = (0..span as u32).map(|i| (i % 251) as u8).collect();
        let src = host.mem.alloc(span);
        host.mem.write(src, &pattern);
        for _ in 0..2 {
            assert_eq!(
                f.write_at_mem(ctx, 0, src, &memtype, payload).unwrap(),
                payload
            );
        }
        let dst = host.mem.alloc(span);
        host.mem.fill(dst, span, 0xEE);
        assert_eq!(
            f.read_at_mem(ctx, 0, dst, &memtype, payload).unwrap(),
            payload
        );
        let got = host.mem.read_vec(dst, span);
        for (i, (g, p)) in got.iter().zip(&pattern).enumerate() {
            let want = if i % 16 < 8 { *p } else { 0xEE };
            assert_eq!(*g, want, "memory byte {i}");
        }
    });
    let attr = fs.resolve("/mem").unwrap();
    let packed: Vec<u8> = (0..(TILES * RUNS * 16) as u32)
        .filter(|i| i % 16 < 8)
        .map(|i| (i % 251) as u8)
        .collect();
    assert!(fs.read(attr.id, 0, attr.size).unwrap() == packed);
}

/// Host naming is uniform across every testbed shape: `server<s>` hosts
/// first, then (on switched testbeds) the switch pseudo-hosts, one per switch,
/// then `rank<i>` hosts — no more special-cased two-host `client`/`server`
/// worlds.
#[test]
fn testbed_host_naming_is_uniform() {
    for backend in [Backend::dafs(), Backend::nfs()] {
        let tb = Testbed::new(backend);
        tb.run(2, |_ctx, _comm, _adio| {});
    }
    // Point-to-point testbeds name the server host `server0`.
    let tb = Testbed::new(Backend::dafs());
    assert_eq!(tb.host_names(), vec!["server0"]);

    // Switched testbeds insert the fabric pseudo-hosts between servers and
    // ranks; rank hosts appear once the job spawns them.
    let tb = Testbed::switched(2, 2, 1);
    assert_eq!(
        tb.host_names(),
        vec!["server0", "server1", "leaf-srv", "leaf-cli"]
    );
    let names = Arc::new(std::sync::Mutex::new(Vec::new()));
    let n2 = names.clone();
    tb.run(2, move |_ctx, comm, _adio| {
        n2.lock().unwrap().push(comm.host().name().to_string());
    });
    let mut ranks = names.lock().unwrap().clone();
    ranks.sort();
    assert_eq!(ranks, vec!["rank0", "rank1"]);

    // Striped point-to-point testbeds count their servers the same way.
    let tb = Testbed::new(Backend::dafs_striped(3));
    assert_eq!(tb.host_names(), vec!["server0", "server1", "server2"]);
}
