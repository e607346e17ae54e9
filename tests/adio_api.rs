//! Unit tests backfilling the typed ADIO API surface: the `OpenOptions`
//! builder, `DriverKind` string round-trips, the `source()` chain threaded
//! through `AdioError::Io`, and the one multi-request transfer every
//! driver carries (shape × direction × blocking/split-phase), with the
//! retry and in-flight accounting around it.

use std::error::Error;
use std::str::FromStr;

use mpio_dafs::dafs::{DafsClientConfig, DafsError};
use mpio_dafs::mpiio::{
    AdioError, Backend, BatchDir, DriverKind, Hints, IoFault, IoReq, MpiFile, OpenMode,
    OpenOptions, Shape, Testbed,
};
use mpio_dafs::nfsv3::NfsError;
use mpio_dafs::simnet::units::ms;
use mpio_dafs::simnet::{FaultPlan, HostId, SimTime};

#[test]
fn driver_kind_round_trips_through_strings() {
    for k in [DriverKind::Dafs, DriverKind::Nfs, DriverKind::Ufs] {
        assert_eq!(DriverKind::from_str(k.as_str()), Ok(k));
        assert_eq!(
            DriverKind::from_str(&k.to_string()),
            Ok(k),
            "Display agrees"
        );
    }
    // Case-insensitive on the way in; canonical lowercase on the way out.
    assert_eq!(DriverKind::from_str("DAFS"), Ok(DriverKind::Dafs));
    assert_eq!(DriverKind::Dafs.as_str(), "dafs");
    assert!(DriverKind::from_str("pvfs").is_err());
    assert!(DriverKind::from_str("").is_err());
}

#[test]
fn open_options_default_is_plain_open_of_existing_file() {
    let tb = Testbed::new(Backend::ufs());
    tb.run(1, |ctx, comm, adio| {
        let host = comm.host().clone();
        // Defaults: no create, no delete-on-close.
        let err = OpenOptions::new()
            .open(ctx, adio, &host, "/missing")
            .unwrap_err();
        assert_eq!(err, AdioError::NoSuchFile);
        let _ = comm;
    });
}

#[test]
fn open_options_overrides_take_effect() {
    let tb = Testbed::new(Backend::ufs());
    let fs = tb.fs.clone();
    tb.run(1, |ctx, comm, adio| {
        let host = comm.host().clone();
        // create(true) materialises the file; it persists after close.
        let f = OpenOptions::new()
            .create(true)
            .open(ctx, adio, &host, "/kept")
            .unwrap();
        f.close(ctx, adio).unwrap();
        OpenOptions::new()
            .open(ctx, adio, &host, "/kept")
            .unwrap()
            .close(ctx, adio)
            .unwrap();
        // delete_on_close(true) removes it at close.
        let f = OpenOptions::new()
            .create(true)
            .delete_on_close(true)
            .open(ctx, adio, &host, "/scratch")
            .unwrap();
        f.close(ctx, adio).unwrap();
        assert_eq!(
            OpenOptions::new()
                .open(ctx, adio, &host, "/scratch")
                .unwrap_err(),
            AdioError::NoSuchFile
        );
        // mode() replaces the whole mode in one call.
        let f = OpenOptions::new()
            .mode(OpenMode::create())
            .open(ctx, adio, &host, "/via-mode")
            .unwrap();
        f.close(ctx, adio).unwrap();
        // Later setters override earlier ones.
        let err = OpenOptions::new()
            .create(true)
            .create(false)
            .open(ctx, adio, &host, "/never-created")
            .unwrap_err();
        assert_eq!(err, AdioError::NoSuchFile);
        let _ = comm;
    });
    assert!(fs.resolve("/kept").is_ok());
    assert!(fs.resolve("/via-mode").is_ok());
    assert!(fs.resolve("/scratch").is_err());
    assert!(fs.resolve("/never-created").is_err());
}

#[test]
fn adio_error_source_chains_to_the_driver_error() {
    let e = AdioError::Io(IoFault::Nfs(NfsError::TimedOut));
    let fault = e.source().expect("Io must expose its fault");
    let inner = fault
        .source()
        .expect("the fault must expose the driver error");
    assert!(
        inner.downcast_ref::<NfsError>().is_some(),
        "chain must bottom out at the driver's own error type"
    );
    assert!(inner.source().is_none(), "TimedOut is a leaf");
    // Non-Io variants are leaves.
    assert!(AdioError::NoSuchFile.source().is_none());
    assert!(AdioError::Io(IoFault::Protocol)
        .source()
        .unwrap()
        .source()
        .is_none());
}

/// Every driver × shape × blocking/split-phase × sorted/unsorted batch, in
/// both directions: three 40 KiB requests (they straddle the 64 KiB stripe
/// edges of the two-server layout) land exactly their bytes, and come back
/// through the same call. An unsorted `Shape::List` batch must quietly
/// travel as a plain batch. A missing path is `NoSuchFile` everywhere.
#[test]
fn every_driver_carries_every_transfer_shape() {
    const LEN: u64 = 40 << 10;
    const SPAN: usize = 256 << 10;
    let backends = [
        ("dafs x1", Backend::dafs()),
        ("dafs x2", Backend::dafs_striped(2)),
        ("nfs", Backend::nfs()),
        ("ufs", Backend::ufs()),
    ];
    for (name, backend) in backends {
        Testbed::new(backend).run(1, move |ctx, comm, adio| {
            let mem = &comm.host().mem;
            assert_eq!(adio.delete(ctx, "/absent"), Err(AdioError::NoSuchFile));
            let (buf, back) = (mem.alloc(3 * LEN as usize), mem.alloc(SPAN));
            let mut case = 0u8;
            for shape in [Shape::Batch, Shape::List] {
                for split_phase in [false, true] {
                    for sorted in [true, false] {
                        case += 1;
                        let tag = format!("{name} {shape:?} split={split_phase} sorted={sorted}");
                        let f = adio.open(ctx, &format!("/t{case}"), true).unwrap();
                        let mut reqs: Vec<IoReq> = (0..3)
                            .map(|i| IoReq {
                                off: (10 << 10) + i * (80 << 10),
                                addr: buf.offset(i * LEN),
                                len: LEN,
                            })
                            .collect();
                        if !sorted {
                            // Descending in the file, ascending in memory.
                            let offs: Vec<u64> = reqs.iter().rev().map(|r| r.off).collect();
                            for (r, off) in reqs.iter_mut().zip(offs) {
                                r.off = off;
                            }
                        }
                        let go = |dir| {
                            if split_phase {
                                f.itransfer(ctx, dir, shape, &reqs).wait(ctx)
                            } else {
                                f.transfer(ctx, dir, shape, &reqs)
                            }
                        };
                        let mut want = vec![0u8; SPAN];
                        for (i, r) in reqs.iter().enumerate() {
                            let fill = case * 8 + i as u8;
                            mem.fill(r.addr, LEN as usize, fill);
                            want[r.off as usize..(r.off + LEN) as usize].fill(fill);
                        }
                        assert_eq!(go(BatchDir::Write), Ok(3 * LEN), "{tag}");
                        let end = (170 << 10) + LEN;
                        assert_eq!(f.get_size(ctx), Ok(end), "{tag}");
                        assert_eq!(f.read_contig(ctx, 0, back, SPAN as u64), Ok(end), "{tag}");
                        let image = mem.read_vec(back, end as usize);
                        assert!(image == want[..end as usize], "{tag}: wrong bytes landed");
                        mem.fill(buf, 3 * LEN as usize, 0);
                        assert_eq!(go(BatchDir::Read), Ok(3 * LEN), "{tag}");
                        for (i, r) in reqs.iter().enumerate() {
                            let got = mem.read_vec(r.addr, LEN as usize);
                            assert!(
                                got == vec![case * 8 + i as u8; LEN as usize],
                                "{tag} req {i}"
                            );
                        }
                    }
                }
            }
        });
    }
}

/// A write whose `off + len` passes `u64::MAX` comes back as an I/O error
/// on every backend — it used to kill the NFS server's actor (or, on UFS
/// and through the DAFS driver's stripe arithmetic, the rank) in a debug
/// build, and in a release build wrap onto the head of the file or, on
/// DAFS, into an empty piece list that reported success — and the file is
/// intact and usable through the same handle afterwards. The split-phase
/// form answers what the blocking form answers, in both shapes, and so
/// does a read longer than the NFS rsize at the same offset (the NFS
/// split-phase halves used to step their chunk offsets past `u64::MAX`,
/// which a debug build caught as an overflow). DAFS is driven over one
/// session and two, with the `dafs_cache` hint off and on. The DAFS
/// server's half of this is `qos.rs`'s raw-frame test
/// `a_write_past_the_last_offset_is_refused_by_the_server`.
#[test]
fn every_backend_refuses_a_write_past_the_last_offset() {
    let cases = [
        ("nfs", Backend::nfs(), None),
        ("ufs", Backend::ufs(), None),
        ("dafs", Backend::dafs(), None),
        ("dafs cached", Backend::dafs(), Some("enable")),
        ("dafs x2", Backend::dafs_striped(2), None),
        ("dafs x2 cached", Backend::dafs_striped(2), Some("enable")),
    ];
    for (name, backend, cache) in cases {
        Testbed::new(backend).run(1, move |ctx, comm, adio| {
            let mem = &comm.host().mem;
            let mut hints = Hints::default();
            if let Some(v) = cache {
                hints.set("dafs_cache", v);
            }
            let f = adio.open_with_hints(ctx, "/edge", true, &hints).unwrap();
            let buf = mem.alloc(40 << 10);
            mem.fill(buf, 16, 0xAB);
            f.write_contig(ctx, 0, buf, 16).unwrap();
            mem.fill(buf, 16, 0xCD);
            let r = f.write_contig(ctx, u64::MAX - 1, buf, 4);
            assert!(matches!(r, Err(AdioError::Io(_))), "{name}: {r:?}");
            let at_the_end = |len| {
                [IoReq {
                    off: u64::MAX - 1,
                    addr: buf,
                    len,
                }]
            };
            for shape in [Shape::Batch, Shape::List] {
                let reqs = at_the_end(4);
                let r = f.transfer(ctx, BatchDir::Write, shape, &reqs);
                assert!(
                    matches!(r, Err(AdioError::Io(_))),
                    "{name} {shape:?}: {r:?}"
                );
                let split = f.itransfer(ctx, BatchDir::Write, shape, &reqs).wait(ctx);
                assert_eq!(split, r, "{name} {shape:?}: split-phase write");
                let reqs = at_the_end(40 << 10);
                let r = f.transfer(ctx, BatchDir::Read, shape, &reqs);
                let split = f.itransfer(ctx, BatchDir::Read, shape, &reqs).wait(ctx);
                assert_eq!(split, r, "{name} {shape:?}: split-phase read");
            }
            assert_eq!(f.get_size(ctx), Ok(16), "{name}");
            assert_eq!(f.read_contig(ctx, 0, buf, 64), Ok(16), "{name}");
            assert!(
                mem.read_vec(buf, 16) == vec![0xAB; 16],
                "{name}: head overwritten"
            );
        });
    }
}

/// What a handle reads depends neither on how many servers its file
/// stripes over nor on the hints it was opened with. A write-back handle
/// buffers 128 KiB dirty; a default-hints handle on the same rank — the
/// same sessions, which cache the pieces since the first open — reads it,
/// sizes it and overwrites part of it *through the cache*: the same bytes
/// at one and two stripes, `dafs.cache.hits` moving and not one request
/// reaching a server. (It used to be a second route past the cache: over
/// one stripe stale until PR 21, then flushing the file first.) A handle on
/// another rank's sessions sees the data only after the holder's flush:
/// its read parks until the holder syncs at 40 ms.
#[test]
fn an_uncached_handle_reads_what_a_write_back_handle_buffered_at_any_stripe_count() {
    const LEN: u64 = 128 << 10;
    for servers in [1, 2] {
        let backend = Backend::Dafs {
            via: Default::default(),
            server: Default::default(),
            client: DafsClientConfig {
                cache_write_back: true,
                ..DafsClientConfig::default()
            },
            servers,
        };
        Testbed::new(backend).run(2, move |ctx, comm, adio| {
            let mem = &comm.host().mem;
            let buf = mem.alloc(LEN as usize);
            let expect = [vec![0xCC; 1000], vec![0xBB; LEN as usize - 1000]].concat();
            if comm.rank() == 1 {
                ctx.advance(ms(20));
                let other = adio.open(ctx, "/wb", false).unwrap();
                assert_eq!(other.read_contig(ctx, 0, buf, LEN), Ok(LEN), "x{servers}");
                assert!(
                    mem.read_vec(buf, LEN as usize) == expect,
                    "x{servers}: stale"
                );
                assert!(ctx.now() >= SimTime::ZERO + ms(40), "x{servers}: no park");
                return;
            }
            let mut cached = Hints::default();
            cached.set("dafs_cache", "enable");
            let w = adio.open_with_hints(ctx, "/wb", true, &cached).unwrap();
            let r = adio.open(ctx, "/wb", false).unwrap();
            mem.fill(buf, LEN as usize, 0xBB);
            w.write_contig(ctx, 0, buf, LEN).unwrap();
            let count = |name: &str| ctx.metrics().total(name);
            let (requests, hits) = (count("dafs.ops"), count("dafs.cache.hits"));
            mem.fill(buf, LEN as usize, 0);
            assert_eq!(r.read_contig(ctx, 0, buf, LEN), Ok(LEN), "x{servers}");
            assert!(
                mem.read_vec(buf, LEN as usize) == vec![0xBB; LEN as usize],
                "x{servers}: stale bytes"
            );
            assert_eq!(r.get_size(ctx), Ok(LEN), "x{servers}");
            mem.fill(buf, 1000, 0xCC);
            r.write_contig(ctx, 0, buf, 1000).unwrap();
            assert_eq!(w.read_contig(ctx, 0, buf, LEN), Ok(LEN), "x{servers}");
            assert!(mem.read_vec(buf, LEN as usize) == expect, "x{servers}");
            assert!(count("dafs.cache.hits") > hits, "x{servers}: no hit");
            assert_eq!(count("dafs.ops"), requests, "x{servers}: went to a server");
            ctx.advance(ms(40));
            w.flush(ctx).unwrap();
        });
    }
}

/// A split-phase call on a file its sessions cache takes the route the
/// blocking call takes: through the cache. After a `read_at` an `iread_at`
/// of the same range is a hit and reaches no server (it used to go past the
/// cache: one more request, after flushing the file). An `iwrite_at` into
/// the middle is then what the next `read_at` sees.
#[test]
fn a_split_phase_call_on_a_cached_file_goes_through_the_cache() {
    const LEN: u64 = 16 << 10;
    Testbed::new(Backend::dafs()).run(1, |ctx, comm, adio| {
        let host = comm.host().clone();
        let mut hints = Hints::default();
        hints.set("dafs_cache", "enable");
        let f = MpiFile::open(ctx, adio, &host, "/c", OpenMode::create(), hints).unwrap();
        let buf = host.mem.alloc(LEN as usize);
        host.mem.fill(buf, LEN as usize, 0x5A);
        assert_eq!(f.write_at(ctx, 0, buf, LEN), Ok(LEN));
        assert_eq!(f.read_at(ctx, 0, buf, LEN), Ok(LEN));
        let count = |name: &str| ctx.metrics().total(name);
        let (requests, hits) = (count("dafs.ops"), count("dafs.cache.hits"));
        host.mem.fill(buf, LEN as usize, 0);
        assert_eq!(f.iread_at(ctx, 0, buf, LEN).wait(ctx), Ok(LEN));
        assert!(host.mem.read_vec(buf, LEN as usize) == vec![0x5A; LEN as usize]);
        assert!(count("dafs.cache.hits") > hits, "no hit");
        assert_eq!(count("dafs.ops"), requests, "went to the server");
        host.mem.fill(buf, 1000, 0xC3);
        assert_eq!(f.iwrite_at(ctx, 100, buf, 1000).wait(ctx), Ok(1000));
        host.mem.fill(buf, LEN as usize, 0);
        assert_eq!(f.read_at(ctx, 0, buf, LEN), Ok(LEN));
        let want = [
            vec![0x5A; 100],
            vec![0xC3; 1000],
            vec![0x5A; LEN as usize - 1100],
        ];
        assert!(
            host.mem.read_vec(buf, LEN as usize) == want.concat(),
            "stale"
        );
        f.close(ctx, adio).unwrap();
    });
}

/// The retry budget around the DAFS transfers, and what `adio.inflight`
/// counts. The sessions cannot reconnect (`max_reconnects: 0`) and the
/// server dies for good at 5 ms, so every attempt after that fails with a
/// transient fault. A blocking call is the split-phase one plus its wait,
/// so both re-attempt `ADIO_RETRIES` = 2 times and give up — one budget
/// (a split-phase request used to bump once more, for a fallback to the
/// blocking path that then spent the budget again) — and every DAFS
/// transfer, blocking or not, is in flight until its wait, one at a time.
#[test]
fn transient_faults_spend_one_retry_budget_and_every_dafs_transfer_is_in_flight() {
    let backend = Backend::Dafs {
        via: Default::default(),
        server: Default::default(),
        client: DafsClientConfig {
            max_reconnects: 0,
            ..DafsClientConfig::default()
        },
        servers: 1,
    };
    // The file server is always host 0.
    let (from, until) = (SimTime::ZERO + ms(5), SimTime::ZERO + ms(600_000));
    let crash = FaultPlan::builder(1)
        .host_crash(HostId(0), from, until)
        .build();
    Testbed::with_faults(backend, crash).run(1, |ctx, comm, adio| {
        let mem = &comm.host().mem;
        let f = adio.open(ctx, "/r", true).unwrap();
        let buf = mem.alloc(16 << 10);
        let reqs: Vec<IoReq> = (0..4)
            .map(|i| IoReq {
                off: i * (8 << 10),
                addr: buf.offset(i * (4 << 10)),
                len: 4 << 10,
            })
            .collect();
        let retries = || ctx.metrics().counter("adio.retries").get();
        let in_flight = || ctx.metrics().histogram("adio.inflight").count();
        // Healthy: five blocking calls, each in flight until its wait.
        for shape in [Shape::Batch, Shape::List] {
            assert_eq!(f.transfer(ctx, BatchDir::Write, shape, &reqs), Ok(16 << 10));
            assert_eq!(f.transfer(ctx, BatchDir::Read, shape, &reqs), Ok(16 << 10));
        }
        f.write_contig(ctx, 0, buf, 4 << 10).unwrap();
        assert_eq!((retries(), in_flight()), (0, 5));
        assert!(ctx.now() < SimTime::ZERO + ms(5), "setup outran the crash");
        ctx.advance(ms(10));
        let transient = |r: Result<u64, AdioError>| {
            matches!(
                r,
                Err(AdioError::Io(IoFault::Dafs(DafsError::Transport(_))))
            )
        };
        assert!(transient(f.transfer(
            ctx,
            BatchDir::Read,
            Shape::List,
            &reqs
        )));
        assert_eq!((retries(), in_flight()), (2, 6));
        assert!(transient(f.read_contig(ctx, 0, buf, 4 << 10)));
        assert_eq!((retries(), in_flight()), (4, 7));
        let req = f.itransfer(ctx, BatchDir::Write, Shape::List, &reqs);
        assert_eq!(in_flight(), 8);
        assert!(transient(req.wait(ctx)));
        assert_eq!((retries(), in_flight()), (4 + 2, 8));
        let depth = ctx.metrics().histogram("adio.inflight").max();
        assert_eq!(depth, 1, "one transfer at a time");
    });
}

/// Two split-phase writes outstanding together on one DAFS session: 16
/// inline chunks of 32 KiB against the session's 8 credits. The first
/// request takes the whole window; the second posts as replies arrive,
/// whichever request is waited on first — waiting on the second receives
/// and keeps the first's replies, which frees their slots. Neither order
/// breaks the VI or loses a write. (Each batch used to fill its own window:
/// 16 requests on 8 receive descriptors broke the VI when the replies came
/// in unread, and waiting on the second first wedged the rank.)
#[test]
fn two_overlapping_dafs_writes_share_the_session_window() {
    const LEN: u64 = 256 << 10;
    for second_first in [true, false] {
        let tb = Testbed::new(Backend::dafs());
        let fs = tb.fs.clone();
        let report = tb.run(1, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/two",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            let buf = host.mem.alloc(2 * LEN as usize);
            host.mem.fill(buf, LEN as usize, 0xA1);
            host.mem.fill(buf.offset(LEN), LEN as usize, 0xB2);
            let first = f.iwrite_at(ctx, 0, buf, LEN);
            let second = f.iwrite_at(ctx, LEN, buf.offset(LEN), LEN);
            ctx.advance(ms(20));
            let got = match second_first {
                true => {
                    let b = second.wait(ctx);
                    (first.wait(ctx), b)
                }
                false => (first.wait(ctx), second.wait(ctx)),
            };
            assert_eq!(got, (Ok(LEN), Ok(LEN)), "second first: {second_first}");
            f.close(ctx, adio).unwrap();
        });
        let reconnects = report.snapshot.get("dafs.reconnects").map(|e| e.value());
        assert_eq!(reconnects, Some(0), "second first: {second_first}");
        let attr = fs.resolve("/two").unwrap();
        let image = fs.read(attr.id, 0, attr.size).unwrap();
        let want = [vec![0xA1; LEN as usize], vec![0xB2; LEN as usize]].concat();
        assert!(image == want, "second first: {second_first}");
    }
}

/// What the ADIO layer keeps per rank is per *actor*, not per OS thread
/// (every actor runs on the one thread inside `run`): the NFS driver stages
/// through the memory of the host its own rank declared, and `adio.inflight`
/// records each rank's own depth. Two ranks on two hosts open the same file,
/// keep one split-phase write each in flight across a barrier, then read
/// each other's block. Staged through the other host's arena, a write reads
/// addresses that are the other rank's bytes or not mapped at all; counted
/// together, the second request is recorded at depth 2.
#[test]
fn nfs_ranks_stage_through_their_own_host_and_count_their_own_inflight() {
    const LEN: u64 = 16 << 10;
    Testbed::new(Backend::nfs()).run(2, |ctx, comm, adio| {
        let (me, host) = (comm.rank() as u64, comm.host().clone());
        let (fill, their_fill) = (0xA0 + me as u8, 0xA0 + (1 - me) as u8);
        let file = MpiFile::open(
            ctx,
            adio,
            &host,
            "/two",
            OpenMode::create(),
            Hints::default(),
        )
        .expect("open");
        let buf = host.mem.alloc(2 * LEN as usize);
        host.mem.fill(buf, 2 * LEN as usize, fill);
        // Block `me` split-phase, block `2 + me` blocking.
        let req = file.iwrite_at(ctx, me * LEN, buf, LEN);
        comm.barrier(ctx);
        assert_eq!(req.wait(ctx), Ok(LEN));
        assert_eq!(
            file.write_at(ctx, (2 + me) * LEN, buf.offset(LEN), LEN),
            Ok(LEN)
        );
        comm.barrier(ctx);
        for block in [1 - me, 3 - me] {
            assert_eq!(file.read_at(ctx, block * LEN, buf, LEN), Ok(LEN));
            let got = host.mem.read_vec(buf, LEN as usize);
            assert!(
                got == vec![their_fill; LEN as usize],
                "rank {me} block {block}"
            );
        }
        let depth = ctx.metrics().histogram("adio.inflight");
        assert_eq!((depth.count(), depth.max()), (2, 1), "rank {me}");
        file.close(ctx, adio).expect("close");
    });
}
