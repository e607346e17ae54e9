//! # mpiio — MPI-IO on DAFS over VIA (the paper's contribution)
//!
//! An MPI-2 I/O implementation whose ADIO bottom end speaks the DAFS
//! protocol over the Virtual Interface Architecture, with NFS-over-TCP and
//! node-local drivers for comparison — the system the paper *"MPI/IO on
//! DAFS over VIA: Implementation and Performance Evaluation"* (IPPS 2002)
//! built and measured.
//!
//! Layers:
//! * [`comm`] — a simulated MPI communicator (ranks as deterministic
//!   actors; point-to-point with tag matching; barrier/bcast/allgather/
//!   alltoallv collectives).
//! * [`datatype`] / [`view`] — derived datatypes and file views, with the
//!   flattening and logical→physical translation all I/O goes through.
//! * `file` — `MPI_File`: independent I/O (explicit offset, individual
//!   and shared file pointers), data sieving for noncontiguous access,
//!   nonblocking requests, sync.
//! * [`collective`] — two-phase collective I/O with configurable
//!   aggregators and collective-buffer sweeps.
//! * [`adio`] — the driver interface + DAFS/NFS/UFS drivers.
//! * [`hints`] — the ROMIO-compatible hint set.
//! * [`world`] — the cluster harness used by examples, tests, and the
//!   experiment suite.

#![warn(missing_docs)]

pub mod adio;
pub mod collective;
pub mod comm;
pub mod datatype;
pub mod file;
pub mod hints;
pub mod view;
pub mod world;

pub use adio::{
    AdioError, AdioFile, AdioFs, AdioRequest, AdioResult, BatchDir, DafsAdio, DriverKind, IoFault,
    IoReq, NfsAdio, PendingIo, Shape, UfsAdio,
};
pub use collective::{
    read_all, read_at_all, read_at_all_begin, read_at_all_end, read_ordered, write_all,
    write_at_all, write_at_all_begin, write_at_all_end, write_ordered, SplitColl,
};
pub use comm::{Comm, CommWorld, ReduceOp, TrafficStats};
pub use datatype::{Datatype, Flattened};
pub use file::{mpi_file_delete, MpiFile, OpenMode, Request, SeekWhence};
pub use hints::{HintField, HintValue, Hints, TriState};
pub use view::FileView;
pub use world::{Backend, JobReport, Testbed};

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simnet::{ActorCtx, SimDuration};
    use std::sync::Arc;

    /// Write a rank-striped file collectively on `backend`, read it back
    /// independently, verify every byte on the server.
    fn striped_roundtrip(backend: Backend, ranks: usize, block: usize) {
        let tb = Testbed::new(backend);
        let fs = tb.fs.clone();
        let report = tb.run(ranks, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let file = MpiFile::open(
                ctx,
                adio,
                &host,
                "/data/striped.bin",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            // View: this rank owns every `ranks`-th block of `block` bytes.
            let el = Datatype::bytes(block as u64);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (comm.rank() * block) as i64)], &el),
                0,
                (ranks * block) as u64,
            );
            file.set_view(0, &el, &ft);
            let src = host.mem.alloc(2 * block);
            for b in 0..2 {
                host.mem.fill(
                    src.offset((b * block) as u64),
                    block,
                    (comm.rank() * 2 + b + 1) as u8,
                );
            }
            write_at_all(ctx, comm, &file, 0, src, (2 * block) as u64).unwrap();
            comm.barrier(ctx);
            // Read back my stripes independently and verify.
            let dst = host.mem.alloc(2 * block);
            let n = file.read_at(ctx, 0, dst, (2 * block) as u64).unwrap();
            assert_eq!(n, (2 * block) as u64);
            for b in 0..2 {
                let got = host.mem.read_vec(dst.offset((b * block) as u64), block);
                assert_eq!(got, vec![(comm.rank() * 2 + b + 1) as u8; block]);
            }
        });
        assert!(report.end_time.as_nanos() > 0);
        // Server-side byte check: block r of round b belongs to rank r.
        let attr = fs.resolve("/data/striped.bin").unwrap();
        assert_eq!(attr.size, (2 * ranks * block) as u64);
        for b in 0..2 {
            for r in 0..ranks {
                let off = (b * ranks * block + r * block) as u64;
                let got = fs.read(attr.id, off, 4).unwrap();
                assert_eq!(got, vec![(r * 2 + b + 1) as u8; 4], "round {b} rank {r}");
            }
        }
    }

    #[test]
    fn striped_collective_roundtrip_dafs() {
        striped_roundtrip(Backend::dafs(), 4, 64 << 10);
    }

    #[test]
    fn striped_collective_roundtrip_nfs() {
        striped_roundtrip(Backend::nfs(), 4, 64 << 10);
    }

    #[test]
    fn striped_collective_roundtrip_ufs() {
        striped_roundtrip(Backend::ufs(), 4, 64 << 10);
    }

    #[test]
    fn striped_collective_roundtrip_dafs_striped() {
        // The full MPI-level path (views + two-phase collective + sieving
        // heuristics) over the striped driver, 2 servers.
        let ranks = 4usize;
        let block = 64 << 10; // == the stripe unit below
        let servers = 2usize;
        let tb = Testbed::new(Backend::dafs_striped(servers));
        let fss = tb.server_fss.clone();
        tb.run(ranks, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let mut hints = Hints::default();
            hints.set("striping_unit", &(64 << 10).to_string());
            let file = MpiFile::open(
                ctx,
                adio,
                &host,
                "/data/striped.bin",
                OpenMode::create(),
                hints,
            )
            .unwrap();
            let el = Datatype::bytes(block as u64);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (comm.rank() * block) as i64)], &el),
                0,
                (ranks * block) as u64,
            );
            file.set_view(0, &el, &ft);
            let src = host.mem.alloc(2 * block);
            for b in 0..2 {
                host.mem.fill(
                    src.offset((b * block) as u64),
                    block,
                    (comm.rank() * 2 + b + 1) as u8,
                );
            }
            write_at_all(ctx, comm, &file, 0, src, (2 * block) as u64).unwrap();
            comm.barrier(ctx);
            let dst = host.mem.alloc(2 * block);
            let n = file.read_at(ctx, 0, dst, (2 * block) as u64).unwrap();
            assert_eq!(n, (2 * block) as u64);
            for b in 0..2 {
                let got = host.mem.read_vec(dst.offset((b * block) as u64), block);
                assert_eq!(got, vec![(comm.rank() * 2 + b + 1) as u8; block]);
            }
            // The logical size is assembled from per-server piece sizes.
            let f = adio.open(ctx, "/data/striped.bin", false).unwrap();
            assert_eq!(f.get_size(ctx).unwrap(), (2 * ranks * block) as u64);
        });
        // Server-side distribution check: logical block g (of 8) lives on
        // server g % 2 at local block g / 2, and block g = b*ranks + r
        // carries rank r's round-b fill byte.
        let stripe = 64 << 10;
        let blocks = 2 * ranks;
        for (s, fs) in fss.iter().enumerate() {
            let attr = fs.resolve("/data/striped.bin").unwrap();
            assert_eq!(
                attr.size,
                (blocks / servers * stripe) as u64,
                "server {s} piece size"
            );
        }
        for g in 0..blocks {
            let fs = &fss[g % servers];
            let attr = fs.resolve("/data/striped.bin").unwrap();
            let local = ((g / servers) * stripe) as u64;
            let expect = ((g % ranks) * 2 + g / ranks + 1) as u8;
            assert_eq!(
                fs.read(attr.id, local, 4).unwrap(),
                vec![expect; 4],
                "logical block {g}"
            );
        }
    }

    #[test]
    fn striping_factor_hint_restricts_servers() {
        // striping_factor=1 on a 2-server mount: all bytes land on server
        // 0, server 1 never sees the file.
        let tb = Testbed::new(Backend::dafs_striped(2));
        let fss = tb.server_fss.clone();
        tb.run(1, move |ctx, comm, adio| {
            let hints = Hints::from_pairs([("striping_factor", "1")]);
            let f = adio.open_with_hints(ctx, "/one.bin", true, &hints).unwrap();
            let host = comm.host().clone();
            let src = host.mem.alloc(256 << 10);
            host.mem.fill(src, 256 << 10, 0x5A);
            f.write_contig(ctx, 0, src, 256 << 10).unwrap();
            assert_eq!(f.get_size(ctx).unwrap(), 256 << 10);
        });
        let attr = fss[0].resolve("/one.bin").unwrap();
        assert_eq!(attr.size, 256 << 10);
        assert_eq!(fss[0].read(attr.id, 0, 8).unwrap(), vec![0x5A; 8]);
        assert!(
            fss[1].resolve("/one.bin").is_err(),
            "server 1 must stay empty"
        );
    }

    /// Open `/life` on every rank, 4 KiB-interleaved across `comm`.
    fn open_interleaved(ctx: &ActorCtx, comm: &Comm, adio: &dyn AdioFs, hints: Hints) -> MpiFile {
        let f = MpiFile::open(ctx, adio, comm.host(), "/life", OpenMode::create(), hints).unwrap();
        let el = Datatype::bytes(4096);
        let mine = Datatype::hindexed(&[(1, comm.rank() as i64 * 4096)], &el);
        f.set_view(
            0,
            &el,
            &Datatype::resized(&mine, 0, comm.size() as u64 * 4096),
        );
        f
    }

    /// A collective write of `n` bytes of `fill` per rank, then a
    /// collective read of them, every byte checked, from a buffer of its
    /// own that it frees.
    fn write_read_all(ctx: &ActorCtx, comm: &Comm, f: &MpiFile, n: u64, fill: u8) {
        let mem = &comm.host().mem;
        let buf = mem.alloc(n as usize);
        mem.fill(buf, n as usize, fill);
        assert_eq!(write_at_all(ctx, comm, f, 0, buf, n), Ok(n));
        mem.fill(buf, n as usize, 0);
        assert_eq!(read_at_all(ctx, comm, f, 0, buf, n), Ok(n));
        assert_eq!(mem.read_vec(buf, n as usize), vec![fill; n as usize]);
        mem.free(buf);
    }

    /// A handle's collective buffers live as long as it does: on UFS, NFS
    /// and DAFS the rank's memory holds them between calls and is back
    /// where it was before the open once the handle is closed — or dropped
    /// without a close.
    #[test]
    fn collective_buffers_go_with_the_handle() {
        for (kind, backend) in [
            ("ufs", Backend::ufs()),
            ("nfs", Backend::nfs()),
            ("dafs", Backend::dafs()),
        ] {
            Testbed::new(backend).run(4, move |ctx, comm, adio| {
                let mem = &comm.host().mem;
                // What the mount keeps for itself comes with the first open
                // (DAFS: the scratch buffer its shared-pointer file is
                // created through).
                drop(open_interleaved(ctx, comm, adio, Hints::default()));
                comm.barrier(ctx);
                for close in [true, false] {
                    let before = mem.allocated_bytes();
                    let hints = Hints::from_pairs([("cb_buffer_size", "65536")]);
                    let f = open_interleaved(ctx, comm, adio, hints);
                    write_read_all(ctx, comm, &f, 64 << 10, comm.rank() as u8 + 1);
                    // Two buffers: the sweep is pipelined.
                    assert_eq!(mem.allocated_bytes() - before, 2 << 16, "{kind}");
                    if close {
                        f.close(ctx, adio).unwrap();
                    } else {
                        drop(f);
                    }
                    assert_eq!(mem.allocated_bytes(), before, "{kind} close={close}");
                }
            });
        }
    }

    /// On two striped servers a window widens with the extent, up to
    /// `cb_buffer_size`: a small collective then a wider one on one handle
    /// grows its buffers, and the bytes still check.
    #[test]
    fn a_wider_sweep_grows_the_collective_buffers() {
        Testbed::new(Backend::dafs_striped(2)).run(4, |ctx, comm, adio| {
            let mem = &comm.host().mem;
            let hints =
                Hints::from_pairs([("cb_buffer_size", "262144"), ("striping_unit", "65536")]);
            let f = open_interleaved(ctx, comm, adio, hints);
            let before = mem.allocated_bytes();
            // 256 KiB in all: one 64 KiB stripe per aggregator.
            write_read_all(ctx, comm, &f, 64 << 10, 1);
            assert_eq!(mem.allocated_bytes() - before, 2 * (64 << 10));
            // 1 MiB: 256 KiB windows.
            write_read_all(ctx, comm, &f, 256 << 10, 2);
            assert_eq!(mem.allocated_bytes() - before, 2 * (256 << 10));
            write_read_all(ctx, comm, &f, 64 << 10, 3);
            assert_eq!(mem.allocated_bytes() - before, 2 * (256 << 10));
            drop(f);
            assert_eq!(mem.allocated_bytes(), before);
        });
    }

    /// A window batch that fails on the one aggregator strands no peer:
    /// the aggregator still takes part in every exchange and the closing
    /// barrier, then returns the error; its peer, not told, returns. Both
    /// directions, both sweep depths; the file is removed under the open
    /// handles.
    #[test]
    fn a_failed_aggregator_strands_no_peer() {
        for dir in [BatchDir::Write, BatchDir::Read] {
            for pipeline in ["disable", "enable"] {
                let got = Arc::new(Mutex::new(vec![None; 2]));
                let seen = got.clone();
                Testbed::new(Backend::dafs()).run(2, move |ctx, comm, adio| {
                    let hints =
                        Hints::from_pairs([("cb_nodes", "1"), ("romio_cb_pipeline", pipeline)]);
                    let f = open_interleaved(ctx, comm, adio, hints);
                    let buf = comm.host().mem.alloc(64 << 10);
                    comm.barrier(ctx);
                    if comm.rank() == 0 {
                        adio.delete(ctx, "/life").unwrap();
                    }
                    comm.barrier(ctx);
                    let r = match dir {
                        BatchDir::Write => write_at_all(ctx, comm, &f, 0, buf, 64 << 10),
                        BatchDir::Read => read_at_all(ctx, comm, &f, 0, buf, 64 << 10),
                    };
                    seen.lock()[comm.rank()] = Some(r);
                });
                let got = got.lock();
                let what = format!("{dir:?} romio_cb_pipeline={pipeline}");
                assert_eq!(got[0], Some(Err(AdioError::NoSuchFile)), "{what}");
                assert!(matches!(got[1], Some(Ok(_))), "{what}: {:?}", got[1]);
            }
        }
    }

    /// An ordered call on a driver without a shared file pointer fails on
    /// every rank, with rank 0's error, instead of leaving the peers
    /// waiting for a base that never comes.
    #[test]
    fn an_ordered_call_without_a_shared_pointer_fails_on_every_rank() {
        for (kind, backend) in [("nfs", Backend::nfs()), ("ufs", Backend::ufs())] {
            let got = Arc::new(Mutex::new(Vec::new()));
            let seen = got.clone();
            Testbed::new(backend).run(2, move |ctx, comm, adio| {
                let host = comm.host();
                let f = MpiFile::open(
                    ctx,
                    adio,
                    host,
                    "/ord",
                    OpenMode::create(),
                    Hints::default(),
                )
                .unwrap();
                let buf = host.mem.alloc(4096);
                let w = write_ordered(ctx, comm, &f, buf, 4096);
                let r = read_ordered(ctx, comm, &f, buf, 4096);
                seen.lock().push((w, r));
            });
            let no = Err(AdioError::NotSupported);
            assert_eq!(*got.lock(), vec![(no, no); 2], "{kind}");
        }
    }

    /// A failed sieved read or write, and a failed transfer through a
    /// memory datatype, give back the sieve buffer and the staging buffer:
    /// the rank's memory is where it was before each call.
    #[test]
    fn a_failed_access_frees_its_buffers() {
        Testbed::new(Backend::dafs()).run(1, |ctx, comm, adio| {
            let (host, mem) = (comm.host(), &comm.host().mem);
            let hints = Hints::from_pairs([
                ("dafs_listio", "disable"),
                ("romio_ds_read", "enable"),
                ("romio_ds_write", "enable"),
            ]);
            let f = MpiFile::open(ctx, adio, host, "/gone", OpenMode::create(), hints).unwrap();
            // Every other 16-byte block: a strided view, which sieves.
            let el = Datatype::bytes(16);
            f.set_view(0, &el, &Datatype::resized(&el, 0, 32));
            let buf = mem.alloc(4096);
            mem.fill(buf, 4096, 7);
            assert_eq!(f.write_at(ctx, 0, buf, 1024), Ok(1024));
            adio.delete(ctx, "/gone").unwrap();
            let memtype = Datatype::resized(&Datatype::bytes(8), 0, 16);
            let before = mem.allocated_bytes();
            let calls: [(&str, &dyn Fn() -> AdioResult<u64>); 4] = [
                ("sieved read", &|| f.read_at(ctx, 0, buf, 1024)),
                ("sieved write", &|| f.write_at(ctx, 0, buf, 1024)),
                ("read_at_mem", &|| {
                    f.read_at_mem(ctx, 0, buf, &memtype, 1024)
                }),
                ("write_at_mem", &|| {
                    f.write_at_mem(ctx, 0, buf, &memtype, 1024)
                }),
            ];
            for (what, call) in calls {
                assert!(call().is_err(), "{what} on a removed file");
                assert_eq!(mem.allocated_bytes(), before, "{what} leaked");
            }
        });
    }

    #[test]
    fn independent_contiguous_partition() {
        // Each rank writes its own contiguous slab at an explicit offset.
        let tb = Testbed::new(Backend::dafs());
        let fs = tb.fs.clone();
        const SLAB: usize = 256 << 10;
        tb.run(4, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let file = MpiFile::open(
                ctx,
                adio,
                &host,
                "/slabs",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            let src = host.mem.alloc(SLAB);
            host.mem.fill(src, SLAB, comm.rank() as u8 + 0x40);
            file.write_at(ctx, (comm.rank() * SLAB) as u64, src, SLAB as u64)
                .unwrap();
            comm.barrier(ctx);
            assert_eq!(file.get_size(ctx).unwrap(), (4 * SLAB) as u64);
        });
        let attr = fs.resolve("/slabs").unwrap();
        for r in 0..4 {
            let got = fs.read(attr.id, (r * SLAB) as u64, 2).unwrap();
            assert_eq!(got, vec![r as u8 + 0x40; 2]);
        }
    }

    #[test]
    fn individual_pointer_sequential_io() {
        let tb = Testbed::new(Backend::dafs());
        tb.run(1, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/seq",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            let buf = host.mem.alloc(100);
            host.mem.fill(buf, 100, 1);
            f.write(ctx, buf, 100).unwrap();
            host.mem.fill(buf, 100, 2);
            f.write(ctx, buf, 100).unwrap();
            assert_eq!(f.position(), 200);
            f.seek(0);
            let dst = host.mem.alloc(200);
            assert_eq!(f.read(ctx, dst, 200).unwrap(), 200);
            assert_eq!(host.mem.read_vec(dst, 1), vec![1]);
            assert_eq!(host.mem.read_vec(dst.offset(100), 1), vec![2]);
        });
    }

    #[test]
    fn shared_pointer_partitions_stream_dafs() {
        // 4 ranks each write_shared 3 chunks, every chunk its own fill; the
        // 12 chunks must tile the file without gaps or overlaps. Then the
        // pointer goes back to 0 and each rank read_shared-s 3 chunks: the
        // 12 reads must tile the file the same way.
        let tb = Testbed::new(Backend::dafs());
        let fs = tb.fs.clone();
        const CHUNK: usize = 1 << 10;
        let read_back = Arc::new(Mutex::new(Vec::new()));
        let seen = read_back.clone();
        tb.run(4, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/shared",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            let buf = host.mem.alloc(CHUNK);
            for i in 0..3 {
                host.mem.fill(buf, CHUNK, (comm.rank() * 3 + i) as u8 + 1);
                f.write_shared(ctx, buf, CHUNK as u64).unwrap();
            }
            comm.barrier(ctx);
            if comm.rank() == 0 {
                f.seek_shared(ctx, 0).unwrap();
            }
            comm.barrier(ctx);
            for _ in 0..3 {
                assert_eq!(f.read_shared(ctx, buf, CHUNK as u64), Ok(CHUNK as u64));
                seen.lock().push(host.mem.read_vec(buf, CHUNK));
            }
        });
        let attr = fs.resolve("/shared").unwrap();
        assert_eq!(attr.size, (12 * CHUNK) as u64);
        // Each chunk is uniformly one write's fill, and every fill is there.
        let fills = |chunks: &mut dyn Iterator<Item = Vec<u8>>| {
            let mut fills: Vec<u8> = chunks
                .map(|b| {
                    assert!(b.iter().all(|&x| x == b[0]), "chunk of {} torn", b[0]);
                    b[0]
                })
                .collect();
            fills.sort_unstable();
            fills
        };
        let all: Vec<u8> = (1..=12).collect();
        let stored =
            &mut (0..12).map(|k| fs.read(attr.id, (k * CHUNK) as u64, CHUNK as u64).unwrap());
        assert_eq!(fills(stored), all);
        assert_eq!(fills(&mut read_back.lock().drain(..)), all, "read_shared");
    }

    #[test]
    fn shared_pointer_unsupported_on_nfs() {
        let tb = Testbed::new(Backend::nfs());
        tb.run(1, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(ctx, adio, &host, "/x", OpenMode::create(), Hints::default())
                .unwrap();
            let b = host.mem.alloc(8);
            assert_eq!(
                f.write_shared(ctx, b, 8).unwrap_err(),
                AdioError::NotSupported
            );
        });
    }

    #[test]
    fn nonblocking_requests_complete() {
        let tb = Testbed::new(Backend::dafs());
        tb.run(1, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/nb",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            let src = host.mem.alloc(4096);
            host.mem.fill(src, 4096, 9);
            let mut w = f.iwrite_at(ctx, 0, src, 4096);
            // Poll until the write lands, then collect it.
            while !w.test(ctx) {}
            assert_eq!(w.wait(ctx).unwrap(), 4096);
            let dst = host.mem.alloc(4096);
            let r = f.iread_at(ctx, 0, dst, 4096);
            assert_eq!(r.wait(ctx).unwrap(), 4096);
            assert_eq!(host.mem.read_vec(dst, 4), vec![9; 4]);
        });
    }

    #[test]
    fn set_size_sync_and_delete_on_close() {
        let tb = Testbed::new(Backend::dafs());
        let fs = tb.fs.clone();
        tb.run(1, |ctx, comm, adio| {
            let host = comm.host().clone();
            let mode = OpenMode {
                create: true,
                delete_on_close: true,
            };
            let f = MpiFile::open(ctx, adio, &host, "/scratch", mode, Hints::default()).unwrap();
            f.set_size(ctx, 1 << 20).unwrap();
            assert_eq!(f.get_size(ctx).unwrap(), 1 << 20);
            f.preallocate(ctx, 512).unwrap(); // smaller: no-op
            assert_eq!(f.get_size(ctx).unwrap(), 1 << 20);
            f.sync(ctx).unwrap();
            f.close(ctx, adio).unwrap();
        });
        assert!(fs.resolve("/scratch").is_err(), "delete_on_close");
    }

    #[test]
    fn strided_view_independent_write_with_sieving() {
        // One rank, noncontiguous view, ds_write enabled: the data must
        // land in the right holes and preserve what's between them.
        let tb = Testbed::new(Backend::dafs());
        let fs = tb.fs.clone();
        tb.run(1, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let mut hints = Hints::default();
            hints.set("romio_ds_write", "enable");
            hints.set("romio_ds_read", "enable");
            let f = MpiFile::open(ctx, adio, &host, "/sieved", OpenMode::create(), hints).unwrap();
            // Pre-fill so RMW has something to preserve.
            let fill = host.mem.alloc(1 << 10);
            host.mem.fill(fill, 1 << 10, 0xEE);
            f.write_at(ctx, 0, fill, 1 << 10).unwrap();
            // View: 16 bytes taken every 64.
            let ft = Datatype::resized(&Datatype::bytes(16), 0, 64);
            f.set_view(0, &Datatype::bytes(1), &ft);
            let src = host.mem.alloc(8 * 16);
            host.mem.fill(src, 8 * 16, 0x33);
            f.write_at(ctx, 0, src, 8 * 16).unwrap();
            // Read back through the same view.
            let dst = host.mem.alloc(8 * 16);
            assert_eq!(f.read_at(ctx, 0, dst, 8 * 16).unwrap(), 8 * 16);
            assert_eq!(host.mem.read_vec(dst, 8 * 16), vec![0x33; 8 * 16]);
        });
        let attr = fs.resolve("/sieved").unwrap();
        let data = fs.read(attr.id, 0, 1 << 10).unwrap();
        for (i, &b) in data.iter().enumerate() {
            let expect = if i % 64 < 16 && i < 8 * 64 {
                0x33
            } else {
                0xEE
            };
            assert_eq!(b, expect, "byte {i}");
        }
    }

    #[test]
    fn etype_granular_offsets() {
        // File pointer arithmetic in 8-byte etypes.
        let tb = Testbed::new(Backend::ufs());
        tb.run(1, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/ints",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            let el = Datatype::bytes(8);
            f.set_view(0, &el, &el);
            let one = host.mem.alloc(8);
            host.mem.write(one, &7u64.to_le_bytes());
            // Write the 5th element (byte offset 40).
            f.write_at(ctx, 5, one, 8).unwrap();
            assert_eq!(f.get_size(ctx).unwrap(), 48);
            let dst = host.mem.alloc(8);
            f.read_at(ctx, 5, dst, 8).unwrap();
            assert_eq!(host.mem.read_vec(dst, 8), 7u64.to_le_bytes());
        });
    }

    #[test]
    fn collective_on_interleaved_views_equals_independent() {
        // The same interleaved pattern written collectively and
        // independently must produce identical files.
        fn run(two_phase: bool) -> Vec<u8> {
            let tb = Testbed::new(Backend::dafs());
            let fs = tb.fs.clone();
            const BLOCK: usize = 8 << 10;
            const ROUNDS: usize = 4;
            tb.run(4, move |ctx, comm, adio| {
                let host = comm.host().clone();
                let mut hints = Hints::default();
                if !two_phase {
                    hints.set("romio_cb_write", "disable");
                }
                let f = MpiFile::open(ctx, adio, &host, "/cmp", OpenMode::create(), hints).unwrap();
                let el = Datatype::bytes(BLOCK as u64);
                let ft = Datatype::resized(
                    &Datatype::hindexed(&[(1, (comm.rank() * BLOCK) as i64)], &el),
                    0,
                    (4 * BLOCK) as u64,
                );
                f.set_view(0, &el, &ft);
                let src = host.mem.alloc(ROUNDS * BLOCK);
                for r in 0..ROUNDS {
                    host.mem.fill(
                        src.offset((r * BLOCK) as u64),
                        BLOCK,
                        (comm.rank() * ROUNDS + r) as u8,
                    );
                }
                write_at_all(ctx, comm, &f, 0, src, (ROUNDS * BLOCK) as u64).unwrap();
            });
            let attr = fs.resolve("/cmp").unwrap();
            fs.read(attr.id, 0, attr.size).unwrap()
        }
        let a = run(true);
        let b = run(false);
        assert_eq!(a.len(), 4 * 4 * (8 << 10));
        assert_eq!(a, b, "two-phase and independent files must match");
    }

    #[test]
    fn collective_read_matches_written_data() {
        let tb = Testbed::new(Backend::dafs());
        const BLOCK: usize = 16 << 10;
        tb.run(4, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/cr",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            let el = Datatype::bytes(BLOCK as u64);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (comm.rank() * BLOCK) as i64)], &el),
                0,
                (4 * BLOCK) as u64,
            );
            f.set_view(0, &el, &ft);
            let src = host.mem.alloc(2 * BLOCK);
            host.mem.fill(src, 2 * BLOCK, comm.rank() as u8 + 10);
            write_at_all(ctx, comm, &f, 0, src, (2 * BLOCK) as u64).unwrap();
            comm.barrier(ctx);
            let dst = host.mem.alloc(2 * BLOCK);
            let n = read_at_all(ctx, comm, &f, 0, dst, (2 * BLOCK) as u64).unwrap();
            assert_eq!(n, (2 * BLOCK) as u64);
            assert_eq!(
                host.mem.read_vec(dst, 2 * BLOCK),
                vec![comm.rank() as u8 + 10; 2 * BLOCK]
            );
        });
    }

    #[test]
    fn write_all_advances_individual_pointer() {
        let tb = Testbed::new(Backend::ufs());
        tb.run(2, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/wa",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            // Rank-interleaved 1 KiB blocks.
            let el = Datatype::bytes(1024);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (comm.rank() * 1024) as i64)], &el),
                0,
                2048,
            );
            f.set_view(0, &el, &ft);
            let src = host.mem.alloc(1024);
            host.mem.fill(src, 1024, comm.rank() as u8 + 1);
            write_all(ctx, comm, &f, src, 1024).unwrap();
            assert_eq!(f.position(), 1); // one etype consumed
            write_all(ctx, comm, &f, src, 1024).unwrap();
            assert_eq!(f.position(), 2);
            // Read back both rounds.
            f.seek(0);
            let dst = host.mem.alloc(2048);
            assert_eq!(read_all(ctx, comm, &f, dst, 2048).unwrap(), 2048);
            assert_eq!(
                host.mem.read_vec(dst, 2048),
                vec![comm.rank() as u8 + 1; 2048]
            );
        });
    }

    #[test]
    fn seek_whence_modes() {
        let tb = Testbed::new(Backend::ufs());
        tb.run(1, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/sk",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            // 8-byte etypes; write 10 elements.
            let el = Datatype::bytes(8);
            f.set_view(0, &el, &el);
            let buf = host.mem.alloc(80);
            f.write_at(ctx, 0, buf, 80).unwrap();
            // SEEK_END lands on element 10.
            assert_eq!(f.seek_whence(ctx, 0, SeekWhence::End).unwrap(), 10);
            assert_eq!(f.seek_whence(ctx, -3, SeekWhence::End).unwrap(), 7);
            assert_eq!(f.seek_whence(ctx, 2, SeekWhence::Cur).unwrap(), 9);
            assert_eq!(f.seek_whence(ctx, 4, SeekWhence::Set).unwrap(), 4);
            assert_eq!(f.position(), 4);
            // Under a strided view, END uses the view-relative length.
            let ft = Datatype::resized(&el, 0, 16); // every other element
            f.set_view(0, &el, &ft);
            // File is 80 bytes; the view covers elements at 0,16,32,48,64:
            // 5 full etypes.
            assert_eq!(f.seek_whence(ctx, 0, SeekWhence::End).unwrap(), 5);
        });
    }

    #[test]
    fn byte_offset_translation() {
        let tb = Testbed::new(Backend::ufs());
        tb.run(1, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/bo",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            let el = Datatype::bytes(4);
            let ft = Datatype::resized(&el, 0, 16);
            f.set_view(100, &el, &ft);
            assert_eq!(f.get_byte_offset(0), 100);
            assert_eq!(f.get_byte_offset(1), 116);
            assert_eq!(f.get_byte_offset(3), 148);
        });
    }

    #[test]
    fn memory_datatype_scatter_gather() {
        // Write from a strided memory layout, read back into a different
        // strided layout; the file holds the packed stream.
        let tb = Testbed::new(Backend::dafs());
        let fs = tb.fs.clone();
        tb.run(1, move |ctx, comm, adio| {
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
            // Memory: 8 bytes taken every 32 (e.g. one field of a struct
            // array).
            let memtype = Datatype::resized(&Datatype::bytes(8), 0, 32);
            let src = host.mem.alloc(32 * 16);
            for i in 0..16u64 {
                host.mem.write(src.offset(i * 32), &i.to_le_bytes());
                host.mem.fill(src.offset(i * 32 + 8), 24, 0xFF); // padding
            }
            f.write_at_mem(ctx, 0, src, &memtype, 16 * 8).unwrap();
            // Read the packed stream back through a *different* memory
            // stride.
            let memtype2 = Datatype::resized(&Datatype::bytes(8), 0, 64);
            let dst = host.mem.alloc(64 * 16);
            let n = f.read_at_mem(ctx, 0, dst, &memtype2, 16 * 8).unwrap();
            assert_eq!(n, 128);
            for i in 0..16u64 {
                let got = host.mem.read_vec(dst.offset(i * 64), 8);
                assert_eq!(got, i.to_le_bytes());
            }
        });
        // The file itself is the packed 128-byte stream.
        let attr = fs.resolve("/mem").unwrap();
        assert_eq!(attr.size, 128);
        let data = fs.read(attr.id, 0, 128).unwrap();
        for i in 0..16u64 {
            assert_eq!(
                &data[(i * 8) as usize..(i * 8 + 8) as usize],
                i.to_le_bytes()
            );
        }
    }

    #[test]
    fn ordered_collective_partitions_in_rank_order() {
        let tb = Testbed::new(Backend::dafs());
        let fs = tb.fs.clone();
        tb.run(4, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/ord",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            // Variable sizes per rank: (rank+1) KiB.
            let len = (comm.rank() + 1) * 1024;
            let src = host.mem.alloc(len);
            host.mem.fill(src, len, comm.rank() as u8 + 1);
            // Two rounds of ordered writes.
            write_ordered(ctx, comm, &f, src, len as u64).unwrap();
            write_ordered(ctx, comm, &f, src, len as u64).unwrap();
            // Ordered read-back: each rank reads its own-size slice again.
            let dst = host.mem.alloc(len);
            f.seek_shared(ctx, 0).unwrap();
            comm.barrier(ctx);
            let n = read_ordered(ctx, comm, &f, dst, len as u64).unwrap();
            assert_eq!(n, len as u64);
            assert_eq!(
                host.mem.read_vec(dst, len),
                vec![comm.rank() as u8 + 1; len]
            );
        });
        // File layout: round 0 = 1K of 1s, 2K of 2s, 3K of 3s, 4K of 4s;
        // then round 1 repeats.
        let attr = fs.resolve("/ord").unwrap();
        let round = 1024 + 2048 + 3072 + 4096;
        assert_eq!(attr.size, 2 * round as u64);
        let data = fs.read(attr.id, 0, attr.size).unwrap();
        for base in [0usize, round] {
            let mut off = base;
            for r in 0..4usize {
                let len = (r + 1) * 1024;
                assert!(
                    data[off..off + len].iter().all(|&b| b == r as u8 + 1),
                    "round@{base} rank {r}"
                );
                off += len;
            }
        }
    }

    #[test]
    fn split_collectives_roundtrip() {
        let tb = Testbed::new(Backend::dafs());
        tb.run(2, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/split",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            let el = Datatype::bytes(4096);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (comm.rank() * 4096) as i64)], &el),
                0,
                2 * 4096,
            );
            f.set_view(0, &el, &ft);
            let src = host.mem.alloc(8192);
            host.mem.fill(src, 8192, comm.rank() as u8 + 7);
            let split = write_at_all_begin(ctx, comm, &f, 0, src, 8192);
            // ("overlap" window here)
            assert_eq!(write_at_all_end(ctx, split).unwrap(), 8192);
            comm.barrier(ctx);
            let dst = host.mem.alloc(8192);
            let split = read_at_all_begin(ctx, comm, &f, 0, dst, 8192);
            assert_eq!(read_at_all_end(ctx, split).unwrap(), 8192);
            assert_eq!(
                host.mem.read_vec(dst, 8192),
                vec![comm.rank() as u8 + 7; 8192]
            );
        });
    }

    #[test]
    fn concurrent_sieved_writes_do_not_clobber() {
        // Four ranks write interleaved fine-grained blocks with data
        // sieving forced ON: each sieved RMW window overlaps other ranks'
        // bytes, so only the file lock keeps this correct.
        let tb = Testbed::new(Backend::dafs());
        let fs = tb.fs.clone();
        const BLOCK: u64 = 256;
        const ROUNDS: u64 = 16;
        const RANKS: usize = 4;
        tb.run(RANKS, move |ctx, comm, adio| {
            let host = comm.host().clone();
            let mut hints = Hints::default();
            hints.set("romio_cb_write", "disable");
            hints.set("romio_ds_write", "enable");
            let f = MpiFile::open(ctx, adio, &host, "/rmw", OpenMode::create(), hints).unwrap();
            let el = Datatype::bytes(BLOCK);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (comm.rank() as u64 * BLOCK) as i64)], &el),
                0,
                RANKS as u64 * BLOCK,
            );
            f.set_view(0, &el, &ft);
            let src = host.mem.alloc((ROUNDS * BLOCK) as usize);
            host.mem
                .fill(src, (ROUNDS * BLOCK) as usize, comm.rank() as u8 + 1);
            // All ranks write concurrently; sieved RMW windows overlap.
            f.write_at(ctx, 0, src, ROUNDS * BLOCK).unwrap();
            comm.barrier(ctx);
        });
        let attr = fs.resolve("/rmw").unwrap();
        assert_eq!(attr.size, ROUNDS * RANKS as u64 * BLOCK);
        let data = fs.read(attr.id, 0, attr.size).unwrap();
        for round in 0..ROUNDS {
            for r in 0..RANKS {
                let start = ((round * RANKS as u64 + r as u64) * BLOCK) as usize;
                assert!(
                    data[start..start + BLOCK as usize]
                        .iter()
                        .all(|&b| b == r as u8 + 1),
                    "round {round} rank {r} clobbered"
                );
            }
        }
    }

    #[test]
    fn report_accounts_server_activity() {
        let tb = Testbed::new(Backend::nfs());
        let report = tb.run(2, |ctx, comm, adio| {
            let host = comm.host().clone();
            let f = MpiFile::open(
                ctx,
                adio,
                &host,
                "/acct",
                OpenMode::create(),
                Hints::default(),
            )
            .unwrap();
            let b = host.mem.alloc(64 << 10);
            f.write_at(ctx, (comm.rank() * (64 << 10)) as u64, b, 64 << 10)
                .unwrap();
        });
        assert_eq!(report.backend, DriverKind::Nfs);
        assert!(report.server_ops > 0);
        assert!(report.server_cpu > SimDuration::ZERO);
        assert!(report.server_kernel > SimDuration::ZERO);
        assert!(report.ranks_cpu > SimDuration::ZERO);
    }
}
