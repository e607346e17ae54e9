//! # nfsv3 — the baseline file-access path
//!
//! An NFSv3-subset client and server over the kernel TCP path (`tcpnet`),
//! exporting the same [`memfs`] backend the DAFS server exports. This is
//! the conventional stack the paper's evaluation compares MPI-IO-over-DAFS
//! against: ONC-RPC-style framing, XDR encoding, 32 KiB rsize/wsize
//! transfer chunking, an attribute cache on the client, and a single serial
//! `nfsd` on the server.
//!
//! Wire format is a faithful-in-shape subset of RFC 1813: real procedure
//! numbers and status codes, `fattr3`-like attributes, record marking —
//! enough that the byte counts (and therefore the packet counts and copy
//! costs that dominate the baseline's performance) are honest.

#![warn(missing_docs)]

mod client;
mod proto;
mod server;
pub mod xdr;

pub use client::{
    NfsClient, NfsClientConfig, NfsClientStats, NfsError, NfsIo, NfsResult, NfsTransfer,
    SharedNfsClient,
};
pub use proto::{NfsProc, NfsStatus, Stable};
pub use server::{spawn_nfs_server, NfsServerCost, NfsServerHandle, NfsServerStats};

#[cfg(test)]
mod tests {
    use super::*;
    use memfs::{MemFs, NodeId, ROOT_ID};
    use simnet::time::units::*;
    use simnet::{Cluster, Host, SimKernel};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use tcpnet::{TcpCost, TcpFabric};

    struct Bed {
        kernel: SimKernel,
        fabric: TcpFabric,
        client_host: Host,
        server: NfsServerHandle,
        fs: MemFs,
    }

    fn bed() -> Bed {
        let kernel = SimKernel::new();
        let cluster = Cluster::new();
        let fabric = TcpFabric::new(TcpCost::default());
        let client_host = cluster.add_host("client");
        let server_host = cluster.add_host("server");
        let fs = MemFs::new();
        let server = spawn_nfs_server(
            &kernel,
            &fabric,
            server_host,
            fs.clone(),
            2049,
            NfsServerCost::default(),
        );
        Bed {
            kernel,
            fabric,
            client_host,
            server,
            fs,
        }
    }

    fn with_client(bed: &Bed, f: impl FnOnce(&simnet::ActorCtx, &NfsClient) + Send + 'static) {
        let fabric = bed.fabric.clone();
        let host = bed.client_host.clone();
        let sid = bed.server.host.id;
        bed.kernel.spawn("nfs-client", move |ctx| {
            let c = NfsClient::mount(ctx, &fabric, &host, sid, 2049, NfsClientConfig::default())
                .unwrap();
            f(ctx, &c);
            c.unmount(ctx);
        });
    }

    /// The server listens from the moment it is spawned: a client actor
    /// spawned before it, and so run first at t = 0, mounts. The acceptor
    /// used to bind its listener on its own first turn, after such a client
    /// had dialled and got `Transport(ConnectionRefused)`.
    #[test]
    fn a_client_spawned_before_the_server_mounts() {
        let (kernel, cluster) = (SimKernel::new(), Cluster::new());
        let fabric = TcpFabric::new(TcpCost::default());
        let (host, server_host) = (cluster.add_host("client"), cluster.add_host("server"));
        let (f, sid) = (fabric.clone(), server_host.id);
        let mounted = Arc::new(AtomicU64::new(0));
        let seen = mounted.clone();
        kernel.spawn("nfs-client", move |ctx| {
            let c = NfsClient::mount(ctx, &f, &host, sid, 2049, NfsClientConfig::default());
            c.expect("the server listens once spawned").unmount(ctx);
            seen.fetch_add(1, Ordering::Relaxed);
        });
        let cost = NfsServerCost::default();
        spawn_nfs_server(&kernel, &fabric, server_host, MemFs::new(), 2049, cost);
        kernel.run();
        assert_eq!(mounted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn create_write_read_roundtrip_over_the_wire() {
        let b = bed();
        with_client(&b, |ctx, c| {
            let f = c.create(ctx, ROOT_ID, "data.bin").unwrap();
            let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
            let a = c.write(ctx, f.id, 0, &payload).unwrap();
            assert_eq!(a.size, 100_000);
            let back = c.read(ctx, f.id, 0, 100_000).unwrap();
            assert_eq!(back, payload);
            // Offset read.
            assert_eq!(c.read(ctx, f.id, 99_990, 100).unwrap().len(), 10);
        });
        b.kernel.run();
        // Server really stored it.
        let a = b.fs.resolve("/data.bin").unwrap();
        assert_eq!(a.size, 100_000);
        // Chunked by wsize: 100_000 / 32768 -> 4 write RPCs.
        assert_eq!(b.server.stats.writes.ops.get(), 4);
    }

    #[test]
    fn lookup_and_errors_cross_the_wire() {
        let b = bed();
        b.fs.create(ROOT_ID, "exists").unwrap();
        with_client(&b, |ctx, c| {
            assert!(c.lookup(ctx, ROOT_ID, "exists").is_ok());
            assert_eq!(
                c.lookup(ctx, ROOT_ID, "missing"),
                Err(NfsError::Status(NfsStatus::NoEnt))
            );
            assert_eq!(
                c.create(ctx, ROOT_ID, "exists").unwrap_err(),
                NfsError::Status(NfsStatus::Exist)
            );
            assert_eq!(
                c.getattr_uncached(ctx, NodeId(9999)).unwrap_err(),
                NfsError::Status(NfsStatus::Stale)
            );
        });
        b.kernel.run();
    }

    #[test]
    fn write_past_the_last_offset_is_refused_and_the_mount_lives_on() {
        // `off + len` passes u64::MAX: the nfsd used to die in a debug
        // build ("attempt to add with overflow") and, in a release build,
        // wrap to offset 0 and overwrite the head of the file.
        let b = bed();
        with_client(&b, |ctx, c| {
            let f = c.create(ctx, ROOT_ID, "edge").unwrap();
            let before = c.write(ctx, f.id, 0, &[0xAB; 16]).unwrap();
            assert_eq!(
                c.write(ctx, f.id, u64::MAX - 1, &[0xCD; 4]),
                Err(NfsError::Status(NfsStatus::FBig))
            );
            // Same mount, still answering; nothing moved.
            assert_eq!(c.getattr_uncached(ctx, f.id).unwrap(), before);
            assert_eq!(c.read(ctx, f.id, 0, 64).unwrap(), vec![0xAB; 16]);
        });
        b.kernel.run();
    }

    #[test]
    fn namespace_ops() {
        let b = bed();
        with_client(&b, |ctx, c| {
            let d = c.mkdir(ctx, ROOT_ID, "dir").unwrap();
            c.create(ctx, d.id, "f1").unwrap();
            c.create(ctx, d.id, "f2").unwrap();
            let mut names: Vec<String> = c
                .readdir(ctx, d.id)
                .unwrap()
                .into_iter()
                .map(|e| e.0)
                .collect();
            names.sort();
            assert_eq!(names, vec!["f1", "f2"]);
            assert_eq!(
                c.rmdir(ctx, ROOT_ID, "dir").unwrap_err(),
                NfsError::Status(NfsStatus::NotEmpty)
            );
            c.rename(ctx, d.id, "f1", ROOT_ID, "f1-moved").unwrap();
            c.remove(ctx, d.id, "f2").unwrap();
            c.remove(ctx, ROOT_ID, "f1-moved").unwrap();
            c.rmdir(ctx, ROOT_ID, "dir").unwrap();
            assert_eq!(c.readdir(ctx, ROOT_ID).unwrap().len(), 0);
        });
        b.kernel.run();
    }

    #[test]
    fn truncate_and_resolve() {
        let b = bed();
        with_client(&b, |ctx, c| {
            let d = c.mkdir(ctx, ROOT_ID, "a").unwrap();
            let f = c.create(ctx, d.id, "b").unwrap();
            c.write(ctx, f.id, 0, b"0123456789").unwrap();
            let a = c.truncate(ctx, f.id, 4).unwrap();
            assert_eq!(a.size, 4);
            assert_eq!(c.resolve(ctx, "/a/b").unwrap().size, 4);
            assert_eq!(c.read(ctx, f.id, 0, 100).unwrap(), b"0123");
        });
        b.kernel.run();
    }

    #[test]
    fn attribute_cache_hits_within_timeout() {
        let b = bed();
        with_client(&b, |ctx, c| {
            let f = c.create(ctx, ROOT_ID, "f").unwrap();
            let rpcs_before = c.stats.rpcs.get();
            // Repeated getattr within the window: cache hits, no RPCs.
            for _ in 0..5 {
                c.getattr(ctx, f.id).unwrap();
            }
            assert_eq!(c.stats.rpcs.get(), rpcs_before);
            assert_eq!(c.stats.ac_hits.get(), 5);
            // After the timeout, it must refetch.
            ctx.advance(ms(50));
            c.getattr(ctx, f.id).unwrap();
            assert_eq!(c.stats.rpcs.get(), rpcs_before + 1);
        });
        b.kernel.run();
    }

    #[test]
    fn revalidate_attr_sees_external_write_inside_ttl() {
        // Regression: a client that cached a file's attributes keeps
        // serving them for the full TTL even after another client wrote
        // the file. `revalidate_attr` is the explicit consistency point —
        // one GETATTR round trip — so callers (ADIO's NFS `get_size`) need
        // not wait out the window.
        let kernel = SimKernel::new();
        let cluster = Cluster::new();
        let fabric = TcpFabric::new(TcpCost::default());
        let ha = cluster.add_host("a");
        let hb = cluster.add_host("b");
        let sh = cluster.add_host("s");
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "reval").unwrap();
        fs.write(f.id, 0, &vec![0xAA; 4096]).unwrap();
        let server = spawn_nfs_server(&kernel, &fabric, sh, fs, 2049, NfsServerCost::default());
        let sid = server.host.id;
        {
            let fabric = fabric.clone();
            kernel.spawn("reader", move |ctx| {
                let c = NfsClient::mount(ctx, &fabric, &ha, sid, 2049, NfsClientConfig::default())
                    .unwrap();
                let fh = c.lookup(ctx, ROOT_ID, "reval").unwrap();
                let before = c.getattr(ctx, fh.id).unwrap();
                assert_eq!(before.size, 4096);
                // B extends and overwrites on the server at 2 ms.
                ctx.advance(ms(5));
                // Still inside the 30 ms window: the plain path is stale.
                assert_eq!(c.getattr(ctx, fh.id).unwrap().size, 4096);
                // The revalidation interface sees the write immediately.
                let after = c.revalidate_attr(ctx, fh.id).unwrap();
                assert_eq!(after.size, 8192, "revalidation must see the new size");
                assert!(after.version > before.version, "change token must advance");
                // It also re-primed the attr cache with the fresh attr.
                assert_eq!(c.getattr(ctx, fh.id).unwrap().size, 8192);
                c.unmount(ctx);
            });
        }
        kernel.spawn("writer", move |ctx| {
            ctx.advance(ms(2));
            let c =
                NfsClient::mount(ctx, &fabric, &hb, sid, 2049, NfsClientConfig::default()).unwrap();
            let fh = c.lookup(ctx, ROOT_ID, "reval").unwrap();
            c.write(ctx, fh.id, 0, &vec![0xBB; 8192]).unwrap();
            c.unmount(ctx);
        });
        kernel.run();
    }

    #[test]
    fn unstable_write_plus_commit_cheaper_than_sync() {
        // Compare server CPU for FILE_SYNC vs UNSTABLE+COMMIT.
        fn run(stable: Stable) -> u64 {
            let kernel = SimKernel::new();
            let cluster = Cluster::new();
            let fabric = TcpFabric::new(TcpCost::default());
            let ch = cluster.add_host("c");
            let sh = cluster.add_host("s");
            let fs = MemFs::new();
            let server = spawn_nfs_server(&kernel, &fabric, sh, fs, 2049, NfsServerCost::default());
            let f2 = fabric.clone();
            let server_host = server.host.clone();
            kernel.spawn("client", move |ctx| {
                let cfg = NfsClientConfig {
                    stable,
                    ..Default::default()
                };
                let c = NfsClient::mount(ctx, &f2, &ch, server_host.id, 2049, cfg).unwrap();
                let f = c.create(ctx, ROOT_ID, "f").unwrap();
                let data = vec![1u8; 256 << 10];
                c.write(ctx, f.id, 0, &data).unwrap();
                if stable == Stable::Unstable {
                    c.commit(ctx, f.id).unwrap();
                }
                c.unmount(ctx);
            });
            kernel.run();
            server.host.cpu.busy().as_nanos()
        }
        let sync = run(Stable::FileSync);
        let unstable = run(Stable::Unstable);
        // 8 chunks: FILE_SYNC pays 8 syncs, UNSTABLE+COMMIT pays 1.
        assert!(
            unstable < sync,
            "unstable+commit ({unstable}) should cost less than file_sync ({sync})"
        );
    }

    #[test]
    fn small_op_latency_envelope() {
        let b = bed();
        let lat = Arc::new(AtomicU64::new(0));
        let l2 = lat.clone();
        with_client(&b, move |ctx, c| {
            c.null(ctx).unwrap(); // warm the connection
            let t0 = ctx.now();
            const N: u64 = 20;
            for _ in 0..N {
                c.getattr_uncached(ctx, ROOT_ID).unwrap();
            }
            l2.store(ctx.now().since(t0).as_nanos() / N, Ordering::Relaxed);
        });
        b.kernel.run();
        let us_ = lat.load(Ordering::Relaxed) as f64 / 1000.0;
        // Kernel-stack RPC: expect ~150-250 us per getattr.
        assert!((120.0..300.0).contains(&us_), "NFS getattr = {us_}us");
    }

    #[test]
    fn sequential_read_bandwidth_envelope() {
        let b = bed();
        const MB: usize = 8 << 20;
        b.fs.create(ROOT_ID, "big").unwrap();
        let f = b.fs.resolve("/big").unwrap();
        b.fs.write(f.id, 0, &vec![7u8; MB]).unwrap();
        let dur = Arc::new(AtomicU64::new(0));
        let d2 = dur.clone();
        with_client(&b, move |ctx, c| {
            let f = c.lookup(ctx, ROOT_ID, "big").unwrap();
            let t0 = ctx.now();
            let data = c.read(ctx, f.id, 0, MB as u64).unwrap();
            assert_eq!(data.len(), MB);
            d2.store(ctx.now().since(t0).as_nanos(), Ordering::Relaxed);
        });
        b.kernel.run();
        let mb_s = MB as f64 / (dur.load(Ordering::Relaxed) as f64 / 1e9) / 1e6;
        // Synchronous 32 KiB READ RPCs through the kernel stack: the era's
        // NFS lands in the tens of MB/s.
        assert!((10.0..60.0).contains(&mb_s), "NFS read = {mb_s} MB/s");
    }

    #[test]
    fn concurrent_clients_share_one_nfsd() {
        let kernel = SimKernel::new();
        let cluster = Cluster::new();
        let fabric = TcpFabric::new(TcpCost::default());
        let sh = cluster.add_host("server");
        let fs = MemFs::new();
        fs.create(ROOT_ID, "shared").unwrap();
        let server = spawn_nfs_server(
            &kernel,
            &fabric,
            sh,
            fs.clone(),
            2049,
            NfsServerCost::default(),
        );
        const N: usize = 4;
        for i in 0..N {
            let fabric = fabric.clone();
            let host = cluster.add_host(&format!("c{i}"));
            let sid = server.host.id;
            kernel.spawn(&format!("client{i}"), move |ctx| {
                let c =
                    NfsClient::mount(ctx, &fabric, &host, sid, 2049, NfsClientConfig::default())
                        .unwrap();
                let f = c.lookup(ctx, ROOT_ID, "shared").unwrap();
                // Disjoint regions; all four write concurrently.
                let data = vec![i as u8 + 1; 64 << 10];
                c.write(ctx, f.id, (i * (64 << 10)) as u64, &data).unwrap();
                c.unmount(ctx);
            });
        }
        kernel.run();
        let f = fs.resolve("/shared").unwrap();
        assert_eq!(f.size, (N * (64 << 10)) as u64);
        for i in 0..N {
            let got = fs.read(f.id, (i * (64 << 10)) as u64, 1).unwrap();
            assert_eq!(got[0], i as u8 + 1);
        }
        assert_eq!(server.stats.writes.ops.get(), (N * 2) as u64);
    }

    /// The nfsd forgets a connection once it closes: four mounts each keep
    /// a CREATE's reply in the duplicate-request cache, then unmount, and
    /// each close leaves one connection fewer — the cache ends empty
    /// instead of holding 256 replies for every connection ever served.
    #[test]
    fn the_nfsd_forgets_a_connection_once_it_closes() {
        const N: usize = 4;
        let (obs, trace) = obs::Obs::buffered();
        let kernel = SimKernel::with_obs(obs);
        let cluster = Cluster::new();
        let fabric = TcpFabric::new(TcpCost::default());
        let sh = cluster.add_host("server");
        let server = spawn_nfs_server(
            &kernel,
            &fabric,
            sh,
            MemFs::new(),
            2049,
            NfsServerCost::default(),
        );
        for i in 0..N {
            let fabric = fabric.clone();
            let host = cluster.add_host(&format!("c{i}"));
            let sid = server.host.id;
            kernel.spawn(&format!("client{i}"), move |ctx| {
                let c =
                    NfsClient::mount(ctx, &fabric, &host, sid, 2049, NfsClientConfig::default())
                        .unwrap();
                c.create(ctx, ROOT_ID, &format!("f{i}")).unwrap();
                // Every CREATE is in before the first mount goes.
                ctx.advance(ms(1) * (i as u64 + 1));
                c.unmount(ctx);
                // Stay up until the server has seen the close.
                ctx.advance(ms(1));
            });
        }
        kernel.run();
        let trace = String::from_utf8(trace.contents()).unwrap();
        let left: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains("\"event\":\"drc.forget\""))
            .map(|l| {
                let n = &l[l.find("\"clients\":").unwrap() + 10..];
                &n[..n.find(|ch: char| !ch.is_ascii_digit()).unwrap()]
            })
            .collect();
        assert_eq!(left, ["3", "2", "1", "0"]);
    }

    /// The NFS half of `tests/qos.rs::truncated_frames_get_one_error_reply_
    /// and_change_nothing`: every proper prefix of one valid frame per
    /// procedure — cut inside the xid, the procedure number or the
    /// arguments — gets exactly one reply, under the frame's xid (0 if it
    /// has none), with a status that is not OK; afterwards the mount still
    /// answers and the namespace and the file are what they were. A frame
    /// cut short of its procedure number used to get an empty record for a
    /// reply, which no client could match to a call; nothing exercised the
    /// rest.
    #[test]
    fn truncated_frames_get_one_error_reply_and_change_nothing() {
        let b = bed();
        let f = b.fs.create(ROOT_ID, "f").unwrap().id;
        b.fs.write(f, 0, &[0x5A; 64]).unwrap();
        let d = b.fs.mkdir(ROOT_ID, "d").unwrap().id;
        let snapshot = move |fs: &MemFs| {
            (
                fs.readdir(ROOT_ID).unwrap(),
                [ROOT_ID, f, d].map(|id| fs.getattr(id).unwrap()),
                fs.read(f, 0, 1 << 20).unwrap(),
            )
        };
        let before = snapshot(&b.fs);

        type Build<'b> = &'b dyn for<'a> Fn(&'a mut xdr::XdrEnc) -> &'a mut xdr::XdrEnc;
        let args = |build: Build| {
            let mut e = xdr::XdrEnc::new();
            build(&mut e);
            e.finish()
        };
        let (root, fh) = (ROOT_ID.0, f.0);
        let frames: Vec<(NfsProc, Vec<u8>)> = vec![
            (NfsProc::Null, Vec::new()),
            (NfsProc::GetAttr, args(&|e| e.u64(fh))),
            (NfsProc::SetAttr, args(&|e| e.u64(fh).u32(1).u64(8))),
            (NfsProc::Lookup, args(&|e| e.u64(root).string("f"))),
            (NfsProc::Read, args(&|e| e.u64(fh).u64(0).u32(64))),
            (
                NfsProc::Write,
                args(&|e| e.u64(fh).u64(0).u32(2).opaque(&[0xEE; 16])),
            ),
            (NfsProc::Create, args(&|e| e.u64(root).string("new"))),
            (NfsProc::Mkdir, args(&|e| e.u64(root).string("newdir"))),
            (NfsProc::Remove, args(&|e| e.u64(root).string("f"))),
            (NfsProc::Rmdir, args(&|e| e.u64(root).string("d"))),
            (
                NfsProc::Rename,
                args(&|e| e.u64(root).string("f").u64(root).string("g")),
            ),
            (NfsProc::ReadDir, args(&|e| e.u64(root))),
            (NfsProc::Commit, args(&|e| e.u64(fh))),
        ];
        let sent: u64 = frames.iter().map(|(_, a)| 8 + a.len() as u64).sum();

        let fabric = b.fabric.clone();
        let host = b.client_host.clone();
        let sid = b.server.host.id;
        b.kernel.spawn("raw", move |ctx| {
            let sock = fabric.connect(ctx, &host, sid, 2049).unwrap();
            // One record out, one record back: `(xid, status)`.
            let call = |body: &[u8]| -> (u32, u32) {
                sock.send(ctx, &proto::frame(body));
                let len = sock.recv_exact(ctx, 4).unwrap();
                let len = u32::from_be_bytes(len.try_into().unwrap()) as usize;
                let reply = sock.recv_exact(ctx, len).unwrap();
                let mut d = xdr::XdrDec::new(&reply);
                (d.u32().unwrap(), d.u32().unwrap())
            };
            let mut xid = 0u32;
            for (proc_, args) in &frames {
                let frame = |xid: u32| {
                    let mut e = xdr::XdrEnc::new();
                    e.u32(xid).u32(*proc_ as u32).raw(args);
                    e.finish()
                };
                for cut in 0..8 + args.len() {
                    xid += 1;
                    let (rxid, status) = call(&frame(xid)[..cut]);
                    let want = if cut < 4 { 0 } else { xid };
                    assert_eq!(rxid, want, "{proc_:?} cut at {cut}: whose reply?");
                    assert_ne!(status, 0, "{proc_:?} cut at {cut} was served");
                }
            }
            // A reply too many anywhere above would be read here.
            let mut e = xdr::XdrEnc::new();
            e.u32(u32::MAX).u32(NfsProc::GetAttr as u32).u64(fh);
            assert_eq!(call(&e.finish()), (u32::MAX, 0), "the mount lives on");
            sock.close(ctx);
        });
        b.kernel.run();
        assert_eq!(b.server.stats.ops.get(), sent + 1, "one pass per frame");
        assert!(
            snapshot(&b.fs) == before,
            "a truncated frame changed the fs"
        );
    }
}
