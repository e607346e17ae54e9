//! # dafs — the Direct Access File System over VIA
//!
//! The file-access layer the paper's MPI-IO implementation sits on: a
//! session-based protocol (DAFS Collaborative 1.0 shape) designed for
//! direct-access transports. Small operations travel **inline** in VIA
//! messages; bulk reads are **direct** — the server RDMA-Writes file data
//! straight into client buffers the client registered and advertised, so
//! the client CPU does no per-byte work. Writes are always inline, in
//! chunks: a direct write needs the server to RDMA-Read the client's
//! buffer, which the cLAN NIC the paper measured (and the one modelled
//! here) cannot do.
//!
//! Components:
//! * [`DafsClient`] — `dap_*`-style session API with synchronous, batch
//!   (pipelined), and locking operations, plus the client-side
//!   [`RegCache`](regcache::RegCache) that amortizes VIA memory
//!   registration.
//! * [`spawn_dafs_server`] — a CQ-driven server event loop exporting a
//!   [`memfs`] filesystem.

#![warn(missing_docs)]

mod cache;
mod client;
mod explore;
mod lease;
mod plan;
mod proto;
mod recover;
mod server;
mod wire;

pub mod cost;
pub mod regcache;
pub mod sched;
pub mod striped;

pub use cache::CACHE_PAGE;
pub use client::{
    BatchDir, DafsBatch, DafsCacheStats, DafsClient, DafsClientStats, DafsError, DafsResult, IoReq,
    ListReq,
};
pub use cost::{DafsClientConfig, DafsServerCost};
pub use proto::{
    list_acceptable, list_well_formed, DafsOp, DafsStatus, LeaseKind, ListSeg, ServerCaps,
    LIST_MAX_SEGMENTS,
};
pub use sched::SchedPolicy;
pub use server::{spawn_dafs_server, spawn_dafs_server_sched, DafsServerHandle, DafsServerStats};
pub use striped::{DafsStripedBatch, DafsStripedFile};

#[cfg(test)]
mod tests {
    use super::*;
    use memfs::{MemFs, ROOT_ID};
    use simnet::cost::HOST;
    use simnet::time::units::*;
    use simnet::{Cluster, SimKernel, VirtAddr};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use via::{ViaCost, ViaFabric, ViaNic};

    struct Bed {
        kernel: SimKernel,
        fabric: ViaFabric,
        cluster: Cluster,
        server: DafsServerHandle,
        fs: MemFs,
    }

    fn bed_in(kernel: SimKernel) -> Bed {
        let cluster = Cluster::new();
        let fabric = ViaFabric::new(ViaCost::default());
        let server_nic = fabric.open_nic(cluster.add_host("dafs-server"));
        let fs = MemFs::new();
        let server = spawn_dafs_server(
            &kernel,
            &fabric,
            server_nic,
            fs.clone(),
            2049,
            DafsServerCost::default(),
        );
        Bed {
            kernel,
            fabric,
            cluster,
            server,
            fs,
        }
    }

    fn bed() -> Bed {
        bed_in(SimKernel::new())
    }

    /// The server listens from the moment it is spawned: a client actor
    /// spawned before it, and so run first at t = 0, connects. The
    /// acceptor used to bind its listener on its own first turn, after
    /// such a client had dialled and got `Connect(NoListener)`.
    #[test]
    fn a_client_spawned_before_the_server_connects() {
        let (kernel, cluster) = (SimKernel::new(), Cluster::new());
        let fabric = ViaFabric::new(ViaCost::default());
        let server_nic = fabric.open_nic(cluster.add_host("dafs-server"));
        let sid = server_nic.host().id;
        let nic = fabric.open_nic(cluster.add_host("dafs-client"));
        let f = fabric.clone();
        let connected = Arc::new(AtomicU64::new(0));
        let seen = connected.clone();
        kernel.spawn("dafs-client", move |ctx| {
            let c = DafsClient::connect(ctx, &f, &nic, sid, 2049, client_config());
            c.expect("the server listens once spawned").disconnect(ctx);
            seen.fetch_add(1, Ordering::Relaxed);
        });
        let cost = DafsServerCost::default();
        spawn_dafs_server(&kernel, &fabric, server_nic, MemFs::new(), 2049, cost);
        kernel.run();
        assert_eq!(connected.load(Ordering::Relaxed), 1);
    }

    fn client_config() -> DafsClientConfig {
        DafsClientConfig::default()
    }

    fn with_client(
        bed: &Bed,
        config: DafsClientConfig,
        f: impl FnOnce(&simnet::ActorCtx, &DafsClient, &ViaNic) + Send + 'static,
    ) {
        with_named_client(bed, "dafs-client", config, f)
    }

    fn with_named_client(
        bed: &Bed,
        name: &str,
        config: DafsClientConfig,
        f: impl FnOnce(&simnet::ActorCtx, &DafsClient, &ViaNic) + Send + 'static,
    ) {
        let fabric = bed.fabric.clone();
        let nic = fabric.open_nic(bed.cluster.add_host(name));
        let sid = bed.server.host.id;
        bed.kernel.spawn(name, move |ctx| {
            let c = DafsClient::connect(ctx, &fabric, &nic, sid, 2049, config).unwrap();
            f(ctx, &c, &nic);
            c.disconnect(ctx);
        });
    }

    /// No wire byte moved when the request frame stopped being built by
    /// `Enc::bytes` of a gathered copy: for `WriteInline` and inline
    /// `WriteList`, the frame assembled in place from client memory equals
    /// the frame the previous encoding produced for the same request.
    #[test]
    fn request_frames_assembled_in_place_are_the_same_wire_bytes() {
        use crate::client::{request_frame, Payload};
        use crate::plan::Sub;
        use crate::wire::Enc;
        let mem = simnet::HostMem::new();
        let buf = mem.alloc(8192);
        let pattern: Vec<u8> = (0..8192u32).map(|i| (i * 13 % 251) as u8).collect();
        mem.write(buf, &pattern);

        // WriteInline: (fh, off) then the payload as a byte string.
        let (fh, off, at, len) = (7u64, 40_960u64, 100usize, 5000usize);
        let mut old = Enc::new();
        proto::enc_req_header(&mut old, 42, DafsOp::WriteInline);
        old.u64(fh).u64(off).bytes(&pattern[at..at + len]);
        let mut args = Enc::new();
        args.u64(fh).u64(off);
        let run = Sub::run(0, off, buf.offset(at as u64), len as u64);
        let payload = Payload::Mem(&run);
        let frame = request_frame(&mem, 42, DafsOp::WriteInline, &args.finish(), payload);
        assert_eq!(frame, old.finish());

        // Inline WriteList: (fh, mode 0, segment list) then the segments'
        // bytes, gathered from their places in the buffer, as one string.
        let segs: Vec<proto::ListSeg> = vec![(0, 1000, 16), (4096, 24, 2000), (9000, 3000, 4096)];
        let mut packed = Vec::new();
        for &(_, len, rel) in &segs {
            packed.extend_from_slice(&pattern[rel as usize..(rel + len) as usize]);
        }
        let mut old = Enc::new();
        proto::enc_req_header(&mut old, 43, DafsOp::WriteList);
        old.u64(fh).u8(0);
        proto::enc_seg_list(&mut old, &segs);
        old.bytes(&packed);
        let mut args = Enc::new();
        args.u64(fh).u8(0);
        proto::enc_seg_list(&mut args, &segs);
        let args = args.finish();
        let list = Sub {
            addr: buf,
            len: segs.iter().map(|s| s.1).sum(),
            segs: Some(segs.clone()),
            ..run
        };
        let payload = Payload::Mem(&list);
        let frame = request_frame(&mem, 43, DafsOp::WriteList, &args, payload);
        let old = old.finish();
        assert_eq!(frame, old);
        // Sent in place, the same segments build the same frame.
        let pinned = Payload::Pinned(&list, via::MemHandle(1));
        assert_eq!(
            request_frame(&mem, 43, DafsOp::WriteList, &args, pinned),
            old
        );

        // Append carries the caller's slice the same way; no payload, no
        // length prefix.
        let mut old = Enc::new();
        proto::enc_req_header(&mut old, 44, DafsOp::Append);
        old.u64(fh).bytes(b"record");
        let mut args = Enc::new();
        args.u64(fh);
        let args = args.finish();
        let frame = request_frame(&mem, 44, DafsOp::Append, &args, Payload::Slice(b"record"));
        assert_eq!(frame, old.finish());
        let bare = request_frame(&mem, 45, DafsOp::Flush, &args, Payload::None);
        assert_eq!(bare.len(), proto::REQ_HEADER_LEN + args.len());
    }

    /// One blocking vectored transfer of packed `ranges` — issue + finish.
    fn list(
        ctx: &simnet::ActorCtx,
        c: &DafsClient,
        dir: BatchDir,
        fh: memfs::NodeId,
        ranges: &[(u64, u64)],
        buf: VirtAddr,
    ) -> DafsResult<u64> {
        let batch = c.issue_list(ctx, dir, fh, &[ListReq::packed(ranges, buf)]);
        c.batch_finish(ctx, batch).remove(0)
    }

    #[test]
    fn session_setup_exchanges_caps() {
        let b = bed();
        with_client(&b, client_config(), |_ctx, c, _nic| {
            let caps = c.caps();
            assert_eq!(caps.credits, 8);
            assert_eq!(caps.inline_max, 32 << 10);
        });
        b.kernel.run();
        assert_eq!(b.server.stats.sessions.get(), 1);
    }

    #[test]
    fn namespace_roundtrip() {
        let b = bed();
        with_client(&b, client_config(), |ctx, c, _| {
            let d = c.mkdir(ctx, ROOT_ID, "dir").unwrap();
            let f = c.create(ctx, d.id, "file").unwrap();
            assert_eq!(c.lookup(ctx, d.id, "file").unwrap().id, f.id);
            assert_eq!(c.resolve(ctx, "/dir/file").unwrap().id, f.id);
            assert_eq!(
                c.lookup(ctx, d.id, "nope").unwrap_err(),
                DafsError::Status(DafsStatus::NoEnt)
            );
            let entries = c.readdir(ctx, d.id).unwrap();
            assert_eq!(entries.len(), 1);
            c.rename(ctx, d.id, "file", ROOT_ID, "moved").unwrap();
            c.remove(ctx, ROOT_ID, "moved").unwrap();
            c.rmdir(ctx, ROOT_ID, "dir").unwrap();
        });
        b.kernel.run();
    }

    #[test]
    fn inline_write_then_read_verifies_bytes() {
        let b = bed();
        with_client(&b, client_config(), |ctx, c, _| {
            let f = c.create(ctx, ROOT_ID, "small").unwrap();
            let data: Vec<u8> = (0..4096u32).map(|i| (i % 253) as u8).collect();
            let a = c.write_bytes(ctx, f.id, 0, &data).unwrap();
            assert_eq!(a.size, 4096);
            let back = c.read_to_vec(ctx, f.id, 0, 4096).unwrap();
            assert_eq!(back, data);
            // 4 KiB is under the 8 KiB threshold: the write goes inline, a
            // first touch of the scratch buffer both conveniences stage
            // through. The read into that range is its second touch, so it
            // goes direct.
            assert_eq!(c.stats.inline_writes.bytes(), 4096);
            assert_eq!(c.stats.direct_reads.bytes(), 4096);
        });
        b.kernel.run();
    }

    #[test]
    fn large_read_goes_direct_and_is_zero_copy() {
        let b = bed();
        const LEN: usize = 1 << 20;
        b.fs.create(ROOT_ID, "big").unwrap();
        let fh = b.fs.resolve("/big").unwrap().id;
        let payload: Vec<u8> = (0..LEN as u32).map(|i| (i % 241) as u8).collect();
        b.fs.write(fh, 0, &payload).unwrap();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "big").unwrap();
            let dst = nic.host().mem.alloc(LEN);
            let cpu_before = nic.host().cpu.busy();
            let n = c.read(ctx, f.id, 0, dst, LEN as u64).unwrap();
            assert_eq!(n, LEN as u64);
            assert_eq!(nic.host().mem.read_vec(dst, LEN), payload);
            assert_eq!(c.stats.direct_reads.bytes(), LEN as u64);
            // Client CPU: registration (first touch) + request/poll, but no
            // per-byte copy. A 1 MiB memcpy alone would be ~2.6 ms; allow a
            // generous 1 ms to catch any accidental copy.
            let spent = nic.host().cpu.busy() - cpu_before;
            assert!(
                spent.as_secs_f64() < 0.001,
                "client burned {spent} on a direct read"
            );
        });
        b.kernel.run();
    }

    #[test]
    fn large_write_goes_as_inline_chunks() {
        let b = bed();
        const LEN: usize = 256 << 10;
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.create(ctx, ROOT_ID, "w").unwrap();
            let src = nic.host().mem.alloc(LEN);
            nic.host().mem.fill(src, LEN, 0x5A);
            let a = c.write(ctx, f.id, 0, src, LEN as u64).unwrap();
            assert_eq!(a.size, LEN as u64);
            // A write is always inline: 256 KiB as inline chunks.
            assert_eq!(c.stats.inline_writes.bytes(), LEN as u64);
        });
        b.kernel.run();
        assert_eq!(b.fs.resolve("/w").unwrap().size, LEN as u64);
        let fh = b.fs.resolve("/w").unwrap().id;
        assert_eq!(b.fs.read(fh, 1000, 4).unwrap(), vec![0x5A; 4]);
    }

    #[test]
    fn write_past_the_last_offset_is_refused_and_the_session_lives_on() {
        // `off + len` passes u64::MAX. Nothing between the wire and the
        // file's pages checked it: a debug build died in the worker
        // ("attempt to add with overflow"), a release build wrapped to
        // offset 0 and overwrote the head of the file. One inline message,
        // and a write of two inline chunks, which the client must refuse
        // before it is cut: the second chunk's offset wrapped past u64::MAX,
        // and the server, checking each message, wrote it at 32 667. The
        // client refuses both before sending; the server's own refusal of
        // such a frame is `tests/qos.rs`'s
        // `a_write_past_the_last_offset_is_refused_by_the_server`.
        let b = bed();
        const BIG: usize = 64 << 10;
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.create(ctx, ROOT_ID, "edge").unwrap();
            let before = c.write_bytes(ctx, f.id, 0, &[0xAB; 16]).unwrap();
            let src = nic.host().mem.alloc(BIG);
            nic.host().mem.fill(src, BIG, 0xCD);
            for (off, len) in [(u64::MAX - 1, 4), (u64::MAX - 100, BIG as u64)] {
                assert_eq!(
                    c.write(ctx, f.id, off, src, len),
                    Err(DafsError::Status(DafsStatus::Inval)),
                    "write of {len} at {off:#x}"
                );
            }
            // Same session, still answering; nothing moved.
            assert_eq!(c.getattr(ctx, f.id).unwrap(), before);
            assert_eq!(c.read_to_vec(ctx, f.id, 0, 64).unwrap(), vec![0xAB; 16]);
        });
        b.kernel.run();
        assert_eq!(
            b.server.stats.inline_writes.ops.get(),
            1,
            "only the first write"
        );
    }

    #[test]
    fn direct_transfer_spanning_staging_chunks() {
        // 9 MiB > the server's 4 MiB staging buffer: must chunk correctly.
        let b = bed();
        const LEN: usize = 9 << 20;
        b.fs.create(ROOT_ID, "huge").unwrap();
        let fh = b.fs.resolve("/huge").unwrap().id;
        let payload: Vec<u8> = (0..LEN).map(|i| (i / 4096) as u8).collect();
        b.fs.write(fh, 0, &payload).unwrap();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "huge").unwrap();
            let dst = nic.host().mem.alloc(LEN);
            let n = c.read(ctx, f.id, 0, dst, LEN as u64).unwrap();
            assert_eq!(n, LEN as u64);
            let got = nic.host().mem.read_vec(dst, LEN);
            assert_eq!(got, payload);
        });
        b.kernel.run();
    }

    #[test]
    fn read_past_eof_is_short() {
        let b = bed();
        with_client(&b, client_config(), |ctx, c, nic| {
            let f = c.create(ctx, ROOT_ID, "s").unwrap();
            c.write_bytes(ctx, f.id, 0, b"abc").unwrap();
            let dst = nic.host().mem.alloc(64 << 10);
            // Inline short read.
            assert_eq!(c.read(ctx, f.id, 1, dst, 100).unwrap(), 2);
            // Direct short read (len > threshold).
            assert_eq!(c.read(ctx, f.id, 0, dst, 64 << 10).unwrap(), 3);
        });
        b.kernel.run();
    }

    /// What one blocking call cost, from its start to its return.
    #[derive(Debug, PartialEq)]
    struct Cost {
        /// Wire requests the client posted.
        ops: u64,
        /// Request ids the server answered from its replay cache.
        replayed: Vec<u64>,
        /// `dafs.replay.hits`.
        hits: u64,
        /// `dafs.direct_fallbacks`: direct subs redone.
        fallbacks: u64,
        /// Inline writes the server applied.
        applied: u64,
        /// Virtual nanoseconds.
        ns: u64,
    }

    /// One blocking `call` on a fresh session at 1 ms of virtual time, on a
    /// 48 KiB file, with the client's link to the server down over each
    /// window of `down` (ns after the call starts): what it cost, and the
    /// file it left.
    fn blocking(
        config: DafsClientConfig,
        down: &[(u64, u64)],
        call: impl FnOnce(&simnet::ActorCtx, &DafsClient, memfs::NodeId, VirtAddr) + Send + 'static,
    ) -> (Cost, Vec<u8>) {
        use simnet::{FaultPlan, SimDuration, SimTime};
        const T0: u64 = 1_000_000;
        let (obs, trace) = obs::Obs::buffered();
        let b = bed_in(SimKernel::with_obs(obs));
        let fh = server_file(&b, "f", &[0x5A; 48 << 10]);
        let (fabric, sid, host) = (b.fabric.clone(), b.server.host.id, b.cluster.add_host("c"));
        if !down.is_empty() {
            let at = |ns| SimTime::ZERO + SimDuration::from_nanos(T0 + ns);
            let plan = down
                .iter()
                .fold(FaultPlan::builder(1), |plan, &(from, until)| {
                    plan.link_down(sid, host.id, at(from), at(until))
                });
            fabric.set_fault_plan(plan.build());
        }
        let out = Arc::new(parking_lot::Mutex::new(None));
        let seen = out.clone();
        b.kernel.spawn("client", move |ctx| {
            let nic = fabric.open_nic(host);
            let c = DafsClient::connect(ctx, &fabric, &nic, sid, 2049, config).unwrap();
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap().id;
            let buf = nic.host().mem.alloc(128 << 10);
            ctx.advance(SimDuration::from_nanos(T0 - ctx.now().as_nanos()));
            let ops = c.stats.ops.get();
            call(ctx, &c, f, buf);
            let metric = |name: &str| ctx.metrics().counter(name).get();
            *seen.lock() = Some(Cost {
                ops: c.stats.ops.get() - ops,
                replayed: Vec::new(),
                hits: metric("dafs.replay.hits"),
                fallbacks: metric("dafs.direct_fallbacks"),
                applied: 0,
                ns: ctx.now().as_nanos() - T0,
            });
            c.disconnect(ctx);
        });
        b.kernel.run();
        let mut cost = out.lock().take().expect("the client ran");
        cost.applied = b.server.stats.inline_writes.ops.get();
        cost.replayed = replay_hits(&trace.contents());
        let size = b.fs.getattr(fh).unwrap().size;
        (cost, b.fs.read(fh, 0, size).unwrap())
    }

    /// The request ids of a trace's `replay.hit` lines, in order.
    fn replay_hits(trace: &[u8]) -> Vec<u64> {
        let trace = String::from_utf8(trace.to_vec()).unwrap();
        let hits = trace
            .lines()
            .filter(|l| l.contains("\"event\":\"replay.hit\""));
        hits.map(|l| {
            let id = &l[l.find("\"reqid\":").unwrap() + 8..];
            id[..id.find(|ch: char| !ch.is_ascii_digit()).unwrap()]
                .parse()
                .unwrap()
        })
        .collect()
    }

    /// `dir` of `len` bytes at offset 0 of `blocking`'s 48 KiB file, run as
    /// the blocking call and as `issue` + `batch_finish` of the same
    /// request: each moves `moved` bytes (a read lands the file's bytes, a
    /// write returns the size it left) at the same cost, which is returned.
    fn blocking_and_batch(
        config: DafsClientConfig,
        down: &[(u64, u64)],
        dir: BatchDir,
        len: u64,
        moved: u64,
    ) -> Cost {
        let landed = move |c: &DafsClient, buf| {
            let mem = &c.nic().host().mem;
            dir == BatchDir::Write
                || mem.read_vec(buf, moved as usize) == vec![0x5A; moved as usize]
        };
        let call = move |ctx: &simnet::ActorCtx, c: &DafsClient, f, buf| {
            let n = match dir {
                BatchDir::Read => c.read(ctx, f, 0, buf, len),
                BatchDir::Write => c.write(ctx, f, 0, buf, len).map(|a| {
                    assert_eq!(a.size, len.max(48 << 10), "the size the write left");
                    len
                }),
            };
            assert_eq!(n, Ok(moved));
            assert!(landed(c, buf));
        };
        let batch = move |ctx: &simnet::ActorCtx, c: &DafsClient, f, buf| {
            let req = IoReq {
                off: 0,
                addr: buf,
                len,
            };
            let b = c.issue(ctx, dir, f, &[req]);
            assert_eq!(c.batch_finish(ctx, b), [Ok(moved)]);
            assert!(landed(c, buf));
        };
        let (got, _) = blocking(config, down, call);
        assert_eq!(got, blocking(config, down, batch).0, "{dir:?} of {len}");
        got
    }

    /// A blocking `read` / `write` is a batch of the one request: in each
    /// of the five schedules that used to tell them apart, the two cost the
    /// same — requests, replayed ids, replay hits, fallbacks, applied
    /// writes, virtual ns. Where a literal moved from an earlier cut, its
    /// comment says why.
    #[test]
    fn a_blocking_call_costs_what_a_one_request_batch_costs() {
        use BatchDir::{Read, Write};
        let cost = |ops, replayed: &[u64], hits, fallbacks, applied, ns| Cost {
            ops,
            replayed: replayed.to_vec(),
            hits,
            fallbacks,
            applied,
            ns,
        };
        let plain = client_config;
        let inline_only = DafsClientConfig {
            direct_threshold: u64::MAX,
            ..plain()
        };
        let (kib, broken) = (1 << 10, &[(40_000, 50_000)]);
        // An empty read posts nothing; an empty write one WriteInline,
        // whose reply carries the attributes.
        let got = blocking_and_batch(plain(), &[], Read, 0, 0);
        assert_eq!(got, cost(0, &[], 0, 0, 0, 0), "empty read");
        let got = blocking_and_batch(plain(), &[], Write, 0, 0);
        assert_eq!(got, cost(1, &[], 0, 0, 1, 31_951), "empty write");
        // Three inline chunks asked, the file ending inside the second. The
        // three are in flight at once: one request more than the blocking
        // read's stop-and-wait (2 requests, 756 735 ns), and 154 µs sooner.
        let got = blocking_and_batch(inline_only, &[], Read, 96 * kib, 48 * kib);
        assert_eq!(got, cost(3, &[], 0, 0, 0, 602_768), "short inline read");
        // A direct read whose VI breaks: the read, its redo that finds the
        // VI dead, the reconnect's Hello, the redo on the new session. (It
        // was redone as inline chunks, two on the new session, until the
        // last step below.) The reconnect keeps the session's registrations: 862 400 ns less
        // than when it replaced both rings (16 × `registration(66 KiB)` =
        // 16 × 45 400, 16 × `dereg` = 16 × 8 000) and flushed the cache
        // (one `dereg` of the read's buffer). The redial costs no round
        // trip of its own: the first chunk is posted right behind the
        // Hello, 25 983 ns sooner than after its reply (the Hello's unloaded
        // round trip), and waits 5 332 ns at the server while the Hello is
        // served: 20 651 ns less (1 863 851 ns). The redial dials at once,
        // not after `RECONNECT_BACKOFF`: 1 000 000 ns less (1 843 200 ns).
        // The lost read is redone direct, one request, not two inline
        // chunks (5 requests, 843 200 ns): the server RDMA-Writes the
        // 48 KiB and replies behind it, with no copy on either side — the
        // chunks' server copies and client copy-outs, 2 × (82 070 +
        // 41 110) = 246 360 ns — and no second chunk's round trip, 31 892
        // ns: 278 252 ns less.
        let got = blocking_and_batch(plain(), broken, Read, 64 * kib, 48 * kib);
        assert_eq!(got, cost(4, &[], 0, 1, 0, 564_948), "broken direct read");
        // An inline write whose reply is lost: replayed under its id (3:
        // Hello, LOOKUP, then it) and answered from the replay cache. The
        // reconnect keeps both rings: 854 400 ns less (the read's, less the
        // cache `dereg` — an inline write registers nothing). The replay is
        // posted right behind the redial's Hello, not after its reply: the
        // Hello's unloaded round trip, 25 983 ns, comes off (1 220 574 ns).
        // The redial dials at once: 1 000 000 ns less (1 194 591 ns).
        let lost = &[(81_500, 82_000)];
        let got = blocking_and_batch(plain(), lost, Write, 4 * kib, 4 * kib);
        assert_eq!(got, cost(3, &[3], 1, 0, 1, 194_591), "lost inline reply");
    }

    /// A broken direct read is redone as one direct op, under a fresh id
    /// on the new VI: the registration lives under the session's tag, and
    /// the NIC refuses the dead VI's RDMA. The 64 KiB read of the 48 KiB
    /// file costs the read, its redo that finds the VI dead, the Hello and
    /// the redo; the bytes land exactly (the buffer past the file's end is
    /// untouched), metered once as a direct read, and nothing is copied —
    /// the redo used to be two inline chunks, 48 KiB copied out.
    #[test]
    fn a_broken_direct_read_is_redone_direct() {
        const LEN: usize = 64 << 10;
        let read = |ctx: &simnet::ActorCtx, c: &DafsClient, f, buf| {
            let mem = &c.nic().host().mem;
            mem.fill(buf, LEN, 0xEE);
            let copied = || ctx.metrics().counter("dafs.inline.copied_bytes").get();
            let (before, ops) = (copied(), c.stats.ops.get());
            assert_eq!(c.read(ctx, f, 0, buf, LEN as u64), Ok(48 << 10));
            assert_eq!(c.stats.ops.get() - ops, 4, "read, redo, Hello, redo");
            assert_eq!(copied(), before, "the redo copied");
            let s = &c.stats;
            assert_eq!(
                (s.direct_reads.ops(), s.direct_reads.bytes()),
                (1, 48 << 10)
            );
            assert_eq!(s.inline_reads.bytes(), 0);
            let mut want = vec![0x5A; 48 << 10];
            want.resize(LEN, 0xEE);
            assert_eq!(mem.read_vec(buf, LEN), want);
        };
        let (got, _) = blocking(client_config(), &[(40_000, 50_000)], read);
        assert_eq!(got.fallbacks, 1, "one direct sub redone");
    }

    /// A blocking call whose request frame is lost redials at once: the
    /// link is down only over the GETATTR's post (5.0–5.5 µs into the
    /// call), so the VI breaks, the first dial connects and its Hello and
    /// the re-post behind it go through. Three requests — the GETATTR, the
    /// Hello, the GETATTR again — in 68 659 ns: exactly
    /// `RECONNECT_BACKOFF` (1 000 000 ns) less than when the first dial
    /// waited for it (1 068 659 ns).
    #[test]
    fn a_lost_request_redials_at_once() {
        let getattr = |ctx: &simnet::ActorCtx, c: &DafsClient, f, _| {
            c.getattr(ctx, f).unwrap();
        };
        let (got, _) = blocking(client_config(), &[(5_000, 5_500)], getattr);
        let waited = 1_068_659;
        assert_eq!(
            (got.ops, got.ns),
            (3, waited - client::RECONNECT_BACKOFF.as_nanos())
        );
    }

    /// A write is counted once, when the server acknowledges it: four
    /// 32 KiB inline writes whose link drops while they are in flight meter
    /// 128 KiB, however many of them the recovery redoes. (A batch used to
    /// count a write as it posted it, and its recovery counted the redone
    /// ones again.)
    #[test]
    fn a_batch_write_that_outlives_its_session_is_metered_once() {
        const LEN: u64 = 32 << 10;
        let drop = &[(300_000, 400_000)];
        let (got, _) = blocking(client_config(), drop, |ctx, c, f, buf| {
            let reqs: Vec<IoReq> = (0..4)
                .map(|i| IoReq {
                    off: i * LEN,
                    addr: buf.offset(i * LEN),
                    len: LEN,
                })
                .collect();
            let b = c.issue(ctx, BatchDir::Write, f, &reqs);
            assert_eq!(c.batch_finish(ctx, b), [Ok(LEN); 4]);
            assert!(
                ctx.metrics().counter("dafs.reconnects").get() > 0,
                "no drop"
            );
            assert_eq!(c.stats.inline_writes.bytes(), 4 * LEN);
            let m = ctx.metrics();
            let metered = m.total("dafs.inline.read.bytes") + m.total("dafs.inline.write.bytes");
            assert_eq!(metered, 4 * LEN);
        });
        // Three were applied before the drop and are answered from the
        // replay cache; the fourth was lost on its way and runs fresh.
        assert_eq!((got.replayed, got.applied), (vec![3, 4, 5], 4));
    }

    /// A session that breaks again while it re-posts redials once more and
    /// goes on where it stopped. Four 32 KiB inline writes (ids 3 ..= 6,
    /// behind the Hello and the LOOKUP); the link drops across their first
    /// posts: 3 is applied, 4 is lost on its way, and 5 and 6 die with the
    /// VI. The redial's Hello (7) goes out, then 3 under its own id, which
    /// the replay cache answers — and the link drops again, across that
    /// reply. The second redial (Hello 8: attempt 2 of the same delivery,
    /// after a 1 ms backoff) re-posts 3 once more, answered from the replay
    /// cache again, then 4, 5 and 6, which run fresh. Each write is applied
    /// once.
    ///
    /// 5 705 746 ns when the first dial waited `RECONNECT_BACKOFF` (and the
    /// second drop fell at 1 750 000 ns): the first redial now dials at
    /// once, but its Hello and the re-post of 3 reach a server still on the
    /// dead session's write 3, so the replay is answered 779 022 ns sooner,
    /// not 1 000 000 (the second drop moves with it, to 975 000 ns); the
    /// second redial waits 1 ms where it waited 2: 5 705 746 − 779 022 −
    /// 1 000 000 = 3 926 724 ns.
    #[test]
    fn a_session_that_breaks_while_it_reposts_redials_and_goes_on() {
        const LEN: u64 = 32 << 10;
        let drops = &[(150_000, 200_000), (975_000, 1_025_000)];
        let (got, image) = blocking(client_config(), drops, |ctx, c, f, buf| {
            let mem = &c.nic().host().mem;
            let reqs: Vec<IoReq> = (0..4)
                .map(|i| {
                    mem.fill(buf.offset(i * LEN), LEN as usize, 0xA0 + i as u8);
                    IoReq {
                        off: i * LEN,
                        addr: buf.offset(i * LEN),
                        len: LEN,
                    }
                })
                .collect();
            let b = c.issue(ctx, BatchDir::Write, f, &reqs);
            assert_eq!(c.batch_finish(ctx, b), [Ok(LEN); 4]);
            assert_eq!(ctx.metrics().counter("dafs.reconnects").get(), 2);
        });
        let cost = Cost {
            ops: 11,
            replayed: vec![3, 3],
            hits: 2,
            fallbacks: 0,
            applied: 4,
            ns: 3_926_724,
        };
        assert_eq!(got, cost);
        let want: Vec<u8> = (0..4).flat_map(|i| [0xA0 + i; LEN as usize]).collect();
        assert_eq!(image, want, "every write landed once, in place");
    }

    /// A batch retries each sub under its own id. `CREDITS` inline writes
    /// park behind a recall of another session's read lease; the server
    /// runs them when that holder hands the lease back, while the writer's
    /// link is down, so every reply is lost after its write was applied.
    /// The holder then writes one of those ranges itself. The writer's
    /// recovery reposts each write under the id it was first posted with,
    /// and the replay cache answers all of them: the holder's bytes
    /// survive. (The recovery used to re-run the requests under fresh ids:
    /// nothing was replayed, and the holder's write was clobbered.)
    #[test]
    fn a_batch_whose_replies_are_lost_is_answered_under_its_own_ids() {
        use simnet::{FaultPlan, SimDuration, SimTime};
        const PAGE: u64 = 4 << 10;
        let credits = server::CREDITS as u64;
        let (obs, trace) = obs::Obs::buffered();
        let b = bed_in(SimKernel::with_obs(obs));
        let fh = server_file(&b, "f", &vec![0; (credits * PAGE) as usize]);
        let writer = b.cluster.add_host("writer");
        let at = |us_: u64| SimTime::ZERO + SimDuration::from_nanos(us_ * 1000);
        let plan =
            FaultPlan::builder(1).link_down(b.server.host.id, writer.id, at(1_500), at(3_000));
        b.fabric.set_fault_plan(plan.build());
        // The holder: a read lease on the file, then at 2 ms a write of
        // page 5, which hands the lease back first.
        with_named_client(&b, "holder", client_config(), move |ctx, c, nic| {
            c.cache_file(fh);
            let buf = nic.host().mem.alloc(PAGE as usize);
            c.read(ctx, fh, 0, buf, PAGE).unwrap();
            ctx.advance(SimDuration::from_nanos(
                at(2_000).as_nanos() - ctx.now().as_nanos(),
            ));
            nic.host().mem.fill(buf, PAGE as usize, 0xBB);
            c.write(ctx, fh, 5 * PAGE, buf, PAGE).unwrap();
        });
        let (fabric, sid) = (b.fabric.clone(), b.server.host.id);
        b.kernel.spawn("writer", move |ctx| {
            let nic = fabric.open_nic(writer);
            let c = DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
            let buf = nic.host().mem.alloc((credits * PAGE) as usize);
            nic.host().mem.fill(buf, (credits * PAGE) as usize, 0xAA);
            ctx.advance(SimDuration::from_nanos(
                at(1_000).as_nanos() - ctx.now().as_nanos(),
            ));
            let reqs: Vec<IoReq> = (0..credits)
                .map(|i| IoReq {
                    off: i * PAGE,
                    addr: buf.offset(i * PAGE),
                    len: PAGE,
                })
                .collect();
            let batch = c.issue(ctx, BatchDir::Write, fh, &reqs);
            assert_eq!(batch.in_flight(), credits as usize, "all posted at once");
            assert_eq!(c.batch_finish(ctx, batch), vec![Ok(PAGE); credits as usize]);
            c.disconnect(ctx);
        });
        b.kernel.run();
        // Hello took id 1; the writes were posted as 2 ..= CREDITS + 1.
        let posted: Vec<u64> = (2..=credits + 1).collect();
        assert_eq!(replay_hits(&trace.contents()), posted);
        let image = b.fs.read(fh, 0, credits * PAGE).unwrap();
        for (p, page) in image.chunks(PAGE as usize).enumerate() {
            let want = if p == 5 { 0xBB } else { 0xAA };
            assert!(page.iter().all(|&x| x == want), "page {p}: {:#x}", page[0]);
        }
    }

    /// The number after `"key":` in a trace line.
    fn trace_u64(line: &str, key: &str) -> u64 {
        let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let digits = line[at..].find(|ch: char| !ch.is_ascii_digit()).unwrap();
        line[at..at + digits].parse().unwrap()
    }

    /// A redial costs no round trip of its own, under load too. Another
    /// session keeps the server's wire busy with windows of 32 KiB reads;
    /// a session whose write is lost with its link redials and posts the
    /// write right behind the Hello: its doorbell rings before the Hello's
    /// reply, queued behind the other session's replies, reaches the
    /// client. (It used to wait for that reply first: one queue wait for
    /// the Hello, another for the write.) The write applies once. The
    /// first dial goes at once, inside the 100 µs outage, so its Hello is
    /// lost and a second dial, 1 ms later, is the one that carries the
    /// write: two reconnects, and the last one is watched.
    #[test]
    fn a_redial_posts_its_request_before_the_hellos_reply_arrives() {
        use simnet::{FaultPlan, SimDuration, SimTime};
        const BLOCK: u64 = 32 << 10;
        let credits = server::CREDITS as u64;
        let (obs, trace) = obs::Obs::buffered();
        let b = bed_in(SimKernel::with_obs(obs));
        let fh = server_file(&b, "f", &vec![0x5A; (credits * BLOCK) as usize]);
        let victim = b.cluster.add_host("victim");
        let at = |us_: u64| SimTime::ZERO + SimDuration::from_nanos(us_ * 1000);
        let plan =
            FaultPlan::builder(1).link_down(b.server.host.id, victim.id, at(1_000), at(1_100));
        b.fabric.set_fault_plan(plan.build());
        with_named_client(&b, "load", client_config(), move |ctx, c, nic| {
            let buf = nic.host().mem.alloc((credits * BLOCK) as usize);
            let reqs: Vec<IoReq> = (0..credits)
                .map(|i| IoReq {
                    off: i * BLOCK,
                    addr: buf.offset(i * BLOCK),
                    len: BLOCK,
                })
                .collect();
            while ctx.now() < at(4_000) {
                let batch = c.issue(ctx, BatchDir::Read, fh, &reqs);
                assert_eq!(
                    c.batch_finish(ctx, batch),
                    vec![Ok(BLOCK); credits as usize]
                );
            }
        });
        let (fabric, sid) = (b.fabric.clone(), b.server.host.id);
        b.kernel.spawn("victim", move |ctx| {
            let nic = fabric.open_nic(victim);
            let c = DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
            ctx.advance(SimDuration::from_nanos(
                at(1_050).as_nanos() - ctx.now().as_nanos(),
            ));
            c.write_bytes(ctx, fh, 0, &[0xAA; 4096]).unwrap();
            assert_eq!(ctx.metrics().counter("dafs.reconnects").get(), 2);
            c.disconnect(ctx);
        });
        b.kernel.run();
        assert_eq!(b.fs.read(fh, 0, 4096).unwrap(), vec![0xAA; 4096]);
        assert_eq!(b.server.stats.inline_writes.ops.get(), 1, "applied once");
        let trace = String::from_utf8(trace.contents()).unwrap();
        let lines: Vec<&str> = trace.lines().collect();
        let redial = lines
            .iter()
            .rposition(|l| l.contains("\"event\":\"session.reconnect\""))
            .expect("a redial");
        let after = &lines[redial..];
        let mut rings = after
            .iter()
            .filter(|l| l.contains("\"actor\":\"victim\"") && l.contains("\"event\":\"doorbell\""));
        let (hello, write) = (rings.next().unwrap(), rings.next().unwrap());
        assert_eq!(
            trace_u64(hello, "len"),
            proto::REQ_HEADER_LEN as u64 + 8,
            "the Hello"
        );
        // The completion of the worker's next send of a Hello reply's
        // length: when that reply reached the client.
        let reply = after.iter().find(|l| {
            l.contains("\"actor\":\"dafs-worker\"")
                && l.contains("\"event\":\"completion\"")
                && l.contains("\"len\":18,")
        });
        let reached = trace_u64(reply.expect("the Hello's reply"), "at_ns");
        let (asked, posted) = (trace_u64(hello, "t_ns"), trace_u64(write, "t_ns"));
        assert!(
            reached - asked > 100_000,
            "the Hello's round trip took {} ns: no load",
            reached - asked
        );
        assert!(
            posted < reached,
            "the write went out at {posted} ns, after the Hello's reply at {reached} ns"
        );
    }

    #[test]
    fn small_op_latency_beats_nfs_by_multiples() {
        let b = bed();
        let lat = Arc::new(AtomicU64::new(0));
        let l2 = lat.clone();
        with_client(&b, client_config(), move |ctx, c, _| {
            let t0 = ctx.now();
            const N: u64 = 20;
            for _ in 0..N {
                c.getattr(ctx, ROOT_ID).unwrap();
            }
            l2.store(ctx.now().since(t0).as_nanos() / N, Ordering::Relaxed);
        });
        b.kernel.run();
        let us_ = lat.load(Ordering::Relaxed) as f64 / 1000.0;
        // VIA round trip + lean server: tens of microseconds, not hundreds.
        assert!((20.0..60.0).contains(&us_), "DAFS getattr = {us_}us");
    }

    #[test]
    fn direct_read_bandwidth_approaches_wire() {
        let b = bed();
        const LEN: usize = 16 << 20;
        b.fs.create(ROOT_ID, "stream").unwrap();
        let fh = b.fs.resolve("/stream").unwrap().id;
        b.fs.write(fh, 0, &vec![9u8; LEN]).unwrap();
        let dur = Arc::new(AtomicU64::new(0));
        let d2 = dur.clone();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "stream").unwrap();
            let dst = nic.host().mem.alloc(LEN);
            // Warm the registration cache so we measure steady state.
            c.read(ctx, f.id, 0, dst, LEN as u64).unwrap();
            let t0 = ctx.now();
            c.read(ctx, f.id, 0, dst, LEN as u64).unwrap();
            d2.store(ctx.now().since(t0).as_nanos(), Ordering::Relaxed);
        });
        b.kernel.run();
        let mb_s = LEN as f64 / (dur.load(Ordering::Relaxed) as f64 / 1e9) / 1e6;
        assert!(
            (85.0..110.5).contains(&mb_s),
            "DAFS direct read = {mb_s} MB/s, want near the 110 MB/s wire"
        );
    }

    #[test]
    fn regcache_avoids_repeat_registration() {
        let b = bed();
        const LEN: usize = 1 << 20;
        b.fs.create(ROOT_ID, "f").unwrap();
        let fh = b.fs.resolve("/f").unwrap().id;
        b.fs.write(fh, 0, &vec![1u8; LEN]).unwrap();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let dst = nic.host().mem.alloc(LEN);
            for _ in 0..10 {
                c.read(ctx, f.id, 0, dst, LEN as u64).unwrap();
            }
            let rc = c.regcache();
            assert_eq!(rc.misses.get(), 1, "only the first read registers");
            assert_eq!(rc.hits.get(), 9);
        });
        b.kernel.run();
    }

    #[test]
    fn regcache_disabled_registers_every_time() {
        let b = bed();
        const LEN: usize = 1 << 20;
        b.fs.create(ROOT_ID, "f").unwrap();
        let fh = b.fs.resolve("/f").unwrap().id;
        b.fs.write(fh, 0, &vec![1u8; LEN]).unwrap();
        let cfg = DafsClientConfig {
            use_regcache: false,
            ..client_config()
        };
        with_client(&b, cfg, move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let dst = nic.host().mem.alloc(LEN);
            for _ in 0..5 {
                c.read(ctx, f.id, 0, dst, LEN as u64).unwrap();
            }
            let rc = c.regcache();
            assert_eq!((rc.hits.get(), rc.misses.get()), (0, 5));
            // All transient registrations were torn down again.
            let rs = nic.registration_stats();
            // 16 session buffers + 5 transient.
            assert_eq!(rs.registrations, 16 + 5);
            assert_eq!(rs.deregistrations, 5);
        });
        b.kernel.run();
    }

    /// The transfer rule for a small read: the first into a buffer goes
    /// inline (and is remembered), the second registers the buffer and goes
    /// direct, the third finds it registered. A buffer never seen twice
    /// costs no registration at all. The bytes are the same either way.
    #[test]
    fn small_reads_go_direct_into_a_buffer_seen_before() {
        let b = bed();
        const LEN: usize = 4 << 10;
        let image: Vec<u8> = (0..3 * LEN).map(|i| (i * 7 + 3) as u8).collect();
        let fh = server_file(&b, "f", &image);
        with_client(&b, client_config(), move |ctx, c, nic| {
            let mem = &nic.host().mem;
            let before = nic.registration_stats().registrations;
            let registered = || nic.registration_stats().registrations - before;
            let direct = || c.stats.direct_reads.ops();
            let reused = mem.alloc(LEN);
            for (i, (want_direct, want_registered)) in
                [(0, 0), (1, 1), (2, 1)].into_iter().enumerate()
            {
                let off = (i * LEN) as u64;
                assert_eq!(c.read(ctx, fh, off, reused, LEN as u64), Ok(LEN as u64));
                assert_eq!(
                    mem.read_vec(reused, LEN),
                    image[i * LEN..][..LEN],
                    "read {i}"
                );
                assert_eq!(
                    (direct(), registered()),
                    (want_direct, want_registered),
                    "read {i}"
                );
            }
            assert_eq!(c.stats.inline_reads.ops(), 1);
            // A fresh buffer per read: always a first touch.
            for i in 0..3 {
                let fresh = mem.alloc(LEN);
                assert_eq!(
                    c.read(ctx, fh, (i * LEN) as u64, fresh, LEN as u64),
                    Ok(LEN as u64)
                );
                assert_eq!(mem.read_vec(fresh, LEN), image[i * LEN..][..LEN]);
            }
            assert_eq!(
                (direct(), registered()),
                (2, 1),
                "fresh buffers stay inline"
            );
            assert_eq!(c.stats.inline_reads.ops(), 4);
            // Too short for the saved copies to pay for a second message:
            // inline even into the registered buffer.
            for _ in 0..2 {
                assert_eq!(c.read(ctx, fh, 0, reused, 256), Ok(256));
            }
            assert_eq!(direct(), 2, "256 bytes is below the floor");
        });
        b.kernel.run();
    }

    /// An inline write from a warm buffer sends its payload in place, as a
    /// second gather segment under the buffer's registration. Three 32 KiB
    /// writes from one buffer: the first, a first touch, copies its whole
    /// frame into the request slot; the second registers the buffer and
    /// copies only the header, for one more data segment; the third finds
    /// the registration and pays the header and the segment alone. Every
    /// other cost of a write is the same each time, and so are the bytes
    /// that land.
    #[test]
    fn an_inline_write_from_a_warm_buffer_copies_only_its_header() {
        const LEN: u64 = 32 << 10;
        let b = bed();
        let fh = server_file(&b, "f", &[]);
        with_client(&b, client_config(), move |ctx, c, nic| {
            let buf = nic.host().mem.alloc(LEN as usize);
            let cpu = || nic.host().cpu.busy();
            let took: Vec<_> = (0..3u8)
                .map(|i| {
                    nic.host().mem.fill(buf, LEN as usize, i);
                    let t0 = cpu();
                    c.write(ctx, fh, 0, buf, LEN).unwrap();
                    cpu() - t0
                })
                .collect();
            let (via, copy) = (nic.cost(), |n| HOST.copy(n));
            // Header, arguments (fh, offset) and the payload's length prefix.
            let header = (proto::REQ_HEADER_LEN + 8 + 8 + 4) as u64;
            let in_place = copy(header) + via.per_segment;
            let rest = took[2] - in_place;
            assert_eq!(took[0], rest + copy(header + LEN), "first touch");
            assert_eq!(took[1], rest + via.registration(LEN) + in_place, "second");
            assert_eq!(c.stats.inline_writes.ops(), 3);
            assert_eq!(c.regcache().misses.get(), 1);
        });
        b.kernel.run();
        assert_eq!(b.fs.read(fh, 0, LEN).unwrap(), vec![2; LEN as usize]);
    }

    /// The gather floor per list message: an inline `WriteList` from a warm
    /// buffer sends its segments in place, one data segment each, under the
    /// registration of its group's whole buffer region. Three 64 KiB
    /// one-segment list writes from one buffer, two 32 KiB messages each:
    /// the first, a first touch, copies both frames; the second registers
    /// the 64 KiB region once and copies only the headers, for one data
    /// segment per message; the third finds the registration. A list of
    /// 256 16-byte segments costs less to copy than its 256 data segments,
    /// so it stays copied from the same warm buffer.
    #[test]
    fn an_inline_list_write_from_a_warm_buffer_gathers_its_segments_in_place() {
        const LEN: u64 = 64 << 10;
        let b = bed();
        let fh = server_file(&b, "f", &[]);
        with_client(&b, client_config(), move |ctx, c, nic| {
            let mem = &nic.host().mem;
            let write = |buf| list(ctx, c, BatchDir::Write, fh, &[(0, LEN)], buf);
            // A write from another buffer first, so each measured write
            // finds the same thing to drain: the two sends before it.
            assert_eq!(write(mem.alloc(LEN as usize)), Ok(LEN));
            let buf = mem.alloc(LEN as usize);
            let cpu = || nic.host().cpu.busy();
            let took: Vec<_> = (0..3u8)
                .map(|i| {
                    mem.fill(buf, LEN as usize, i);
                    let t0 = cpu();
                    assert_eq!(write(buf), Ok(LEN));
                    cpu() - t0
                })
                .collect();
            let (via, copy) = (nic.cost(), |n| HOST.copy(n));
            // Header, arguments (fh, mode, a one-segment list) and the
            // payload's length prefix.
            let header = (proto::REQ_HEADER_LEN + 8 + 1 + 4 + 24 + 4) as u64;
            let in_place = copy(header) + via.per_segment;
            let rest = took[2] - in_place * 2;
            assert_eq!(took[0], rest + copy(header + LEN / 2) * 2, "first touch");
            assert_eq!(
                took[1],
                rest + via.registration(LEN) + in_place * 2,
                "second"
            );
            assert_eq!(c.stats.inline_writes.ops(), 8);
            assert_eq!(c.regcache().misses.get(), 1);

            let copied = || ctx.metrics().counter("dafs.inline.copied_bytes").get();
            let registered = || nic.registration_stats().registrations;
            let before = (copied(), registered());
            let tiny: Vec<(u64, u64)> = (0..256).map(|i| (i * 32, 16)).collect();
            mem.fill(buf, 4096, 9);
            for _ in 0..3 {
                assert_eq!(list(ctx, c, BatchDir::Write, fh, &tiny, buf), Ok(4096));
            }
            assert_eq!((copied(), registered()), (before.0 + 3 * 4096, before.1));
        });
        b.kernel.run();
        let mut image = vec![2; LEN as usize];
        for i in 0..256 {
            image[i * 32..i * 32 + 16].fill(9);
        }
        assert_eq!(b.fs.read(fh, 0, LEN).unwrap(), image);
    }

    /// `dafs.inline.copied_bytes` counts the payload bytes the client is
    /// charged to copy — a cold inline write's, an inline read's copy-out —
    /// and costs no virtual time. Once two writes have warmed their buffer,
    /// 128 KiB writes from it copy none.
    #[test]
    fn writes_from_a_warm_buffer_copy_no_payload() {
        const LEN: u64 = 128 << 10;
        let b = bed();
        let fh = server_file(&b, "f", &[]);
        with_client(&b, client_config(), move |ctx, c, nic| {
            let copied = || ctx.metrics().counter("dafs.inline.copied_bytes").get();
            let buf = nic.host().mem.alloc(LEN as usize);
            c.write(ctx, fh, 0, buf, LEN).unwrap();
            assert_eq!(copied(), LEN, "a first touch copies");
            c.write(ctx, fh, 0, buf, LEN).unwrap();
            let warmed = copied();
            assert_eq!(
                warmed, LEN,
                "the second touch registers, and copies nothing"
            );
            for i in 0..8 {
                c.write(ctx, fh, i * LEN, buf, LEN).unwrap();
            }
            assert_eq!(copied(), warmed);
            let fresh = nic.host().mem.alloc(4 << 10);
            c.read(ctx, fh, 0, fresh, 4 << 10).unwrap();
            assert_eq!(copied(), warmed + (4 << 10), "an inline read copies out");
        });
        b.kernel.run();
    }

    /// Writes stay inline however warm their buffer. (From a warm buffer
    /// the inline message sends the payload in place.)
    #[test]
    fn small_writes_stay_inline_from_a_warm_buffer() {
        let b = bed();
        const LEN: usize = 4 << 10;
        let fh = server_file(&b, "f", &[0; LEN]);
        with_client(&b, client_config(), move |ctx, c, nic| {
            let buf = nic.host().mem.alloc(LEN);
            // Warm it: three reads, the last two direct.
            for _ in 0..3 {
                c.read(ctx, fh, 0, buf, LEN as u64).unwrap();
            }
            assert_eq!(c.stats.direct_reads.ops(), 2);
            nic.host().mem.fill(buf, LEN, 0x3C);
            for _ in 0..3 {
                c.write(ctx, fh, 0, buf, LEN as u64).unwrap();
            }
            assert_eq!(c.stats.inline_writes.ops(), 3);
        });
        b.kernel.run();
        assert_eq!(b.fs.read(fh, 0, LEN as u64).unwrap(), vec![0x3C; LEN]);
    }

    /// What a session costs the server is given back when it dies: its
    /// sixteen slots and their registrations used to stay behind for every
    /// session the worker reaped.
    #[test]
    fn a_reaped_session_gives_back_what_the_acceptor_allocated() {
        let b = bed();
        b.fs.create(ROOT_ID, "f").unwrap();
        let (snic, shost) = (b.server.nic.clone(), b.server.host.clone());
        with_client(&b, client_config(), move |ctx, c, _| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap().id;
            let held = || (snic.table().live_regions(), shost.mem.allocated_bytes());
            let one_session = held();
            assert_eq!(one_session.0, 16);
            for cycle in 0..100 {
                // Break the session; the next call dials a new one.
                c.abort(ctx);
                c.getattr(ctx, f).unwrap();
                assert_eq!(held(), one_session, "after {cycle} dead sessions");
            }
        });
        b.kernel.run();
        assert_eq!(b.server.stats.sessions.get(), 101);
        // The clean goodbye is reaped like the broken sessions were.
        assert_eq!(b.server.nic.table().live_regions(), 0);
        assert_eq!(b.server.host.mem.allocated_bytes(), 0);
    }

    /// Only a NIC places into a ring slot, so neither host maps one: the
    /// client and the server each allocate both rings of `CREDITS` slots,
    /// and the one mapped buffer is the one the client's CPU wrote — the
    /// test's pattern, then the inline reads copied into it. A direct
    /// read's target is placed into, not mapped.
    #[test]
    fn ring_slots_map_nothing_on_either_host() {
        const W: usize = 4096;
        const R: usize = 256 << 10;
        let b = bed();
        b.fs.create(ROOT_ID, "f").unwrap();
        let fh = b.fs.resolve("/f").unwrap().id;
        let payload: Vec<u8> = (0..R as u32).map(|i| (i % 241) as u8).collect();
        b.fs.write(fh, 0, &payload).unwrap();
        let rings = 2 * server::CREDITS as u64 * server::SLOT;
        let shost = b.server.host.clone();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let mem = &nic.host().mem;
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap().id;
            let (wbuf, rbuf) = (mem.alloc(W), mem.alloc(R));
            let pattern: Vec<u8> = (0..W).map(|i| (i % 13) as u8).collect();
            mem.write(wbuf, &pattern);
            assert_eq!(c.write(ctx, f, 0, wbuf, W as u64).unwrap().size, R as u64);
            assert_eq!(c.read(ctx, f, 0, rbuf, R as u64), Ok(R as u64));
            for k in 0..4u64 {
                let at = 1000 * k;
                assert_eq!(c.read(ctx, f, at, wbuf.offset(at), 100), Ok(100));
            }
            assert_eq!(c.stats.direct_reads.bytes(), R as u64);
            assert_eq!(c.stats.inline_reads.bytes(), 400);
            let mut want = payload.clone();
            want[..W].copy_from_slice(&pattern);
            assert_eq!(mem.read_vec(rbuf, R), want);
            assert_eq!(mem.read_vec(wbuf, W), pattern);
            assert_eq!(mem.allocated_bytes(), rings + (W + R) as u64);
            assert_eq!(mem.mapped_bytes(), W as u64, "client mapped a slot");
            assert_eq!(shost.mem.allocated_bytes(), rings);
            assert_eq!(shost.mem.mapped_bytes(), 0, "server mapped a slot");
        });
        b.kernel.run();
    }

    #[test]
    fn batch_read_pipelines_and_verifies() {
        let b = bed();
        const CHUNK: usize = 64 << 10;
        const COUNT: usize = 16;
        b.fs.create(ROOT_ID, "b").unwrap();
        let fh = b.fs.resolve("/b").unwrap().id;
        let mut payload = Vec::new();
        for i in 0..COUNT {
            payload.extend(std::iter::repeat_n(i as u8, CHUNK));
        }
        b.fs.write(fh, 0, &payload).unwrap();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "b").unwrap();
            let dsts: Vec<VirtAddr> = (0..COUNT).map(|_| nic.host().mem.alloc(CHUNK)).collect();
            let reqs: Vec<IoReq> = (0..COUNT)
                .map(|i| IoReq {
                    off: (i * CHUNK) as u64,
                    addr: dsts[i],
                    len: CHUNK as u64,
                })
                .collect();
            let batch_t0 = ctx.now();
            let batch = c.issue(ctx, BatchDir::Read, f.id, &reqs);
            let results = c.batch_finish(ctx, batch);
            let batch_time = ctx.now().since(batch_t0);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(*r, Ok(CHUNK as u64), "req {i}");
                assert_eq!(
                    nic.host().mem.read_vec(dsts[i], CHUNK),
                    vec![i as u8; CHUNK]
                );
            }
            // Sequential comparison: same reads one at a time.
            let seq_t0 = ctx.now();
            for r in &reqs {
                c.read(ctx, f.id, r.off, r.addr, r.len).unwrap();
            }
            let seq_time = ctx.now().since(seq_t0);
            assert!(
                batch_time < seq_time,
                "pipelined batch ({batch_time}) should beat sequential ({seq_time})"
            );
        });
        b.kernel.run();
    }

    #[test]
    fn batch_write_inline_chunking_correct() {
        let b = bed();
        // 100 KiB inline-fallback write inside a batch must be chunked.
        const LEN: usize = 100 << 10;
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.create(ctx, ROOT_ID, "bw").unwrap();
            let src = nic.host().mem.alloc(LEN);
            let payload: Vec<u8> = (0..LEN).map(|i| (i % 127) as u8).collect();
            nic.host().mem.write(src, &payload);
            let req = IoReq {
                off: 0,
                addr: src,
                len: LEN as u64,
            };
            let batch = c.issue(ctx, BatchDir::Write, f.id, &[req]);
            assert_eq!(c.batch_finish(ctx, batch), vec![Ok(LEN as u64)]);
        });
        b.kernel.run();
        let fh = b.fs.resolve("/bw").unwrap().id;
        let got = b.fs.read(fh, 0, LEN as u64).unwrap();
        let expect: Vec<u8> = (0..LEN).map(|i| (i % 127) as u8).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn locks_serialize_two_sessions() {
        let b = bed();
        b.fs.create(ROOT_ID, "locked").unwrap();
        let order: Arc<parking_lot::Mutex<Vec<(u64, &'static str)>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        for (name, delay, hold) in [("first", 0u64, 500u64), ("second", 100u64, 0u64)] {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host(name));
            let sid = b.server.host.id;
            let order = order.clone();
            b.kernel.spawn(name, move |ctx| {
                ctx.advance(us(delay));
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "locked").unwrap();
                c.lock(ctx, f.id).unwrap();
                order.lock().push((ctx.now().as_nanos(), name));
                ctx.advance(us(hold));
                c.unlock(ctx, f.id).unwrap();
                c.disconnect(ctx);
            });
        }
        b.kernel.run();
        let o = order.lock().clone();
        assert_eq!(o.len(), 2);
        assert_eq!(o[0].1, "first");
        assert_eq!(o[1].1, "second");
        // Second acquired only after first's 500us hold.
        assert!(o[1].0 > o[0].0 + 500_000, "{o:?}");
    }

    #[test]
    fn concurrent_appends_tile_without_tears() {
        // Six sessions race variable-size appends; the records must tile
        // the file exactly — atomicity comes from the serial server worker,
        // not client-side locks.
        let b = bed();
        b.fs.create(ROOT_ID, "log").unwrap();
        const PER_CLIENT: usize = 8;
        for i in 0..6usize {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host(&format!("a{i}")));
            let sid = b.server.host.id;
            b.kernel.spawn(&format!("appender{i}"), move |ctx| {
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "log").unwrap();
                for seq in 0..PER_CLIENT {
                    let len = (seq % 3 + 1) * 100;
                    let mut rec = vec![(i * PER_CLIENT + seq) as u8; len];
                    // Header: record length, so the scanner can walk it.
                    rec[0] = (len / 100) as u8;
                    let off = c.append(ctx, f.id, &rec).unwrap();
                    assert!(
                        (off as usize).is_multiple_of(100),
                        "records are 100-byte multiples"
                    );
                }
                c.disconnect(ctx);
            });
        }
        b.kernel.run();
        let attr = b.fs.resolve("/log").unwrap();
        let data = b.fs.read(attr.id, 0, attr.size).unwrap();
        let mut pos = 0usize;
        let mut records = 0;
        while pos < data.len() {
            let len = data[pos] as usize * 100;
            assert!((100..=300).contains(&len), "corrupt header at {pos}");
            // The body (after the header byte) must be uniform: no tears.
            let body = &data[pos + 1..pos + len];
            assert!(body.iter().all(|&x| x == body[0]), "torn record at {pos}");
            pos += len;
            records += 1;
        }
        assert_eq!(pos, data.len());
        assert_eq!(records, 6 * PER_CLIENT);
    }

    #[test]
    fn append_offsets_are_monotone_per_session() {
        let b = bed();
        b.fs.create(ROOT_ID, "log").unwrap();
        with_client(&b, client_config(), |ctx, c, _| {
            let f = c.lookup(ctx, ROOT_ID, "log").unwrap();
            let mut last = 0;
            for i in 0..5u8 {
                let off = c.append(ctx, f.id, &[i; 64]).unwrap();
                assert_eq!(off, last);
                last += 64;
            }
            assert_eq!(c.getattr(ctx, f.id).unwrap().size, 320);
        });
        b.kernel.run();
    }

    #[test]
    fn flush_and_truncate() {
        let b = bed();
        with_client(&b, client_config(), |ctx, c, _| {
            let f = c.create(ctx, ROOT_ID, "t").unwrap();
            c.write_bytes(ctx, f.id, 0, &[1u8; 100]).unwrap();
            c.flush(ctx, f.id).unwrap();
            let a = c.truncate(ctx, f.id, 10).unwrap();
            assert_eq!(a.size, 10);
            assert_eq!(c.getattr(ctx, f.id).unwrap().size, 10);
        });
        b.kernel.run();
    }

    #[test]
    fn lock_released_on_clean_disconnect_of_holder() {
        // A locks and disconnects WITHOUT unlocking; B's pending lock must
        // be granted when the server tears A's session down.
        let b = bed();
        b.fs.create(ROOT_ID, "l").unwrap();
        let got_lock = Arc::new(AtomicU64::new(0));
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("holder"));
            let sid = b.server.host.id;
            b.kernel.spawn("holder", move |ctx| {
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "l").unwrap();
                c.lock(ctx, f.id).unwrap();
                ctx.advance(us(500));
                // Disconnect while still holding the lock.
                c.disconnect(ctx);
            });
        }
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("waiter"));
            let sid = b.server.host.id;
            let gl = got_lock.clone();
            b.kernel.spawn("waiter", move |ctx| {
                ctx.advance(us(100)); // let the holder win the race
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "l").unwrap();
                c.lock(ctx, f.id).unwrap();
                gl.store(ctx.now().as_nanos(), Ordering::Relaxed);
                c.unlock(ctx, f.id).unwrap();
                c.disconnect(ctx);
            });
        }
        b.kernel.run();
        let t = got_lock.load(Ordering::Relaxed);
        assert!(
            t > 500_000,
            "waiter must block until the holder vanished: {t}"
        );
    }

    #[test]
    fn abrupt_vi_disconnect_tears_session_and_releases_locks() {
        // The holder drops the VIA connection without a DAFS Disconnect;
        // the server's ConnectionLost path must clean up and grant the
        // waiter.
        let b = bed();
        b.fs.create(ROOT_ID, "l").unwrap();
        let got_lock = Arc::new(AtomicU64::new(0));
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("crasher"));
            let sid = b.server.host.id;
            b.kernel.spawn("crasher", move |ctx| {
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "l").unwrap();
                c.lock(ctx, f.id).unwrap();
                ctx.advance(us(400));
                // Simulate a crash: raw VIA disconnect, no protocol goodbye.
                c.abort(ctx);
            });
        }
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("waiter"));
            let sid = b.server.host.id;
            let gl = got_lock.clone();
            b.kernel.spawn("waiter", move |ctx| {
                ctx.advance(us(100));
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "l").unwrap();
                c.lock(ctx, f.id).unwrap();
                gl.store(ctx.now().as_nanos(), Ordering::Relaxed);
                c.unlock(ctx, f.id).unwrap();
                c.disconnect(ctx);
            });
        }
        b.kernel.run();
        let t = got_lock.load(Ordering::Relaxed);
        assert!(t > 400_000, "waiter must be granted after the crash: {t}");
    }

    /// However many times the session is re-established, the client holds
    /// two rings of slots. A reconnect once deregistered the old slots and
    /// kept them allocated: 2 x credits x `SLOT` = 1 056 KiB more per
    /// reconnect at defaults. Now it keeps the slots themselves.
    #[test]
    fn reconnects_do_not_accumulate_ring_buffers() {
        let b = bed();
        b.fs.create(ROOT_ID, "f").unwrap();
        with_client(&b, client_config(), |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap().id;
            let held_after_reconnect = |_| {
                c.abort(ctx);
                c.getattr(ctx, f).unwrap();
                nic.host().mem.allocated_bytes()
            };
            let held: Vec<u64> = (0..5).map(held_after_reconnect).collect();
            assert_eq!(held[0], held[4], "held after each reconnect: {held:?}");
        });
        let obs = b.kernel.obs().clone();
        let end = b.kernel.run();
        let snap = obs.snapshot(end.as_nanos());
        assert_eq!(snap.get("dafs.reconnects").map(|e| e.value()), Some(5));
    }

    /// A reconnect replaces the VI and nothing registered. Across five dead
    /// sessions the NIC registers nothing more and the registration cache
    /// keeps what it pinned; a 4 KiB read into a buffer warmed before the
    /// first break goes direct as soon as each new session is up, and lands
    /// the file's newest bytes, which a write from the warm scratch buffer
    /// sent in place. (Each reconnect used to register both rings afresh,
    /// 16 registrations, and flush the cache: the buffers were first
    /// touches again.)
    #[test]
    fn a_reconnect_registers_nothing() {
        const LEN: usize = 4 << 10;
        let b = bed();
        let fh = server_file(&b, "f", &[0; LEN]);
        with_client(&b, client_config(), move |ctx, c, nic| {
            let buf = nic.host().mem.alloc(LEN);
            // A first touch, then a direct read that registers the buffer;
            // the same for `write_bytes`' scratch, whose second write is
            // sent from it in place.
            for _ in 0..2 {
                c.read(ctx, fh, 0, buf, LEN as u64).unwrap();
                c.write_bytes(ctx, fh, 0, &[0; LEN]).unwrap();
            }
            assert_eq!(c.stats.direct_reads.ops(), 1);
            let registrations = nic.registration_stats().registrations;
            assert_eq!(registrations, 2 * server::CREDITS as u64 + 2);
            let pinned = c.regcache_pinned();
            assert_eq!(pinned, 2 * LEN as u64);
            for round in 1..=5u8 {
                c.abort(ctx);
                c.getattr(ctx, fh).unwrap();
                c.write_bytes(ctx, fh, 0, &[round; LEN]).unwrap();
                nic.host().mem.fill(buf, LEN, 0);
                assert_eq!(c.read(ctx, fh, 0, buf, LEN as u64), Ok(LEN as u64));
                assert_eq!(nic.host().mem.read_vec(buf, LEN), vec![round; LEN]);
                let direct = c.stats.direct_reads.ops();
                assert_eq!(direct, 1 + round as u64, "round {round}: went inline");
                let now = nic.registration_stats().registrations;
                assert_eq!(now, registrations, "round {round}: registered");
                assert_eq!(c.regcache_pinned(), pinned, "round {round}");
            }
        });
        let obs = b.kernel.obs().clone();
        let end = b.kernel.run();
        let snap = obs.snapshot(end.as_nanos());
        assert_eq!(snap.get("dafs.reconnects").map(|e| e.value()), Some(5));
    }

    #[test]
    fn list_read_inline_scatters_segments() {
        let b = bed();
        const LEN: usize = 64 << 10;
        b.fs.create(ROOT_ID, "lf").unwrap();
        let fh = b.fs.resolve("/lf").unwrap().id;
        let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        b.fs.write(fh, 0, &payload).unwrap();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "lf").unwrap();
            // 8 strided 512-byte holes: total 4 KiB, well under the direct
            // threshold, so the whole list travels inline in one request.
            let ranges: Vec<(u64, u64)> = (0..8).map(|i| (i * 8192, 512)).collect();
            let total: u64 = ranges.iter().map(|r| r.1).sum();
            let dst = nic.host().mem.alloc(total as usize);
            let n = list(ctx, c, BatchDir::Read, f.id, &ranges, dst).unwrap();
            assert_eq!(n, total);
            let got = nic.host().mem.read_vec(dst, total as usize);
            let mut expect = Vec::new();
            for &(off, len) in &ranges {
                expect.extend_from_slice(&payload[off as usize..(off + len) as usize]);
            }
            assert_eq!(got, expect);
            assert_eq!(c.stats.inline_reads.bytes(), total);
            assert_eq!(c.stats.direct_reads.bytes(), 0);
            assert_eq!(ctx.metrics().counter("dafs.list.reqs").get(), 1);
            assert_eq!(ctx.metrics().counter("dafs.list.segs").get(), 8);
        });
        b.kernel.run();
    }

    #[test]
    fn list_read_direct_single_rdma_transfer() {
        let b = bed();
        const LEN: usize = 2 << 20;
        b.fs.create(ROOT_ID, "lf").unwrap();
        let fh = b.fs.resolve("/lf").unwrap().id;
        let payload: Vec<u8> = (0..LEN).map(|i| (i / 997) as u8).collect();
        b.fs.write(fh, 0, &payload).unwrap();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "lf").unwrap();
            // 16 strided 64 KiB segments: 1 MiB total goes direct, and a
            // packed destination means one buffer-contiguous run — a single
            // RDMA stream server-side.
            let ranges: Vec<(u64, u64)> = (0..16).map(|i| (i * 128 * 1024, 64 << 10)).collect();
            let total: u64 = ranges.iter().map(|r| r.1).sum();
            let dst = nic.host().mem.alloc(total as usize);
            let cpu_before = nic.host().cpu.busy();
            let n = list(ctx, c, BatchDir::Read, f.id, &ranges, dst).unwrap();
            assert_eq!(n, total);
            let got = nic.host().mem.read_vec(dst, total as usize);
            let mut expect = Vec::new();
            for &(off, len) in &ranges {
                expect.extend_from_slice(&payload[off as usize..(off + len) as usize]);
            }
            assert_eq!(got, expect);
            assert_eq!(c.stats.direct_reads.bytes(), total);
            // Zero-copy on the client: data landed via RDMA Write.
            let spent = nic.host().cpu.busy() - cpu_before;
            assert!(
                spent.as_secs_f64() < 0.001,
                "client burned {spent} on a direct list read"
            );
        });
        b.kernel.run();
    }

    #[test]
    fn list_write_inline_and_direct_place_bytes() {
        let b = bed();
        const SEG: u64 = 40 << 10;
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.create(ctx, ROOT_ID, "lw").unwrap();
            let ranges: Vec<(u64, u64)> = (0..4).map(|i| (i * 3 * SEG, SEG)).collect();
            let total: u64 = ranges.iter().map(|r| r.1).sum();
            let src = nic.host().mem.alloc(total as usize);
            let payload: Vec<u8> = (0..total).map(|i| (i % 199) as u8).collect();
            nic.host().mem.write(src, &payload);
            let n = list(ctx, c, BatchDir::Write, f.id, &ranges, src).unwrap();
            assert_eq!(n, total);
            // 160 KiB total: inline chunks.
            assert_eq!(c.stats.inline_writes.bytes(), total);
        });
        b.kernel.run();
        let attr = b.fs.resolve("/lw").unwrap();
        assert_eq!(attr.size, 3 * 3 * SEG + SEG);
        let mut pos = 0u64;
        for i in 0..4u64 {
            let got = b.fs.read(attr.id, i * 3 * SEG, SEG).unwrap();
            let expect: Vec<u8> = (pos..pos + SEG).map(|j| (j % 199) as u8).collect();
            assert_eq!(got, expect, "segment {i}");
            pos += SEG;
            if i < 3 {
                // The strided gap must be zero-filled, not garbage.
                let gap = b.fs.read(attr.id, i * 3 * SEG + SEG, 2 * SEG).unwrap();
                assert!(gap.iter().all(|&x| x == 0), "gap {i} not zero");
            }
        }
    }

    #[test]
    fn list_read_short_at_eof() {
        let b = bed();
        b.fs.create(ROOT_ID, "s").unwrap();
        let fh = b.fs.resolve("/s").unwrap().id;
        b.fs.write(fh, 0, &[7u8; 1000]).unwrap();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "s").unwrap();
            // Second segment truncated by EOF, third entirely past it.
            let ranges = [(0u64, 500u64), (800, 500), (2000, 100)];
            let dst = nic.host().mem.alloc(1100);
            nic.host().mem.fill(dst, 1100, 0xEE);
            let n = list(ctx, c, BatchDir::Read, f.id, &ranges, dst).unwrap();
            assert_eq!(n, 500 + 200);
            assert_eq!(nic.host().mem.read_vec(dst, 500), vec![7u8; 500]);
            assert_eq!(
                nic.host().mem.read_vec(dst.offset(500), 200),
                vec![7u8; 200]
            );
            // Bytes past EOF were never touched.
            assert_eq!(
                nic.host().mem.read_vec(dst.offset(700), 400),
                vec![0xEE; 400]
            );
        });
        b.kernel.run();
    }

    #[test]
    fn list_longer_than_segment_cap_splits_across_requests() {
        let b = bed();
        const N: usize = 600; // > 2x LIST_MAX_SEGMENTS
        b.fs.create(ROOT_ID, "many").unwrap();
        let fh = b.fs.resolve("/many").unwrap().id;
        let payload: Vec<u8> = (0..N * 64).map(|i| (i % 243) as u8).collect();
        b.fs.write(fh, 0, &payload).unwrap();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "many").unwrap();
            // Every other 32-byte slice of the file.
            let ranges: Vec<(u64, u64)> = (0..N).map(|i| ((i * 64) as u64, 32)).collect();
            let total: u64 = 32 * N as u64;
            let dst = nic.host().mem.alloc(total as usize);
            let n = list(ctx, c, BatchDir::Read, f.id, &ranges, dst).unwrap();
            assert_eq!(n, total);
            let got = nic.host().mem.read_vec(dst, total as usize);
            let mut expect = Vec::new();
            for &(off, len) in &ranges {
                expect.extend_from_slice(&payload[off as usize..(off + len) as usize]);
            }
            assert_eq!(got, expect);
            // 600 segments over a 256-per-request cap: at least 3 wire
            // requests, every segment accounted for.
            assert!(ctx.metrics().counter("dafs.list.reqs").get() >= 3);
            assert_eq!(ctx.metrics().counter("dafs.list.segs").get(), N as u64);
        });
        b.kernel.run();
    }

    #[test]
    fn many_sessions_one_server() {
        let b = bed();
        b.fs.create(ROOT_ID, "shared").unwrap();
        const N: usize = 8;
        for i in 0..N {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host(&format!("c{i}")));
            let sid = b.server.host.id;
            b.kernel.spawn(&format!("client{i}"), move |ctx| {
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "shared").unwrap();
                let data = vec![i as u8 + 1; 32 << 10];
                c.write_bytes(ctx, f.id, (i * (32 << 10)) as u64, &data)
                    .unwrap();
                c.disconnect(ctx);
            });
        }
        b.kernel.run();
        assert_eq!(b.server.stats.sessions.get(), N as u64);
        let fh = b.fs.resolve("/shared").unwrap().id;
        for i in 0..N {
            let got = b.fs.read(fh, (i * (32 << 10)) as u64, 2).unwrap();
            assert_eq!(got, vec![i as u8 + 1; 2]);
        }
    }

    #[test]
    fn zero_dirty_cache_sync_is_wire_free() {
        let b = bed();
        b.fs.create(ROOT_ID, "clean").unwrap();
        let fh = b.fs.resolve("/clean").unwrap().id;
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        b.fs.write(fh, 0, &payload).unwrap();
        let cfg = DafsClientConfig {
            cache_write_back: true,
            ..client_config()
        };
        let want = payload.clone();
        with_client(&b, cfg, move |ctx, c, nic| {
            // Nothing cached at all: sync must not touch the wire.
            let ops = c.stats.ops.get();
            assert_eq!(c.cache_sync(ctx).unwrap(), 0);
            assert_eq!(c.stats.ops.get(), ops, "empty-cache sync sent a request");
            // Holding a clean lease: still nothing to flush, still no wire.
            let f = c.lookup(ctx, ROOT_ID, "clean").unwrap();
            c.cache_file(f.id);
            let dst = nic.host().mem.alloc(4096);
            assert_eq!(c.read(ctx, f.id, 0, dst, 4096).unwrap(), 4096);
            assert_eq!(nic.host().mem.read_vec(dst, 4096), want);
            let ops = c.stats.ops.get();
            assert_eq!(c.cache_sync(ctx).unwrap(), 0);
            assert_eq!(c.stats.ops.get(), ops, "clean-lease sync sent a request");
            // Dirty → one flush; the immediate second sync is a no-op again.
            let src = nic.host().mem.alloc(4096);
            nic.host().mem.fill(src, 4096, 0x3C);
            c.write(ctx, f.id, 0, src, 4096).unwrap();
            assert_eq!(c.cache_sync(ctx).unwrap(), 1);
            let ops = c.stats.ops.get();
            assert_eq!(c.cache_sync(ctx).unwrap(), 0);
            assert_eq!(c.stats.ops.get(), ops, "back-to-back sync sent a request");
        });
        b.kernel.run();
        assert_eq!(b.fs.read(fh, 0, 4096).unwrap(), vec![0x3C; 4096]);
    }

    /// A client striped over two servers from one host counts each event
    /// once: a session's handle is its `{host, server}` series, and the
    /// series sum to the run-wide totals. A third session from the host to
    /// one of the servers shares that pair's series.
    #[test]
    fn striped_sessions_count_into_their_host_server_series() {
        use simnet::obs::Labels;
        const STRIPE: u64 = 4096;
        let kernel = SimKernel::new();
        let cluster = Cluster::new();
        let fabric = ViaFabric::new(ViaCost::default());
        let sids: Vec<_> = (0..2)
            .map(|s| {
                let fs = MemFs::new();
                let piece = fs.create(ROOT_ID, "piece").unwrap().id;
                fs.write(piece, 0, &[s as u8; 2 * STRIPE as usize]).unwrap();
                let nic = fabric.open_nic(cluster.add_host(&format!("server{s}")));
                let cost = DafsServerCost::default();
                spawn_dafs_server(&kernel, &fabric, nic, fs, 2049, cost)
                    .host
                    .id
            })
            .collect();
        let nic = fabric.open_nic(cluster.add_host("client"));
        kernel.spawn("client", move |ctx| {
            let clients: Vec<Arc<DafsClient>> = sids
                .iter()
                .map(|&sid| {
                    let c = DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config());
                    Arc::new(c.unwrap())
                })
                .collect();
            let fhs = clients
                .iter()
                .map(|c| {
                    let fh = c.lookup(ctx, ROOT_ID, "piece").unwrap().id;
                    c.cache_file(fh);
                    fh
                })
                .collect();
            let file = DafsStripedFile::new(clients.clone(), fhs, STRIPE);
            let buf = nic.host().mem.alloc(4 * STRIPE as usize);
            // Both stripes twice (misses, then hits on each session), then
            // server 0's stripe alone and one more request to server 0, so
            // the two sessions' counts differ.
            for len in [4 * STRIPE, 4 * STRIPE, STRIPE] {
                assert_eq!(file.read(ctx, 0, buf, len), Ok(len));
            }
            clients[0].lookup(ctx, ROOT_ID, "piece").unwrap();
            let snap = ctx.obs().snapshot(ctx.now().as_nanos());
            let host = nic.host().id.0 as u64;
            let want_ops0 = clients[0].stats.ops.get();
            let handle = |name, c: &DafsClient| match name {
                "dafs.ops" => c.stats.ops.get(),
                _ => c.cache_stats.hits.get(),
            };
            for name in ["dafs.ops", "dafs.cache.hits"] {
                let want: Vec<(Labels, u64)> = clients
                    .iter()
                    .zip(&sids)
                    .map(|(c, sid)| {
                        (
                            Labels::NONE.host(host).server(sid.0 as u64),
                            handle(name, c),
                        )
                    })
                    .collect();
                let series: Vec<(Labels, u64)> =
                    snap.series(name).map(|e| (e.labels, e.value())).collect();
                assert_eq!(series, want, "{name}");
                assert_ne!(want[0].1, want[1].1, "{name}: the sessions' counts differ");
                let total: u64 = want.iter().map(|w| w.1).sum();
                assert_eq!(snap.expect(name).value(), total, "{name}");
                assert_eq!(ctx.metrics().total(name), total, "{name}");
            }
            // The series is per host–server pair: a second session from this
            // host to server 0 reads and bumps the first one's, its Hello
            // included. A handle it has not bumped yet reads 0.
            let again = DafsClient::connect(ctx, &fabric, &nic, sids[0], 2049, client_config());
            let again = again.unwrap();
            let first = &clients[0];
            assert_eq!(again.stats.ops.get(), want_ops0 + 1);
            assert_eq!(first.stats.ops.get(), want_ops0 + 1);
            assert_eq!(again.cache_stats.hits.get(), first.cache_stats.hits.get());
            assert!(first.cache_stats.misses.get() > 0);
            assert_eq!(again.cache_stats.misses.get(), 0);
            let snap = ctx.obs().snapshot(ctx.now().as_nanos());
            let row = snap.series("dafs.ops").next().unwrap();
            assert_eq!(row.labels, Labels::NONE.host(host).server(sids[0].0 as u64));
            assert_eq!(row.value(), want_ops0 + 1);
            again.disconnect(ctx);
            for c in &clients {
                c.disconnect(ctx);
            }
        });
        kernel.run();
    }

    #[test]
    fn cached_reread_is_wire_free() {
        let b = bed();
        b.fs.create(ROOT_ID, "hot").unwrap();
        let fh = b.fs.resolve("/hot").unwrap().id;
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        b.fs.write(fh, 0, &payload).unwrap();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "hot").unwrap();
            c.cache_file(f.id);
            let dst = nic.host().mem.alloc(8192);
            let n = c.read(ctx, f.id, 0, dst, 8192).unwrap();
            assert_eq!(n, 8192);
            assert_eq!(nic.host().mem.read_vec(dst, 8192), payload);
            assert_eq!(c.cache_stats.misses.get(), 1);
            assert_eq!(c.cache_stats.hits.get(), 0);
            // Re-read: served from cached pages, nothing on the wire.
            let wire = c.stats.inline_reads.bytes() + c.stats.direct_reads.bytes();
            let ops = c.stats.ops.get();
            nic.host().mem.fill(dst, 8192, 0);
            let n = c.read(ctx, f.id, 0, dst, 8192).unwrap();
            assert_eq!(n, 8192);
            assert_eq!(nic.host().mem.read_vec(dst, 8192), payload);
            assert_eq!(c.cache_stats.hits.get(), 1);
            assert_eq!(
                c.stats.inline_reads.bytes() + c.stats.direct_reads.bytes(),
                wire,
                "cache hit moved bytes over the wire"
            );
            assert_eq!(c.stats.ops.get(), ops, "cache hit issued a request");
            // Attributes ride the same lease: getattr is now free too.
            let a = c.getattr(ctx, f.id).unwrap();
            assert_eq!(a.size, 8192);
            assert_eq!(c.cache_stats.attr_hits.get(), 1);
            assert_eq!(c.stats.ops.get(), ops);
        });
        b.kernel.run();
    }

    /// A cached miss keeps what the NIC placed: a direct fetch lands the
    /// server's memfs pages in the scratch buffer as views, and each cached
    /// page is a view of them — the same bytes in the server's memory, not
    /// a copy. (Each page used to be copied twice on the way in.)
    #[test]
    fn a_cached_miss_keeps_views_of_the_servers_pages() {
        let b = bed();
        let image: Vec<u8> = (0..16384u32).map(|i| (i % 253) as u8).collect();
        let fh = server_file(&b, "views", &image);
        let fs = b.fs.clone();
        with_client(&b, client_config(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "views").unwrap().id;
            c.cache_file(f);
            let dst = nic.host().mem.alloc(16384);
            assert_eq!(c.read(ctx, f, 0, dst, 16384).unwrap(), 16384);
            assert_eq!(nic.host().mem.read_vec(dst, 16384), image);
            assert_eq!(c.cache_stats.misses.get(), 1);
            for p in 0..4 {
                let page = c.cached_page(f, p).expect("cached");
                let server = fs.read_views(fh, p * 4096, 4096).unwrap();
                let server = server.as_single().expect("inside one memfs page");
                assert_eq!(page, *server);
                assert!(
                    std::ptr::eq(page.as_ptr(), server.as_ptr()),
                    "page {p} is a copy of the server's bytes"
                );
            }
        });
        b.kernel.run();
    }

    /// A buffered write into part of a page that is a view of the server's
    /// memfs page copies that page first: the server's bytes stay as they
    /// were until the flush, and the pages the write did not touch are
    /// still the server's views.
    #[test]
    fn a_partial_write_back_write_into_a_fetched_page_leaves_the_memfs_page_alone() {
        let b = bed();
        let image: Vec<u8> = (0..16384u32).map(|i| (i % 251) as u8).collect();
        let fh = server_file(&b, "cow", &image);
        let fs = b.fs.clone();
        let want = image.clone();
        with_client(&b, write_back(), move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "cow").unwrap().id;
            c.cache_file(f);
            let mem = &nic.host().mem;
            let (src, dst) = (mem.alloc(100), mem.alloc(16384));
            assert_eq!(c.read(ctx, f, 0, dst, 16384).unwrap(), 16384);
            mem.fill(src, 100, 0xEE);
            c.write(ctx, f, 1000, src, 100).unwrap();
            assert_eq!(
                fs.read(fh, 0, 16384).unwrap(),
                want,
                "the server's pages moved"
            );
            let page = c.cached_page(f, 0).unwrap();
            assert!(page[1000..1100] == [0xEE; 100] && page[..1000] == want[..1000]);
            for p in 1..4 {
                let server = fs.read_views(fh, p * 4096, 4096).unwrap();
                let page = c.cached_page(f, p).unwrap();
                assert!(
                    std::ptr::eq(page.as_ptr(), server.as_single().unwrap().as_ptr()),
                    "untouched page {p} is not the server's view"
                );
            }
            assert_eq!(c.cache_sync(ctx).unwrap(), 1);
        });
        b.kernel.run();
        let got = b.fs.read(fh, 0, 16384).unwrap();
        assert!(got[1000..1100] == [0xEE; 100], "the flush did not land");
        assert!(got[..1000] == image[..1000] && got[1100..] == image[1100..]);
    }

    #[test]
    fn conflicting_write_recalls_lease_and_reader_sees_new_bytes() {
        let b = bed();
        b.fs.create(ROOT_ID, "shared").unwrap();
        let fh = b.fs.resolve("/shared").unwrap().id;
        b.fs.write(fh, 0, &[0xAA; 4096]).unwrap();
        let wrote = Arc::new(AtomicU64::new(0));
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("reader"));
            let sid = b.server.host.id;
            b.kernel.spawn("reader", move |ctx| {
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "shared").unwrap();
                c.cache_file(f.id);
                let dst = nic.host().mem.alloc(4096);
                c.read(ctx, f.id, 0, dst, 4096).unwrap();
                assert_eq!(nic.host().mem.read_vec(dst, 4096), vec![0xAA; 4096]);
                // The writer shows up at ms(2); its WRITE parks behind our
                // lease until the next cache entry point services the recall.
                ctx.advance(ms(5));
                let n = c.read(ctx, f.id, 0, dst, 4096).unwrap();
                assert_eq!(n, 4096);
                assert_eq!(
                    nic.host().mem.read_vec(dst, 4096),
                    vec![0xBB; 4096],
                    "recalled reader still served stale bytes"
                );
                assert_eq!(c.cache_stats.recalls.get(), 1);
                assert!(c.cache_stats.invalidations.get() > 0);
                c.disconnect(ctx);
            });
        }
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("writer"));
            let sid = b.server.host.id;
            let wrote = wrote.clone();
            b.kernel.spawn("writer", move |ctx| {
                ctx.advance(ms(2));
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "shared").unwrap();
                c.write_bytes(ctx, f.id, 0, &[0xBB; 4096]).unwrap();
                wrote.store(ctx.now().as_nanos(), Ordering::SeqCst);
                c.disconnect(ctx);
            });
        }
        b.kernel.run();
        // The write was deferred until the reader acked at ms(5).
        assert!(wrote.load(Ordering::SeqCst) >= ms(5).as_nanos());
        assert_eq!(b.fs.read(fh, 0, 4).unwrap(), vec![0xBB; 4]);
    }

    #[test]
    fn write_back_holder_flushes_on_recall_before_reader_proceeds() {
        let b = bed();
        b.fs.create(ROOT_ID, "wb").unwrap();
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("wb-holder"));
            let sid = b.server.host.id;
            let fs = b.fs.clone();
            let cfg = DafsClientConfig {
                cache_write_back: true,
                ..client_config()
            };
            b.kernel.spawn("wb-holder", move |ctx| {
                let c = DafsClient::connect(ctx, &fabric, &nic, sid, 2049, cfg).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "wb").unwrap();
                c.cache_file(f.id);
                let src = nic.host().mem.alloc(4096);
                nic.host().mem.fill(src, 4096, 0x5A);
                let a = c.write(ctx, f.id, 0, src, 4096).unwrap();
                assert_eq!(a.size, 4096, "buffered write must report new EOF");
                assert_eq!(
                    fs.resolve("/wb").unwrap().size,
                    0,
                    "write-back data reached the server before any flush"
                );
                // A reader connects at ms(2); servicing its recall flushes
                // the dirty pages before the ack releases the lease.
                ctx.advance(ms(5));
                c.getattr(ctx, f.id).unwrap();
                assert_eq!(c.cache_stats.recalls.get(), 1);
                assert_eq!(fs.resolve("/wb").unwrap().size, 4096);
                c.disconnect(ctx);
            });
        }
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("wb-reader"));
            let sid = b.server.host.id;
            b.kernel.spawn("wb-reader", move |ctx| {
                ctx.advance(ms(2));
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "wb").unwrap();
                // Parked behind the write lease; must observe the flushed
                // image, never the pre-write hole.
                let got = c.read_to_vec(ctx, f.id, 0, 4096).unwrap();
                assert_eq!(got, vec![0x5A; 4096]);
                assert!(ctx.now().as_nanos() >= ms(5).as_nanos());
                c.disconnect(ctx);
            });
        }
        b.kernel.run();
    }

    #[test]
    fn voluntary_release_lets_writers_through_without_recall() {
        let b = bed();
        b.fs.create(ROOT_ID, "rel").unwrap();
        let fh = b.fs.resolve("/rel").unwrap().id;
        b.fs.write(fh, 0, &[1u8; 4096]).unwrap();
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("releaser"));
            let sid = b.server.host.id;
            b.kernel.spawn("releaser", move |ctx| {
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "rel").unwrap();
                c.cache_file(f.id);
                let dst = nic.host().mem.alloc(4096);
                c.read(ctx, f.id, 0, dst, 4096).unwrap();
                c.cache_release(ctx, f.id).unwrap();
                // Idle well past the writer; with the lease returned, no
                // recall ever reaches us.
                ctx.advance(ms(20));
                assert_eq!(c.cache_stats.recalls.get(), 0);
                c.disconnect(ctx);
            });
        }
        let wrote = Arc::new(AtomicU64::new(u64::MAX));
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("late-writer"));
            let sid = b.server.host.id;
            let wrote = wrote.clone();
            b.kernel.spawn("late-writer", move |ctx| {
                ctx.advance(ms(2));
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "rel").unwrap();
                c.write_bytes(ctx, f.id, 0, &[2u8; 4096]).unwrap();
                wrote.store(ctx.now().as_nanos(), Ordering::SeqCst);
                c.disconnect(ctx);
            });
        }
        b.kernel.run();
        // The write sailed through at ~ms(2): it never waited for the
        // releaser's ms(20) wakeup.
        assert!(wrote.load(Ordering::SeqCst) < ms(10).as_nanos());
        assert_eq!(b.fs.read(fh, 0, 4).unwrap(), vec![2u8; 4]);
    }

    #[test]
    fn holder_disconnect_releases_leases_for_waiters() {
        let b = bed();
        b.fs.create(ROOT_ID, "gone").unwrap();
        let fh = b.fs.resolve("/gone").unwrap().id;
        b.fs.write(fh, 0, &[7u8; 1024]).unwrap();
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("leaver"));
            let sid = b.server.host.id;
            b.kernel.spawn("leaver", move |ctx| {
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "gone").unwrap();
                c.cache_file(f.id);
                let dst = nic.host().mem.alloc(1024);
                c.read(ctx, f.id, 0, dst, 1024).unwrap();
                // Disconnect with the lease held: the shutdown path must
                // release it so waiting writers are replayed.
                c.disconnect(ctx);
            });
        }
        {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host("after"));
            let sid = b.server.host.id;
            b.kernel.spawn("after", move |ctx| {
                ctx.advance(ms(2));
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "gone").unwrap();
                c.write_bytes(ctx, f.id, 0, &[8u8; 1024]).unwrap();
                c.disconnect(ctx);
            });
        }
        b.kernel.run();
        assert_eq!(b.fs.read(fh, 0, 4).unwrap(), vec![8u8; 4]);
    }

    fn write_back() -> DafsClientConfig {
        DafsClientConfig {
            cache_write_back: true,
            ..client_config()
        }
    }

    /// `name` on the server, holding `image`.
    fn server_file(b: &Bed, name: &str, image: &[u8]) -> memfs::NodeId {
        let fh = b.fs.create(ROOT_ID, name).unwrap().id;
        b.fs.write(fh, 0, image).unwrap();
        fh
    }

    /// The page invariant, write side: a buffered write that starts on a
    /// page boundary and ends inside the page is a read-modify-write like
    /// any other partial page. It used to leave a 100-byte dirty page, which
    /// the next cached read took for missing and replaced with the server's
    /// bytes — the write was never seen again, by this session or the file.
    #[test]
    fn buffered_write_inside_one_page_keeps_the_bytes_beside_it_and_itself() {
        let b = bed();
        let fh = server_file(&b, "rmw", &[0xAA; 4096]);
        with_client(&b, write_back(), |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "rmw").unwrap();
            c.cache_file(f.id);
            let mem = &nic.host().mem;
            let (src, dst) = (mem.alloc(100), mem.alloc(4096));
            mem.fill(src, 100, 0xBB);
            c.write(ctx, f.id, 0, src, 100).unwrap();
            assert_eq!(c.read(ctx, f.id, 0, dst, 4096).unwrap(), 4096);
            let got = mem.read_vec(dst, 4096);
            assert!(got[..100] == [0xBB; 100], "own write lost: {:#x}", got[0]);
            assert!(got[100..] == [0xAA; 3996], "the bytes beside the write");
            assert_eq!(c.cache_sync(ctx).unwrap(), 1);
        });
        b.kernel.run();
        let image = b.fs.read(fh, 0, 4096).unwrap();
        assert!(
            image[..100] == [0xBB; 100],
            "the write never reached the server"
        );
        assert!(image[100..] == [0xAA; 3996]);
    }

    /// The page invariant, read side: what lies between two buffered writes
    /// past the old end of file is a hole, and a cached read returns it as
    /// zeros. It used to leave that part of the caller's buffer alone.
    #[test]
    fn cached_read_of_a_hole_between_buffered_writes_is_zeros() {
        let b = bed();
        let fh = server_file(&b, "hole", &[]);
        with_client(&b, write_back(), |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "hole").unwrap();
            c.cache_file(f.id);
            let mem = &nic.host().mem;
            let (src, dst) = (mem.alloc(100), mem.alloc(5100));
            mem.fill(src, 100, 0xBB);
            c.write(ctx, f.id, 0, src, 100).unwrap();
            c.write(ctx, f.id, 5000, src, 100).unwrap();
            mem.fill(dst, 5100, 0xEE);
            assert_eq!(c.read(ctx, f.id, 0, dst, 5100).unwrap(), 5100);
            let got = mem.read_vec(dst, 5100);
            assert!(got[..100] == [0xBB; 100] && got[5000..] == [0xBB; 100]);
            assert!(
                got[100..5000].iter().all(|&x| x == 0),
                "the hole is not zeros"
            );
        });
        b.kernel.run();
        assert_eq!(b.fs.getattr(fh).unwrap().size, 5100);
    }

    /// Nothing mutating goes to the server past the cache: a resize, an
    /// append and a batch write each flush the file's buffered pages first.
    /// Each used to drop the dirty pages it touched like clean ones — the
    /// truncated file came back as zeros, the appended record landed at
    /// offset 0, and the 100-byte write took the other 3 996 bytes of its
    /// page with it.
    #[test]
    fn truncate_append_and_a_batch_write_land_on_top_of_buffered_data() {
        let b = bed();
        let fhs = ["trunc", "app", "batch"].map(|name| server_file(&b, name, &[]));
        with_client(&b, write_back(), |ctx, c, nic| {
            let mem = &nic.host().mem;
            let (src, small) = (mem.alloc(8192), mem.alloc(100));
            mem.fill(src, 8192, 0xBB);
            mem.fill(small, 100, 0xCC);
            let open = |name: &str| {
                let f = c.lookup(ctx, ROOT_ID, name).unwrap().id;
                c.cache_file(f);
                f
            };

            let f = open("trunc");
            c.write(ctx, f, 0, src, 8192).unwrap();
            assert_eq!(c.truncate(ctx, f, 4096).unwrap().size, 4096);

            let f = open("app");
            c.write(ctx, f, 0, src, 4096).unwrap();
            assert_eq!(c.append(ctx, f, &[0xCC; 100]).unwrap(), 4096);

            let f = open("batch");
            c.write(ctx, f, 0, src, 4096).unwrap();
            let (off, addr, len) = (0, small, 100);
            let batch = c.issue(ctx, BatchDir::Write, f, &[IoReq { off, addr, len }]);
            assert_eq!(c.batch_finish(ctx, batch), [Ok(100)]);

            c.cache_sync(ctx).unwrap();
        });
        b.kernel.run();
        let image = |fh| b.fs.read(fh, 0, 1 << 20).unwrap();
        assert!(
            image(fhs[0]) == [0xBB; 4096],
            "truncate threw the buffer away"
        );
        let app = image(fhs[1]);
        assert_eq!(
            app.len(),
            4196,
            "append did not land after the buffered bytes"
        );
        assert!(app[..4096] == [0xBB; 4096] && app[4096..] == [0xCC; 100]);
        let batch = image(fhs[2]);
        assert_eq!(batch.len(), 4096, "the rest of the dirty page is gone");
        assert!(batch[..100] == [0xCC; 100] && batch[100..] == [0xBB; 3996]);
    }

    /// One way in. On a session that caches the file, `read`, `getattr` and
    /// `read_to_vec` — the calls a handle opened without any hint makes —
    /// are served from the buffered pages: the session's own bytes and
    /// size, `hits` moving, not one request to the server, whose image is
    /// still the old one. (They were a second route past the cache: stale
    /// until PR 21, then flushing the file first.) Another session sees
    /// the data only after the holder's flush: its read parks behind the
    /// recall until the holder next enters a call.
    #[test]
    fn every_read_of_a_cached_file_sees_buffered_data_without_the_server() {
        let b = bed();
        let fh = server_file(&b, "own", &[0xAA; 4096]);
        let fs = b.fs.clone();
        with_named_client(&b, "holder", write_back(), move |ctx, c, nic| {
            let mem = &nic.host().mem;
            let (src, dst) = (mem.alloc(100), mem.alloc(4096));
            mem.fill(src, 100, 0xBB);
            let f = c.lookup(ctx, ROOT_ID, "own").unwrap().id;
            c.cache_file(f);
            c.write(ctx, f, 0, src, 100).unwrap();
            c.write(ctx, f, 8000, src, 100).unwrap();
            let (ops, hits) = (c.stats.ops.get(), c.cache_stats.hits.get());
            assert_eq!(c.read(ctx, f, 0, dst, 4096).unwrap(), 4096);
            let got = mem.read_vec(dst, 4096);
            assert!(got[..100] == [0xBB; 100] && got[100..] == [0xAA; 3996]);
            assert_eq!(c.getattr(ctx, f).unwrap().size, 8100);
            let got = c.read_to_vec(ctx, f, 50, 100).unwrap();
            assert!(got == [[0xBB; 50], [0xAA; 50]].concat());
            assert_eq!(c.cache_stats.hits.get(), hits + 2);
            assert_eq!(c.stats.ops.get(), ops, "a hit went to the server");
            assert_eq!(fs.getattr(fh).unwrap().size, 4096, "flushed early");
            // The other session's read arrives at 2 ms and parks.
            ctx.advance(ms(5));
            c.getattr(ctx, f).unwrap();
            assert_eq!(c.cache_stats.recalls.get(), 1);
            assert_eq!(fs.getattr(fh).unwrap().size, 8100);
        });
        with_named_client(&b, "other", client_config(), |ctx, c, _| {
            ctx.advance(ms(2));
            let f = c.lookup(ctx, ROOT_ID, "own").unwrap().id;
            let got = c.read_to_vec(ctx, f, 0, 200).unwrap();
            assert!(got == [[0xBB; 100], [0xAA; 100]].concat(), "{:#x}", got[0]);
            assert!(ctx.now().as_nanos() >= ms(5).as_nanos(), "did not park");
        });
        b.kernel.run();
    }

    /// The trap the one entry opened: `write_bytes` used to stage the
    /// caller's slice in the session's scratch buffer, and the buffered
    /// write's pre-fault of a partly covered page goes through that same
    /// buffer — it landed on top of the payload before the cache read it.
    /// The cache now takes the caller's bytes as they are. (The parent had
    /// no route from `write_bytes` to a buffered write, so no test of it
    /// could; with the staging put back, bytes 0..100 of the page come back
    /// in place of the caller's.)
    #[test]
    fn write_bytes_into_a_cached_page_buffers_the_callers_bytes() {
        let b = bed();
        let image: Vec<u8> = (0..4096u32).map(|i| (i % 199) as u8 + 1).collect();
        let fh = server_file(&b, "trap", &image);
        with_client(&b, write_back(), |ctx, c, _| {
            let f = c.lookup(ctx, ROOT_ID, "trap").unwrap().id;
            c.cache_file(f);
            c.write_bytes(ctx, f, 1000, &[0xEE; 100]).unwrap();
            assert_eq!(c.cache_sync(ctx).unwrap(), 1);
        });
        b.kernel.run();
        let got = b.fs.read(fh, 0, 4096).unwrap();
        assert!(got[1000..1100] == [0xEE; 100], "payload: {:#x}", got[1000]);
        assert!(got[..1000] == image[..1000] && got[1100..] == image[1100..]);
    }

    /// A session that caches file A is, for a file B it does not cache, the
    /// session that caches nothing: `read`, `write` and `getattr` of B cost
    /// the same requests and the same virtual time and move no `cache`
    /// counter — the driver's first step is the pass-through, ahead of the
    /// poll for recalls that holding A's lease would otherwise cost every
    /// call. (New with enrolment: nothing at the parent could say it.)
    #[test]
    fn a_file_the_session_does_not_cache_costs_what_it_costs_without_a_cache() {
        let run = |enrol: bool| {
            let b = bed();
            server_file(&b, "a", &[0xAA; 8192]);
            server_file(&b, "b", &[0xBB; 8192]);
            let out = Arc::new(parking_lot::Mutex::new(None));
            let seen = out.clone();
            with_client(&b, write_back(), move |ctx, c, nic| {
                let mem = &nic.host().mem;
                let (for_a, for_b) = (mem.alloc(4096), mem.alloc(4096));
                let a = c.lookup(ctx, ROOT_ID, "a").unwrap().id;
                let f = c.lookup(ctx, ROOT_ID, "b").unwrap().id;
                if enrol {
                    c.cache_file(a);
                }
                // Holding A's lease, a page of it dirty.
                c.read(ctx, a, 0, for_a, 4096).unwrap();
                c.write(ctx, a, 4096, for_a, 4096).unwrap();
                let cache = |c: &DafsClient| {
                    let s = &c.cache_stats;
                    let (reads, attrs) = ([&s.hits, &s.misses], [&s.attr_hits, &s.attr_misses]);
                    let flushes = [&s.flush_batches, &s.flush_pages];
                    let all = [reads, attrs, [&s.recalls, &s.invalidations], flushes];
                    all.iter().flatten().map(|n| n.get()).sum::<u64>()
                };
                let (t0, ops, counted) = (ctx.now(), c.stats.ops.get(), cache(c));
                assert_eq!(c.read(ctx, f, 0, for_b, 4096).unwrap(), 4096);
                assert_eq!(c.write(ctx, f, 100, for_b, 1000).unwrap().size, 8192);
                assert_eq!(c.getattr(ctx, f).unwrap().size, 8192);
                assert_eq!(cache(c), counted, "a cache counter moved");
                let cost = (c.stats.ops.get() - ops, ctx.now().since(t0).as_nanos());
                *seen.lock() = Some(cost);
            });
            b.kernel.run();
            let cost = out.lock().take();
            cost.expect("the client ran")
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(false).0, 3, "one request each");
    }

    /// Two sessions that cache `name` and read page 0 of it (so both hold a
    /// read lease), then run `then` with `(ctx, client, fh, index, buffer)`.
    fn two_readers(
        b: &Bed,
        name: &'static str,
        then: impl Fn(&simnet::ActorCtx, &DafsClient, memfs::NodeId, usize, VirtAddr)
            + Clone
            + Send
            + 'static,
    ) {
        for i in 0..2 {
            let fabric = b.fabric.clone();
            let nic = fabric.open_nic(b.cluster.add_host(&format!("reader{i}")));
            let sid = b.server.host.id;
            let then = then.clone();
            b.kernel.spawn(&format!("reader{i}"), move |ctx| {
                let c =
                    DafsClient::connect(ctx, &fabric, &nic, sid, 2049, client_config()).unwrap();
                let f = c.lookup(ctx, ROOT_ID, name).unwrap();
                c.cache_file(f.id);
                let buf = nic.host().mem.alloc(4096);
                assert_eq!(c.read(ctx, f.id, 0, buf, 4096).unwrap(), 4096);
                assert_eq!(nic.host().mem.read_vec(buf, 4096), vec![0xAA; 4096]);
                then(ctx, &c, f.id, i, buf);
                c.disconnect(ctx);
            });
        }
    }

    /// A read-lease holder hands its lease back before it writes, so the
    /// server recalls the other readers like for any writer. The server
    /// lets a holder's own requests through, so the write used to go past
    /// reader 1, which served the old page for ever (leases have no term).
    #[test]
    fn a_reader_that_writes_is_a_writer_to_the_other_readers() {
        let b = bed();
        let fh = server_file(&b, "two", &[0xAA; 4096]);
        two_readers(&b, "two", |ctx, c, f, i, buf| {
            let mem = &c.nic().host().mem;
            if i == 0 {
                ctx.advance(ms(2));
                mem.fill(buf, 4096, 0xBB);
                c.write(ctx, f, 0, buf, 4096).unwrap();
            } else {
                ctx.advance(ms(10));
                assert_eq!(c.read(ctx, f, 0, buf, 4096).unwrap(), 4096);
                let got = mem.read_vec(buf, 4096);
                assert!(got == [0xBB; 4096], "stale: {:#x}", got[0]);
                assert_eq!(c.cache_stats.recalls.get(), 1);
            }
        });
        b.kernel.run();
        assert_eq!(b.fs.read(fh, 0, 4096).unwrap(), vec![0xBB; 4096]);
    }

    /// Two read holders that write at the same moment both finish: each
    /// hand-back completes whatever recall waits on the releaser, so
    /// neither write can park behind a holder that is itself parked.
    #[test]
    fn two_read_holders_writing_at_once_both_finish() {
        let b = bed();
        let fh = server_file(&b, "both", &[0xAA; 4096]);
        two_readers(&b, "both", |ctx, c, f, i, buf| {
            ctx.advance(ms(2));
            c.nic().host().mem.fill(buf, 2048, 0xB0 + i as u8);
            c.write(ctx, f, 2048 * i as u64, buf, 2048).unwrap();
        });
        b.kernel.run();
        let image = b.fs.read(fh, 0, 4096).unwrap();
        assert!(image[..2048] == [0xB0; 2048] && image[2048..] == [0xB1; 2048]);
    }
}
