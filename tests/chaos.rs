//! Chaos suite: the full MPI-IO stack must survive seeded packet loss,
//! link flaps, and a mid-run server crash — completing with byte-identical
//! data and without hanging (every run is checked against a virtual-time
//! deadline; a stuck retry loop would blow far past it).
//!
//! All faults come from a seeded [`FaultPlan`], so every failure here is
//! exactly reproducible: rerun the test and the same messages drop at the
//! same virtual instants.

use mpio_dafs::memfs::ROOT_ID;
use mpio_dafs::mpiio::{
    read_at_all, write_at_all, Backend, Datatype, Hints, JobReport, MpiFile, OpenMode, Testbed,
};
use mpio_dafs::simnet::units::*;
use mpio_dafs::simnet::{ActorCtx, Cluster, FaultPlan, HostId, SimKernel, SimTime};
use mpio_dafs::{dafs, nfsv3, tcpnet, via};

/// The file server is always the first host a [`Testbed`] creates.
const SERVER: HostId = HostId(0);

/// Virtual-time deadline: the fault-free workloads below finish in well
/// under a second of virtual time; recovery adds bounded backoff. Anything
/// past this means a retry loop wedged.
const DEADLINE_NS: u64 = 120 * 1_000_000_000;

/// R-F2-shaped workload on a faulted testbed: every rank writes its slab,
/// barriers, reads it back, and asserts byte-identical contents; afterwards
/// the server filesystem is verified too.
fn faulted_roundtrip(backend: Backend, plan: FaultPlan, ranks: usize, block: usize) -> JobReport {
    let tb = Testbed::with_faults(backend, plan);
    let fs = tb.fs.clone();
    let report = tb.run(ranks, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/chaos",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        let src = host.mem.alloc(block);
        host.mem.fill(src, block, comm.rank() as u8 + 1);
        f.write_at(ctx, (comm.rank() * block) as u64, src, block as u64)
            .unwrap();
        comm.barrier(ctx);
        let dst = host.mem.alloc(block);
        let n = f
            .read_at(ctx, (comm.rank() * block) as u64, dst, block as u64)
            .unwrap();
        assert_eq!(n, block as u64, "short read under faults");
        assert_eq!(
            host.mem.read_vec(dst, block),
            vec![comm.rank() as u8 + 1; block],
            "rank {} read back corrupt data",
            comm.rank()
        );
    });
    assert!(
        report.end_time.as_nanos() < DEADLINE_NS,
        "virtual-time deadline blown: {} ns (recovery wedged?)",
        report.end_time.as_nanos()
    );
    let attr = fs.resolve("/chaos").unwrap();
    assert_eq!(attr.size, (ranks * block) as u64);
    let data = fs.read(attr.id, 0, attr.size).unwrap();
    for r in 0..ranks {
        assert!(
            data[r * block..(r + 1) * block]
                .iter()
                .all(|&b| b == r as u8 + 1),
            "server holds corrupt bytes for rank {r}"
        );
    }
    report
}

// --- loss ladders -----------------------------------------------------------

#[test]
fn dafs_survives_loss_ladder() {
    for (i, loss) in [0.001, 0.01, 0.05].into_iter().enumerate() {
        let plan = FaultPlan::builder(0xC4A05 + i as u64).loss(loss).build();
        faulted_roundtrip(Backend::dafs(), plan, 2, 256 << 10);
    }
}

#[test]
fn nfs_survives_loss_ladder() {
    for (i, loss) in [0.001, 0.01, 0.05].into_iter().enumerate() {
        let plan = FaultPlan::builder(0x9F5 + i as u64).loss(loss).build();
        faulted_roundtrip(Backend::nfs(), plan, 2, 256 << 10);
    }
}

#[test]
fn heavy_loss_actually_exercises_recovery() {
    // Guard against a silently disarmed fault plan: at 5% loss over a
    // multi-hundred-message run, drops and recovery work must show up.
    let plan = FaultPlan::builder(0xDEAD).loss(0.05).build();
    let dafs = faulted_roundtrip(Backend::dafs(), plan, 2, 512 << 10);
    let plan = FaultPlan::builder(0xDEAD).loss(0.05).build();
    let nfs = faulted_roundtrip(Backend::nfs(), plan, 2, 512 << 10);
    let dropped = |r: &JobReport| {
        r.snapshot
            .get("sim.faults.dropped")
            .map(|e| e.value())
            .unwrap_or(0)
    };
    assert!(dropped(&dafs) > 0, "no DAFS messages dropped at 5% loss");
    assert!(dropped(&nfs) > 0, "no NFS messages dropped at 5% loss");
    assert!(
        dafs.snapshot
            .get("dafs.reconnects")
            .map(|e| e.value())
            .unwrap_or(0)
            > 0,
        "DAFS dropped messages but never reconnected"
    );
    assert!(
        nfs.snapshot
            .get("nfs.retrans")
            .map(|e| e.value())
            .unwrap_or(0)
            > 0,
        "NFS dropped messages but never retransmitted"
    );
}

// --- pipelined collective sweep under faults --------------------------------

/// The double-buffered two-phase sweep keeps a nonblocking filesystem
/// batch in flight across fault windows; its split-phase recovery (fail
/// the batch, rerun synchronously) must land the same bytes the
/// synchronous sweep would. Interleaved rank views force a genuinely
/// multi-phase sweep on both backends.
#[test]
fn pipelined_collective_survives_loss() {
    for (backend, seed) in [(Backend::dafs(), 0x919E_u64), (Backend::nfs(), 0x919F_u64)] {
        for (i, loss) in [0.005, 0.02].into_iter().enumerate() {
            let plan = FaultPlan::builder(seed + i as u64).loss(loss).build();
            let ranks = 2usize;
            let block = 64u64 << 10;
            let tb = Testbed::with_faults(backend.clone(), plan);
            let fs = tb.fs.clone();
            let report = tb.run(ranks, move |ctx, comm, adio| {
                let host = comm.host().clone();
                let mut hints = Hints::default();
                // Small collective buffer: several windows, so batches
                // overlap the exchange while faults fire.
                hints.set("cb_buffer_size", "16384");
                let f =
                    MpiFile::open(ctx, adio, &host, "/coll", OpenMode::create(), hints).unwrap();
                let el = Datatype::bytes(block);
                let ft = Datatype::resized(
                    &Datatype::hindexed(&[(1, (comm.rank() as u64 * block) as i64)], &el),
                    0,
                    ranks as u64 * block,
                );
                f.set_view(0, &el, &ft);
                let src = host.mem.alloc(block as usize);
                host.mem.fill(src, block as usize, comm.rank() as u8 + 1);
                write_at_all(ctx, comm, &f, 0, src, block).unwrap();
                let dst = host.mem.alloc(block as usize);
                let n = read_at_all(ctx, comm, &f, 0, dst, block).unwrap();
                assert_eq!(n, block, "short collective read under faults");
                assert_eq!(
                    host.mem.read_vec(dst, block as usize),
                    vec![comm.rank() as u8 + 1; block as usize],
                    "rank {} collective read back corrupt data",
                    comm.rank()
                );
            });
            assert!(
                report.end_time.as_nanos() < DEADLINE_NS,
                "virtual-time deadline blown at loss {loss}: {} ns",
                report.end_time.as_nanos()
            );
            let attr = fs.resolve("/coll").unwrap();
            assert_eq!(attr.size, ranks as u64 * block);
            let data = fs.read(attr.id, 0, attr.size).unwrap();
            for r in 0..ranks as u64 {
                assert!(
                    data[(r * block) as usize..((r + 1) * block) as usize]
                        .iter()
                        .all(|&b| b == r as u8 + 1),
                    "server holds corrupt bytes for rank {r} at loss {loss}"
                );
            }
        }
    }
}

// --- link flaps -------------------------------------------------------------

fn flap_plan(seed: u64, ranks: usize) -> FaultPlan {
    // Two short outages on every rank↔server link, early in the run.
    let mut b = FaultPlan::builder(seed);
    for r in 1..=ranks {
        let h = HostId(r);
        b = b
            .link_down(SERVER, h, SimTime::ZERO + ms(1), SimTime::ZERO + ms(3))
            .link_down(SERVER, h, SimTime::ZERO + ms(8), SimTime::ZERO + ms(9));
    }
    b.build()
}

#[test]
fn dafs_survives_link_flaps() {
    faulted_roundtrip(Backend::dafs(), flap_plan(0xF1A9, 2), 2, 256 << 10);
}

#[test]
fn nfs_survives_link_flaps() {
    faulted_roundtrip(Backend::nfs(), flap_plan(0xF1A9, 2), 2, 256 << 10);
}

// --- mid-run server crash ---------------------------------------------------

fn crash_plan(seed: u64) -> FaultPlan {
    // The server goes dark 1ms in and comes back at 15ms — mid-workload for
    // both backends. Stable storage (the MemFs) survives; sessions and
    // in-flight RPCs do not.
    FaultPlan::builder(seed)
        .host_crash(SERVER, SimTime::ZERO + ms(1), SimTime::ZERO + ms(15))
        .build()
}

#[test]
fn dafs_survives_server_crash() {
    let report = faulted_roundtrip(Backend::dafs(), crash_plan(0xCA5), 2, 256 << 10);
    assert!(
        report
            .snapshot
            .get("dafs.reconnects")
            .map(|e| e.value())
            .unwrap_or(0)
            > 0,
        "a 14ms server outage must force at least one reconnect"
    );
}

#[test]
fn nfs_survives_server_crash() {
    let report = faulted_roundtrip(Backend::nfs(), crash_plan(0xCA5), 2, 256 << 10);
    assert!(
        report
            .snapshot
            .get("nfs.retrans")
            .map(|e| e.value())
            .unwrap_or(0)
            > 0,
        "a 14ms server outage must force at least one retransmission"
    );
}

// --- exactly-once properties ------------------------------------------------
//
// Retransmission and replay must not double-apply non-idempotent
// operations. These drive the raw protocol clients (below the ADIO layer)
// under seeded loss and check end-state exactness for every seed.

/// Raw NFS client under `plan`; returns the server fs and total retransmits.
fn raw_nfs_run(
    plan: FaultPlan,
    body: impl FnOnce(&ActorCtx, &nfsv3::NfsClient) + Send + 'static,
) -> (mpio_dafs::memfs::MemFs, u64) {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = tcpnet::TcpFabric::new(tcpnet::TcpCost::default());
    fabric.set_fault_plan(plan);
    let server_host = cluster.add_host("server0");
    let fs = mpio_dafs::memfs::MemFs::new();
    let _server = nfsv3::spawn_nfs_server(
        &kernel,
        &fabric,
        server_host.clone(),
        fs.clone(),
        2049,
        nfsv3::NfsServerCost::default(),
    );
    let client_host = cluster.add_host("client0");
    let sid = server_host.id;
    kernel.spawn("client", move |ctx| {
        let c = nfsv3::NfsClient::mount(
            ctx,
            &fabric,
            &client_host,
            sid,
            2049,
            nfsv3::NfsClientConfig::default(),
        )
        .unwrap();
        body(ctx, &c);
        c.unmount(ctx);
    });
    let obs = kernel.obs().clone();
    let end = kernel.run();
    let retrans = obs
        .snapshot(end.as_nanos())
        .get("nfs.retrans")
        .map(|e| e.value())
        .unwrap_or(0);
    (fs, retrans)
}

#[test]
fn nfs_drc_makes_create_and_remove_exactly_once() {
    // Without the server's duplicate-request cache, a retransmitted CREATE
    // whose first execution succeeded returns Exists, and a retransmitted
    // REMOVE returns NoEnt. With it, every retransmission gets the cached
    // first reply. Sweep seeds so many distinct loss timelines are tried.
    let mut total_retrans = 0;
    for seed in 0..8u64 {
        let plan = FaultPlan::builder(seed).loss(0.05).build();
        let (fs, retrans) = raw_nfs_run(plan, |ctx, c| {
            for i in 0..24 {
                let name = format!("f{i}");
                c.create(ctx, ROOT_ID, &name).unwrap();
            }
            for i in 0..12 {
                let name = format!("f{i}");
                c.remove(ctx, ROOT_ID, &name).unwrap();
            }
        });
        // End state exact: files 12..24 exist, 0..12 do not.
        for i in 0..24 {
            let exists = fs.resolve(&format!("/f{i}")).is_ok();
            assert_eq!(exists, i >= 12, "seed {seed}: f{i} wrong existence");
        }
        total_retrans += retrans;
    }
    assert!(
        total_retrans > 0,
        "no retransmission fired across the whole sweep — the property went untested"
    );
}

#[test]
fn nfs_writes_survive_retransmission_without_corruption() {
    // Build a log from explicit-offset writes chained through the returned
    // attributes. A double-applied or lost write would tear the sequence.
    const REC: usize = 64;
    const N: u64 = 32;
    let mut total_retrans = 0;
    for seed in 0..4u64 {
        let plan = FaultPlan::builder(0xB10C + seed).loss(0.05).build();
        let (fs, retrans) = raw_nfs_run(plan, |ctx, c| {
            let f = c.create(ctx, ROOT_ID, "log").unwrap();
            let mut off = 0;
            for i in 0..N {
                let attr = c.write(ctx, f.id, off, &[i as u8; REC]).unwrap();
                off = attr.size;
            }
        });
        let attr = fs.resolve("/log").unwrap();
        assert_eq!(attr.size, N * REC as u64, "seed {seed}: log length wrong");
        let data = fs.read(attr.id, 0, attr.size).unwrap();
        for i in 0..N {
            assert!(
                data[(i as usize) * REC..(i as usize + 1) * REC]
                    .iter()
                    .all(|&b| b == i as u8),
                "seed {seed}: record {i} torn"
            );
        }
        total_retrans += retrans;
    }
    assert!(total_retrans > 0, "sweep never exercised a retransmission");
}

/// The NFS duplicate-request cache keeps each connection's replies apart
/// from every other connection's traffic, and keeps only what re-execution
/// would make observable. Mount A's CREATE reply dies in a link-down window
/// on A↔server; while A waits out its timer, mount B runs 300 CREATEs. A's
/// retransmit gets the kept `Ok` and the file exists once — with one FIFO
/// of 256 replies shared by every connection, B's traffic evicted it and
/// the retransmit met `Exist`. Then a READ whose reply dies the same way
/// simply runs again: the server counts it twice, where a cache that kept
/// every reply answered it for free.
#[test]
fn nfs_retransmits_are_exactly_once_across_connections() {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = tcpnet::TcpFabric::new(tcpnet::TcpCost::default());
    let server_host = cluster.add_host("server0");
    let (a_host, b_host) = (cluster.add_host("a"), cluster.add_host("b"));
    let (sid, aid) = (server_host.id, a_host.id);
    // A sends at `t`; its request is on the wire ~21 us later and the
    // reply leaves the server past `t` + 100 us. The window takes the
    // reply only, and closes long before A's 200 ms timer fires.
    let (create_at, read_at) = (SimTime::ZERO + ms(1), SimTime::ZERO + ms(300));
    let lose_reply = |t: SimTime| (t + us(60), t + ms(150));
    let (c0, c1) = lose_reply(create_at);
    let (r0, r1) = lose_reply(read_at);
    fabric.set_fault_plan(
        FaultPlan::builder(0xD2C)
            .link_down(sid, aid, c0, c1)
            .link_down(sid, aid, r0, r1)
            .build(),
    );
    let fs = mpio_dafs::memfs::MemFs::new();
    let server = nfsv3::spawn_nfs_server(
        &kernel,
        &fabric,
        server_host,
        fs.clone(),
        2049,
        nfsv3::NfsServerCost::default(),
    );
    let mount =
        move |ctx: &ActorCtx, host: &mpio_dafs::simnet::Host, fabric: &tcpnet::TcpFabric| {
            let cfg = nfsv3::NfsClientConfig {
                timeo: ms(200),
                ..Default::default()
            };
            nfsv3::NfsClient::mount(ctx, fabric, host, sid, 2049, cfg).unwrap()
        };
    {
        let fabric = fabric.clone();
        let ops = server.stats.ops.clone();
        kernel.spawn("a", move |ctx| {
            let c = mount(ctx, &a_host, &fabric);
            ctx.sleep_until(create_at);
            let f = c.create(ctx, ROOT_ID, "a").expect("the kept CREATE reply");
            c.write(ctx, f.id, 0, &[0xA5; 4096]).unwrap();
            ctx.sleep_until(read_at);
            let before = ops.get();
            assert_eq!(c.read(ctx, f.id, 0, 4096).unwrap(), vec![0xA5; 4096]);
            assert_eq!(ops.get() - before, 2, "a lost READ reply runs again");
            c.unmount(ctx);
        });
    }
    kernel.spawn("b", move |ctx| {
        let c = mount(ctx, &b_host, &fabric);
        ctx.sleep_until(create_at + ms(1));
        for i in 0..300 {
            c.create(ctx, ROOT_ID, &format!("b{i}")).unwrap();
        }
        assert!(ctx.now() < create_at + ms(200), "B outlasted A's timer");
        c.unmount(ctx);
    });
    let obs = kernel.obs().clone();
    let end = kernel.run();
    let snap = obs.snapshot(end.as_nanos());
    let count = |name: &str| snap.get(name).map(|e| e.value()).unwrap_or(0);
    assert_eq!(count("nfs.retrans"), 2, "both replies were lost");
    assert!(count("nfs.drc.hits") >= 1, "the CREATE retransmit missed");
    let names = fs.readdir(ROOT_ID).unwrap();
    assert_eq!(names.iter().filter(|(n, _)| n == "a").count(), 1);
    assert_eq!(names.len(), 301);
}

/// One split-phase batch of 300 WRITEs, more than the 256 replies the nfsd
/// keeps per connection. The first WRITE's reply is lost: a 1 µs link-down
/// window takes the nfsd's send at 1.168 ms and falls between two of the
/// client's. The mount keeps at most 256 RPCs in flight, so `write_begin`
/// stops at the 257th WRITE and waits for the oldest reply: its 200 ms
/// timer retransmits the lost WRITE after 255 replies were kept behind it,
/// the kept reply answers, and the nfsd executes each WRITE once. (The
/// whole batch used to go out at once: 299 replies were kept behind the
/// lost one, it was evicted, and the retransmit ran the WRITE again.)
#[test]
fn nfs_a_batch_past_the_replay_window_retransmits_exactly_once() {
    const N: usize = 300;
    const CHUNK: usize = 512;
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = tcpnet::TcpFabric::new(tcpnet::TcpCost::default());
    let server_host = cluster.add_host("server0");
    let client_host = cluster.add_host("client0");
    let (sid, cid) = (server_host.id, client_host.id);
    let lost = SimTime::ZERO + us(1_168);
    fabric.set_fault_plan(
        FaultPlan::builder(0x5107)
            .link_down(sid, cid, lost, lost + us(1))
            .build(),
    );
    let fs = mpio_dafs::memfs::MemFs::new();
    let server = nfsv3::spawn_nfs_server(
        &kernel,
        &fabric,
        server_host,
        fs.clone(),
        2049,
        nfsv3::NfsServerCost::default(),
    );
    let ops = server.stats.ops.clone();
    kernel.spawn("client", move |ctx| {
        let cfg = nfsv3::NfsClientConfig {
            wsize: CHUNK as u64,
            timeo: ms(200),
            ..Default::default()
        };
        let c = nfsv3::NfsClient::mount(ctx, &fabric, &client_host, sid, 2049, cfg).unwrap();
        let f = c.create(ctx, ROOT_ID, "f").unwrap();
        ctx.sleep_until(SimTime::ZERO + ms(1));
        let before = ops.get();
        let data: Vec<u8> = (0..N * CHUNK).map(|i| (i / CHUNK) as u8).collect();
        let pending = c.write_begin(ctx, f.id, 0, &data);
        assert_eq!(
            c.write_finish(ctx, pending).unwrap().size,
            data.len() as u64
        );
        assert_eq!(ops.get() - before, N as u64, "a WRITE ran twice");
        c.unmount(ctx);
    });
    let obs = kernel.obs().clone();
    let end = kernel.run();
    let snap = obs.snapshot(end.as_nanos());
    let count = |name: &str| snap.get(name).map(|e| e.value()).unwrap_or(0);
    assert_eq!((count("nfs.retrans"), count("nfs.drc.hits")), (1, 1));
    let attr = fs.resolve("/f").unwrap();
    let image = fs.read(attr.id, 0, attr.size).unwrap();
    assert!(image
        .chunks(CHUNK)
        .enumerate()
        .all(|(i, c)| c.iter().all(|&b| b == i as u8)));
}

// --- lease recalls under faults ---------------------------------------------
//
// The lease-coherent client cache adds a new wedge surface: a conflicting
// request parks at the server until every lease holder flushes and acks.
// A crashed holder can never ack, so the server must reclaim its lease —
// whether the crash surfaces while pushing the recall or afterwards, when
// the holder's own ack dies on the wire.

/// Kernel + DAFS server over a VIA fabric with no plan armed yet: the
/// tests add their client hosts first, then install a plan keyed on them.
fn lease_chaos_bed() -> (
    SimKernel,
    via::ViaFabric,
    Cluster,
    HostId,
    mpio_dafs::memfs::MemFs,
) {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = via::ViaFabric::new(via::ViaCost::default());
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = mpio_dafs::memfs::MemFs::new();
    let _server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        2049,
        dafs::DafsServerCost::default(),
    );
    (kernel, fabric, cluster, sid, fs)
}

#[test]
fn dafs_recall_push_to_crashed_holder_reclaims_lease() {
    // The holder buffers one flushed page and one dirty page under a
    // write-back lease, then its host goes dark before any recall fires.
    // The reader's conflicting READ triggers the recall; the push breaks
    // against the dead host, and the server must reclaim on the spot —
    // serving the last *flushed* image, with the unflushed page lost.
    let (kernel, fabric, cluster, sid, fs) = lease_chaos_bed();
    let holder_host = cluster.add_host("holder");
    let reader_host = cluster.add_host("reader");
    let plan = FaultPlan::builder(0x1EA5E)
        .host_crash(
            holder_host.id,
            SimTime::ZERO + ms(4),
            SimTime::ZERO + ms(10_000),
        )
        .build();
    fabric.set_fault_plan(plan);
    fs.create(ROOT_ID, "x").unwrap();
    {
        let fabric = fabric.clone();
        kernel.spawn("holder", move |ctx| {
            let nic = fabric.open_nic(holder_host.clone());
            let cfg = dafs::DafsClientConfig {
                cache_write_back: true,
                ..Default::default()
            };
            let c = dafs::DafsClient::connect(ctx, &fabric, &nic, sid, 2049, cfg).unwrap();
            let f = c.lookup(ctx, ROOT_ID, "x").unwrap();
            c.cache_file(f.id);
            let src = nic.host().mem.alloc(4096);
            nic.host().mem.fill(src, 4096, 0x5A);
            c.write(ctx, f.id, 0, src, 4096).unwrap();
            c.cache_sync(ctx).unwrap(); // page 0 on stable storage
            nic.host().mem.fill(src, 4096, 0x77);
            c.write(ctx, f.id, 4096, src, 4096).unwrap(); // dirty forever
                                                          // No disconnect: the host crashes at ms(4) with the lease held.
        });
    }
    {
        let fabric = fabric.clone();
        kernel.spawn("reader", move |ctx| {
            ctx.advance(ms(5));
            let nic = fabric.open_nic(reader_host.clone());
            let c = dafs::DafsClient::connect(
                ctx,
                &fabric,
                &nic,
                sid,
                2049,
                dafs::DafsClientConfig::default(),
            )
            .unwrap();
            let f = c.lookup(ctx, ROOT_ID, "x").unwrap();
            let got = c.read_to_vec(ctx, f.id, 0, 4096).unwrap();
            assert_eq!(
                got,
                vec![0x5A; 4096],
                "reader must see the holder's last flushed image"
            );
            assert!(
                ctx.now().as_nanos() < ms(20).as_nanos(),
                "recall against a dead holder wedged the reader"
            );
            c.disconnect(ctx);
        });
    }
    let obs = kernel.obs().clone();
    let end = kernel.run();
    let snap = obs.snapshot(end.as_nanos());
    assert!(
        snap.get("dafs.lease.reclaims")
            .map(|e| e.value())
            .unwrap_or(0)
            > 0,
        "server never reclaimed the dead holder's lease"
    );
    // The dirty extension died with the holder: stable storage holds
    // exactly the flushed prefix.
    assert_eq!(fs.resolve("/x").unwrap().size, 4096);
}

#[test]
fn dafs_holder_crash_mid_recall_unblocks_waiter_and_ack_replays_idempotently() {
    // Here the holder *receives* the recall and crashes while its ack is
    // on the wire. The broken ack tears the session down at the server,
    // which must complete the recall (the waiter proceeds at ~ms(6), not
    // at the holder's eventual reconnect); the holder's retried ack after
    // reconnect must land as a harmless no-op.
    let (kernel, fabric, cluster, sid, fs) = lease_chaos_bed();
    let holder_host = cluster.add_host("holder");
    let reader_host = cluster.add_host("reader");
    let plan = FaultPlan::builder(0xACED)
        .host_crash(
            holder_host.id,
            SimTime::ZERO + ms(8),
            SimTime::ZERO + ms(50),
        )
        .build();
    fabric.set_fault_plan(plan);
    fs.create(ROOT_ID, "x").unwrap();
    {
        let fabric = fabric.clone();
        kernel.spawn("holder", move |ctx| {
            let nic = fabric.open_nic(holder_host.clone());
            let cfg = dafs::DafsClientConfig {
                cache_write_back: true,
                ..Default::default()
            };
            let c = dafs::DafsClient::connect(ctx, &fabric, &nic, sid, 2049, cfg).unwrap();
            let f = c.lookup(ctx, ROOT_ID, "x").unwrap();
            c.cache_file(f.id);
            let src = nic.host().mem.alloc(4096);
            nic.host().mem.fill(src, 4096, 0x5A);
            c.write(ctx, f.id, 0, src, 4096).unwrap();
            c.cache_sync(ctx).unwrap();
            // The reader's recall push lands shortly after ms(5); service
            // it at ms(9), inside the crash window: the flush is empty and
            // the ack send breaks the session. The client rides its
            // reconnect backoff past ms(50) and replays the ack against a
            // server that already reclaimed the lease — a no-op by design.
            ctx.advance(ms(9));
            let a = c.getattr(ctx, f.id).unwrap();
            assert_eq!(a.size, 4096);
            assert_eq!(c.cache_stats.recalls.get(), 1);
            c.disconnect(ctx);
        });
    }
    {
        let fabric = fabric.clone();
        kernel.spawn("reader", move |ctx| {
            ctx.advance(ms(5));
            let nic = fabric.open_nic(reader_host.clone());
            let c = dafs::DafsClient::connect(
                ctx,
                &fabric,
                &nic,
                sid,
                2049,
                dafs::DafsClientConfig::default(),
            )
            .unwrap();
            let f = c.lookup(ctx, ROOT_ID, "x").unwrap();
            let got = c.read_to_vec(ctx, f.id, 0, 4096).unwrap();
            assert_eq!(got, vec![0x5A; 4096], "waiter must see the flushed image");
            assert!(
                ctx.now().as_nanos() < ms(20).as_nanos(),
                "waiter should be released by the session teardown at ~ms(9), \
                 not the holder's ms(50)+ reconnect"
            );
            c.disconnect(ctx);
        });
    }
    let obs = kernel.obs().clone();
    let end = kernel.run();
    assert!(
        end.as_nanos() < DEADLINE_NS,
        "virtual-time deadline blown: {} ns",
        end.as_nanos()
    );
    let snap = obs.snapshot(end.as_nanos());
    assert!(
        snap.get("dafs.lease.reclaims")
            .map(|e| e.value())
            .unwrap_or(0)
            > 0,
        "teardown never reclaimed the holder's lease"
    );
    assert!(
        snap.get("dafs.reconnects").map(|e| e.value()).unwrap_or(0) > 0,
        "the holder never reconnected — the idempotent-ack replay went untested"
    );
    assert_eq!(fs.resolve("/x").unwrap().size, 4096);
}

/// Two split-phase DAFS writes of 256 KiB outstanding together — 16 inline
/// chunks on one session of 8 credits — while rank 0's link is down for
/// 300 µs at 1, 2 or 3 ms, waited on in both orders. Each request returns
/// all its bytes, the file holds both fills, and the server applied each
/// chunk once: the file's version (one per mutation) is 16, however many
/// chunks the recovery re-posted and the replay cache answered. (Two
/// batches used to fill a window each and recover each on its own; every
/// case wedged the rank.)
#[test]
fn dafs_overlapping_writes_survive_a_link_drop_exactly_once() {
    const LEN: u64 = 256 << 10;
    let rank0 = HostId(1);
    let (mut reconnects, mut hits) = (0, 0);
    for t in [1, 2, 3] {
        for second_first in [true, false] {
            let from = SimTime::ZERO + ms(t);
            let plan = FaultPlan::builder(0x0E1A)
                .link_down(SERVER, rank0, from, from + us(300))
                .build();
            let tb = Testbed::with_faults(Backend::dafs(), plan);
            let fs = tb.fs.clone();
            let report = tb.run(1, move |ctx, comm, adio| {
                let host = comm.host().clone();
                assert_eq!(host.id, rank0);
                let open = OpenMode::create();
                let f = MpiFile::open(ctx, adio, &host, "/two", open, Hints::default()).unwrap();
                let buf = host.mem.alloc(2 * LEN as usize);
                host.mem.fill(buf, LEN as usize, 0xA1);
                host.mem.fill(buf.offset(LEN), LEN as usize, 0xB2);
                let first = f.iwrite_at(ctx, 0, buf, LEN);
                let second = f.iwrite_at(ctx, LEN, buf.offset(LEN), LEN);
                let got = match second_first {
                    true => {
                        let b = second.wait(ctx);
                        (first.wait(ctx), b)
                    }
                    false => (first.wait(ctx), second.wait(ctx)),
                };
                assert_eq!(
                    got,
                    (Ok(LEN), Ok(LEN)),
                    "at {t} ms, second first: {second_first}"
                );
                f.close(ctx, adio).unwrap();
            });
            let case = format!("at {t} ms, second first: {second_first}");
            let count = |name: &str| report.snapshot.get(name).map_or(0, |e| e.value());
            assert!(count("dafs.reconnects") > 0, "{case}: the drop missed");
            reconnects += count("dafs.reconnects");
            hits += count("dafs.replay.hits");
            let attr = fs.resolve("/two").unwrap();
            assert_eq!(attr.version, 16, "{case}: a chunk was applied twice");
            let image = fs.read(attr.id, 0, attr.size).unwrap();
            let want = [vec![0xA1; LEN as usize], vec![0xB2; LEN as usize]].concat();
            assert!(image == want, "{case}: wrong bytes");
        }
    }
    assert!(hits > 0, "{reconnects} reconnects and no replay hit");
}

/// X-4's ladder over the reads the transfer rule sends direct because
/// their buffer is warm: 4 KiB reads into one buffer, each now an RDMA Write
/// and a reply where it used to be one message. A read returns exactly the
/// file's bytes or an error — a reply never outruns its data, and a
/// transfer lost with its session is redone through the inline path — and
/// at 1 % loss and below the reconnect budget absorbs every break: no read
/// fails. However many reconnects it takes, the session registers two
/// things after it is up — the read buffer, and the scratch buffer
/// `write_bytes` stages the file through, which its second write sends
/// from in place — once each: a reconnect keeps the rings and the cache.
#[test]
fn dafs_warm_small_reads_survive_loss_ladder() {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;
    const REQ: usize = 4 << 10;
    const FILE: usize = 64 << 10;
    const PASSES: usize = 8;
    for (i, loss) in [0.001, 0.01, 0.05].into_iter().enumerate() {
        let plan = FaultPlan::builder(0x4A12 + i as u64).loss(loss).build();
        // (failed reads, direct reads, fallbacks to inline, registrations)
        let tally = Arc::new([const { AtomicU64::new(0) }; 4]);
        let t = tally.clone();
        let (_, reconnects) = raw_dafs_run(plan, move |ctx, c| {
            let registrations = || c.nic().registration_stats().registrations;
            let registered_at_connect = registrations();
            let image: Vec<u8> = (0..FILE).map(|i| (i * 13 + i / REQ) as u8).collect();
            let f = c.create(ctx, ROOT_ID, "f").unwrap().id;
            for (n, chunk) in image.chunks(32 << 10).enumerate() {
                c.write_bytes(ctx, f, (n * (32 << 10)) as u64, chunk)
                    .unwrap();
            }
            let mem = &c.nic().host().mem;
            let buf = mem.alloc(REQ);
            let fallbacks = || ctx.metrics().counter("dafs.direct_fallbacks").get();
            for _ in 0..PASSES {
                for off in (0..FILE).step_by(REQ) {
                    mem.fill(buf, REQ, 0);
                    match c.read(ctx, f, off as u64, buf, REQ as u64) {
                        Ok(n) => {
                            assert_eq!(n, REQ as u64, "short read at {off}");
                            assert_eq!(
                                mem.read_vec(buf, REQ),
                                image[off..off + REQ],
                                "loss {loss}: wrong bytes at {off}"
                            );
                        }
                        Err(_) => {
                            t[0].fetch_add(1, Relaxed);
                        }
                    }
                }
            }
            t[1].store(c.stats.direct_reads.ops(), Relaxed);
            t[2].store(fallbacks(), Relaxed);
            t[3].store(registrations() - registered_at_connect, Relaxed);
            assert!(
                ctx.now().as_nanos() < DEADLINE_NS,
                "virtual-time deadline blown: {} ns",
                ctx.now().as_nanos()
            );
        });
        let [failed, direct, fallbacks, registered] = [0, 1, 2, 3].map(|k| tally[k].load(Relaxed));
        assert_eq!(
            registered, 2,
            "loss {loss}: {registered} registrations over {reconnects} reconnects"
        );
        let reads = (PASSES * FILE / REQ) as u64;
        assert!(
            direct > reads / 2,
            "loss {loss}: only {direct} of {reads} reads went direct"
        );
        if loss <= 0.01 {
            assert_eq!(
                failed, 0,
                "loss {loss}: reads failed ({reconnects} reconnects)"
            );
        }
        if loss >= 0.05 {
            assert!(
                reconnects > 0 && fallbacks > 0,
                "loss {loss}: {reconnects} reconnects, {fallbacks} fallbacks — recovery went untested"
            );
        }
    }
}

/// X-4's ladder over inline writes sent in place: 32 KiB writes from one
/// buffer, which from its second use on rides each send as a second gather
/// segment under its registration. A write lost with its session is
/// replayed under its id from the same place, or redone; either way every
/// piece of the file holds exactly the bytes of one write to it, and none
/// older than its last acknowledged one. At 1 % loss and below no write
/// fails. However many reconnects it takes, the session registers one
/// thing after it is up — the write buffer, once.
#[test]
fn dafs_warm_inline_writes_survive_loss_ladder() {
    use std::sync::{Arc, Mutex};
    const REQ: usize = 32 << 10;
    const PIECES: usize = 8;
    const PASSES: usize = 16;
    let bytes = |pass: usize, k: usize| -> Vec<u8> {
        (0..REQ)
            .map(|i| (i * 13 + k * 7 + pass * 101) as u8)
            .collect()
    };
    for (i, loss) in [0.001, 0.01, 0.05].into_iter().enumerate() {
        let plan = FaultPlan::builder(0x1A7E + i as u64).loss(loss).build();
        // (pass, piece, acknowledged) per write; registrations; the file.
        type Run = (Vec<(usize, usize, bool)>, u64, mpio_dafs::memfs::NodeId);
        let out: Arc<Mutex<Option<Run>>> = Arc::default();
        let o = out.clone();
        let (fs, reconnects) = raw_dafs_run(plan, move |ctx, c| {
            let registrations = || c.nic().registration_stats().registrations;
            let registered_at_connect = registrations();
            let f = c.create(ctx, ROOT_ID, "f").unwrap().id;
            let mem = &c.nic().host().mem;
            let buf = mem.alloc(REQ);
            let mut log = Vec::new();
            for pass in 0..PASSES {
                for k in 0..PIECES {
                    mem.write(buf, &bytes(pass, k));
                    let acked = c.write(ctx, f, (k * REQ) as u64, buf, REQ as u64);
                    log.push((pass, k, acked.is_ok()));
                }
            }
            assert!(
                ctx.now().as_nanos() < DEADLINE_NS,
                "virtual-time deadline blown: {} ns",
                ctx.now().as_nanos()
            );
            let registered = registrations() - registered_at_connect;
            *o.lock().unwrap() = Some((log, registered, f));
        });
        let (log, registered, f) = out.lock().unwrap().take().expect("the client ran");
        assert_eq!(
            registered, 1,
            "loss {loss}: {registered} registrations over {reconnects} reconnects"
        );
        let failed = log.iter().filter(|w| !w.2).count();
        if loss <= 0.01 {
            assert_eq!(
                failed, 0,
                "loss {loss}: writes failed ({reconnects} reconnects)"
            );
        }
        if loss >= 0.05 {
            assert!(reconnects > 0, "loss {loss}: recovery went untested");
        }
        let image = fs.read(f, 0, (PIECES * REQ) as u64).unwrap();
        for k in 0..PIECES {
            let writes: Vec<_> = log.iter().filter(|w| w.1 == k).collect();
            let since = writes.iter().rposition(|w| w.2).unwrap_or(0);
            let got = image.get(k * REQ..(k + 1) * REQ);
            assert!(
                writes[since..]
                    .iter()
                    .any(|w| got == Some(&bytes(w.0, k)[..])),
                "loss {loss}: piece {k} holds bytes no write since its last acknowledged one sent"
            );
        }
    }
}

/// The same ladder over inline list writes sent in place: each write is a
/// list of 16 4 KiB segments, each a segment apart from the next in the
/// file, packed in one 64 KiB buffer — two 32 KiB `WriteList` messages,
/// which from the buffer's second use on gather their segments in place
/// under one registration of the whole 64 KiB. A message lost with its
/// session is replayed under its id from the same region; every segment of
/// the file holds exactly the bytes of one write to it, none older than its
/// last acknowledged one. At 1 % loss and below no write fails. However
/// many reconnects it takes, the session registers the region once.
#[test]
fn dafs_warm_list_writes_survive_loss_ladder() {
    use std::sync::{Arc, Mutex};
    const SEG: usize = 4 << 10;
    const SEGS: usize = 16;
    const REQ: usize = SEG * SEGS;
    const PIECES: usize = 4;
    const PASSES: usize = 16;
    let bytes = |pass: usize, k: usize| -> Vec<u8> {
        (0..REQ)
            .map(|i| (i * 13 + k * 7 + pass * 101) as u8)
            .collect()
    };
    // Segment `j` of piece `k`: its file offset.
    let at = |k: usize, j: usize| (k * 2 * REQ + j * 2 * SEG) as u64;
    for (i, loss) in [0.001, 0.01, 0.05].into_iter().enumerate() {
        let plan = FaultPlan::builder(0x115E + i as u64).loss(loss).build();
        // (pass, piece, acknowledged) per write; registrations; the file.
        type Run = (Vec<(usize, usize, bool)>, u64, mpio_dafs::memfs::NodeId);
        let out: Arc<Mutex<Option<Run>>> = Arc::default();
        let o = out.clone();
        let (fs, reconnects) = raw_dafs_run(plan, move |ctx, c| {
            let registrations = || c.nic().registration_stats().registrations;
            let registered_at_connect = registrations();
            let f = c.create(ctx, ROOT_ID, "f").unwrap().id;
            let mem = &c.nic().host().mem;
            let buf = mem.alloc(REQ);
            let mut log = Vec::new();
            for pass in 0..PASSES {
                for k in 0..PIECES {
                    mem.write(buf, &bytes(pass, k));
                    let ranges: Vec<(u64, u64)> =
                        (0..SEGS).map(|j| (at(k, j), SEG as u64)).collect();
                    let list = [dafs::ListReq::packed(&ranges, buf)];
                    let batch = c.issue_list(ctx, dafs::BatchDir::Write, f, &list);
                    let acked = c.batch_finish(ctx, batch).remove(0);
                    log.push((pass, k, acked == Ok(REQ as u64)));
                }
            }
            // A replay sends a message as it was first sent: in place.
            let copied = ctx.metrics().counter("dafs.inline.copied_bytes").get();
            assert_eq!(
                copied, REQ as u64,
                "loss {loss}: only the first touch copies"
            );
            assert!(
                ctx.now().as_nanos() < DEADLINE_NS,
                "virtual-time deadline blown: {} ns",
                ctx.now().as_nanos()
            );
            let registered = registrations() - registered_at_connect;
            *o.lock().unwrap() = Some((log, registered, f));
        });
        let (log, registered, f) = out.lock().unwrap().take().expect("the client ran");
        assert_eq!(
            registered, 1,
            "loss {loss}: {registered} registrations over {reconnects} reconnects"
        );
        let failed = log.iter().filter(|w| !w.2).count();
        if loss <= 0.01 {
            assert_eq!(
                failed, 0,
                "loss {loss}: writes failed ({reconnects} reconnects)"
            );
        }
        if loss >= 0.05 {
            assert!(reconnects > 0, "loss {loss}: recovery went untested");
        }
        for k in 0..PIECES {
            let writes: Vec<_> = log.iter().filter(|w| w.1 == k).collect();
            let since = writes.iter().rposition(|w| w.2).unwrap_or(0);
            for j in 0..SEGS {
                let got = fs.read(f, at(k, j), SEG as u64).unwrap();
                assert!(
                    writes[since..]
                        .iter()
                        .any(|w| got == bytes(w.0, k)[j * SEG..][..SEG]),
                    "loss {loss}: piece {k} segment {j} holds bytes no write since its last acknowledged one sent"
                );
            }
        }
    }
}

/// Raw DAFS client under `plan`; returns the server fs and total reconnects.
fn raw_dafs_run(
    plan: FaultPlan,
    body: impl FnOnce(&ActorCtx, &dafs::DafsClient) + Send + 'static,
) -> (mpio_dafs::memfs::MemFs, u64) {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = via::ViaFabric::new(via::ViaCost::default());
    fabric.set_fault_plan(plan);
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = mpio_dafs::memfs::MemFs::new();
    let _server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        2049,
        dafs::DafsServerCost::default(),
    );
    let client_host = cluster.add_host("client0");
    kernel.spawn("client", move |ctx| {
        let nic = fabric.open_nic(client_host.clone());
        let c = dafs::DafsClient::connect(
            ctx,
            &fabric,
            &nic,
            sid,
            2049,
            dafs::DafsClientConfig::default(),
        )
        .unwrap();
        body(ctx, &c);
        c.disconnect(ctx);
    });
    let obs = kernel.obs().clone();
    let end = kernel.run();
    let reconnects = obs
        .snapshot(end.as_nanos())
        .get("dafs.reconnects")
        .map(|e| e.value())
        .unwrap_or(0);
    (fs, reconnects)
}

#[test]
fn dafs_replay_never_double_applies_appends() {
    // APPEND writes at the server's current EOF, so a replayed execution
    // (rather than a replayed *reply*) would duplicate the record and grow
    // the file. The server replay cache must return the first reply for a
    // retried request id instead of re-running it.
    const REC: usize = 64;
    const N: u64 = 32;
    let mut total_reconnects = 0;
    for seed in 0..8u64 {
        let plan = FaultPlan::builder(0xA99E + seed).loss(0.05).build();
        let (fs, reconnects) = raw_dafs_run(plan, |ctx, c| {
            let f = c.create(ctx, ROOT_ID, "log").unwrap();
            for i in 0..N {
                let off = c.append(ctx, f.id, &[i as u8; REC]).unwrap();
                assert_eq!(off, i * REC as u64, "append landed at the wrong offset");
            }
        });
        let attr = fs.resolve("/log").unwrap();
        assert_eq!(
            attr.size,
            N * REC as u64,
            "seed {seed}: a replayed append double-applied (or one was lost)"
        );
        let data = fs.read(attr.id, 0, attr.size).unwrap();
        for i in 0..N {
            assert!(
                data[(i as usize) * REC..(i as usize + 1) * REC]
                    .iter()
                    .all(|&b| b == i as u8),
                "seed {seed}: record {i} wrong"
            );
        }
        total_reconnects += reconnects;
    }
    assert!(
        total_reconnects > 0,
        "no session ever broke across the sweep — the property went untested"
    );
}

#[test]
fn dafs_server_crash_mid_coalesced_flush_replays_exactly_once() {
    // A write-back holder dirties 64 strided pages and syncs: the
    // coalesced flush ships the run set as a handful of vectored
    // WriteList batches, and the server goes dark after the first few
    // land. The broken batch must fall back through the replayable
    // inline path on reconnect, and every page must land exactly once —
    // no lost runs, no double-applies, holes still zero.
    const PAGE: u64 = 4096;
    const PAGES: u64 = 64;
    let (kernel, fabric, cluster, sid, fs) = lease_chaos_bed();
    let client_host = cluster.add_host("flusher");
    let plan = FaultPlan::builder(0xF1A5)
        .host_crash(sid, SimTime::ZERO + ms(6), SimTime::ZERO + ms(18))
        .build();
    fabric.set_fault_plan(plan);
    fs.create(ROOT_ID, "wb").unwrap();
    {
        let fabric = fabric.clone();
        kernel.spawn("flusher", move |ctx| {
            let nic = fabric.open_nic(client_host.clone());
            let cfg = dafs::DafsClientConfig {
                cache_write_back: true,
                ..Default::default()
            };
            let c = dafs::DafsClient::connect(ctx, &fabric, &nic, sid, 2049, cfg).unwrap();
            let f = c.lookup(ctx, ROOT_ID, "wb").unwrap();
            c.cache_file(f.id);
            let src = nic.host().mem.alloc(PAGE as usize);
            for p in 0..PAGES {
                nic.host().mem.fill(src, PAGE as usize, (p % 251) as u8 + 1);
                c.write(ctx, f.id, p * 2 * PAGE, src, PAGE).unwrap();
            }
            // Sync at ms(5): the batches take ~2.5 ms of wire time, so
            // the ms(6) crash lands mid-flush; the reconnect backoff
            // rides out the outage and the remainder replays.
            ctx.advance(ms(5));
            let flushed = c.cache_sync(ctx).unwrap();
            assert_eq!(flushed, PAGES, "every dirty page must flush");
            assert!(
                ctx.now().as_nanos() > ms(18).as_nanos(),
                "flush finished before the crash window — nothing was interrupted"
            );
            // Same-client read-back, cold after revalidate-on-reconnect.
            for p in 0..PAGES {
                let got = c.read_to_vec(ctx, f.id, p * 2 * PAGE, PAGE).unwrap();
                assert_eq!(
                    got,
                    vec![(p % 251) as u8 + 1; PAGE as usize],
                    "page {p} corrupt after replay"
                );
            }
            c.disconnect(ctx);
        });
    }
    let obs = kernel.obs().clone();
    let end = kernel.run();
    assert!(
        end.as_nanos() < DEADLINE_NS,
        "virtual-time deadline blown: {} ns",
        end.as_nanos()
    );
    let snap = obs.snapshot(end.as_nanos());
    assert!(
        snap.get("dafs.reconnects").map(|e| e.value()).unwrap_or(0) > 0,
        "the flusher never reconnected — the mid-flush replay went untested"
    );
    // Stable storage: the full strided image, written pages exact and the
    // holes between them still zero (a replayed run landing at the wrong
    // offset would dirty one).
    let attr = fs.resolve("/wb").unwrap();
    assert_eq!(attr.size, (2 * PAGES - 1) * PAGE);
    let data = fs.read(attr.id, 0, attr.size).unwrap();
    for p in 0..PAGES {
        let lo = (p * 2 * PAGE) as usize;
        assert!(
            data[lo..lo + PAGE as usize]
                .iter()
                .all(|&b| b == (p % 251) as u8 + 1),
            "server holds corrupt bytes for page {p}"
        );
        if p + 1 < PAGES {
            assert!(
                data[lo + PAGE as usize..lo + 2 * PAGE as usize]
                    .iter()
                    .all(|&b| b == 0),
                "hole after page {p} was dirtied by a misplaced replay"
            );
        }
    }
}

#[test]
fn dafs_failed_flush_keeps_pages_dirty_for_the_next_sync() {
    // A write-back holder buffers 16 strided pages, then the link to the
    // server goes down for longer than the session's reconnect budget
    // rides out: the sync must report the failure *and keep the bytes* —
    // pages the server never acknowledged stay dirty. Once the link is
    // back, the next sync lands them and an uncached session reads the
    // written pattern.
    const PAGE: u64 = 4096;
    const PAGES: u64 = 16;
    let fill = |p: u64| (p % 251) as u8 + 1;
    let (kernel, fabric, cluster, sid, fs) = lease_chaos_bed();
    let client_host = cluster.add_host("flusher");
    let plan = FaultPlan::builder(0xD1A7)
        .link_down(
            sid,
            client_host.id,
            SimTime::ZERO + ms(4),
            SimTime::ZERO + ms(40),
        )
        .build();
    fabric.set_fault_plan(plan);
    fs.create(ROOT_ID, "wb").unwrap();
    {
        let fabric = fabric.clone();
        kernel.spawn("flusher", move |ctx| {
            let nic = fabric.open_nic(client_host.clone());
            let cfg = dafs::DafsClientConfig {
                cache_write_back: true,
                // 1 ms + 2 ms of backoff: gives up well inside the window.
                max_reconnects: 2,
                ..Default::default()
            };
            let c = dafs::DafsClient::connect(ctx, &fabric, &nic, sid, 2049, cfg).unwrap();
            let f = c.lookup(ctx, ROOT_ID, "wb").unwrap();
            c.cache_file(f.id);
            let src = nic.host().mem.alloc(PAGE as usize);
            for p in 0..PAGES {
                nic.host().mem.fill(src, PAGE as usize, fill(p));
                c.write(ctx, f.id, p * 2 * PAGE, src, PAGE).unwrap();
            }
            ctx.advance(ms(5));
            assert!(
                c.cache_sync(ctx).is_err(),
                "sync across a dead link must report the failed flush"
            );
            assert!(
                ctx.now().as_nanos() < ms(40).as_nanos(),
                "the failed sync outlived the outage — nothing was exhausted"
            );
            ctx.advance((SimTime::ZERO + ms(45)).since(ctx.now()));
            c.cache_sync(ctx)
                .expect("sync after the outage must land the still-dirty pages");
            c.disconnect(ctx);
            let plain = dafs::DafsClient::connect(
                ctx,
                &fabric,
                &nic,
                sid,
                2049,
                dafs::DafsClientConfig::default(),
            )
            .unwrap();
            for p in 0..PAGES {
                let got = plain.read_to_vec(ctx, f.id, p * 2 * PAGE, PAGE).unwrap();
                assert!(
                    got == vec![fill(p); PAGE as usize],
                    "page {p} was lost with the failed flush ({} bytes read back)",
                    got.len()
                );
            }
            plain.disconnect(ctx);
        });
    }
    let end = kernel.run();
    assert!(
        end.as_nanos() < DEADLINE_NS,
        "virtual-time deadline blown: {} ns",
        end.as_nanos()
    );
    assert_eq!(fs.resolve("/wb").unwrap().size, (2 * PAGES - 1) * PAGE);
}

// --- switched-fabric chaos ---------------------------------------------------
//
// The fabric layer rides the same ladder: egress saturation, a switch down
// mid-sweep, and a client crashing behind the switch must all leave the
// surviving sessions intact and the data byte-exact.

use mpio_dafs::simnet::topo::DumbbellSpec;
use mpio_dafs::simnet::Bandwidth;

/// Collective write + verified read-back on a switched testbed with a 4:1
/// oversubscribed trunk: eight ranks incast through a 55 MB/s pipe, so the
/// trunk egress port saturates and backpressure (not loss) absorbs it.
#[test]
fn switch_egress_saturation_survives_collective_write() {
    let tb = Testbed::switched(8, 2, 4);
    let fs = tb.fs.clone();
    let block = 256usize << 10;
    let report = tb.run(8, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/sat",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        let src = host.mem.alloc(block);
        host.mem.fill(src, block, comm.rank() as u8 + 1);
        write_at_all(
            ctx,
            comm,
            &f,
            (comm.rank() * block) as u64,
            src,
            block as u64,
        )
        .unwrap();
        let dst = host.mem.alloc(block);
        let n = read_at_all(
            ctx,
            comm,
            &f,
            (comm.rank() * block) as u64,
            dst,
            block as u64,
        )
        .unwrap();
        assert_eq!(n, block as u64, "short read through saturated trunk");
        assert_eq!(
            host.mem.read_vec(dst, block),
            vec![comm.rank() as u8 + 1; block],
            "rank {} corrupt read-back through saturated trunk",
            comm.rank()
        );
    });
    assert!(
        report.end_time.as_nanos() < DEADLINE_NS,
        "saturated trunk wedged the collective"
    );
    // The trunk really did saturate — frames waited — and backpressure
    // held: nothing was shed, nobody reconnected.
    let queued = report.snapshot.get("fabric.queued_ns").unwrap().value();
    assert!(
        queued > 0,
        "8-way incast through a 55 MB/s trunk never queued"
    );
    assert!(
        report.snapshot.get("fabric.drops").is_none()
            || report.snapshot.get("fabric.drops").unwrap().value() == 0
    );
    assert!(fs.resolve("/sat").is_ok(), "striped file vanished");
}

/// The client leaf goes down mid-sweep for less than a session's redial
/// budget (`RECONNECT_BACKOFF` doubling from 1 ms over `max_reconnects`
/// = 8 attempts, 255 ms of backoff): frames crossing it drop, sessions
/// break and redial through the outage, and every byte still reads back
/// exactly.
#[test]
fn mid_sweep_switch_outage_recovers_with_exact_readback() {
    // Pseudo-host ids are part of the deterministic layout: probe once,
    // then aim the crash window at the client leaf.
    let probe = Testbed::switched(4, 2, 1);
    let leaf_cli = probe.topology().unwrap().switch_host(1);
    let plan = FaultPlan::builder(0x0A11_4A11)
        .host_crash(leaf_cli, SimTime::ZERO + ms(2), SimTime::ZERO + ms(40))
        .build();
    let tb = Testbed::switched_with(4, 2, 1, mpio_dafs::obs::Obs::from_env(), Some(plan));
    let block = 256usize << 10;
    let report = tb.run(4, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/outage",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        let src = host.mem.alloc(block);
        host.mem.fill(src, block, comm.rank() as u8 + 1);
        f.write_at(ctx, (comm.rank() * block) as u64, src, block as u64)
            .unwrap();
        comm.barrier(ctx);
        let dst = host.mem.alloc(block);
        assert_eq!(
            f.read_at(ctx, (comm.rank() * block) as u64, dst, block as u64)
                .unwrap(),
            block as u64
        );
        assert_eq!(
            host.mem.read_vec(dst, block),
            vec![comm.rank() as u8 + 1; block],
            "rank {} corrupt read-back across a switch outage",
            comm.rank()
        );
    });
    assert!(report.end_time.as_nanos() < DEADLINE_NS, "outage wedged");
    let count = |name| report.snapshot.get(name).map_or(0, |m| m.value());
    assert!(
        count("fabric.drops") > 0,
        "the outage dropped nothing — vacuous run"
    );
    assert!(
        count("dafs.reconnects") > 0,
        "no session redialled through the outage"
    );
}

/// A client crashing behind the switch must not wedge the other sessions
/// sharing the same oversubscribed trunk: its session dies with bounded
/// reconnect attempts, the server moves on, and the survivors' credit
/// windows keep flowing.
#[test]
fn crashed_client_behind_switch_does_not_wedge_other_sessions() {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = std::sync::Arc::new(via::ViaFabric::new(via::ViaCost::default()));
    let cost = *fabric.cost();
    let server_host = cluster.add_host("server0");
    let topology = std::sync::Arc::new(mpio_dafs::simnet::topo::Topology::dumbbell(
        &cluster,
        &[server_host.id],
        DumbbellSpec {
            port_bw: cost.wire_bw,
            trunk_bw: Bandwidth::mb_per_sec(55),
            latency: cost.wire_latency,
            queue_capacity: 64,
            policy: mpio_dafs::simnet::topo::QueuePolicy::Backpressure,
        },
    ));
    fabric.set_topology(topology.clone());
    let victim = cluster.add_host("client0");
    let plan = FaultPlan::builder(0xDEADC11)
        .host_crash(victim.id, SimTime::ZERO + ms(3), SimTime::ZERO + ms(60_000))
        .build();
    fabric.set_fault_plan(plan);
    let server_nic = fabric.open_nic(server_host);
    let fs = mpio_dafs::memfs::MemFs::new();
    let _server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        2049,
        dafs::DafsServerCost::default(),
    );
    {
        let fabric = fabric.clone();
        kernel.spawn("victim", move |ctx| {
            let nic = fabric.open_nic(victim.clone());
            let c = dafs::DafsClient::connect(
                ctx,
                &fabric,
                &nic,
                SERVER,
                2049,
                dafs::DafsClientConfig::default(),
            )
            .unwrap();
            let f = c.create(ctx, ROOT_ID, "victim").unwrap();
            let buf = nic.host().mem.alloc(64 << 10);
            // Keep writing until the crash at ms(3) kills the session; the
            // retry path must give up with a bounded error, not spin.
            for i in 0..64u64 {
                if c.write(ctx, f.id, i * (64 << 10), buf, 64 << 10).is_err() {
                    break;
                }
            }
            // No disconnect: the session dies holding whatever credits it had.
        });
    }
    for i in 1..4usize {
        let fabric = fabric.clone();
        let host = cluster.add_host(&format!("client{i}"));
        kernel.spawn(&format!("client{i}"), move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let c = dafs::DafsClient::connect(
                ctx,
                &fabric,
                &nic,
                SERVER,
                2049,
                dafs::DafsClientConfig::default(),
            )
            .unwrap();
            let f = c.create(ctx, ROOT_ID, &format!("s{i}")).unwrap();
            let len = 512usize << 10;
            let buf = nic.host().mem.alloc(64 << 10);
            nic.host().mem.fill(buf, 64 << 10, i as u8);
            let mut off = 0u64;
            while off < len as u64 {
                c.write(ctx, f.id, off, buf, 64 << 10).unwrap();
                off += 64 << 10;
            }
            let mut off = 0u64;
            while off < len as u64 {
                assert_eq!(c.read(ctx, f.id, off, buf, 64 << 10).unwrap(), 64 << 10);
                assert_eq!(
                    nic.host().mem.read_vec(buf, 64 << 10),
                    vec![i as u8; 64 << 10],
                    "survivor {i} corrupt read-back at {off}"
                );
                off += 64 << 10;
            }
            c.disconnect(ctx);
            assert!(
                ctx.now().as_nanos() < ms(2_000).as_nanos(),
                "survivor {i} starved behind the dead session"
            );
        });
    }
    let end = kernel.run();
    assert!(
        end.as_nanos() < DEADLINE_NS,
        "dead client wedged the run at {} ns",
        end.as_nanos()
    );
    for i in 1..4usize {
        assert_eq!(
            fs.resolve(&format!("/s{i}")).unwrap().size,
            512 << 10,
            "survivor {i} data incomplete"
        );
    }
}
