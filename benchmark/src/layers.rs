//! Every call the benchmark makes *below* `mpiio`'s user API lives in this
//! file: the counter reads of a traced run, the layer ladder, and the pure
//! host micro loops. Nothing else in the benchmark names a symbol of
//! `simnet` internals, `via`, `dafs`, `tcpnet`, `nfsv3` or `memfs` beyond
//! the types the user API itself hands a rank (`ActorCtx`, `Host`,
//! `VirtAddr`, `SimDuration`, `FaultPlan`) and the `MemFs` handles
//! `Testbed` publishes for checking the stored image.
//!
//! Non-benchmark symbols used here, by crate:
//!
//! * `simnet`: `SimKernel::{new, spawn, spawn_daemon, run}`, `Cluster::{new,
//!   add_host}`, `ActorCtx::{now, obs, advance}`, `Port::{new, send, recv,
//!   close}`, `Bytes::{from_vec, slice}`, `buf::bytes_total`,
//!   `events_scheduled_global`, `units::us`, `obs::{Registry::{new,
//!   counter}, Counter::inc, Obs::snapshot, Snapshot}`
//! * `via`: `ViaFabric::{new, open_nic, listen, connect}`, `ViaCost`,
//!   `ViaNic::{host, register_mem}`, `Listener::accept`, `ViAttributes`,
//!   `Vi::{ptag, post_recv, post_send, recv_wait, send_wait, disconnect}`,
//!   `MemAttributes::{local, rdma_write_target, rdma_read_source}`,
//!   `MemHandle`, `RecvDesc::new`, `SendDesc::{send, rdma_write,
//!   rdma_read}`, `DataSegment::new`, `RemoteSegment`
//! * `dafs`: `spawn_dafs_server`, `DafsServerCost`, `DafsClientConfig`,
//!   `DafsClient::{connect, lookup, read, write, disconnect}`
//! * `tcpnet`: `TcpFabric::{new, listen, connect}`, `TcpCost`,
//!   `TcpListener::accept`, `Socket::{send, recv_exact, close}`
//! * `nfsv3`: `spawn_nfs_server`, `NfsServerCost`, `NfsClientConfig`,
//!   `NfsClient::{mount, lookup, read, write, unmount}`
//! * `memfs`: `MemFs::{new, create, write, read}`, `ROOT_ID`
//! * `mpiio` below the file API: `AdioFs::open`, `AdioFile::{read_contig,
//!   write_contig}` (reached only through the `&dyn AdioFs` that
//!   `Testbed::run` hands a rank), `Datatype::{bytes, vector, hindexed,
//!   resized, flatten}`, `FileView::{new, map}`
//!
//! No ADIO driver type and no batch, list or cached entry point is named,
//! so ROADMAP item 3 (one DAFS data path) can land without editing the
//! benchmark.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dafs::{DafsClient, DafsClientConfig, DafsServerCost};
use memfs::{MemFs, ROOT_ID};
use mpiio::{
    read_at_all, write_at_all, Backend, Datatype, FileView, Hints, MpiFile, OpenMode, Testbed,
};
use nfsv3::{NfsClient, NfsClientConfig, NfsServerCost};
use simnet::obs::{Registry, Snapshot};
use simnet::units::us;
use simnet::{ActorCtx, Bytes, Cluster, Port, SimKernel, VirtAddr};
use tcpnet::{TcpCost, TcpFabric};
use via::{
    DataSegment, MemAttributes, MemHandle, RecvDesc, RemoteSegment, SendDesc, ViAttributes,
    ViaCost, ViaFabric,
};

use crate::stats::quartiles;

// --- counters ---------------------------------------------------------------

/// Registry counters by name. A byte meter contributes `name` (bytes) and
/// `name.ops`; histograms are left out.
pub type Counters = BTreeMap<String, u64>;

/// The registry as it stands now, read from inside a rank.
pub fn counters(ctx: &ActorCtx) -> Counters {
    flatten(&ctx.obs().snapshot(ctx.now().as_nanos()))
}

fn flatten(snap: &Snapshot) -> Counters {
    let mut out = Counters::new();
    for e in &snap.entries {
        match e.kind {
            "counter" => {
                out.insert(e.name.clone(), e.value());
            }
            "bytes" => {
                out.insert(e.name.clone(), e.value());
                if let Some((_, ops)) = e.fields.iter().find(|(k, _)| *k == "ops") {
                    out.insert(format!("{}.ops", e.name), *ops);
                }
            }
            _ => {}
        }
    }
    out
}

/// Payload bytes materialised into buffers since the process started.
pub fn bytes_buffered_now() -> u64 {
    simnet::buf::bytes_total()
}

// --- the ladder -------------------------------------------------------------

/// Timed calls per ladder cell, after one warm-up call. 64 sequential
/// requests is what R-F2 issues per cell at 128 KiB.
const LADDER_OPS: u64 = 64;
const PORT: u16 = 2049;
/// Stand-in for a request or reply header on the raw-transport rungs.
const HDR: u64 = 64;

/// One boundary of the stack at which the ladder issues its calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    Via,
    Dafs,
    AdioDafs,
    MpiioDafs,
    CollDafs,
    Tcp,
    Nfs,
    AdioNfs,
    MpiioNfs,
}

impl Rung {
    pub const ALL: [Rung; 9] = [
        Rung::Via,
        Rung::Dafs,
        Rung::AdioDafs,
        Rung::MpiioDafs,
        Rung::CollDafs,
        Rung::Tcp,
        Rung::Nfs,
        Rung::AdioNfs,
        Rung::MpiioNfs,
    ];
    /// The chains along which cost must not fall, bottom rung first.
    pub const CHAINS: [&'static [Rung]; 2] = [
        &[Rung::Via, Rung::Dafs, Rung::AdioDafs, Rung::MpiioDafs],
        &[Rung::Tcp, Rung::Nfs, Rung::AdioNfs, Rung::MpiioNfs],
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rung::Via => "via",
            Rung::Dafs => "dafs",
            Rung::AdioDafs => "adio_dafs",
            Rung::MpiioDafs => "mpiio_dafs",
            Rung::CollDafs => "coll_dafs",
            Rung::Tcp => "tcp",
            Rung::Nfs => "nfs",
            Rung::AdioNfs => "adio_nfs",
            Rung::MpiioNfs => "mpiio_nfs",
        }
    }
}

/// One request shape of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub write: bool,
    pub size: u64,
}

impl Cell {
    pub const ALL: [Cell; 4] = [
        Cell {
            write: false,
            size: 4 << 10,
        },
        Cell {
            write: true,
            size: 4 << 10,
        },
        Cell {
            write: false,
            size: 128 << 10,
        },
        Cell {
            write: true,
            size: 128 << 10,
        },
    ];

    pub fn name(self) -> String {
        format!(
            "{}{}k",
            if self.write { "wr" } else { "rd" },
            self.size >> 10
        )
    }

    /// Bytes the file needs so warm-up plus timed calls stay inside it.
    fn file_bytes(self) -> u64 {
        (LADDER_OPS + 1) * self.size
    }
}

/// Mean cost of one call of a cell at a rung, on both clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCost {
    pub sim_ns: u64,
    pub host_ns: u64,
}

/// Issue the cell's request at the rung's boundary in a fresh simulation:
/// one warm-up call, then [`LADDER_OPS`] sequential calls timed from
/// outside with `ctx.now()` and `Instant`.
pub fn ladder_cell(rung: Rung, cell: Cell) -> CellCost {
    let out = Arc::new(Mutex::new(CellCost::default()));
    match rung {
        Rung::Via => via_rung(cell, out.clone()),
        Rung::Dafs => dafs_rung(cell, out.clone()),
        Rung::Tcp => tcp_rung(cell, out.clone()),
        Rung::Nfs => nfs_rung(cell, out.clone()),
        Rung::AdioDafs | Rung::MpiioDafs | Rung::CollDafs => {
            testbed_rung(rung, Backend::dafs(), cell, out.clone())
        }
        Rung::AdioNfs | Rung::MpiioNfs => testbed_rung(rung, Backend::nfs(), cell, out.clone()),
    }
    let cost = *out.lock().expect("ladder actor panicked");
    assert!(
        cost.sim_ns > 0,
        "ladder cell {}.{} measured nothing",
        rung.name(),
        cell.name()
    );
    cost
}

/// Warm up with call 0, then time calls `1..=LADDER_OPS`.
fn timed(ctx: &ActorCtx, out: &Mutex<CellCost>, mut call: impl FnMut(u64)) {
    call(0);
    let (s0, h0) = (ctx.now(), Instant::now());
    for i in 1..=LADDER_OPS {
        call(i);
    }
    *out.lock().expect("ladder result") = CellCost {
        sim_ns: ctx.now().since(s0).as_nanos() / LADDER_OPS,
        host_ns: h0.elapsed().as_nanos() as u64 / LADDER_OPS,
    };
}

fn prefilled(cell: Cell) -> MemFs {
    let fs = MemFs::new();
    let f = fs.create(ROOT_ID, "ladder").expect("create");
    fs.write(f.id, 0, &vec![7u8; cell.file_bytes() as usize])
        .expect("prefill");
    fs
}

/// The wire pattern DAFS chooses for the cell, with no file server behind
/// it. Above the direct threshold the server moves the payload by RDMA
/// between a small request and a small reply — writing into the client's
/// registered buffer for a read, reading from it for a write if the NIC
/// can (the default cLAN model cannot). Otherwise the payload rides inline
/// in send/recv pairs, in the request of a write and the reply of a read,
/// split into messages of at most `inline_max` that are all in flight at
/// once.
fn via_rung(cell: Cell, out: Arc<Mutex<CellCost>>) {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(ViaCost::default());
    let snic = fabric.open_nic(cluster.add_host("server0"));
    let cnic = fabric.open_nic(cluster.add_host("client0"));
    let sid = snic.host().id;
    let cfg = DafsClientConfig::default();
    let rdma =
        cell.size > cfg.direct_threshold && (!cell.write || ViaCost::default().rdma_read_supported);
    let msgs = if rdma {
        1
    } else {
        cell.size.div_ceil(cfg.inline_max)
    };
    let msg = HDR
        + if rdma {
            0
        } else {
            cell.size.min(cfg.inline_max)
        };
    let (req_len, rsp_len) = if cell.write { (msg, HDR) } else { (HDR, msg) };
    let f2 = fabric.clone();
    kernel.spawn_daemon("server", move |ctx| {
        let vi = f2
            .listen(&snic, PORT)
            .accept(ctx, ViAttributes::default())
            .expect("accept");
        let local = MemAttributes::local(vi.ptag());
        let reg = |len: u64| {
            let addr = snic.host().mem.alloc(len as usize);
            (addr, snic.register_mem(ctx, addr, len, local))
        };
        let ((rq, rqh), (rs, rsh), (stage, sh)) = (reg(msg), reg(msg), reg(cell.size));
        let post_recv = || {
            vi.post_recv(
                ctx,
                RecvDesc::new(vec![DataSegment::new(rq, msg as u32, rqh)]),
            )
        };
        (0..msgs).for_each(|_| post_recv());
        while vi.recv_wait(ctx).status.is_ok() {
            if rdma {
                let hdr = snic.host().mem.read_vec(rq, 16);
                let remote = RemoteSegment {
                    addr: VirtAddr(u64::from_le_bytes(hdr[..8].try_into().expect("8 bytes"))),
                    handle: MemHandle(u64::from_le_bytes(hdr[8..].try_into().expect("8 bytes"))),
                };
                let segs = vec![DataSegment::new(stage, cell.size as u32, sh)];
                vi.post_send(
                    ctx,
                    if cell.write {
                        SendDesc::rdma_read(segs, remote)
                    } else {
                        SendDesc::rdma_write(segs, remote)
                    },
                );
                assert!(vi.send_wait(ctx).status.is_ok(), "ladder RDMA failed");
            }
            post_recv();
            vi.post_send(
                ctx,
                SendDesc::send(vec![DataSegment::new(rs, rsp_len as u32, rsh)]),
            );
            vi.send_wait(ctx);
        }
    });
    kernel.spawn("client", move |ctx| {
        let vi = fabric
            .connect(ctx, &cnic, sid, PORT, ViAttributes::default())
            .expect("connect");
        let tag = vi.ptag();
        let mem = &cnic.host().mem;
        let (rq, rs, data) = (
            mem.alloc(msg as usize),
            mem.alloc(msg as usize),
            mem.alloc(cell.size as usize),
        );
        let rqh = cnic.register_mem(ctx, rq, msg, MemAttributes::local(tag));
        let rsh = cnic.register_mem(ctx, rs, msg, MemAttributes::local(tag));
        let target = if cell.write {
            MemAttributes::rdma_read_source(tag)
        } else {
            MemAttributes::rdma_write_target(tag)
        };
        let dh = cnic.register_mem(ctx, data, cell.size, target);
        let mut hdr = data.as_u64().to_le_bytes().to_vec();
        hdr.extend_from_slice(&dh.0.to_le_bytes());
        mem.write(rq, &hdr);
        timed(ctx, &out, |_| {
            for _ in 0..msgs {
                vi.post_recv(
                    ctx,
                    RecvDesc::new(vec![DataSegment::new(rs, msg as u32, rsh)]),
                );
            }
            for _ in 0..msgs {
                vi.post_send(
                    ctx,
                    SendDesc::send(vec![DataSegment::new(rq, req_len as u32, rqh)]),
                );
            }
            for _ in 0..msgs {
                assert!(vi.recv_wait(ctx).status.is_ok(), "ladder reply lost");
            }
            for _ in 0..msgs {
                vi.send_wait(ctx);
            }
        });
        vi.disconnect(ctx);
    });
    kernel.run();
}

fn dafs_rung(cell: Cell, out: Arc<Mutex<CellCost>>) {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(ViaCost::default());
    let snic = fabric.open_nic(cluster.add_host("server0"));
    let server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        snic,
        prefilled(cell),
        PORT,
        DafsServerCost::default(),
    );
    let cnic = fabric.open_nic(cluster.add_host("client0"));
    let sid = server.host.id;
    kernel.spawn("client", move |ctx| {
        let c = DafsClient::connect(ctx, &fabric, &cnic, sid, PORT, DafsClientConfig::default())
            .expect("session");
        let f = c.lookup(ctx, ROOT_ID, "ladder").expect("lookup");
        let buf = cnic.host().mem.alloc(cell.size as usize);
        timed(ctx, &out, |i| {
            if cell.write {
                c.write(ctx, f.id, i * cell.size, buf, cell.size)
                    .expect("write");
            } else {
                c.read(ctx, f.id, i * cell.size, buf, cell.size)
                    .expect("read");
            }
        });
        c.disconnect(ctx);
    });
    kernel.run();
}

/// One request and one reply on a TCP socket, the payload in the request
/// of a write and the reply of a read.
fn tcp_rung(cell: Cell, out: Arc<Mutex<CellCost>>) {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = TcpFabric::new(TcpCost::default());
    let (sh, ch) = (cluster.add_host("server0"), cluster.add_host("client0"));
    let sid = sh.id;
    let (req_len, rsp_len) = if cell.write {
        (HDR + cell.size, HDR)
    } else {
        (HDR, HDR + cell.size)
    };
    let f2 = fabric.clone();
    kernel.spawn_daemon("server", move |ctx| {
        let s = f2.listen(&sh, PORT).accept(ctx).expect("accept");
        let reply = vec![7u8; rsp_len as usize];
        while s.recv_exact(ctx, req_len as usize).is_ok() {
            s.send(ctx, &reply);
        }
    });
    kernel.spawn("client", move |ctx| {
        let s = fabric.connect(ctx, &ch, sid, PORT).expect("connect");
        let req = vec![7u8; req_len as usize];
        timed(ctx, &out, |_| {
            s.send(ctx, &req);
            s.recv_exact(ctx, rsp_len as usize).expect("reply");
        });
        s.close(ctx);
    });
    kernel.run();
}

fn nfs_rung(cell: Cell, out: Arc<Mutex<CellCost>>) {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = TcpFabric::new(TcpCost::default());
    let server = nfsv3::spawn_nfs_server(
        &kernel,
        &fabric,
        cluster.add_host("server0"),
        prefilled(cell),
        PORT,
        NfsServerCost::default(),
    );
    let ch = cluster.add_host("client0");
    let sid = server.host.id;
    kernel.spawn("client", move |ctx| {
        let c = NfsClient::mount(ctx, &fabric, &ch, sid, PORT, NfsClientConfig::default())
            .expect("mount");
        let f = c.lookup(ctx, ROOT_ID, "ladder").expect("lookup");
        let data = vec![7u8; cell.size as usize];
        timed(ctx, &out, |i| {
            if cell.write {
                c.write(ctx, f.id, i * cell.size, &data).expect("write");
            } else {
                c.read(ctx, f.id, i * cell.size, cell.size).expect("read");
            }
        });
        c.unmount(ctx);
    });
    kernel.run();
}

/// The ADIO, MPI-IO and collective rungs: the same request through the
/// handle a rank gets from `Testbed::run`. The collective rung runs two
/// ranks on disjoint halves of the file and reports rank 0.
fn testbed_rung(rung: Rung, backend: Backend, cell: Cell, out: Arc<Mutex<CellCost>>) {
    let ranks = if rung == Rung::CollDafs { 2 } else { 1 };
    let tb = Testbed::new(backend);
    let f = tb.fs.create(ROOT_ID, "ladder").expect("create");
    tb.fs
        .write(f.id, 0, &vec![7u8; (ranks * cell.file_bytes()) as usize])
        .expect("prefill");
    tb.run(ranks as usize, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let buf = host.mem.alloc(cell.size as usize);
        let base = comm.rank() as u64 * cell.file_bytes();
        let sink = Mutex::new(CellCost::default());
        let out = if comm.rank() == 0 { &*out } else { &sink };
        if rung == Rung::AdioDafs || rung == Rung::AdioNfs {
            let f = adio.open(ctx, "/ladder", false).expect("open");
            timed(ctx, out, |i| {
                if cell.write {
                    f.write_contig(ctx, base + i * cell.size, buf, cell.size)
                        .expect("write");
                } else {
                    f.read_contig(ctx, base + i * cell.size, buf, cell.size)
                        .expect("read");
                }
            });
            return;
        }
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/ladder",
            OpenMode::open(),
            Hints::default(),
        )
        .expect("open");
        timed(ctx, out, |i| {
            let off = base + i * cell.size;
            match (rung == Rung::CollDafs, cell.write) {
                (false, false) => f.read_at(ctx, off, buf, cell.size),
                (false, true) => f.write_at(ctx, off, buf, cell.size),
                (true, false) => read_at_all(ctx, comm, &f, off, buf, cell.size),
                (true, true) => write_at_all(ctx, comm, &f, off, buf, cell.size),
            }
            .expect("ladder call");
        });
    });
}

// --- micro loops --------------------------------------------------------------

/// The eight pure host loops; each value is the median of
/// [`MICRO_REPEATS`] repeats, in host nanoseconds per event or per call.
pub const MICRO_NAMES: [&str; 8] = [
    "micro.simnet.pingpong_host_ns_per_event",
    "micro.simnet.fanin_host_ns_per_event",
    "micro.simnet.burst_host_ns_per_event",
    "micro.simnet.bytes_slice_host_ns",
    "micro.memfs.rw64k_host_ns",
    "micro.mpiio.flatten_host_ns",
    "micro.mpiio.view_map_host_ns",
    "micro.obs.counter_lookup_host_ns",
];

const MICRO_REPEATS: usize = 5;

/// Run every micro loop; values in [`MICRO_NAMES`] order.
pub fn micro_all() -> Vec<f64> {
    let loops: [fn() -> f64; 8] = [
        || kernel_ns_per_event(ping_pong(5_000)),
        || kernel_ns_per_event(fan_in(16, 300)),
        || kernel_ns_per_event(burst(64, 150)),
        bytes_slice,
        memfs_rw64k,
        datatype_flatten,
        view_map,
        counter_lookup,
    ];
    loops
        .iter()
        .map(|f| quartiles(&(0..MICRO_REPEATS).map(|_| f()).collect::<Vec<_>>()).median)
        .collect()
}

/// Host nanoseconds per iteration of `body`, run `iters` times.
fn per_iter(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        body(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn kernel_ns_per_event(kernel: SimKernel) -> f64 {
    let ev0 = simnet::events_scheduled_global();
    let t0 = Instant::now();
    kernel.run();
    let events = simnet::events_scheduled_global() - ev0;
    t0.elapsed().as_nanos() as f64 / events.max(1) as f64
}

/// Two actors bouncing one message: every event is a blocking handoff.
fn ping_pong(rounds: u64) -> SimKernel {
    let kernel = SimKernel::new();
    let (a2b, b2a): (Port<u64>, Port<u64>) = (Port::new("a2b"), Port::new("b2a"));
    let (tx, rx) = (a2b.clone(), b2a.clone());
    kernel.spawn("ping", move |ctx| {
        for i in 0..rounds {
            tx.send(ctx, i, ctx.now() + us(1));
            rx.recv(ctx);
        }
        tx.close(ctx);
    });
    kernel.spawn("pong", move |ctx| {
        while let Some(i) = a2b.recv(ctx) {
            b2a.send(ctx, i, ctx.now() + us(1));
        }
    });
    kernel
}

/// Many senders into one receiver: the incast shape.
fn fan_in(senders: usize, per: u64) -> SimKernel {
    let kernel = SimKernel::new();
    let sink: Port<u64> = Port::new("sink");
    for s in 0..senders {
        let tx = sink.clone();
        kernel.spawn(&format!("sender{s}"), move |ctx| {
            for i in 0..per {
                tx.send(ctx, i, ctx.now() + us(1));
                ctx.advance(us(1));
            }
        });
    }
    let total = senders as u64 * per;
    kernel.spawn("sink", move |ctx| {
        for _ in 0..total {
            sink.recv(ctx);
        }
    });
    kernel
}

/// Many actors ticking in lockstep: every tick wakes all of them at one
/// timestamp, the shape of a barrier-heavy collective sweep.
fn burst(actors: usize, rounds: u64) -> SimKernel {
    let kernel = SimKernel::new();
    for a in 0..actors {
        kernel.spawn(&format!("t{a}"), move |ctx| {
            for _ in 0..rounds {
                ctx.advance(us(1));
            }
        });
    }
    kernel
}

fn bytes_slice() -> f64 {
    let b = Bytes::from_vec(vec![1u8; 64 << 10]);
    per_iter(200_000, |i| {
        let at = (i as usize % 15) << 12;
        black_box(black_box(&b).slice(at..at + 4096));
    })
}

fn memfs_rw64k() -> f64 {
    let fs = MemFs::new();
    let f = fs.create(ROOT_ID, "m").expect("create");
    let data = vec![3u8; 64 << 10];
    fs.write(f.id, 0, &vec![0u8; 4 << 20]).expect("extend");
    per_iter(2_000, |i| {
        let off = (i % 64) << 16;
        fs.write(f.id, off, black_box(&data)).expect("write");
        black_box(fs.read(f.id, off, 64 << 10).expect("read"));
    })
}

/// The collective workload's filetype, eight blocks deep.
fn interleaved_filetype() -> (Datatype, Datatype) {
    let el = Datatype::bytes(4096);
    let blocks: Vec<(u64, i64)> = (0..8).map(|k| (1, (k * 8 + 3) * 4096)).collect();
    let ft = Datatype::resized(&Datatype::hindexed(&blocks, &el), 0, 64 * 4096);
    (el, ft)
}

fn datatype_flatten() -> f64 {
    let (_, ft) = interleaved_filetype();
    let nested = Datatype::vector(16, 1, 2, &ft);
    per_iter(20_000, |_| {
        black_box(black_box(&nested).flatten());
    })
}

fn view_map() -> f64 {
    let (el, ft) = interleaved_filetype();
    let view = FileView::new(0, &el, &ft);
    per_iter(20_000, |i| {
        black_box(black_box(&view).map((i % 64) * 4096, 256 << 10));
    })
}

/// What every doorbell pays today: a mutex, a `String` and a map probe.
fn counter_lookup() -> f64 {
    let reg = Registry::new();
    for name in [
        "via.completions",
        "via.doorbells",
        "via.rdma.bytes.x",
        "dafs.ops",
        "sim.cpu_ns",
    ] {
        reg.counter(name).inc();
    }
    per_iter(200_000, |_| reg.counter(black_box("via.doorbells")).inc())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_and_rung_names() {
        let cells: Vec<String> = Cell::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(cells, ["rd4k", "wr4k", "rd128k", "wr128k"]);
        assert_eq!(Rung::ALL.len(), 9);
        for chain in Rung::CHAINS {
            assert!(chain.iter().all(|r| Rung::ALL.contains(r)));
        }
    }

    #[test]
    fn flatten_keeps_counters_and_splits_byte_meters() {
        let reg = Registry::new();
        reg.counter("a.b").add(3);
        reg.byte_meter("c.bytes").record(10);
        reg.byte_meter("c.bytes").record(5);
        reg.histogram("h").record(9);
        let c = flatten(&reg.snapshot(0));
        assert_eq!(c.get("a.b"), Some(&3));
        assert_eq!(c.get("c.bytes"), Some(&15));
        assert_eq!(c.get("c.bytes.ops"), Some(&2));
        assert_eq!(c.get("h"), None);
    }

    #[test]
    fn every_rung_measures_and_cost_rises_up_the_dafs_chain() {
        let cell = Cell::ALL[0];
        let costs: Vec<u64> = Rung::CHAINS[0]
            .iter()
            .map(|&r| ladder_cell(r, cell).sim_ns)
            .collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
        // Virtual time is deterministic: a second run reads the same.
        assert_eq!(ladder_cell(Rung::Dafs, cell).sim_ns, costs[1]);
    }
}
