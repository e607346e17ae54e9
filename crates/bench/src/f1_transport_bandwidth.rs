//! R-F1 — Transport bandwidth vs message size: VIA send/recv, VIA RDMA
//! Write, TCP stream.
//!
//! Expected shape: both VIA modes converge on the ~110 MB/s wire by 16–64
//! KiB; TCP is host-limited well below the wire at every size. RDMA edges
//! out send/recv slightly at small sizes (no receive-descriptor handling).

use std::sync::{Arc, OnceLock};

use simnet::{ActorCtx, Cluster, SimTime};
use tcpnet::{TcpCost, TcpFabric};
use via::{
    DataSegment, MemAttributes, RecvDesc, RemoteSegment, SendDesc, Vi, ViAttributes, ViaCost,
    ViaFabric,
};

use crate::report::{Cell, Table};
use crate::testbeds::with_client;

/// Total bytes pushed per measurement point.
const TOTAL: u64 = 8 << 20;

/// Virtual ns from the first to the last of `count` receive completions.
fn recv_span(ctx: &ActorCtx, vi: &Vi, count: u64) -> u64 {
    let mut at = (0..count).map(|_| {
        let c = vi.recv_wait(ctx);
        assert!(c.status.is_ok());
        c.at
    });
    let first = at.next().unwrap_or(SimTime::ZERO);
    at.last().map_or(0, |last| last.since(first).as_nanos())
}

fn via_sendrecv_mb_s(size: u64) -> Cell {
    let count = TOTAL / size;
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(ViaCost::default());
    let snic = fabric.open_nic(cluster.add_host("server0"));
    let cnic = fabric.open_nic(cluster.add_host("client0"));
    let sid = snic.host().id;
    let l = fabric.listen(&snic, 7);
    let sink = move |ctx: &ActorCtx| {
        let vi = l.accept(ctx, ViAttributes::default()).unwrap();
        let tag = vi.ptag();
        let buf = snic.host().mem.alloc(size as usize);
        let h = snic.register_mem(ctx, buf, size, MemAttributes::local(tag));
        for _ in 0..count {
            vi.post_recv(
                ctx,
                RecvDesc::new(vec![DataSegment::new(buf, size as u32, h)]),
            );
        }
        recv_span(ctx, &vi, count)
    };
    let source = move |ctx: &ActorCtx| {
        let vi = fabric
            .connect(ctx, &cnic, sid, 7, ViAttributes::default())
            .unwrap();
        let tag = vi.ptag();
        let buf = cnic.host().mem.alloc(size as usize);
        let h = cnic.register_mem(ctx, buf, size, MemAttributes::local(tag));
        for _ in 0..count {
            vi.post_send(
                ctx,
                SendDesc::send(vec![DataSegment::new(buf, size as u32, h)]),
            );
        }
        for _ in 0..count {
            vi.send_wait(ctx);
        }
    };
    let (span, _) = with_client("sink", None, |kernel| {
        kernel.spawn("source", source);
        sink
    });
    Cell::mbps((count - 1) * size, span)
}

fn via_rdma_mb_s(size: u64) -> Cell {
    let count = TOTAL / size;
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(ViaCost::default());
    let snic = fabric.open_nic(cluster.add_host("server0"));
    let cnic = fabric.open_nic(cluster.add_host("client0"));
    let sid = snic.host().id;
    // Where the sink's buffer is, once it has published it.
    let target = Arc::new(OnceLock::new());
    let published = target.clone();
    let l = fabric.listen(&snic, 7);
    let sink = move |ctx: &ActorCtx| {
        let vi = l.accept(ctx, ViAttributes::default()).unwrap();
        let tag = vi.ptag();
        let buf = snic.host().mem.alloc(size as usize);
        let h = snic.register_mem(ctx, buf, size, MemAttributes::rdma_write_target(tag));
        published.set((buf, h)).unwrap();
        // Post receives for the completion immediates.
        let (ibuf, ih) = {
            let b = snic.host().mem.alloc(64);
            let h = snic.register_mem(ctx, b, 64, MemAttributes::local(tag));
            (b, h)
        };
        for _ in 0..count {
            vi.post_recv(ctx, RecvDesc::new(vec![DataSegment::new(ibuf, 64, ih)]));
        }
        recv_span(ctx, &vi, count)
    };
    let source = move |ctx: &ActorCtx| {
        let vi = fabric
            .connect(ctx, &cnic, sid, 7, ViAttributes::default())
            .unwrap();
        // Wait (virtually) until the sink published its buffer.
        while target.get().is_none() {
            ctx.advance(simnet::time::units::us(10));
        }
        let tag = vi.ptag();
        let buf = cnic.host().mem.alloc(size as usize);
        let h = cnic.register_mem(ctx, buf, size, MemAttributes::local(tag));
        let (addr, handle) = *target.get().unwrap();
        let remote = RemoteSegment { addr, handle };
        for i in 0..count {
            vi.post_send(
                ctx,
                SendDesc::rdma_write_imm(
                    vec![DataSegment::new(buf, size as u32, h)],
                    remote,
                    i as u32,
                ),
            );
        }
        for _ in 0..count {
            vi.send_wait(ctx);
        }
    };
    let (span, _) = with_client("sink", None, |kernel| {
        kernel.spawn("source", source);
        sink
    });
    Cell::mbps((count - 1) * size, span)
}

fn tcp_mb_s(size: u64) -> Cell {
    let count = TOTAL / size;
    let cluster = Cluster::new();
    let fabric = TcpFabric::new(TcpCost::default());
    let sh = cluster.add_host("server0");
    let ch = cluster.add_host("client0");
    let sid = sh.id;
    let l = fabric.listen(&sh, 7);
    let sink = move |ctx: &ActorCtx| {
        let s = l.accept(ctx).unwrap();
        s.recv_exact(ctx, size as usize).unwrap();
        let t0 = ctx.now();
        for _ in 1..count {
            s.recv_exact(ctx, size as usize).unwrap();
        }
        ctx.now().since(t0).as_nanos()
    };
    let source = move |ctx: &ActorCtx| {
        let s = fabric.connect(ctx, &ch, sid, 7).unwrap();
        let msg = vec![0u8; size as usize];
        for _ in 0..count {
            s.send(ctx, &msg);
        }
    };
    let (span, _) = with_client("sink", None, |kernel| {
        kernel.spawn("source", source);
        sink
    });
    Cell::mbps((count - 1) * size, span)
}

/// Run R-F1.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-F1: transport bandwidth vs message size (MB/s)",
        &[
            ("size", 0),
            ("VIA send/recv", 1),
            ("VIA RDMA-wr", 1),
            ("TCP", 1),
        ],
    );
    for size in [1u64 << 10, 4 << 10, 16 << 10, 64 << 10] {
        t.row([
            Cell::Size(size),
            via_sendrecv_mb_s(size),
            via_rdma_mb_s(size),
            tcp_mb_s(size),
        ]);
    }
    // RDMA has no 64 KiB MTU; add larger points for it + TCP.
    for size in [256u64 << 10, 1 << 20] {
        t.row([
            Cell::Size(size),
            Cell::Missing,
            via_rdma_mb_s(size),
            tcp_mb_s(size),
        ]);
    }
    t.note("expect both VIA modes to reach ~110 MB/s wire by 16-64K; TCP host-limited ~50-60");
    t
}
