//! R-T1 — Transport small-operation latency: VIA vs TCP ping-pong.
//!
//! Expected shape: VIA one-way latency ≈7–10 µs nearly flat over small
//! sizes; TCP ≈60–90 µs — roughly an order of magnitude apart. This gap is
//! the raw material every higher-level DAFS advantage is built from.

use simnet::{Cluster, SimKernel};
use tcpnet::{TcpCost, TcpFabric};
use via::{DataSegment, MemAttributes, RecvDesc, SendDesc, ViAttributes, ViaCost, ViaFabric};

use crate::report::{Cell, Table};
use crate::testbeds::Probe;

const ITERS: u64 = 50;

fn via_one_way_ns(size: usize) -> u64 {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(ViaCost::default());
    let snic = fabric.open_nic(cluster.add_host("server0"));
    let cnic = fabric.open_nic(cluster.add_host("client0"));
    let sid = snic.host().id;
    let out = Probe::new();
    let o = out.clone();
    let l = fabric.listen(&snic, 7);
    kernel.spawn_daemon("server", move |ctx| {
        let vi = l.accept(ctx, ViAttributes::default()).unwrap();
        let tag = vi.ptag();
        let buf = snic.host().mem.alloc(size.max(64));
        let h = snic.register_mem(ctx, buf, size.max(64) as u64, MemAttributes::local(tag));
        for _ in 0..ITERS {
            vi.post_recv(
                ctx,
                RecvDesc::new(vec![DataSegment::new(buf, size as u32, h)]),
            );
            let c = vi.recv_wait(ctx);
            assert!(c.status.is_ok());
            vi.post_send(
                ctx,
                SendDesc::send(vec![DataSegment::new(buf, size as u32, h)]),
            );
            vi.send_wait(ctx);
        }
    });
    kernel.spawn("client", move |ctx| {
        let vi = fabric
            .connect(ctx, &cnic, sid, 7, ViAttributes::default())
            .unwrap();
        let tag = vi.ptag();
        let buf = cnic.host().mem.alloc(size.max(64));
        let h = cnic.register_mem(ctx, buf, size.max(64) as u64, MemAttributes::local(tag));
        let t0 = ctx.now();
        for _ in 0..ITERS {
            vi.post_recv(
                ctx,
                RecvDesc::new(vec![DataSegment::new(buf, size as u32, h)]),
            );
            vi.post_send(
                ctx,
                SendDesc::send(vec![DataSegment::new(buf, size as u32, h)]),
            );
            vi.send_wait(ctx);
            let c = vi.recv_wait(ctx);
            assert!(c.status.is_ok());
        }
        // One-way = RTT / 2.
        o.set(ctx.now().since(t0).as_nanos() / ITERS / 2);
    });
    kernel.run();
    out.get()
}

fn tcp_one_way_ns(size: usize) -> u64 {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = TcpFabric::new(TcpCost::default());
    let sh = cluster.add_host("server0");
    let ch = cluster.add_host("client0");
    let sid = sh.id;
    let out = Probe::new();
    let o = out.clone();
    let l = fabric.listen(&sh, 7);
    kernel.spawn_daemon("server", move |ctx| {
        let s = l.accept(ctx).unwrap();
        while let Ok(req) = s.recv_exact(ctx, size) {
            s.send(ctx, &req);
        }
    });
    kernel.spawn("client", move |ctx| {
        let s = fabric.connect(ctx, &ch, sid, 7).unwrap();
        let msg = vec![0u8; size];
        let t0 = ctx.now();
        for _ in 0..ITERS {
            s.send(ctx, &msg);
            s.recv_exact(ctx, size).unwrap();
        }
        o.set(ctx.now().since(t0).as_nanos() / ITERS / 2);
        s.close(ctx);
    });
    kernel.run();
    out.get()
}

/// Run R-T1.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-T1: transport small-op one-way latency (us)",
        &[("size", 0), ("VIA", 1), ("TCP", 1), ("TCP/VIA", 1)],
    );
    for size in [8usize, 64, 256, 1024] {
        let v = via_one_way_ns(size);
        let k = tcp_one_way_ns(size);
        t.row([
            Cell::Size(size as u64),
            Cell::us(v),
            Cell::us(k),
            Cell::times(k, v),
        ]);
    }
    t.note("expect VIA ~8us nearly flat; TCP ~60-90us; ~7-10x gap");
    t
}
