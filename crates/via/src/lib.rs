//! # via — a Virtual Interface Architecture (VIA) provider library
//!
//! A faithful, simulation-backed reimplementation of the user-level
//! networking layer the paper's MPI-IO stack runs on: the Intel/Compaq/
//! Microsoft *Virtual Interface Architecture* as provided by the GigaNet
//! cLAN VIPL library (1997–2002 era, the direct ancestor of InfiniBand
//! verbs).
//!
//! The API mirrors VIPL's object model under Rust naming:
//!
//! | VIPL                        | here                                          |
//! |-----------------------------|-----------------------------------------------|
//! | `VipOpenNic`                | [`ViaFabric::open_nic`]                       |
//! | `VipCreatePtag`             | [`ViaNic::create_ptag`]                       |
//! | `VipRegisterMem`            | [`ViaNic::register_mem`]                      |
//! | `VipCreateVi` + connect     | [`ViaFabric::connect`] / [`Listener::accept`] |
//! | `VIP_VI_ATTRIBUTES.Ptag`    | [`ViAttributes::ptag`]                        |
//! | `VipPostSend`/`VipPostRecv` | [`Vi::post_send`] / [`Vi::post_recv`]         |
//! | `VipSendDone`/`VipRecvWait` | [`Vi::send_done`] / [`Vi::recv_wait`]         |
//! | `VipCQCreate`/`VipCQWait`   | [`Cq::new`] / [`Cq::wait`]                    |
//!
//! Hardware is replaced by a calibrated cost model ([`ViaCost`]) over the
//! deterministic `simnet` substrate; protection is enforced for real (RDMA
//! to an unregistered or wrongly-tagged range completes in error), and data
//! really moves between simulated host memories.

#![warn(missing_docs)]

mod cq;
mod desc;
mod fabric;
mod nic;
mod vi;

pub mod cost;
pub mod mem;

pub use cost::ViaCost;
pub use cq::{Cq, CqToken};
pub use desc::{
    Completion, DataSegment, RecvDesc, RemoteSegment, SendDesc, SendOp, ViaStatus, WhichQueue,
};
pub use fabric::{ConnectError, Listener, ViaFabric};
pub use mem::{AccessKind, MemAttributes, MemError, MemHandle, ProtectionTag};
pub use nic::{RegistrationStats, ViaNic};
pub use vi::{Reliability, Vi, ViAttributes, ViId, ViState};

use std::sync::atomic::{AtomicU64, Ordering};

/// Replace `a`'s value with `f` of it and return the old one. The ids and
/// tallies this updates live on the simulation's one thread, so it is a
/// load and a store, not a locked read-modify-write.
fn update(a: &AtomicU64, f: impl FnOnce(u64) -> u64) -> u64 {
    let v = a.load(Ordering::Relaxed);
    a.store(f(v), Ordering::Relaxed);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::units::*;
    use simnet::{Cluster, SimKernel, SimTime, VirtAddr};
    use std::sync::Arc;

    /// Everything a two-host test needs.
    struct TestBed {
        kernel: SimKernel,
        cluster: Cluster,
        fabric: ViaFabric,
        client_nic: ViaNic,
        server_nic: ViaNic,
    }

    fn testbed() -> TestBed {
        testbed_with(ViaCost::default())
    }

    fn testbed_with(cost: ViaCost) -> TestBed {
        let kernel = SimKernel::new();
        let cluster = Cluster::new();
        let fabric = ViaFabric::new(cost);
        let client_nic = fabric.open_nic(cluster.add_host("client"));
        let server_nic = fabric.open_nic(cluster.add_host("server"));
        TestBed {
            kernel,
            cluster,
            fabric,
            client_nic,
            server_nic,
        }
    }

    /// Register a fresh buffer and return (addr, handle).
    fn reg_buf(
        ctx: &simnet::ActorCtx,
        nic: &ViaNic,
        len: usize,
        attrs: MemAttributes,
    ) -> (VirtAddr, MemHandle) {
        let addr = nic.host().mem.alloc(len);
        let h = nic.register_mem(ctx, addr, len as u64, attrs);
        (addr, h)
    }

    #[test]
    fn connect_send_recv_roundtrip() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let tag = vi.ptag();
            let (buf, h) = reg_buf(ctx, &snic, 4096, MemAttributes::local(tag));
            vi.post_recv(ctx, RecvDesc::new(vec![DataSegment::new(buf, 4096, h)]));
            let c = vi.recv_wait(ctx);
            assert!(c.status.is_ok());
            assert_eq!(c.len, 11);
            assert_eq!(snic.host().mem.read_vec(buf, 11), b"hello, via!");
            // Echo back.
            vi.post_send(ctx, SendDesc::send(vec![DataSegment::new(buf, 11, h)]));
            assert!(vi.send_wait(ctx).status.is_ok());
        });

        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let (sbuf, sh) = reg_buf(ctx, &cnic, 64, MemAttributes::local(tag));
            let (rbuf, rh) = reg_buf(ctx, &cnic, 64, MemAttributes::local(tag));
            cnic.host().mem.write(sbuf, b"hello, via!");
            vi.post_recv(ctx, RecvDesc::new(vec![DataSegment::new(rbuf, 64, rh)]));
            vi.post_send(ctx, SendDesc::send(vec![DataSegment::new(sbuf, 11, sh)]));
            assert!(vi.send_wait(ctx).status.is_ok());
            let c = vi.recv_wait(ctx);
            assert!(c.status.is_ok());
            assert_eq!(cnic.host().mem.read_vec(rbuf, 11), b"hello, via!");
        });
        tb.kernel.run();
    }

    /// A frame placed in a receive buffer is dropped when the buffer is
    /// posted again: a receiver that parses the completion's payload and
    /// re-posts leaves the buffer as it was, and after a shorter message
    /// the bytes past its length are not the previous message's tail.
    #[test]
    fn a_reposted_buffer_holds_no_unread_frame() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let (buf, h) = reg_buf(ctx, &snic, 64, MemAttributes::local(vi.ptag()));
            let mem = &snic.host().mem;
            mem.fill(buf, 64, 0xEE);
            let post = || vi.post_recv(ctx, RecvDesc::new(vec![DataSegment::new(buf, 64, h)]));
            post();
            let c = vi.recv_wait(ctx);
            assert_eq!(c.payload.expect("frame"), b"a longer first one".as_slice());
            post();
            assert_eq!(mem.read_vec(buf, 64), [0xEE; 64], "the NIC wrote the slot");
            let c = vi.recv_wait(ctx);
            assert_eq!(c.len, 5);
            let mut want = b"short".to_vec();
            want.resize(64, 0xEE);
            assert_eq!(mem.read_vec(buf, 64), want);
        });

        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let (sbuf, sh) = reg_buf(ctx, &cnic, 64, MemAttributes::local(vi.ptag()));
            for msg in [&b"a longer first one"[..], b"short"] {
                cnic.host().mem.write(sbuf, msg);
                let seg = DataSegment::new(sbuf, msg.len() as u32, sh);
                vi.post_send(ctx, SendDesc::send(vec![seg]));
                assert!(vi.send_wait(ctx).status.is_ok());
            }
        });
        tb.kernel.run();
    }

    #[test]
    fn small_message_one_way_latency_in_envelope() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let recv_time = Arc::new(parking_lot::Mutex::new((SimTime::ZERO, SimTime::ZERO)));
        let rt = recv_time.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let tag = vi.ptag();
            let (buf, h) = reg_buf(ctx, &snic, 64, MemAttributes::local(tag));
            vi.post_recv(ctx, RecvDesc::new(vec![DataSegment::new(buf, 64, h)]));
            let c = vi.recv_wait(ctx);
            rt.lock().1 = c.at;
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        let st = recv_time.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let (sbuf, sh) = reg_buf(ctx, &cnic, 64, MemAttributes::local(tag));
            st.lock().0 = ctx.now();
            vi.post_send(ctx, SendDesc::send(vec![DataSegment::new(sbuf, 16, sh)]));
            vi.send_wait(ctx);
        });
        tb.kernel.run();
        let (sent, delivered) = *recv_time.lock();
        let one_way = delivered.since(sent).as_micros_f64();
        assert!(
            (7.0..10.0).contains(&one_way),
            "16B one-way latency {one_way}us outside the cLAN envelope"
        );
    }

    #[test]
    fn rdma_write_places_data_without_peer_cpu() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let shared: Arc<parking_lot::Mutex<Option<(VirtAddr, MemHandle)>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let slot = shared.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let tag = vi.ptag();
            let (buf, h) = reg_buf(ctx, &snic, 4096, MemAttributes::rdma_write_target(tag));
            *slot.lock() = Some((buf, h));
            // Wait for the RDMA-with-immediate completion.
            let (ibuf, ih) = reg_buf(ctx, &snic, 64, MemAttributes::local(tag));
            vi.post_recv(ctx, RecvDesc::new(vec![DataSegment::new(ibuf, 64, ih)]));
            let cpu_before = snic.host().cpu.busy();
            let c = vi.recv_wait(ctx);
            assert!(c.status.is_ok());
            assert_eq!(c.imm, Some(99));
            assert_eq!(c.len, 2048);
            assert_eq!(snic.host().mem.read_vec(buf, 4), vec![0xAB; 4]);
            // Only the poll itself cost CPU; placement was free.
            let spent = snic.host().cpu.busy() - cpu_before;
            assert!(spent <= snic.cost().poll + us(1));
        });

        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            // Busy-wait (virtual) until the server published its buffer.
            let (raddr, rh) = loop {
                if let Some(x) = *shared.lock() {
                    break x;
                }
                ctx.advance(us(10));
            };
            let tag = vi.ptag();
            let (sbuf, sh) = reg_buf(ctx, &cnic, 2048, MemAttributes::local(tag));
            cnic.host().mem.fill(sbuf, 2048, 0xAB);
            vi.post_send(
                ctx,
                SendDesc::rdma_write_imm(
                    vec![DataSegment::new(sbuf, 2048, sh)],
                    RemoteSegment {
                        addr: raddr,
                        handle: rh,
                    },
                    99,
                ),
            );
            assert!(vi.send_wait(ctx).status.is_ok());
        });
        tb.kernel.run();
    }

    #[test]
    fn rope_payload_is_placed_piece_by_piece_and_sent_as_one_frame() {
        // A payload in several slabs (file pages): an RDMA write places the
        // pieces back to back at the remote address with no gather; a
        // two-sided send delivers their concatenation as one message. The
        // staging segment the descriptors name is never read.
        use simnet::{Bytes, Rope};
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let shared: Arc<parking_lot::Mutex<Option<(VirtAddr, MemHandle)>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let slot = shared.clone();
        let expect: Vec<u8> = (0..3000u32).map(|i| (i % 241) as u8).collect();
        let want = expect.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let tag = vi.ptag();
            let (buf, h) = reg_buf(ctx, &snic, 4096, MemAttributes::rdma_write_target(tag));
            *slot.lock() = Some((buf, h));
            let (mbuf, mh) = reg_buf(ctx, &snic, 4096, MemAttributes::local(tag));
            vi.post_recv(ctx, RecvDesc::new(vec![DataSegment::new(mbuf, 4096, mh)]));
            let c = vi.recv_wait(ctx);
            assert!(c.status.is_ok());
            assert_eq!(c.len, 3000);
            // The send arrived after the RDMA write ahead of it on the VI.
            assert_eq!(snic.host().mem.read_vec(buf, 3000), want);
            assert_eq!(snic.host().mem.read_vec(mbuf, 3000), want);
            assert_eq!(c.payload.expect("delivered frame"), want);
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let (raddr, rh) = loop {
                if let Some(x) = *shared.lock() {
                    break x;
                }
                ctx.advance(us(10));
            };
            let (sbuf, sh) = reg_buf(ctx, &cnic, 4096, MemAttributes::local(vi.ptag()));
            cnic.host().mem.fill(sbuf, 4096, 0xEE);
            let mut rope = Rope::new();
            for piece in expect.chunks(1100) {
                rope.push(Bytes::copy_from_slice(piece));
            }
            assert_eq!(rope.iter().count(), 3);
            let remote = RemoteSegment {
                addr: raddr,
                handle: rh,
            };
            let segs = vec![DataSegment::new(sbuf, 3000, sh)];
            vi.post_send(
                ctx,
                SendDesc::rdma_write(segs.clone(), remote).with_payload(rope.clone()),
            );
            assert!(vi.send_wait(ctx).status.is_ok());
            vi.post_send(ctx, SendDesc::send(segs).with_payload(rope));
            assert!(vi.send_wait(ctx).status.is_ok());
        });
        tb.kernel.run();
    }

    /// An RDMA Write lands as a view of its payload, not a copy: the
    /// target holds one more reference to the payload's slab and reads its
    /// bytes, and a second write over the same range lets the slab go.
    #[test]
    fn an_rdma_write_holds_its_payload_until_written_over() {
        use simnet::{buf::Slab, Bytes};
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let shared: Arc<parking_lot::Mutex<Option<(VirtAddr, MemHandle)>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let slot = shared.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let (buf, h) = reg_buf(
                ctx,
                &snic,
                4096,
                MemAttributes::rdma_write_target(vi.ptag()),
            );
            *slot.lock() = Some((buf, h));
            ctx.advance(ms(10));
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        let smem = tb.server_nic.host().mem.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let (raddr, rh) = loop {
                if let Some(x) = *shared.lock() {
                    break x;
                }
                ctx.advance(us(10));
            };
            let (sbuf, sh) = reg_buf(ctx, &cnic, 2048, MemAttributes::local(vi.ptag()));
            let remote = RemoteSegment {
                addr: raddr.offset(1000),
                handle: rh,
            };
            let write = |payload: Bytes| {
                let segs = vec![DataSegment::new(sbuf, 2048, sh)];
                let desc = SendDesc::rdma_write(segs, remote).with_payload(payload);
                vi.post_send(ctx, desc);
                assert!(vi.send_wait(ctx).status.is_ok());
            };
            let page: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
            let slab = Arc::new(Slab::from_vec(page.clone()));
            write(Bytes::from_slab(slab.clone()).slice(100..2148));
            assert_eq!(Arc::strong_count(&slab), 2, "the write copied its payload");
            assert_eq!(smem.read_vec(raddr.offset(1000), 2048), page[100..2148]);
            write(Bytes::from_vec(vec![0x5A; 2048]));
            assert_eq!(Arc::strong_count(&slab), 1, "a write over it kept the view");
            assert_eq!(smem.read_vec(raddr.offset(1000), 2048), [0x5A; 2048]);
        });
        tb.kernel.run();
    }

    #[test]
    fn rdma_write_to_unwritable_region_is_protection_error() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let shared: Arc<parking_lot::Mutex<Option<(VirtAddr, MemHandle)>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let slot = shared.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let tag = vi.ptag();
            // Local-only registration: remote writes must be denied.
            let (buf, h) = reg_buf(ctx, &snic, 4096, MemAttributes::local(tag));
            *slot.lock() = Some((buf, h));
            // No data arrives. The refused write breaks the connection at
            // both ends: this side is told, not left waiting.
            assert_eq!(vi.recv_wait(ctx).status, ViaStatus::ConnectionLost);
            assert_eq!(vi.state(), ViState::Error);
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let (raddr, rh) = loop {
                if let Some(x) = *shared.lock() {
                    break x;
                }
                ctx.advance(us(10));
            };
            let tag = vi.ptag();
            let (sbuf, sh) = reg_buf(ctx, &cnic, 64, MemAttributes::local(tag));
            vi.post_send(
                ctx,
                SendDesc::rdma_write(
                    vec![DataSegment::new(sbuf, 64, sh)],
                    RemoteSegment {
                        addr: raddr,
                        handle: rh,
                    },
                ),
            );
            let c = vi.send_wait(ctx);
            assert_eq!(c.status, ViaStatus::RemoteProtectionError);
            assert_eq!(vi.state(), ViState::Error);
        });
        tb.kernel.run();
    }

    /// An RDMA aimed at a VI end that is no longer `Connected` is discarded.
    /// The client end breaks on a lost send; its server end has not heard
    /// yet and, still `Connected`, RDMA-writes into (or reads from) the
    /// client's registered buffer. Nothing is placed or read, the server's
    /// descriptor completes `ConnectionLost`, and the one loss is counted
    /// once. (The Write used to land and complete `Success`; only a change
    /// of protection tag kept it out of memory reused by a new VI.)
    #[test]
    fn rdma_at_an_end_that_broke_is_discarded() {
        use simnet::fault::FaultPlan;
        const LEN: usize = 256;
        for (rdma_read, op) in [
            (false, SendOp::RdmaWrite),
            (true, SendOp::RdmaWrite),
            (true, SendOp::RdmaRead),
        ] {
            let tb = testbed_with(ViaCost {
                rdma_read_supported: rdma_read,
                ..ViaCost::default()
            });
            let (chost, shost) = (tb.client_nic.host().id, tb.server_nic.host().id);
            let at = |t| SimTime::ZERO + t;
            let plan = FaultPlan::builder(7).link_down(chost, shost, at(us(100)), at(us(200)));
            tb.fabric.set_fault_plan(plan.build());
            // The client's buffer, once its end has broken.
            let shared: Arc<parking_lot::Mutex<Option<(VirtAddr, MemHandle)>>> =
                Arc::new(parking_lot::Mutex::new(None));
            let (snic, cnic) = (tb.server_nic.clone(), tb.client_nic.clone());
            let slot = shared.clone();
            let listener = tb.fabric.listen(&snic, 7);
            tb.kernel.spawn_daemon("server", move |ctx| {
                let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
                let (buf, h) = reg_buf(ctx, &snic, LEN, MemAttributes::local(vi.ptag()));
                snic.host().mem.fill(buf, LEN, 0xAB);
                let (raddr, rh) = loop {
                    if let Some(x) = *slot.lock() {
                        break x;
                    }
                    ctx.advance(us(10));
                };
                // Past the link's down window: the fabric carries this.
                ctx.advance(us(200));
                assert_eq!(vi.state(), ViState::Connected, "not told yet");
                let segs = vec![DataSegment::new(buf, LEN as u32, h)];
                let remote = RemoteSegment {
                    addr: raddr,
                    handle: rh,
                };
                let desc = match op {
                    SendOp::RdmaWrite => SendDesc::rdma_write(segs, remote),
                    _ => SendDesc::rdma_read(segs, remote),
                };
                vi.post_send(ctx, desc);
                assert_eq!(vi.send_wait(ctx).status, ViaStatus::ConnectionLost);
                assert_eq!(vi.state(), ViState::Error);
                // Neither side's bytes moved.
                assert_eq!(cnic.host().mem.read_vec(raddr, LEN), vec![0x11; LEN]);
                assert_eq!(snic.host().mem.read_vec(buf, LEN), vec![0xAB; LEN]);
                assert_eq!(ctx.metrics().counter("via.conn_broken").get(), 1);
            });
            let (fabric, cnic) = (tb.fabric.clone(), tb.client_nic.clone());
            tb.kernel.spawn("client", move |ctx| {
                let vi = fabric
                    .connect(ctx, &cnic, shost, 7, ViAttributes::default())
                    .unwrap();
                let attrs = MemAttributes {
                    ptag: vi.ptag(),
                    enable_rdma_write: true,
                    enable_rdma_read: true,
                };
                let (buf, h) = reg_buf(ctx, &cnic, LEN, attrs);
                cnic.host().mem.fill(buf, LEN, 0x11);
                ctx.advance(us(100) - ctx.now().since(SimTime::ZERO));
                vi.post_send(ctx, SendDesc::send(vec![DataSegment::new(buf, 8, h)]));
                assert_eq!(vi.send_wait(ctx).status, ViaStatus::ConnectionLost);
                assert_eq!(vi.state(), ViState::Error);
                *shared.lock() = Some((buf, h));
            });
            tb.kernel.run();
        }
    }

    #[test]
    fn send_without_posted_recv_breaks_reliable_vi() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            // No post_recv: reliable VI must break on arrival.
            let c = vi.recv_wait(ctx);
            assert_eq!(c.status, ViaStatus::ConnectionLost);
            assert_eq!(vi.state(), ViState::Error);
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let (sbuf, sh) = reg_buf(ctx, &cnic, 64, MemAttributes::local(tag));
            vi.post_send(ctx, SendDesc::send(vec![DataSegment::new(sbuf, 8, sh)]));
            vi.send_wait(ctx);
        });
        tb.kernel.run();
    }

    #[test]
    fn unreliable_vi_drops_without_descriptor() {
        let attrs = ViAttributes {
            reliability: Reliability::Unreliable,
            ..Default::default()
        };
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let sattrs = attrs.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, sattrs).unwrap();
            let c = vi.recv_wait(ctx);
            assert_eq!(c.status, ViaStatus::DescriptorError);
            assert_eq!(vi.state(), ViState::Connected, "unreliable VI survives");
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric.connect(ctx, &cnic, server_host, 7, attrs).unwrap();
            let tag = vi.ptag();
            let (sbuf, sh) = reg_buf(ctx, &cnic, 64, MemAttributes::local(tag));
            vi.post_send(ctx, SendDesc::send(vec![DataSegment::new(sbuf, 8, sh)]));
            vi.send_wait(ctx);
        });
        tb.kernel.run();
    }

    #[test]
    fn oversized_send_is_descriptor_error() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let _vi = listener.accept(ctx, ViAttributes::default());
            ctx.advance(secs(1));
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let big = 128 << 10; // over the 64 KiB MTU
            let (sbuf, sh) = reg_buf(ctx, &cnic, big, MemAttributes::local(tag));
            vi.post_send(
                ctx,
                SendDesc::send(vec![DataSegment::new(sbuf, big as u32, sh)]),
            );
            assert_eq!(vi.send_wait(ctx).status, ViaStatus::DescriptorError);
        });
        tb.kernel.run();
    }

    #[test]
    fn unregistered_send_buffer_is_local_protection_error() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let _vi = listener.accept(ctx, ViAttributes::default());
            ctx.advance(secs(1));
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let (sbuf, sh) = reg_buf(ctx, &cnic, 64, MemAttributes::local(tag));
            // Deregister, then try to send under the stale handle.
            cnic.deregister_mem(ctx, sh).unwrap();
            vi.post_send(ctx, SendDesc::send(vec![DataSegment::new(sbuf, 8, sh)]));
            assert_eq!(vi.send_wait(ctx).status, ViaStatus::LocalProtectionError);
        });
        tb.kernel.run();
    }

    #[test]
    fn rdma_read_unsupported_on_default_nic() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let _vi = listener.accept(ctx, ViAttributes::default());
            ctx.advance(secs(1));
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let (b, h) = reg_buf(ctx, &cnic, 64, MemAttributes::local(tag));
            vi.post_send(
                ctx,
                SendDesc::rdma_read(
                    vec![DataSegment::new(b, 64, h)],
                    RemoteSegment {
                        addr: VirtAddr(0x1000),
                        handle: MemHandle(1),
                    },
                ),
            );
            assert_eq!(vi.send_wait(ctx).status, ViaStatus::NotSupported);
        });
        tb.kernel.run();
    }

    #[test]
    fn rdma_read_works_when_enabled() {
        let cost = ViaCost {
            rdma_read_supported: true,
            ..ViaCost::default()
        };
        let tb = testbed_with(cost);
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let shared: Arc<parking_lot::Mutex<Option<(VirtAddr, MemHandle)>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let slot = shared.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let tag = vi.ptag();
            let (buf, h) = reg_buf(ctx, &snic, 256, MemAttributes::rdma_read_source(tag));
            snic.host().mem.write(buf, b"read me remotely");
            *slot.lock() = Some((buf, h));
            ctx.advance(secs(1));
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let (raddr, rh) = loop {
                if let Some(x) = *shared.lock() {
                    break x;
                }
                ctx.advance(us(10));
            };
            let tag = vi.ptag();
            let (dst, dh) = reg_buf(ctx, &cnic, 16, MemAttributes::local(tag));
            vi.post_send(
                ctx,
                SendDesc::rdma_read(
                    vec![DataSegment::new(dst, 16, dh)],
                    RemoteSegment {
                        addr: raddr,
                        handle: rh,
                    },
                ),
            );
            let c = vi.send_wait(ctx);
            assert!(c.status.is_ok());
            assert_eq!(cnic.host().mem.read_vec(dst, 16), b"read me remotely");
        });
        tb.kernel.run();
    }

    /// What [`rdma_burst`] saw: the client's send completions in the order
    /// it waited for them, each descriptor's local buffer afterwards, and
    /// the server's first receive completion (when it watched for one).
    #[derive(Default)]
    struct Burst {
        done: Vec<Completion>,
        local: Vec<Vec<u8>>,
        peer: Option<Completion>,
        conn_broken: u64,
        dropped: u64,
    }

    /// The client posts one RDMA descriptor per entry of `ops`, back to
    /// back, each over a fresh local buffer of `0x11`: a Read from a server
    /// buffer of `0xAB`, a Write into a second server buffer beside it. It
    /// then waits for every completion. With `watch` the server blocks on
    /// its receive queue and reports what it observes.
    fn rdma_burst(tb: TestBed, ops: &'static [(SendOp, u32)], watch: bool) -> Burst {
        let server_host = tb.server_nic.host().id;
        let span = ops.iter().map(|&(_, len)| len as usize).max().unwrap();
        let shared: Arc<parking_lot::Mutex<Option<(VirtAddr, MemHandle)>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let out = Arc::new(parking_lot::Mutex::new(Burst::default()));
        let (snic, slot, o) = (tb.server_nic.clone(), shared.clone(), out.clone());
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let attrs = MemAttributes {
                ptag: vi.ptag(),
                enable_rdma_write: true,
                enable_rdma_read: true,
            };
            let (buf, h) = reg_buf(ctx, &snic, 2 * span, attrs);
            snic.host().mem.fill(buf, span, 0xAB);
            *slot.lock() = Some((buf, h));
            if watch {
                o.lock().peer = Some(vi.recv_wait(ctx));
            } else {
                ctx.advance(secs(1));
            }
        });
        let (fabric, cnic, o) = (tb.fabric.clone(), tb.client_nic.clone(), out.clone());
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let (raddr, rh) = loop {
                if let Some(x) = *shared.lock() {
                    break x;
                }
                ctx.advance(us(10));
            };
            let mut bufs = Vec::new();
            for &(op, len) in ops {
                let (buf, h) = reg_buf(ctx, &cnic, len as usize, MemAttributes::local(vi.ptag()));
                cnic.host().mem.fill(buf, len as usize, 0x11);
                bufs.push((buf, len));
                let segs = vec![DataSegment::new(buf, len, h)];
                let at = |addr| RemoteSegment { addr, handle: rh };
                let desc = match op {
                    SendOp::RdmaRead => SendDesc::rdma_read(segs, at(raddr)),
                    _ => SendDesc::rdma_write(segs, at(raddr.offset(span as u64))),
                };
                vi.post_send(ctx, desc);
            }
            let mut done = Vec::new();
            let mut local = Vec::new();
            for &(buf, len) in &bufs {
                done.push(vi.send_wait(ctx));
                local.push(cnic.host().mem.read_vec(buf, len as usize));
            }
            let mut o = o.lock();
            (o.done, o.local) = (done, local);
            o.conn_broken = ctx.metrics().counter("via.conn_broken").get();
            o.dropped = ctx.metrics().counter("sim.faults.dropped").get();
        });
        tb.kernel.run();
        let burst = std::mem::take(&mut *out.lock());
        burst
    }

    fn rdma_read_testbed() -> TestBed {
        testbed_with(ViaCost {
            rdma_read_supported: true,
            ..ViaCost::default()
        })
    }

    /// An RDMA Read's returning stream crosses the switch, peer to local:
    /// the completion lands one switch traversal later than on the
    /// point-to-point wire.
    #[test]
    fn rdma_read_returns_through_one_switch() {
        use simnet::topo::{SwitchConfig, TopologyBuilder};
        let tb = rdma_read_testbed();
        let (chost, shost) = (tb.client_nic.host().id, tb.server_nic.host().id);
        let topo = {
            let mut b = TopologyBuilder::new(&tb.cluster);
            let sw = b.switch("sw0", SwitchConfig::default());
            b.attach(chost, sw, us(1));
            b.attach(shost, sw, us(2));
            b.build()
        };
        tb.fabric.set_topology(Arc::new(topo));
        let r = rdma_burst(tb, &[(SendOp::RdmaRead, 4096)], false);
        assert_eq!(r.done[0].status, ViaStatus::Success);
        assert_eq!(r.done[0].len, 4096);
        assert_eq!(r.done[0].at.as_nanos(), 109_501);
        assert_eq!(r.local[0], vec![0xAB; 4096]);
    }

    /// A lost returning stream breaks the VI at its judged delivery
    /// instant: the reader completes `ConnectionLost`, no byte is scattered
    /// into its segments, the peer observes the break at the same instant,
    /// and the one loss is counted once.
    #[test]
    fn rdma_read_lost_on_its_way_back_scatters_nothing() {
        use simnet::fault::FaultPlan;
        let tb = rdma_read_testbed();
        let (chost, shost) = (tb.client_nic.host().id, tb.server_nic.host().id);
        let plan = FaultPlan::builder(5).link_loss(chost, shost, 1.0);
        tb.fabric.set_fault_plan(plan.build());
        let r = rdma_burst(tb, &[(SendOp::RdmaRead, 4096)], true);
        assert_eq!(r.done[0].status, ViaStatus::ConnectionLost);
        assert_eq!(r.done[0].at.as_nanos(), 111_501);
        assert_eq!(r.local[0], vec![0x11; 4096]);
        let peer = r.peer.expect("the server watched its receive queue");
        assert_eq!(peer.status, ViaStatus::ConnectionLost);
        assert_eq!(peer.at, r.done[0].at);
        assert_eq!(r.conn_broken, 1);
        assert_eq!(r.dropped, 1);
    }

    /// Two back-to-back RDMA Reads under jitter complete in post order, each
    /// at its jittered delivery instant: 111 501 and 120 811 ns without
    /// jitter, plus the first two draws of the server → client jitter
    /// stream under seed 11, 2 492 and 1 169 ns. (949 and 787 ns when every
    /// link drew from one shared stream.)
    #[test]
    fn rdma_reads_under_jitter_complete_in_post_order() {
        use simnet::fault::FaultPlan;
        let tb = rdma_read_testbed();
        tb.fabric
            .set_fault_plan(FaultPlan::builder(11).jitter(us(3)).build());
        let r = rdma_burst(
            tb,
            &[(SendOp::RdmaRead, 4096), (SendOp::RdmaRead, 1024)],
            false,
        );
        let seen: Vec<_> = r
            .done
            .iter()
            .map(|c| (c.status, c.len, c.at.as_nanos()))
            .collect();
        assert_eq!(
            seen,
            vec![
                (ViaStatus::Success, 4096, 113_993),
                (ViaStatus::Success, 1024, 121_980),
            ]
        );
        assert_eq!(r.local, vec![vec![0xAB; 4096], vec![0xAB; 1024]]);
    }

    /// An RDMA Read's returning stream leaves the peer's transmit wire and
    /// enters this end's receive wire, so it does not queue behind the
    /// 64 KiB RDMA Write this end is still putting on its own transmit wire.
    #[test]
    fn rdma_read_does_not_queue_behind_an_outbound_write() {
        let ops = &[(SendOp::RdmaWrite, 64 << 10), (SendOp::RdmaRead, 4096)];
        let r = rdma_burst(rdma_read_testbed(), ops, false);
        let seen: Vec<_> = r
            .done
            .iter()
            .map(|c| (c.status, c.len, c.at.as_nanos()))
            .collect();
        assert_eq!(
            seen,
            vec![
                (ViaStatus::Success, 4096, 196_601),
                (ViaStatus::Success, 64 << 10, 717_046),
            ]
        );
        assert_eq!(r.local[1], vec![0xAB; 4096]);
    }

    #[test]
    fn completion_queue_multiplexes_vis() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        const CLIENTS: usize = 4;
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let cq = Cq::new("server-cq");
            let mut vis = std::collections::HashMap::new();
            for _ in 0..CLIENTS {
                let attrs = ViAttributes {
                    recv_cq: Some(cq.clone()),
                    ..Default::default()
                };
                let vi = listener.accept(ctx, attrs).unwrap();
                let tag = vi.ptag();
                let (buf, h) = reg_buf(ctx, &snic, 64, MemAttributes::local(tag));
                vi.post_recv(ctx, RecvDesc::new(vec![DataSegment::new(buf, 64, h)]));
                vis.insert(vi.id(), (vi, buf));
            }
            let mut seen = Vec::new();
            for _ in 0..CLIENTS {
                let tok = cq.wait(ctx).unwrap();
                assert_eq!(tok.queue, WhichQueue::Recv);
                let (vi, buf) = &vis[&tok.vi];
                let c = vi.recv_done(ctx).expect("token implies a message");
                assert!(c.status.is_ok());
                seen.push(snic.host().mem.read_vec(*buf, 1)[0]);
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..CLIENTS as u8).collect::<Vec<_>>());
        });
        for i in 0..CLIENTS {
            let fabric = tb.fabric.clone();
            let cnic = tb.client_nic.clone();
            tb.kernel.spawn(&format!("client{i}"), move |ctx| {
                // Stagger so arrival order is deterministic but distinct.
                ctx.advance(us(i as u64 * 50));
                let vi = fabric
                    .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                    .unwrap();
                let tag = vi.ptag();
                let (sbuf, sh) = reg_buf(ctx, &cnic, 8, MemAttributes::local(tag));
                cnic.host().mem.write(sbuf, &[i as u8]);
                vi.post_send(ctx, SendDesc::send(vec![DataSegment::new(sbuf, 1, sh)]));
                vi.send_wait(ctx);
            });
        }
        tb.kernel.run();
    }

    #[test]
    fn disconnect_is_observed_by_peer() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let c = vi.recv_wait(ctx);
            assert_eq!(c.status, ViaStatus::ConnectionLost);
            assert_eq!(vi.state(), ViState::Disconnected);
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            vi.disconnect(ctx);
        });
        tb.kernel.run();
    }

    #[test]
    fn connect_to_missing_listener_fails() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let r = fabric.connect(ctx, &cnic, server_host, 99, ViAttributes::default());
            assert_eq!(r.err(), Some(ConnectError::NoListener));
        });
        tb.kernel.run();
    }

    #[test]
    fn multi_segment_gather_scatter() {
        // Sender gathers from three disjoint registered segments; receiver
        // scatters into two — byte order must be preserved across both
        // descriptor shapes.
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let tag = vi.ptag();
            let (b1, h1) = reg_buf(ctx, &snic, 64, MemAttributes::local(tag));
            let (b2, h2) = reg_buf(ctx, &snic, 64, MemAttributes::local(tag));
            vi.post_recv(
                ctx,
                RecvDesc::new(vec![
                    DataSegment::new(b1, 4, h1),
                    DataSegment::new(b2, 64, h2),
                ]),
            );
            let c = vi.recv_wait(ctx);
            assert!(c.status.is_ok());
            assert_eq!(c.len, 9);
            // First 4 bytes scatter into b1, the remaining 5 into b2.
            assert_eq!(snic.host().mem.read_vec(b1, 4), b"AABB");
            assert_eq!(snic.host().mem.read_vec(b2, 5), b"BCCCC");
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let (s1, h1) = reg_buf(ctx, &cnic, 16, MemAttributes::local(tag));
            let (s2, h2) = reg_buf(ctx, &cnic, 16, MemAttributes::local(tag));
            let (s3, h3) = reg_buf(ctx, &cnic, 16, MemAttributes::local(tag));
            cnic.host().mem.write(s1, b"AA");
            cnic.host().mem.write(s2, b"BBB");
            cnic.host().mem.write(s3, b"CCCC");
            vi.post_send(
                ctx,
                SendDesc::send(vec![
                    DataSegment::new(s1, 2, h1),
                    DataSegment::new(s2, 3, h2),
                    DataSegment::new(s3, 4, h3),
                ]),
            );
            assert!(vi.send_wait(ctx).status.is_ok());
        });
        tb.kernel.run();
    }

    #[test]
    fn scatter_overflow_is_length_error() {
        // A message larger than the posted descriptor's total capacity must
        // complete with LengthError, not corrupt memory.
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let tag = vi.ptag();
            let (buf, h) = reg_buf(ctx, &snic, 64, MemAttributes::local(tag));
            snic.host().mem.fill(buf, 8, 0xEE);
            vi.post_recv(ctx, RecvDesc::new(vec![DataSegment::new(buf, 8, h)]));
            let c = vi.recv_wait(ctx);
            assert_eq!(c.status, ViaStatus::LengthError);
            // The undersized buffer was not touched.
            assert_eq!(snic.host().mem.read_vec(buf, 8), vec![0xEE; 8]);
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let (sbuf, sh) = reg_buf(ctx, &cnic, 64, MemAttributes::local(tag));
            vi.post_send(ctx, SendDesc::send(vec![DataSegment::new(sbuf, 16, sh)]));
            vi.send_wait(ctx);
        });
        tb.kernel.run();
    }

    #[test]
    fn large_transfer_bandwidth_approaches_wire_rate() {
        let tb = testbed();
        let server_host = tb.server_nic.host().id;
        let snic = tb.server_nic.clone();
        const MSG: usize = 64 << 10;
        const COUNT: usize = 64;
        let span = Arc::new(parking_lot::Mutex::new((SimTime::ZERO, SimTime::ZERO)));
        let sp = span.clone();
        let listener = tb.fabric.listen(&snic, 7);
        tb.kernel.spawn_daemon("server", move |ctx| {
            let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
            let tag = vi.ptag();
            let (buf, h) = reg_buf(ctx, &snic, MSG, MemAttributes::local(tag));
            for _ in 0..COUNT {
                vi.post_recv(
                    ctx,
                    RecvDesc::new(vec![DataSegment::new(buf, MSG as u32, h)]),
                );
            }
            let mut first = SimTime::ZERO;
            let mut last = SimTime::ZERO;
            for i in 0..COUNT {
                let c = vi.recv_wait(ctx);
                assert!(c.status.is_ok());
                if i == 0 {
                    first = c.at;
                }
                last = c.at;
            }
            *sp.lock() = (first, last);
        });
        let fabric = tb.fabric.clone();
        let cnic = tb.client_nic.clone();
        tb.kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let (sbuf, sh) = reg_buf(ctx, &cnic, MSG, MemAttributes::local(tag));
            // Pipeline all sends; the NIC wire serializes them.
            for _ in 0..COUNT {
                vi.post_send(
                    ctx,
                    SendDesc::send(vec![DataSegment::new(sbuf, MSG as u32, sh)]),
                );
            }
            for _ in 0..COUNT {
                vi.send_wait(ctx);
            }
        });
        tb.kernel.run();
        let (first, last) = *span.lock();
        // (COUNT-1) messages delivered between first and last arrival.
        let bytes = (MSG * (COUNT - 1)) as f64;
        let rate = bytes / last.since(first).as_secs_f64() / 1e6;
        assert!(
            (100.0..=110.5).contains(&rate),
            "pipelined bandwidth {rate} MB/s should approach the 110 MB/s wire"
        );
    }
}
