//! The Virtual Interface itself: paired send/receive work queues, the data
//! path, and RDMA.
//!
//! Posting is asynchronous, as on hardware: `post_send` returns after the
//! doorbell write; the data path (NIC processing, wire serialization,
//! cut-through through the peer's receive port) is modeled with serial
//! resources, and the completion is deposited on the send queue (and CQ) at
//! its future completion instant. Receive-side data placement is performed
//! by the simulated NIC with no host CPU charge — the essence of why DAFS
//! direct I/O leaves the client CPU idle.

use std::collections::VecDeque;
use std::sync::Arc;

use obs::LazyCounter;
use parking_lot::Mutex;
use simnet::fault::FaultPlan;
use simnet::topo::Topology;
use simnet::{buf, ActorCtx, Bytes, Port, Rope, SimTime};

use crate::cq::{Cq, CqToken};
use crate::desc::{Completion, RecvDesc, SendDesc, SendOp, ViaStatus, WhichQueue};
use crate::mem::{AccessKind, ProtectionTag};
use crate::nic::ViaNic;

/// Unique VI endpoint id, allocated per fabric (so two simulations in the
/// same process — or the same simulation run twice — see identical ids,
/// keeping trace streams byte-reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViId(pub u64);

/// Reliability level of a VI (the VIA spec's three levels collapse to two
/// observable behaviours in this model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reliability {
    /// Messages with no posted receive descriptor are silently dropped.
    Unreliable,
    /// A message with no posted receive descriptor is a connection error
    /// (VIA reliable-delivery semantics). DAFS runs on this level.
    #[default]
    Reliable,
}

/// Creation-time attributes of a VI.
#[derive(Clone, Default)]
pub struct ViAttributes {
    /// Reliability level.
    pub reliability: Reliability,
    /// Maximum bytes in a two-sided send (the cLAN's 64 KiB MTU). RDMA
    /// transfers are not subject to this limit. `None` = 64 KiB default.
    pub max_transfer: Option<u64>,
    /// CQ to notify on send completions.
    pub send_cq: Option<Cq>,
    /// CQ to notify on receive completions.
    pub recv_cq: Option<Cq>,
    /// Protection tag the endpoint is created with (`VIP_VI_ATTRIBUTES.Ptag`).
    /// `None` = a fresh tag from the NIC. A tag outlives any one VI: memory
    /// registered under it serves every VI created with it.
    pub ptag: Option<ProtectionTag>,
}

impl ViAttributes {
    /// Effective two-sided-send MTU.
    pub fn max_transfer(&self) -> u64 {
        self.max_transfer.unwrap_or(64 << 10)
    }
}

/// Connection state of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViState {
    /// Connected and healthy.
    Connected,
    /// Peer disconnected cleanly.
    Disconnected,
    /// A reliability violation or protection error broke the connection.
    Error,
}

pub(crate) struct Arrived {
    pub at: SimTime,
    pub msg: WireMsg,
}

pub(crate) enum WireMsg {
    /// Two-sided message payload: a shared view of the sender's gathered
    /// frame (or zero-copy payload), never a per-hop copy.
    Data { bytes: Bytes, imm: Option<u32> },
    /// RDMA Write with immediate data: payload already placed; this consumes
    /// a receive descriptor to signal the peer.
    RdmaWriteImm { imm: u32, len: u64 },
    /// Clean disconnect notification.
    Disconnect,
    /// The connection broke (injected fault on a reliable VI): the receiving
    /// end transitions to `Error` and surfaces `ConnectionLost`.
    Broken,
}

struct PostedRecv {
    desc: RecvDesc,
    posted_at: SimTime,
}

/// One endpoint's queues and state; shared with the peer for delivery.
pub(crate) struct ViEnd {
    pub id: ViId,
    pub incoming: Port<Arrived>,
    pub send_completions: Port<Completion>,
    posted_recvs: Mutex<VecDeque<PostedRecv>>,
    state: Mutex<ViState>,
    pub attrs: ViAttributes,
    pub ptag: ProtectionTag,
}

impl ViEnd {
    pub(crate) fn new(id: ViId, attrs: ViAttributes, ptag: ProtectionTag) -> Arc<ViEnd> {
        Arc::new(ViEnd {
            id,
            incoming: Port::new(&format!("vi{}.rq", id.0)),
            send_completions: Port::new(&format!("vi{}.sq", id.0)),
            posted_recvs: Mutex::new(VecDeque::new()),
            state: Mutex::new(ViState::Connected),
            attrs,
            ptag,
        })
    }
}

/// A connected Virtual Interface endpoint.
///
/// Owned by exactly one actor; the handle is not `Clone` because VIA work
/// queues are single-owner objects.
pub struct Vi {
    pub(crate) local: Arc<ViEnd>,
    pub(crate) peer: Arc<ViEnd>,
    pub(crate) nic: ViaNic,
    pub(crate) peer_nic: ViaNic,
    /// Fault plan captured from the fabric at connection time; `None` means
    /// the data path is exactly the pre-fault-injection code path.
    pub(crate) faults: Option<FaultPlan>,
    /// Switched-fabric topology captured from the fabric at connection
    /// time; `None` means the point-to-point wire model (unchanged).
    pub(crate) topology: Option<Arc<Topology>>,
    pub(crate) counters: ViCounters,
}

/// The registry counters a VI bumps on every descriptor, resolved at first
/// use (a VI lives inside one simulation).
pub(crate) struct ViCounters {
    doorbells: LazyCounter,
    completions: LazyCounter,
    recv_posted: LazyCounter,
}

impl Default for ViCounters {
    fn default() -> ViCounters {
        ViCounters {
            doorbells: LazyCounter::new("via.doorbells"),
            completions: LazyCounter::new("via.completions"),
            recv_posted: LazyCounter::new("via.descriptors.recv_posted"),
        }
    }
}

impl Vi {
    /// This endpoint's id (appears in CQ tokens).
    pub fn id(&self) -> ViId {
        self.local.id
    }

    /// Current connection state.
    pub fn state(&self) -> ViState {
        *self.local.state.lock()
    }

    /// The local NIC.
    pub fn nic(&self) -> &ViaNic {
        &self.nic
    }

    /// The protection tag this endpoint was created with.
    pub fn ptag(&self) -> ProtectionTag {
        self.local.ptag
    }

    fn complete_send(&self, ctx: &ActorCtx, c: Completion) {
        let at = c.at;
        self.counters.completions.resolve(ctx.metrics()).inc();
        if ctx.obs().enabled() {
            ctx.trace(
                "via",
                "completion",
                &[
                    ("vi", obs::Value::U64(self.local.id.0)),
                    ("status", obs::Value::Str(&format!("{:?}", c.status))),
                    ("len", obs::Value::U64(c.len)),
                    ("at_ns", obs::Value::U64(at.as_nanos())),
                ],
            );
        }
        self.local.send_completions.send(ctx, c, at);
        if let Some(cq) = &self.local.attrs.send_cq {
            cq.notify(
                ctx,
                CqToken {
                    vi: self.local.id,
                    queue: WhichQueue::Send,
                },
                at,
            );
        }
    }

    /// Judge a wire delivery against the fault plan. `Ok` carries the
    /// (possibly jittered) arrival instant; `Err` means the message was
    /// lost. With no plan this is a straight pass-through.
    fn faulted_delivery(&self, ctx: &ActorCtx, delivery: SimTime) -> Result<SimTime, ()> {
        let Some(f) = &self.faults else {
            return Ok(delivery);
        };
        let (src, dst) = (self.nic.host().id, self.peer_nic.host().id);
        if f.should_drop(ctx, src, dst, delivery).is_some() {
            return Err(());
        }
        Ok(f.jitter(ctx, src, dst, delivery))
    }

    /// A wire message on this reliable VI was lost: VIA reliable-delivery
    /// semantics break the connection. The local endpoint enters `Error`
    /// and the lost descriptor completes with `ConnectionLost` (instead of
    /// hanging); the peer observes `ConnectionLost` at the instant the data
    /// would have arrived, so blocked receivers wake deterministically.
    fn fault_break(&self, ctx: &ActorCtx, at: SimTime) {
        *self.local.state.lock() = ViState::Error;
        ctx.metrics().counter("via.conn_broken").inc();
        ctx.trace(
            "via",
            "fault.break",
            &[
                ("vi", obs::Value::U64(self.local.id.0)),
                ("at_ns", obs::Value::U64(at.as_nanos())),
            ],
        );
        self.tell_peer_broken(ctx, at);
        self.complete_send(
            ctx,
            Completion {
                status: ViaStatus::ConnectionLost,
                len: 0,
                imm: None,
                queue: WhichQueue::Send,
                at,
                payload: None,
            },
        );
    }

    /// The peer's NIC refused an RDMA target (bad handle, wrong tag, out
    /// of bounds, no remote access). On a reliable VI that is a connection
    /// error at *both* ends: this endpoint enters `Error` and the descriptor
    /// completes with `RemoteProtectionError`; the peer, whose NIC made the
    /// check, observes `ConnectionLost` one NIC-to-host notification later.
    /// Nothing leaves `Connected` without the other side being told — the
    /// invariant [`Vi::disconnect`] relies on when it treats a dead VI as
    /// already announced.
    fn protection_break(&self, ctx: &ActorCtx) {
        *self.local.state.lock() = ViState::Error;
        self.tell_peer_broken(ctx, ctx.now() + self.nic.cost().unloaded_one_way(0));
        self.complete_send(
            ctx,
            Completion {
                status: ViaStatus::RemoteProtectionError,
                len: 0,
                imm: None,
                queue: WhichQueue::Send,
                at: ctx.now(),
                payload: None,
            },
        );
    }

    /// True if the peer end has left `Connected` (it broke or disconnected,
    /// whether or not this end has heard yet), in which case the NIC
    /// discards the RDMA about to be aimed at it: nothing is placed or
    /// read, the descriptor completes `ConnectionLost`, and this end is
    /// broken too. Nothing is counted here: a loss that took the peer out
    /// of `Connected` was counted (`via.conn_broken`) where it happened.
    /// Nor is the peer told: its end is already out of service.
    ///
    /// A registration belongs to its NIC and protection tag, not to a VI,
    /// so the tag check alone would let a dead connection's RDMA Write into
    /// memory its owner has since reused on a new VI under the same tag.
    fn peer_gone(&self, ctx: &ActorCtx) -> bool {
        if *self.peer.state.lock() == ViState::Connected {
            return false;
        }
        *self.local.state.lock() = ViState::Error;
        self.complete_send(
            ctx,
            Completion {
                status: ViaStatus::ConnectionLost,
                len: 0,
                imm: None,
                queue: WhichQueue::Send,
                at: ctx.now(),
                payload: None,
            },
        );
        true
    }

    /// The peer endpoint observes `ConnectionLost` at `at`.
    fn tell_peer_broken(&self, ctx: &ActorCtx, at: SimTime) {
        self.peer.incoming.send(
            ctx,
            Arrived {
                at,
                msg: WireMsg::Broken,
            },
            at,
        );
        self.notify_peer_recv_cq(ctx, at);
    }

    fn notify_peer_recv_cq(&self, ctx: &ActorCtx, at: SimTime) {
        if let Some(cq) = &self.peer.attrs.recv_cq {
            cq.notify(
                ctx,
                CqToken {
                    vi: self.peer.id,
                    queue: WhichQueue::Recv,
                },
                at,
            );
        }
    }

    /// Post a receive descriptor (`VipPostRecv`). Returns immediately.
    pub fn post_recv(&self, ctx: &ActorCtx, desc: RecvDesc) {
        let cost = self.nic.cost().post_recv
            + self
                .nic
                .cost()
                .per_segment
                .saturating_mul(desc.segs.len() as u64);
        self.nic.host().compute(ctx, cost);
        self.counters.recv_posted.resolve(ctx.metrics()).inc();
        ctx.trace(
            "via",
            "post.recv",
            &[
                ("vi", obs::Value::U64(self.local.id.0)),
                ("capacity", obs::Value::U64(desc.capacity())),
            ],
        );
        self.local.posted_recvs.lock().push_back(PostedRecv {
            desc,
            posted_at: ctx.now(),
        });
    }

    /// Number of receive descriptors currently posted.
    pub fn posted_recvs(&self) -> usize {
        self.local.posted_recvs.lock().len()
    }

    /// Post a send descriptor (`VipPostSend`): two-sided send, RDMA Write,
    /// or RDMA Read, per `desc.op`. Returns after the doorbell; the
    /// completion arrives asynchronously on the send queue / CQ.
    pub fn post_send(&self, ctx: &ActorCtx, desc: SendDesc) {
        let cost = self.nic.cost().post_send
            + self
                .nic
                .cost()
                .per_segment
                .saturating_mul(desc.segs.len() as u64);
        self.nic.host().compute(ctx, cost);
        // The doorbell write is the user-level I/O submission the paper's
        // VIA path is built around: count every ring.
        self.counters.doorbells.resolve(ctx.metrics()).inc();
        ctx.trace(
            "via",
            "doorbell",
            &[
                ("vi", obs::Value::U64(self.local.id.0)),
                (
                    "op",
                    obs::Value::Str(match desc.op {
                        SendOp::Send => "send",
                        SendOp::RdmaWrite => "rdma_write",
                        SendOp::RdmaRead => "rdma_read",
                    }),
                ),
                ("len", obs::Value::U64(desc.total_len())),
            ],
        );

        if self.state() != ViState::Connected {
            return self.complete_send(
                ctx,
                Completion {
                    status: ViaStatus::ConnectionLost,
                    len: 0,
                    imm: None,
                    queue: WhichQueue::Send,
                    at: ctx.now(),
                    payload: None,
                },
            );
        }

        // Validate local segments against the TPT.
        for s in &desc.segs {
            if let Err(e) = self.nic.table().check(
                s.handle,
                self.local.ptag,
                s.addr,
                s.len as u64,
                AccessKind::Local,
            ) {
                return self.complete_send(
                    ctx,
                    Completion {
                        status: e.into(),
                        len: 0,
                        imm: None,
                        queue: WhichQueue::Send,
                        at: ctx.now(),
                        payload: None,
                    },
                );
            }
        }

        match desc.op {
            SendOp::Send => self.do_send(ctx, desc),
            SendOp::RdmaWrite => self.do_rdma_write(ctx, desc),
            SendOp::RdmaRead => self.do_rdma_read(ctx, desc),
        }
    }

    /// Compute (tx_done, delivery) for a message of `bytes` injected now:
    /// tx NIC processing, transmit-wire serialization, cut-through into the
    /// peer's receive wire, propagation, receive NIC processing.
    ///
    /// With a [`Topology`] configured, the frame traverses the switched
    /// fabric between the two NICs instead of a dedicated wire; `Err`
    /// carries the instant the fabric dropped it (queue overflow or every
    /// rail down), which breaks the reliable VI like any other wire loss.
    fn wire_times(&self, ctx: &ActorCtx, bytes: u64) -> Result<(SimTime, SimTime), SimTime> {
        let c = self.nic.cost();
        let ser = c.wire_bw.time_for(bytes);
        let (tx_start, tx_done) = self
            .nic
            .inner
            .tx_wire
            .book_span(ctx.now() + c.tx_nic_proc, ser);
        // Cut-through: the peer's receive port starts taking bits one
        // propagation delay (or one fabric traversal) after the first bit
        // leaves.
        let rx_first = match &self.topology {
            None => tx_start + c.wire_latency,
            Some(t) => t
                .deliver(
                    ctx,
                    self.faults.as_ref(),
                    self.nic.host().id,
                    self.peer_nic.host().id,
                    bytes,
                    tx_start,
                    tx_done,
                )
                .map_err(|d| d.at)?,
        };
        let rx_done = self.peer_nic.inner.rx_wire.book(rx_first, ser);
        Ok((tx_done, rx_done + c.rx_nic_proc))
    }

    /// The bytes a descriptor sends. A zero-copy payload attached to it is
    /// taken as it is — the segments were already TPT-checked and costed,
    /// and the bounce through registered staging memory is skipped.
    /// Otherwise gather once from host memory into a pooled frame buffer
    /// (the single copy of the send path).
    fn gather(&self, desc: &mut SendDesc) -> Rope {
        if let Some(p) = desc.payload.take() {
            assert_eq!(
                p.len() as u64,
                desc.total_len(),
                "zero-copy payload length must match the descriptor segments"
            );
            return p;
        }
        let mut frame = buf::frame_pool().alloc(desc.total_len() as usize);
        for s in &desc.segs {
            self.nic
                .host()
                .mem
                .read_into(s.addr, s.len as usize, &mut frame);
        }
        frame.freeze().into()
    }

    /// [`Self::gather`] as the one frame a two-sided message travels in: a
    /// payload in several pieces is concatenated into a pooled frame (the
    /// copy into the message buffer the sender was charged for).
    fn gather_frame(&self, desc: &mut SendDesc) -> Bytes {
        let rope = self.gather(desc);
        if let Some(one) = rope.as_single() {
            return one.clone();
        }
        let mut frame = buf::frame_pool().alloc(rope.len());
        rope.copy_into(&mut frame);
        frame.freeze()
    }

    fn do_send(&self, ctx: &ActorCtx, mut desc: SendDesc) {
        let len = desc.total_len();
        if len > self.local.attrs.max_transfer() {
            return self.complete_send(
                ctx,
                Completion {
                    status: ViaStatus::DescriptorError,
                    len: 0,
                    imm: None,
                    queue: WhichQueue::Send,
                    at: ctx.now(),
                    payload: None,
                },
            );
        }
        ctx.metrics().byte_meter("via.send.bytes").record(len);
        let bytes = self.gather_frame(&mut desc);
        let (tx_done, delivery) = match self.wire_times(ctx, len) {
            Ok(v) => v,
            Err(at) => return self.fault_break(ctx, at),
        };
        let delivery = match self.faulted_delivery(ctx, delivery) {
            Ok(d) => d,
            Err(()) => return self.fault_break(ctx, delivery),
        };
        self.peer.incoming.send(
            ctx,
            Arrived {
                at: delivery,
                msg: WireMsg::Data {
                    bytes,
                    imm: desc.imm,
                },
            },
            delivery,
        );
        self.notify_peer_recv_cq(ctx, delivery);
        self.complete_send(
            ctx,
            Completion {
                status: ViaStatus::Success,
                len,
                imm: None,
                queue: WhichQueue::Send,
                at: tx_done,
                payload: None,
            },
        );
    }

    fn do_rdma_write(&self, ctx: &ActorCtx, mut desc: SendDesc) {
        let remote = match desc.remote {
            Some(r) => r,
            None => {
                return self.complete_send(
                    ctx,
                    Completion {
                        status: ViaStatus::DescriptorError,
                        len: 0,
                        imm: None,
                        queue: WhichQueue::Send,
                        at: ctx.now(),
                        payload: None,
                    },
                )
            }
        };
        if self.peer_gone(ctx) {
            return;
        }
        let len = desc.total_len();
        // The remote NIC validates the target against its own TPT under the
        // *peer* endpoint's protection tag.
        let target = self.peer_nic.table().check(
            remote.handle,
            self.peer.ptag,
            remote.addr,
            len,
            AccessKind::RemoteWrite,
        );
        if target.is_err() {
            return self.protection_break(ctx);
        }
        // Move the bytes (the peer host CPU is *not* involved).
        ctx.metrics().byte_meter("via.rdma.bytes").record(len);
        let bytes = self.gather(&mut desc);
        let (tx_done, delivery) = match self.wire_times(ctx, len) {
            Ok(v) => v,
            Err(at) => return self.fault_break(ctx, at),
        };
        // A lost RDMA write must not place any remote bytes.
        let delivery = match self.faulted_delivery(ctx, delivery) {
            Ok(d) => d,
            Err(()) => return self.fault_break(ctx, delivery),
        };
        let mut at = remote.addr;
        for piece in &bytes {
            self.peer_nic.host().mem.write(at, piece);
            at = at.offset(piece.len() as u64);
        }
        if let Some(imm) = desc.imm {
            self.peer.incoming.send(
                ctx,
                Arrived {
                    at: delivery,
                    msg: WireMsg::RdmaWriteImm { imm, len },
                },
                delivery,
            );
            self.notify_peer_recv_cq(ctx, delivery);
        }
        self.complete_send(
            ctx,
            Completion {
                status: ViaStatus::Success,
                len,
                imm: None,
                queue: WhichQueue::Send,
                at: tx_done,
                payload: None,
            },
        );
    }

    fn do_rdma_read(&self, ctx: &ActorCtx, desc: SendDesc) {
        if !self.nic.cost().rdma_read_supported {
            return self.complete_send(
                ctx,
                Completion {
                    status: ViaStatus::NotSupported,
                    len: 0,
                    imm: None,
                    queue: WhichQueue::Send,
                    at: ctx.now(),
                    payload: None,
                },
            );
        }
        let remote = match desc.remote {
            Some(r) => r,
            None => {
                return self.complete_send(
                    ctx,
                    Completion {
                        status: ViaStatus::DescriptorError,
                        len: 0,
                        imm: None,
                        queue: WhichQueue::Send,
                        at: ctx.now(),
                        payload: None,
                    },
                )
            }
        };
        if self.peer_gone(ctx) {
            return;
        }
        let len = desc.total_len();
        let target = self.peer_nic.table().check(
            remote.handle,
            self.peer.ptag,
            remote.addr,
            len,
            AccessKind::RemoteRead,
        );
        if target.is_err() {
            return self.protection_break(ctx);
        }
        ctx.metrics().byte_meter("via.rdma.bytes").record(len);
        let c = self.nic.cost();
        // Request (small control message) to the peer NIC...
        let req_at = ctx.now() + c.tx_nic_proc + c.wire_latency;
        // ...peer NIC streams the payload back, occupying its transmit wire
        // and our receive wire.
        let ser = c.wire_bw.time_for(len);
        let (peer_tx_start, peer_tx_done) = self.peer_nic.inner.tx_wire.book_span(req_at, ser);
        // The returning payload stream crosses the fabric peer -> local
        // when a topology is configured (the tiny request stays on the
        // control path, like connection management).
        let rx_first = match &self.topology {
            None => peer_tx_start + c.wire_latency,
            Some(t) => match t.deliver(
                ctx,
                self.faults.as_ref(),
                self.peer_nic.host().id,
                self.nic.host().id,
                len,
                peer_tx_start,
                peer_tx_done,
            ) {
                Ok(at) => at,
                Err(d) => return self.fault_break(ctx, d.at),
            },
        };
        let rx_done = self.nic.inner.rx_wire.book(rx_first, ser);
        let mut delivery = rx_done + c.rx_nic_proc;
        // The returning data stream is the judged delivery (peer -> local).
        if let Some(f) = &self.faults {
            let (src, dst) = (self.peer_nic.host().id, self.nic.host().id);
            if f.should_drop(ctx, src, dst, delivery).is_some() {
                return self.fault_break(ctx, delivery);
            }
            delivery = f.jitter(ctx, src, dst, delivery);
        }
        // Scatter remote bytes into the local segments.
        let bytes = self
            .peer_nic
            .host()
            .mem
            .read_bytes(remote.addr, len as usize);
        let mut off = 0usize;
        for s in &desc.segs {
            self.nic
                .host()
                .mem
                .write(s.addr, &bytes[off..off + s.len as usize]);
            off += s.len as usize;
        }
        self.complete_send(
            ctx,
            Completion {
                status: ViaStatus::Success,
                len,
                imm: None,
                queue: WhichQueue::Send,
                at: delivery,
                payload: None,
            },
        );
    }

    /// Non-blocking send-completion poll (`VipSendDone`).
    pub fn send_done(&self, ctx: &ActorCtx) -> Option<Completion> {
        self.nic.host().compute(ctx, self.nic.cost().poll);
        self.local.send_completions.try_recv(ctx)
    }

    /// Blocking send-completion wait (`VipSendWait`).
    pub fn send_wait(&self, ctx: &ActorCtx) -> Completion {
        self.nic.host().compute(ctx, self.nic.cost().poll);
        self.local
            .send_completions
            .recv(ctx)
            .expect("send completion port never closes")
    }

    /// Non-blocking receive poll (`VipRecvDone`): processes the next arrived
    /// message, if any.
    pub fn recv_done(&self, ctx: &ActorCtx) -> Option<Completion> {
        self.nic.host().compute(ctx, self.nic.cost().poll);
        let arrived = self.local.incoming.try_recv(ctx)?;
        Some(self.deliver(ctx, arrived))
    }

    /// Blocking receive wait (`VipRecvWait`).
    pub fn recv_wait(&self, ctx: &ActorCtx) -> Completion {
        self.nic.host().compute(ctx, self.nic.cost().poll);
        match self.local.incoming.recv(ctx) {
            Some(arrived) => self.deliver(ctx, arrived),
            None => Completion {
                status: ViaStatus::ConnectionLost,
                len: 0,
                imm: None,
                queue: WhichQueue::Recv,
                at: ctx.now(),
                payload: None,
            },
        }
    }

    /// Consume one arrived wire message against the posted receive queue.
    fn deliver(&self, ctx: &ActorCtx, arrived: Arrived) -> Completion {
        let at = arrived.at;
        match arrived.msg {
            WireMsg::Disconnect => {
                *self.local.state.lock() = ViState::Disconnected;
                Completion {
                    status: ViaStatus::ConnectionLost,
                    len: 0,
                    imm: None,
                    queue: WhichQueue::Recv,
                    at,
                    payload: None,
                }
            }
            WireMsg::Broken => {
                *self.local.state.lock() = ViState::Error;
                Completion {
                    status: ViaStatus::ConnectionLost,
                    len: 0,
                    imm: None,
                    queue: WhichQueue::Recv,
                    at,
                    payload: None,
                }
            }
            WireMsg::RdmaWriteImm { imm, len } => match self.take_posted(at) {
                Some(_) => Completion {
                    status: ViaStatus::Success,
                    len,
                    imm: Some(imm),
                    queue: WhichQueue::Recv,
                    at,
                    payload: None,
                },
                None => self.missing_descriptor(ctx, at),
            },
            WireMsg::Data { bytes, imm } => match self.take_posted(at) {
                None => self.missing_descriptor(ctx, at),
                Some(desc) => {
                    if (bytes.len() as u64) > desc.capacity() {
                        return Completion {
                            status: ViaStatus::LengthError,
                            len: 0,
                            imm,
                            queue: WhichQueue::Recv,
                            at,
                            payload: None,
                        };
                    }
                    // Scatter: NIC data placement, no host CPU charge.
                    let mut off = 0usize;
                    for s in &desc.segs {
                        if off >= bytes.len() {
                            break;
                        }
                        let n = (s.len as usize).min(bytes.len() - off);
                        self.nic.host().mem.write(s.addr, &bytes[off..off + n]);
                        off += n;
                    }
                    let len = bytes.len() as u64;
                    Completion {
                        status: ViaStatus::Success,
                        len,
                        imm,
                        queue: WhichQueue::Recv,
                        at,
                        // Hand the receiver a view of the same frame the NIC
                        // just placed, so it can parse without re-reading
                        // (and re-copying) the posted buffer.
                        payload: Some(bytes),
                    }
                }
            },
        }
    }

    /// Pop the head receive descriptor if it was posted before `arrival`.
    fn take_posted(&self, arrival: SimTime) -> Option<RecvDesc> {
        let mut q = self.local.posted_recvs.lock();
        match q.front() {
            Some(p) if p.posted_at <= arrival => Some(q.pop_front().unwrap().desc),
            _ => None,
        }
    }

    fn missing_descriptor(&self, _ctx: &ActorCtx, at: SimTime) -> Completion {
        match self.local.attrs.reliability {
            Reliability::Unreliable => Completion {
                // Dropped silently on the wire; surfaced to the caller as a
                // descriptor error so tests can observe the drop.
                status: ViaStatus::DescriptorError,
                len: 0,
                imm: None,
                queue: WhichQueue::Recv,
                at,
                payload: None,
            },
            Reliability::Reliable => {
                *self.local.state.lock() = ViState::Error;
                Completion {
                    status: ViaStatus::ConnectionLost,
                    len: 0,
                    imm: None,
                    queue: WhichQueue::Recv,
                    at,
                    payload: None,
                }
            }
        }
    }

    /// Cleanly disconnect (`VipDisconnect`). The peer observes a
    /// `ConnectionLost` receive completion.
    pub fn disconnect(&self, ctx: &ActorCtx) {
        let c = self.nic.cost();
        {
            // Disconnecting an already broken or disconnected VI is a no-op
            // (the peer was notified when the connection died).
            let mut st = self.local.state.lock();
            if *st != ViState::Connected {
                return;
            }
            *st = ViState::Disconnected;
        }
        let at = ctx.now() + c.tx_nic_proc + c.wire_latency + c.rx_nic_proc;
        // A disconnect notification rides the same faulty wire as data.
        if let Some(f) = &self.faults {
            let (src, dst) = (self.nic.host().id, self.peer_nic.host().id);
            if f.should_drop(ctx, src, dst, at).is_some() {
                return;
            }
        }
        self.peer.incoming.send(
            ctx,
            Arrived {
                at,
                msg: WireMsg::Disconnect,
            },
            at,
        );
        self.notify_peer_recv_cq(ctx, at);
    }
}
