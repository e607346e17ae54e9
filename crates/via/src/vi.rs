//! The Virtual Interface itself: paired send/receive work queues, the data
//! path, and RDMA.
//!
//! Posting is asynchronous, as on hardware: `post_send` returns after the
//! doorbell write and hands the descriptor to one executor, in four steps:
//!
//! 1. **check** what must hold before anything moves: the MTU for a send;
//!    for RDMA, Read support, a remote segment, a live peer, and the peer
//!    NIC's TPT check of the target;
//! 2. **trip**: the bytes cross the wire once, outbound for a send or an
//!    RDMA Write, back from the peer for an RDMA Read's returning stream.
//!    The trip books the sender's transmit wire, takes the fabric hop (or
//!    the fixed latency), books the receiver's receive wire and NIC, and
//!    draws the directed link's one loss verdict and, for a frame that
//!    survives, its one jitter; a loss breaks the reliable VI;
//! 3. **land** them: on the peer's receive queue, in the peer's memory (plus
//!    an optional immediate), or in this end's own segments;
//! 4. **complete** the send queue (and CQ) at its future instant: when the
//!    bytes have left, or for a read when they have arrived.
//!
//! Data placement is performed by the simulated NIC with no host CPU
//! charge — the essence of why DAFS direct I/O leaves the client CPU idle.
//! Nor does the host copy: every landing records views of the bytes in
//! the target memory (`HostMem::place`), which reads see and nothing
//! writes into its pages.

use std::collections::VecDeque;
use std::sync::Arc;

use obs::{LazyByteMeter, LazyCounter};
use parking_lot::Mutex;
use simnet::fault::FaultPlan;
use simnet::topo::Topology;
use simnet::{buf, ActorCtx, Bytes, Port, Rope, SimTime};

use crate::cq::{Cq, CqToken};
use crate::desc::{Completion, RecvDesc, RemoteSegment, SendDesc, SendOp, ViaStatus, WhichQueue};
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

/// The registry series a VI bumps on every descriptor, resolved at first
/// use (a VI lives inside one simulation).
pub(crate) struct ViCounters {
    doorbells: LazyCounter,
    completions: LazyCounter,
    recv_posted: LazyCounter,
    send_bytes: LazyByteMeter,
    rdma_bytes: LazyByteMeter,
}

impl Default for ViCounters {
    fn default() -> ViCounters {
        ViCounters {
            doorbells: LazyCounter::new("via.doorbells"),
            completions: LazyCounter::new("via.completions"),
            recv_posted: LazyCounter::new("via.descriptors.recv_posted"),
            send_bytes: LazyByteMeter::new("via.send.bytes"),
            rdma_bytes: LazyByteMeter::new("via.rdma.bytes"),
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

    /// The send queue completes the descriptor being posted with `status`,
    /// now, having moved nothing.
    fn refuse(&self, ctx: &ActorCtx, status: ViaStatus) {
        self.complete_send(ctx, Completion::failed(WhichQueue::Send, status, ctx.now()));
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
        self.signal_peer(ctx, at, WireMsg::Broken);
        self.complete_send(
            ctx,
            Completion::failed(WhichQueue::Send, ViaStatus::ConnectionLost, at),
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
        let told = ctx.now() + self.nic.cost().unloaded_one_way(0);
        self.signal_peer(ctx, told, WireMsg::Broken);
        self.refuse(ctx, ViaStatus::RemoteProtectionError);
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
        self.refuse(ctx, ViaStatus::ConnectionLost);
        true
    }

    /// `msg` arrives on the peer's receive queue at `at`, and the peer's
    /// receive CQ (if any) hears of it then.
    fn signal_peer(&self, ctx: &ActorCtx, at: SimTime, msg: WireMsg) {
        self.peer.incoming.send(ctx, Arrived { at, msg }, at);
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
    ///
    /// The buffer belongs to the NIC until the descriptor completes, so a
    /// frame still placed in it is dropped: after a shorter message
    /// completes, the bytes past its length are not the previous message's
    /// tail.
    pub fn post_recv(&self, ctx: &ActorCtx, desc: RecvDesc) {
        for s in &desc.segs {
            self.nic.host().mem.unplace(s.addr, s.len as usize);
        }
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
            return self.refuse(ctx, ViaStatus::ConnectionLost);
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
                return self.refuse(ctx, e.into());
            }
        }
        self.execute(ctx, desc);
    }

    /// The one executor behind every send-queue op: check, trip, land,
    /// complete. The op decides what is checked, which way the bytes
    /// travel, where they land, and when the send queue completes.
    fn execute(&self, ctx: &ActorCtx, mut desc: SendDesc) {
        let len = desc.total_len();
        // Check, before anything moves; `via.*.bytes` count what then moves
        // (or is lost on the way).
        let landing = if desc.op == SendOp::Send {
            if len > self.local.attrs.max_transfer() {
                return self.refuse(ctx, ViaStatus::DescriptorError);
            }
            self.counters.send_bytes.resolve(ctx.metrics()).record(len);
            Landing::PeerQueue(self.gather_frame(&mut desc))
        } else {
            let Some(remote) = self.check_remote(ctx, &desc, len) else {
                return;
            };
            self.counters.rdma_bytes.resolve(ctx.metrics()).record(len);
            match desc.op {
                SendOp::RdmaRead => Landing::OwnSegments(remote),
                _ => Landing::PeerMemory(self.gather(&mut desc), remote),
            }
        };
        // The trip: outbound from this NIC once it has processed the
        // descriptor, or, for a read, back from the peer's NIC once the
        // request (a small control message, neither booked nor judged) has
        // reached it.
        let c = self.nic.cost();
        let (way, ready) = match landing {
            Landing::OwnSegments(_) => (
                (&self.peer_nic, &self.nic),
                ctx.now() + c.tx_nic_proc + c.wire_latency,
            ),
            _ => ((&self.nic, &self.peer_nic), ctx.now() + c.tx_nic_proc),
        };
        let (tx_done, delivery) = match self.trip(ctx, way, ready, len) {
            Ok(t) => t,
            // A lost frame places and scatters nothing.
            Err(at) => return self.fault_break(ctx, at),
        };
        // Land, then complete: at `tx_done` once the bytes have left, or
        // for a read once they have arrived.
        let at = match landing {
            Landing::PeerQueue(bytes) => {
                let imm = desc.imm;
                self.signal_peer(ctx, delivery, WireMsg::Data { bytes, imm });
                tx_done
            }
            Landing::PeerMemory(bytes, remote) => {
                // The peer host CPU is *not* involved, nor are its pages:
                // each piece is placed as it is (a memfs page view for a
                // direct read).
                let mut addr = remote.addr;
                for piece in &bytes {
                    self.peer_nic.host().mem.place(addr, piece.clone());
                    addr = addr.offset(piece.len() as u64);
                }
                if let Some(imm) = desc.imm {
                    self.signal_peer(ctx, delivery, WireMsg::RdmaWriteImm { imm, len });
                }
                tx_done
            }
            Landing::OwnSegments(remote) => {
                let bytes = self
                    .peer_nic
                    .host()
                    .mem
                    .read_bytes(remote.addr, len as usize);
                let mut off = 0usize;
                for s in &desc.segs {
                    let end = off + s.len as usize;
                    self.nic.host().mem.place(s.addr, bytes.slice(off..end));
                    off = end;
                }
                delivery
            }
        };
        self.complete_send(
            ctx,
            Completion {
                status: ViaStatus::Success,
                len,
                imm: None,
                queue: WhichQueue::Send,
                at,
                payload: None,
            },
        );
    }

    /// An RDMA descriptor's checks: Read support, a remote segment, a live
    /// peer, and the peer NIC's TPT check of the target under the *peer*
    /// endpoint's protection tag. `None` once the descriptor has completed
    /// in error.
    fn check_remote(&self, ctx: &ActorCtx, desc: &SendDesc, len: u64) -> Option<RemoteSegment> {
        let access = match desc.op {
            SendOp::RdmaRead if !self.nic.cost().rdma_read_supported => {
                self.refuse(ctx, ViaStatus::NotSupported);
                return None;
            }
            SendOp::RdmaRead => AccessKind::RemoteRead,
            _ => AccessKind::RemoteWrite,
        };
        let Some(remote) = desc.remote else {
            self.refuse(ctx, ViaStatus::DescriptorError);
            return None;
        };
        if self.peer_gone(ctx) {
            return None;
        }
        let target =
            self.peer_nic
                .table()
                .check(remote.handle, self.peer.ptag, remote.addr, len, access);
        if target.is_err() {
            self.protection_break(ctx);
            return None;
        }
        Some(remote)
    }

    /// One trip of `bytes` from the first NIC of `(from, to)` to the
    /// second, the first bit ready at `ready`: the sender's transmit wire,
    /// the fabric hop (or the fixed wire latency), the receiver's receive
    /// wire and NIC, then the directed link's one loss verdict and, only
    /// for a frame that survives, its one jitter. `Ok` carries (tx_done,
    /// delivery); `Err` the instant the frame was lost, which breaks the
    /// reliable VI.
    fn trip(
        &self,
        ctx: &ActorCtx,
        (from, to): (&ViaNic, &ViaNic),
        ready: SimTime,
        bytes: u64,
    ) -> Result<(SimTime, SimTime), SimTime> {
        let c = self.nic.cost();
        let (src, dst) = (from.host().id, to.host().id);
        let ser = c.wire_bw.time_for(bytes);
        let (tx_start, tx_done) = from.inner.tx_wire.book_span(ready, ser);
        // Cut-through: the receiving port starts taking bits one
        // propagation delay (or one fabric traversal) after the first bit
        // leaves. A fabric that drops the frame (queue overflow, or a down
        // link or switch) loses it like any other wire loss.
        let rx_first = match &self.topology {
            None => tx_start + c.wire_latency,
            Some(t) => t
                .deliver(ctx, self.faults.as_ref(), src, dst, bytes, tx_start)
                .map_err(|d| d.at)?,
        };
        let delivery = to.inner.rx_wire.book(rx_first, ser) + c.rx_nic_proc;
        let Some(f) = &self.faults else {
            return Ok((tx_done, delivery));
        };
        if f.should_drop(ctx, src, dst, delivery).is_some() {
            return Err(delivery);
        }
        Ok((tx_done, f.jitter(ctx, src, dst, delivery)))
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
        Some(self.deliver(arrived))
    }

    /// Blocking receive wait (`VipRecvWait`).
    pub fn recv_wait(&self, ctx: &ActorCtx) -> Completion {
        self.nic.host().compute(ctx, self.nic.cost().poll);
        match self.local.incoming.recv(ctx) {
            Some(arrived) => self.deliver(arrived),
            None => Completion::failed(WhichQueue::Recv, ViaStatus::ConnectionLost, ctx.now()),
        }
    }

    /// Consume one arrived wire message against the posted receive queue.
    fn deliver(&self, arrived: Arrived) -> Completion {
        let at = arrived.at;
        match arrived.msg {
            WireMsg::Disconnect => self.lose_connection(ViState::Disconnected, at),
            WireMsg::Broken => self.lose_connection(ViState::Error, at),
            WireMsg::RdmaWriteImm { imm, len } => match self.take_posted(at) {
                Some(_) => Completion {
                    status: ViaStatus::Success,
                    len,
                    imm: Some(imm),
                    queue: WhichQueue::Recv,
                    at,
                    payload: None,
                },
                None => self.missing_descriptor(at),
            },
            WireMsg::Data { bytes, imm } => match self.take_posted(at) {
                None => self.missing_descriptor(at),
                Some(desc) => {
                    if (bytes.len() as u64) > desc.capacity() {
                        return Completion {
                            imm,
                            ..Completion::failed(WhichQueue::Recv, ViaStatus::LengthError, at)
                        };
                    }
                    // Scatter: NIC data placement, no host CPU charge. Each
                    // segment records its slice of the frame; no page of
                    // the buffer is written, whoever reads it.
                    let mut off = 0usize;
                    for s in &desc.segs {
                        if off >= bytes.len() {
                            break;
                        }
                        let n = (s.len as usize).min(bytes.len() - off);
                        self.nic.host().mem.place(s.addr, bytes.slice(off..off + n));
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
                        // just placed, so it can parse without reading the
                        // posted buffer (which would write its pages).
                        payload: Some(bytes),
                    }
                }
            },
        }
    }

    /// The receive queue reports the connection lost at `at`, leaving this
    /// end in `state`.
    fn lose_connection(&self, state: ViState, at: SimTime) -> Completion {
        *self.local.state.lock() = state;
        Completion::failed(WhichQueue::Recv, ViaStatus::ConnectionLost, at)
    }

    /// Pop the head receive descriptor if it was posted before `arrival`.
    fn take_posted(&self, arrival: SimTime) -> Option<RecvDesc> {
        let mut q = self.local.posted_recvs.lock();
        match q.front() {
            Some(p) if p.posted_at <= arrival => Some(q.pop_front().unwrap().desc),
            _ => None,
        }
    }

    fn missing_descriptor(&self, at: SimTime) -> Completion {
        match self.local.attrs.reliability {
            // Dropped silently on the wire; surfaced to the caller as a
            // descriptor error so tests can observe the drop.
            Reliability::Unreliable => {
                Completion::failed(WhichQueue::Recv, ViaStatus::DescriptorError, at)
            }
            Reliability::Reliable => self.lose_connection(ViState::Error, at),
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
        // A disconnect notification rides the same faulty wire as data, but
        // on the control path: judged for loss only, neither booked nor
        // jittered (one more draw would re-deal every later loss).
        if let Some(f) = &self.faults {
            let (src, dst) = (self.nic.host().id, self.peer_nic.host().id);
            if f.should_drop(ctx, src, dst, at).is_some() {
                return;
            }
        }
        self.signal_peer(ctx, at, WireMsg::Disconnect);
    }
}

/// Where a descriptor's bytes land, decided by its op at the check.
enum Landing {
    /// The peer's receive queue, as one two-sided message frame.
    PeerQueue(Bytes),
    /// The peer's registered memory at the remote segment (an RDMA Write).
    PeerMemory(Rope, RemoteSegment),
    /// This end's own segments, read from the peer's memory at the remote
    /// segment (an RDMA Read).
    OwnSegments(RemoteSegment),
}
