//! The DAFS server: a CQ-driven event loop over per-session VIs.
//!
//! Shape of the real thing: an acceptor admits sessions (one VI each,
//! receive queues bound to one shared completion queue, `credits` receive
//! descriptors pre-posted into registered session buffers), and a single
//! worker drains the CQ, executing requests against the shared [`MemFs`].
//! New sessions reach the worker through a timed port, so the worker owns
//! all session state — no lock is ever held across a virtual-time yield.
//!
//! The worker is one `Server`: sessions, locks, the lease table
//! ([`crate::lease`]), replay cache and scheduler, with a method per step.
//! `run` turns CQ tokens into frames (`token_req`), routes them through the
//! scheduler (`enqueue`) and serves them (`serve_and_reap`). `serve_one` is
//! the one place a request is billed, checked against the replay cache and
//! the lease gate, and answered: `dispatch` decodes the op with `?`, does
//! the work, appends the reply body and says what is owed besides — a
//! follow-up after the reply, or no reply yet. A frame the lease gate parks
//! is served again from the top when its recall completes, so it is counted
//! in `stats.ops` and billed `cost.per_op` once per pass.
//!
//! Data paths:
//! * **inline** — payload travels in the message; the server pays a
//!   buffer-cache copy;
//! * **direct read** — the server RDMA-Writes file data straight into the
//!   client's advertised buffer, then sends a small completion response.
//!   The response is posted behind the data on the same reliable VI, whose
//!   in-order delivery is the fence. The write goes out in descriptors of
//!   at most an inline reply's size, and the worker sleeps through it only
//!   while the session has more RDMA bytes unsent than that
//!   (`Session::rdma_write`), so a small transfer queues on the NIC the way
//!   a small reply does and a large one holds the worker until only its
//!   last chunk is on the wire;
//!
//! The buffer cache is registered with the NIC, so a direct read costs the
//! server no per-byte CPU. A write is always inline: the modelled NIC, like
//! the paper's cLAN, has no RDMA Read, so the server never pulls from a
//! client's buffer, and a `WriteList` in direct mode is refused.
//!
//! The six data ops are one semantics at different access levels: each
//! decodes into a handle, a place for the bytes (the message, or for a
//! read the client's registered buffer) and a segment list, and runs
//! through `read_segs` or `write_segs`. A contiguous op is the one-segment
//! list `(off, len, 0)`; unlike a list segment that one may be empty, and
//! an empty inline write still reaches the filesystem once (it bumps the
//! file's version, which is on the wire). Only the reply encodings differ.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use memfs::{FileAttr, MemFs, NodeId, SetAttr};
use simnet::replay::ReplayCache;
use simnet::{ActorCtx, ByteMeter, Bytes, Counter, Host, Port, Rope, SimKernel, SimTime, VirtAddr};
use via::{
    Completion, Cq, CqToken, DataSegment, MemAttributes, MemHandle, RecvDesc, RemoteSegment,
    SendDesc, Vi, ViAttributes, ViId, ViState, ViaFabric, ViaNic, ViaStatus, WhichQueue,
};

use crate::cost::DafsServerCost;
use crate::lease::{Gate, LeaseTable, Parked};
use crate::proto::{self, DafsOp, DafsStatus, ListSeg};
use crate::sched::{self, QueuedReq, SchedPolicy, WfqSched};
use crate::wire::{Dec, Enc};

/// Message-buffer size for each session slot: inline_max plus header slack.
pub(crate) const SLOT: u64 = 66 << 10;
/// Server-granted credits per session.
pub(crate) const CREDITS: u32 = 8;
/// Largest inline payload the server accepts.
pub(crate) const INLINE_MAX: u64 = 32 << 10;

/// Observable server counters.
#[derive(Clone, Default)]
pub struct DafsServerStats {
    /// Requests served.
    pub ops: Counter,
    /// Inline READ traffic.
    pub inline_reads: ByteMeter,
    /// Inline WRITE traffic.
    pub inline_writes: ByteMeter,
    /// Direct (RDMA) READ traffic.
    pub direct_reads: ByteMeter,
    /// Sessions admitted.
    pub sessions: Counter,
}

/// Handle returned by [`spawn_dafs_server`].
pub struct DafsServerHandle {
    /// Server counters.
    pub stats: DafsServerStats,
    /// The server host (CPU meter).
    pub host: Host,
    /// The server NIC (wire utilization, registration stats).
    pub nic: ViaNic,
}

struct Session {
    vi: Vi,
    /// Receive buffers, in descriptor-post order (VIA consumes FIFO).
    recv_ring: VecDeque<(VirtAddr, MemHandle)>,
    /// Response send buffers, used round-robin.
    resp_ring: Vec<(VirtAddr, MemHandle)>,
    resp_next: usize,
    /// The send descriptors posted on `vi` and not yet reaped, oldest
    /// first: an RDMA Write's byte count, 0 for a reply. A
    /// VI completes its send queue in post order, so a reaped completion is
    /// always the head's.
    posted: VecDeque<u64>,
    /// The sum of `posted`: RDMA-Write bytes handed to the NIC whose
    /// completion has not been reaped.
    unsent: u64,
}

impl Session {
    /// Arm an accepted VI: `CREDITS` receive descriptors posted, and as
    /// many response slots.
    ///
    /// The buffers come from the server's boot-time pre-registered pool
    /// (NetApp-prototype style): no registration cost at session setup,
    /// just the binding to this session's protection tag.
    fn open(ctx: &ActorCtx, nic: &ViaNic, vi: Vi) -> Session {
        let tag = vi.ptag();
        let pooled = |len: u64| {
            let buf = nic.host().mem.alloc(len as usize);
            (
                buf,
                nic.register_mem_prepinned(buf, len, MemAttributes::local(tag)),
            )
        };
        let recv_ring: VecDeque<_> = (0..CREDITS).map(|_| pooled(SLOT)).collect();
        for &(buf, h) in &recv_ring {
            vi.post_recv(
                ctx,
                RecvDesc::new(vec![DataSegment::new(buf, SLOT as u32, h)]),
            );
        }
        let resp_ring = (0..CREDITS).map(|_| pooled(SLOT)).collect();
        Session {
            vi,
            recv_ring,
            resp_ring,
            resp_next: 0,
            posted: VecDeque::new(),
            unsent: 0,
        }
    }

    /// Post one send descriptor, `rdma_bytes` of it an RDMA Write.
    fn post(&mut self, ctx: &ActorCtx, desc: SendDesc, rdma_bytes: u64) {
        self.vi.post_send(ctx, desc);
        self.posted.push_back(rdma_bytes);
        self.unsent += rdma_bytes;
    }

    /// Match one reaped completion to the oldest posted descriptor; false
    /// if it completed in error.
    fn reaped(&mut self, c: Completion) -> bool {
        let head = self.posted.pop_front();
        debug_assert!(head.is_some(), "a send completion nothing was posted for");
        self.unsent -= head.unwrap_or(0);
        c.status.is_ok()
    }

    /// Reap the send completions that are already due, so the completion
    /// port stays bounded; false if one of them completed in error.
    fn reap_due(&mut self, ctx: &ActorCtx) -> bool {
        let mut ok = true;
        while let Some(c) = self.vi.send_done(ctx) {
            ok &= self.reaped(c);
        }
        ok
    }

    /// Sleep for the next send completion; false if it completed in error.
    fn reap_next(&mut self, ctx: &ActorCtx) -> bool {
        let c = self.vi.send_wait(ctx);
        self.reaped(c)
    }

    /// Send `resp` on the session's next response slot.
    ///
    /// The slot still describes the transfer (its registration is
    /// TPT-checked and its length drives every cost term), but the encoded
    /// reply rides as a zero-copy payload — the bounce through the slot's
    /// staging memory is skipped.
    fn respond(&mut self, ctx: &ActorCtx, resp: Bytes) {
        assert!(resp.len() as u64 <= SLOT, "response overflows session slot");
        let (buf, h) = self.resp_ring[self.resp_next];
        self.resp_next = (self.resp_next + 1) % self.resp_ring.len();
        let seg = DataSegment::new(buf, resp.len() as u32, h);
        self.post(ctx, SendDesc::send(vec![seg]).with_payload(resp), 0);
    }

    /// RDMA-write `data` into the client's buffer at `to`, one descriptor
    /// per [`INLINE_MAX`] chunk (the chunks pipeline on the wire). Each
    /// chunk rides as zero-copy views of the file pages: server pages →
    /// wire → client buffer, no staging bounce. A descriptor's one segment
    /// is `n` bytes of the session's first response slot: what the TPT
    /// checks and the NIC costs, as for a reply, while the slot's memory is
    /// never read.
    ///
    /// After a post the worker waits while the session has more than
    /// [`INLINE_MAX`] RDMA bytes in descriptors that have not completed.
    /// `unsent` falls only when a descriptor completes, by all of its
    /// bytes, so with chunks of that size the rule is: a transfer no larger
    /// than an inline reply is queued the way an inline reply of its size
    /// is — the worker goes on to the next request while the NIC sends —
    /// and a larger one holds the worker until only its last chunk is on
    /// the wire. That hold, all but one chunk of every large transfer, is
    /// the request scheduler's grip on the wire (X-6); the last chunk's
    /// wire time covers the worker posting the reply and serving the next
    /// request, so the outbound wire does not idle between transfers. The
    /// reply posted afterwards follows the data on the same reliable VI,
    /// whose in-order delivery is the fence; a chunk that fails, the last
    /// one included, breaks the VI, which refuses or flushes that reply.
    fn rdma_write(
        &mut self,
        ctx: &ActorCtx,
        data: &Rope,
        to: RemoteSegment,
    ) -> Result<(), DafsStatus> {
        let (sbuf, sh) = self.resp_ring[0];
        let mut sent = 0usize;
        while sent < data.len() {
            let n = (data.len() - sent).min(INLINE_MAX as usize);
            let desc = SendDesc::rdma_write(
                vec![DataSegment::new(sbuf, n as u32, sh)],
                RemoteSegment {
                    addr: to.addr.offset(sent as u64),
                    handle: to.handle,
                },
            );
            self.post(ctx, desc.with_payload(data.slice(sent..sent + n)), n as u64);
            while self.unsent > INLINE_MAX {
                if !self.reap_next(ctx) {
                    return Err(DafsStatus::XferError);
                }
            }
            sent += n;
        }
        Ok(())
    }
}

#[derive(Default)]
struct LockState {
    holder: Option<ViId>,
    waiters: VecDeque<(ViId, u32)>,
}

/// Start a DAFS server on `nic`'s host, exporting `fs` at `port`, with no
/// request scheduler: each frame is served on receipt, in completion order.
pub fn spawn_dafs_server(
    kernel: &SimKernel,
    fabric: &ViaFabric,
    nic: ViaNic,
    fs: MemFs,
    port: u16,
    cost: DafsServerCost,
) -> DafsServerHandle {
    spawn_dafs_server_sched(kernel, fabric, nic, fs, port, cost, SchedPolicy::Fifo)
}

/// [`spawn_dafs_server`] with an explicit request-scheduling policy sitting
/// between session receive and op dispatch (see [`crate::sched`]).
pub fn spawn_dafs_server_sched(
    kernel: &SimKernel,
    fabric: &ViaFabric,
    nic: ViaNic,
    fs: MemFs,
    port: u16,
    cost: DafsServerCost,
    policy: SchedPolicy,
) -> DafsServerHandle {
    let stats = DafsServerStats::default();
    let cq = Cq::new("dafs-cq");
    let new_sessions: Port<Session> = Port::new("dafs-new-sessions");
    let host = nic.host().clone();

    // Acceptor: admit sessions, arm their receive queues, hand them to the
    // worker. The listener is bound now, so a client that runs before the
    // acceptor's first turn finds it.
    {
        let listener = fabric.listen(&nic, port);
        let nic = nic.clone();
        let cq = cq.clone();
        let new_sessions = new_sessions.clone();
        let stats = stats.clone();
        kernel.spawn_daemon("dafs-acceptor", move |ctx| loop {
            let attrs = ViAttributes {
                recv_cq: Some(cq.clone()),
                ..Default::default()
            };
            let Some(vi) = listener.accept(ctx, attrs) else {
                break;
            };
            stats.sessions.inc();
            new_sessions.send(ctx, Session::open(ctx, &nic, vi), ctx.now());
        });
    }

    // Worker: drain the CQ and execute requests. Owns all session state.
    let mut server = Server {
        nic: nic.clone(),
        host: host.clone(),
        fs,
        cost,
        stats: stats.clone(),
        cq,
        new_sessions,
        sessions: HashMap::new(),
        retired: HashSet::new(),
        locks: BTreeMap::new(),
        leases: LeaseTable::default(),
        client_ids: HashMap::new(),
        // Keyed by the client id each Hello names, so a redialed session
        // finds its replies. Why `CREDITS` replies per client suffice,
        // whatever the other clients do: the client asks for an old reply
        // in one way — it posts a request its session lost again under the
        // same id (`DafsClient::deliver`, as the recovery plan in
        // `recover.rs` orders) — and its request table
        // (`simnet::reqtab`) keeps two rules over its batches and blocking
        // calls together. The window: no id is posted `CREDITS` or more past
        // the oldest one whose reply has not arrived. The lost rule: after a
        // break, no fresh id is posted until each lost one is posted again.
        // Say request `x` ran and its reply was lost, which broke the VI.
        // Every request inserts at most once — a replay hit inserts nothing
        // — so the replies inserted after `x`'s belong to requests that ran
        // after it: ones posted after it, and older ones the lease gate
        // parked. By the lost rule all were posted before the break, while
        // the oldest of them, `o`, held the window (its reply could not
        // arrive before the break: it follows `x`'s on an in-order VI). So
        // all lie within `CREDITS` ids of `o`, and at most `CREDITS − 1`
        // replies are inserted after `x`'s; the redial's `Hello` is not
        // cached. The client posts `x` again right behind that Hello, before
        // its reply, and two facts make the lookup find `x`'s reply all the
        // same: the server serves a VI's frames in arrival order, and a
        // Hello, a control op, bypasses the WFQ scheduler's queue — it
        // is served on arrival, ahead of anything behind it. So the Hello
        // has bound the new VI to the client id when `x` is served. A VI no
        // Hello has bound has no replay identity, and a request on it is
        // refused (`serve_one`): a refused Hello cannot let `x` run twice.
        // (The receive ring is the same window: `CREDITS` descriptors, and
        // one frame more would break the VI; the client keeps a fresh VI's
        // unanswered frames, its Hello included, within them — the plan's
        // exhaustive test checks it.) A dead
        // session's frames stop at its reap — the first one served after the
        // break triggers it — which drops the rest, queued
        // (`WfqSched::drop_session`) or parked
        // (`LeaseTable::drop_session`). A clean `Disconnect` ends the
        // client, and its entries go with it.
        replay: ReplayCache::new(CREDITS as usize),
        sched: match policy {
            SchedPolicy::Fifo => None,
            SchedPolicy::Wfq => Some(WfqSched::new(host.id)),
        },
        tenants: HashMap::new(),
    };
    kernel.spawn_daemon("dafs-worker", move |ctx| server.run(ctx));

    DafsServerHandle { stats, host, nic }
}

/// Whether an op's reply must be remembered for replay. Only ops whose
/// re-execution would be observable need caching: reads, lookups, and
/// flushes re-execute harmlessly, and Lock/Unlock must re-execute (the old
/// session's teardown released its locks, so a replayed Lock has to be
/// granted fresh). A direct read is not cached: a reply alone would not
/// say whether the dead VI's RDMA moved the bytes, so the client redoes a
/// lost one direct, under a fresh id on the new VI, and it re-executes and
/// moves them again — harmlessly, as a read changes nothing. Its
/// registration handle is still good — registrations live under the
/// session's protection tag, not the VI — and the NIC refuses any RDMA
/// still aimed at the old VI, which the client closes before it dials. A
/// write is always inline: re-posted under its own id, it is answered from
/// here if it already ran.
fn replay_cacheable(op: DafsOp) -> bool {
    matches!(
        op,
        DafsOp::SetAttr
            | DafsOp::Create
            | DafsOp::Remove
            | DafsOp::Mkdir
            | DafsOp::Rmdir
            | DafsOp::Rename
            | DafsOp::WriteInline
            | DafsOp::Append
            | DafsOp::WriteList
    )
}

/// A reply frame for request `reqid`, so far only its header.
fn reply_frame(reqid: u32, status: DafsStatus) -> Enc {
    let mut e = Enc::new();
    proto::enc_resp_header(&mut e, reqid, status);
    e
}

/// Decode the client buffer a direct op names: `(address, handle)`.
fn dec_remote(d: &mut Dec) -> Result<RemoteSegment, DafsStatus> {
    Ok(RemoteSegment {
        addr: VirtAddr(d.u64()?),
        handle: MemHandle(d.u64()?),
    })
}

/// Decode a list op's mode (the client buffer, if direct) and its segment
/// list, which must be well-formed.
fn dec_list(d: &mut Dec) -> Result<(Option<RemoteSegment>, Vec<ListSeg>), DafsStatus> {
    let remote = match d.u8()? {
        0 => None,
        _ => Some(dec_remote(d)?),
    };
    let segs = proto::dec_seg_list(d)?;
    if !proto::list_well_formed(&segs) {
        return Err(DafsStatus::Inval);
    }
    Ok((remote, segs))
}

/// Split a well-formed segment list into runs that are back-to-back in the
/// client buffer: a packed list is one run, a gapped layout one per
/// contiguous stretch. A direct transfer is one RDMA stream per run.
fn buffer_runs(segs: &[ListSeg]) -> impl Iterator<Item = &[ListSeg]> {
    segs.chunk_by(|a, b| a.2 + a.1 == b.2)
}

/// What `dispatch` leaves for `serve_one` to do once the op has run: send
/// the reply, and for three ops something that must follow it.
enum Outcome {
    Reply,
    /// `Unlock` freed this handle's lock: reply, then pass it on.
    ThenGrantNext(u64),
    /// `LeaseRecallAck`: reply, then serve the frames the ack released.
    ThenServe(Vec<Parked>),
    /// `Disconnect`: reply, then tear the session down.
    ThenTeardown,
    /// Nothing to send yet: a `Lock` queued behind its holder, answered by
    /// `grant_next` when the lock comes free.
    NoReplyYet,
}

/// The worker's state. Owned by the one `dafs-worker` actor.
struct Server {
    nic: ViaNic,
    host: Host,
    fs: MemFs,
    cost: DafsServerCost,
    stats: DafsServerStats,
    cq: Cq,
    new_sessions: Port<Session>,
    sessions: HashMap<ViId, Session>,
    /// Sessions torn down; a CQ token of theirs that surfaces later is stale.
    retired: HashSet<ViId>,
    /// Whole-file locks by handle (ordered: a dying holder's locks pass on
    /// in handle order).
    locks: BTreeMap<u64, LockState>,
    leases: LeaseTable,
    /// Stable client id (from Hello) per live session, and the replay cache
    /// that makes reconnect-replayed non-idempotent requests exactly-once.
    client_ids: HashMap<ViId, u64>,
    replay: ReplayCache,
    /// The WFQ scheduler, if the server runs one; without it each frame
    /// is served on receipt.
    sched: Option<WfqSched>,
    /// Tenant binding per live session, from its Hello: `(tenant, weight)`.
    /// Only a server with a scheduler binds one.
    tenants: HashMap<ViId, (u64, u32)>,
}

impl Server {
    fn run(&mut self, ctx: &ActorCtx) {
        while let Some(token) = self.cq.wait(ctx) {
            // Admit any sessions registered up to now.
            while let Some(s) = self.new_sessions.try_recv(ctx) {
                self.sessions.insert(s.vi.id(), s);
            }
            let vi = token.vi;
            let Some((req, at)) = self.token_req(ctx, token) else {
                continue;
            };
            self.enqueue(ctx, vi, req, at);
            // Dispatch until the scheduler runs dry. Completions that have
            // already arrived are drained first (poll charges no time) so
            // concurrent arrivals actually compete for dispatch order.
            while self.sched.as_ref().is_some_and(|s| !s.is_empty()) {
                while let Some(t) = self.cq.poll(ctx) {
                    let tvi = t.vi;
                    if let Some((r, rat)) = self.token_req(ctx, t) {
                        self.enqueue(ctx, tvi, r, rat);
                    }
                }
                let Some(q) = self.sched.as_mut().and_then(|s| s.pop(ctx)) else {
                    break;
                };
                if self.sessions.contains_key(&q.vi) {
                    self.serve_and_reap(ctx, q.vi, &q.frame);
                }
            }
        }
    }

    /// Turn one CQ token into its received frame plus the virtual instant
    /// the message was actually delivered (the completion's `at`, which can
    /// predate `ctx.now()` when the worker was busy serving), re-arming the
    /// consumed receive descriptor. `None` when the token carries nothing
    /// servable (send-side token, stale token of a retired session, failed
    /// or connection-lost completion — the last reaps the session).
    fn token_req(&mut self, ctx: &ActorCtx, token: CqToken) -> Option<(Bytes, SimTime)> {
        if token.queue != WhichQueue::Recv {
            return None;
        }
        let vi = token.vi;
        // A token can outrun its session's hand-off (the acceptor is still
        // registering buffers); wait for the hand-off — unless the token is
        // a stale leftover of a retired session.
        while !self.sessions.contains_key(&vi) {
            if self.retired.contains(&vi) {
                return None;
            }
            let s = self.new_sessions.recv(ctx)?;
            self.sessions.insert(s.vi.id(), s);
        }
        let sess = self.sessions.get_mut(&vi)?;
        // A send that failed has broken the VI (and told the peer): the
        // session is over, whatever arrived on it.
        let sent_ok = sess.reap_due(ctx);
        let completion = sess.vi.recv_done(ctx);
        let lost = completion
            .as_ref()
            .is_some_and(|c| c.status == ViaStatus::ConnectionLost);
        if lost || !sent_ok {
            self.reap(ctx, vi);
            return None;
        }
        let completion = completion?;
        if !completion.status.is_ok() {
            return None;
        }
        // The message landed in the oldest posted buffer; re-arm. The
        // completion carries a zero-copy view of the frame, which is what
        // is parsed: the buffer itself is never read, so the NIC's placement
        // never writes its pages. Only an RDMA Write with immediate, which
        // no client sends, completes without a frame.
        let (buf, h) = sess.recv_ring.pop_front().expect("descriptor ring");
        sess.vi.post_recv(
            ctx,
            RecvDesc::new(vec![DataSegment::new(buf, SLOT as u32, h)]),
        );
        sess.recv_ring.push_back((buf, h));
        Some((completion.payload?, completion.at))
    }

    /// Route one received frame: served on receipt without a scheduler,
    /// and so are control ops (Hello, Disconnect, LeaseRecallAck) with one
    /// — a recall ack parked behind a bulk backlog would wedge every frame
    /// blocked on that recall behind the very tenant being throttled.
    /// Everything else competes in the scheduler.
    fn enqueue(&mut self, ctx: &ActorCtx, vi: ViId, req: Bytes, arrival: SimTime) {
        let Some(wfq) = self.sched.as_mut().filter(|_| !sched::control_op(&req)) else {
            return self.serve_and_reap(ctx, vi, &req);
        };
        let (cost, small) = sched::classify(&req);
        let (tenant, weight) = self
            .tenants
            .get(&vi)
            .copied()
            .unwrap_or((sched::DEFAULT_TENANT, 1));
        wfq.push(
            ctx,
            QueuedReq {
                vi,
                tenant,
                weight,
                cost,
                small,
                arrival,
                frame: req,
            },
        );
    }

    /// Serve one frame; if the serve disconnected or broke the session (the
    /// reply is judged against the fault plan), reap it here so its locks
    /// never leak while the client redials.
    fn serve_and_reap(&mut self, ctx: &ActorCtx, vi: ViId, frame: &Bytes) {
        let disconnect = self.serve_one(ctx, vi, frame);
        let broke = self
            .sessions
            .get(&vi)
            .is_some_and(|s| s.vi.state() != ViState::Connected);
        if disconnect || broke {
            self.reap(ctx, vi);
        }
    }

    /// Reap a dead session: tear down its state, free what the acceptor
    /// allocated for it, drop its queued frames, pass on its locks, and
    /// serve any requests its leases were blocking.
    fn reap(&mut self, ctx: &ActorCtx, dead: ViId) {
        if let Some(s) = self.sessions.remove(&dead) {
            // The acceptor's slots go back to the boot-time pool they came
            // from: unbound at no cost, as they were bound.
            for (buf, h) in s.recv_ring.into_iter().chain(s.resp_ring) {
                self.nic
                    .table()
                    .deregister(h)
                    .expect("a session's registrations live as long as it does");
                self.host.mem.free(buf);
            }
        }
        self.retired.insert(dead);
        self.client_ids.remove(&dead);
        self.tenants.remove(&dead);
        if let Some(wfq) = &mut self.sched {
            wfq.drop_session(dead);
        }
        let mut freed = Vec::new();
        for (fh, st) in self.locks.iter_mut() {
            st.waiters.retain(|(w, _)| *w != dead);
            if st.holder == Some(dead) {
                st.holder = None;
                freed.push(*fh);
            }
        }
        for fh in freed {
            self.grant_next(ctx, fh);
        }
        let (held, released) = self.leases.drop_session(dead);
        for fh in held {
            ctx.metrics().counter("dafs.lease.reclaims").inc();
            ctx.trace("dafs", "lease.reclaim", &[("fh", obs::Value::U64(fh))]);
        }
        self.serve_released(ctx, released);
    }

    /// Serve, from the top, the frames a completed recall released.
    fn serve_released(&mut self, ctx: &ActorCtx, frames: Vec<Parked>) {
        for (vi, frame) in frames {
            if self.sessions.contains_key(&vi) {
                self.serve_one(ctx, vi, &frame);
            }
        }
    }

    /// Hand `fh`'s lock, just released, to the first waiter whose session
    /// is still there, answering its deferred `Lock`.
    fn grant_next(&mut self, ctx: &ActorCtx, fh: u64) {
        let Some(st) = self.locks.get_mut(&fh) else {
            return;
        };
        while let Some((next, reqid)) = st.waiters.pop_front() {
            if let Some(sess) = self.sessions.get_mut(&next) {
                st.holder = Some(next);
                sess.respond(ctx, reply_frame(reqid, DafsStatus::Ok).finish().into());
                return;
            }
        }
    }

    fn session(&mut self, vi: ViId) -> &mut Session {
        self.sessions.get_mut(&vi).expect("live session")
    }

    /// Execute one request; returns true if the session should be torn down.
    fn serve_one(&mut self, ctx: &ActorCtx, vi: ViId, req: &Bytes) -> bool {
        // Billed per pass, so a frame the lease gate parks is counted and
        // charged again when it is replayed. X-5's recall-storm rows and
        // `dafs.server.cpu_ns_per_op` include that; it stays.
        self.stats.ops.inc();
        self.host.compute(ctx, self.cost.per_op);

        // Only a frame shorter than a request header has no id to answer
        // under; it is dropped. An opcode that names no op is answered, so
        // its sender does not wait on its credit for ever.
        let mut d = Dec::new(req);
        let (Ok(reqid), Ok(code)) = (d.u32(), d.u8()) else {
            return false;
        };
        let Some(op) = DafsOp::from_u8(code) else {
            let refused = reply_frame(reqid, DafsStatus::NotSupported).finish();
            self.session(vi).respond(ctx, refused.into());
            return false;
        };

        // A VI no Hello has bound has no replay identity, so a request on
        // it could not be made exactly-once: it is refused, applies nothing
        // and caches nothing. (A client posts a redial's request right
        // behind its Hello; were the Hello refused, a re-posted write would
        // otherwise run again here.)
        if op != DafsOp::Hello && !self.client_ids.contains_key(&vi) {
            let refused = reply_frame(reqid, DafsStatus::Inval).finish();
            self.session(vi).respond(ctx, refused.into());
            return false;
        }

        // Replay short-circuit: a reconnected client re-sending a request we
        // already executed gets the original reply verbatim.
        let client = self
            .client_ids
            .get(&vi)
            .copied()
            .filter(|_| replay_cacheable(op));
        if let Some(cid) = client {
            if let Some(cached) = self.replay.get(cid, reqid).cloned() {
                ctx.metrics().counter("dafs.replay.hits").inc();
                ctx.trace(
                    "dafs",
                    "replay.hit",
                    &[
                        ("client", obs::Value::U64(cid)),
                        ("reqid", obs::Value::U64(reqid as u64)),
                    ],
                );
                self.session(vi).respond(ctx, cached);
                return false;
            }
        }

        // Lease coherence gate: ops that would observe or clobber a cached
        // client's data are deferred behind a recall of the conflicting
        // leases. Replay hits never reach here — an already-executed
        // mutation must not be gated twice. With no lease anywhere this is
        // one comparison: no clock, metric or trace.
        if !self.leases.is_empty() {
            if let Some((fh, mutating)) = self.lease_target(op, d.clone()) {
                if self.lease_gate(ctx, vi, fh, mutating, req) {
                    return false;
                }
            }
        }

        let mut e = reply_frame(reqid, DafsStatus::Ok);
        let outcome = match self.dispatch(ctx, vi, reqid, op, &mut d, &mut e) {
            Ok(Outcome::NoReplyYet) => return false,
            Ok(outcome) => outcome,
            Err(status) => {
                e = reply_frame(reqid, status);
                Outcome::Reply
            }
        };
        let reply = Bytes::from_vec(e.finish());
        if let Some(cid) = client {
            self.replay.insert(cid, reqid, reply.clone());
        }
        self.session(vi).respond(ctx, reply);
        match outcome {
            Outcome::ThenTeardown => return true,
            Outcome::ThenGrantNext(fh) => self.grant_next(ctx, fh),
            Outcome::ThenServe(frames) => self.serve_released(ctx, frames),
            Outcome::Reply | Outcome::NoReplyYet => {}
        }
        false
    }

    /// The file `op` must meet no conflicting lease on, and whether it
    /// changes that file. `body` is the decoder just past the header.
    fn lease_target(&self, op: DafsOp, mut body: Dec) -> Option<(u64, bool)> {
        match op {
            DafsOp::SetAttr | DafsOp::WriteInline | DafsOp::WriteList | DafsOp::Append => {
                Some((body.u64().ok()?, true))
            }
            DafsOp::GetAttr | DafsOp::ReadInline | DafsOp::ReadDirect | DafsOp::ReadList => {
                Some((body.u64().ok()?, false))
            }
            DafsOp::Remove => {
                // The wire names (dir, name); the conflict is on the child.
                let (dir, name) = (body.u64().ok()?, body.str().ok()?);
                Some((self.fs.lookup(NodeId(dir), &name).ok()?.id.0, true))
            }
            _ => None,
        }
    }

    /// Gate one request against the lease table, pushing the recall it
    /// starts. True when the request was parked — the caller must not
    /// reply; the frame is served again once every holder has flushed and
    /// acked. With no entry for `fh` this takes no virtual time and touches
    /// nothing observable.
    fn lease_gate(
        &mut self,
        ctx: &ActorCtx,
        vi: ViId,
        fh: u64,
        mutating: bool,
        req: &Bytes,
    ) -> bool {
        let (id, holders) = match self.leases.gate(fh, vi, mutating, req) {
            Gate::Pass => return false,
            Gate::Queued => return true,
            Gate::Recall { id, holders } => (id, holders),
        };
        let mut dead = Vec::new();
        for h in &holders {
            let Some(sess) = self.sessions.get_mut(h) else {
                dead.push(*h);
                continue;
            };
            sess.respond(ctx, proto::enc_recall_push(NodeId(fh), id).finish().into());
            // The push itself can break the session (crashed holder): a
            // dead holder can never ack, so waiting on it would wedge the
            // deferred request forever. Reclaim its lease on the spot.
            if sess.vi.state() == ViState::Connected {
                ctx.metrics().counter("dafs.lease.recalls_sent").inc();
            } else {
                ctx.metrics().counter("dafs.lease.reclaims").inc();
                dead.push(*h);
            }
        }
        if !self.leases.settle(fh, &dead) {
            return false; // every holder's session is already gone
        }
        let waiting = (holders.len() - dead.len()) as u64;
        ctx.trace(
            "dafs",
            "lease.recall",
            &[
                ("fh", obs::Value::U64(fh)),
                ("recall", obs::Value::U64(id as u64)),
                ("holders", obs::Value::U64(waiting)),
            ],
        );
        true
    }

    /// Decode and execute `op`, appending the reply body to `e` (which
    /// already holds the OK header). An error becomes the reply's status.
    fn dispatch(
        &mut self,
        ctx: &ActorCtx,
        vi: ViId,
        reqid: u32,
        op: DafsOp,
        d: &mut Dec,
        e: &mut Enc,
    ) -> Result<Outcome, DafsStatus> {
        match op {
            DafsOp::Hello => self.hello(ctx, vi, d, e)?,
            DafsOp::GetAttr => {
                let a = self.fs.getattr(NodeId(d.u64()?))?;
                proto::enc_attr(e, &a);
            }
            DafsOp::SetAttr => {
                let fh = NodeId(d.u64()?);
                let size = match d.u8()? {
                    0 => None,
                    _ => Some(d.u64()?),
                };
                let a = self.fs.setattr(fh, SetAttr { size })?;
                self.host.compute(ctx, self.cost.sync);
                proto::enc_attr(e, &a);
            }
            DafsOp::Lookup => {
                let (dir, name) = (NodeId(d.u64()?), d.str()?);
                proto::enc_attr(e, &self.fs.lookup(dir, &name)?);
            }
            DafsOp::Create | DafsOp::Mkdir => {
                let (dir, name) = (NodeId(d.u64()?), d.str()?);
                let a = match op {
                    DafsOp::Create => self.fs.create(dir, &name)?,
                    _ => self.fs.mkdir(dir, &name)?,
                };
                self.host.compute(ctx, self.cost.sync);
                proto::enc_attr(e, &a);
            }
            DafsOp::Remove | DafsOp::Rmdir => {
                let (dir, name) = (NodeId(d.u64()?), d.str()?);
                match op {
                    DafsOp::Remove => self.fs.remove(dir, &name)?,
                    _ => self.fs.rmdir(dir, &name)?,
                }
                self.host.compute(ctx, self.cost.sync);
            }
            DafsOp::Rename => {
                let (from, name) = (NodeId(d.u64()?), d.str()?);
                let (to, to_name) = (NodeId(d.u64()?), d.str()?);
                self.fs.rename(from, &name, to, &to_name)?;
                self.host.compute(ctx, self.cost.sync);
            }
            DafsOp::ReadDir => {
                let dir = NodeId(d.u64()?);
                // Encode entries straight off the directory map, borrowed
                // under the filesystem lock — no per-call Vec<(String, NodeId)>.
                let mut n = 0u32;
                let mut body = Enc::new();
                self.fs.with_readdir(dir, |name, id| {
                    body.u64(id.0);
                    body.str(name);
                    n += 1;
                })?;
                e.u32(n);
                e.raw(&body.finish());
            }
            DafsOp::ReadInline => {
                let (fh, off, len) = (NodeId(d.u64()?), d.u64()?, d.u64()?);
                let (_, data) = self.read_segs(ctx, vi, fh, None, &[(off, len, 0)])?;
                e.rope(&data);
            }
            DafsOp::ReadDirect => {
                let (fh, off, len) = (NodeId(d.u64()?), d.u64()?, d.u64()?);
                let to = dec_remote(d)?;
                let (counts, _) = self.read_segs(ctx, vi, fh, Some(to), &[(off, len, 0)])?;
                e.u64(counts[0]);
            }
            DafsOp::ReadList => {
                let fh = NodeId(d.u64()?);
                let (to, segs) = dec_list(d)?;
                let (counts, data) = self.read_segs(ctx, vi, fh, to, &segs)?;
                e.u32(counts.len() as u32);
                for c in &counts {
                    e.u64(*c);
                }
                if to.is_none() {
                    e.rope(&data);
                }
            }
            DafsOp::WriteInline => {
                let (fh, off, data) = (NodeId(d.u64()?), d.u64()?, d.bytes()?);
                let seg = (off, data.len() as u64, 0);
                let a = self.write_segs(ctx, fh, data, &[seg])?;
                proto::enc_attr(e, &a);
            }
            DafsOp::Append => {
                let (fh, data) = (NodeId(d.u64()?), d.bytes()?);
                // Size probe + write is atomic because this one worker
                // serves every request; nothing else writes in between.
                let at = self.fs.getattr(fh)?.size;
                let seg = (at, data.len() as u64, 0);
                let a = self.write_segs(ctx, fh, data, &[seg])?;
                e.u64(at);
                proto::enc_attr(e, &a);
            }
            DafsOp::WriteList => {
                let fh = NodeId(d.u64()?);
                // Direct mode would have the server pull the bytes by RDMA
                // Read: refused before anything moves.
                let (None, segs) = dec_list(d)? else {
                    return Err(DafsStatus::Inval);
                };
                let a = self.write_segs(ctx, fh, d.bytes()?, &segs)?;
                proto::enc_attr(e, &a);
            }
            DafsOp::Flush => {
                let _fh = d.u64()?;
                self.host.compute(ctx, self.cost.sync);
            }
            DafsOp::Lock => {
                let st = self.locks.entry(d.u64()?).or_default();
                if st.holder.is_some() {
                    st.waiters.push_back((vi, reqid));
                    return Ok(Outcome::NoReplyYet);
                }
                st.holder = Some(vi);
            }
            DafsOp::Unlock => {
                let fh = d.u64()?;
                if let Some(st) = self.locks.get_mut(&fh) {
                    if st.holder == Some(vi) {
                        st.holder = None;
                        return Ok(Outcome::ThenGrantNext(fh));
                    }
                }
            }
            DafsOp::Disconnect => {
                if let Some(cid) = self.client_ids.get(&vi) {
                    self.replay.forget(*cid);
                }
                return Ok(Outcome::ThenTeardown);
            }
            DafsOp::LeaseGrant => {
                // Not replay-cacheable: leases are per-session state, and a
                // reconnected client starts cold (revalidate-on-reconnect),
                // so replaying a stale grant would resurrect a dead lease.
                let fh = NodeId(d.u64()?);
                let kind = proto::LeaseKind::from_u8(d.u8()?).ok_or(DafsStatus::Inval)?;
                let a = self.fs.getattr(fh)?;
                let granted = self.leases.grant(fh.0, vi, kind);
                let counter = match granted {
                    true => "dafs.lease.grants",
                    false => "dafs.lease.denials",
                };
                ctx.metrics().counter(counter).inc();
                e.u8(granted as u8);
                // The attr rides along so a granted client seeds its
                // attribute cache atomically with the lease.
                proto::enc_attr(e, &a);
            }
            // Server-to-client push marker only; never a valid request.
            DafsOp::LeaseRecall => return Err(DafsStatus::Inval),
            DafsOp::LeaseRecallAck => {
                // Replay-idempotent by construction: re-dropping an absent
                // lease is a no-op, so a reconnect-replayed ack is harmless.
                let (fh, _recall_id) = (d.u64()?, d.u32()?);
                return Ok(Outcome::ThenServe(self.leases.drop_holder(fh, vi)));
            }
        }
        Ok(Outcome::Reply)
    }

    /// Session setup: bind the client's identities, reply the capabilities.
    /// The body starts with the client's stable id, its replay identity
    /// across redials; a body too short to hold one is refused and binds
    /// nothing.
    fn hello(
        &mut self,
        ctx: &ActorCtx,
        vi: ViId,
        d: &mut Dec,
        e: &mut Enc,
    ) -> Result<(), DafsStatus> {
        self.client_ids.insert(vi, d.u64()?);
        // Optional QoS extension, present only when the client declared a
        // tenant: `(tenant id u64, weight u32)`. A Hello without a tenant
        // ends at the client id, so decoding simply stops there and the
        // reply is unchanged. A server without a scheduler ignores it.
        let mut credits = CREDITS;
        if let (Some(_), Ok(tenant)) = (&self.sched, d.u64()) {
            let weight = d.u32().unwrap_or(1).max(1);
            self.tenants.insert(vi, (tenant, weight));
            // Credit-window backpressure: an under-weight tenant's
            // advertised window shrinks in proportion to the largest
            // declared weight, so its excess load queues at the client
            // instead of unboundedly in the scheduler.
            let max_w = self.tenants.values().map(|&(_, w)| w).max();
            let scaled = (CREDITS as u64 * weight as u64) / max_w.unwrap_or(1) as u64;
            credits = scaled.clamp(2, CREDITS as u64) as u32;
            if credits < CREDITS {
                let labels = sched::tenant_labels(self.host.id, tenant);
                ctx.metrics()
                    .counter_at("dafs.sched.throttles", labels)
                    .inc();
            }
        }
        // A byte once said whether the NIC had RDMA Read; it is always 0.
        // Dropping it shortens every Hello's reply on the wire, which moves
        // R-F8's lossy row and R-F10's queueing cells.
        e.u8(0);
        e.u32(credits);
        e.u64(INLINE_MAX);
        Ok(())
    }

    /// The read executor: gather `segs` of `fh` and deliver them inline
    /// (`to` is `None`; the bytes come back for the reply, in list order)
    /// or by RDMA Write into the client buffer `to`, one stream per run.
    /// Returns the bytes read per segment: sorted lists mean a short
    /// segment (EOF) empties every later one, so what is gathered is a
    /// dense prefix of each run.
    fn read_segs(
        &mut self,
        ctx: &ActorCtx,
        vi: ViId,
        fh: NodeId,
        to: Option<RemoteSegment>,
        segs: &[ListSeg],
    ) -> Result<(Vec<u64>, Rope), DafsStatus> {
        if to.is_none() && segs.iter().map(|s| s.1).sum::<u64>() > INLINE_MAX {
            return Err(DafsStatus::Inval);
        }
        let mut counts = Vec::with_capacity(segs.len());
        let mut reply = Rope::new();
        let mut moved = 0u64;
        for run in buffer_runs(segs) {
            // Views of the file pages, back-to-back in the client buffer.
            let mut data = Rope::new();
            for &(off, len, _) in run {
                let seg = self.fs.read_views(fh, off, len)?;
                counts.push(seg.len() as u64);
                data.append(seg);
            }
            moved += data.len() as u64;
            match to {
                None => reply.append(data),
                Some(to) => {
                    let to = RemoteSegment {
                        addr: to.addr.offset(run[0].2),
                        handle: to.handle,
                    };
                    self.session(vi).rdma_write(ctx, &data, to)?;
                }
            }
        }
        let meter = match to {
            None => {
                // Buffer-cache copy into the response message. A direct
                // transfer DMAs from the registered cache pages instead.
                self.host.copy(ctx, moved);
                &self.stats.inline_reads
            }
            Some(_) => &self.stats.direct_reads,
        };
        meter.record(moved);
        Ok((counts, reply))
    }

    /// The write executor: put the request message's bytes, every segment
    /// back-to-back in list order, into `segs` of `fh` and return the
    /// file's attributes afterwards. A range that passes the last file
    /// offset is refused before anything moves.
    fn write_segs(
        &mut self,
        ctx: &ActorCtx,
        fh: NodeId,
        data: Bytes,
        segs: &[ListSeg],
    ) -> Result<FileAttr, DafsStatus> {
        let mut total = 0u64;
        for &(off, len, _) in segs {
            off.checked_add(len).ok_or(DafsStatus::Inval)?;
            total += len;
        }
        if data.len() as u64 != total || total > INLINE_MAX {
            return Err(DafsStatus::Inval);
        }
        // Buffer-cache copy out of the request message. It is modelled
        // here; memfs adopts the frame's whole pages as they lie.
        self.host.copy(ctx, total);
        let mut pos = 0usize;
        for &(off, len, _) in segs {
            self.fs
                .write_bytes(fh, off, &data.slice(pos..pos + len as usize))?;
            pos += len as usize;
        }
        self.stats.inline_writes.record(total);
        Ok(self.fs.getattr(fh)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simnet::{Cluster, FaultPlan, HostId, SimDuration};
    use std::sync::Arc;
    use via::ViaCost;

    const KIB: usize = 1 << 10;

    /// One VI, under `faults` if given (the server is host 0, the client
    /// host 1), between a bare server `Session` and a client that
    /// registered `target` bytes as an RDMA Write target and posted
    /// `replies` receives. `server` runs once the client's first message
    /// says the target is registered, with the target's segment; `client`
    /// runs after that message is sent, with its VI and the target's
    /// address.
    fn with_session(
        faults: Option<FaultPlan>,
        target: usize,
        replies: usize,
        server: impl FnOnce(&ActorCtx, &mut Session, RemoteSegment) + Send + 'static,
        client: impl FnOnce(&ActorCtx, &Vi, &ViaNic, VirtAddr) + Send + 'static,
    ) {
        let kernel = SimKernel::new();
        let cluster = Cluster::new();
        let fabric = ViaFabric::new(ViaCost::default());
        if let Some(plan) = faults {
            fabric.set_fault_plan(plan);
        }
        let snic = fabric.open_nic(cluster.add_host("server"));
        let cnic = fabric.open_nic(cluster.add_host("client"));
        let server_host = snic.host().id;
        let published: Arc<Mutex<Option<RemoteSegment>>> = Arc::new(Mutex::new(None));
        {
            let (listener, published) = (fabric.listen(&snic, 7), published.clone());
            // Not a daemon: the run ends only once `server` has returned.
            kernel.spawn("server", move |ctx| {
                let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
                let mut sess = Session::open(ctx, &snic, vi);
                // The client's first message says its buffer is registered.
                assert!(sess.vi.recv_wait(ctx).status.is_ok());
                let to = published.lock().expect("published before the message");
                server(ctx, &mut sess, to);
            });
        }
        kernel.spawn("client", move |ctx| {
            let vi = fabric
                .connect(ctx, &cnic, server_host, 7, ViAttributes::default())
                .unwrap();
            let mem = &cnic.host().mem;
            let tag = vi.ptag();
            let dst = mem.alloc(target);
            let dh = cnic.register_mem(
                ctx,
                dst,
                target as u64,
                MemAttributes::rdma_write_target(tag),
            );
            let msg = mem.alloc(SLOT as usize);
            let mh = cnic.register_mem(ctx, msg, SLOT, MemAttributes::local(tag));
            for _ in 0..replies {
                vi.post_recv(
                    ctx,
                    RecvDesc::new(vec![DataSegment::new(msg, SLOT as u32, mh)]),
                );
            }
            *published.lock() = Some(RemoteSegment {
                addr: dst,
                handle: dh,
            });
            vi.post_send(ctx, SendDesc::send(vec![DataSegment::new(msg, 8, mh)]));
            client(ctx, &vi, &cnic, dst);
        });
        kernel.run();
    }

    /// A 128 KiB direct read returns the worker with exactly its last
    /// `INLINE_MAX` chunk in flight: four descriptors posted, the first
    /// three reaped, the fourth still on the wire and its bytes the whole
    /// unsent count.
    #[test]
    fn a_large_read_leaves_one_chunk_in_flight() {
        const N: usize = 128 * KIB;
        with_session(
            None,
            N,
            0,
            |ctx, sess, to| {
                let data = Rope::from(Bytes::from_vec(vec![7; N]));
                assert_eq!(sess.rdma_write(ctx, &data, to), Ok(()));
                assert_eq!(sess.posted, [INLINE_MAX]);
                assert_eq!(sess.unsent, INLINE_MAX);
                assert!(sess.reap_next(ctx));
                assert_eq!(sess.unsent, 0);
            },
            |_, _, _, _| {},
        );
    }

    /// The path a lost last chunk takes now that the worker does not wait
    /// for it: the link goes down between the third and the fourth chunk of
    /// a 128 KiB read, so `rdma_write` returns `Ok` with the fourth, lost,
    /// still posted; the VI broke as it was posted, so the reply behind it
    /// is refused and both complete in error. The client gets no reply,
    /// only the broken connection, with the first three chunks landed and
    /// the fourth not — the error its recovery redoes direct, under a
    /// fresh id on the new VI.
    #[test]
    fn a_failed_last_chunk_refuses_the_reply() {
        const N: usize = 128 * KIB;
        // Chunks go out at `START` (two) and then one per chunk's wire
        // time, ≈ 298 µs at the default 110 MB/s: the third at ≈ +298 µs,
        // the fourth at ≈ +596 µs.
        const START: SimTime = SimTime(10_000_000);
        let down = START + SimDuration::from_micros(450);
        let plan = FaultPlan::builder(1)
            .link_down(HostId(0), HostId(1), down, down + SimDuration::from_secs(1))
            .build();
        with_session(
            Some(plan),
            N,
            1,
            |ctx, sess, to| {
                assert!(ctx.now() < START, "setup ran past {START}");
                ctx.sleep_until(START);
                let data = Rope::from(Bytes::from_vec(vec![7; N]));
                assert_eq!(sess.rdma_write(ctx, &data, to), Ok(()));
                assert_eq!(sess.posted, [INLINE_MAX]);
                assert_ne!(sess.vi.state(), ViState::Connected);
                sess.respond(ctx, Bytes::from_vec(vec![1]));
                assert!(!sess.reap_next(ctx));
                assert!(!sess.reap_next(ctx));
                assert!(sess.posted.is_empty());
                assert_eq!(sess.unsent, 0);
            },
            |ctx, vi, nic, dst| {
                let reply = vi.recv_wait(ctx);
                assert_eq!(reply.status, ViaStatus::ConnectionLost);
                let landed = nic.host().mem.read_vec(dst, N);
                let last = N - INLINE_MAX as usize;
                assert!(landed[..last].iter().all(|b| *b == 7));
                assert!(landed[last..].iter().all(|b| *b == 0));
            },
        );
    }

    /// What the worker does for a batch of direct reads, on a bare
    /// `Session`: more transfers than the credit window, 1 KiB to 256 KiB
    /// in no order, each an RDMA Write and then its reply. Every reaped
    /// completion matches the oldest posted descriptor (`reaped`
    /// `debug_assert`s one completion per post); no posted RDMA Write is
    /// larger than `INLINE_MAX`, and a transfer's last chunk is still in
    /// flight when the worker gets it back; after a transfer the session
    /// never has more than `INLINE_MAX` RDMA bytes unsent; a reply in the
    /// client's hand means its data is; and at the end the FIFO is empty
    /// and the unsent count is back at 0.
    #[test]
    fn mixed_direct_reads_drain_the_send_fifo() {
        const SIZES: [usize; 12] = [1, 256, 4, 32, 64, 2, 128, 16, 33, 8, 256, 1];
        assert!(SIZES.len() > CREDITS as usize);
        let total: usize = SIZES.iter().sum::<usize>() * KIB;
        with_session(
            None,
            total,
            SIZES.len(),
            |ctx, sess, to| {
                let mut at = 0u64;
                for (i, kib) in SIZES.into_iter().enumerate() {
                    let n = kib * KIB;
                    sess.reap_due(ctx);
                    let data = Rope::from(Bytes::from_vec(vec![i as u8 + 1; n]));
                    let to = RemoteSegment {
                        addr: to.addr.offset(at),
                        handle: to.handle,
                    };
                    assert_eq!(sess.rdma_write(ctx, &data, to), Ok(()));
                    assert!(
                        sess.posted.iter().all(|&b| b <= INLINE_MAX),
                        "a descriptor over INLINE_MAX after {kib}K"
                    );
                    let last = (n as u64 - 1) % INLINE_MAX + 1;
                    assert_eq!(sess.posted.back(), Some(&last), "the last chunk of {kib}K");
                    assert!(
                        sess.unsent <= INLINE_MAX,
                        "{} unsent after {kib}K",
                        sess.unsent
                    );
                    assert_eq!(sess.unsent, sess.posted.iter().sum::<u64>());
                    sess.respond(ctx, Bytes::from_vec(vec![i as u8]));
                    at += n as u64;
                }
                while !sess.posted.is_empty() {
                    assert!(sess.reap_next(ctx));
                }
                assert_eq!(sess.unsent, 0);
                assert!(
                    sess.vi.send_done(ctx).is_none(),
                    "a completion nothing matched"
                );
            },
            |ctx, vi, nic, dst| {
                let mut at = 0u64;
                for (i, kib) in SIZES.into_iter().enumerate() {
                    let reply = vi.recv_wait(ctx);
                    assert!(reply.status.is_ok());
                    assert_eq!(
                        reply.payload.expect("reply")[..],
                        [i as u8],
                        "replies in order"
                    );
                    let n = kib * KIB;
                    let landed = nic.host().mem.read_vec(dst.offset(at), n);
                    assert!(
                        landed.iter().all(|b| *b == i as u8 + 1),
                        "transfer {i} behind its reply"
                    );
                    at += n as u64;
                }
            },
        );
    }
}
