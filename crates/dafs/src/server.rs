//! The DAFS server: a CQ-driven event loop over per-session VIs.
//!
//! Shape of the real thing: an acceptor admits sessions (one VI each,
//! receive queues bound to one shared completion queue, `credits` receive
//! descriptors pre-posted into registered session buffers), and a single
//! worker drains the CQ, executing requests against the shared [`MemFs`].
//! New sessions reach the worker through a timed port, so the worker owns
//! all session state — no lock is ever held across a virtual-time yield.
//!
//! Data paths:
//! * **inline** — payload travels in the message; the server pays a
//!   buffer-cache copy;
//! * **direct read** — the server RDMA-Writes file data straight into the
//!   client's advertised buffer, then sends a small completion response;
//! * **direct write** — the server RDMA-Reads from the client's buffer
//!   (only if the NIC supports RDMA Read; otherwise the op is rejected and
//!   the client falls back to inline).
//!
//! With `registered_buffer_cache` (the NetApp-prototype configuration) the
//! server pays no per-byte CPU on direct transfers at all.

use std::collections::{BTreeMap, HashMap, VecDeque};

use memfs::{MemFs, NodeId, SetAttr};
use simnet::{ActorCtx, ByteMeter, Bytes, Counter, Host, Port, Rope, SimKernel, SimTime, VirtAddr};
use via::{
    Cq, DataSegment, MemAttributes, MemHandle, RecvDesc, RemoteSegment, SendDesc, Vi, ViAttributes,
    ViId, ViState, ViaFabric, ViaNic, ViaStatus, WhichQueue,
};

use crate::cost::DafsServerCost;
use crate::proto::{self, DafsOp, DafsStatus};
use crate::sched::{self, QueuedReq, RequestSched, SchedPolicy};
use crate::wire::{Dec, Enc};

/// Message-buffer size for each session slot: inline_max plus header slack.
pub(crate) const SLOT: u64 = 66 << 10;
/// Server staging area per session for direct transfers; larger transfers
/// are chunked through it (the chunks pipeline on the wire).
const STAGING: u64 = 4 << 20;
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
    /// Direct (RDMA) WRITE traffic.
    pub direct_writes: ByteMeter,
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
    /// Staging buffer for direct transfers.
    staging: (VirtAddr, MemHandle),
}

#[derive(Default)]
struct LockState {
    holder: Option<ViId>,
    waiters: VecDeque<(ViId, u32)>,
}

/// Lease table entry for one file handle. Grant rules keep the holder set
/// homogeneous: either any number of read holders or exactly one write-back
/// holder, never a mix.
#[derive(Default)]
struct LeaseState {
    /// Holder sessions in grant order (recall fan-out is deterministic).
    holders: Vec<(ViId, proto::LeaseKind)>,
    /// In-flight recall, if a conflicting request is waiting.
    recall: Option<RecallState>,
}

/// A recall in progress: every holder has been pushed a [`proto::enc_recall_push`]
/// frame and the conflicting requests sit in `blocked` until the last
/// holder flushes and acks (or dies — session teardown counts as an ack).
/// The wire recall id is not kept here: dropping a holder is idempotent, so
/// an ack from any round retires that holder's pending entry.
struct RecallState {
    /// Holders whose flush-and-ack is still outstanding.
    pending: Vec<ViId>,
    /// Request frames (views, not copies) deferred until the recall
    /// completes, replayed through `serve_one` in arrival order.
    blocked: Vec<(ViId, Bytes)>,
}

/// High-half base for synthetic client ids handed to legacy (cid-less)
/// Hellos; real client ids are VI ids (small integers), so the two ranges
/// never collide.
const LEGACY_CID_BASE: u64 = 1 << 63;

/// Per-worker QoS state: the pluggable dispatch scheduler plus the tenant
/// bindings the `Hello` handler feeds it.
struct QosState {
    /// Dispatch-order policy (FIFO by default; WFQ when configured).
    sched: Box<dyn RequestSched>,
    /// Tenant binding per live session: `(tenant id, weight)`.
    tenants: HashMap<ViId, (u64, u32)>,
    /// Allocator for synthetic client ids handed to legacy Hellos, so two
    /// cid-less clients never share a replay-cache identity.
    next_legacy_cid: u64,
}

/// Start a DAFS server on `nic`'s host, exporting `fs` at `port`, with
/// the historical FIFO dispatch order.
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
    // worker.
    {
        let fabric = fabric.clone();
        let nic = nic.clone();
        let cq = cq.clone();
        let new_sessions = new_sessions.clone();
        let stats = stats.clone();
        kernel.spawn_daemon("dafs-acceptor", move |ctx| {
            let listener = fabric.listen(&nic, port);
            loop {
                let attrs = ViAttributes {
                    recv_cq: Some(cq.clone()),
                    ..Default::default()
                };
                let Some(vi) = listener.accept(ctx, attrs) else {
                    break;
                };
                stats.sessions.inc();
                let tag = vi.ptag();
                // Session buffers come from the server's boot-time
                // pre-registered pool (NetApp-prototype style): no
                // registration cost at session setup, just the binding to
                // this session's protection tag.
                let mut recv_ring = VecDeque::new();
                for _ in 0..CREDITS {
                    let buf = nic.host().mem.alloc(SLOT as usize);
                    let h = nic.register_mem_prepinned(buf, SLOT, MemAttributes::local(tag));
                    vi.post_recv(
                        ctx,
                        RecvDesc::new(vec![DataSegment::new(buf, SLOT as u32, h)]),
                    );
                    recv_ring.push_back((buf, h));
                }
                let mut resp_ring = Vec::new();
                for _ in 0..CREDITS {
                    let buf = nic.host().mem.alloc(SLOT as usize);
                    let h = nic.register_mem_prepinned(buf, SLOT, MemAttributes::local(tag));
                    resp_ring.push((buf, h));
                }
                let sbuf = nic.host().mem.alloc(STAGING as usize);
                let sh = nic.register_mem_prepinned(sbuf, STAGING, MemAttributes::local(tag));
                new_sessions.send(
                    ctx,
                    Session {
                        vi,
                        recv_ring,
                        resp_ring,
                        resp_next: 0,
                        staging: (sbuf, sh),
                    },
                    ctx.now(),
                );
            }
        });
    }

    // Worker: drain the CQ and execute requests. Owns all session state.
    {
        let nic = nic.clone();
        let stats = stats.clone();
        let host = host.clone();
        kernel.spawn_daemon("dafs-worker", move |ctx| {
            let mut sessions: HashMap<ViId, Session> = HashMap::new();
            let mut retired: std::collections::HashSet<ViId> = std::collections::HashSet::new();
            let mut locks: HashMap<u64, LockState> = HashMap::new();
            // Lease table (BTreeMap: teardown sweeps it in handle order so
            // unblocking deferred writers is deterministic).
            let mut leases: BTreeMap<u64, LeaseState> = BTreeMap::new();
            let mut next_recall_id: u32 = 1;
            // Stable client id (from Hello) per live session, and the
            // replay cache that makes reconnect-replayed non-idempotent
            // requests exactly-once.
            let mut client_ids: HashMap<ViId, u64> = HashMap::new();
            let mut replay = ReplayCache::new(REPLAY_CAPACITY);
            let mut qos = QosState {
                sched: match policy {
                    SchedPolicy::Fifo => Box::new(sched::FifoSched::new()),
                    SchedPolicy::Wfq(p) => Box::new(sched::WfqSched::new(p)),
                },
                tenants: HashMap::new(),
                next_legacy_cid: 0,
            };
            let wfq = qos.sched.reorders();

            // Reap a dead session: tear down its state, drop its queued
            // frames, and replay any requests its leases were blocking.
            macro_rules! reap {
                ($vi:expr) => {{
                    let dead = $vi;
                    sessions.remove(&dead);
                    retired.insert(dead);
                    client_ids.remove(&dead);
                    qos.tenants.remove(&dead);
                    qos.sched.drop_session(dead);
                    release_locks_of(ctx, &mut sessions, &mut locks, dead);
                    let frames = release_leases_of(ctx, &mut leases, dead);
                    for (bvi, frame) in frames {
                        if sessions.contains_key(&bvi) {
                            serve_one(
                                ctx,
                                &nic,
                                &host,
                                &fs,
                                &cost,
                                &stats,
                                &mut sessions,
                                bvi,
                                &mut locks,
                                &mut leases,
                                &mut next_recall_id,
                                &mut client_ids,
                                &mut replay,
                                &mut qos,
                                &frame,
                            );
                        }
                    }
                }};
            }

            // Serve one frame; if the serve disconnected or broke the
            // session (the reply is judged against the fault plan), reap it
            // here so its locks never leak while the client redials.
            macro_rules! serve_and_reap {
                ($vi:expr, $frame:expr) => {{
                    let svi = $vi;
                    let disconnect = serve_one(
                        ctx,
                        &nic,
                        &host,
                        &fs,
                        &cost,
                        &stats,
                        &mut sessions,
                        svi,
                        &mut locks,
                        &mut leases,
                        &mut next_recall_id,
                        &mut client_ids,
                        &mut replay,
                        &mut qos,
                        $frame,
                    );
                    let broke = sessions
                        .get(&svi)
                        .is_some_and(|s| s.vi.state() != ViState::Connected);
                    if disconnect || broke {
                        reap!(svi);
                    }
                }};
            }

            // Turn one CQ token into its received frame plus the virtual
            // instant the message was actually delivered (the completion's
            // `at`, which can predate `ctx.now()` when the worker was busy
            // serving), re-arming the consumed receive descriptor. Yields
            // `None` when the token carries nothing servable (send-side
            // token, stale token of a retired session, failed or
            // connection-lost completion).
            macro_rules! token_req {
                ($token:expr) => {{
                    let token = $token;
                    let vi_id = token.vi;
                    let mut out: Option<(Bytes, SimTime)> = None;
                    'tok: {
                        if token.queue != WhichQueue::Recv {
                            break 'tok;
                        }
                        // A token can outrun its session's hand-off (the
                        // acceptor is still registering buffers); wait for
                        // the hand-off — unless the token is a stale
                        // leftover of a retired session.
                        while !sessions.contains_key(&vi_id) {
                            if retired.contains(&vi_id) {
                                break 'tok;
                            }
                            match new_sessions.recv(ctx) {
                                Some(s) => {
                                    sessions.insert(s.vi.id(), s);
                                }
                                None => break 'tok,
                            }
                        }
                        let Some(sess) = sessions.get_mut(&vi_id) else {
                            break 'tok; // already torn down
                        };
                        // Drain old send completions so ports stay bounded.
                        while sess.vi.send_done(ctx).is_some() {}
                        let Some(completion) = sess.vi.recv_done(ctx) else {
                            break 'tok;
                        };
                        if completion.status == ViaStatus::ConnectionLost {
                            reap!(vi_id);
                            break 'tok;
                        }
                        if !completion.status.is_ok() {
                            break 'tok;
                        }
                        // The message landed in the oldest posted buffer;
                        // re-arm. The completion carries a zero-copy view of
                        // the frame, so parsing does not re-read the posted
                        // buffer.
                        let (buf, h) = sess.recv_ring.pop_front().expect("descriptor ring");
                        let len = completion.len as usize;
                        let req = completion
                            .payload
                            .unwrap_or_else(|| nic.host().mem.read_bytes(buf, len));
                        sess.vi.post_recv(
                            ctx,
                            RecvDesc::new(vec![DataSegment::new(buf, SLOT as u32, h)]),
                        );
                        sess.recv_ring.push_back((buf, h));
                        out = Some((req, completion.at));
                    }
                    out
                }};
            }

            // Route one received frame. Under a reordering policy, control
            // ops (Hello, Disconnect, LeaseRecallAck) bypass the queue — a
            // recall ack parked behind a bulk backlog would wedge every
            // frame blocked on that recall behind the very tenant being
            // throttled. Everything else competes in the scheduler.
            macro_rules! enqueue {
                ($vi:expr, $req:expr, $arrival:expr) => {{
                    let evi = $vi;
                    let req = $req;
                    if wfq && sched::control_op(&req) {
                        serve_and_reap!(evi, &req);
                    } else {
                        let (cost_bytes, small) = sched::classify(&req);
                        let (tenant, weight) = qos
                            .tenants
                            .get(&evi)
                            .copied()
                            .unwrap_or((sched::DEFAULT_TENANT, 1));
                        qos.sched.push(
                            ctx,
                            QueuedReq {
                                vi: evi,
                                tenant,
                                weight,
                                cost: cost_bytes,
                                small,
                                arrival: $arrival,
                                frame: req,
                            },
                        );
                    }
                }};
            }

            while let Some(token) = cq.wait(ctx) {
                // Admit any sessions registered up to now.
                while let Some(s) = new_sessions.try_recv(ctx) {
                    sessions.insert(s.vi.id(), s);
                }
                let vi_id = token.vi;
                let Some((req, at)) = token_req!(token) else {
                    continue;
                };
                enqueue!(vi_id, req, at);
                // Dispatch until the scheduler runs dry. Under FIFO the
                // queue holds exactly the frame just pushed, so it serves
                // immediately — the same timing-visible sequence as the
                // pre-scheduler server. Under WFQ, completions that have
                // already arrived are drained first (poll charges no time)
                // so concurrent arrivals actually compete for dispatch
                // order.
                while !qos.sched.is_empty() {
                    if wfq {
                        while let Some(t) = cq.poll(ctx) {
                            let tvi = t.vi;
                            if let Some((r, rat)) = token_req!(t) {
                                enqueue!(tvi, r, rat);
                            }
                        }
                    }
                    let Some(q) = qos.sched.pop(ctx) else {
                        break;
                    };
                    if sessions.contains_key(&q.vi) {
                        serve_and_reap!(q.vi, &q.frame);
                    }
                }
            }
        });
    }

    DafsServerHandle { stats, host, nic }
}

/// Entries retained by the replay cache; covers every request id a client
/// could replay across its bounded reconnect attempts.
const REPLAY_CAPACITY: usize = 1024;

/// Replay cache: `(client id, request id) -> encoded reply`, evicted FIFO.
///
/// A client that reconnects replays its in-flight request under the same
/// request id; a hit here resends the first execution's reply without
/// touching the filesystem, making non-idempotent operations (CREATE,
/// APPEND, WRITE, RENAME, ...) exactly-once under any loss pattern.
/// Lookups and inserts charge no virtual time, so fault-free runs are
/// byte-identical with and without the cache.
struct ReplayCache {
    capacity: usize,
    replies: HashMap<(u64, u32), Bytes>,
    order: VecDeque<(u64, u32)>,
}

impl ReplayCache {
    fn new(capacity: usize) -> ReplayCache {
        ReplayCache {
            capacity,
            replies: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: (u64, u32)) -> Option<&Bytes> {
        self.replies.get(&key)
    }

    fn insert(&mut self, key: (u64, u32), reply: Bytes) {
        if self.replies.insert(key, reply).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.replies.remove(&old);
                }
            }
        }
    }
}

/// Whether an op's reply must be remembered for replay. Only ops whose
/// re-execution would be observable need caching: reads, lookups, and
/// flushes re-execute harmlessly, and Lock/Unlock must re-execute (the old
/// session's teardown released its locks, so a replayed Lock has to be
/// granted fresh). Direct transfers are excluded because the client never
/// replays them by request id — their registration handles die with the
/// session, so it falls back to inline instead.
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
            // Only inline-mode WriteList is ever replayed (direct mode uses
            // call_once like WriteDirect); caching a direct reply is benign
            // because request ids are never reused.
            | DafsOp::WriteList
    )
}

use crate::proto::list_well_formed;

/// Group a well-formed segment list into runs contiguous in the client
/// buffer: each run is `(buffer rel, segments)` where the segments' buffer
/// positions are back-to-back. A packed list collapses to one run; gapped
/// layouts get one run per contiguous stretch. Direct transfers issue one
/// RDMA stream per run.
fn list_runs(segs: &[proto::ListSeg]) -> Vec<(u64, Vec<proto::ListSeg>)> {
    let mut runs: Vec<(u64, Vec<proto::ListSeg>)> = Vec::new();
    let mut end = 0u64;
    for &seg in segs {
        let (_, len, rel) = seg;
        if rel == end && !runs.is_empty() {
            runs.last_mut().unwrap().1.push(seg);
        } else {
            runs.push((rel, vec![seg]));
        }
        end = rel + len;
    }
    runs
}

/// Send `resp` on the session's next response slot.
///
/// The slot still describes the transfer (its registration is TPT-checked
/// and its length drives every cost term), but the encoded reply rides as a
/// zero-copy payload — the bounce through the slot's staging memory is
/// skipped.
fn respond(ctx: &ActorCtx, _nic: &ViaNic, sess: &mut Session, resp: Bytes) {
    assert!(resp.len() as u64 <= SLOT, "response overflows session slot");
    let (buf, h) = sess.resp_ring[sess.resp_next];
    sess.resp_next = (sess.resp_next + 1) % sess.resp_ring.len();
    sess.vi.post_send(
        ctx,
        SendDesc::send(vec![DataSegment::new(buf, resp.len() as u32, h)]).with_payload(resp),
    );
}

/// On session teardown, release any lock the session held and grant to the
/// next waiter; drop its queued waits.
fn release_locks_of(
    ctx: &ActorCtx,
    sessions: &mut HashMap<ViId, Session>,
    locks: &mut HashMap<u64, LockState>,
    vi: ViId,
) {
    for st in locks.values_mut() {
        st.waiters.retain(|(w, _)| *w != vi);
        if st.holder == Some(vi) {
            st.holder = None;
            grant_next(ctx, sessions, st);
        }
    }
}

/// Gate one request against the lease table. Returns true when the request
/// was deferred behind a recall — the caller must not reply; the raw frame
/// is replayed through `serve_one` once every holder has flushed and acked.
///
/// Holds no virtual time and touches nothing observable when the table has
/// no entry for `fh`, so runs without caching clients stay byte-identical.
#[allow(clippy::too_many_arguments)]
fn lease_defer(
    ctx: &ActorCtx,
    nic: &ViaNic,
    sessions: &mut HashMap<ViId, Session>,
    leases: &mut BTreeMap<u64, LeaseState>,
    next_recall_id: &mut u32,
    vi_id: ViId,
    fh: u64,
    mutating: bool,
    req: &Bytes,
) -> bool {
    let Some(st) = leases.get_mut(&fh) else {
        return false;
    };
    if st.holders.iter().any(|(h, _)| *h == vi_id) {
        // Holders pass through: a recalled holder must still be able to
        // flush its dirty pages, and a holder's own ops are coherent by
        // construction (its cache is the freshest copy).
        return false;
    }
    let conflict = if mutating {
        !st.holders.is_empty()
    } else {
        // Read and write leases never coexist on one handle, so a reader
        // only conflicts with a write-back holder's dirty cache.
        st.holders
            .iter()
            .any(|(_, k)| *k == proto::LeaseKind::Write)
    };
    if !conflict {
        return false;
    }
    if let Some(rc) = st.recall.as_mut() {
        // Recall already in flight: queue behind it in arrival order.
        rc.blocked.push((vi_id, req.clone()));
        return true;
    }
    let id = *next_recall_id;
    *next_recall_id += 1;
    let mut pending = Vec::new();
    let mut dead = Vec::new();
    for (h, _) in &st.holders {
        if let Some(sess) = sessions.get_mut(h) {
            let push = proto::enc_recall_push(NodeId(fh), id).finish();
            respond(ctx, nic, sess, push.into());
            // The push itself can break the session (crashed holder): a
            // dead holder can never ack, so waiting on it would wedge the
            // deferred request forever. Reclaim its lease on the spot.
            if sess.vi.state() == ViState::Connected {
                ctx.metrics().counter("dafs.lease.recalls_sent").inc();
                pending.push(*h);
            } else {
                ctx.metrics().counter("dafs.lease.reclaims").inc();
                dead.push(*h);
            }
        } else {
            dead.push(*h);
        }
    }
    st.holders.retain(|(h, _)| !dead.contains(h));
    if pending.is_empty() {
        // Every holder's session is already gone; reclaim on the spot.
        leases.remove(&fh);
        return false;
    }
    ctx.trace(
        "dafs",
        "lease.recall",
        &[
            ("fh", obs::Value::U64(fh)),
            ("recall", obs::Value::U64(id as u64)),
            ("holders", obs::Value::U64(pending.len() as u64)),
        ],
    );
    st.recall = Some(RecallState {
        pending,
        blocked: vec![(vi_id, req.clone())],
    });
    true
}

/// Drop `vi`'s lease on `fh` (recall ack, voluntary release, or teardown).
/// When that completes an in-flight recall, the deferred frames come back
/// for the caller to replay through `serve_one`.
fn lease_drop(leases: &mut BTreeMap<u64, LeaseState>, fh: u64, vi: ViId) -> Vec<(ViId, Bytes)> {
    let Some(st) = leases.get_mut(&fh) else {
        return Vec::new();
    };
    st.holders.retain(|(h, _)| *h != vi);
    let mut frames = Vec::new();
    if let Some(rc) = st.recall.as_mut() {
        rc.pending.retain(|p| *p != vi);
        if rc.pending.is_empty() {
            frames = st.recall.take().expect("recall present").blocked;
        }
    }
    if st.holders.is_empty() && st.recall.is_none() {
        leases.remove(&fh);
    }
    frames
}

/// On session teardown, drop every lease the session held, abandon its own
/// deferred frames, and complete any recall that was waiting only on it —
/// a crashed holder must never wedge the writers queued behind a recall.
fn release_leases_of(
    ctx: &ActorCtx,
    leases: &mut BTreeMap<u64, LeaseState>,
    vi: ViId,
) -> Vec<(ViId, Bytes)> {
    let mut frames = Vec::new();
    let fhs: Vec<u64> = leases.keys().copied().collect();
    for fh in fhs {
        let st = leases.get_mut(&fh).expect("swept key");
        if let Some(rc) = st.recall.as_mut() {
            rc.blocked.retain(|(b, _)| *b != vi);
        }
        if st.holders.iter().any(|(h, _)| *h == vi) {
            ctx.metrics().counter("dafs.lease.reclaims").inc();
            ctx.trace("dafs", "lease.reclaim", &[("fh", obs::Value::U64(fh))]);
        }
        frames.extend(lease_drop(leases, fh, vi));
    }
    frames
}

fn grant_next(ctx: &ActorCtx, sessions: &mut HashMap<ViId, Session>, st: &mut LockState) {
    while let Some((next, reqid)) = st.waiters.pop_front() {
        if let Some(sess) = sessions.get_mut(&next) {
            st.holder = Some(next);
            let mut e = Enc::new();
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            let nic = sess.vi.nic().clone();
            respond(ctx, &nic, sess, e.finish().into());
            return;
        }
        // Waiter's session vanished; try the next one.
    }
}

/// Execute one request; returns true if the session should be torn down.
#[allow(clippy::too_many_arguments)]
fn serve_one(
    ctx: &ActorCtx,
    nic: &ViaNic,
    host: &Host,
    fs: &MemFs,
    cost: &DafsServerCost,
    stats: &DafsServerStats,
    sessions: &mut HashMap<ViId, Session>,
    vi_id: ViId,
    locks: &mut HashMap<u64, LockState>,
    leases: &mut BTreeMap<u64, LeaseState>,
    next_recall_id: &mut u32,
    client_ids: &mut HashMap<ViId, u64>,
    replay: &mut ReplayCache,
    qos: &mut QosState,
    req: &Bytes,
) -> bool {
    stats.ops.inc();
    host.compute(ctx, cost.per_op);

    let mut d = Dec::new(req);
    let Ok((reqid, op)) = proto::dec_req_header(&mut d) else {
        return false; // unparseable; drop
    };

    macro_rules! sess {
        () => {
            sessions.get_mut(&vi_id).expect("live session")
        };
    }

    // Replay short-circuit: a reconnected client re-sending a request we
    // already executed gets the original reply verbatim.
    let replay_key = if replay_cacheable(op) {
        client_ids.get(&vi_id).map(|cid| (*cid, reqid))
    } else {
        None
    };
    if let Some(key) = replay_key {
        if let Some(cached) = replay.get(key) {
            ctx.metrics().counter("dafs.replay.hits").inc();
            ctx.trace(
                "dafs",
                "replay.hit",
                &[
                    ("client", obs::Value::U64(key.0)),
                    ("reqid", obs::Value::U64(reqid as u64)),
                ],
            );
            let cached = cached.clone();
            respond(ctx, nic, sess!(), cached);
            return false;
        }
    }

    // Lease coherence gate: ops that would observe or clobber a cached
    // client's data are deferred behind a recall of the conflicting leases.
    // Replay hits never reach here — an already-executed mutation must not
    // be gated (or billed) twice.
    if !leases.is_empty() {
        let gate = match op {
            DafsOp::SetAttr
            | DafsOp::WriteInline
            | DafsOp::WriteDirect
            | DafsOp::WriteList
            | DafsOp::Append => Some(true),
            DafsOp::GetAttr | DafsOp::ReadInline | DafsOp::ReadDirect | DafsOp::ReadList => {
                Some(false)
            }
            _ => None,
        };
        if let Some(mutating) = gate {
            let mut peek = Dec::new(req);
            if proto::dec_req_header(&mut peek).is_ok() {
                if let Ok(fh) = peek.u64() {
                    if lease_defer(
                        ctx,
                        nic,
                        sessions,
                        leases,
                        next_recall_id,
                        vi_id,
                        fh,
                        mutating,
                        req,
                    ) {
                        return false;
                    }
                }
            }
        } else if op == DafsOp::Remove {
            // The wire names (dir, name); the conflict is on the child.
            let mut peek = Dec::new(req);
            if proto::dec_req_header(&mut peek).is_ok() {
                if let (Ok(dir), Ok(name)) = (peek.u64(), peek.str()) {
                    if let Ok(a) = fs.lookup(NodeId(dir), &name) {
                        if lease_defer(
                            ctx,
                            nic,
                            sessions,
                            leases,
                            next_recall_id,
                            vi_id,
                            a.id.0,
                            true,
                            req,
                        ) {
                            return false;
                        }
                    }
                }
            }
        }
    }

    macro_rules! reply {
        ($e:expr) => {{
            let bytes = Bytes::from_vec($e.finish());
            if let Some(key) = replay_key {
                replay.insert(key, bytes.clone());
            }
            respond(ctx, nic, sess!(), bytes);
            return false;
        }};
    }
    macro_rules! fail {
        ($st:expr) => {{
            let mut e2 = Enc::new();
            proto::enc_resp_header(&mut e2, reqid, $st);
            reply!(e2);
        }};
    }
    macro_rules! try_fs {
        ($r:expr) => {
            match $r {
                Ok(v) => v,
                Err(err) => fail!(DafsStatus::from(err)),
            }
        };
    }
    macro_rules! try_wire {
        ($r:expr) => {
            match $r {
                Ok(v) => v,
                Err(_) => fail!(DafsStatus::Inval),
            }
        };
    }

    let mut e = Enc::new();
    match op {
        DafsOp::Hello => {
            // The body carries the client's stable id. Legacy clients omit
            // it; each such session gets a unique synthetic id (high bit
            // set, above any real VI-derived id) so two cid-less clients
            // never share a replay-cache identity. A re-Hello on a session
            // that already holds a synthetic id keeps it — a legacy client
            // cannot name itself across reconnects, so its identity is the
            // session.
            match d.u64() {
                Ok(c) => {
                    client_ids.insert(vi_id, c);
                }
                Err(_) => {
                    client_ids.entry(vi_id).or_insert_with(|| {
                        qos.next_legacy_cid += 1;
                        LEGACY_CID_BASE | qos.next_legacy_cid
                    });
                }
            }
            // Optional QoS extension, present only when the client declared
            // a tenant: `(tenant id u64, weight u32)`. Legacy and
            // QoS-unaware Hellos end at the client id, so decoding simply
            // stops there and the reply is unchanged.
            let mut credits = CREDITS;
            if let Ok(tenant) = d.u64() {
                let weight = d.u32().unwrap_or(1).max(1);
                qos.tenants.insert(vi_id, (tenant, weight));
                qos.sched.set_weight(tenant, weight);
                if qos.sched.reorders() {
                    // Credit-window backpressure: an under-weight tenant's
                    // advertised window shrinks in proportion to the largest
                    // declared weight, so its excess load queues at the
                    // client instead of unboundedly in the scheduler.
                    let max_w = qos.tenants.values().map(|&(_, w)| w).max().unwrap_or(1);
                    let scaled = ((CREDITS as u64 * weight as u64) / max_w as u64)
                        .clamp(2, CREDITS as u64) as u32;
                    if scaled < CREDITS {
                        ctx.metrics()
                            .counter(&format!("dafs.sched.t{tenant}.throttles"))
                            .inc();
                    }
                    credits = scaled;
                }
            }
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            e.u8(nic.cost().rdma_read_supported as u8);
            e.u32(credits);
            e.u64(INLINE_MAX);
            reply!(e);
        }
        DafsOp::GetAttr => {
            let fh = NodeId(try_wire!(d.u64()));
            let a = try_fs!(fs.getattr(fh));
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            proto::enc_attr(&mut e, &a);
            reply!(e);
        }
        DafsOp::SetAttr => {
            let fh = NodeId(try_wire!(d.u64()));
            let has = try_wire!(d.u8());
            let size = if has != 0 {
                Some(try_wire!(d.u64()))
            } else {
                None
            };
            let a = try_fs!(fs.setattr(fh, SetAttr { size }));
            host.compute(ctx, cost.sync);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            proto::enc_attr(&mut e, &a);
            reply!(e);
        }
        DafsOp::Lookup => {
            let dir = NodeId(try_wire!(d.u64()));
            let name = try_wire!(d.str());
            let a = try_fs!(fs.lookup(dir, &name));
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            proto::enc_attr(&mut e, &a);
            reply!(e);
        }
        DafsOp::Create => {
            let dir = NodeId(try_wire!(d.u64()));
            let name = try_wire!(d.str());
            let a = try_fs!(fs.create(dir, &name));
            host.compute(ctx, cost.sync);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            proto::enc_attr(&mut e, &a);
            reply!(e);
        }
        DafsOp::Mkdir => {
            let dir = NodeId(try_wire!(d.u64()));
            let name = try_wire!(d.str());
            let a = try_fs!(fs.mkdir(dir, &name));
            host.compute(ctx, cost.sync);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            proto::enc_attr(&mut e, &a);
            reply!(e);
        }
        DafsOp::Remove => {
            let dir = NodeId(try_wire!(d.u64()));
            let name = try_wire!(d.str());
            try_fs!(fs.remove(dir, &name));
            host.compute(ctx, cost.sync);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            reply!(e);
        }
        DafsOp::Rmdir => {
            let dir = NodeId(try_wire!(d.u64()));
            let name = try_wire!(d.str());
            try_fs!(fs.rmdir(dir, &name));
            host.compute(ctx, cost.sync);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            reply!(e);
        }
        DafsOp::Rename => {
            let from = NodeId(try_wire!(d.u64()));
            let name = try_wire!(d.str());
            let to = NodeId(try_wire!(d.u64()));
            let to_name = try_wire!(d.str());
            try_fs!(fs.rename(from, &name, to, &to_name));
            host.compute(ctx, cost.sync);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            reply!(e);
        }
        DafsOp::ReadDir => {
            let dir = NodeId(try_wire!(d.u64()));
            // Encode entries straight off the directory map, borrowed under
            // the filesystem lock — no per-call Vec<(String, NodeId)>.
            let mut n = 0u32;
            let mut body = Enc::new();
            try_fs!(fs.with_readdir(dir, |name, id| {
                body.u64(id.0);
                body.str(name);
                n += 1;
            }));
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            e.u32(n);
            e.raw(&body.finish());
            reply!(e);
        }
        DafsOp::ReadInline => {
            let fh = NodeId(try_wire!(d.u64()));
            let off = try_wire!(d.u64());
            let len = try_wire!(d.u64());
            if len > INLINE_MAX {
                fail!(DafsStatus::Inval);
            }
            let data = try_fs!(fs.read_views(fh, off, len));
            // Buffer-cache copy into the response message.
            host.compute(ctx, cost.host.copy(data.len() as u64));
            stats.inline_reads.record(data.len() as u64);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            e.rope(&data);
            reply!(e);
        }
        DafsOp::Append => {
            let fh = NodeId(try_wire!(d.u64()));
            let data = try_wire!(d.bytes());
            if data.len() as u64 > INLINE_MAX {
                fail!(DafsStatus::Inval);
            }
            host.compute(ctx, cost.host.copy(data.len() as u64));
            // The single serial worker makes size-probe + write atomic.
            let at = try_fs!(fs.getattr(fh)).size;
            let a = try_fs!(fs.write(fh, at, &data));
            stats.inline_writes.record(data.len() as u64);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            e.u64(at);
            proto::enc_attr(&mut e, &a);
            reply!(e);
        }
        DafsOp::WriteInline => {
            let fh = NodeId(try_wire!(d.u64()));
            let off = try_wire!(d.u64());
            let data = try_wire!(d.bytes());
            if data.len() as u64 > INLINE_MAX {
                fail!(DafsStatus::Inval);
            }
            host.compute(ctx, cost.host.copy(data.len() as u64));
            let a = try_fs!(fs.write(fh, off, &data));
            stats.inline_writes.record(data.len() as u64);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            proto::enc_attr(&mut e, &a);
            reply!(e);
        }
        DafsOp::ReadDirect => {
            let fh = NodeId(try_wire!(d.u64()));
            let off = try_wire!(d.u64());
            let len = try_wire!(d.u64());
            let raddr = VirtAddr(try_wire!(d.u64()));
            let rhandle = MemHandle(try_wire!(d.u64()));
            let data = try_fs!(fs.read_views(fh, off, len));
            if !cost.registered_buffer_cache {
                host.compute(ctx, cost.host.copy(data.len() as u64));
            }
            // RDMA-write the data into the client's buffer, chunked as if
            // through the session staging area (chunks pipeline on the
            // wire). Each chunk rides as zero-copy views of the file pages:
            // server pages → wire → client buffer, no staging bounce.
            let sess = sess!();
            let (sbuf, sh) = sess.staging;
            let mut sent = 0usize;
            let mut failed = false;
            while sent < data.len() {
                let n = (data.len() - sent).min(STAGING as usize);
                sess.vi.post_send(
                    ctx,
                    SendDesc::rdma_write(
                        vec![DataSegment::new(sbuf, n as u32, sh)],
                        RemoteSegment {
                            addr: raddr.offset(sent as u64),
                            handle: rhandle,
                        },
                    )
                    .with_payload(data.slice(sent..sent + n)),
                );
                // Chunk boundaries serialize through the staging buffer:
                // wait for the NIC to finish each chunk before overwriting.
                let c = sess.vi.send_wait(ctx);
                if !c.status.is_ok() {
                    failed = true;
                    break;
                }
                sent += n;
            }
            if failed {
                fail!(DafsStatus::XferError);
            }
            stats.direct_reads.record(data.len() as u64);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            e.u64(data.len() as u64);
            reply!(e);
        }
        DafsOp::WriteDirect => {
            if !nic.cost().rdma_read_supported {
                fail!(DafsStatus::NotSupported);
            }
            let fh = NodeId(try_wire!(d.u64()));
            let off = try_wire!(d.u64());
            let len = try_wire!(d.u64());
            let raddr = VirtAddr(try_wire!(d.u64()));
            let rhandle = MemHandle(try_wire!(d.u64()));
            let (sbuf, sh) = sess!().staging;
            let mut got = 0u64;
            let mut failed = false;
            while got < len {
                let n = (len - got).min(STAGING);
                let sess = sess!();
                sess.vi.post_send(
                    ctx,
                    SendDesc::rdma_read(
                        vec![DataSegment::new(sbuf, n as u32, sh)],
                        RemoteSegment {
                            addr: raddr.offset(got),
                            handle: rhandle,
                        },
                    ),
                );
                let c = sess.vi.send_wait(ctx);
                if !c.status.is_ok() {
                    failed = true;
                    break;
                }
                let chunk = nic.host().mem.read_vec(sbuf, n as usize);
                if !cost.registered_buffer_cache {
                    host.compute(ctx, cost.host.copy(n));
                }
                if fs.write(fh, off + got, &chunk).is_err() {
                    failed = true;
                    break;
                }
                got += n;
            }
            if failed {
                fail!(DafsStatus::XferError);
            }
            stats.direct_writes.record(len);
            let a = try_fs!(fs.getattr(fh));
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            proto::enc_attr(&mut e, &a);
            reply!(e);
        }
        DafsOp::ReadList => {
            let fh = NodeId(try_wire!(d.u64()));
            let mode = try_wire!(d.u8());
            let (raddr, rhandle) = if mode != 0 {
                (VirtAddr(try_wire!(d.u64())), MemHandle(try_wire!(d.u64())))
            } else {
                (VirtAddr(0), MemHandle(0))
            };
            let segs = try_wire!(proto::dec_seg_list(&mut d));
            if !list_well_formed(&segs) {
                fail!(DafsStatus::Inval);
            }
            let total: u64 = segs.iter().map(|s| s.1).sum();
            if mode == 0 && total > INLINE_MAX {
                fail!(DafsStatus::Inval);
            }
            // One pass: gather every segment. Sorted lists mean a short
            // segment (EOF) empties every later one, so the gathered bytes
            // are a dense prefix of each buffer-contiguous run.
            let mut counts = Vec::with_capacity(segs.len());
            let mut data = Rope::new(); // inline reply payload (list order)
            if mode == 0 {
                for &(off, len, _) in &segs {
                    let seg = try_fs!(fs.read_views(fh, off, len));
                    counts.push(seg.len() as u64);
                    data.append(seg);
                }
                host.compute(ctx, cost.host.copy(data.len() as u64));
                stats.inline_reads.record(data.len() as u64);
            } else {
                // Direct: one RDMA stream per buffer-contiguous run,
                // chunked through the session staging area like ReadDirect
                // (a packed list is a single run).
                let mut moved = 0u64;
                let mut failed = false;
                'runs: for (run_rel, run) in list_runs(&segs) {
                    // The run streams as views of the file pages of its
                    // segments, in order — discontiguous in the file,
                    // back-to-back in the client buffer.
                    let mut rdata = Rope::new();
                    for &(off, len, _) in &run {
                        let seg = try_fs!(fs.read_views(fh, off, len));
                        counts.push(seg.len() as u64);
                        rdata.append(seg);
                    }
                    if !cost.registered_buffer_cache {
                        host.compute(ctx, cost.host.copy(rdata.len() as u64));
                    }
                    let sess = sess!();
                    let (sbuf, sh) = sess.staging;
                    let mut sent = 0usize;
                    while sent < rdata.len() {
                        let n = (rdata.len() - sent).min(STAGING as usize);
                        sess.vi.post_send(
                            ctx,
                            SendDesc::rdma_write(
                                vec![DataSegment::new(sbuf, n as u32, sh)],
                                RemoteSegment {
                                    addr: raddr.offset(run_rel + sent as u64),
                                    handle: rhandle,
                                },
                            )
                            .with_payload(rdata.slice(sent..sent + n)),
                        );
                        let c = sess.vi.send_wait(ctx);
                        if !c.status.is_ok() {
                            failed = true;
                            break 'runs;
                        }
                        sent += n;
                    }
                    moved += rdata.len() as u64;
                }
                if failed {
                    fail!(DafsStatus::XferError);
                }
                stats.direct_reads.record(moved);
            }
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            e.u32(counts.len() as u32);
            for c in &counts {
                e.u64(*c);
            }
            if mode == 0 {
                e.rope(&data);
            }
            reply!(e);
        }
        DafsOp::WriteList => {
            let fh = NodeId(try_wire!(d.u64()));
            let mode = try_wire!(d.u8());
            if mode != 0 && !nic.cost().rdma_read_supported {
                fail!(DafsStatus::NotSupported);
            }
            let (raddr, rhandle) = if mode != 0 {
                (VirtAddr(try_wire!(d.u64())), MemHandle(try_wire!(d.u64())))
            } else {
                (VirtAddr(0), MemHandle(0))
            };
            let segs = try_wire!(proto::dec_seg_list(&mut d));
            if !list_well_formed(&segs) {
                fail!(DafsStatus::Inval);
            }
            let total: u64 = segs.iter().map(|s| s.1).sum();
            if mode == 0 {
                // Inline: the payload carries every segment back-to-back in
                // list order; scatter it across the file in one pass.
                let data = try_wire!(d.bytes());
                if data.len() as u64 != total || total > INLINE_MAX {
                    fail!(DafsStatus::Inval);
                }
                host.compute(ctx, cost.host.copy(total));
                let mut pos = 0usize;
                for &(off, len, _) in &segs {
                    try_fs!(fs.write(fh, off, &data[pos..pos + len as usize]));
                    pos += len as usize;
                }
                stats.inline_writes.record(total);
            } else {
                // Direct: per buffer-contiguous run, RDMA-Read the stream
                // from the client buffer through staging, scattering
                // segments to the filesystem as each chunk lands.
                let mut failed = false;
                'wruns: for (run_rel, run) in list_runs(&segs) {
                    let run_total: u64 = run.iter().map(|s| s.1).sum();
                    let (sbuf, sh) = sess!().staging;
                    let mut got = 0u64;
                    let mut ri = 0usize; // current segment of the run
                    let mut rpos = 0u64; // bytes of it already written
                    while got < run_total {
                        let n = (run_total - got).min(STAGING);
                        let sess = sess!();
                        sess.vi.post_send(
                            ctx,
                            SendDesc::rdma_read(
                                vec![DataSegment::new(sbuf, n as u32, sh)],
                                RemoteSegment {
                                    addr: raddr.offset(run_rel + got),
                                    handle: rhandle,
                                },
                            ),
                        );
                        let c = sess.vi.send_wait(ctx);
                        if !c.status.is_ok() {
                            failed = true;
                            break 'wruns;
                        }
                        let chunk = nic.host().mem.read_vec(sbuf, n as usize);
                        if !cost.registered_buffer_cache {
                            host.compute(ctx, cost.host.copy(n));
                        }
                        let mut cpos = 0u64;
                        while cpos < n {
                            let (off, len, _) = run[ri];
                            let take = (len - rpos).min(n - cpos);
                            let piece = &chunk[cpos as usize..(cpos + take) as usize];
                            if fs.write(fh, off + rpos, piece).is_err() {
                                failed = true;
                                break 'wruns;
                            }
                            rpos += take;
                            cpos += take;
                            if rpos == len {
                                ri += 1;
                                rpos = 0;
                            }
                        }
                        got += n;
                    }
                }
                if failed {
                    fail!(DafsStatus::XferError);
                }
                stats.direct_writes.record(total);
            }
            let a = try_fs!(fs.getattr(fh));
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            proto::enc_attr(&mut e, &a);
            reply!(e);
        }
        DafsOp::Flush => {
            let _fh = NodeId(try_wire!(d.u64()));
            host.compute(ctx, cost.sync);
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            reply!(e);
        }
        DafsOp::Lock => {
            let fh = try_wire!(d.u64());
            let st = locks.entry(fh).or_default();
            match st.holder {
                None => {
                    st.holder = Some(vi_id);
                    proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
                    reply!(e);
                }
                Some(_) => {
                    // Defer the response until the lock is released.
                    st.waiters.push_back((vi_id, reqid));
                    false
                }
            }
        }
        DafsOp::Unlock => {
            let fh = try_wire!(d.u64());
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            respond(ctx, nic, sess!(), e.finish().into());
            if let Some(st) = locks.get_mut(&fh) {
                if st.holder == Some(vi_id) {
                    st.holder = None;
                    grant_next(ctx, sessions, st);
                }
            }
            false
        }
        DafsOp::Disconnect => {
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            respond(ctx, nic, sess!(), e.finish().into());
            true
        }
        DafsOp::LeaseGrant => {
            // Not replay-cacheable: leases are per-session state, and a
            // reconnected client starts cold (revalidate-on-reconnect), so
            // replaying a stale grant would resurrect a dead lease.
            let fh = NodeId(try_wire!(d.u64()));
            let Some(kind) = proto::LeaseKind::from_u8(try_wire!(d.u8())) else {
                fail!(DafsStatus::Inval);
            };
            let a = try_fs!(fs.getattr(fh));
            let st = leases.entry(fh.0).or_default();
            let others_any = st.holders.iter().any(|(h, _)| *h != vi_id);
            let others_write = st
                .holders
                .iter()
                .any(|(h, k)| *h != vi_id && *k == proto::LeaseKind::Write);
            let deny = st.recall.is_some()
                || match kind {
                    proto::LeaseKind::Read => others_write,
                    proto::LeaseKind::Write => others_any,
                };
            if deny {
                if st.holders.is_empty() && st.recall.is_none() {
                    leases.remove(&fh.0);
                }
                ctx.metrics().counter("dafs.lease.denials").inc();
            } else {
                if let Some(slot) = st.holders.iter_mut().find(|(h, _)| *h == vi_id) {
                    slot.1 = slot.1.max(kind); // refresh / upgrade in place
                } else {
                    st.holders.push((vi_id, kind));
                }
                ctx.metrics().counter("dafs.lease.grants").inc();
            }
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            e.u8(!deny as u8);
            // The attr rides along so a granted client seeds its attribute
            // cache atomically with the lease.
            proto::enc_attr(&mut e, &a);
            reply!(e);
        }
        DafsOp::LeaseRecall => {
            // Server-to-client push marker only; never a valid request.
            fail!(DafsStatus::Inval);
        }
        DafsOp::LeaseRecallAck => {
            // Replay-idempotent by construction: re-dropping an absent
            // lease is a no-op, so a reconnect-replayed ack is harmless.
            let fh = try_wire!(d.u64());
            let _recall_id = try_wire!(d.u32());
            proto::enc_resp_header(&mut e, reqid, DafsStatus::Ok);
            respond(ctx, nic, sess!(), e.finish().into());
            let frames = lease_drop(leases, fh, vi_id);
            for (bvi, frame) in frames {
                if sessions.contains_key(&bvi) {
                    serve_one(
                        ctx,
                        nic,
                        host,
                        fs,
                        cost,
                        stats,
                        sessions,
                        bvi,
                        locks,
                        leases,
                        next_recall_id,
                        client_ids,
                        replay,
                        qos,
                        &frame,
                    );
                }
            }
            false
        }
    }
}
