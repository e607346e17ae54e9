//! Pluggable request scheduling for the DAFS server worker.
//!
//! The server's historical dispatch is FIFO-by-completion: whatever frame
//! the CQ surfaces next is served next. That is the right default (and
//! [`FifoSched`] preserves it byte-for-byte in virtual time), but it lets a
//! checkpoint burst from one tenant monopolize the single worker while an
//! interactive tenant's getattrs sit behind megabytes of queued bulk I/O.
//!
//! [`WfqSched`] adds weighted fair queueing in the spirit of
//! server-directed I/O (ViPIOS) and DAOS-style tenant separation:
//!
//! * **Deficit round-robin over byte cost** — each tenant owns a FIFO of
//!   its queued frames; tenants are visited round-robin and may dispatch
//!   while their deficit counter covers the head frame's byte cost, the
//!   counter refilling by `quantum × weight` per visit. Service converges
//!   to weight-proportional byte shares without ever preempting a frame.
//! * **Deadline boost for small ops** — getattrs and ≤inline reads carry an
//!   implicit deadline (`boost_deadline` past arrival). An expired small op
//!   at the head of any tenant queue jumps the round-robin entirely
//!   (earliest arrival first), bounding small-op tail latency under bulk
//!   load. Boosted bytes still drain the tenant's deficit, so the boost is
//!   a latency lever, not a bandwidth cheat.
//! * **Credit-window backpressure** — the admission-side knob lives in the
//!   server's `Hello` handler: an over-share tenant has its advertised
//!   credit window shrunk in proportion to its weight share, so excess load
//!   queues at the client instead of unboundedly in the scheduler.
//!
//! Scheduling state is plain deterministic data (`BTreeMap` + `VecDeque`);
//! neither queueing nor dispatch charges virtual time. All reordering
//! happens between *complete received frames*, so per-frame costs are
//! identical under either policy — only the order (and thus waiting time)
//! changes.

use std::collections::{BTreeMap, VecDeque};

use simnet::obs::Labels;
use simnet::{ActorCtx, Bytes, Counter, HostId, SimDuration, SimTime};
use via::ViId;

use crate::proto::{self, DafsOp};
use crate::wire::Dec;

/// Tenant id for sessions whose Hello declared none (a client configured
/// without a tenant). They share one best-effort bucket at weight 1.
pub const DEFAULT_TENANT: u64 = 0;

/// Scheduler selection for [`crate::spawn_dafs_server_sched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Historical FIFO-by-completion dispatch; byte-identical in virtual
    /// time to servers that predate the scheduler.
    Fifo,
    /// Weighted fair queueing across tenants with small-op deadline boost.
    Wfq(WfqParams),
}

/// The labels of a tenant's `dafs.sched.*` series on the server `server`.
pub fn tenant_labels(server: HostId, tenant: u64) -> Labels {
    Labels::NONE.server(server.0 as u64).tenant(tenant)
}

/// Tunables for [`WfqSched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WfqParams {
    /// Deficit refill per round-robin visit, in bytes, scaled by the
    /// tenant's weight. One quantum covers a couple of inline ops; bulk
    /// frames spanning several quanta simply accumulate deficit across
    /// rounds (DRR's starvation-freedom argument).
    pub quantum: u64,
    /// Queueing delay after which a small op (getattr, ≤inline read) jumps
    /// the round-robin.
    pub boost_deadline: SimDuration,
}

impl Default for WfqParams {
    fn default() -> Self {
        WfqParams {
            quantum: 64 << 10,
            boost_deadline: SimDuration::from_micros(50),
        }
    }
}

/// One received request frame waiting for dispatch.
pub struct QueuedReq {
    /// Session the frame arrived on.
    pub vi: ViId,
    /// Tenant the session belongs to ([`DEFAULT_TENANT`] if undeclared).
    pub tenant: u64,
    /// Scheduling weight of the tenant at enqueue time.
    pub weight: u32,
    /// Byte cost charged against the tenant's deficit (payload bytes the
    /// op will move, plus the frame itself).
    pub cost: u64,
    /// Deadline-boost eligible (getattr / ≤inline read).
    pub small: bool,
    /// Virtual time the frame was taken off the wire.
    pub arrival: SimTime,
    /// The raw request frame (zero-copy view of the received message).
    pub frame: Bytes,
}

/// Byte cost and small-op classification of a raw request frame.
///
/// The cost drives DRR fairness, so it counts the bytes the op will move
/// (decoded lengths for reads and direct transfers; the frame itself
/// already carries inline write payloads). Malformed frames cost their
/// own length and are left for `serve_one` to reject.
pub fn classify(req: &Bytes) -> (u64, bool) {
    let flen = req.len() as u64;
    let mut d = Dec::new(req);
    let Ok((_reqid, op)) = proto::dec_req_header(&mut d) else {
        return (flen, false);
    };
    match op {
        DafsOp::GetAttr => (flen, true),
        DafsOp::ReadInline => {
            let len = skip2_len(&mut d).unwrap_or(0);
            (flen + len, true)
        }
        DafsOp::ReadDirect => {
            let len = skip2_len(&mut d).unwrap_or(0);
            (flen + len, false)
        }
        DafsOp::ReadList | DafsOp::WriteList => {
            // fh, mode, optional remote segment, then the list itself.
            let total = (|| -> Result<u64, crate::wire::WireError> {
                d.u64()?;
                let mode = d.u8()?;
                if mode != 0 {
                    d.u64()?;
                    d.u64()?;
                }
                let segs = proto::dec_seg_list(&mut d)?;
                Ok(segs.iter().map(|s| s.1).sum())
            })()
            .unwrap_or(0);
            // Inline lists already carry their payload in the frame; direct
            // lists move `total` beyond it. Charging both for either mode
            // over-counts by at most one frame length.
            (flen + total, false)
        }
        // Metadata, control, and inline-payload ops: the frame length is
        // the work (inline write payloads ride in the frame).
        _ => (flen, false),
    }
}

/// Skip two u64 body fields (fh, offset) and return the third (len) —
/// the common prefix of every single-extent I/O request.
fn skip2_len(d: &mut Dec) -> Result<u64, crate::wire::WireError> {
    d.u64()?;
    d.u64()?;
    d.u64()
}

/// Whether an op must bypass queueing entirely under a reordering policy.
///
/// `Hello` (session/tenant binding), `Disconnect`, and `LeaseRecallAck`
/// are control traffic: parking a recall ack behind a bulk queue would
/// wedge every request blocked on that recall behind the very tenant the
/// scheduler is throttling (a priority inversion). FIFO mode never calls
/// this — nothing is reordered there.
pub fn control_op(req: &Bytes) -> bool {
    let mut d = Dec::new(req);
    matches!(
        proto::dec_req_header(&mut d),
        Ok((_, DafsOp::Hello)) | Ok((_, DafsOp::Disconnect)) | Ok((_, DafsOp::LeaseRecallAck))
    )
}

/// The pluggable dispatch-order policy sitting between session receive
/// and op dispatch in the server worker.
pub trait RequestSched: Send {
    /// Whether this policy may emit frames in a different order than they
    /// were pushed. `false` promises push→pop is an identity queue, which
    /// the worker relies on to keep the historical single-frame serve path
    /// (and its virtual-time trace) unchanged.
    fn reorders(&self) -> bool;
    /// Enqueue one received frame.
    fn push(&mut self, ctx: &ActorCtx, req: QueuedReq);
    /// Next frame to serve, or `None` when idle.
    fn pop(&mut self, ctx: &ActorCtx) -> Option<QueuedReq>;
    /// Whether any frame is queued.
    fn is_empty(&self) -> bool;
    /// Drop every queued frame of a dead session (its VI is gone; serving
    /// its frames would panic on the missing session state).
    fn drop_session(&mut self, vi: ViId);
    /// Record a tenant's declared weight (from `Hello`).
    fn set_weight(&mut self, tenant: u64, weight: u32);
}

/// The historical dispatch order: frames serve strictly in arrival order.
#[derive(Default)]
pub struct FifoSched {
    queue: VecDeque<QueuedReq>,
}

impl FifoSched {
    /// Create an empty FIFO scheduler.
    pub fn new() -> FifoSched {
        FifoSched::default()
    }
}

impl RequestSched for FifoSched {
    fn reorders(&self) -> bool {
        false
    }

    fn push(&mut self, _ctx: &ActorCtx, req: QueuedReq) {
        self.queue.push_back(req);
    }

    fn pop(&mut self, _ctx: &ActorCtx) -> Option<QueuedReq> {
        self.queue.pop_front()
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn drop_session(&mut self, vi: ViId) {
        self.queue.retain(|q| q.vi != vi);
    }

    fn set_weight(&mut self, _tenant: u64, _weight: u32) {}
}

/// Per-tenant queue state inside [`WfqSched`].
struct TenantQ {
    queue: VecDeque<QueuedReq>,
    /// DRR deficit counter, bytes.
    deficit: u64,
    weight: u32,
    /// Whether the current head-of-round visit already refilled `deficit`.
    topped_up: bool,
    /// Membership in the active round-robin ring.
    in_ring: bool,
    /// `dafs.sched.queued_ns{server, tenant}` — virtual ns frames of this
    /// tenant spent queued before dispatch.
    queued_ns: Counter,
    /// `dafs.sched.boosts{server, tenant}` — deadline-boost dispatches.
    boosts: Counter,
}

/// Weighted fair queueing across tenants: deficit round-robin over byte
/// cost with an earliest-deadline boost lane for small ops.
pub struct WfqSched {
    params: WfqParams,
    /// The server host: its tenants' series carry it.
    server: HostId,
    tenants: BTreeMap<u64, TenantQ>,
    /// Round-robin ring of tenant ids with queued work, in visit order.
    ring: VecDeque<u64>,
    len: usize,
}

impl WfqSched {
    /// Create an empty WFQ scheduler for the server on `server`.
    pub fn new(params: WfqParams, server: HostId) -> WfqSched {
        WfqSched {
            params,
            server,
            tenants: BTreeMap::new(),
            ring: VecDeque::new(),
            len: 0,
        }
    }

    fn tenant_entry<'a>(
        tenants: &'a mut BTreeMap<u64, TenantQ>,
        ctx: &ActorCtx,
        server: HostId,
        tenant: u64,
        weight: u32,
    ) -> &'a mut TenantQ {
        let labels = tenant_labels(server, tenant);
        tenants.entry(tenant).or_insert_with(|| TenantQ {
            queue: VecDeque::new(),
            deficit: 0,
            weight: weight.max(1),
            topped_up: false,
            in_ring: false,
            queued_ns: ctx.metrics().counter_at("dafs.sched.queued_ns", labels),
            boosts: ctx.metrics().counter_at("dafs.sched.boosts", labels),
        })
    }

    fn finish_pop(&mut self, ctx: &ActorCtx, tenant: u64, req: QueuedReq) -> Option<QueuedReq> {
        let tq = self.tenants.get_mut(&tenant).expect("tenant present");
        tq.queued_ns.add(ctx.now().since(req.arrival).as_nanos());
        self.len -= 1;
        Some(req)
    }
}

impl RequestSched for WfqSched {
    fn reorders(&self) -> bool {
        true
    }

    fn push(&mut self, ctx: &ActorCtx, req: QueuedReq) {
        let tenant = req.tenant;
        let tq = Self::tenant_entry(&mut self.tenants, ctx, self.server, tenant, req.weight);
        tq.queue.push_back(req);
        if !tq.in_ring {
            tq.in_ring = true;
            self.ring.push_back(tenant);
        }
        self.len += 1;
    }

    fn pop(&mut self, ctx: &ActorCtx) -> Option<QueuedReq> {
        if self.len == 0 {
            return None;
        }
        let now = ctx.now();
        // Deadline lane: the earliest-arrived small op whose deadline has
        // expired jumps the ring. Only queue heads are eligible so each
        // tenant's own frames never reorder against each other.
        let mut boost: Option<(u64, u64)> = None; // (arrival_ns, tenant)
        for (tid, tq) in &self.tenants {
            if let Some(head) = tq.queue.front() {
                if head.small && now.since(head.arrival) >= self.params.boost_deadline {
                    let a = head.arrival.as_nanos();
                    if boost.is_none_or(|(ba, _)| a < ba) {
                        boost = Some((a, *tid));
                    }
                }
            }
        }
        if let Some((_, tid)) = boost {
            let tq = self.tenants.get_mut(&tid).expect("boost tenant");
            let req = tq.queue.pop_front().expect("boost head");
            tq.boosts.inc();
            // Boosted bytes still drain the deficit: the boost buys
            // latency, never extra bandwidth share.
            tq.deficit = tq.deficit.saturating_sub(req.cost);
            return self.finish_pop(ctx, tid, req);
        }
        // DRR main lane.
        loop {
            let tid = *self.ring.front()?;
            let tq = self.tenants.get_mut(&tid).expect("ring tenant");
            if tq.queue.is_empty() {
                tq.in_ring = false;
                tq.topped_up = false;
                tq.deficit = 0;
                self.ring.pop_front();
                continue;
            }
            if !tq.topped_up {
                tq.deficit = tq
                    .deficit
                    .saturating_add(self.params.quantum.saturating_mul(tq.weight as u64));
                tq.topped_up = true;
            }
            let cost = tq.queue.front().expect("head").cost;
            if tq.deficit >= cost {
                let req = tq.queue.pop_front().expect("head");
                tq.deficit -= cost;
                return self.finish_pop(ctx, tid, req);
            }
            // Deficit exhausted: yield the round to the next tenant. The
            // deficit carries over, so a frame wider than one quantum is
            // reached after finitely many rounds (starvation freedom).
            tq.topped_up = false;
            let front = self.ring.pop_front().expect("ring front");
            self.ring.push_back(front);
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn drop_session(&mut self, vi: ViId) {
        for tq in self.tenants.values_mut() {
            let before = tq.queue.len();
            tq.queue.retain(|q| q.vi != vi);
            self.len -= before - tq.queue.len();
        }
        // Emptied tenants fall out of the ring lazily in `pop`.
    }

    fn set_weight(&mut self, tenant: u64, weight: u32) {
        if let Some(tq) = self.tenants.get_mut(&tenant) {
            tq.weight = weight.max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimKernel;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn req(vi: u64, tenant: u64, weight: u32, cost: u64, small: bool, at: SimTime) -> QueuedReq {
        QueuedReq {
            vi: ViId(vi),
            tenant,
            weight,
            cost,
            small,
            arrival: at,
            frame: Bytes::from_vec(vec![0u8; 8]),
        }
    }

    fn in_kernel(f: impl FnOnce(&ActorCtx) + Send + 'static) {
        let k = SimKernel::new();
        let done = Arc::new(AtomicBool::new(false));
        let d = done.clone();
        k.spawn("sched-test", move |ctx| {
            f(ctx);
            d.store(true, Ordering::Relaxed);
        });
        k.run();
        assert!(done.load(Ordering::Relaxed));
    }

    #[test]
    fn fifo_is_an_identity_queue() {
        in_kernel(|ctx| {
            let mut s = FifoSched::new();
            assert!(!s.reorders());
            for i in 0..5u64 {
                s.push(ctx, req(i, i % 2, 1, 1000 * (i + 1), false, ctx.now()));
            }
            for i in 0..5u64 {
                assert_eq!(s.pop(ctx).unwrap().vi, ViId(i));
            }
            assert!(s.is_empty());
        });
    }

    #[test]
    fn drr_shares_follow_weights() {
        in_kernel(|ctx| {
            let mut s = WfqSched::new(
                WfqParams {
                    quantum: 4096,
                    boost_deadline: SimDuration::from_micros(1_000_000),
                },
                HostId(0),
            );
            // Two backlogged tenants, weight 3:1, equal-cost frames.
            for i in 0..64u64 {
                s.push(ctx, req(1, 1, 3, 4096, false, ctx.now()));
                s.push(ctx, req(2, 2, 1, 4096, false, ctx.now()));
                let _ = i;
            }
            let mut served = [0u64; 3];
            for _ in 0..32 {
                let q = s.pop(ctx).unwrap();
                served[q.tenant as usize] += q.cost;
            }
            let ratio = served[1] as f64 / served[2] as f64;
            assert!(
                (2.0..4.5).contains(&ratio),
                "weight-3 tenant got {ratio}x the bytes, want ~3x"
            );
        });
    }

    #[test]
    fn expired_small_op_jumps_the_ring() {
        in_kernel(|ctx| {
            let mut s = WfqSched::new(
                WfqParams {
                    quantum: 1 << 20,
                    boost_deadline: SimDuration::from_micros(10),
                },
                HostId(0),
            );
            // Bulk tenant backlog first, then a small op from another
            // tenant that has already waited past its deadline.
            for _ in 0..8 {
                s.push(ctx, req(1, 1, 1, 1 << 20, false, ctx.now()));
            }
            let early = ctx.now();
            ctx.advance(SimDuration::from_micros(50));
            s.push(ctx, req(2, 2, 1, 64, true, early));
            let first = s.pop(ctx).unwrap();
            assert_eq!(first.tenant, 2, "expired small op must dispatch first");
            let boosts = ctx
                .metrics()
                .counter_at("dafs.sched.boosts", tenant_labels(HostId(0), 2));
            assert_eq!(boosts.get(), 1);
        });
    }

    #[test]
    fn unexpired_small_op_waits_its_turn() {
        in_kernel(|ctx| {
            let mut s = WfqSched::new(
                WfqParams {
                    quantum: 1 << 20,
                    boost_deadline: SimDuration::from_micros(10_000),
                },
                HostId(0),
            );
            s.push(ctx, req(1, 1, 1, 1 << 20, false, ctx.now()));
            s.push(ctx, req(2, 2, 1, 64, true, ctx.now()));
            // No deadline has expired: plain DRR order (tenant 1 first).
            assert_eq!(s.pop(ctx).unwrap().tenant, 1);
            assert_eq!(s.pop(ctx).unwrap().tenant, 2);
        });
    }

    #[test]
    fn oversize_frame_is_reached_across_rounds() {
        in_kernel(|ctx| {
            let mut s = WfqSched::new(
                WfqParams {
                    quantum: 4096,
                    boost_deadline: SimDuration::from_micros(1_000_000),
                },
                HostId(0),
            );
            // A frame 8 quanta wide must still dispatch (deficit carries
            // over), even while a second tenant keeps its queue hot.
            s.push(ctx, req(1, 1, 1, 8 * 4096, false, ctx.now()));
            for _ in 0..32 {
                s.push(ctx, req(2, 2, 1, 4096, false, ctx.now()));
            }
            let mut seen_big = false;
            for _ in 0..20 {
                if let Some(q) = s.pop(ctx) {
                    if q.tenant == 1 {
                        seen_big = true;
                        break;
                    }
                }
            }
            assert!(seen_big, "wide frame starved");
        });
    }

    #[test]
    fn drop_session_removes_only_that_vi() {
        in_kernel(|ctx| {
            let mut s = WfqSched::new(WfqParams::default(), HostId(0));
            s.push(ctx, req(1, 1, 1, 100, false, ctx.now()));
            s.push(ctx, req(2, 1, 1, 100, false, ctx.now()));
            s.push(ctx, req(3, 2, 1, 100, false, ctx.now()));
            s.drop_session(ViId(1));
            let mut vis = Vec::new();
            while let Some(q) = s.pop(ctx) {
                vis.push(q.vi.0);
            }
            vis.sort_unstable();
            assert_eq!(vis, vec![2, 3]);
            assert!(s.is_empty());
        });
    }
}
