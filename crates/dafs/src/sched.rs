//! Request scheduling for the DAFS server worker.
//!
//! The server's own dispatch serves each frame as the CQ surfaces it, the
//! paper's event loop. That lets a checkpoint burst from one tenant
//! monopolize the single worker while an interactive tenant's getattrs sit
//! behind megabytes of queued bulk I/O.
//!
//! [`WfqSched`] adds weighted fair queueing in the spirit of
//! server-directed I/O (ViPIOS) and DAOS-style tenant separation:
//!
//! * **Deficit round-robin over byte cost** — each tenant owns a FIFO of
//!   its queued frames; tenants are visited round-robin and may dispatch
//!   while their deficit counter covers the head frame's byte cost, the
//!   counter refilling by `QUANTUM × weight` per visit. Service converges
//!   to weight-proportional byte shares without ever preempting a frame.
//! * **Deadline boost for small ops** — getattrs and ≤inline reads carry an
//!   implicit deadline (`BOOST_DEADLINE` past arrival). An expired small op
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
    /// No scheduler: each frame is served on receipt, in completion order.
    Fifo,
    /// Weighted fair queueing across tenants with small-op deadline boost.
    Wfq,
}

/// The labels of a tenant's `dafs.sched.*` series on the server `server`.
pub fn tenant_labels(server: HostId, tenant: u64) -> Labels {
    Labels::NONE.server(server.0 as u64).tenant(tenant)
}

/// Deficit refill per round-robin visit, in bytes, scaled by the tenant's
/// weight. One quantum covers a couple of inline ops; bulk frames spanning
/// several quanta simply accumulate deficit across rounds (DRR's
/// starvation-freedom argument).
pub const QUANTUM: u64 = 64 << 10;

/// Queueing delay after which a small op (getattr, ≤inline read) jumps the
/// round-robin.
pub const BOOST_DEADLINE: SimDuration = SimDuration::from_micros(50);

/// One received request frame waiting for dispatch.
pub struct QueuedReq {
    /// Session the frame arrived on.
    pub vi: ViId,
    /// Tenant the session belongs to ([`DEFAULT_TENANT`] if undeclared).
    pub tenant: u64,
    /// Weight the session's Hello declared (1 if none); pushing the frame
    /// sets its tenant's weight to it.
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
/// The cost drives DRR fairness, so it counts the bytes the op will move:
/// a read's decoded length on top of its frame, and a write's frame alone,
/// which carries its payload (every write is inline). Malformed frames
/// cost their own length and are left for `serve_one` to reject.
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
        DafsOp::ReadList => {
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
            (flen + total, false)
        }
        // Metadata, control, and write ops: the frame length is the work
        // (write payloads, listed or not, ride in the frame).
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

/// Whether an op bypasses the [`WfqSched`] queue and is served on receipt.
///
/// `Hello` (session/tenant binding), `Disconnect`, and `LeaseRecallAck`
/// are control traffic: parking a recall ack behind a bulk backlog would
/// wedge every request blocked on that recall behind the very tenant the
/// scheduler is throttling (a priority inversion). A server without a
/// scheduler never asks: it serves every frame on receipt.
pub fn control_op(req: &Bytes) -> bool {
    let mut d = Dec::new(req);
    matches!(
        proto::dec_req_header(&mut d),
        Ok((_, DafsOp::Hello)) | Ok((_, DafsOp::Disconnect)) | Ok((_, DafsOp::LeaseRecallAck))
    )
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
    /// The server host: its tenants' series carry it.
    server: HostId,
    tenants: BTreeMap<u64, TenantQ>,
    /// Round-robin ring of tenant ids with queued work, in visit order.
    ring: VecDeque<u64>,
    len: usize,
}

impl WfqSched {
    /// Create an empty WFQ scheduler for the server on `server`.
    pub fn new(server: HostId) -> WfqSched {
        WfqSched {
            server,
            tenants: BTreeMap::new(),
            ring: VecDeque::new(),
            len: 0,
        }
    }

    fn finish_pop(&mut self, ctx: &ActorCtx, tenant: u64, req: QueuedReq) -> Option<QueuedReq> {
        let tq = self.tenants.get_mut(&tenant).expect("tenant present");
        tq.queued_ns.add(ctx.now().since(req.arrival).as_nanos());
        self.len -= 1;
        Some(req)
    }

    /// Enqueue one received frame. Its weight becomes its tenant's.
    pub fn push(&mut self, ctx: &ActorCtx, req: QueuedReq) {
        let tenant = req.tenant;
        let labels = tenant_labels(self.server, tenant);
        let tq = self.tenants.entry(tenant).or_insert_with(|| TenantQ {
            queue: VecDeque::new(),
            deficit: 0,
            weight: 1,
            topped_up: false,
            in_ring: false,
            queued_ns: ctx.metrics().counter_at("dafs.sched.queued_ns", labels),
            boosts: ctx.metrics().counter_at("dafs.sched.boosts", labels),
        });
        tq.weight = req.weight.max(1);
        tq.queue.push_back(req);
        if !tq.in_ring {
            tq.in_ring = true;
            self.ring.push_back(tenant);
        }
        self.len += 1;
    }

    /// Next frame to serve, or `None` when idle.
    pub fn pop(&mut self, ctx: &ActorCtx) -> Option<QueuedReq> {
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
                if head.small && now.since(head.arrival) >= BOOST_DEADLINE {
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
                    .saturating_add(QUANTUM.saturating_mul(tq.weight as u64));
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

    /// Whether any frame is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every queued frame of a dead session (its VI is gone; serving
    /// its frames would panic on the missing session state).
    pub fn drop_session(&mut self, vi: ViId) {
        for tq in self.tenants.values_mut() {
            let before = tq.queue.len();
            tq.queue.retain(|q| q.vi != vi);
            self.len -= before - tq.queue.len();
        }
        // Emptied tenants fall out of the ring lazily in `pop`.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Enc;
    use simnet::{Rng64, SimKernel};
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
    fn drr_shares_follow_weights() {
        in_kernel(|ctx| {
            let mut s = WfqSched::new(HostId(0));
            // Two backlogged tenants, weight 3:1, frames one quantum wide.
            for _ in 0..64 {
                s.push(ctx, req(1, 1, 3, QUANTUM, false, ctx.now()));
                s.push(ctx, req(2, 2, 1, QUANTUM, false, ctx.now()));
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
            let mut s = WfqSched::new(HostId(0));
            // Bulk tenant backlog first, then a small op from another
            // tenant that has already waited past its deadline.
            for _ in 0..8 {
                s.push(ctx, req(1, 1, 1, QUANTUM, false, ctx.now()));
            }
            let early = ctx.now();
            ctx.advance(BOOST_DEADLINE * 2);
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
    fn a_boost_spends_the_tenants_deficit() {
        in_kernel(|ctx| {
            let mut s = WfqSched::new(HostId(0));
            s.push(ctx, req(1, 1, 1, QUANTUM / 4, false, ctx.now()));
            s.push(ctx, req(1, 1, 1, QUANTUM / 2, true, ctx.now()));
            s.push(ctx, req(1, 1, 1, QUANTUM / 2, false, ctx.now()));
            s.push(ctx, req(2, 2, 1, QUANTUM, false, ctx.now()));
            // Tenant 1's visit refills one quantum and spends a quarter.
            assert_eq!(s.pop(ctx).unwrap().cost, QUANTUM / 4);
            ctx.advance(BOOST_DEADLINE * 2);
            let boosted = s.pop(ctx).unwrap();
            assert!(boosted.small, "the expired small op is boosted");
            // The boost spent half a quantum, so the quarter left cannot
            // cover tenant 1's next frame: the round passes to tenant 2.
            assert_eq!(s.pop(ctx).unwrap().tenant, 2);
        });
    }

    #[test]
    fn unexpired_small_op_waits_its_turn() {
        in_kernel(|ctx| {
            let mut s = WfqSched::new(HostId(0));
            s.push(ctx, req(1, 1, 1, QUANTUM, false, ctx.now()));
            s.push(ctx, req(2, 2, 1, 64, true, ctx.now()));
            // No deadline has expired: plain DRR order (tenant 1 first).
            assert_eq!(s.pop(ctx).unwrap().tenant, 1);
            assert_eq!(s.pop(ctx).unwrap().tenant, 2);
        });
    }

    #[test]
    fn oversize_frame_is_reached_across_rounds() {
        in_kernel(|ctx| {
            let mut s = WfqSched::new(HostId(0));
            // A frame 8 quanta wide must still dispatch (deficit carries
            // over), even while a second tenant keeps its queue hot.
            s.push(ctx, req(1, 1, 1, 8 * QUANTUM, false, ctx.now()));
            for _ in 0..32 {
                s.push(ctx, req(2, 2, 1, QUANTUM, false, ctx.now()));
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
            let mut s = WfqSched::new(HostId(0));
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

    #[test]
    fn a_listed_write_costs_its_frame_as_an_unlisted_one_does() {
        let n = 3 * 4096u64;
        let data = vec![7u8; n as usize];
        let frame = |op, body: &dyn Fn(&mut Enc)| {
            let mut e = Enc::new();
            proto::enc_req_header(&mut e, 1, op);
            body(&mut e);
            Bytes::from_vec(e.finish())
        };
        let plain = frame(DafsOp::WriteInline, &|e| {
            e.u64(9).u64(0).bytes(&data);
        });
        let listed = frame(DafsOp::WriteList, &|e| {
            e.u64(9).u8(0);
            proto::enc_seg_list(e, &[(0, n / 2, 0), (n, n / 2, n / 2)]);
            e.bytes(&data);
        });
        // Both frames carry the payload once, and so does their cost: the
        // list's header and segments are all that set the two apart.
        let (plain_cost, _) = classify(&plain);
        let (listed_cost, _) = classify(&listed);
        assert_eq!(plain_cost, plain.len() as u64);
        assert_eq!(
            listed_cost - plain_cost,
            (listed.len() - plain.len()) as u64
        );
    }

    /// Deficit a tenant may hold: one refill on top of less than the
    /// widest frame it failed to cover.
    const MAX_COST: u64 = 3 * QUANTUM;

    /// One seeded run of random pushes, pops, clock advances on either
    /// side of `BOOST_DEADLINE` and session drops over three tenants,
    /// checked against a model of what is queued.
    fn interleave(ctx: &ActorCtx, seed: u64) {
        let mut rng = Rng64::new(seed);
        let weights: Vec<u32> = (0..3).map(|_| rng.range(1, 9) as u32).collect();
        let mut s = WfqSched::new(HostId(0));
        // Live sessions per tenant; a dropped VI is gone for good.
        let mut live: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut next_vi = 0u64;
        // Queued request ids (push order) and the tenant and VI of each.
        let mut queued: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut last_out: Vec<Option<u64>> = vec![None; 3];
        let mut check_pop = |q: QueuedReq, queued: &mut BTreeMap<u64, (u64, u64)>| {
            let id = u64::from_le_bytes(q.frame.as_slice().try_into().expect("id frame"));
            let Some((tenant, vi)) = queued.remove(&id) else {
                panic!("seed {seed}: request {id} came out but was not queued");
            };
            assert_eq!((q.tenant, q.vi), (tenant, ViId(vi)), "seed {seed}");
            let t = tenant as usize;
            assert!(
                last_out[t] < Some(id),
                "seed {seed}: tenant {tenant} served {id} after {:?}",
                last_out[t]
            );
            last_out[t] = Some(id);
        };
        for id in 0..600u64 {
            match rng.below(10) {
                0..=3 => {
                    let t = rng.below(3);
                    let sessions = &mut live[t as usize];
                    if sessions.is_empty() || rng.below(4) == 0 {
                        sessions.push(next_vi);
                        next_vi += 1;
                    }
                    let vi = sessions[rng.range_usize(0, sessions.len())];
                    let small = rng.below(3) == 0;
                    let cost = if small {
                        rng.range(64, 4097)
                    } else {
                        rng.range(64, MAX_COST + 1)
                    };
                    s.push(
                        ctx,
                        QueuedReq {
                            vi: ViId(vi),
                            tenant: t,
                            weight: weights[t as usize],
                            cost,
                            small,
                            arrival: ctx.now(),
                            frame: Bytes::from_vec(id.to_le_bytes().to_vec()),
                        },
                    );
                    queued.insert(id, (t, vi));
                }
                4..=6 => match s.pop(ctx) {
                    Some(q) => check_pop(q, &mut queued),
                    None => assert!(queued.is_empty(), "seed {seed}: idle with work queued"),
                },
                7 => ctx.advance(SimDuration::from_nanos(
                    rng.range(1, BOOST_DEADLINE.as_nanos()),
                )),
                8 => ctx.advance(BOOST_DEADLINE + SimDuration::from_nanos(rng.below(1_000))),
                _ => {
                    let sessions = &mut live[rng.below(3) as usize];
                    if !sessions.is_empty() {
                        let vi = sessions.swap_remove(rng.range_usize(0, sessions.len()));
                        s.drop_session(ViId(vi));
                        queued.retain(|_, &mut (_, v)| v != vi);
                    }
                }
            }
            assert_eq!(s.is_empty(), queued.is_empty(), "seed {seed}");
            for (tenant, tq) in &s.tenants {
                assert!(
                    tq.deficit <= QUANTUM * tq.weight as u64 + MAX_COST,
                    "seed {seed}: tenant {tenant} holds deficit {}",
                    tq.deficit
                );
            }
        }
        while let Some(q) = s.pop(ctx) {
            check_pop(q, &mut queued);
        }
        assert!(queued.is_empty(), "seed {seed}: {queued:?} never came out");
        assert!(s.is_empty());
    }

    #[test]
    fn random_interleavings_serve_each_live_request_once_in_tenant_order() {
        for seed in 0..64 {
            in_kernel(move |ctx| interleave(ctx, seed));
        }
    }
}
