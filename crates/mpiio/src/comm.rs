//! The message-passing substrate: a simulated MPI communicator.
//!
//! Each rank is a `simnet` actor on its own host (one process per node,
//! the paper-era cluster shape). Point-to-point messages carry
//! `(source, tag)` for MPI matching semantics; collectives — barrier,
//! bcast, allreduce, allgather, alltoallv — are built from point-to-point
//! with the textbook algorithms (dissemination, binomial tree, ring; an
//! `alltoallv` posts every send before its first receive).
//!
//! The interconnect model mirrors the VIA rail: per-host transmit/receive
//! wire resources, fixed one-way latency, per-message host CPU cost. It is
//! a *separate* rail from the storage network (dedicated MPI network, as on
//! the paper-era clusters), so MPI traffic and file traffic don't contend.
//!
//! Each side books its own wire. The sender books its `tx_wire` and hands
//! the receiver an envelope when the first byte arrives (`tx_start +
//! latency`); the receiver books its `rx_wire` when it takes that envelope
//! off its port. The port yields envelopes in arrival order, so the
//! receive wire is booked in arrival order, as [`Resource`] requires: a
//! sender whose own wire is backed up cannot reserve the receiver's wire
//! ahead of a message that gets there first. A matched receive returns
//! once the last byte is in, plus the per-message CPU.

use std::sync::Arc;

use obs::LazyCounter;
use parking_lot::Mutex;
use simnet::time::units::*;
use simnet::{ActorCtx, Bandwidth, Host, Port, Resource, SimDuration, SimTime};

/// Interconnect cost constants (VIA-class network).
#[derive(Debug, Clone, Copy)]
pub struct CommCost {
    /// One-way wire + switch latency.
    pub latency: SimDuration,
    /// Wire rate per host port direction.
    pub bw: Bandwidth,
    /// Sender/receiver CPU per message (post + poll).
    pub per_msg_cpu: SimDuration,
}

impl Default for CommCost {
    fn default() -> Self {
        CommCost {
            latency: us(7),
            bw: Bandwidth::mb_per_sec(110),
            per_msg_cpu: SimDuration::from_nanos(800),
        }
    }
}

struct Envelope {
    src: usize,
    tag: u32,
    data: Vec<u8>,
    /// When the first byte reaches the receiver's port.
    head: SimTime,
    /// Serialisation time on the receiver's wire.
    ser: SimDuration,
}

struct RankEndpoint {
    incoming: Port<Envelope>,
    tx_wire: Resource,
    rx_wire: Resource,
    host: Host,
}

struct WorldInner {
    cost: CommCost,
    endpoints: Vec<RankEndpoint>,
    /// Messages and their bytes: the job's `mpi.msgs` and `mpi.bytes`.
    msgs: LazyCounter,
    bytes: LazyCounter,
}

/// The shared communicator fabric; create once, then hand a [`Comm`] to
/// each rank actor via [`CommWorld::comm`].
#[derive(Clone)]
pub struct CommWorld {
    inner: Arc<WorldInner>,
}

impl CommWorld {
    /// Build a world of `hosts.len()` ranks, rank i on `hosts[i]`.
    pub fn new(cost: CommCost, hosts: Vec<Host>) -> CommWorld {
        let endpoints = hosts
            .into_iter()
            .enumerate()
            .map(|(i, host)| RankEndpoint {
                incoming: Port::new(&format!("mpi-rank{i}")),
                tx_wire: Resource::new(&format!("mpi{i}.tx")),
                rx_wire: Resource::new(&format!("mpi{i}.rx")),
                host,
            })
            .collect();
        CommWorld {
            inner: Arc::new(WorldInner {
                cost,
                endpoints,
                msgs: LazyCounter::new("mpi.msgs"),
                bytes: LazyCounter::new("mpi.bytes"),
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.endpoints.len()
    }

    /// The handle rank `rank`'s actor uses.
    pub fn comm(&self, rank: usize) -> Comm {
        assert!(rank < self.size());
        Comm {
            world: self.clone(),
            rank,
            unexpected: Mutex::new(Vec::new()),
            coll_seq: Mutex::new(0),
        }
    }

    /// Snapshot of the communicator's traffic counters so far.
    pub fn traffic(&self) -> TrafficStats {
        TrafficStats {
            msgs: self.inner.msgs.get(),
            bytes: self.inner.bytes.get(),
        }
    }
}

/// A point-in-time snapshot of message-layer traffic, read with
/// [`CommWorld::traffic`]. Named fields replace the old positional tuple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Point-to-point messages sent.
    pub msgs: u64,
    /// Payload bytes carried by those messages.
    pub bytes: u64,
}

/// Tag space reserved for collectives (user tags must stay below).
const COLL_TAG_BASE: u32 = 0x8000_0000;

/// One rank's communicator handle. Owned by that rank's actor.
pub struct Comm {
    world: CommWorld,
    rank: usize,
    /// Messages received but not yet matched (MPI unexpected queue), each
    /// with the instant its last byte is in.
    unexpected: Mutex<Vec<(SimTime, Envelope)>>,
    /// Collective sequence number; identical across ranks because MPI
    /// requires identical collective call order.
    coll_seq: Mutex<u32>,
}

impl Comm {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// This rank's host.
    pub fn host(&self) -> &Host {
        &self.world.inner.endpoints[self.rank].host
    }

    /// Send `data` to `dst` with `tag` (eager; returns after injecting).
    /// The payload is copied once, into the message.
    pub fn send(&self, ctx: &ActorCtx, dst: usize, tag: u32, data: &[u8]) {
        self.post(ctx, dst, tag, data.to_vec());
    }

    /// The one send path: `data` travels as it is, its buffer moved into
    /// the envelope and out to the matching receive.
    fn post(&self, ctx: &ActorCtx, dst: usize, tag: u32, data: Vec<u8>) {
        let w = &self.world.inner;
        assert!(dst < w.endpoints.len(), "send to invalid rank {dst}");
        let me = &w.endpoints[self.rank];
        let peer = &w.endpoints[dst];
        me.host.compute(ctx, w.cost.per_msg_cpu);
        w.msgs.resolve(ctx.metrics()).inc();
        w.bytes.resolve(ctx.metrics()).add(data.len() as u64);
        let ser = w.cost.bw.time_for(data.len() as u64);
        let (tx_start, _) = me.tx_wire.book_span(ctx.now(), ser);
        let head = tx_start + w.cost.latency;
        let e = Envelope {
            src: self.rank,
            tag,
            data,
            head,
            ser,
        };
        peer.incoming.send(ctx, e, head);
    }

    /// Receive a message matching `(src, tag)`; `None` acts as a wildcard.
    /// Returns `(src, tag, data)`.
    pub fn recv(
        &self,
        ctx: &ActorCtx,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> (usize, u32, Vec<u8>) {
        let w = &self.world.inner;
        let me = &w.endpoints[self.rank];
        loop {
            {
                let mut q = self.unexpected.lock();
                if let Some(pos) = q.iter().position(|(_, e)| {
                    src.is_none_or(|s| s == e.src) && tag.is_none_or(|t| t == e.tag)
                }) {
                    let (done, e) = q.remove(pos);
                    drop(q);
                    ctx.sleep_until(done);
                    me.host.compute(ctx, w.cost.per_msg_cpu);
                    return (e.src, e.tag, e.data);
                }
            }
            match me.incoming.recv(ctx) {
                // Taken in head order, so the wire is booked in arrival order.
                Some(e) => {
                    let done = me.rx_wire.book(e.head, e.ser);
                    self.unexpected.lock().push((done, e));
                }
                None => panic!("rank {} communicator closed mid-recv", self.rank),
            }
        }
    }

    fn next_coll_tag(&self) -> u32 {
        let mut s = self.coll_seq.lock();
        *s = s.wrapping_add(1);
        COLL_TAG_BASE + (*s % 0x0100_0000)
    }

    /// Barrier (dissemination algorithm, ⌈log₂ p⌉ rounds).
    pub fn barrier(&self, ctx: &ActorCtx) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let base = self.next_coll_tag();
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let to = (self.rank + dist) % p;
            let from = (self.rank + p - dist) % p;
            self.send(ctx, to, base + (round << 8), &[]);
            self.recv(ctx, Some(from), Some(base + (round << 8)));
            dist <<= 1;
            round += 1;
        }
    }

    /// Broadcast from `root` (binomial tree). All ranks pass their buffer;
    /// non-roots receive into it.
    pub fn bcast(&self, ctx: &ActorCtx, root: usize, data: &mut Vec<u8>) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let tag = self.next_coll_tag();
        // Rotate ranks so root is virtual rank 0.
        let vrank = (self.rank + p - root) % p;
        // Receive from parent (unless root).
        if vrank != 0 {
            let mut mask = 1usize;
            while mask <= vrank {
                mask <<= 1;
            }
            mask >>= 1;
            let vparent = vrank - mask;
            let parent = (vparent + root) % p;
            let (_, _, d) = self.recv(ctx, Some(parent), Some(tag));
            *data = d;
        }
        // Forward to children.
        let mut mask = 1usize;
        while mask <= vrank {
            mask <<= 1;
        }
        while mask < p {
            let vchild = vrank + mask;
            if vchild < p {
                let child = (vchild + root) % p;
                self.send(ctx, child, tag, data);
            }
            mask <<= 1;
        }
    }

    /// All-gather: every rank contributes `data`; returns all contributions
    /// indexed by rank (ring algorithm; handles variable sizes).
    pub fn allgather(&self, ctx: &ActorCtx, data: &[u8]) -> Vec<Vec<u8>> {
        let p = self.size();
        let tag = self.next_coll_tag();
        let mut slots: Vec<Vec<u8>> = vec![Vec::new(); p];
        slots[self.rank] = data.to_vec();
        if p == 1 {
            return slots;
        }
        let right = (self.rank + 1) % p;
        let left = (self.rank + p - 1) % p;
        // Ring: in step s, forward the piece originally from rank-s.
        for s in 0..p - 1 {
            let send_origin = (self.rank + p - s) % p;
            let piece = slots[send_origin].clone();
            self.send(ctx, right, tag, &piece);
            let (_, _, d) = self.recv(ctx, Some(left), Some(tag));
            let recv_origin = (self.rank + p - s - 1) % p;
            slots[recv_origin] = d;
        }
        slots
    }

    /// All-reduce of one u64 with the given operation.
    pub fn allreduce_u64(&self, ctx: &ActorCtx, op: ReduceOp, v: u64) -> u64 {
        let all = self.allgather(ctx, &v.to_le_bytes());
        let vals = all
            .iter()
            .map(|b| u64::from_le_bytes(b.as_slice().try_into().unwrap()));
        match op {
            ReduceOp::Sum => vals.sum(),
            ReduceOp::Max => vals.max().unwrap(),
            ReduceOp::Min => vals.min().unwrap(),
        }
    }

    /// Personalized all-to-all with per-destination payloads; returns the
    /// payloads received, indexed by source. Takes the payloads by value:
    /// each buffer is moved to its receiver, this rank's own straight into
    /// its slot, so no byte is copied on the way.
    pub fn alltoallv(&self, ctx: &ActorCtx, mut sends: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let p = self.size();
        assert_eq!(sends.len(), p, "alltoallv needs one payload per rank");
        let tag = self.next_coll_tag();
        let mut recvs: Vec<Vec<u8>> = vec![Vec::new(); p];
        recvs[self.rank] = std::mem::take(&mut sends[self.rank]);
        // Every send is posted before the first receive (sends are eager),
        // rank + s in step s, so each wire streams back to back and the
        // receives, from rank - s, come in the order they were sent.
        for s in 1..p {
            let to = (self.rank + s) % p;
            self.post(ctx, to, tag, std::mem::take(&mut sends[to]));
        }
        for s in 1..p {
            let from = (self.rank + p - s) % p;
            let (_, _, d) = self.recv(ctx, Some(from), Some(tag));
            recvs[from] = d;
        }
        recvs
    }

    /// Exclusive prefix sum of a u64 (rank 0 gets 0).
    pub fn exscan_u64(&self, ctx: &ActorCtx, v: u64) -> u64 {
        let all = self.allgather(ctx, &v.to_le_bytes());
        all[..self.rank]
            .iter()
            .map(|b| u64::from_le_bytes(b.as_slice().try_into().unwrap()))
            .sum()
    }
}

/// Reduction operations for [`Comm::allreduce_u64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum.
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

/// Spawn `n` rank actors running `body(ctx, comm)`; returns the world.
///
/// Hosts are created in `cluster` (one per rank). The kernel must be run
/// by the caller afterwards.
pub fn spawn_ranks<F>(
    kernel: &simnet::SimKernel,
    cluster: &simnet::Cluster,
    cost: CommCost,
    n: usize,
    body: F,
) -> CommWorld
where
    F: Fn(&ActorCtx, &Comm) + Send + Sync + 'static,
{
    let hosts: Vec<Host> = (0..n)
        .map(|i| cluster.add_host(&format!("rank{i}")))
        .collect();
    let world = CommWorld::new(cost, hosts);
    let body = Arc::new(body);
    for r in 0..n {
        let comm = world.comm(r);
        let body = body.clone();
        kernel.spawn(&format!("rank{r}"), move |ctx| {
            body(ctx, &comm);
        });
    }
    world
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Cluster, SimKernel};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn run_world<F>(n: usize, body: F) -> CommWorld
    where
        F: Fn(&ActorCtx, &Comm) + Send + Sync + 'static,
    {
        let kernel = SimKernel::new();
        let cluster = Cluster::new();
        let world = spawn_ranks(&kernel, &cluster, CommCost::default(), n, body);
        kernel.run();
        world
    }

    #[test]
    fn pt2pt_roundtrip() {
        run_world(2, |ctx, comm| match comm.rank() {
            0 => {
                comm.send(ctx, 1, 7, b"ping");
                let (src, tag, d) = comm.recv(ctx, Some(1), Some(8));
                assert_eq!((src, tag, d.as_slice()), (1, 8, b"pong".as_slice()));
            }
            _ => {
                let (_, _, d) = comm.recv(ctx, Some(0), Some(7));
                assert_eq!(d, b"ping");
                comm.send(ctx, 0, 8, b"pong");
            }
        });
    }

    #[test]
    fn tag_matching_skips_nonmatching() {
        run_world(2, |ctx, comm| match comm.rank() {
            0 => {
                comm.send(ctx, 1, 1, b"first");
                comm.send(ctx, 1, 2, b"second");
            }
            _ => {
                // Ask for tag 2 first: must match the second message.
                let (_, _, d2) = comm.recv(ctx, Some(0), Some(2));
                assert_eq!(d2, b"second");
                let (_, _, d1) = comm.recv(ctx, Some(0), Some(1));
                assert_eq!(d1, b"first");
            }
        });
    }

    #[test]
    fn wildcard_recv() {
        run_world(3, |ctx, comm| {
            if comm.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let (src, _, _) = comm.recv(ctx, None, Some(5));
                    seen.push(src);
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![1, 2]);
            } else {
                comm.send(ctx, 0, 5, &[comm.rank() as u8]);
            }
        });
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let maxes = Arc::new(AtomicU64::new(0));
        let mins = Arc::new(AtomicU64::new(u64::MAX));
        let (mx, mn) = (maxes.clone(), mins.clone());
        run_world(4, move |ctx, comm| {
            // Stagger ranks widely, then barrier.
            ctx.advance(us(comm.rank() as u64 * 500));
            comm.barrier(ctx);
            let t = ctx.now().as_nanos();
            mx.fetch_max(t, Ordering::Relaxed);
            mn.fetch_min(t, Ordering::Relaxed);
        });
        let spread = maxes.load(Ordering::Relaxed) - mins.load(Ordering::Relaxed);
        // After a barrier every rank is past the slowest rank's entry
        // (1500us); spread is bounded by a few message latencies.
        assert!(mins.load(Ordering::Relaxed) >= 1_500_000);
        assert!(spread < 100_000, "barrier exit spread {spread}ns");
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..4 {
            run_world(4, move |ctx, comm| {
                let mut data = if comm.rank() == root {
                    vec![42u8; 1000]
                } else {
                    Vec::new()
                };
                comm.bcast(ctx, root, &mut data);
                assert_eq!(data, vec![42u8; 1000], "rank {}", comm.rank());
            });
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        run_world(5, |ctx, comm| {
            let mine = vec![comm.rank() as u8; comm.rank() + 1]; // variable sizes
            let all = comm.allgather(ctx, &mine);
            for (r, piece) in all.iter().enumerate() {
                assert_eq!(piece, &vec![r as u8; r + 1], "slot {r}");
            }
        });
    }

    #[test]
    fn allreduce_ops() {
        run_world(4, |ctx, comm| {
            let v = (comm.rank() as u64 + 1) * 10;
            assert_eq!(comm.allreduce_u64(ctx, ReduceOp::Sum, v), 100);
            assert_eq!(comm.allreduce_u64(ctx, ReduceOp::Max, v), 40);
            assert_eq!(comm.allreduce_u64(ctx, ReduceOp::Min, v), 10);
        });
    }

    #[test]
    fn alltoallv_personalized_exchange() {
        run_world(4, |ctx, comm| {
            let p = comm.size();
            // Rank r sends "r*10+d" repeated (d+1) times to destination d.
            let sends: Vec<Vec<u8>> = (0..p)
                .map(|d| vec![(comm.rank() * 10 + d) as u8; d + 1])
                .collect();
            let recvs = comm.alltoallv(ctx, sends);
            for (s, got) in recvs.iter().enumerate() {
                let expect = vec![(s * 10 + comm.rank()) as u8; comm.rank() + 1];
                assert_eq!(got, &expect, "from rank {s}");
            }
        });
    }

    #[test]
    fn alltoallv_moves_each_payload_without_copying_it() {
        // ptrs[s * p + d]: where rank s's payload for rank d lives as sent.
        const P: usize = 4;
        let ptrs: Arc<Vec<AtomicU64>> = Arc::new((0..P * P).map(|_| AtomicU64::new(0)).collect());
        let seen = ptrs.clone();
        run_world(P, move |ctx, comm| {
            let me = comm.rank();
            let sends: Vec<Vec<u8>> = (0..P).map(|d| vec![me as u8; 64 + d]).collect();
            for (d, msg) in sends.iter().enumerate() {
                seen[me * P + d].store(msg.as_ptr() as u64, Ordering::Relaxed);
            }
            let recvs = comm.alltoallv(ctx, sends);
            for (s, got) in recvs.iter().enumerate() {
                let sent = seen[s * P + me].load(Ordering::Relaxed);
                assert_eq!(
                    got.as_ptr() as u64,
                    sent,
                    "rank {me}'s payload from {s} was copied"
                );
                assert_eq!(got, &vec![s as u8; 64 + me]);
            }
        });
    }

    #[test]
    fn a_receiver_books_its_wire_in_arrival_order() {
        // Rank 0's wire is backed up behind 1 MiB, so its 4 KiB for rank 2
        // leaves ~9.5 ms in. Rank 3's 4 KiB, sent a microsecond in, gets
        // to rank 2 first and must not queue behind it.
        let sent = Arc::new(AtomicU64::new(0));
        let got = Arc::new(AtomicU64::new(0));
        let (s2, g2) = (sent.clone(), got.clone());
        run_world(4, move |ctx, comm| match comm.rank() {
            0 => {
                comm.send(ctx, 1, 1, &vec![0u8; 1 << 20]);
                comm.send(ctx, 2, 1, &[0u8; 4096]);
            }
            1 => {
                comm.recv(ctx, Some(0), Some(1));
            }
            2 => {
                comm.recv(ctx, Some(3), Some(1));
                g2.store(ctx.now().as_nanos(), Ordering::Relaxed);
                comm.recv(ctx, Some(0), Some(1));
            }
            _ => {
                ctx.advance(us(1));
                comm.send(ctx, 2, 1, &[0u8; 4096]);
                s2.store(ctx.now().as_nanos(), Ordering::Relaxed);
            }
        });
        let c = CommCost::default();
        let want = c.latency + c.bw.time_for(4096) + c.per_msg_cpu;
        let took = got.load(Ordering::Relaxed) - sent.load(Ordering::Relaxed);
        assert_eq!(took, want.as_nanos());
    }

    #[test]
    fn alltoallv_finishes_within_its_own_wires_bound() {
        // Every rank's 7 sends go out back to back and its 7 receives come
        // in one per slot, so the exchange takes one wire's worth of
        // serialisation plus one latency; pairwise steps would pay the
        // latency 7 times.
        let last = Arc::new(AtomicU64::new(0));
        let l2 = last.clone();
        run_world(8, move |ctx, comm| {
            let sends = vec![vec![comm.rank() as u8; 8192]; comm.size()];
            comm.alltoallv(ctx, sends);
            l2.fetch_max(ctx.now().as_nanos(), Ordering::Relaxed);
        });
        let c = CommCost::default();
        let bound = c.bw.time_for(8192) * 7 + c.latency + c.per_msg_cpu * 14;
        let last = last.load(Ordering::Relaxed);
        assert!(last <= bound.as_nanos(), "{last} ns > {bound}");
    }

    #[test]
    fn exscan_prefix_sums() {
        run_world(4, |ctx, comm| {
            let v = (comm.rank() as u64 + 1) * 100;
            let pre = comm.exscan_u64(ctx, v);
            let expect: u64 = (1..=comm.rank() as u64).map(|r| r * 100).sum();
            assert_eq!(pre, expect);
        });
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        run_world(1, |ctx, comm| {
            comm.barrier(ctx);
            let mut d = vec![1, 2, 3];
            comm.bcast(ctx, 0, &mut d);
            assert_eq!(d, vec![1, 2, 3]);
            assert_eq!(comm.allgather(ctx, &d), vec![vec![1, 2, 3]]);
            assert_eq!(comm.allreduce_u64(ctx, ReduceOp::Sum, 9), 9);
            assert_eq!(comm.alltoallv(ctx, vec![vec![7]]), vec![vec![7]]);
        });
    }

    #[test]
    fn traffic_counters_advance() {
        let w = run_world(2, |ctx, comm| {
            if comm.rank() == 0 {
                comm.send(ctx, 1, 1, &[0u8; 1000]);
            } else {
                comm.recv(ctx, Some(0), Some(1));
            }
        });
        let t = w.traffic();
        assert_eq!(t.msgs, 1);
        assert_eq!(t.bytes, 1000);
    }

    #[test]
    fn bandwidth_bound_large_message() {
        let dur = Arc::new(AtomicU64::new(0));
        let d2 = dur.clone();
        run_world(2, move |ctx, comm| {
            if comm.rank() == 0 {
                comm.send(ctx, 1, 1, &vec![0u8; 1 << 20]);
            } else {
                let t0 = ctx.now();
                comm.recv(ctx, Some(0), Some(1));
                d2.store(ctx.now().since(t0).as_nanos(), Ordering::Relaxed);
            }
        });
        let mb_s = (1 << 20) as f64 / (dur.load(Ordering::Relaxed) as f64 / 1e9) / 1e6;
        assert!((95.0..111.0).contains(&mb_s), "MPI msg rate = {mb_s} MB/s");
    }
}
