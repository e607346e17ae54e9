//! Switched-fabric topology: one plane of cut-through switches with
//! bounded per-port egress queues.
//!
//! Every testbed before this module wired hosts point-to-point: a sender's
//! `tx_wire` resource fed the receiver's `rx_wire` directly, one propagation
//! delay apart. A production cluster interposes *switches*: shared egress
//! ports with bounded queues and oversubscribed trunks between leaves. This
//! module models exactly that, as timing arithmetic over the same
//! [`Resource`] primitive the point-to-point path uses:
//!
//! * A [`Switch`](SwitchConfig) is a set of egress ports, one per neighbour
//!   (host or switch). Each port serializes frames at its link rate on its
//!   own [`Resource`] and holds at most `queue_capacity` frames. When the
//!   bound is hit the switch [backpressures](QueuePolicy::Backpressure)
//!   (delays admission until a slot frees — link-level flow control, the
//!   lossless VIA-era default) or [drops](QueuePolicy::Drop) the frame.
//! * Forwarding is cut-through: an egress port may start once the first
//!   bit arrives, as the cLAN switches the paper ran on did.
//!
//! The switch is deliberately a **passive shared model object**, not a
//! spawned actor: the forwarding plane has no decisions to make that depend
//! on simulated time passing — every per-frame outcome (queue wait, service
//! span, drop) is a deterministic function of prior bookings, exactly like
//! [`Resource`] itself. An actor per switch would add context
//! switches without changing a single computed time.
//!
//! Each switch also allocates one *pseudo-host*, named after it, from the
//! [`Cluster`]. It runs nothing; it exists so the [`FaultPlan`] machinery
//! addresses fabric elements like hosts: `link_down(host, switch_host, ..)`
//! takes down a host's link to its switch, `host_crash(switch_host, ..)`
//! the whole switch. A frame whose path crosses a down link or switch drops
//! with [`DropCause::LinkDown`].
//!
//! With a single switch whose port rate equals the wire rate and whose two
//! hop latencies sum to the point-to-point propagation delay, the fabric is
//! **byte-identical in virtual time** to the direct wire — including under
//! incast, because the egress port pre-serializes flows in exactly the
//! order the receiver's `rx_wire` would have (an induction over `Resource`
//! bookings; asserted in `tests/determinism.rs`).

use std::collections::{BTreeMap, HashMap, VecDeque};

use parking_lot::Mutex;

use crate::fault::{DropCause, FaultPlan};
use crate::host::{Cluster, HostId};
use crate::kernel::ActorCtx;
use crate::resource::Resource;
use crate::time::{Bandwidth, SimDuration, SimTime};
use obs::Value;

/// What happens when an egress queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Delay admission until a buffer frees — models link-level flow
    /// control pushing back on the upstream hop (lossless, VIA-style).
    #[default]
    Backpressure,
    /// Drop the frame ([`DropCause::QueueFull`]); recovery is the
    /// transport's problem, as with a real Ethernet switch.
    Drop,
}

/// Per-switch configuration.
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Serialization rate of host-facing egress ports. (Switch-to-switch
    /// ports use the trunk's own bandwidth.)
    pub port_bw: Bandwidth,
    /// Maximum frames resident per egress port; `0` = unbounded.
    pub queue_capacity: usize,
    /// Backpressure or drop on full.
    pub policy: QueuePolicy,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            port_bw: Bandwidth::mb_per_sec(110),
            queue_capacity: 64,
            policy: QueuePolicy::default(),
        }
    }
}

/// Handle to a switch within a [`TopologyBuilder`] (index into the plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRef(usize);

/// A frame the fabric refused to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricDrop {
    /// [`DropCause::QueueFull`] (egress overflow under [`QueuePolicy::Drop`])
    /// or [`DropCause::LinkDown`] (a down link or switch on the path).
    pub cause: DropCause,
    /// Virtual instant the frame died.
    pub at: SimTime,
}

/// Frozen per-port accounting, for tests and end-of-run metric export.
#[derive(Debug, Clone)]
pub struct PortStats {
    /// Switch name (as given to [`TopologyBuilder::switch`]).
    pub switch: String,
    /// Egress port label (`to_h<id>` or `to_<switch>`).
    pub port: String,
    /// Frames admitted (booked onto the port).
    pub frames: u64,
    /// Bytes admitted.
    pub bytes: u64,
    /// Frames dropped at this port (queue full under `Drop`).
    pub drops: u64,
    /// Bytes dropped.
    pub dropped_bytes: u64,
    /// Maximum frames resident at any admission instant (≤ the configured
    /// `queue_capacity` whenever one is set).
    pub qdepth_max: u64,
    /// Total virtual time frames waited behind the port before service.
    pub queued_ns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NodeKey {
    Switch(usize),
    Host(usize),
}

struct SwitchDef {
    name: String,
    cfg: SwitchConfig,
    /// The switch's pseudo-host: its [`FaultPlan`] address.
    host: HostId,
}

#[derive(Clone, Copy)]
struct Edge {
    to: usize,
    latency: SimDuration,
    bw: Bandwidth,
}

#[derive(Clone, Copy)]
struct Attachment {
    switch: usize,
    latency: SimDuration,
}

struct PortState {
    res: Resource,
    /// Instants the resident frames' last bits leave, ascending.
    queue: VecDeque<SimTime>,
    frames: u64,
    bytes: u64,
    drops: u64,
    dropped_bytes: u64,
    qdepth_max: u64,
    queued_ns: u64,
}

/// Builds a [`Topology`]: declare switches, trunk them, attach hosts.
pub struct TopologyBuilder<'a> {
    cluster: &'a Cluster,
    switches: Vec<SwitchDef>,
    adj: Vec<Vec<Edge>>,
    attach: HashMap<usize, Attachment>,
    default_attach: Option<Attachment>,
}

impl<'a> TopologyBuilder<'a> {
    /// Start building a topology. Switch pseudo-hosts are allocated from
    /// `cluster`.
    pub fn new(cluster: &'a Cluster) -> TopologyBuilder<'a> {
        TopologyBuilder {
            cluster,
            switches: Vec::new(),
            adj: Vec::new(),
            attach: HashMap::new(),
            default_attach: None,
        }
    }

    /// Add a switch. Allocates its pseudo-host, named `name`, so fault
    /// plans can address it.
    pub fn switch(&mut self, name: &str, cfg: SwitchConfig) -> SwitchRef {
        let host = self.cluster.add_host(name).id;
        self.switches.push(SwitchDef {
            name: name.to_string(),
            cfg,
            host,
        });
        self.adj.push(Vec::new());
        SwitchRef(self.switches.len() - 1)
    }

    /// Trunk two switches with a bidirectional link of `bw` and one-way
    /// propagation `latency`.
    pub fn trunk(&mut self, a: SwitchRef, b: SwitchRef, bw: Bandwidth, latency: SimDuration) {
        assert_ne!(a.0, b.0, "a switch cannot trunk to itself");
        self.adj[a.0].push(Edge {
            to: b.0,
            latency,
            bw,
        });
        self.adj[b.0].push(Edge {
            to: a.0,
            latency,
            bw,
        });
    }

    /// Attach `host` to `sw` with one-way propagation `latency` on the
    /// host link (each direction; the host's own NIC paces its uplink, the
    /// switch's egress port paces the downlink).
    pub fn attach(&mut self, host: HostId, sw: SwitchRef, latency: SimDuration) {
        let prev = self.attach.insert(
            host.0,
            Attachment {
                switch: sw.0,
                latency,
            },
        );
        assert!(prev.is_none(), "host {host:?} attached twice");
    }

    /// Hosts without an explicit [`attach`](Self::attach) call route via
    /// `sw` — the leaf for hosts created *after* the topology (MPI ranks).
    pub fn attach_default(&mut self, sw: SwitchRef, latency: SimDuration) {
        self.default_attach = Some(Attachment {
            switch: sw.0,
            latency,
        });
    }

    /// Finalize: compute deterministic shortest-path routes between every
    /// switch pair (BFS, neighbour insertion order breaks ties).
    pub fn build(self) -> Topology {
        let n = self.switches.len();
        assert!(n >= 1, "a topology needs at least one switch");
        let mut paths = vec![vec![None; n]; n];
        for src in 0..n {
            let mut parent: Vec<Option<usize>> = vec![None; n];
            let mut seen = vec![false; n];
            let mut q = VecDeque::new();
            seen[src] = true;
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for e in &self.adj[u] {
                    if !seen[e.to] {
                        seen[e.to] = true;
                        parent[e.to] = Some(u);
                        q.push_back(e.to);
                    }
                }
            }
            for dst in 0..n {
                if !seen[dst] {
                    continue;
                }
                let mut path = vec![dst];
                let mut cur = dst;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                paths[src][dst] = Some(path);
            }
        }
        Topology {
            switches: self.switches,
            adj: self.adj,
            attach: self.attach,
            default_attach: self.default_attach,
            paths,
            ports: Mutex::new((0..n).map(|_| BTreeMap::new()).collect()),
        }
    }
}

/// Parameters for [`Topology::dumbbell`] — the canonical incast /
/// oversubscription shape: a server leaf and a client leaf joined by a
/// trunk.
#[derive(Debug, Clone, Copy)]
pub struct DumbbellSpec {
    /// Host-facing egress port rate on both leaves.
    pub port_bw: Bandwidth,
    /// Trunk bandwidth.
    pub trunk_bw: Bandwidth,
    /// Total one-way path latency host→host (split across the three hops).
    pub latency: SimDuration,
    /// Per-port queue capacity in frames (`0` = unbounded).
    pub queue_capacity: usize,
    /// Full-queue policy for both leaves.
    pub policy: QueuePolicy,
}

/// An immutable routed fabric shared by every transport in a run.
///
/// Passive and lock-internal, like [`Resource`]: transports call
/// [`deliver`](Topology::deliver) from whichever actor is sending; the
/// conservative kernel admits one actor at a time, so bookings happen in a
/// deterministic order.
pub struct Topology {
    switches: Vec<SwitchDef>,
    adj: Vec<Vec<Edge>>,
    attach: HashMap<usize, Attachment>,
    default_attach: Option<Attachment>,
    /// `paths[a][b]`: switch sequence from `a` to `b` inclusive.
    paths: Vec<Vec<Option<Vec<usize>>>>,
    /// Per switch, its egress ports by neighbour, created at first use.
    ports: Mutex<Vec<BTreeMap<NodeKey, PortState>>>,
}

impl Topology {
    /// Build the two-leaf dumbbell: `servers` attached to a server leaf,
    /// every other (including later-created) host on the client leaf, one
    /// trunk between them.
    pub fn dumbbell(cluster: &Cluster, servers: &[HostId], spec: DumbbellSpec) -> Topology {
        let cfg = SwitchConfig {
            port_bw: spec.port_bw,
            queue_capacity: spec.queue_capacity,
            policy: spec.policy,
        };
        let mut b = TopologyBuilder::new(cluster);
        let srv = b.switch("leaf-srv", cfg);
        let cli = b.switch("leaf-cli", cfg);
        let host_lat = spec.latency / 3;
        let trunk_lat = spec.latency - host_lat - host_lat;
        b.trunk(srv, cli, spec.trunk_bw, trunk_lat);
        for &h in servers {
            b.attach(h, srv, host_lat);
        }
        b.attach_default(cli, host_lat);
        b.build()
    }

    /// The pseudo-host of switch `sw` (index in declaration order), for
    /// [`FaultPlan`] targeting.
    pub fn switch_host(&self, sw: usize) -> HostId {
        self.switches[sw].host
    }

    fn attachment(&self, h: HostId) -> Attachment {
        self.attach
            .get(&h.0)
            .copied()
            .or(self.default_attach)
            .unwrap_or_else(|| panic!("host {h:?} is not attached to the topology"))
    }

    fn edge(&self, a: usize, b: usize) -> Edge {
        *self.adj[a]
            .iter()
            .find(|e| e.to == b)
            .expect("routed path uses a missing edge")
    }

    fn port_label(&self, key: NodeKey) -> String {
        match key {
            NodeKey::Host(h) => format!("to_h{h}"),
            NodeKey::Switch(s) => format!("to_{}", self.switches[s].name),
        }
    }

    /// True when no link or switch pseudo-host on the `src`→`dst` path is
    /// down at time `t` (pure window queries; no RNG).
    fn path_up(
        &self,
        faults: Option<&FaultPlan>,
        path: &[usize],
        src: HostId,
        dst: HostId,
        t: SimTime,
    ) -> bool {
        let Some(f) = faults else { return true };
        let mut prev = src;
        for &s in path {
            let h = self.switches[s].host;
            if f.host_down_at(h, t) || f.link_down_at(prev, h, t) {
                return false;
            }
            prev = h;
        }
        !f.link_down_at(prev, dst, t)
    }

    /// Carry one frame of `bytes` from `src` to `dst`, its first bit
    /// leaving the source NIC at `tx_start`.
    ///
    /// Returns the instant the destination's receive port starts taking
    /// bits (the caller books its `rx_wire` from there), or the drop if the
    /// fabric refused the frame. A flow's frames keep their order: each
    /// port is FIFO and every flow has one route.
    pub fn deliver(
        &self,
        ctx: &ActorCtx,
        faults: Option<&FaultPlan>,
        src: HostId,
        dst: HostId,
        bytes: u64,
        tx_start: SimTime,
    ) -> Result<SimTime, FabricDrop> {
        let sa = self.attachment(src);
        let da = self.attachment(dst);
        let path = self.paths[sa.switch][da.switch]
            .as_ref()
            .unwrap_or_else(|| panic!("no route between switches of {src:?} and {dst:?}"));
        if !self.path_up(faults, path, src, dst, ctx.now()) {
            ctx.metrics().counter("fabric.drops").inc();
            ctx.trace(
                "fabric",
                "drop",
                &[
                    ("src", Value::U64(src.0 as u64)),
                    ("dst", Value::U64(dst.0 as u64)),
                    ("cause", Value::Str(DropCause::LinkDown.as_str())),
                ],
            );
            return Err(FabricDrop {
                cause: DropCause::LinkDown,
                at: ctx.now(),
            });
        }

        let mut ports = self.ports.lock();
        let mut first = tx_start + sa.latency;
        for (i, &s) in path.iter().enumerate() {
            let sw = &self.switches[s];
            let (key, latency, bw) = match path.get(i + 1) {
                Some(&next) => {
                    let e = self.edge(s, next);
                    (NodeKey::Switch(next), e.latency, e.bw)
                }
                None => (NodeKey::Host(dst.0), da.latency, sw.cfg.port_bw),
            };
            let port = ports[s].entry(key).or_insert_with(|| {
                PortState::new(&format!("{}.{}", sw.name, self.port_label(key)))
            });
            match admit(port, &sw.cfg, bytes, bw.time_for(bytes), first) {
                Ok((start, waited)) => {
                    if !waited.is_zero() {
                        ctx.metrics()
                            .counter("fabric.queued_ns")
                            .add(waited.as_nanos());
                    }
                    first = start + latency;
                }
                Err(at) => {
                    drop(ports);
                    ctx.metrics().counter("fabric.drops").inc();
                    ctx.trace(
                        "fabric",
                        "drop",
                        &[
                            ("switch", Value::Str(&sw.name)),
                            ("port", Value::Str(&self.port_label(key))),
                            ("cause", Value::Str(DropCause::QueueFull.as_str())),
                        ],
                    );
                    return Err(FabricDrop {
                        cause: DropCause::QueueFull,
                        at,
                    });
                }
            }
        }
        drop(ports);
        ctx.metrics().counter("fabric.frames").inc();
        ctx.metrics().counter("fabric.bytes").add(bytes);
        Ok(first)
    }

    /// Per-port accounting for every port that carried (or refused) at
    /// least one frame, in deterministic (switch, port) order.
    pub fn port_stats(&self) -> Vec<PortStats> {
        let ports = self.ports.lock();
        let mut out = Vec::new();
        for (s, sw_ports) in ports.iter().enumerate() {
            for (&key, p) in sw_ports {
                out.push(PortStats {
                    switch: self.switches[s].name.clone(),
                    port: self.port_label(key),
                    frames: p.frames,
                    bytes: p.bytes,
                    drops: p.drops,
                    dropped_bytes: p.dropped_bytes,
                    qdepth_max: p.qdepth_max,
                    queued_ns: p.queued_ns,
                });
            }
        }
        out
    }
}

impl PortState {
    fn new(name: &str) -> PortState {
        PortState {
            res: Resource::new(name),
            queue: VecDeque::new(),
            frames: 0,
            bytes: 0,
            drops: 0,
            dropped_bytes: 0,
            qdepth_max: 0,
            queued_ns: 0,
        }
    }
}

/// Admit one frame to an egress port: expire departed frames at `ready`,
/// enforce the depth bound, then book the serialization span. Returns
/// `(start, waited)`; `Err(at)` is a queue-full drop under
/// [`QueuePolicy::Drop`].
///
/// Frames are expired *at the admission instant each caller presents*,
/// which — like [`Resource`] itself — is a processing-order model: a later
/// caller with an earlier `ready` sees the queue as already drained by the
/// first caller's expiry. The kernel's nondecreasing-time scheduling makes
/// such inversions rare and the outcome deterministic either way.
fn admit(
    port: &mut PortState,
    cfg: &SwitchConfig,
    bytes: u64,
    ser: SimDuration,
    ready0: SimTime,
) -> Result<(SimTime, SimDuration), SimTime> {
    let mut ready = ready0;
    loop {
        // Frames whose last bit has left the port free their buffer.
        while port.queue.front().is_some_and(|&done| done <= ready) {
            port.queue.pop_front();
        }
        if cfg.queue_capacity == 0 || port.queue.len() < cfg.queue_capacity {
            break;
        }
        match cfg.policy {
            QueuePolicy::Drop => {
                port.drops += 1;
                port.dropped_bytes += bytes;
                return Err(ready);
            }
            // The queue frees a slot when its (len - capacity + 1)-th
            // oldest resident departs; `done`s are ascending, so index
            // `len - capacity` is the first departure that helps. After
            // expiry it is strictly later than `ready`, so each pass moves
            // `ready` forward and the loop terminates.
            QueuePolicy::Backpressure => {
                ready = ready.max(port.queue[port.queue.len() - cfg.queue_capacity]);
            }
        }
    }
    let (start, done) = port.res.book_span(ready, ser);
    port.queue.push_back(done);
    port.frames += 1;
    port.bytes += bytes;
    let waited = start.since(ready0);
    port.queued_ns += waited.as_nanos();
    port.qdepth_max = port.qdepth_max.max(port.queue.len() as u64);
    Ok((start, waited))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::kernel::SimKernel;
    use crate::time::units::*;

    fn with_ctx(f: impl Fn(&ActorCtx) + Send + 'static) {
        let k = SimKernel::new();
        k.spawn("t", move |ctx| f(ctx));
        k.run();
    }

    #[test]
    fn cut_through_uncontended_is_latency_only() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster);
            let sw = tb.switch("sw0", SwitchConfig::default());
            tb.attach(a, sw, us(2));
            tb.attach(b, sw, us(3));
            tb.build()
        });
        let t = topo.clone();
        with_ctx(move |ctx| {
            // 110 MB/s port: 11000 bytes = 100 us serialization.
            let tx_start = ctx.now();
            let arr = t.deliver(ctx, None, a, b, 11_000, tx_start).unwrap();
            // Cut-through: egress starts at first-bit arrival (tx_start +
            // 2us); dst first bit lands one more hop later.
            assert_eq!(arr, tx_start + us(2) + us(3));
        });
    }

    #[test]
    fn incast_serializes_on_the_egress_port() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let dst = cluster.add_host("dst").id;
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster);
            let sw = tb.switch("sw0", SwitchConfig::default());
            tb.attach(a, sw, us(1));
            tb.attach(b, sw, us(1));
            tb.attach(dst, sw, us(1));
            tb.build()
        });
        let t = topo.clone();
        with_ctx(move |ctx| {
            let ser = Bandwidth::mb_per_sec(110).time_for(110_000);
            let s = ctx.now();
            let a1 = t.deliver(ctx, None, a, dst, 110_000, s).unwrap();
            let a2 = t.deliver(ctx, None, b, dst, 110_000, s).unwrap();
            assert_eq!(a1, s + us(1) + us(1));
            // Second flow finds the egress port busy until a1's last bit.
            assert_eq!(a2, s + us(1) + ser + us(1));
            let stats = t.port_stats();
            assert_eq!(stats.len(), 1);
            assert_eq!(stats[0].frames, 2);
            assert_eq!(stats[0].bytes, 220_000);
            assert_eq!(stats[0].qdepth_max, 2);
            assert!(stats[0].queued_ns > 0);
        });
    }

    #[test]
    fn drop_policy_sheds_when_queue_full() {
        let cluster = Cluster::new();
        let srcs: Vec<HostId> = (0..4)
            .map(|i| cluster.add_host(&format!("s{i}")).id)
            .collect();
        let dst = cluster.add_host("dst").id;
        let cfg = SwitchConfig {
            queue_capacity: 2,
            policy: QueuePolicy::Drop,
            ..SwitchConfig::default()
        };
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster);
            let sw = tb.switch("sw0", cfg);
            tb.attach_default(sw, us(1));
            tb.build()
        });
        let t = topo.clone();
        with_ctx(move |ctx| {
            let s = ctx.now();
            let mut ok = 0;
            let mut dropped = 0;
            for &src in &srcs {
                match t.deliver(ctx, None, src, dst, 110_000, s) {
                    Ok(_) => ok += 1,
                    Err(d) => {
                        assert_eq!(d.cause, DropCause::QueueFull);
                        dropped += 1;
                    }
                }
            }
            assert_eq!(ok, 2, "capacity-2 port admits two concurrent frames");
            assert_eq!(dropped, 2);
            let stats = t.port_stats();
            assert_eq!(stats[0].frames, 2);
            assert_eq!(stats[0].drops, 2);
            assert!(stats[0].qdepth_max <= 2);
        });
    }

    #[test]
    fn backpressure_bounds_depth_without_loss() {
        let cluster = Cluster::new();
        let srcs: Vec<HostId> = (0..8)
            .map(|i| cluster.add_host(&format!("s{i}")).id)
            .collect();
        let dst = cluster.add_host("dst").id;
        let cfg = SwitchConfig {
            queue_capacity: 2,
            ..SwitchConfig::default()
        };
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster);
            let sw = tb.switch("sw0", cfg);
            tb.attach_default(sw, us(1));
            tb.build()
        });
        let t = topo.clone();
        with_ctx(move |ctx| {
            let s = ctx.now();
            let mut last = SimTime::ZERO;
            for &src in &srcs {
                let arr = t.deliver(ctx, None, src, dst, 110_000, s).unwrap();
                assert!(arr >= last, "port serializes frames in order");
                last = arr;
            }
            let stats = t.port_stats();
            assert_eq!(stats[0].frames, 8, "backpressure never drops");
            assert_eq!(stats[0].drops, 0);
            assert!(
                stats[0].qdepth_max <= 2,
                "depth {} exceeds capacity",
                stats[0].qdepth_max
            );
        });
    }

    #[test]
    fn two_switch_chain_routes_and_conserves() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster);
            let s0 = tb.switch("sw0", SwitchConfig::default());
            let s1 = tb.switch("sw1", SwitchConfig::default());
            tb.trunk(s0, s1, Bandwidth::mb_per_sec(55), us(4));
            tb.attach(a, s0, us(1));
            tb.attach(b, s1, us(1));
            tb.build()
        });
        let t = topo.clone();
        with_ctx(move |ctx| {
            let s = ctx.now();
            let arr = t.deliver(ctx, None, a, b, 11_000, s).unwrap();
            // Cut-through at both switches: 1 + 4 + 1 us of latency.
            assert_eq!(arr, s + us(6));
            let stats = t.port_stats();
            // sw0 has a trunk egress, sw1 a host egress; bytes conserved.
            assert_eq!(stats.len(), 2);
            assert!(stats.iter().all(|p| p.frames == 1 && p.bytes == 11_000));
        });
    }

    #[test]
    fn a_down_switch_is_a_link_down_drop() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster);
            let sw = tb.switch("sw0", SwitchConfig::default());
            tb.attach(a, sw, us(1));
            tb.attach(b, sw, us(1));
            tb.build()
        });
        // The pseudo-host was allocated after a and b, named after its switch.
        let sw = topo.switch_host(0);
        assert_eq!(cluster.host(sw).name(), "sw0");
        let plan = FaultPlan::builder(9)
            .host_crash(sw, SimTime::ZERO, SimTime::ZERO + ms(1))
            .link_down(a, sw, SimTime::ZERO + ms(2), SimTime::ZERO + ms(3))
            .build();
        let t = topo.clone();
        with_ctx(move |ctx| {
            for (at, up) in [(0, false), (1, true), (2, false), (3, true)] {
                ctx.sleep_until(SimTime::ZERO + ms(at));
                let r = t.deliver(ctx, Some(&plan), a, b, 1000, ctx.now());
                match r {
                    Ok(_) => assert!(up, "delivered at {at} ms through a down path"),
                    Err(d) => {
                        assert!(!up, "dropped at {at} ms on an up path");
                        assert_eq!(d.cause, DropCause::LinkDown);
                        assert_eq!(d.at, ctx.now());
                    }
                }
            }
            assert_eq!(t.port_stats()[0].frames, 2);
        });
    }

    #[test]
    fn unattached_host_panics() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let topo = {
            let mut tb = TopologyBuilder::new(&cluster);
            let sw = tb.switch("sw0", SwitchConfig::default());
            tb.attach(a, sw, us(1));
            // No default attachment: b is unknown to the fabric.
            tb.build()
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            topo.attachment(b);
        }));
        assert!(r.is_err());
    }
}
