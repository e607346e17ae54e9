//! Switched-fabric topology: ports, store-and-forward/cut-through switches,
//! and multi-rail trunking.
//!
//! Every testbed before this module wired hosts point-to-point: a sender's
//! `tx_wire` resource fed the receiver's `rx_wire` directly, one propagation
//! delay apart. A production cluster interposes *switches*: shared egress
//! ports with bounded queues, oversubscribed trunks between leaves, and
//! (optionally) several parallel rails per trunk. This module models exactly
//! that, as timing arithmetic over the same [`Resource`] primitive the
//! point-to-point path uses:
//!
//! * A [`Switch`](SwitchConfig) is a set of egress ports, one per neighbour
//!   (host or switch) per rail. Each port serializes frames at its link rate
//!   on its own [`Resource`], holds at most `queue_capacity` frames, and
//!   draws from a per-switch shared buffer pool of `pool_bytes`. When either
//!   bound is hit the switch [backpressures](QueuePolicy::Backpressure)
//!   (delays admission until a buffer frees — link-level flow control, the
//!   lossless VIA-era default) or [drops](QueuePolicy::Drop) the frame.
//! * Forwarding is [cut-through](ForwardingMode::CutThrough) (egress may
//!   start once the first bit arrives — how the cLAN switches the paper ran
//!   on behaved) or [store-and-forward](ForwardingMode::StoreAndForward)
//!   (egress waits for the last bit).
//! * A topology may have several *rails*: parallel copies of the whole
//!   switch plane. Each flow (directed host pair) is deterministically
//!   assigned a rail in first-use order; if a [`FaultPlan`] takes a link or
//!   switch on that rail down, the flow fails over to the next healthy rail
//!   (`fabric.failovers`), and only when every rail is down does the frame
//!   drop with [`DropCause::LinkDown`].
//!
//! The switch is deliberately a **passive shared model object**, not a
//! spawned actor: the forwarding plane has no decisions to make that depend
//! on simulated time passing — every per-frame outcome (queue wait, service
//! span, drop) is a deterministic function of prior bookings, exactly like
//! [`Resource`] itself. An actor per switch would add context
//! switches without changing a single computed time. (tcpnet's softirq
//! resource follows the same pattern.)
//!
//! Each switch also allocates one *pseudo-host* per rail from the
//! [`Cluster`]. These hosts run nothing; they exist so the existing
//! [`FaultPlan`] machinery addresses fabric elements uniformly:
//! `link_down(host, switch_rail_host, ..)` takes down one rail's uplink,
//! `host_crash(switch_rail_host, ..)` takes down a whole rail of a switch.
//!
//! With a single cut-through switch whose port rate equals the wire rate
//! and whose two hop latencies sum to the point-to-point propagation delay,
//! the fabric is **byte-identical in virtual time** to the direct wire —
//! including under incast, because the egress port pre-serializes flows in
//! exactly the order the receiver's `rx_wire` would have (an induction over
//! `Resource` bookings; asserted in `tests/determinism.rs`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use parking_lot::Mutex;

use crate::fault::{DropCause, FaultPlan};
use crate::host::{Cluster, HostId};
use crate::kernel::ActorCtx;
use crate::resource::Resource;
use crate::time::{Bandwidth, SimDuration, SimTime};
use obs::Value;

/// When an egress port may begin transmitting a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardingMode {
    /// Start once the first bit has arrived (wormhole/cut-through, as on the
    /// cLAN). The degenerate one-switch topology is byte-identical to the
    /// direct wire in this mode.
    #[default]
    CutThrough,
    /// Wait for the last bit (classic store-and-forward): adds one full
    /// serialization delay per hop.
    StoreAndForward,
}

/// What happens when an egress queue (or the shared pool) is full.
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
    /// Shared buffer pool per switch (bytes across all its ports);
    /// `0` = unbounded.
    pub pool_bytes: u64,
    /// Cut-through or store-and-forward.
    pub mode: ForwardingMode,
    /// Backpressure or drop on full.
    pub policy: QueuePolicy,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            port_bw: Bandwidth::mb_per_sec(110),
            queue_capacity: 64,
            pool_bytes: 0,
            mode: ForwardingMode::default(),
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
    /// or [`DropCause::LinkDown`] (every rail unhealthy).
    pub cause: DropCause,
    /// Virtual instant the frame died.
    pub at: SimTime,
}

/// Frozen per-port accounting, for tests and end-of-run metric export.
#[derive(Debug, Clone)]
pub struct PortStats {
    /// Switch name (as given to [`TopologyBuilder::switch`]).
    pub switch: String,
    /// Rail index.
    pub rail: usize,
    /// Egress port label (`to_h<id>` or `to_<switch>`).
    pub port: String,
    /// Frames admitted (booked onto the port).
    pub frames: u64,
    /// Bytes admitted.
    pub bytes: u64,
    /// Frames dropped at this port (queue/pool full under `Drop`).
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
    /// One pseudo-host per rail (FaultPlan address of this switch plane).
    rail_hosts: Vec<HostId>,
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
    /// Resident frames as `(egress done, bytes)`, done-ascending.
    queue: VecDeque<(SimTime, u64)>,
    frames: u64,
    bytes: u64,
    drops: u64,
    dropped_bytes: u64,
    qdepth_max: u64,
    queued_ns: u64,
}

#[derive(Default)]
struct PoolState {
    used: u64,
    /// Release schedule: `(egress done, bytes)`, earliest-done first.
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
}

/// One switch on one rail: its egress ports plus the shared buffer pool.
#[derive(Default)]
struct SwState {
    ports: std::collections::BTreeMap<NodeKey, PortState>,
    pool: PoolState,
}

#[derive(Default)]
struct TopoState {
    /// `[rail][switch]` mutable forwarding state.
    rails: Vec<Vec<SwState>>,
    /// Rail assigned to each directed host pair, in first-use order.
    rail_assign: HashMap<(usize, usize), usize>,
    next_rail: usize,
}

struct Hop {
    sw: usize,
    key: NodeKey,
    /// Resource/metric label of the egress port.
    label: String,
    /// Propagation to the next node after egress.
    latency: SimDuration,
    /// Egress serialization rate (port rate or trunk rate).
    bw: Bandwidth,
}

/// Builds a [`Topology`]: declare switches, trunk them, attach hosts.
pub struct TopologyBuilder<'a> {
    cluster: &'a Cluster,
    rails: usize,
    switches: Vec<SwitchDef>,
    adj: Vec<Vec<Edge>>,
    attach: HashMap<usize, Attachment>,
    default_attach: Option<Attachment>,
}

impl<'a> TopologyBuilder<'a> {
    /// Start building a topology with `rails` parallel switch planes
    /// (`rails >= 1`). Switch pseudo-hosts are allocated from `cluster`.
    pub fn new(cluster: &'a Cluster, rails: usize) -> TopologyBuilder<'a> {
        assert!(rails >= 1, "a topology needs at least one rail");
        TopologyBuilder {
            cluster,
            rails,
            switches: Vec::new(),
            adj: Vec::new(),
            attach: HashMap::new(),
            default_attach: None,
        }
    }

    /// Add a switch (replicated on every rail). Allocates one pseudo-host
    /// per rail named `<name>.r<rail>` so fault plans can address it.
    pub fn switch(&mut self, name: &str, cfg: SwitchConfig) -> SwitchRef {
        let rail_hosts = (0..self.rails)
            .map(|r| self.cluster.add_host(&format!("{name}.r{r}")).id)
            .collect();
        self.switches.push(SwitchDef {
            name: name.to_string(),
            cfg,
            rail_hosts,
        });
        self.adj.push(Vec::new());
        SwitchRef(self.switches.len() - 1)
    }

    /// Trunk two switches with a bidirectional link of `bw` **per rail** and
    /// one-way propagation `latency`.
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
        let state = TopoState {
            rails: (0..self.rails)
                .map(|_| (0..n).map(|_| SwState::default()).collect())
                .collect(),
            ..TopoState::default()
        };
        Topology {
            rails: self.rails,
            switches: self.switches,
            adj: self.adj,
            attach: self.attach,
            default_attach: self.default_attach,
            paths,
            state: Mutex::new(state),
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
    /// Total trunk bandwidth (split evenly across rails).
    pub trunk_bw: Bandwidth,
    /// Total one-way path latency host→host (split across the three hops).
    pub latency: SimDuration,
    /// Parallel rails (`>= 1`).
    pub rails: usize,
    /// Per-port queue capacity in frames (`0` = unbounded).
    pub queue_capacity: usize,
    /// Shared pool per switch in bytes (`0` = unbounded).
    pub pool_bytes: u64,
    /// Forwarding mode for both leaves.
    pub mode: ForwardingMode,
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
    rails: usize,
    switches: Vec<SwitchDef>,
    adj: Vec<Vec<Edge>>,
    attach: HashMap<usize, Attachment>,
    default_attach: Option<Attachment>,
    /// `paths[a][b]`: switch sequence from `a` to `b` inclusive.
    paths: Vec<Vec<Option<Vec<usize>>>>,
    state: Mutex<TopoState>,
}

impl Topology {
    /// Build the two-leaf dumbbell: `servers` attached to a server leaf,
    /// every other (including later-created) host on the client leaf, one
    /// trunk between them.
    pub fn dumbbell(cluster: &Cluster, servers: &[HostId], spec: DumbbellSpec) -> Topology {
        let cfg = SwitchConfig {
            port_bw: spec.port_bw,
            queue_capacity: spec.queue_capacity,
            pool_bytes: spec.pool_bytes,
            mode: spec.mode,
            policy: spec.policy,
        };
        let mut b = TopologyBuilder::new(cluster, spec.rails);
        let srv = b.switch("leaf-srv", cfg);
        let cli = b.switch("leaf-cli", cfg);
        let host_lat = spec.latency / 3;
        let trunk_lat = spec.latency - host_lat - host_lat;
        let per_rail =
            Bandwidth::bytes_per_sec((spec.trunk_bw.as_bytes_per_sec() / spec.rails as u64).max(1));
        b.trunk(srv, cli, per_rail, trunk_lat);
        for &h in servers {
            b.attach(h, srv, host_lat);
        }
        b.attach_default(cli, host_lat);
        b.build()
    }

    /// Number of parallel rails.
    pub fn rails(&self) -> usize {
        self.rails
    }

    /// The per-rail pseudo-hosts of switch `sw` (index in declaration
    /// order), for [`FaultPlan`] targeting.
    pub fn switch_hosts(&self, sw: usize) -> &[HostId] {
        &self.switches[sw].rail_hosts
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

    /// True when rail `r` has no down link or crashed switch pseudo-host on
    /// the `src`→`dst` path at time `t` (pure window queries; no RNG).
    fn rail_healthy(
        &self,
        faults: Option<&FaultPlan>,
        r: usize,
        path: &[usize],
        src: HostId,
        dst: HostId,
        t: SimTime,
    ) -> bool {
        let Some(f) = faults else { return true };
        let sw_host = |s: usize| self.switches[s].rail_hosts[r];
        let mut prev = src;
        for &s in path {
            let h = sw_host(s);
            if f.host_down_at(h, t) || f.link_down_at(prev, h, t) {
                return false;
            }
            prev = h;
        }
        !f.link_down_at(prev, dst, t)
    }

    /// Rail carrying the `src`→`dst` flow at time `t`: the flow's assigned
    /// rail if healthy, else the next healthy one (`failover = true`), else
    /// `None` (all rails down).
    fn pick_rail(
        &self,
        st: &mut TopoState,
        faults: Option<&FaultPlan>,
        path: &[usize],
        src: HostId,
        dst: HostId,
        t: SimTime,
    ) -> Option<(usize, bool)> {
        let home = *st.rail_assign.entry((src.0, dst.0)).or_insert_with(|| {
            let r = st.next_rail % self.rails;
            st.next_rail += 1;
            r
        });
        for k in 0..self.rails {
            let r = (home + k) % self.rails;
            if self.rail_healthy(faults, r, path, src, dst, t) {
                return Some((r, k > 0));
            }
        }
        None
    }

    /// Carry one frame of `bytes` from `src` to `dst`, given the instants
    /// its first and last bit leave the source NIC (`tx_start`, `tx_done`).
    ///
    /// Returns the instant the destination's receive port starts taking
    /// bits (the caller books its `rx_wire` from there), or the drop if the
    /// fabric refused the frame. Frames of one flow ride one rail, so
    /// ordering within a flow is FIFO except across a failover transition.
    #[allow(clippy::too_many_arguments)]
    pub fn deliver(
        &self,
        ctx: &ActorCtx,
        faults: Option<&FaultPlan>,
        src: HostId,
        dst: HostId,
        bytes: u64,
        tx_start: SimTime,
        tx_done: SimTime,
    ) -> Result<SimTime, FabricDrop> {
        let sa = self.attachment(src);
        let da = self.attachment(dst);
        let path = self.paths[sa.switch][da.switch]
            .as_ref()
            .unwrap_or_else(|| panic!("no route between switches of {src:?} and {dst:?}"));

        // Precompute the hop list (egress port + link per switch) outside
        // the state lock.
        let mut hops = Vec::with_capacity(path.len());
        for (i, &s) in path.iter().enumerate() {
            let (key, label, latency, bw) = if i + 1 < path.len() {
                let e = self.edge(s, path[i + 1]);
                (
                    NodeKey::Switch(e.to),
                    format!("to_{}", self.switches[e.to].name),
                    e.latency,
                    e.bw,
                )
            } else {
                (
                    NodeKey::Host(dst.0),
                    format!("to_h{}", dst.0),
                    da.latency,
                    self.switches[s].cfg.port_bw,
                )
            };
            hops.push(Hop {
                sw: s,
                key,
                label,
                latency,
                bw,
            });
        }

        let mut st = self.state.lock();
        let Some((rail, failover)) = self.pick_rail(&mut st, faults, path, src, dst, ctx.now())
        else {
            drop(st);
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
        };

        let mut first = tx_start + sa.latency;
        let mut last = tx_done + sa.latency;
        for hop in &hops {
            let cfg = self.switches[hop.sw].cfg;
            let ready = match cfg.mode {
                ForwardingMode::CutThrough => first,
                ForwardingMode::StoreAndForward => last,
            };
            let ser = hop.bw.time_for(bytes);
            let rail_name = format!("{}.r{rail}", self.switches[hop.sw].name);
            let sws = &mut st.rails[rail][hop.sw];
            match admit(
                sws, &cfg, &rail_name, &hop.label, hop.key, bytes, ser, ready,
            ) {
                Ok((start, done, waited)) => {
                    if !waited.is_zero() {
                        ctx.metrics()
                            .counter("fabric.queued_ns")
                            .add(waited.as_nanos());
                    }
                    first = start + hop.latency;
                    last = done + hop.latency;
                }
                Err(at) => {
                    drop(st);
                    ctx.metrics().counter("fabric.drops").inc();
                    ctx.trace(
                        "fabric",
                        "drop",
                        &[
                            ("switch", Value::Str(&rail_name)),
                            ("port", Value::Str(&hop.label)),
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
        drop(st);
        if failover {
            ctx.metrics().counter("fabric.failovers").inc();
        }
        ctx.metrics().counter("fabric.frames").inc();
        ctx.metrics().counter("fabric.bytes").add(bytes);
        let _ = last;
        Ok(first)
    }

    /// Per-port accounting for every port that carried (or refused) at
    /// least one frame, in deterministic (rail, switch, port) order.
    pub fn port_stats(&self) -> Vec<PortStats> {
        let st = self.state.lock();
        let mut out = Vec::new();
        for (r, rail) in st.rails.iter().enumerate() {
            for (s, sws) in rail.iter().enumerate() {
                for (key, p) in &sws.ports {
                    let port = match key {
                        NodeKey::Host(h) => format!("to_h{h}"),
                        NodeKey::Switch(i) => format!("to_{}", self.switches[*i].name),
                    };
                    out.push(PortStats {
                        switch: self.switches[s].name.clone(),
                        rail: r,
                        port,
                        frames: p.frames,
                        bytes: p.bytes,
                        drops: p.drops,
                        dropped_bytes: p.dropped_bytes,
                        qdepth_max: p.qdepth_max,
                        queued_ns: p.queued_ns,
                    });
                }
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
/// enforce the per-port depth bound and the shared pool, then book the
/// serialization span. Returns `(start, done, waited)`; `Err(at)` is a
/// queue-full drop under [`QueuePolicy::Drop`].
///
/// Frames are expired *at the admission instant each caller presents*,
/// which — like [`Resource`] itself — is a processing-order model: a later
/// caller with an earlier `ready` sees the queue as already drained by the
/// first caller's expiry. The kernel's nondecreasing-time scheduling makes
/// such inversions rare and the outcome deterministic either way.
#[allow(clippy::too_many_arguments)]
fn admit(
    sws: &mut SwState,
    cfg: &SwitchConfig,
    rail_name: &str,
    label: &str,
    key: NodeKey,
    bytes: u64,
    ser: SimDuration,
    ready0: SimTime,
) -> Result<(SimTime, SimTime, SimDuration), SimTime> {
    let SwState { ports, pool } = sws;
    let port = ports
        .entry(key)
        .or_insert_with(|| PortState::new(&format!("{rail_name}.{label}")));
    let mut ready = ready0;
    loop {
        // Frames whose last bit has left the port free their buffer.
        while let Some(&(done, _)) = port.queue.front() {
            if done <= ready {
                port.queue.pop_front();
            } else {
                break;
            }
        }
        while let Some(&Reverse((done, b))) = pool.heap.peek() {
            if done <= ready {
                pool.heap.pop();
                pool.used -= b;
            } else {
                break;
            }
        }
        let wait = if cfg.queue_capacity > 0 && port.queue.len() >= cfg.queue_capacity {
            // The queue frees a slot when its (len - capacity + 1)-th
            // oldest resident departs; `done`s are ascending, so index
            // `len - capacity` is the first departure that helps.
            Some(port.queue[port.queue.len() - cfg.queue_capacity].0)
        } else if cfg.pool_bytes > 0 && pool.used + bytes > cfg.pool_bytes {
            match pool.heap.peek() {
                Some(&Reverse((done, _))) => Some(done),
                // The frame alone exceeds the whole pool: it can never be
                // buffered, under either policy.
                None => {
                    port.drops += 1;
                    port.dropped_bytes += bytes;
                    return Err(ready);
                }
            }
        } else {
            None
        };
        match wait {
            None => break,
            Some(t) => match cfg.policy {
                QueuePolicy::Drop => {
                    port.drops += 1;
                    port.dropped_bytes += bytes;
                    return Err(ready);
                }
                // After expiry every resident `done` is strictly later than
                // `ready`, so `t > ready`: each pass moves `ready` forward
                // past at least one departure and the loop terminates.
                QueuePolicy::Backpressure => ready = ready.max(t),
            },
        }
    }
    let (start, done) = port.res.book_span(ready, ser);
    port.queue.push_back((done, bytes));
    pool.used += bytes;
    pool.heap.push(Reverse((done, bytes)));
    port.frames += 1;
    port.bytes += bytes;
    let waited = start.since(ready0);
    port.queued_ns += waited.as_nanos();
    let depth = port.queue.len() as u64;
    if depth > port.qdepth_max {
        port.qdepth_max = depth;
    }
    Ok((start, done, waited))
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
            let mut tb = TopologyBuilder::new(&cluster, 1);
            let sw = tb.switch("sw0", SwitchConfig::default());
            tb.attach(a, sw, us(2));
            tb.attach(b, sw, us(3));
            tb.build()
        });
        let t = topo.clone();
        with_ctx(move |ctx| {
            // 110 MB/s port: 11000 bytes = 100 us serialization.
            let tx_start = ctx.now();
            let tx_done = tx_start + us(100);
            let arr = t
                .deliver(ctx, None, a, b, 11_000, tx_start, tx_done)
                .unwrap();
            // Cut-through: egress starts at first-bit arrival (tx_start +
            // 2us); dst first bit lands one more hop later.
            assert_eq!(arr, tx_start + us(2) + us(3));
        });
    }

    #[test]
    fn store_and_forward_adds_one_serialization() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let cfg = SwitchConfig {
            mode: ForwardingMode::StoreAndForward,
            ..SwitchConfig::default()
        };
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster, 1);
            let sw = tb.switch("sw0", cfg);
            tb.attach(a, sw, us(2));
            tb.attach(b, sw, us(3));
            tb.build()
        });
        let t = topo.clone();
        with_ctx(move |ctx| {
            let tx_start = ctx.now();
            let tx_done = tx_start + us(100);
            let arr = t
                .deliver(ctx, None, a, b, 11_000, tx_start, tx_done)
                .unwrap();
            // Egress waits for the last bit (tx_done + 2us), then the dst
            // sees the first bit one hop later.
            assert_eq!(arr, tx_done + us(2) + us(3));
        });
    }

    #[test]
    fn incast_serializes_on_the_egress_port() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let dst = cluster.add_host("dst").id;
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster, 1);
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
            let a1 = t.deliver(ctx, None, a, dst, 110_000, s, s + ser).unwrap();
            let a2 = t.deliver(ctx, None, b, dst, 110_000, s, s + ser).unwrap();
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
            let mut tb = TopologyBuilder::new(&cluster, 1);
            let sw = tb.switch("sw0", cfg);
            tb.attach_default(sw, us(1));
            tb.build()
        });
        let t = topo.clone();
        with_ctx(move |ctx| {
            let ser = Bandwidth::mb_per_sec(110).time_for(110_000);
            let s = ctx.now();
            let mut ok = 0;
            let mut dropped = 0;
            for &src in &srcs {
                match t.deliver(ctx, None, src, dst, 110_000, s, s + ser) {
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
            let mut tb = TopologyBuilder::new(&cluster, 1);
            let sw = tb.switch("sw0", cfg);
            tb.attach_default(sw, us(1));
            tb.build()
        });
        let t = topo.clone();
        with_ctx(move |ctx| {
            let ser = Bandwidth::mb_per_sec(110).time_for(110_000);
            let s = ctx.now();
            let mut last = SimTime::ZERO;
            for &src in &srcs {
                let arr = t.deliver(ctx, None, src, dst, 110_000, s, s + ser).unwrap();
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
    fn shared_pool_caps_buffered_bytes() {
        let cluster = Cluster::new();
        let srcs: Vec<HostId> = (0..4)
            .map(|i| cluster.add_host(&format!("s{i}")).id)
            .collect();
        let dst = cluster.add_host("dst").id;
        let cfg = SwitchConfig {
            queue_capacity: 0,
            pool_bytes: 150_000,
            policy: QueuePolicy::Drop,
            ..SwitchConfig::default()
        };
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster, 1);
            let sw = tb.switch("sw0", cfg);
            tb.attach_default(sw, us(1));
            tb.build()
        });
        let t = topo.clone();
        with_ctx(move |ctx| {
            let ser = Bandwidth::mb_per_sec(110).time_for(110_000);
            let s = ctx.now();
            let mut ok = 0;
            for &src in &srcs {
                if t.deliver(ctx, None, src, dst, 110_000, s, s + ser).is_ok() {
                    ok += 1;
                }
            }
            assert_eq!(ok, 1, "pool of 150 KB holds one 110 KB frame");
        });
    }

    #[test]
    fn two_switch_chain_routes_and_conserves() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster, 1);
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
            let arr = t.deliver(ctx, None, a, b, 11_000, s, s + us(100)).unwrap();
            // Cut-through at both switches: 1 + 4 + 1 us of latency.
            assert_eq!(arr, s + us(6));
            let stats = t.port_stats();
            // sw0 has a trunk egress, sw1 a host egress; bytes conserved.
            assert_eq!(stats.len(), 2);
            assert!(stats.iter().all(|p| p.frames == 1 && p.bytes == 11_000));
        });
    }

    #[test]
    fn rails_assign_per_flow_and_fail_over() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster, 2);
            let sw = tb.switch("sw0", SwitchConfig::default());
            tb.attach(a, sw, us(1));
            tb.attach(b, sw, us(1));
            tb.build()
        });
        // Rail pseudo-hosts were allocated after a and b.
        let rail0 = topo.switch_hosts(0)[0];
        assert_eq!(cluster.host(rail0).name(), "sw0.r0");
        let down_from = SimTime::ZERO + ms(1);
        let down_until = SimTime::ZERO + ms(2);
        let plan = FaultPlan::builder(9)
            .link_down(a, rail0, down_from, down_until)
            .build();
        let t = topo.clone();
        with_ctx(move |ctx| {
            let s = ctx.now();
            // Flow a->b grabs rail 0 (first flow).
            t.deliver(ctx, Some(&plan), a, b, 1000, s, s + us(10))
                .unwrap();
            ctx.advance(ms(1));
            // Inside the window the a->rail0 uplink is down: fails over.
            let s = ctx.now();
            t.deliver(ctx, Some(&plan), a, b, 1000, s, s + us(10))
                .unwrap();
            let by_rail: Vec<usize> = t.port_stats().iter().map(|p| p.rail).collect();
            assert!(by_rail.contains(&0) && by_rail.contains(&1));
            ctx.advance(ms(2));
            // Window over: back on the home rail.
            let s = ctx.now();
            t.deliver(ctx, Some(&plan), a, b, 1000, s, s + us(10))
                .unwrap();
            let r0_frames: u64 = t
                .port_stats()
                .iter()
                .filter(|p| p.rail == 0)
                .map(|p| p.frames)
                .sum();
            assert_eq!(r0_frames, 2);
        });
    }

    #[test]
    fn all_rails_down_is_a_link_down_drop() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let topo = std::sync::Arc::new({
            let mut tb = TopologyBuilder::new(&cluster, 2);
            let sw = tb.switch("sw0", SwitchConfig::default());
            tb.attach(a, sw, us(1));
            tb.attach(b, sw, us(1));
            tb.build()
        });
        let from = SimTime::ZERO;
        let until = SimTime::ZERO + secs(1);
        let plan = FaultPlan::builder(9)
            .host_crash(topo.switch_hosts(0)[0], from, until)
            .host_crash(topo.switch_hosts(0)[1], from, until)
            .build();
        let t = topo.clone();
        with_ctx(move |ctx| {
            let s = ctx.now();
            let err = t
                .deliver(ctx, Some(&plan), a, b, 1000, s, s + us(10))
                .unwrap_err();
            assert_eq!(err.cause, DropCause::LinkDown);
        });
    }

    #[test]
    fn unattached_host_panics() {
        let cluster = Cluster::new();
        let a = cluster.add_host("a").id;
        let b = cluster.add_host("b").id;
        let topo = {
            let mut tb = TopologyBuilder::new(&cluster, 1);
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
