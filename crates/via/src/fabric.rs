//! The VIA fabric: NIC registry and connection management
//! (`VipConnectWait` / `VipConnectRequest` / `VipConnectAccept`).
//!
//! Connection endpoints are discriminated by `(host, port)` — standing in
//! for the VIA spec's opaque discriminator bytes. The handshake costs one
//! round trip at small-message latency, like the real connection manager.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::fault::FaultPlan;
use simnet::topo::Topology;
use simnet::{ActorCtx, HostId, Port};

use crate::cost::ViaCost;
use crate::nic::ViaNic;
use crate::vi::{Vi, ViAttributes, ViEnd, ViId};

/// Errors from connection establishment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    /// No listener at the requested (host, port).
    NoListener,
    /// The listener rejected the request.
    Rejected,
    /// The remote host is unreachable (crashed, or the link is down); the
    /// connection attempt timed out.
    Unreachable,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::NoListener => write!(f, "no listener at the requested address"),
            ConnectError::Rejected => write!(f, "connection rejected by listener"),
            ConnectError::Unreachable => write!(f, "remote host unreachable"),
        }
    }
}

impl std::error::Error for ConnectError {}

struct ConnRequest {
    client_end: Arc<ViEnd>,
    client_nic: ViaNic,
    reply: Port<ConnReply>,
}

enum ConnReply {
    Accept {
        server_end: Arc<ViEnd>,
        server_nic: ViaNic,
    },
    Reject,
}

#[derive(Default)]
struct FabricState {
    listeners: HashMap<(HostId, u16), Port<ConnRequest>>,
    faults: Option<FaultPlan>,
    topology: Option<Arc<Topology>>,
}

/// The fabric connecting all VIA NICs in the simulation.
#[derive(Clone)]
pub struct ViaFabric {
    state: Arc<Mutex<FabricState>>,
    cost: ViaCost,
    /// Per-fabric VI id allocator — fabric-scoped (not process-global) so
    /// identical runs hand out identical ids and traces stay reproducible.
    next_vi_id: Arc<AtomicU64>,
}

impl ViaFabric {
    /// Create a fabric with the given cost model (shared by all NICs opened
    /// through [`ViaFabric::open_nic`]).
    pub fn new(cost: ViaCost) -> ViaFabric {
        ViaFabric {
            state: Arc::new(Mutex::new(FabricState::default())),
            cost,
            next_vi_id: Arc::new(AtomicU64::new(1)),
        }
    }

    fn alloc_vi_id(&self) -> ViId {
        ViId(self.next_vi_id.fetch_add(1, Ordering::Relaxed))
    }

    /// The fabric-wide cost model.
    pub fn cost(&self) -> &ViaCost {
        &self.cost
    }

    /// Attach a fault plan: every VI connected after this call judges its
    /// wire deliveries against the plan, and connection attempts to a
    /// crashed host fail with [`ConnectError::Unreachable`].
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.state.lock().faults = Some(plan);
    }

    /// The currently attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.state.lock().faults.clone()
    }

    /// Attach a switched-fabric topology: every VI connected after this
    /// call routes its data-path wire deliveries through the switch graph
    /// instead of a dedicated point-to-point wire. Connection management
    /// stays on the control path.
    pub fn set_topology(&self, topo: Arc<Topology>) {
        self.state.lock().topology = Some(topo);
    }

    /// The currently attached topology, if any.
    pub fn topology(&self) -> Option<Arc<Topology>> {
        self.state.lock().topology.clone()
    }

    /// Open a NIC on `host`, attached to this fabric.
    pub fn open_nic(&self, host: simnet::Host) -> ViaNic {
        ViaNic::open(host, self.cost)
    }

    /// Start listening on `(nic's host, port)`. Returns the listener handle.
    /// Panics if the address is already in use (simulator-bug detection).
    pub fn listen(&self, nic: &ViaNic, port: u16) -> Listener {
        let key = (nic.host().id, port);
        let p: Port<ConnRequest> = Port::new(&format!("listen:{}:{}", nic.host().name(), port));
        let prev = self.state.lock().listeners.insert(key, p.clone());
        assert!(prev.is_none(), "address {key:?} already in use");
        Listener {
            requests: p,
            nic: nic.clone(),
            vi_ids: self.next_vi_id.clone(),
            state: self.state.clone(),
        }
    }

    /// Connect from `nic` to a listener at `(remote, port)` with the given
    /// endpoint attributes (`VipConnectRequest` + wait for accept).
    ///
    /// The client's protection tag is `attrs.ptag`, or a fresh one from its
    /// NIC.
    pub fn connect(
        &self,
        ctx: &ActorCtx,
        nic: &ViaNic,
        remote: HostId,
        port: u16,
        attrs: ViAttributes,
    ) -> Result<Vi, ConnectError> {
        let (listener, faults, topology) = {
            let st = self.state.lock();
            (
                st.listeners.get(&(remote, port)).cloned(),
                st.faults.clone(),
                st.topology.clone(),
            )
        };
        let listener = listener.ok_or(ConnectError::NoListener)?;

        // A crashed host (either end) can't complete the handshake: the
        // request or the accept is lost and the connection manager times
        // out after one round trip.
        if let Some(f) = &faults {
            let there = ctx.now() + self.cost.unloaded_one_way(64);
            if f.host_down_at(nic.host().id, ctx.now()) || f.host_down_at(remote, there) {
                ctx.advance(self.cost.unloaded_one_way(64) * 2);
                return Err(ConnectError::Unreachable);
            }
        }

        let ptag = attrs.ptag.unwrap_or_else(|| nic.create_ptag());
        let client_end = ViEnd::new(self.alloc_vi_id(), attrs, ptag);
        let reply: Port<ConnReply> = Port::new("conn-reply");
        // Request travels one way at small-message latency.
        let there = ctx.now() + self.cost.unloaded_one_way(64);
        listener.send(
            ctx,
            ConnRequest {
                client_end: client_end.clone(),
                client_nic: nic.clone(),
                reply: reply.clone(),
            },
            there,
        );
        match reply.recv(ctx) {
            Some(ConnReply::Accept {
                server_end,
                server_nic,
            }) => Ok(Vi {
                local: client_end,
                peer: server_end,
                nic: nic.clone(),
                peer_nic: server_nic,
                faults,
                topology,
                counters: Default::default(),
            }),
            Some(ConnReply::Reject) | None => Err(ConnectError::Rejected),
        }
    }
}

/// A listening endpoint (`VipConnectWait` side).
pub struct Listener {
    requests: Port<ConnRequest>,
    nic: ViaNic,
    vi_ids: Arc<AtomicU64>,
    state: Arc<Mutex<FabricState>>,
}

impl Listener {
    /// Block until a connection request arrives, then accept it with the
    /// given server-side endpoint attributes (tagged `attrs.ptag`, or
    /// afresh). Returns the server's VI.
    pub fn accept(&self, ctx: &ActorCtx, attrs: ViAttributes) -> Option<Vi> {
        let req = self.requests.recv(ctx)?;
        let ptag = attrs.ptag.unwrap_or_else(|| self.nic.create_ptag());
        let server_end = ViEnd::new(
            ViId(self.vi_ids.fetch_add(1, Ordering::Relaxed)),
            attrs,
            ptag,
        );
        let back = ctx.now() + self.nic.cost().unloaded_one_way(64);
        req.reply.send(
            ctx,
            ConnReply::Accept {
                server_end: server_end.clone(),
                server_nic: self.nic.clone(),
            },
            back,
        );
        let (faults, topology) = {
            let st = self.state.lock();
            (st.faults.clone(), st.topology.clone())
        };
        Some(Vi {
            local: server_end,
            peer: req.client_end,
            nic: self.nic.clone(),
            peer_nic: req.client_nic,
            faults,
            topology,
            counters: Default::default(),
        })
    }

    /// Reject the next pending request (blocks for one).
    pub fn reject(&self, ctx: &ActorCtx) {
        if let Some(req) = self.requests.recv(ctx) {
            let back = ctx.now() + self.nic.cost().unloaded_one_way(64);
            req.reply.send(ctx, ConnReply::Reject, back);
        }
    }

    /// Stop listening; pending and future `connect` calls fail.
    pub fn close(&self, ctx: &ActorCtx) {
        self.requests.close(ctx);
    }
}
