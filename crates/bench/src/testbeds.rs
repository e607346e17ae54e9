//! Shared experiment fixtures: protocol-level client/server pairs and
//! simple measurement helpers used by several experiments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use dafs::{DafsClient, DafsClientConfig, DafsServerCost};
use memfs::MemFs;
use nfsv3::{NfsClient, NfsClientConfig, NfsServerCost};
use simnet::obs::{Obs, Snapshot};
use simnet::topo::Topology;
use simnet::{ActorCtx, Cluster, FaultPlan, Host, HostId, SimKernel, SimTime};
use tcpnet::{TcpCost, TcpFabric};
use via::{ViaCost, ViaFabric, ViaNic};

/// The well-known service port used by all experiments.
pub const PORT: u16 = 2049;

/// The observability side of a completed testbed run: the kernel's [`Obs`]
/// handle plus the virtual end time, so experiments can snapshot the
/// registry and (when `MPIO_DAFS_TRACE` is set) render per-layer breakdown
/// tables.
pub struct RunObs {
    /// The kernel's observability handle.
    pub obs: Obs,
    /// Virtual time when the run completed.
    pub end: SimTime,
}

impl RunObs {
    /// Whether trace output was enabled for the run.
    pub fn traced(&self) -> bool {
        self.obs.enabled()
    }

    /// The metrics registry frozen at the end of the run.
    pub fn snapshot(&self) -> Snapshot {
        self.obs.snapshot(self.end.as_nanos())
    }
}

/// A shared slot for extracting one u64 measurement from an actor.
#[derive(Clone, Default)]
pub struct Probe(Arc<AtomicU64>);

impl Probe {
    /// Fresh probe.
    pub fn new() -> Probe {
        Probe::default()
    }

    /// Store a value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Monotone max-update.
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Read the value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Virtual nanoseconds `f` takes on `ctx`'s clock.
pub fn timed(ctx: &ActorCtx, f: impl FnOnce()) -> u64 {
    let t0 = ctx.now();
    f();
    ctx.now().since(t0).as_nanos()
}

/// Run one client actor against a fresh DAFS server and return what `body`
/// returned once the simulation completes. A seeded [`FaultPlan`], if any,
/// is installed on the VIA fabric before the server spawns, so every
/// message (including the session handshake) is judged against it.
pub fn with_dafs_client<T, F>(
    via_cost: ViaCost,
    server_cost: DafsServerCost,
    client_cfg: DafsClientConfig,
    plan: Option<FaultPlan>,
    prefill: impl FnOnce(&MemFs),
    body: F,
) -> (T, Host, RunObs)
where
    T: Send + 'static,
    F: FnOnce(&ActorCtx, &DafsClient, &ViaNic) -> T + Send + 'static,
{
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(via_cost);
    if let Some(p) = plan {
        fabric.set_fault_plan(p);
    }
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let fs = MemFs::new();
    prefill(&fs);
    let server = dafs::spawn_dafs_server(&kernel, &fabric, server_nic, fs, PORT, server_cost);
    let client_host = cluster.add_host("client0");
    let ch = client_host.clone();
    let sid = server.host.id;
    let (tx, rx) = mpsc::channel();
    kernel.spawn("client", move |ctx| {
        let nic = fabric.open_nic(ch.clone());
        let c = DafsClient::connect(ctx, &fabric, &nic, sid, PORT, client_cfg).unwrap();
        let out = body(ctx, &c, &nic);
        c.disconnect(ctx);
        tx.send(out).expect("the receiver outlives the run");
    });
    let obs = kernel.obs().clone();
    let end = kernel.run();
    let out = rx.try_recv().expect("the client actor returned");
    (out, client_host, RunObs { obs, end })
}

/// Which servers each client actor of [`with_dafs_cluster`] dials.
pub enum Dial {
    /// One session per server, in server order — what a client needs to
    /// assemble a [`dafs::DafsStripedFile`] over the whole server set.
    EveryServer,
    /// One session, to server `i % servers` for client `i`: a 1024-client
    /// sweep stays at one session per client instead of `clients × servers`.
    Shard,
}

/// Run `clients` client actors against `servers` fresh DAFS servers, each
/// exporting its own [`MemFs`] — the one multi-host fixture, point-to-point
/// (`topo: None`) or behind a switched fabric. Construction order matters:
/// server hosts first, so their [`HostId`]s are `0..servers` and a
/// [`FaultPlan`] can target one server's links by id; then `topo` builds
/// the topology (its switch pseudo-hosts are rail-down targets); then
/// client hosts, which ride the topology's default attachment. Each client
/// connects the sessions `dial` names before `body` and disconnects after.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn with_dafs_cluster<F>(
    servers: usize,
    clients: usize,
    via_cost: ViaCost,
    server_cost: DafsServerCost,
    client_cfg: DafsClientConfig,
    plan: Option<FaultPlan>,
    topo: Option<Box<dyn FnOnce(&Cluster, &[HostId]) -> Topology + '_>>,
    dial: Dial,
    prefill: impl FnOnce(&[MemFs]),
    body: F,
) -> (Vec<MemFs>, Option<Arc<Topology>>, RunObs)
where
    F: Fn(&ActorCtx, usize, &[Arc<DafsClient>], &ViaNic) + Send + Sync + 'static,
{
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = Arc::new(ViaFabric::new(via_cost));
    let mut fss = Vec::new();
    let mut sids = Vec::new();
    for s in 0..servers {
        let nic = fabric.open_nic(cluster.add_host(&format!("server{s}")));
        let fs = MemFs::new();
        fss.push(fs.clone());
        let h = dafs::spawn_dafs_server(&kernel, &fabric, nic, fs, PORT, server_cost);
        sids.push(h.host.id);
    }
    let topology = topo.map(|build| Arc::new(build(&cluster, &sids)));
    if let Some(t) = &topology {
        fabric.set_topology(t.clone());
    }
    if let Some(p) = plan {
        fabric.set_fault_plan(p);
    }
    prefill(&fss);
    let body = Arc::new(body);
    for i in 0..clients {
        let fabric = fabric.clone();
        let host = cluster.add_host(&format!("client{i}"));
        let sids = match dial {
            Dial::EveryServer => sids.clone(),
            Dial::Shard => vec![sids[i % servers]],
        };
        let body = body.clone();
        kernel.spawn(&format!("client{i}"), move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let cs: Vec<Arc<DafsClient>> = sids
                .iter()
                .map(|&sid| {
                    Arc::new(
                        DafsClient::connect(ctx, &fabric, &nic, sid, PORT, client_cfg).unwrap(),
                    )
                })
                .collect();
            body(ctx, i, &cs, &nic);
            for c in &cs {
                c.disconnect(ctx);
            }
        });
    }
    let obs = kernel.obs().clone();
    let end = kernel.run();
    (fss, topology, RunObs { obs, end })
}

/// Run one client actor against a fresh NFS server and return what `body`
/// returned once the simulation completes. A seeded [`FaultPlan`], if any,
/// is installed on the TCP fabric before the server spawns, and arms the
/// client's RPC retransmission machinery at mount time.
pub fn with_nfs_client<T, F>(
    tcp_cost: TcpCost,
    server_cost: NfsServerCost,
    client_cfg: NfsClientConfig,
    plan: Option<FaultPlan>,
    prefill: impl FnOnce(&MemFs),
    body: F,
) -> (T, Host, TcpFabric, RunObs)
where
    T: Send + 'static,
    F: FnOnce(&ActorCtx, &NfsClient) -> T + Send + 'static,
{
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = TcpFabric::new(tcp_cost);
    if let Some(p) = plan {
        fabric.set_fault_plan(p);
    }
    let server_host = cluster.add_host("server0");
    let fs = MemFs::new();
    prefill(&fs);
    let server = nfsv3::spawn_nfs_server(&kernel, &fabric, server_host, fs, PORT, server_cost);
    let client_host = cluster.add_host("client0");
    let ch = client_host.clone();
    let sid = server.host.id;
    let f2 = fabric.clone();
    let (tx, rx) = mpsc::channel();
    kernel.spawn("client", move |ctx| {
        let c = NfsClient::mount(ctx, &f2, &ch, sid, PORT, client_cfg).unwrap();
        let out = body(ctx, &c);
        c.unmount(ctx);
        tx.send(out).expect("the receiver outlives the run");
    });
    let obs = kernel.obs().clone();
    let end = kernel.run();
    let out = rx.try_recv().expect("the client actor returned");
    (out, client_host, fabric, RunObs { obs, end })
}
