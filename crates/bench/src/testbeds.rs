//! Shared experiment fixtures. Every simulation a table makes runs through
//! one of them: it returns what the client actors computed, by value, with
//! its [`Ran`], and logs its [`Run`] for the harness to take around each
//! experiment ([`logged`]) and for `bench --json` to write beside the table.

use std::cell::RefCell;
use std::sync::{mpsc, Arc};

use dafs::{DafsClient, DafsClientConfig};
use memfs::MemFs;
use mpiio::{AdioFs, Comm, JobReport, Testbed};
use nfsv3::{NfsClient, NfsClientConfig};
use simnet::obs::{Obs, Snapshot};
use simnet::topo::Topology;
use simnet::{ActorCtx, Cluster, FaultPlan, HostId, SimKernel, SimTime};
use tcpnet::{TcpCost, TcpFabric};
use via::{ViaCost, ViaFabric, ViaNic};

/// The well-known service port used by all experiments.
pub const PORT: u16 = 2049;

/// One simulation behind a table, as `bench --json` records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Virtual time the run ended at, in ns.
    pub end_ns: u64,
    /// Events its kernel scheduled.
    pub events: u64,
    /// The seed of the fault plan that judged its messages, if one did.
    pub fault_seed: Option<u64>,
}

thread_local! {
    /// The runs this thread's fixtures finished, oldest first.
    static RUNS: RefCell<Vec<Run>> = const { RefCell::new(Vec::new()) };
}

/// Log the run a kernel made: it ended at `end` and scheduled the events
/// this thread counted since `events0`.
fn log(end: SimTime, events0: u64, fault_seed: Option<u64>) -> Run {
    let events = simnet::events_scheduled_global() - events0;
    let run = Run {
        end_ns: end.as_nanos(),
        events,
        fault_seed,
    };
    RUNS.with_borrow_mut(|runs| runs.push(run));
    run
}

/// Run `experiment`; return what it returned and the runs its fixtures
/// logged meanwhile, oldest first.
pub fn logged<T>(experiment: impl FnOnce() -> T) -> (T, Vec<Run>) {
    let outer = RUNS.take();
    let out = experiment();
    (out, RUNS.replace(outer))
}

/// A finished simulation: its [`Run`] and its kernel's observability handle.
pub struct Ran {
    /// The run, as logged.
    pub run: Run,
    /// The kernel's observability handle.
    pub obs: Obs,
}

impl Ran {
    /// The metrics registry frozen at the end of the run.
    pub fn snapshot(&self) -> Snapshot {
        self.obs.snapshot(self.run.end_ns)
    }
}

/// Virtual nanoseconds `f` takes on `ctx`'s clock.
pub fn timed(ctx: &ActorCtx, f: impl FnOnce()) -> u64 {
    let t0 = ctx.now();
    f();
    ctx.now().since(t0).as_nanos()
}

/// What `(index, value)` pairs arrived on `rx`, as values in index order;
/// there must be `n`.
fn in_order<T>(rx: mpsc::Receiver<(usize, T)>, n: usize) -> Vec<T> {
    let mut outs: Vec<(usize, T)> = rx.try_iter().collect();
    assert_eq!(outs.len(), n, "an actor did not return");
    outs.sort_by_key(|&(i, _)| i);
    outs.into_iter().map(|(_, out)| out).collect()
}

/// Run one simulation on a fresh kernel. `setup` spawns what the clients
/// talk to and returns the clients, each a name and a body, spawned in
/// that order; the run lasts until every actor that is not a daemon has
/// returned, and the clients' values come back in client order, with the
/// run. `fault_seed` is the seed of the plan `setup` gave the fabric, if any.
pub fn simulate<T, B>(
    fault_seed: Option<u64>,
    setup: impl FnOnce(&SimKernel) -> Vec<(String, B)>,
) -> (Vec<T>, Ran)
where
    T: Send + 'static,
    B: FnOnce(&ActorCtx) -> T + Send + 'static,
{
    let kernel = SimKernel::new();
    let clients = setup(&kernel);
    let n = clients.len();
    let (tx, rx) = mpsc::channel();
    for (i, (name, body)) in clients.into_iter().enumerate() {
        let tx = tx.clone();
        kernel.spawn(&name, move |ctx| tx.send((i, body(ctx))).unwrap());
    }
    let obs = kernel.obs().clone();
    let events0 = simnet::events_scheduled_global();
    let run = log(kernel.run(), events0, fault_seed);
    (in_order(rx, n), Ran { run, obs })
}

/// [`simulate`] with one client, `name`, whose body `setup` returns.
pub fn with_client<T, B>(
    name: &str,
    fault_seed: Option<u64>,
    setup: impl FnOnce(&SimKernel) -> B,
) -> (T, Ran)
where
    T: Send + 'static,
    B: FnOnce(&ActorCtx) -> T + Send + 'static,
{
    let (mut outs, ran) = simulate(fault_seed, |kernel| vec![(name.to_string(), setup(kernel))]);
    (outs.pop().expect("one client"), ran)
}

/// Run `ranks` MPI ranks of `body` on `tb` ([`Testbed::run`]); return what
/// each rank returned, in rank order, and the job's report. A table's
/// testbed carries no fault plan.
pub fn run_ranks<T, F>(tb: Testbed, ranks: usize, body: F) -> (Vec<T>, JobReport)
where
    T: Send + 'static,
    F: Fn(&ActorCtx, &Comm, &dyn AdioFs) -> T + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel();
    let events0 = simnet::events_scheduled_global();
    let report = tb.run(ranks, move |ctx, comm, adio| {
        tx.send((comm.rank(), body(ctx, comm, adio))).unwrap()
    });
    log(report.end_time, events0, None);
    (in_order(rx, ranks), report)
}

/// Run one client actor against a fresh DAFS server and return what `body`
/// returned, with the run: [`with_dafs_cluster`] with one server and client.
pub fn with_dafs_client<T, F>(
    via_cost: ViaCost,
    client_cfg: DafsClientConfig,
    plan: Option<FaultPlan>,
    prefill: impl FnOnce(&MemFs),
    body: F,
) -> (T, Ran)
where
    T: Send + 'static,
    F: Fn(&ActorCtx, &DafsClient, &ViaNic) -> T + Send + Sync + 'static,
{
    let (mut outs, ran, ..) = with_dafs_cluster(
        1,
        1,
        via_cost,
        client_cfg,
        plan,
        None,
        Dial::EveryServer,
        |fss| prefill(&fss[0]),
        move |ctx, _, cs, nic| body(ctx, &cs[0], nic),
    );
    (outs.pop().expect("one client"), ran)
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
/// (`topo: None`) or behind a switched fabric — and return what each
/// client's `body` returned, in client order, with the run, the servers'
/// file systems and the topology. Construction order matters: server hosts
/// first, so their [`HostId`]s are `0..servers` and a [`FaultPlan`] can
/// target one server's links by id; then `topo` builds the topology (its
/// switch pseudo-hosts are rail-down targets); then client hosts, which
/// ride the topology's default attachment. A seeded plan judges every
/// message, the session handshakes included. Each client connects the
/// sessions `dial` names before `body` and disconnects after.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn with_dafs_cluster<T, F>(
    servers: usize,
    clients: usize,
    via_cost: ViaCost,
    client_cfg: DafsClientConfig,
    plan: Option<FaultPlan>,
    topo: Option<Box<dyn FnOnce(&Cluster, &[HostId]) -> Topology + '_>>,
    dial: Dial,
    prefill: impl FnOnce(&[MemFs]),
    body: F,
) -> (Vec<T>, Ran, Vec<MemFs>, Option<Arc<Topology>>)
where
    T: Send + 'static,
    F: Fn(&ActorCtx, usize, &[Arc<DafsClient>], &ViaNic) -> T + Send + Sync + 'static,
{
    let cluster = Cluster::new();
    let fabric = Arc::new(ViaFabric::new(via_cost));
    let fault_seed = plan.as_ref().map(FaultPlan::seed);
    let fss: Vec<MemFs> = (0..servers).map(|_| MemFs::new()).collect();
    let mut topology = None;
    let body = Arc::new(body);
    let (outs, ran) = simulate(fault_seed, |kernel| {
        let mut sids = Vec::new();
        for (s, fs) in fss.iter().enumerate() {
            let nic = fabric.open_nic(cluster.add_host(&format!("server{s}")));
            sids.push(nic.host().id);
            dafs::spawn_dafs_server(kernel, &fabric, nic, fs.clone(), PORT, Default::default());
        }
        topology = topo.map(|build| Arc::new(build(&cluster, &sids)));
        if let Some(t) = &topology {
            fabric.set_topology(t.clone());
        }
        if let Some(p) = plan {
            fabric.set_fault_plan(p);
        }
        prefill(&fss);
        (0..clients)
            .map(|i| {
                let (fabric, body) = (fabric.clone(), body.clone());
                let host = cluster.add_host(&format!("client{i}"));
                let sids = match dial {
                    Dial::EveryServer => sids.clone(),
                    Dial::Shard => vec![sids[i % servers]],
                };
                let client = move |ctx: &ActorCtx| {
                    let nic = fabric.open_nic(host);
                    let cs: Vec<Arc<DafsClient>> = (sids.iter())
                        .map(|&sid| DafsClient::connect(ctx, &fabric, &nic, sid, PORT, client_cfg))
                        .map(|c| Arc::new(c.unwrap()))
                        .collect();
                    let out = body(ctx, i, &cs, &nic);
                    cs.iter().for_each(|c| c.disconnect(ctx));
                    out
                };
                (format!("client{i}"), client)
            })
            .collect()
    });
    (outs, ran, fss, topology)
}

/// Run one client actor against a fresh NFS server and return what `body`
/// returned, with the run; `body` also gets the TCP fabric (for a host's
/// kernel time). A seeded [`FaultPlan`], if any, is installed on the TCP
/// fabric before the server spawns, and arms the client's RPC
/// retransmission machinery at mount time.
pub fn with_nfs_client<T, F>(
    client_cfg: NfsClientConfig,
    plan: Option<FaultPlan>,
    prefill: impl FnOnce(&MemFs),
    body: F,
) -> (T, Ran)
where
    T: Send + 'static,
    F: FnOnce(&ActorCtx, &NfsClient, &TcpFabric) -> T + Send + 'static,
{
    let cluster = Cluster::new();
    let fabric = TcpFabric::new(TcpCost::default());
    let fault_seed = plan.as_ref().map(FaultPlan::seed);
    if let Some(p) = plan {
        fabric.set_fault_plan(p);
    }
    let server_host = cluster.add_host("server0");
    let (sid, host) = (server_host.id, cluster.add_host("client0"));
    let fs = MemFs::new();
    prefill(&fs);
    with_client("client", fault_seed, move |kernel| {
        nfsv3::spawn_nfs_server(kernel, &fabric, server_host, fs, PORT, Default::default());
        move |ctx| {
            let c = NfsClient::mount(ctx, &fabric, &host, sid, PORT, client_cfg).unwrap();
            let out = body(ctx, &c, &fabric);
            c.unmount(ctx);
            out
        }
    })
}
