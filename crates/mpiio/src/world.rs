//! Job harness: assemble a whole simulated cluster — ranks, interconnect,
//! file server, transport — and run an MPI-IO program on it.
//!
//! This is what the examples, integration tests, and every experiment in
//! `EXPERIMENTS.md` use: pick a [`Backend`] (DAFS-over-VIA, NFS-over-TCP,
//! or node-local UFS), a rank count, and a closure of MPI-IO calls; get
//! back a [`JobReport`] of virtual time and resource accounting.

use std::sync::Arc;

use dafs::{DafsClient, DafsClientConfig, DafsServerCost};
use memfs::MemFs;
use nfsv3::{NfsClient, NfsClientConfig, NfsServerCost};
use obs::{Obs, Snapshot};
use parking_lot::Mutex;
use simnet::topo::{DumbbellSpec, QueuePolicy, Topology};
use simnet::{
    ActorCtx, Bandwidth, Cluster, FaultPlan, Host, HostId, SimDuration, SimKernel, SimTime,
};
use tcpnet::{TcpCost, TcpFabric};
use via::{ViaCost, ViaFabric};

use crate::adio::{AdioFs, DafsAdio, DriverKind, NfsAdio, UfsAdio, UfsCost};
use crate::comm::{Comm, CommCost};

/// Which file-access stack the job runs on.
#[derive(Clone)]
pub enum Backend {
    /// The paper's system: DAFS over VIA, one server or files striped
    /// round-robin over several (one session per server per rank).
    Dafs {
        /// VIA fabric cost model.
        via: ViaCost,
        /// Per-server cost model.
        server: DafsServerCost,
        /// Per-rank, per-session client configuration.
        client: DafsClientConfig,
        /// Number of DAFS servers (hosts 0..servers-1); 1 is the paper's.
        servers: usize,
    },
    /// The baseline: NFSv3 over the kernel TCP path.
    Nfs {
        /// TCP path cost model.
        tcp: TcpCost,
        /// Server cost model.
        server: NfsServerCost,
        /// Per-rank mount configuration.
        client: NfsClientConfig,
    },
    /// Node-local in-memory filesystem (each rank its own; the "local
    /// bound" comparator).
    Ufs {
        /// Local filesystem cost model.
        cost: UfsCost,
    },
}

impl Backend {
    /// Default DAFS backend (cLAN-like fabric), one server.
    pub fn dafs() -> Backend {
        Backend::dafs_striped(1)
    }

    /// Default DAFS backend striped over `servers` servers.
    pub fn dafs_striped(servers: usize) -> Backend {
        Backend::Dafs {
            via: ViaCost::default(),
            server: DafsServerCost::default(),
            client: DafsClientConfig::default(),
            servers,
        }
    }

    /// Default NFS backend.
    pub fn nfs() -> Backend {
        Backend::Nfs {
            tcp: TcpCost::default(),
            server: NfsServerCost::default(),
            client: NfsClientConfig::default(),
        }
    }

    /// Default UFS backend.
    pub fn ufs() -> Backend {
        Backend::Ufs {
            cost: UfsCost::default(),
        }
    }

    /// Which ADIO driver this backend mounts (DAFS over more than one
    /// server reports as striped).
    pub fn kind(&self) -> DriverKind {
        match self {
            Backend::Dafs { servers: 1, .. } => DriverKind::Dafs,
            Backend::Dafs { .. } => DriverKind::DafsStriped,
            Backend::Nfs { .. } => DriverKind::Nfs,
            Backend::Ufs { .. } => DriverKind::Ufs,
        }
    }
}

/// Wall-clock harness statistics for one run: how fast the *simulator
/// itself* executed, measured on the host machine. Orthogonal to every
/// virtual-time result — never fed into the metrics registry, and filtered
/// out of all byte-identity comparisons.
#[derive(Debug, Clone)]
pub struct WallStats {
    /// Host wall-clock time spent inside `kernel.run()`.
    pub elapsed: std::time::Duration,
    /// Simulation events dispatched during the run.
    pub sim_events: u64,
    /// Payload bytes that passed through refcounted buffers during the run
    /// (slab charges, i.e. unique bytes materialized — zero-copy views are
    /// free and do not count).
    pub bytes_buffered: u64,
    /// High-water mark of refcounted buffer bytes alive at once.
    pub peak_bytes_alive: u64,
}

impl WallStats {
    /// Simulation events dispatched per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.sim_events as f64 / self.elapsed.as_secs_f64()
    }
}

/// Post-run accounting.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Virtual time when the last rank finished.
    pub end_time: SimTime,
    /// Server host CPU busy time (zero for UFS).
    pub server_cpu: SimDuration,
    /// Server kernel (softirq) time — NFS only.
    pub server_kernel: SimDuration,
    /// Sum of rank-host CPU busy time.
    pub ranks_cpu: SimDuration,
    /// Server requests served.
    pub server_ops: u64,
    /// Which backend the job ran on.
    pub backend: DriverKind,
    /// Whether trace output (`MPIO_DAFS_TRACE`) was enabled for the run.
    pub traced: bool,
    /// The metrics registry frozen at `end_time`.
    pub snapshot: Snapshot,
    /// Wall-clock harness throughput for this run.
    pub wall: WallStats,
}

/// A fully assembled simulated cluster ready to run one job.
pub struct Testbed {
    kernel: SimKernel,
    cluster: Cluster,
    backend: Backend,
    /// The exported filesystem (server-side handle for test verification;
    /// server 0's piece filesystem on the striped backend).
    pub fs: MemFs,
    /// All server-side filesystems, in server order (one entry for the
    /// single-server backends; empty for UFS).
    pub server_fss: Vec<MemFs>,
    dafs_handles: Vec<dafs::DafsServerHandle>,
    nfs_handle: Option<nfsv3::NfsServerHandle>,
    via_fabric: Option<ViaFabric>,
    tcp_fabric: Option<TcpFabric>,
    /// Switched-fabric topology, when built via [`Testbed::switched`];
    /// `None` keeps the point-to-point wires (all pre-fabric testbeds).
    topology: Option<Arc<Topology>>,
    /// Intended client/rank count of a switched testbed (0 otherwise).
    clients: usize,
}

const PORT: u16 = 2049;

impl Testbed {
    /// Build the server side of a testbed. Observability follows the
    /// environment (`MPIO_DAFS_TRACE`); use [`Testbed::with_obs`] to inject
    /// a specific sink (deterministic trace tests).
    pub fn new(backend: Backend) -> Testbed {
        Testbed::with_obs(backend, Obs::from_env())
    }

    /// Build a testbed whose kernel uses the given observability handle.
    pub fn with_obs(backend: Backend, obs: Obs) -> Testbed {
        let kernel = SimKernel::with_obs(obs);
        let cluster = Cluster::new();
        let fs = MemFs::new();
        let mut server_fss = Vec::new();
        let mut dafs_handles = Vec::new();
        let mut nfs_handle = None;
        let mut via_fabric = None;
        let mut tcp_fabric = None;
        match &backend {
            Backend::Dafs {
                via,
                server,
                servers,
                ..
            } => {
                assert!(*servers >= 1, "DAFS backend needs at least one server");
                let fabric = ViaFabric::new(*via);
                for s in 0..*servers {
                    // Server 0 exports the testbed's primary fs handle.
                    let sfs = if s == 0 { fs.clone() } else { MemFs::new() };
                    let nic = fabric.open_nic(cluster.add_host(&format!("server{s}")));
                    dafs_handles.push(dafs::spawn_dafs_server(
                        &kernel,
                        &fabric,
                        nic,
                        sfs.clone(),
                        PORT,
                        *server,
                    ));
                    server_fss.push(sfs);
                }
                via_fabric = Some(fabric);
            }
            Backend::Nfs { tcp, server, .. } => {
                let fabric = TcpFabric::new(*tcp);
                let host = cluster.add_host("server0");
                nfs_handle = Some(nfsv3::spawn_nfs_server(
                    &kernel,
                    &fabric,
                    host,
                    fs.clone(),
                    PORT,
                    *server,
                ));
                server_fss.push(fs.clone());
                tcp_fabric = Some(fabric);
            }
            Backend::Ufs { .. } => {}
        }
        Testbed {
            kernel,
            cluster,
            backend,
            fs,
            server_fss,
            dafs_handles,
            nfs_handle,
            via_fabric,
            tcp_fabric,
            topology: None,
            clients: 0,
        }
    }

    /// Build the canonical switched scale-out testbed: `servers` striped
    /// DAFS servers on one leaf switch, `clients` ranks on another, joined
    /// by a trunk carrying `servers × wire_bw ÷ oversub` — `oversub = 1` is
    /// a non-blocking fabric, larger values converge the leaves onto a
    /// thinner core. Ports forward cut-through with lossless backpressure
    /// (VIA-style link-level flow control), so existing recovery machinery
    /// is exercised only when a fault plan is attached.
    pub fn switched(clients: usize, servers: usize, oversub: u64) -> Testbed {
        Testbed::switched_with(clients, servers, oversub, Obs::from_env(), None)
    }

    /// [`Testbed::switched`] with an explicit observability sink and an
    /// optional fault plan (a switch outage targets the switch's
    /// pseudo-host, [`Topology::switch_host`] via [`Testbed::topology`]).
    pub fn switched_with(
        clients: usize,
        servers: usize,
        oversub: u64,
        obs: Obs,
        plan: Option<FaultPlan>,
    ) -> Testbed {
        assert!(oversub >= 1, "oversubscription factor must be >= 1");
        let via = ViaCost::default();
        let (wire_bw, wire_latency) = (via.wire_bw, via.wire_latency);
        let mut tb = Testbed::with_obs(Backend::dafs_striped(servers), obs);
        let trunk_bw = Bandwidth::bytes_per_sec(
            (wire_bw.as_bytes_per_sec() * servers as u64 / oversub).max(1),
        );
        let topo = Arc::new(Topology::dumbbell(
            &tb.cluster,
            &tb.server_hosts(),
            DumbbellSpec {
                port_bw: wire_bw,
                trunk_bw,
                latency: wire_latency,
                queue_capacity: 64,
                policy: QueuePolicy::Backpressure,
            },
        ));
        let fabric = tb
            .via_fabric
            .as_ref()
            .expect("striped backend has a VIA fabric");
        fabric.set_topology(topo.clone());
        if let Some(p) = plan {
            fabric.set_fault_plan(p);
        }
        tb.topology = Some(topo);
        tb.clients = clients;
        tb
    }

    /// The switched-fabric topology, if this testbed has one.
    pub fn topology(&self) -> Option<Arc<Topology>> {
        self.topology.clone()
    }

    /// Intended rank count of a switched testbed (what the sweep passes to
    /// [`Testbed::run`]); 0 for point-to-point testbeds.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// All host names in id order (servers first, then switch pseudo-hosts
    /// for switched testbeds, then ranks as they spawn). Host naming is
    /// uniform — `server<s>`/`rank<i>` — regardless of topology shape.
    pub fn host_names(&self) -> Vec<String> {
        (0..self.cluster.len())
            .map(|i| self.cluster.host(HostId(i)).name().to_string())
            .collect()
    }

    /// Build a testbed whose transport fabric is judged by `plan`: every
    /// DAFS/VIA or NFS/TCP message is subject to the plan's seeded loss,
    /// jitter, link-down and host-crash schedule. UFS has no network and
    /// ignores the plan.
    ///
    /// The plan is attached before any actor runs, so the server's accept
    /// path and every rank's session see it. Host ids are assigned in
    /// construction order — the file server is always host 0 and ranks are
    /// hosts 1..=N — which is what `host_crash` windows should target (see
    /// [`Testbed::server_host`]).
    pub fn with_obs_and_faults(backend: Backend, obs: Obs, plan: FaultPlan) -> Testbed {
        let tb = Testbed::with_obs(backend, obs);
        if let Some(f) = &tb.via_fabric {
            f.set_fault_plan(plan.clone());
        }
        if let Some(f) = &tb.tcp_fabric {
            f.set_fault_plan(plan);
        }
        tb
    }

    /// [`Testbed::with_obs_and_faults`] with environment-driven observability.
    pub fn with_faults(backend: Backend, plan: FaultPlan) -> Testbed {
        Testbed::with_obs_and_faults(backend, Obs::from_env(), plan)
    }

    /// The file server's host id (None for UFS) — the target for
    /// [`FaultPlanBuilder::host_crash`](simnet::FaultPlanBuilder::host_crash)
    /// windows.
    pub fn server_host(&self) -> Option<HostId> {
        self.server_hosts().first().copied()
    }

    /// All file-server host ids, in server order (construction order: the
    /// servers are always hosts 0..N-1, ranks follow). Singleton for the
    /// single-server backends; empty for UFS.
    pub fn server_hosts(&self) -> Vec<HostId> {
        if !self.dafs_handles.is_empty() {
            self.dafs_handles.iter().map(|h| h.host.id).collect()
        } else {
            self.nfs_handle.iter().map(|h| h.host.id).collect()
        }
    }

    /// Spawn `ranks` MPI processes running `body`, drive the simulation to
    /// completion, and return the accounting report.
    ///
    /// The closure receives `(ctx, comm, adio_fs)`; each rank gets its own
    /// client session (DAFS/NFS) or local filesystem (UFS).
    pub fn run<F>(self, ranks: usize, body: F) -> JobReport
    where
        F: Fn(&ActorCtx, &Comm, &dyn AdioFs) + Send + Sync + 'static,
    {
        let backend = self.backend.clone();
        let via_fabric = self.via_fabric.clone();
        let tcp_fabric = self.tcp_fabric.clone();
        let server_host_ids = self.server_hosts();
        let server_host_id = server_host_ids.first().copied();
        let rank_hosts: Arc<Mutex<Vec<Host>>> = Arc::new(Mutex::new(Vec::new()));
        let rh = rank_hosts.clone();
        let shared_fs = self.fs.clone();
        let body = Arc::new(body);
        crate::comm::spawn_ranks(
            &self.kernel,
            &self.cluster,
            CommCost::default(),
            ranks,
            move |ctx, comm| {
                let host = comm.host().clone();
                rh.lock().push(host.clone());
                match &backend {
                    Backend::Dafs { client, .. } => {
                        let fabric = via_fabric.as_ref().unwrap();
                        let nic = fabric.open_nic(host.clone());
                        // One session per server (one, for the paper's
                        // single-server system), all over the rank's NIC.
                        let clients: Vec<Arc<DafsClient>> = server_host_ids
                            .iter()
                            .map(|sid| {
                                Arc::new(
                                    DafsClient::connect(ctx, fabric, &nic, *sid, PORT, *client)
                                        .expect("DAFS session"),
                                )
                            })
                            .collect();
                        let adio = DafsAdio::new(clients);
                        body(ctx, comm, &adio);
                    }
                    Backend::Nfs { client, .. } => {
                        let fabric = tcp_fabric.as_ref().unwrap();
                        let c = NfsClient::mount(
                            ctx,
                            fabric,
                            &host,
                            server_host_id.unwrap(),
                            PORT,
                            *client,
                        )
                        .expect("NFS mount");
                        let adio = NfsAdio::new(Arc::new(c));
                        body(ctx, comm, &adio);
                    }
                    Backend::Ufs { cost } => {
                        // Node-local model: all ranks share one filesystem
                        // object (an idealized shared local disk) so parallel
                        // jobs still see one namespace.
                        let adio = UfsAdio::new(shared_fs.clone(), host.clone(), *cost);
                        body(ctx, comm, &adio);
                    }
                }
            },
        );
        let obs = self.kernel.obs().clone();
        let ev0 = simnet::events_scheduled_global();
        let bytes0 = simnet::buf::bytes_total();
        let t0 = std::time::Instant::now();
        let end_time = self.kernel.run();
        let wall = WallStats {
            elapsed: t0.elapsed(),
            sim_events: simnet::events_scheduled_global() - ev0,
            bytes_buffered: simnet::buf::bytes_total() - bytes0,
            peak_bytes_alive: simnet::buf::bytes_peak(),
        };
        let ranks_cpu = rank_hosts
            .lock()
            .iter()
            .fold(SimDuration::ZERO, |acc, h| acc + h.cpu.busy());
        let (server_cpu, server_ops) = if !self.dafs_handles.is_empty() {
            self.dafs_handles
                .iter()
                .fold((SimDuration::ZERO, 0), |(cpu, ops), h| {
                    (cpu + h.host.cpu.busy(), ops + h.stats.ops.get())
                })
        } else if let Some(h) = &self.nfs_handle {
            (h.host.cpu.busy(), h.stats.ops.get())
        } else {
            (SimDuration::ZERO, 0)
        };
        let server_kernel = match (&self.nfs_handle, &self.tcp_fabric) {
            (Some(h), Some(f)) => f.kernel_busy(&h.host),
            _ => SimDuration::ZERO,
        };
        JobReport {
            end_time,
            server_cpu,
            server_kernel,
            ranks_cpu,
            server_ops,
            backend: self.backend.kind(),
            traced: obs.enabled(),
            snapshot: obs.snapshot(end_time.as_nanos()),
            wall,
        }
    }

    /// The kernel's observability handle (registry + tracer).
    pub fn obs(&self) -> &Obs {
        self.kernel.obs()
    }
}
