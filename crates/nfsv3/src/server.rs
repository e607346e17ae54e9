//! The NFS server: a connection-per-client front end feeding a single
//! serial `nfsd` worker.
//!
//! Structure mirrors a 2001-era single-CPU NFS server: per-connection
//! readers do only stream reassembly; all protocol decode, filesystem work,
//! and reply encoding run serially in one `nfsd` actor, so request
//! processing contends on one CPU — which is exactly what saturates first
//! in the multi-client experiments.
//!
//! The worker is one `Nfsd`: the export, its costs and counters, and the
//! duplicate-request cache, with `serve` (the cache around one frame),
//! `serve_one` (bill, decode, execute, encode) and `dispatch` (one
//! procedure) as methods. The cache is the DAFS server's machine,
//! [`simnet::replay::ReplayCache`], keyed by connection: a retransmitted xid
//! whose reply is kept gets that reply resent verbatim, only the
//! procedures whose re-execution would be observable are kept (see
//! `proto::REPLAY_WINDOW` for why 256 per connection), and a connection's replies
//! go when its reader reports it closed.

use memfs::{MemFs, NodeId, SetAttr};
use simnet::replay::ReplayCache;
use simnet::time::units::*;
use simnet::{ActorCtx, ByteMeter, Bytes, Counter, Host, Port, SimDuration, SimKernel};
use tcpnet::{Socket, TcpFabric};

use crate::proto::{self, NfsProc, NfsStatus, Stable, REPLAY_WINDOW};
use crate::xdr::{XdrDec, XdrEnc};

/// Server-side CPU cost constants. [`Default`] is the only value: nothing
/// sets a field. The type and [`spawn_nfs_server`]'s parameter stay only
/// because the frozen benchmark crate names them (ROADMAP item 25).
#[derive(Debug, Clone, Copy)]
pub struct NfsServerCost {
    /// Fixed RPC dispatch + VFS cost per operation.
    per_op: SimDuration,
    /// Additional cost of a FILE_SYNC write or COMMIT (stable-storage
    /// flush; NVRAM-backed, so modest).
    sync: SimDuration,
}

impl Default for NfsServerCost {
    fn default() -> Self {
        NfsServerCost {
            per_op: us(20),
            sync: us(40),
        }
    }
}

/// Observable server counters.
#[derive(Clone, Default)]
pub struct NfsServerStats {
    /// Total RPCs served.
    pub ops: Counter,
    /// READ traffic (ops, bytes).
    pub reads: ByteMeter,
    /// WRITE traffic (ops, bytes).
    pub writes: ByteMeter,
}

/// Handle returned by [`spawn_nfs_server`].
pub struct NfsServerHandle {
    /// The server's counters.
    pub stats: NfsServerStats,
    /// The host the server runs on (CPU meter for utilization reports).
    pub host: Host,
}

/// Start an NFS server on `host`, exporting `fs`, listening at `port`.
///
/// Spawns daemon actors on `kernel`; returns the stats handle immediately.
pub fn spawn_nfs_server(
    kernel: &SimKernel,
    fabric: &TcpFabric,
    host: Host,
    fs: MemFs,
    port: u16,
    cost: NfsServerCost,
) -> NfsServerHandle {
    let stats = NfsServerStats::default();
    let work: Port<(u32, Work)> = Port::new("nfsd-work");

    // Acceptor: one reader daemon per connection. The listener is bound
    // now, so a client that runs before the acceptor's first turn finds it.
    {
        let listener = fabric.listen(&host, port);
        let work = work.clone();
        kernel.spawn_daemon("nfs-acceptor", move |ctx| {
            let mut n = 0u32;
            while let Some(sock) = listener.accept(ctx) {
                let work = work.clone();
                n += 1;
                ctx.spawn_daemon(&format!("nfs-conn{n}"), move |cctx| {
                    while let Ok(hdr) = sock.recv_exact(cctx, 4) {
                        let len = u32::from_be_bytes(hdr[..].try_into().unwrap()) as usize;
                        let Ok(body) = sock.recv_exact(cctx, len) else {
                            break;
                        };
                        work.send(cctx, (n, Work::Frame(body, sock.clone())), cctx.now());
                    }
                    // The close notice, behind the last frame on the same
                    // port, so the nfsd has served every frame by then.
                    work.send(cctx, (n, Work::Closed), cctx.now());
                });
            }
        });
    }

    // The serial nfsd worker.
    let mut nfsd = Nfsd {
        host: host.clone(),
        fs,
        cost,
        stats: stats.clone(),
        replay: ReplayCache::new(REPLAY_WINDOW),
    };
    kernel.spawn_daemon("nfsd", move |ctx| {
        while let Some((conn, item)) = work.recv(ctx) {
            match item {
                Work::Frame(req, sock) => nfsd.serve(ctx, conn, &req, &sock),
                Work::Closed => nfsd.forget(ctx, conn),
            }
        }
    });

    NfsServerHandle { stats, host }
}

/// What a connection's reader hands the nfsd, tagged with the connection.
enum Work {
    /// One request frame, as it arrived, and the socket to reply on.
    Frame(Bytes, Socket),
    /// The connection closed; nothing more comes from it.
    Closed,
}

/// Whether a procedure's reply must be kept for retransmits: only those
/// whose re-execution would be observable (the DAFS server's rule). A
/// retransmitted READ, LOOKUP, GETATTR, READDIR, COMMIT or NULL simply runs
/// again, so the 32 KiB of a READ reply is never held.
fn replay_cacheable(p: NfsProc) -> bool {
    matches!(
        p,
        NfsProc::SetAttr
            | NfsProc::Write
            | NfsProc::Create
            | NfsProc::Mkdir
            | NfsProc::Remove
            | NfsProc::Rmdir
            | NfsProc::Rename
    )
}

/// A reply record to `xid`, so far only its header: the one place the
/// status word is written. The record mark goes in when it is finished, so
/// the reply is framed where it is encoded.
fn reply_header(xid: u32, status: NfsStatus) -> XdrEnc {
    let mut e = XdrEnc::record(8);
    e.u32(xid).u32(status as u32);
    e
}

/// The worker's state. Owned by the one `nfsd` actor.
struct Nfsd {
    host: Host,
    fs: MemFs,
    cost: NfsServerCost,
    stats: NfsServerStats,
    /// Framed replies of mutating procedures, per connection.
    replay: ReplayCache,
}

impl Nfsd {
    /// Answer one frame from connection `conn` on `sock`: resend a kept
    /// reply to a retransmitted xid, or execute the frame and keep a
    /// mutating procedure's reply. Lookups and inserts charge no virtual
    /// time, and the resend costs what the first send did.
    fn serve(&mut self, ctx: &ActorCtx, conn: u32, req: &Bytes, sock: &Socket) {
        let mut d = XdrDec::new(req);
        let xid = d.u32().ok();
        if let Some(xid) = xid {
            if let Some(cached) = self.replay.get(conn as u64, xid) {
                ctx.metrics().counter("nfs.drc.hits").inc();
                ctx.trace(
                    "nfs",
                    "drc.hit",
                    &[
                        ("conn", obs::Value::U64(conn as u64)),
                        ("xid", obs::Value::U64(xid as u64)),
                    ],
                );
                sock.send_bytes(ctx, cached.clone());
                return;
            }
        }
        let cacheable = d
            .u32()
            .ok()
            .and_then(NfsProc::from_u32)
            .is_some_and(replay_cacheable);
        let reply = Bytes::from_vec(self.serve_one(ctx, req));
        if let (Some(xid), true) = (xid, cacheable) {
            self.replay.insert(conn as u64, xid, reply.clone());
        }
        sock.send_bytes(ctx, reply);
    }

    /// Connection `conn` closed: drop the replies kept for it, which no
    /// retransmit can ask for any more. Charges no virtual time.
    fn forget(&mut self, ctx: &ActorCtx, conn: u32) {
        self.replay.forget(conn as u64);
        ctx.trace(
            "nfs",
            "drc.forget",
            &[
                ("conn", obs::Value::U64(conn as u64)),
                ("clients", obs::Value::U64(self.replay.clients() as u64)),
            ],
        );
    }

    /// Decode, execute, and encode one RPC into its reply record. Charges
    /// nfsd CPU time. Every frame gets one reply: a frame cut short of its
    /// xid is answered under xid 0, and one that names no procedure, or
    /// cuts its arguments short, with [`NfsStatus::Io`].
    fn serve_one(&self, ctx: &ActorCtx, req: &Bytes) -> Vec<u8> {
        self.stats.ops.inc();
        self.host.compute(ctx, self.cost.per_op);

        let mut d = XdrDec::new(req);
        let xid = d.u32().unwrap_or(0);
        let mut e = reply_header(xid, NfsStatus::Ok);
        if let Err(status) = self.dispatch(ctx, &mut d, &mut e) {
            e = reply_header(xid, status);
        }
        e.finish_record()
    }

    /// Decode and execute one procedure, appending the reply body to `e`
    /// (which already holds the OK header). An error becomes the reply's
    /// status.
    fn dispatch(&self, ctx: &ActorCtx, d: &mut XdrDec, e: &mut XdrEnc) -> Result<(), NfsStatus> {
        let (host, fs, cost, stats) = (&self.host, &self.fs, &self.cost, &self.stats);
        match NfsProc::from_u32(d.u32()?).ok_or(NfsStatus::Io)? {
            NfsProc::Null => {}
            NfsProc::GetAttr => {
                let a = fs.getattr(NodeId(d.u64()?))?;
                proto::enc_attr(e, &a);
            }
            NfsProc::SetAttr => {
                let fh = NodeId(d.u64()?);
                let size = match d.u32()? {
                    0 => None,
                    _ => Some(d.u64()?),
                };
                let a = fs.setattr(fh, SetAttr { size })?;
                host.compute(ctx, cost.sync);
                proto::enc_attr(e, &a);
            }
            NfsProc::Lookup => {
                let (dir, name) = (NodeId(d.u64()?), d.string()?);
                proto::enc_attr(e, &fs.lookup(dir, &name)?);
            }
            NfsProc::Read => {
                let (fh, off, len) = (NodeId(d.u64()?), d.u64()?, d.u32()? as u64);
                let data = fs.read_views(fh, off, len)?;
                // Buffer-cache copy into the reply.
                host.copy(ctx, data.len() as u64);
                stats.reads.record(data.len() as u64);
                let eof = off + data.len() as u64 >= fs.getattr(fh)?.size;
                e.u32(data.len() as u32).u32(eof as u32).opaque_rope(&data);
            }
            NfsProc::Write => {
                let (fh, off) = (NodeId(d.u64()?), d.u64()?);
                let stable = Stable::from_u32(d.u32()?);
                let data = d.opaque()?;
                // Buffer-cache copy out of the request: modelled here, and
                // made only for a page the frame does not cover whole.
                host.copy(ctx, data.len() as u64);
                let a = fs.write_bytes(fh, off, &data)?;
                if stable != Stable::Unstable {
                    host.compute(ctx, cost.sync);
                }
                stats.writes.record(data.len() as u64);
                e.u32(data.len() as u32).u32(stable as u32);
                proto::enc_attr(e, &a);
            }
            NfsProc::Create => {
                let (dir, name) = (NodeId(d.u64()?), d.string()?);
                let a = fs.create(dir, &name)?;
                host.compute(ctx, cost.sync);
                proto::enc_attr(e, &a);
            }
            NfsProc::Mkdir => {
                let (dir, name) = (NodeId(d.u64()?), d.string()?);
                let a = fs.mkdir(dir, &name)?;
                host.compute(ctx, cost.sync);
                proto::enc_attr(e, &a);
            }
            NfsProc::Remove => {
                let (dir, name) = (NodeId(d.u64()?), d.string()?);
                fs.remove(dir, &name)?;
                host.compute(ctx, cost.sync);
            }
            NfsProc::Rmdir => {
                let (dir, name) = (NodeId(d.u64()?), d.string()?);
                fs.rmdir(dir, &name)?;
                host.compute(ctx, cost.sync);
            }
            NfsProc::Rename => {
                let (from, name) = (NodeId(d.u64()?), d.string()?);
                let (to, to_name) = (NodeId(d.u64()?), d.string()?);
                fs.rename(from, &name, to, &to_name)?;
                host.compute(ctx, cost.sync);
            }
            NfsProc::ReadDir => {
                let dir = NodeId(d.u64()?);
                // Encode entries straight off the directory map, borrowed under
                // the filesystem lock — no per-call Vec<(String, NodeId)>.
                let mut n = 0u32;
                let mut body = XdrEnc::new();
                fs.with_readdir(dir, |name, id| {
                    body.u64(id.0);
                    body.string(name);
                    n += 1;
                })?;
                e.u32(n).raw(&body.finish());
            }
            NfsProc::Commit => {
                let _fh = NodeId(d.u64()?);
                host.compute(ctx, cost.sync);
            }
        }
        Ok(())
    }
}
