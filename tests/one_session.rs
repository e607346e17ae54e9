//! The identity the single DAFS ADIO driver rests on: a one-session
//! [`DafsStripedFile`] is the bare [`DafsClient`] — same virtual time, same
//! wire requests, same bytes by transfer mode — for every shape the driver
//! issues, not only R-F8's contiguous 512 KiB control row. Plus the one
//! place where more than one server changes an answer: the stream-order
//! count of a read that crosses a hole at the logical end of file.

use std::sync::{Arc, Mutex};

use mpio_dafs::dafs::{
    self, BatchDir, DafsClient, DafsClientConfig, DafsServerCost, DafsStripedFile, IoReq, ListReq,
};
use mpio_dafs::memfs::{MemFs, NodeId, ROOT_ID};
use mpio_dafs::simnet::{ActorCtx, Cluster, SimKernel, VirtAddr};
use mpio_dafs::via::{ViaCost, ViaFabric, ViaNic};

const PORT: u16 = 2049;
const STRIPE: u64 = 64 << 10;

/// `servers` DAFS servers, each exporting a filesystem `prefill` has seen,
/// and one client actor holding a session to every server (in server
/// order). Returns the virtual end time in nanoseconds.
fn with_sessions(
    servers: usize,
    prefill: impl Fn(usize, &MemFs),
    body: impl FnOnce(&ActorCtx, Vec<Arc<DafsClient>>, &ViaNic) + Send + 'static,
) -> u64 {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(ViaCost::default());
    let mut ids = Vec::new();
    for s in 0..servers {
        let fs = MemFs::new();
        prefill(s, &fs);
        let nic = fabric.open_nic(cluster.add_host(&format!("server{s}")));
        let cost = DafsServerCost::default();
        ids.push(
            dafs::spawn_dafs_server(&kernel, &fabric, nic, fs, PORT, cost)
                .host
                .id,
        );
    }
    let nic = fabric.open_nic(cluster.add_host("client"));
    kernel.spawn("client", move |ctx| {
        let cfg = DafsClientConfig::default();
        let cs: Vec<Arc<DafsClient>> = ids
            .iter()
            .map(|id| Arc::new(DafsClient::connect(ctx, &fabric, &nic, *id, PORT, cfg).unwrap()))
            .collect();
        body(ctx, cs.clone(), &nic);
        for c in cs {
            c.disconnect(ctx);
        }
    });
    kernel.run().as_nanos()
}

/// The two ways to reach one server.
enum Path {
    Bare(Arc<DafsClient>, NodeId),
    OneSession(DafsStripedFile),
}

impl Path {
    fn contig(&self, ctx: &ActorCtx, dir: BatchDir, r: IoReq) -> u64 {
        match (self, dir) {
            (Path::Bare(c, fh), BatchDir::Read) => c.read(ctx, *fh, r.off, r.addr, r.len).unwrap(),
            (Path::Bare(c, fh), BatchDir::Write) => {
                c.write(ctx, *fh, r.off, r.addr, r.len).unwrap();
                r.len
            }
            (Path::OneSession(f), BatchDir::Read) => f.read(ctx, r.off, r.addr, r.len).unwrap(),
            (Path::OneSession(f), BatchDir::Write) => {
                f.write(ctx, r.off, r.addr, r.len).unwrap();
                r.len
            }
        }
    }

    fn batch(&self, ctx: &ActorCtx, dir: BatchDir, reqs: &[IoReq]) -> u64 {
        match self {
            Path::Bare(c, fh) => {
                let b = c.issue(ctx, dir, *fh, reqs);
                c.batch_finish(ctx, b).into_iter().map(Result::unwrap).sum()
            }
            Path::OneSession(f) => f.batch_finish(ctx, f.issue(ctx, dir, reqs)).unwrap(),
        }
    }

    fn list(&self, ctx: &ActorCtx, dir: BatchDir, req: ListReq) -> u64 {
        match self {
            Path::Bare(c, fh) => {
                let b = c.issue_list(ctx, dir, *fh, &[req]);
                c.batch_finish(ctx, b).remove(0).unwrap()
            }
            Path::OneSession(f) => f.batch_finish(ctx, f.issue_list(ctx, dir, &[req])).unwrap(),
        }
    }
}

/// After each step: (virtual ns, bytes moved, `dafs.ops`, and the bytes of
/// `dafs.inline.{read,write}.bytes` and of `dafs.direct.read.bytes`).
type Step = (u64, u64, u64, u64, u64);

/// {contiguous, batch, list} × {write, read} × {4 KiB inline, 128 KiB
/// direct} against a 2 MiB file, logging a [`Step`] after each.
fn shapes(ctx: &ActorCtx, path: &Path, buf: VirtAddr) -> Vec<Step> {
    let mut log = Vec::new();
    let mut step = |moved: u64| {
        let m = ctx.metrics();
        log.push((
            ctx.now().as_nanos(),
            moved,
            m.total("dafs.ops"),
            m.total("dafs.inline.read.bytes") + m.total("dafs.inline.write.bytes"),
            m.total("dafs.direct.read.bytes"),
        ));
    };
    for len in [4u64 << 10, 128 << 10] {
        // Three requests, gapped in the file (so the list does not merge)
        // and back to back in the buffer; the 128 KiB ones span stripes.
        let reqs: Vec<IoReq> = (0..3)
            .map(|i| IoReq {
                off: 1000 + i * (STRIPE + len + 1000),
                addr: buf.offset(i * len),
                len,
            })
            .collect();
        let segs = reqs
            .iter()
            .map(|r| (r.off, r.len, r.addr.as_u64() - buf.as_u64()));
        let list = ListReq {
            segs: segs.collect(),
            buf,
        };
        for dir in [BatchDir::Write, BatchDir::Read] {
            step(path.contig(ctx, dir, reqs[2]));
            step(path.batch(ctx, dir, &reqs));
            step(path.list(ctx, dir, list.clone()));
        }
    }
    log
}

#[test]
fn one_session_striped_file_is_the_bare_client() {
    fn run(striped: bool) -> (u64, Vec<Step>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let out = log.clone();
        let end = with_sessions(
            1,
            |_, fs| {
                let f = fs.create(ROOT_ID, "f").unwrap();
                fs.write(f.id, 0, &vec![9u8; 2 << 20]).unwrap();
            },
            move |ctx, cs, nic| {
                let fh = cs[0].lookup(ctx, ROOT_ID, "f").unwrap().id;
                let path = if striped {
                    Path::OneSession(DafsStripedFile::new(cs, vec![fh], STRIPE))
                } else {
                    Path::Bare(cs[0].clone(), fh)
                };
                let buf = nic.host().mem.alloc(3 * (128 << 10));
                *out.lock().unwrap() = shapes(ctx, &path, buf);
            },
        );
        let log = log.lock().unwrap().clone();
        (end, log)
    }
    let (bare_end, bare) = run(false);
    let (one_end, one) = run(true);
    assert_eq!(bare.len(), 12);
    // Every read and write moved what it asked for, in both modes.
    for (i, s) in bare.iter().enumerate() {
        let len = if i < 6 { 4u64 << 10 } else { 128 << 10 };
        assert_eq!(s.1, if i % 3 == 0 { len } else { 3 * len }, "step {i}");
    }
    let last = bare.last().unwrap();
    assert!(last.3 > 0 && last.4 > 0, "both transfer modes exercised");
    assert_eq!(
        one, bare,
        "(ns, bytes, ops, inline, direct) after each step"
    );
    assert_eq!(one_end, bare_end);
}

/// Two servers, 4 KiB stripes. Server 0 holds logical blocks 0 and 2 in
/// full; server 1's piece file ends 1000 bytes into block 1. A read across
/// all three blocks counts in stream order — up to the hole, not the sum
/// of what each server returned — and the cut restarts at each request of
/// a batch.
#[test]
fn striped_read_counts_in_stream_order_across_an_eof_hole() {
    const BLK: u64 = 4096;
    with_sessions(
        2,
        |s, fs| {
            let f = fs.create(ROOT_ID, "f").unwrap();
            let len = if s == 0 { 2 * BLK } else { 1000 };
            fs.write(f.id, 0, &vec![s as u8 + 1; len as usize]).unwrap();
        },
        |ctx, cs, nic| {
            let fhs = cs
                .iter()
                .map(|c| c.lookup(ctx, ROOT_ID, "f").unwrap().id)
                .collect();
            let f = DafsStripedFile::new(cs, fhs, BLK);
            assert_eq!(f.get_size(ctx).unwrap(), 3 * BLK);
            let buf = nic.host().mem.alloc(4 * BLK as usize);
            assert_eq!(f.read(ctx, 0, buf, 3 * BLK).unwrap(), BLK + 1000);
            let reqs = [
                IoReq {
                    off: 0,
                    addr: buf,
                    len: 3 * BLK,
                },
                IoReq {
                    off: 2 * BLK,
                    addr: buf.offset(3 * BLK),
                    len: BLK,
                },
            ];
            let b = f.issue(ctx, BatchDir::Read, &reqs);
            assert_eq!(f.batch_finish(ctx, b).unwrap(), (BLK + 1000) + BLK);
            // What did land is where it belongs.
            let got = nic.host().mem.read_vec(buf, 4 * BLK as usize);
            assert_eq!(got[BLK as usize - 1], 1);
            assert_eq!(got[BLK as usize + 999], 2);
            assert_eq!(got[3 * BLK as usize], 1);
        },
    );
}
