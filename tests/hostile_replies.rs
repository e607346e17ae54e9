//! A reply longer than the request is a protocol error, not a write past
//! the caller's buffer: both clients against scripted peers that
//! over-answer. Each case hands the client a buffer inside a larger region
//! of `0x11`; the call must come back with the protocol error and every
//! byte of the region — the buffer too — as it was.
//!
//! At the parent commit each of these wrote the surplus after the caller's
//! buffer and returned `Ok`, and the credit case took the server's word for
//! a window of 1 000 requests over eight receive descriptors: all five
//! fail there. No existing test met a peer that over-answers. A directory
//! listing that claims more entries than it holds is the same error, and
//! so is a direct read's count past its request, which was still credited
//! as it came — `read` returned more bytes than it asked for.
//!
//! The other way round, an NFS READ answered short of EOF is no error: the
//! client reads the rest of its range, whichever way the read came in.

use std::sync::Arc;

use mpio_dafs::dafs::{BatchDir, DafsClient, DafsClientConfig, DafsError, IoReq, ListReq};
use mpio_dafs::memfs::NodeId;
use mpio_dafs::mpiio::{AdioError, AdioFs, IoFault, NfsAdio, Shape};
use mpio_dafs::nfsv3::xdr::XdrEnc;
use mpio_dafs::nfsv3::{NfsClient, NfsClientConfig, NfsError};
use mpio_dafs::simnet::{ActorCtx, Cluster, FaultPlan, Host, SimKernel, VirtAddr};
use mpio_dafs::tcpnet::{TcpCost, TcpFabric};
use mpio_dafs::via::{
    DataSegment, MemAttributes, RecvDesc, SendDesc, ViAttributes, ViaCost, ViaFabric, ViaNic,
};

const PORT: u16 = 2049;
/// Bytes the peer adds to what a read asked for.
const EXTRA: u64 = 16;
const FH: NodeId = NodeId(2);

fn le(v: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..v.len()].copy_from_slice(v);
    u64::from_le_bytes(word)
}

/// A DAFS server that grants `credits` in its `Hello` and answers every
/// read — `ReadInline`, `ReadDirect` (a count only: it writes nothing),
/// and the first segment of an inline `ReadList` — with `extra` bytes
/// more than were asked for, and every
/// `ReadDir` with a count of `u32::MAX` entries and none of them; anything
/// else gets an empty OK.
fn spawn_dafs_peer(kernel: &SimKernel, fabric: &ViaFabric, nic: ViaNic, credits: u32, extra: u64) {
    let listener = fabric.listen(&nic, PORT);
    kernel.spawn_daemon("peer", move |ctx| {
        let vi = listener.accept(ctx, ViAttributes::default()).unwrap();
        // One registration, cut into 64 receive slots and a send buffer:
        // the client's `Hello` must find a descriptor posted.
        let (mem, slot) = (&nic.host().mem, 1u64 << 10);
        let base = mem.alloc(128 << 10);
        let h = nic.register_mem(ctx, base, 128 << 10, MemAttributes::local(vi.ptag()));
        let recv = |i: u64| {
            let seg = DataSegment::new(base.offset(i * slot), slot as u32, h);
            vi.post_recv(ctx, RecvDesc::new(vec![seg]));
        };
        (0..64).for_each(recv);
        let (sbuf, mut next) = (base.offset(64 * slot), 0);
        loop {
            let arrived = vi.recv_wait(ctx);
            if !arrived.status.is_ok() {
                break;
            }
            recv(next);
            next = (next + 1) % 64;
            let req = arrived.payload.expect("request frame");
            let (op, body) = (req[4], &req[5..]);
            let payload = match op {
                // Hello: RDMA Read, credits, inline limit.
                18 => [
                    &[0][..],
                    &credits.to_le_bytes(),
                    &(32u64 << 10).to_le_bytes(),
                ]
                .concat(),
                // ReadDir (fh): a count, and no entries.
                9 => u32::MAX.to_le_bytes().to_vec(),
                // ReadInline (fh, off, len): one byte string.
                10 => {
                    let n = (le(&body[16..24]) + extra) as usize;
                    [&(n as u32).to_le_bytes()[..], &vec![0xEE; n]].concat()
                }
                // ReadDirect (fh, off, len, addr, handle): a count, and no
                // RDMA Write of the bytes it claims.
                12 => (le(&body[16..24]) + extra).to_le_bytes().to_vec(),
                // Inline ReadList (fh, 0, n, n × (off, len, rel)): n, the
                // counts, the packed bytes.
                20 => {
                    let n = le(&body[9..13]) as usize;
                    let lens = (0..n).map(|i| le(&body[13 + 24 * i + 8..][..8]));
                    let counts: Vec<u64> = lens
                        .enumerate()
                        .map(|(i, len)| len + if i == 0 { extra } else { 0 })
                        .collect();
                    let total = counts.iter().sum::<u64>() as usize;
                    let mut p = (n as u32).to_le_bytes().to_vec();
                    counts.iter().for_each(|c| p.extend(c.to_le_bytes()));
                    p.extend((total as u32).to_le_bytes());
                    p.extend(vec![0xEE; total]);
                    p
                }
                _ => Vec::new(),
            };
            let reply = [&req[..4], &[0], &payload].concat();
            mem.write(sbuf, &reply);
            vi.post_send(
                ctx,
                SendDesc::send(vec![DataSegment::new(sbuf, reply.len() as u32, h)]),
            );
            vi.send_wait(ctx);
        }
    });
}

/// Run `body` on a session with the scripted DAFS peer.
fn with_dafs_peer(
    credits: u32,
    extra: u64,
    body: impl FnOnce(&ActorCtx, &DafsClient, &ViaNic) + Send + 'static,
) {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(ViaCost::default());
    let peer = fabric.open_nic(cluster.add_host("peer"));
    let sid = peer.host().id;
    spawn_dafs_peer(&kernel, &fabric, peer, credits, extra);
    let nic = fabric.open_nic(cluster.add_host("client"));
    kernel.spawn("client", move |ctx| {
        let config = DafsClientConfig::default();
        let c = DafsClient::connect(ctx, &fabric, &nic, sid, PORT, config).unwrap();
        body(ctx, &c, &nic);
        c.disconnect(ctx);
    });
    kernel.run();
}

/// A 32 KiB region of `0x11` and the check that it still is.
fn region(nic: &ViaNic) -> (VirtAddr, impl Fn(&str) + '_) {
    let (mem, len) = (&nic.host().mem, 32 << 10);
    let at = mem.alloc(len);
    mem.fill(at, len, 0x11);
    (at, move |what: &str| {
        assert!(mem.read_vec(at, len) == vec![0x11; len], "{what}: wrote");
    })
}

#[test]
fn dafs_inline_read_longer_than_asked_is_a_protocol_error() {
    with_dafs_peer(8, EXTRA, |ctx, c, nic| {
        let (buf, untouched) = region(nic);
        assert_eq!(c.read(ctx, FH, 0, buf, 256), Err(DafsError::Protocol));
        untouched("read");
        let got = c.read_to_vec(ctx, FH, 0, 256);
        assert_eq!(got, Err(DafsError::Protocol));
    });
}

/// A direct read's reply carries only a count, the bytes having come by
/// RDMA Write: a count past the request is as malformed as surplus inline
/// bytes. It used to be credited as it came, and `read` returned 16 400.
#[test]
fn dafs_direct_read_count_longer_than_asked_is_a_protocol_error() {
    with_dafs_peer(8, EXTRA, |ctx, c, nic| {
        let (buf, untouched) = region(nic);
        let got = c.read(ctx, FH, 0, buf.offset(4096), 16 << 10);
        assert_eq!(got, Err(DafsError::Protocol));
        untouched("direct read");
    });
}

#[test]
fn dafs_batch_read_longer_than_its_chunk_is_a_protocol_error() {
    with_dafs_peer(8, EXTRA, |ctx, c, nic| {
        let (buf, untouched) = region(nic);
        let reqs = [0, 1].map(|i| IoReq {
            off: i * 256,
            addr: buf.offset(i * 512),
            len: 256,
        });
        let batch = c.issue(ctx, BatchDir::Read, FH, &reqs);
        let results = c.batch_finish(ctx, batch);
        assert_eq!(results, [Err(DafsError::Protocol); 2]);
        untouched("batch");
    });
}

#[test]
fn dafs_list_read_count_longer_than_its_segment_is_a_protocol_error() {
    with_dafs_peer(8, EXTRA, |ctx, c, nic| {
        let (buf, untouched) = region(nic);
        let segs = vec![(0, 64, 0), (128, 64, 128)];
        let batch = c.issue_list(ctx, BatchDir::Read, FH, &[ListReq { segs, buf }]);
        assert_eq!(c.batch_finish(ctx, batch), [Err(DafsError::Protocol)]);
        untouched("list");
    });
}

/// A listing whose count claims `u32::MAX` entries it does not carry is a
/// protocol error. The client used to size its list by the claim before
/// decoding any entry: a 128 GiB allocation, which aborts the process.
#[test]
fn dafs_readdir_count_past_its_reply_is_a_protocol_error() {
    with_dafs_peer(8, 0, |ctx, c, _| {
        assert_eq!(c.readdir(ctx, FH), Err(DafsError::Protocol));
    });
}

/// The server's `Hello` offers 1 000 credits; the client posted eight
/// receive descriptors. Twenty reads in one batch must still come back:
/// the window is the ring, whatever the server says.
#[test]
fn dafs_credits_past_the_receive_ring_are_clamped_to_it() {
    with_dafs_peer(1000, 0, |ctx, c, nic| {
        assert_eq!(c.caps().credits, 8);
        let buf = nic.host().mem.alloc(20 * 256);
        let reqs: Vec<IoReq> = (0..20)
            .map(|i| IoReq {
                off: i * 256,
                addr: buf.offset(i * 256),
                len: 256,
            })
            .collect();
        let batch = c.issue(ctx, BatchDir::Read, FH, &reqs);
        assert_eq!(c.batch_finish(ctx, batch), vec![Ok(256); 20]);
        assert!(nic.host().mem.read_vec(buf, 20 * 256) == [0xEE; 20 * 256]);
    });
}

/// The one file the scripted NFS peer knows: its size, and byte `i`.
const FILE: u64 = 4096;

fn file_byte(i: u64) -> u8 {
    (i % 251) as u8
}

/// How the scripted NFS peer answers a READ.
#[derive(Clone, Copy)]
enum Reads {
    /// `extra` bytes of `0xEE` more than its `count`, `copies` times over.
    Over { extra: u64, copies: usize },
    /// Half its `count` of the file, rounded up, and EOF only with the
    /// file's last byte: RFC 1813 lets a server answer a READ short.
    Short,
}

/// An NFS server that knows one file of [`FILE`] bytes and answers every
/// READ as `reads` says.
fn spawn_nfs_peer(kernel: &SimKernel, fabric: &TcpFabric, peer: Host, reads: Reads) {
    let listener = fabric.listen(&peer, PORT);
    kernel.spawn_daemon("peer", move |ctx| {
        let sock = listener.accept(ctx).unwrap();
        while let Ok(hdr) = sock.recv_exact(ctx, 4) {
            let len = u32::from_be_bytes(hdr[..].try_into().unwrap()) as usize;
            let req = sock.recv_exact(ctx, len).unwrap();
            let word = |at: usize| u32::from_be_bytes(req[at..at + 4].try_into().unwrap());
            let mut e = XdrEnc::new();
            e.u32(word(0)).u32(0);
            let mut copies = 1;
            match (word(4), reads) {
                // LOOKUP: a regular file.
                (3, _) => {
                    e.u32(1).u64(FH.0).u64(FILE).u64(1).u32(1);
                }
                // READ (fh, off, count).
                (6, Reads::Over { extra, copies: c }) => {
                    let n = word(24) as usize + extra as usize;
                    e.u32(n as u32).u32(0).opaque(&vec![0xEE; n]);
                    copies = c;
                }
                (6, Reads::Short) => {
                    let off = u64::from_be_bytes(req[16..24].try_into().unwrap());
                    let end = FILE.min(off + (word(24) as u64).div_ceil(2));
                    let data: Vec<u8> = (off..end).map(file_byte).collect();
                    let eof = end == FILE;
                    e.u32(data.len() as u32).u32(eof as u32).opaque(&data);
                }
                _ => {}
            }
            let reply = e.finish();
            let framed = [&(reply.len() as u32).to_be_bytes()[..], &reply].concat();
            for _ in 0..copies {
                sock.send(ctx, &framed);
            }
        }
    });
}

#[test]
fn nfs_read_longer_than_count_is_a_protocol_error() {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = TcpFabric::new(TcpCost::default());
    let (peer, host) = (cluster.add_host("peer"), cluster.add_host("client"));
    let sid = peer.id;
    spawn_nfs_peer(
        &kernel,
        &fabric,
        peer,
        Reads::Over {
            extra: EXTRA,
            copies: 1,
        },
    );
    kernel.spawn("client", move |ctx| {
        let config = NfsClientConfig::default();
        let c = Arc::new(NfsClient::mount(ctx, &fabric, &host, sid, PORT, config).unwrap());
        assert_eq!(c.read(ctx, FH, 0, 256), Err(NfsError::Protocol));
        let pending = c.read_begin(ctx, FH, 0, 256);
        let got = c.read_finish(ctx, pending).map(|data| data.to_vec());
        assert_eq!(got, Err(NfsError::Protocol));
        // And from the ADIO driver, which copies what it gets to `dst`.
        let f = NfsAdio::new(c.clone()).open(ctx, "/f", false).unwrap();
        let buf = host.mem.alloc(4096);
        host.mem.fill(buf, 4096, 0x11);
        let got = f.read_contig(ctx, 0, buf, 256);
        let protocol = AdioError::Io(IoFault::Nfs(NfsError::Protocol));
        assert_eq!(got, Err(protocol));
        assert!(host.mem.read_vec(buf, 4096) == [0x11; 4096], "wrote");
        c.unmount(ctx);
    });
    kernel.run();
}

/// A peer that answers every READ twice, on a fabric with a fault plan (an
/// empty one: it arms the retransmit timer). Each duplicate answers an xid
/// already collected: a stale duplicate, counted and dropped — `N − 1`
/// after `N` split-phase chunks (the last is still on the stream), `N` once
/// the next blocking call has read past it, so none was kept. At the parent
/// the split-phase receive stashed every duplicate for the life of the
/// mount, and the counter read 0 after the reads.
#[test]
fn nfs_duplicate_replies_are_dropped_as_stale() {
    const N: u64 = 4;
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = TcpFabric::new(TcpCost::default());
    fabric.set_fault_plan(FaultPlan::builder(1).build());
    let (peer, host) = (cluster.add_host("peer"), cluster.add_host("client"));
    let sid = peer.id;
    spawn_nfs_peer(
        &kernel,
        &fabric,
        peer,
        Reads::Over {
            extra: 0,
            copies: 2,
        },
    );
    kernel.spawn("client", move |ctx| {
        let config = NfsClientConfig::default();
        let c = NfsClient::mount(ctx, &fabric, &host, sid, PORT, config).unwrap();
        let stale = || ctx.metrics().counter("nfs.stale_replies").get();
        let len = N * config.rsize;
        let pending = c.read_begin(ctx, FH, 0, len);
        assert_eq!(c.read_finish(ctx, pending).unwrap().len() as u64, len);
        assert_eq!(stale(), N - 1);
        assert_eq!(c.lookup(ctx, FH, "f").unwrap().id, FH);
        assert_eq!(stale(), N);
        c.unmount(ctx);
    });
    kernel.run();
}

/// A READ answered short of EOF leaves the rest of its range to read:
/// every way in — the blocking call, the split-phase one, and the ADIO
/// driver's blocking and split-phase transfers — reads on until EOF and
/// returns the whole file, each over 1 KiB RPCs, from a read twice the
/// file's size. The split-phase paths used to take the first short reply
/// for EOF: `read_finish` returned 512 of the 4 096 bytes, `itransfer`
/// 1 024 (a short first reply for each of its two ranges).
#[test]
fn nfs_short_reads_read_on_to_eof() {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = TcpFabric::new(TcpCost::default());
    let (peer, host) = (cluster.add_host("peer"), cluster.add_host("client"));
    let sid = peer.id;
    spawn_nfs_peer(&kernel, &fabric, peer, Reads::Short);
    kernel.spawn("client", move |ctx| {
        let config = NfsClientConfig {
            rsize: 1 << 10,
            ..NfsClientConfig::default()
        };
        let c = Arc::new(NfsClient::mount(ctx, &fabric, &host, sid, PORT, config).unwrap());
        let whole: Vec<u8> = (0..FILE).map(file_byte).collect();
        assert!(c.read(ctx, FH, 0, 2 * FILE).unwrap() == whole, "read");
        let t = c.read_begin(ctx, FH, 0, 2 * FILE);
        assert!(
            c.read_finish(ctx, t).unwrap().to_vec() == whole,
            "read_begin"
        );
        let f = NfsAdio::new(c.clone()).open(ctx, "/f", false).unwrap();
        let (mem, buf) = (&host.mem, host.mem.alloc(2 * FILE as usize));
        assert_eq!(f.read_contig(ctx, 0, buf, 2 * FILE), Ok(FILE));
        assert!(mem.read_vec(buf, FILE as usize) == whole, "read_contig");
        mem.fill(buf, 2 * FILE as usize, 0);
        let half = FILE / 2;
        let reqs = [(0, half), (half, FILE + half)].map(|(off, len)| IoReq {
            off,
            addr: buf.offset(off),
            len,
        });
        let split = f.itransfer(ctx, BatchDir::Read, Shape::Batch, &reqs);
        assert_eq!(split.wait(ctx), Ok(FILE));
        assert!(mem.read_vec(buf, FILE as usize) == whole, "itransfer");
        c.unmount(ctx);
    });
    kernel.run();
}
