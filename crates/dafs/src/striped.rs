//! Round-robin striping of one logical file across N ≥ 1 DAFS servers.
//!
//! The paper measures a single server; more than one is the scaling step
//! beyond it (ViPIOS-style data distribution over I/O server processes),
//! and the server count is a parameter of this one data path, not a second
//! path. A [`DafsStripedFile`] holds one established session per server
//! plus the per-server piece file, and round-robin stripes fixed
//! `stripe_size` blocks of the logical byte stream across the servers:
//! logical block `g` (bytes `[g*stripe, (g+1)*stripe)`) lives on server
//! `g % n` at local block index `g / n`. Each server therefore stores a
//! dense local **piece file** — no holes — which keeps per-server space
//! accounting and truncation exact.
//!
//! Data has one entry, [`DafsStripedFile::issue`] (and its vectored twin
//! [`DafsStripedFile::issue_list`]): it decomposes each contiguous logical
//! range into per-server pieces and fans them out through the per-session
//! batch machinery ([`DafsClient::issue`] / [`DafsClient::issue_list`]), so
//! every server's credit window fills at issue time and the servers stream
//! concurrently; [`DafsStripedFile::batch_finish`] collects. A blocking
//! [`DafsStripedFile::read`] / [`DafsStripedFile::write`] is the two back
//! to back. With one server every range is one piece at its logical
//! offset, and a one-request session batch is what the session's own
//! blocking call is, so an `n = 1` file is byte- and timing-identical to
//! the bare session — which is why the MPI-IO layer needs no unstriped
//! driver.
//!
//! Whether a piece file goes through its session's client cache is the
//! session's to say ([`DafsClient::cache_file`] enrols it), not the
//! caller's: a one-range issue on a file its sessions cache runs at once,
//! piece by piece through the sessions' [`DafsClient::read`] /
//! [`DafsClient::write`] — the cache's one way in — and comes back as a
//! batch already complete; batches of more ranges, and lists, go past the
//! cache. Two striped files over the same sessions and pieces are coherent
//! with each other.

use std::sync::Arc;

use memfs::NodeId;
use simnet::{ActorCtx, VirtAddr};

use crate::client::{BatchDir, DafsBatch, DafsClient, DafsResult, IoReq, ListReq, OUT_OF_RANGE};
use crate::proto::ListSeg;

/// One contiguous fragment of a logical range on one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Piece {
    /// Server index.
    server: usize,
    /// Offset in the server's local piece file.
    local: u64,
    /// Offset of this fragment within the caller's buffer.
    rel: u64,
    /// Fragment length in bytes.
    len: u64,
}

/// Decompose the contiguous logical range `[off, off+len)` over `n`
/// servers with `stripe`-byte blocks, in stream order. Adjacent fragments
/// that stay on one server with contiguous local and buffer offsets are
/// merged, so a single-server layout yields exactly one piece. `off + len`
/// must not pass `u64::MAX`: the two issue functions of [`DafsStripedFile`]
/// refuse such a range before they get here.
fn split_range(n: u64, stripe: u64, off: u64, len: u64) -> Vec<Piece> {
    let mut out: Vec<Piece> = Vec::new();
    let mut cur = off;
    let end = off + len;
    while cur < end {
        let g = cur / stripe;
        let within = cur % stripe;
        let take = (stripe - within).min(end - cur);
        let piece = Piece {
            server: (g % n) as usize,
            local: (g / n) * stripe + within,
            rel: cur - off,
            len: take,
        };
        match out.last_mut() {
            Some(p)
                if p.server == piece.server
                    && p.local + p.len == piece.local
                    && p.rel + p.len == piece.rel =>
            {
                p.len += take;
            }
            _ => out.push(piece),
        }
        cur += take;
    }
    out
}

/// Logical end of a `piece`-byte piece file on server `s`: its last byte
/// sits in logical block `((piece-1)/stripe)*n + s`, at offset
/// `(piece-1) % stripe` within it.
fn logical_end(n: u64, stripe: u64, s: u64, piece: u64) -> u64 {
    if piece == 0 {
        return 0;
    }
    let last = piece - 1;
    ((last / stripe) * n + s) * stripe + last % stripe + 1
}

/// Server `s`'s piece-file length for a logical file of `size` bytes: with
/// `full = size / stripe` whole blocks round-robined, server `s` holds
/// `full/n` of them (+1 when `s < full % n`), and the partial tail block
/// of `size % stripe` bytes lands on server `full % n`.
fn piece_len(n: u64, stripe: u64, s: u64, size: u64) -> u64 {
    let full = size / stripe;
    let rem = size % stripe;
    let mut piece = (full / n + u64::from(s < full % n)) * stripe;
    if rem > 0 && s == full % n {
        piece += rem;
    }
    piece
}

/// Split a sorted logical segment list over `n` servers with `stripe`-byte
/// blocks into per-server lists of `(local_off, len, buf_rel)` segments,
/// merging fragments contiguous on both axes. See
/// [`DafsStripedFile::split_list`] for the invariants.
fn split_seg_list(n: u64, stripe: u64, segs: &[ListSeg]) -> Vec<Vec<ListSeg>> {
    let mut per: Vec<Vec<ListSeg>> = vec![Vec::new(); n as usize];
    for &(off, len, rel) in segs {
        for p in split_range(n, stripe, off, len) {
            let frag = (p.local, p.len, rel + p.rel);
            match per[p.server].last_mut() {
                Some(prev) if prev.0 + prev.1 == frag.0 && prev.2 + prev.1 == frag.2 => {
                    prev.1 += frag.1;
                }
                _ => per[p.server].push(frag),
            }
        }
    }
    per
}

/// An in-flight striped batch: one [`DafsBatch`] per server it touches,
/// sharing that session's credit window with any other.
pub struct DafsStripedBatch {
    per_server: Vec<Option<DafsBatch>>,
    /// Contiguous batches only: every piece in stream order, as `(server,
    /// len, first piece of its request)` — what the finish half needs for
    /// the stream-order count. Empty for list batches.
    pieces: Vec<(usize, u64, bool)>,
    /// The result of a batch that completed at issue — a range past the
    /// last offset (nothing sent), or one range through the cache — which
    /// the finish half returns.
    done: Option<DafsResult<u64>>,
}

impl DafsStripedBatch {
    /// Sub-requests posted but not yet retired, across all servers.
    pub fn in_flight(&self) -> usize {
        self.per_server
            .iter()
            .flatten()
            .map(|b| b.in_flight())
            .sum()
    }
}

/// One logical file striped over N DAFS sessions.
pub struct DafsStripedFile {
    clients: Vec<Arc<DafsClient>>,
    /// Per-server piece file (same index as `clients`).
    fhs: Vec<NodeId>,
    stripe: u64,
}

impl DafsStripedFile {
    /// Assemble a striped file from established sessions and the
    /// per-server piece-file handles (one per server, same order).
    pub fn new(
        clients: Vec<Arc<DafsClient>>,
        fhs: Vec<NodeId>,
        stripe_size: u64,
    ) -> DafsStripedFile {
        assert!(
            !clients.is_empty(),
            "striped file needs at least one server"
        );
        assert_eq!(clients.len(), fhs.len(), "one piece file per server");
        assert!(stripe_size > 0, "stripe size must be nonzero");
        DafsStripedFile {
            clients,
            fhs,
            stripe: stripe_size,
        }
    }

    /// Number of servers the file stripes over.
    pub fn servers(&self) -> usize {
        self.clients.len()
    }

    /// The stripe (block) size in bytes.
    pub fn stripe_size(&self) -> u64 {
        self.stripe
    }

    /// The session for server `s` (bench harnesses use this for stats).
    pub fn client(&self, s: usize) -> &Arc<DafsClient> {
        &self.clients[s]
    }

    /// Whether any session caches its piece of this file.
    fn cached(&self) -> bool {
        let mut pieces = self.clients.iter().zip(&self.fhs);
        pieces.any(|(c, fh)| c.caches(*fh))
    }

    /// Decompose the contiguous logical range `[off, off+len)` into
    /// per-server pieces, in stream order.
    fn split(&self, off: u64, len: u64) -> Vec<Piece> {
        split_range(self.clients.len() as u64, self.stripe, off, len)
    }

    /// Split a sorted logical segment list into per-server segment lists:
    /// each logical segment decomposes into stripe fragments whose local
    /// offsets index the server's piece file and whose buffer offsets are
    /// inherited from the logical segment. Fragments that stay contiguous
    /// on both axes (piece file and buffer) are merged, so a 1-server
    /// layout reproduces the logical list exactly. Per-server lists come
    /// out sorted on both axes because the logical→local map is monotone
    /// for a fixed server.
    fn split_list(&self, segs: &[ListSeg]) -> Vec<Vec<ListSeg>> {
        split_seg_list(self.clients.len() as u64, self.stripe, segs)
    }

    /// Read `len` logical bytes at `off` into `dst`: [`Self::issue`] of the
    /// one range, then [`Self::batch_finish`]. Returns bytes read in stream
    /// order (short at the logical EOF).
    pub fn read(&self, ctx: &ActorCtx, off: u64, dst: VirtAddr, len: u64) -> DafsResult<u64> {
        let req = IoReq {
            off,
            addr: dst,
            len,
        };
        self.batch_finish(ctx, self.issue(ctx, BatchDir::Read, &[req]))
    }

    /// Write `len` logical bytes at `off` from `src`, the same way.
    pub fn write(&self, ctx: &ActorCtx, off: u64, src: VirtAddr, len: u64) -> DafsResult<()> {
        let req = IoReq {
            off,
            addr: src,
            len,
        };
        let b = self.issue(ctx, BatchDir::Write, &[req]);
        self.batch_finish(ctx, b).map(|_| ())
    }

    // ----- the one data entry ---------------------------------------------

    /// Issue a batch of contiguous logical-range transfers across all
    /// servers and return immediately; every server's credit window is
    /// filled before the first completion is awaited, so window drains
    /// overlap across servers. Batches go to the wire past the page cache
    /// (each session drains its dirty pages for the file first) — except
    /// one range of a file the sessions cache, which runs now, piece by
    /// piece in stream order through the cache (there is no credit window
    /// worth overlapping when hits are local memory copies), and comes
    /// back complete.
    pub fn issue(&self, ctx: &ActorCtx, dir: BatchDir, reqs: &[IoReq]) -> DafsStripedBatch {
        if !reqs.iter().all(IoReq::in_range) {
            return self.done(Err(OUT_OF_RANGE));
        }
        if reqs.len() == 1 && self.cached() {
            return self.done(self.through_cache(ctx, dir, reqs[0]));
        }
        let mut per: Vec<Vec<IoReq>> = vec![Vec::new(); self.clients.len()];
        let mut pieces = Vec::new();
        for r in reqs {
            for (i, p) in self.split(r.off, r.len).into_iter().enumerate() {
                per[p.server].push(IoReq {
                    off: p.local,
                    addr: r.addr.offset(p.rel),
                    len: p.len,
                });
                pieces.push((p.server, p.len, i == 0));
            }
        }
        let per_server = per
            .into_iter()
            .enumerate()
            .map(|(s, rs)| {
                (!rs.is_empty()).then(|| self.clients[s].issue(ctx, dir, self.fhs[s], &rs))
            })
            .collect();
        DafsStripedBatch {
            per_server,
            pieces,
            done: None,
        }
    }

    /// One range through the sessions' caches, piece by piece: the bytes
    /// moved in stream order, up to the first short piece.
    fn through_cache(&self, ctx: &ActorCtx, dir: BatchDir, r: IoReq) -> DafsResult<u64> {
        let mut total = 0;
        for p in self.split(r.off, r.len) {
            let (c, fh) = (&self.clients[p.server], self.fhs[p.server]);
            let a = r.addr.offset(p.rel);
            let n = match dir {
                BatchDir::Read => c.read(ctx, fh, p.local, a, p.len)?,
                BatchDir::Write => c.write(ctx, fh, p.local, a, p.len).map(|_| p.len)?,
            };
            total += n;
            if n < p.len {
                break;
            }
        }
        Ok(total)
    }

    /// A batch that completed at issue with `result`.
    fn done(&self, result: DafsResult<u64>) -> DafsStripedBatch {
        DafsStripedBatch {
            per_server: self.clients.iter().map(|_| None).collect(),
            pieces: Vec::new(),
            done: Some(result),
        }
    }

    /// Issue a batch of vectored transfers: each request is a sorted
    /// logical segment list plus the client buffer its `rel` offsets
    /// index. The list splits into one per-server [`ListReq`] per request
    /// (stripe fragments merged where contiguous), and every server's
    /// credit window fills before any completion is awaited.
    pub fn issue_list(&self, ctx: &ActorCtx, dir: BatchDir, reqs: &[ListReq]) -> DafsStripedBatch {
        if !reqs.iter().all(ListReq::in_range) {
            return self.done(Err(OUT_OF_RANGE));
        }
        let mut per: Vec<Vec<ListReq>> = vec![Vec::new(); self.clients.len()];
        for r in reqs {
            for (s, segs) in self.split_list(&r.segs).into_iter().enumerate() {
                if !segs.is_empty() {
                    per[s].push(ListReq { segs, buf: r.buf });
                }
            }
        }
        let per_server = per
            .into_iter()
            .enumerate()
            .map(|(s, rs)| {
                (!rs.is_empty()).then(|| self.clients[s].issue_list(ctx, dir, self.fhs[s], &rs))
            })
            .collect();
        DafsStripedBatch {
            per_server,
            pieces: Vec::new(),
            done: None,
        }
    }

    /// Nonblocking progress poll: retires completions that already arrived
    /// on every server (freeing credits for queued sub-requests) and
    /// returns true once the whole striped batch is drained.
    pub fn batch_test(&self, ctx: &ActorCtx, b: &mut DafsStripedBatch) -> bool {
        let mut done = true;
        for (s, ob) in b.per_server.iter_mut().enumerate() {
            if let Some(batch) = ob {
                if !self.clients[s].batch_test(ctx, batch) {
                    done = false;
                }
            }
        }
        done
    }

    /// Block until every server's half of the batch completes; returns
    /// total bytes transferred (first error wins). Finishing is sequential
    /// per server, but each server's window was posted at issue time, so
    /// waiting on server 0 overlaps with servers 1..N streaming.
    ///
    /// A contiguous request counts in stream order: it stops at its first
    /// short piece (a hole past the logical EOF), whatever later pieces on
    /// other servers returned. A list batch counts every byte that landed
    /// (at the logical EOF, the missing tail simply doesn't).
    pub fn batch_finish(&self, ctx: &ActorCtx, b: DafsStripedBatch) -> DafsResult<u64> {
        if let Some(result) = b.done {
            return result;
        }
        let mut first_err = None;
        let mut per: Vec<std::vec::IntoIter<u64>> = Vec::with_capacity(b.per_server.len());
        for (s, ob) in b.per_server.into_iter().enumerate() {
            let mut counts = Vec::new();
            if let Some(batch) = ob {
                for r in self.clients[s].batch_finish(ctx, batch) {
                    match r {
                        Ok(n) => counts.push(n),
                        Err(e) => first_err = first_err.or(Some(e)),
                    }
                }
            }
            per.push(counts.into_iter());
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if b.pieces.is_empty() {
            return Ok(per.into_iter().flatten().sum());
        }
        let (mut total, mut short) = (0, false);
        for (s, len, first) in b.pieces {
            let n = per[s].next().expect("one result per piece");
            if first {
                short = false;
            }
            if !short {
                total += n;
                short = n < len;
            }
        }
        Ok(total)
    }

    // ----- metadata -------------------------------------------------------

    /// Logical file size: the inverse of the block map — the maximum
    /// logical end over the servers' piece files. A session that caches
    /// its piece answers from its lease-coherent attribute cache: with
    /// leases held, a size poll is a pure local lookup on every server.
    pub fn get_size(&self, ctx: &ActorCtx) -> DafsResult<u64> {
        let n = self.clients.len() as u64;
        let mut size = 0u64;
        for (s, c) in self.clients.iter().enumerate() {
            let attr = c.getattr(ctx, self.fhs[s])?;
            size = size.max(logical_end(n, self.stripe, s as u64, attr.size));
        }
        Ok(size)
    }

    /// Truncate / extend the logical file to `size` bytes by truncating
    /// each server's piece file to its share of the block map.
    pub fn set_size(&self, ctx: &ActorCtx, size: u64) -> DafsResult<()> {
        let n = self.clients.len() as u64;
        for (s, c) in self.clients.iter().enumerate() {
            c.truncate(ctx, self.fhs[s], piece_len(n, self.stripe, s as u64, size))?;
        }
        Ok(())
    }

    /// Flush every server's piece file to stable storage
    /// (`MPI_File_sync`).
    ///
    /// Where the sessions cache the pieces, this first drains each one's
    /// dirty write-back pages through its coalesced `WriteList` flush
    /// ([`DafsClient::cache_sync`]; each server ships only its own stripe
    /// fragments), then hands the leases back: sync is the coherence point of MPI's weak consistency
    /// model, so the next access revalidates and another rank's
    /// conflicting op never parks behind a holder that is blocked in a
    /// collective. A clean file with no lease syncs wire-free — the
    /// server-side `Flush` commit round trip only ships when data actually
    /// moved.
    pub fn sync(&self, ctx: &ActorCtx) -> DafsResult<()> {
        if self.cached() {
            let mut flushed = 0;
            for c in &self.clients {
                flushed += c.cache_sync(ctx)?;
            }
            for (s, c) in self.clients.iter().enumerate() {
                c.cache_release(ctx, self.fhs[s])?;
            }
            if flushed == 0 {
                return Ok(());
            }
        }
        for (s, c) in self.clients.iter().enumerate() {
            c.flush(ctx, self.fhs[s])?;
        }
        Ok(())
    }

    /// Whole-file lock: server 0 is the lock authority (every client locks
    /// through the same server, so the lock is global).
    pub fn lock(&self, ctx: &ActorCtx) -> DafsResult<()> {
        self.clients[0].lock(ctx, self.fhs[0])
    }

    /// Release the whole-file lock.
    pub fn unlock(&self, ctx: &ActorCtx) -> DafsResult<()> {
        self.clients[0].unlock(ctx, self.fhs[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stripe math only; the data paths are covered by the integration
    /// tests in `mpiio` and the R-F8 experiment.
    fn split_for(n: usize, stripe: u64, off: u64, len: u64) -> Vec<(usize, u64, u64, u64)> {
        split_range(n as u64, stripe, off, len)
            .into_iter()
            .map(|p| (p.server, p.local, p.rel, p.len))
            .collect()
    }

    #[test]
    fn single_server_is_one_identity_piece() {
        assert_eq!(split_for(1, 4096, 0, 20_000), vec![(0, 0, 0, 20_000)]);
        assert_eq!(split_for(1, 4096, 777, 5000), vec![(0, 777, 0, 5000)]);
    }

    #[test]
    fn two_servers_alternate_blocks() {
        // Blocks 0,2 → server 0 local blocks 0,1; blocks 1,3 → server 1.
        assert_eq!(
            split_for(2, 100, 0, 400),
            vec![
                (0, 0, 0, 100),
                (1, 0, 100, 100),
                (0, 100, 200, 100),
                (1, 100, 300, 100),
            ]
        );
        // Unaligned start and end.
        assert_eq!(
            split_for(2, 100, 150, 100),
            vec![(1, 50, 0, 50), (0, 100, 50, 50)]
        );
    }

    #[test]
    fn size_math_round_trips() {
        for n in 1u64..=4 {
            for stripe in [1u64, 7, 100, 4096] {
                for size in [0u64, 1, 99, 100, 101, 350, 4096, 12_345] {
                    let pieces: Vec<u64> = (0..n).map(|s| piece_len(n, stripe, s, size)).collect();
                    // Pieces partition the logical bytes exactly.
                    assert_eq!(
                        pieces.iter().sum::<u64>(),
                        size,
                        "n={n} stripe={stripe} size={size}"
                    );
                    // And the inverse map recovers the logical size.
                    let recovered = (0..n)
                        .map(|s| logical_end(n, stripe, s, pieces[s as usize]))
                        .max()
                        .unwrap();
                    assert_eq!(recovered, size, "n={n} stripe={stripe} size={size}");
                }
            }
        }
    }

    #[test]
    fn seg_list_split_merges_and_preserves_order() {
        // Two logical segments over 2 servers, stripe 100 (block g lives on
        // server g%2 at local block g/2):
        //   (50, 100, 0): logical 50..100 is block 0 → s0 local 50, rel 0;
        //                 100..150 is block 1 → s1 local 0, rel 50.
        //   (250, 150, 200): 250..300 is block 2 → s0 local 150, rel 200;
        //                    300..400 is block 3 → s1 local 100, rel 250.
        let per = split_seg_list(2, 100, &[(50, 100, 0), (250, 150, 200)]);
        assert_eq!(per[0], vec![(50, 50, 0), (150, 50, 200)]);
        assert_eq!(per[1], vec![(0, 50, 50), (100, 100, 250)]);
        // Single server: the logical list is reproduced exactly (identity),
        // including the merge of stripe-adjacent fragments.
        let per1 = split_seg_list(1, 100, &[(50, 100, 0), (250, 150, 200)]);
        assert_eq!(per1[0], vec![(50, 100, 0), (250, 150, 200)]);
        // A segment whose fragments land back on the same server with
        // contiguous local+buffer offsets merges into one wire segment.
        // n=2 stripe=100, logical [0,400): s0 gets blocks 0,2 → two
        // fragments (local 0..100, 100..200) with buffer rels 0 and 200 —
        // NOT merged (buffer gap). But over n=1 it's one segment.
        let per2 = split_seg_list(2, 100, &[(0, 400, 0)]);
        assert_eq!(per2[0], vec![(0, 100, 0), (100, 100, 200)]);
        assert_eq!(per2[1], vec![(0, 100, 100), (100, 100, 300)]);
    }

    /// What deleting the unstriped ADIO driver rests on, list side: over
    /// one server the split is the identity. Seeded lists of non-empty
    /// segments, ascending on both axes, no neighbours contiguous on both
    /// (those would merge — same bytes, fewer wire segments); the stripe
    /// size must not matter.
    #[test]
    fn one_server_seg_list_split_is_identity() {
        for seed in 1..=64u64 {
            let mut rng = simnet::Rng64::new(seed);
            let stripe = rng.range(1, 1 << 17);
            let (mut off, mut rel) = (rng.below(1 << 20), 0);
            let segs: Vec<ListSeg> = (0..rng.range(1, 200))
                .map(|_| {
                    let len = rng.range(1, 3 * stripe);
                    let seg = (off, len, rel);
                    let file_gap = rng.below(2 * stripe);
                    off += len + file_gap;
                    rel += len + if file_gap == 0 { 1 } else { rng.below(4096) };
                    seg
                })
                .collect();
            assert!(crate::proto::list_acceptable(&segs), "seed {seed}");
            assert_eq!(split_seg_list(1, stripe, &segs), [segs], "seed {seed}");
        }
    }

    #[test]
    fn seg_list_split_is_sorted_and_tiles() {
        // Randomized-ish strided lists: per-server output must stay sorted
        // ascending non-overlapping on both axes and tile the input bytes.
        for n in [1u64, 2, 3, 4] {
            for stripe in [64u64, 100, 4096] {
                let segs: Vec<ListSeg> = (0..40u64)
                    .map(|i| {
                        (
                            i * 3 * stripe / 2 + 13,
                            stripe / 2 + 7,
                            i * (stripe / 2 + 7),
                        )
                    })
                    .collect();
                let per = split_seg_list(n, stripe, &segs);
                let total_in: u64 = segs.iter().map(|s| s.1).sum();
                let mut total_out = 0u64;
                for (s, list) in per.iter().enumerate() {
                    assert!(
                        crate::proto::list_well_formed(list),
                        "server {s} list not sorted (n={n} stripe={stripe})"
                    );
                    total_out += list.iter().map(|s| s.1).sum::<u64>();
                }
                assert_eq!(total_out, total_in, "n={n} stripe={stripe}");
            }
        }
    }

    /// The striped split composes with the transfer planner: for 1–4
    /// servers, a range or a segment list split over the servers, and each
    /// server's share cut into wire subs, moves every logical byte exactly
    /// once, to its own byte of the caller's buffer; and every per-server
    /// list sub is well formed.
    #[test]
    fn split_then_plan_moves_every_logical_byte_once() {
        use crate::plan::{self, tests::rule, Sub};
        use crate::proto::{list_well_formed, LIST_MAX_SEGMENTS};
        let buf = VirtAddr(1 << 32);
        // `(buffer offset, logical offset, len)` runs, merged where both
        // run on: equal for two ways of moving the same bytes.
        let merged = |mut runs: Vec<(u64, u64, u64)>| {
            runs.sort_unstable();
            let mut out: Vec<(u64, u64, u64)> = Vec::new();
            for r in runs.into_iter().filter(|r| r.2 > 0) {
                match out.last_mut() {
                    Some(p) if p.0 + p.2 == r.0 && p.1 + p.2 == r.1 => p.2 += r.2,
                    _ => out.push(r),
                }
            }
            out
        };
        // What server `s`'s subs move, mapped back to the logical file a
        // stripe block at a time.
        let moved = |n: u64, stripe: u64, s: u64, subs: &[Sub]| {
            let mut runs = Vec::new();
            for sb in subs {
                let pieces = match &sb.segs {
                    Some(segs) => segs.iter().map(|g| (g.0, g.1, sb.addr.0 + g.2)).collect(),
                    None => vec![(sb.off, sb.len, sb.addr.0)],
                };
                for (mut local, mut len, mut addr) in pieces {
                    while len > 0 {
                        let take = len.min(stripe - local % stripe);
                        let logical = logical_end(n, stripe, s, local + 1) - 1;
                        runs.push((addr - buf.0, logical, take));
                        (local, len, addr) = (local + take, len - take, addr + take);
                    }
                }
            }
            runs
        };
        let strided = |count: u64, stripe: u64| -> Vec<ListSeg> {
            let len = stripe / 2 + 7;
            (0..count)
                .map(|i| (i * 3 * stripe / 2 + 13, len, i * len))
                .collect()
        };
        for n in 1u64..=4 {
            for stripe in [100u64, 4096, 64 << 10] {
                let ranges = [
                    (37u64, 1u64),
                    (99, 301),
                    (4096, 8193),
                    (1000, 65_537),
                    (0, 200 << 10),
                ];
                let lists = [
                    strided(40, stripe),
                    strided(LIST_MAX_SEGMENTS as u64 + 1, 64),
                ];
                for dir in [BatchDir::Read, BatchDir::Write] {
                    for warm in [false, true] {
                        let rule = rule();
                        for &(off, len) in &ranges {
                            let mut runs = Vec::new();
                            for s in 0..n {
                                let reqs: Vec<IoReq> = split_range(n, stripe, off, len)
                                    .into_iter()
                                    .filter(|p| p.server as u64 == s)
                                    .map(|p| IoReq {
                                        off: p.local,
                                        addr: buf.offset(p.rel),
                                        len: p.len,
                                    })
                                    .collect();
                                let subs = plan::contiguous(dir, &reqs, &rule, &mut |_, _| warm);
                                runs.extend(moved(n, stripe, s, &subs));
                            }
                            assert_eq!(
                                merged(runs),
                                [(0, off, len)],
                                "n={n} stripe={stripe} {off}+{len}"
                            );
                        }
                        for segs in &lists {
                            let mut runs = Vec::new();
                            for (s, per) in split_seg_list(n, stripe, segs).into_iter().enumerate()
                            {
                                let req = ListReq { segs: per, buf };
                                let subs = plan::list(dir, &[req], &rule, &mut |_, _| warm);
                                let lists = subs.iter().filter_map(|sb| sb.segs.as_ref());
                                assert!(lists.clone().all(|g| list_well_formed(g)));
                                assert!(lists.clone().all(|g| g.len() <= LIST_MAX_SEGMENTS));
                                runs.extend(moved(n, stripe, s as u64, &subs));
                            }
                            let want = segs
                                .iter()
                                .map(|&(off, len, rel)| (rel, off, len))
                                .collect();
                            assert_eq!(merged(runs), merged(want), "n={n} stripe={stripe}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pieces_tile_the_range_exactly() {
        for n in [1usize, 2, 3, 4] {
            for (off, len) in [(0u64, 1000u64), (37, 1), (99, 301), (256, 4096)] {
                let ps = split_for(n, 128, off, len);
                let total: u64 = ps.iter().map(|p| p.3).sum();
                assert_eq!(total, len, "n={n} off={off} len={len}");
                // rel offsets are dense and in order.
                let mut rel = 0;
                for p in &ps {
                    assert_eq!(p.2, rel, "n={n} off={off} len={len}");
                    rel += p.3;
                }
            }
        }
    }
}
