//! Collective I/O: ROMIO-style two-phase with generalized aggregators.
//!
//! A collective write and a collective read are one sweep (`at_all`),
//! parameterised by direction:
//! 1. ranks flatten their view-mapped requests and allgather the extents;
//! 2. the file range `[gmin, gmax)` is split into windows of at most
//!    `cb_buffer_size` bytes and each phase gives every aggregator
//!    (`cb_nodes`, default: every rank) one of them (`Sweep`): on one
//!    server an aggregator sweeps its own contiguous *file domain*; on a
//!    striped file the windows sit on the stripe grid and each phase's
//!    consecutive windows go round the aggregators, so every phase loads
//!    every server;
//! 3. one request exchange (`alltoallv`) tells every aggregator where each
//!    rank's pieces lie in each of its windows (ROMIO's `others_req`);
//! 4. phase k runs, in order: a write's data exchange lands window k in
//!    the aggregator's collective buffer; at depth 1, window k−1's batch
//!    drains; window k's coalesced batch is issued (`Shape::List`, which
//!    DAFS handles carry as one vectored wire request); a read's reply
//!    exchange ships window k−depth out of its buffer.
//!
//! The depth is `romio_cb_pipeline`, read once: 1 (the default) runs one
//! round past the last window and double-buffers — window k's batch goes
//! out through `itransfer` and drains while window k+1 is exchanged in the
//! other buffer, so a window costs roughly `max(exchange, io)`, and its
//! time in flight before the wait is `mpiio.twophase.overlap_ns`; 0 issues
//! it through the blocking `transfer` (NFS's one RPC at a time) and ships
//! it in the same phase. A read reply is cut where the window's batch
//! stopped landing bytes, so a read past the end of file is short.
//!
//! A data message is payload alone: a rank's pieces in one window are one
//! run of its buffer (`clipped`), sent or landed as it lies — ROMIO's
//! contiguous-buffer path. Knowing the layout first, the aggregator moves
//! another rank's pieces as one VIA data segment each past the gather
//! floor (`ViaCost::gathers`, as the DAFS client's inline writes); below
//! it, and for its own pieces, which no NIC touches, it copies them
//! (`charge_pieces`). The collective buffers outlive the call
//! (`MpiFile::coll_bufs`), so a driver that registers memory registers
//! each once.
//!
//! A window batch's error is held: the aggregator still takes part in
//! every remaining exchange and the closing barrier, then returns it, so
//! no peer waits on a rank that failed. The peers are not told (that would
//! take an error allreduce on every call); a read's failed window answers
//! nothing, so its peers' reads come back short.
//!
//! The payoff is the paper-era argument for collective I/O: many tiny
//! strided accesses become a few large contiguous transfers, at the price
//! of an interconnect exchange — cheap on a VIA-class network.

use simnet::{ActorCtx, SimTime, VirtAddr};
use via::ViaCost;

use crate::adio::{AdioError, AdioRequest, AdioResult, BatchDir, IoFault, IoReq, Shape};
use crate::comm::Comm;
use crate::file::MpiFile;
use crate::hints::TriState;

/// One mapped piece of a rank's request.
#[derive(Debug, Clone, Copy)]
struct Piece {
    /// Physical file offset.
    off: u64,
    /// Length in bytes.
    len: u64,
    /// Offset within the rank's user buffer.
    buf_off: u64,
}

/// A view maps ascending (MPI requires monotone filetype displacements):
/// the pieces come sorted by `off` and disjoint, which `plan_sweep` (first
/// and last piece bound the extent) and `clipped` (binary search for a
/// window's pieces) rely on.
fn mapped_pieces(file: &MpiFile, offset_etypes: u64, nbytes: u64) -> Vec<Piece> {
    pieces_of(file.map_view(offset_etypes, 0, nbytes))
}

/// Mapped `(off, len)` ranges as pieces consuming the buffer in order.
fn pieces_of(ranges: Vec<(u64, u64)>) -> Vec<Piece> {
    let mut buf_off = 0u64;
    let pieces: Vec<Piece> = ranges
        .into_iter()
        .map(|(off, len)| {
            let p = Piece { off, len, buf_off };
            buf_off += len;
            p
        })
        .collect();
    debug_assert!(pieces.windows(2).all(|w| w[0].off + w[0].len <= w[1].off));
    pieces
}

/// Intersect `p` with the window `[ws, we)`.
fn clip(p: &Piece, ws: u64, we: u64) -> Option<Piece> {
    let s = p.off.max(ws);
    let e = (p.off + p.len).min(we);
    if s >= e {
        return None;
    }
    Some(Piece {
        off: s,
        len: e - s,
        buf_off: p.buf_off + (s - p.off),
    })
}

/// The pieces clipped to the window `[ws, we)`. They are consecutive in
/// the view and only the first and last can be cut, so they are one run of
/// the rank's buffer — which the exchange moves in place.
fn clipped(pieces: &[Piece], ws: u64, we: u64) -> Vec<Piece> {
    let first = pieces.partition_point(|p| p.off + p.len <= ws);
    let run: Vec<Piece> = pieces[first..]
        .iter()
        .map_while(|p| clip(p, ws, we))
        .collect();
    debug_assert!(one_run(&run), "window [{ws}, {we}) splits the buffer");
    run
}

/// Whether each piece starts in the buffer where the one before it ends.
fn one_run(pieces: &[Piece]) -> bool {
    pieces
        .windows(2)
        .all(|w| w[0].buf_off + w[0].len == w[1].buf_off)
}

/// The `(buf_off, len)` run of the rank's buffer its pieces in the window
/// `[ws, we)` make up, if it has any there: what its data message carries.
fn buffer_span(pieces: &[Piece], ws: u64, we: u64) -> Option<(u64, u64)> {
    let run = clipped(pieces, ws, we);
    let (first, last) = (run.first()?, run.last()?);
    Some((first.buf_off, last.buf_off + last.len - first.buf_off))
}

fn put_u64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn get_u64(v: &[u8], pos: &mut usize) -> u64 {
    let x = u64::from_le_bytes(v[*pos..*pos + 8].try_into().unwrap());
    *pos += 8;
    x
}

/// The two-phase sweep geometry: which byte window of `[gmin, gmax)`
/// aggregator `a` holds in phase `k`. A pure function of the extent (agreed
/// by allgather), `cb_buffer_size`, the aggregator count and the stripe
/// layout of the open file.
///
/// The file range is cut into *domains* of `fd` bytes from `origin`, each
/// domain into `per` windows of `w` bytes (the last clipped at the domain's
/// end), and the windows are numbered in *slots*: `servers` consecutive
/// domains form a row, and a row's slots take sub-window 0 of each of its
/// domains, then sub-window 1 of each, and so on. Aggregator `a` holds slot
/// `a·agg_stride + k·phase_stride` in phase `k`.
///
/// * One wire (layout `None`): a domain is an aggregator's contiguous share
///   `⌈extent / naggs⌉`, swept in `cb`-sized windows — slot `a·per + k`.
/// * Striped: domains sit on the stripe grid and phase `k` hands the
///   aggregators the `naggs` consecutive slots from `k·naggs` (ROMIO's
///   group-cyclic Lustre file domains). With `cb` ≥ the stripe unit a
///   domain is one window of whole stripes, so a phase is one contiguous
///   run of stripes; with `cb` below it a domain is one stripe, and the row
///   order puts consecutive aggregators on consecutive stripes. Either way
///   consecutive slots go round-robin over the servers, so every phase
///   loads every server instead of convoying all aggregators onto one.
#[derive(Debug)]
struct Sweep {
    gmin: u64,
    gmax: u64,
    naggs: usize,
    origin: u64,
    fd: u64,
    w: u64,
    per: u64,
    servers: u64,
    agg_stride: u64,
    phase_stride: u64,
    phases: u64,
}

impl Sweep {
    fn new(gmin: u64, gmax: u64, naggs: usize, cb: u64, layout: Option<(u64, usize)>) -> Sweep {
        debug_assert!(gmin < gmax && naggs > 0 && cb > 0);
        let extent = gmax - gmin;
        let n = naggs as u64;
        let Some((unit, servers)) = layout.filter(|&(_, servers)| servers > 1) else {
            let fd = extent.div_ceil(n);
            let per = fd.div_ceil(cb);
            return Sweep {
                gmin,
                gmax,
                naggs,
                origin: gmin,
                fd,
                w: cb,
                per,
                servers: 1,
                agg_stride: per,
                phase_stride: 1,
                phases: per,
            };
        };
        let servers = servers as u64;
        let origin = gmin / unit * unit;
        let (fd, w) = if cb >= unit {
            // Whole stripes, no more than an aggregator's share of the
            // extent: a window of `cb` could swallow a small extent and
            // leave one aggregator all the work.
            let share = (extent / n / unit).max(1) * unit;
            let w = cb.min(share) / unit * unit;
            (w, w)
        } else {
            // Equal parts of one stripe, as few as fit the buffer.
            (unit, unit.div_ceil(unit.div_ceil(cb)))
        };
        let per = fd.div_ceil(w);
        // The slot of the last byte; later slots of its row are sub-windows
        // of the (full) domains before it.
        let last = gmax - 1 - origin;
        let (d, j) = (last / fd, last % fd / w);
        let (row, c) = (d / servers, d % servers);
        let m = if c > 0 && j + 1 < per {
            (per - 1) * servers + c - 1
        } else {
            j * servers + c
        };
        Sweep {
            gmin,
            gmax,
            naggs,
            origin,
            fd,
            w,
            per,
            servers,
            agg_stride: 1,
            phase_stride: n,
            phases: (row * servers * per + m) / n + 1,
        }
    }

    /// Aggregator `a`'s window in `phase`, if any (none past the last phase).
    fn window(&self, a: usize, phase: u64) -> Option<(u64, u64)> {
        let slot = a as u64 * self.agg_stride + phase * self.phase_stride;
        let row_slots = self.servers * self.per;
        let (row, m) = (slot / row_slots, slot % row_slots);
        let (d, j) = (row * self.servers + m % self.servers, m / self.servers);
        let ds = self.origin + d * self.fd;
        let de = (ds + self.fd).min(self.gmax);
        let ws = (ds + j * self.w).max(self.gmin);
        let we = (ds + (j + 1) * self.w).min(de);
        (ws < we && phase < self.phases).then_some((ws, we))
    }
}

fn plan_sweep(ctx: &ActorCtx, comm: &Comm, file: &MpiFile, pieces: &[Piece]) -> Option<Sweep> {
    let (lo, hi) = match (pieces.first(), pieces.last()) {
        (Some(f), Some(l)) => (f.off, l.off + l.len),
        _ => (u64::MAX, 0),
    };
    let mut msg = Vec::with_capacity(16);
    put_u64(&mut msg, lo);
    put_u64(&mut msg, hi);
    let all = comm.allgather(ctx, &msg);
    let mut gmin = u64::MAX;
    let mut gmax = 0u64;
    for a in &all {
        let mut pos = 0;
        let l = get_u64(a, &mut pos);
        let h = get_u64(a, &mut pos);
        if l != u64::MAX {
            gmin = gmin.min(l);
            gmax = gmax.max(h);
        }
    }
    if gmin >= gmax {
        return None; // nobody has data
    }
    Some(Sweep::new(
        gmin,
        gmax,
        file.hints().aggregators(comm.size()),
        file.hints().cb_buffer_size,
        file.adio().stripe_layout(),
    ))
}

/// What every rank asked of one aggregator, `[phase][rank]`: the `(off,
/// len)` of that rank's pieces in the aggregator's window of that phase
/// (none in a phase it holds no window). ROMIO's `others_req`.
type OthersReq = Vec<Vec<Vec<(u64, u64)>>>;

/// This rank's request message to each of `ranks` ranks: to an aggregator,
/// for each phase it holds a window in, the count of this rank's pieces
/// there and their `(off, len)`; to any other rank, nothing. Both ends
/// know the sweep, so nothing else is said.
fn encode_requests(s: &Sweep, pieces: &[Piece], ranks: usize) -> Vec<Vec<u8>> {
    let mut msgs = vec![Vec::new(); ranks];
    for (a, msg) in msgs.iter_mut().enumerate().take(s.naggs) {
        for (ws, we) in (0..s.phases).filter_map(|k| s.window(a, k)) {
            let run = clipped(pieces, ws, we);
            put_u64(msg, run.len() as u64);
            for p in &run {
                put_u64(msg, p.off);
                put_u64(msg, p.len);
            }
        }
    }
    msgs
}

/// Aggregator `a`'s reading of the request messages it got, by source.
fn decode_requests(s: &Sweep, a: usize, msgs: &[Vec<u8>]) -> OthersReq {
    let mut pos = vec![0usize; msgs.len()];
    let mut out = vec![vec![Vec::new(); msgs.len()]; s.phases as usize];
    for k in (0..s.phases).filter(|&k| s.window(a, k).is_some()) {
        for ((msg, pos), asked) in msgs.iter().zip(&mut pos).zip(&mut out[k as usize]) {
            let n = get_u64(msg, pos);
            *asked = (0..n)
                .map(|_| (get_u64(msg, pos), get_u64(msg, pos)))
                .collect();
        }
    }
    debug_assert!(msgs.iter().zip(&pos).all(|(m, &p)| p == m.len()));
    out
}

/// Charge the aggregator for moving `pieces` between its collective buffer
/// and the message from (or to) `peer` — the one place its side of the
/// exchange is paid for. Another rank's message carries each piece as one
/// data segment past the gather floor; below it, and for the aggregator's
/// own pieces, which no NIC touches, each piece is one copy.
fn charge_pieces(ctx: &ActorCtx, comm: &Comm, file: &MpiFile, peer: usize, pieces: &[(u64, u64)]) {
    let via = ViaCost::default();
    let bytes = pieces.iter().map(|p| p.1).sum();
    if peer != comm.rank() && via.gathers(bytes, pieces.len()) {
        file.host()
            .compute(ctx, via.per_segment * pieces.len() as u64);
    } else {
        for &(_, len) in pieces {
            file.charge_copy(ctx, len);
        }
    }
}

fn merge_runs(mut runs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    runs.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(runs.len());
    for (off, len) in runs {
        match out.last_mut() {
            Some((o, l)) if *o + *l >= off => {
                let end = (off + len).max(*o + *l);
                *l = end - *o;
            }
            _ => out.push((off, len)),
        }
    }
    out
}

/// Merged file runs of the window starting at `ws` as filesystem requests
/// against its collective buffer (offset-aligned: byte `off` lives at
/// `cbuf + (off - ws)`).
fn window_reqs(runs: &[(u64, u64)], cbuf: VirtAddr, ws: u64) -> Vec<IoReq> {
    runs.iter()
        .map(|&(off, len)| IoReq {
            off,
            addr: cbuf.offset(off - ws),
            len,
        })
        .collect()
}

/// A window an aggregator holds in one phase: its collective buffer, its
/// start (byte `off` lives at `cbuf + (off - ws)`), the merged runs its
/// batch moves, and each rank's pieces of it.
struct Window<'o> {
    cbuf: VirtAddr,
    ws: u64,
    runs: Vec<(u64, u64)>,
    asked: &'o [Vec<(u64, u64)>],
}

/// The file offset where the bytes a batch over the sorted `runs` landed
/// end: they fill the runs from the first, as a read stops short only at
/// the end of file.
fn landed_end(runs: &[(u64, u64)], mut landed: u64) -> u64 {
    for &(off, len) in runs {
        if landed < len {
            return off + landed;
        }
        landed -= len;
    }
    u64::MAX
}

/// A window's filesystem batch: finished inside `AdioFile::transfer` at
/// depth 0, in flight since the given time at depth 1.
enum Batch {
    Done(AdioResult<u64>),
    Flight(AdioRequest, SimTime),
}

/// One rank's side of a two-phase call: the sweep, its pieces and user
/// buffer, its collective buffers (none unless it aggregates), the mark
/// the phase timers charge from, and the first error a window batch
/// returned.
struct Call<'a> {
    ctx: &'a ActorCtx,
    comm: &'a Comm,
    file: &'a MpiFile,
    sweep: Sweep,
    pieces: Vec<Piece>,
    buf: VirtAddr,
    cbufs: Vec<VirtAddr>,
    mark: SimTime,
    held: Option<AdioError>,
}

impl Call<'_> {
    /// Accumulate virtual time since the mark into the named `_ns` counter
    /// and advance the mark. The sweep calls this at each phase boundary so
    /// `bench::report::layer_breakdown` can split collective time into
    /// aggregation / exchange / I/O.
    fn charge(&mut self, name: &'static str) {
        let since = self.mark;
        self.mark = self.ctx.now();
        let ns = (self.mark - since).as_nanos();
        self.ctx.metrics().counter(name).add(ns);
    }

    /// The one request exchange of a collective call; `None` on a rank
    /// that aggregates nothing.
    fn exchange_requests(&mut self) -> Option<OthersReq> {
        let (comm, sweep) = (self.comm, &self.sweep);
        let got = comm.alltoallv(self.ctx, encode_requests(sweep, &self.pieces, comm.size()));
        self.charge("mpiio.twophase.exchange_ns");
        (comm.rank() < self.sweep.naggs).then(|| decode_requests(&self.sweep, comm.rank(), &got))
    }

    /// The window this rank holds in phase `k`, if it aggregates one, in
    /// the phase's collective buffer.
    fn window<'o>(&self, k: u64, others: Option<&'o OthersReq>) -> Option<Window<'o>> {
        let (ws, we) = self.sweep.window(self.comm.rank(), k)?;
        let asked = &others?[k as usize][..];
        let runs = merge_runs(asked.concat());
        debug_assert!(runs.iter().all(|(o, l)| *o >= ws && o + l <= we));
        let cbuf = self.cbufs[k as usize % self.cbufs.len()];
        Some(Window {
            cbuf,
            ws,
            runs,
            asked,
        })
    }

    /// The run of this rank's buffer that aggregator `a`'s window of
    /// `phase` holds, as `(buf_off, len)`: what its data message to `a`
    /// carries on a write, and where `a`'s reply lands on a read.
    fn span(&self, a: usize, phase: u64) -> Option<(u64, u64)> {
        let (ws, we) = self.sweep.window(a, phase)?;
        buffer_span(&self.pieces, ws, we)
    }

    /// A write's phase exchange, on every rank (the `alltoallv` is
    /// collective): ship this rank's run in each aggregator's window of
    /// `phase` from the user buffer as it lies — no packing copy, no
    /// descriptors — and land each piece of `mine` where its request said.
    fn land_write(&mut self, phase: u64, mine: Option<&Window>) {
        let (ctx, comm, file) = (self.ctx, self.comm, self.file);
        let mem = &file.host().mem;
        let mut sends: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
        for (a, msg) in sends.iter_mut().enumerate().take(self.sweep.naggs) {
            if let Some((boff, len)) = self.span(a, phase) {
                mem.read_into(self.buf.offset(boff), len as usize, msg);
            }
        }
        self.charge("mpiio.twophase.aggregation_ns");
        let received = comm.alltoallv(ctx, sends);
        self.charge("mpiio.twophase.exchange_ns");
        let Some(w) = mine else {
            return;
        };
        for (peer, (msg, got)) in received.iter().zip(w.asked).enumerate() {
            let mut at = 0usize;
            for &(off, len) in got {
                mem.write(w.cbuf.offset(off - w.ws), &msg[at..at + len as usize]);
                at += len as usize;
            }
            assert_eq!(at, msg.len(), "two-phase message of the wrong length");
            charge_pieces(ctx, comm, file, peer, got);
        }
        self.charge("mpiio.twophase.aggregation_ns");
    }

    /// Complete a window's batch, if this rank issued one, and return the
    /// window with the bytes it moved. One in flight is charged the time
    /// since its issue to `mpiio.twophase.overlap_ns` — sweep time the
    /// synchronous sweep would have spent blocked in `io_ns` — and its wait
    /// to `io_ns`. An error is held (the first wins) and the window
    /// answers nothing.
    fn settle<'o>(&mut self, batch: Option<(Batch, Window<'o>)>) -> Option<(Window<'o>, u64)> {
        let (batch, w) = batch?;
        let moved = match batch {
            Batch::Done(r) => r,
            Batch::Flight(req, issued) => {
                let ctx = self.ctx;
                ctx.metrics()
                    .counter("mpiio.twophase.overlap_ns")
                    .add((ctx.now() - issued).as_nanos());
                let r = req.wait(ctx);
                self.charge("mpiio.twophase.io_ns");
                r
            }
        };
        moved
            .map_err(|e| *self.held.get_or_insert(e))
            .ok()
            .map(|n| (w, n))
    }

    /// A read's phase exchange: answer `phase`'s pieces out of the
    /// collective buffer its window was read into, exchange the replies,
    /// and land each in the user buffer as a prefix of its run. Runs on
    /// every rank each round — the reply `alltoallv` is collective — with
    /// `served` (the window and the bytes its batch landed) only on an
    /// aggregator whose batch for this phase succeeded. Returns the bytes
    /// landed locally.
    fn ship_read_replies(&mut self, phase: u64, served: Option<(Window, u64)>) -> u64 {
        let (ctx, comm, file) = (self.ctx, self.comm, self.file);
        let mem = &file.host().mem;
        let mut replies: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
        if let Some((w, landed)) = served {
            // Only what landed: a reply past the end of file is cut short.
            let end = landed_end(&w.runs, landed);
            for (peer, (reply, asked)) in replies.iter_mut().zip(w.asked).enumerate() {
                let valid: Vec<(u64, u64)> = asked
                    .iter()
                    .map(|&(off, len)| (off, len.min(end.saturating_sub(off))))
                    .take_while(|p| p.1 > 0)
                    .collect();
                reply.reserve_exact(valid.iter().map(|p| p.1 as usize).sum());
                for &(off, len) in &valid {
                    mem.read_into(w.cbuf.offset(off - w.ws), len as usize, reply);
                }
                charge_pieces(ctx, comm, file, peer, &valid);
            }
        }
        self.charge("mpiio.twophase.aggregation_ns");
        let incoming = comm.alltoallv(ctx, replies);
        self.charge("mpiio.twophase.exchange_ns");
        // This rank asked for the pieces, so it knows where they go: a
        // reply is a prefix of one run of the user buffer and lands there
        // in place.
        let mut total = 0u64;
        for (a, reply) in incoming.iter().enumerate().take(self.sweep.naggs) {
            let Some((boff, len)) = self.span(a, phase) else {
                continue;
            };
            assert!(reply.len() as u64 <= len, "reply longer than its run");
            mem.write(self.buf.offset(boff), reply);
            total += reply.len() as u64;
        }
        total
    }
}

/// The two-phase collective, either way: `MPI_File_write_at_all` and
/// `MPI_File_read_at_all` are each one call of it. `buf` is the rank's
/// user buffer; a write returns `nbytes`, a read the bytes landed.
fn at_all(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    dir: BatchDir,
    offset_etypes: u64,
    buf: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    let hints = file.hints();
    let (cb, count, event) = match dir {
        BatchDir::Write => (hints.cb_write, "mpiio.twophase.writes", "twophase.write"),
        BatchDir::Read => (hints.cb_read, "mpiio.twophase.reads", "twophase.read"),
    };
    let pieces = mapped_pieces(file, offset_etypes, nbytes);
    if cb == TriState::Disable {
        let ranges: Vec<(u64, u64)> = pieces.iter().map(|p| (p.off, p.len)).collect();
        let r = file.ranges(ctx, dir, &ranges, buf);
        comm.barrier(ctx);
        return r;
    }
    let Some(sweep) = plan_sweep(ctx, comm, file, &pieces) else {
        return Ok(0); // nobody has data, this rank included
    };
    // At depth 1 each aggregator owns two collective buffers: window k's
    // batch drains from one while window k+1 is exchanged in the other.
    let depth = u64::from(hints.cb_pipeline != TriState::Disable);
    let nbufs = (1 + depth) * u64::from(comm.rank() < sweep.naggs);
    let cbufs = file.coll_bufs(nbufs as usize, sweep.w);
    ctx.metrics().counter(count).inc();
    ctx.trace(
        "mpiio",
        event,
        &[
            ("naggs", obs::Value::U64(sweep.naggs as u64)),
            ("phases", obs::Value::U64(sweep.phases)),
            ("extent", obs::Value::U64(sweep.gmax - sweep.gmin)),
        ],
    );
    let phases = sweep.phases;
    let mut call = Call {
        ctx,
        comm,
        file,
        sweep,
        pieces,
        buf,
        cbufs,
        mark: ctx.now(),
        held: None,
    };
    let others = call.exchange_requests();
    let mut flight: Option<(Batch, Window)> = None;
    let mut total = 0u64;
    // At depth 1 the sweep runs one round past its last window, to drain
    // that window's batch (and ship a read's replies).
    for k in 0..phases + depth {
        let mine = call.window(k, others.as_ref());
        if dir == BatchDir::Write && k < phases {
            call.land_write(k, mine.as_ref());
        }
        let mut done = call.settle(flight.take());
        if let Some(w) = mine {
            if dir == BatchDir::Read {
                call.charge("mpiio.twophase.aggregation_ns");
            }
            let reqs = window_reqs(&w.runs, w.cbuf, w.ws);
            let batch = if depth == 0 {
                Batch::Done(file.adio().transfer(ctx, dir, Shape::List, &reqs))
            } else {
                let req = file.adio().itransfer(ctx, dir, Shape::List, &reqs);
                Batch::Flight(req, ctx.now())
            };
            // The batch, or the post cost of issuing it.
            call.charge("mpiio.twophase.io_ns");
            flight = Some((batch, w));
        }
        if depth == 0 {
            done = call.settle(flight.take());
        }
        if dir == BatchDir::Read && k >= depth {
            total += call.ship_read_replies(k - depth, done);
        }
    }
    call.mark = ctx.now();
    comm.barrier(ctx);
    // Time blocked at the closing barrier — mostly waiting on aggregator I/O.
    call.charge("mpiio.twophase.wait_ns");
    match (call.held, dir) {
        (Some(e), _) => Err(e),
        (None, BatchDir::Write) => Ok(nbytes),
        (None, BatchDir::Read) => Ok(total),
    }
}

/// `MPI_File_write_at_all`.
pub fn write_at_all(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    offset_etypes: u64,
    src: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    at_all(ctx, comm, file, BatchDir::Write, offset_etypes, src, nbytes)
}

/// `MPI_File_read_at_all`.
pub fn read_at_all(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    offset_etypes: u64,
    dst: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    at_all(ctx, comm, file, BatchDir::Read, offset_etypes, dst, nbytes)
}

/// What rank 0 can tell the peers of an ordered call about a failed
/// reservation, in one byte: the error's index here. An I/O fault's driver
/// cause stays on rank 0, so a peer sees it as [`IoFault::Protocol`].
const TOLD: [AdioError; 4] = [
    AdioError::NoSuchFile,
    AdioError::Exists,
    AdioError::NotSupported,
    AdioError::Io(IoFault::Protocol),
];

/// An ordered collective, either way: every rank moves `nbytes` at the
/// shared file pointer in **rank order**, the ROMIO way — rank 0 reserves
/// the sum with one shared-pointer fetch-and-add (a DAFS primitive),
/// broadcasts the 8-byte base, and each rank moves its bytes at `base +
/// exclusive-prefix-sum(sizes)`. A failed reservation is broadcast as one
/// byte naming the error instead, and every rank returns an error.
fn ordered(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    dir: BatchDir,
    buf: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    let prefix = comm.exscan_u64(ctx, nbytes);
    let total = comm.allreduce_u64(ctx, crate::comm::ReduceOp::Sum, nbytes);
    let mut msg = Vec::new();
    let mut reserved = Ok(0);
    if comm.rank() == 0 {
        reserved = file.adio().shared_fetch_add(ctx, total);
        msg = match reserved {
            Ok(base) => base.to_le_bytes().to_vec(),
            Err(e) => {
                let told = TOLD
                    .iter()
                    .position(|t| std::mem::discriminant(t) == std::mem::discriminant(&e));
                vec![told.unwrap() as u8]
            }
        };
    }
    comm.bcast(ctx, 0, &mut msg);
    let Ok(base) = <[u8; 8]>::try_from(msg.as_slice()) else {
        return Err(reserved.err().unwrap_or(TOLD[msg[0] as usize]));
    };
    let ranges = file.map_view(0, u64::from_le_bytes(base) + prefix, nbytes);
    let r = file.ranges(ctx, dir, &ranges, buf);
    comm.barrier(ctx);
    r
}

/// `MPI_File_write_ordered`: the collective counterpart of `write_shared`.
pub fn write_ordered(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    src: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    ordered(ctx, comm, file, BatchDir::Write, src, nbytes)
}

/// `MPI_File_read_ordered`: rank-ordered reads at the shared pointer.
pub fn read_ordered(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    dst: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    ordered(ctx, comm, file, BatchDir::Read, dst, nbytes)
}

/// A split collective in flight (`MPI_File_*_all_begin` / `_all_end`).
///
/// This implementation completes the transfer eagerly in `begin` (the DAFS
/// driver pipelines internally) and `end` returns the stored result — the
/// MPI-2 split-collective API shape with immediate-completion semantics.
/// At most one split collective may be outstanding per file, as in MPI.
#[must_use = "split collectives must be completed with their _end call"]
pub struct SplitColl {
    result: AdioResult<u64>,
}

/// `MPI_File_write_at_all_begin`.
pub fn write_at_all_begin(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    offset_etypes: u64,
    src: VirtAddr,
    nbytes: u64,
) -> SplitColl {
    SplitColl {
        result: write_at_all(ctx, comm, file, offset_etypes, src, nbytes),
    }
}

/// `MPI_File_write_at_all_end`.
pub fn write_at_all_end(_ctx: &ActorCtx, split: SplitColl) -> AdioResult<u64> {
    split.result
}

/// `MPI_File_read_at_all_begin`.
pub fn read_at_all_begin(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    offset_etypes: u64,
    dst: VirtAddr,
    nbytes: u64,
) -> SplitColl {
    SplitColl {
        result: read_at_all(ctx, comm, file, offset_etypes, dst, nbytes),
    }
}

/// `MPI_File_read_at_all_end`.
pub fn read_at_all_end(_ctx: &ActorCtx, split: SplitColl) -> AdioResult<u64> {
    split.result
}

/// `MPI_File_write_all` (individual-pointer collective).
pub fn write_all(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    src: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    let etype = file.etype_size();
    assert!(nbytes.is_multiple_of(etype));
    let off = file.position();
    let r = write_at_all(ctx, comm, file, off, src, nbytes)?;
    file.seek(off + nbytes / etype);
    Ok(r)
}

/// `MPI_File_read_all`.
pub fn read_all(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    dst: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    let etype = file.etype_size();
    assert!(nbytes.is_multiple_of(etype));
    let off = file.position();
    let r = read_at_all(ctx, comm, file, off, dst, nbytes)?;
    file.seek(off + nbytes / etype);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Datatype;
    use crate::view::FileView;
    use simnet::Rng64;

    #[test]
    fn merge_runs_coalesces_overlaps() {
        let runs = vec![(10, 5), (0, 4), (14, 6), (30, 2)];
        assert_eq!(merge_runs(runs), vec![(0, 4), (10, 10), (30, 2)]);
        assert_eq!(merge_runs(vec![]), vec![]);
        // Adjacent runs merge.
        assert_eq!(merge_runs(vec![(0, 4), (4, 4)]), vec![(0, 8)]);
    }

    const KIB: u64 = 1 << 10;

    /// Every window of a sweep, as `(phase, aggregator, start, end)`.
    fn windows(s: &Sweep) -> Vec<(u64, usize, u64, u64)> {
        let mut out = Vec::new();
        for k in 0..s.phases {
            for a in 0..s.naggs {
                if let Some((ws, we)) = s.window(a, k) {
                    out.push((k, a, ws, we));
                }
            }
        }
        out
    }

    /// One aggregator's contiguous domain and the windows it sweeps it in,
    /// as the contiguous-domain code computed them before the stripe-aware
    /// geometry existed.
    type Domain = ((u64, u64), &'static [(u64, u64)]);

    struct Pinned {
        /// `(gmin, gmax, naggs, cb)`.
        input: (u64, u64, usize, u64),
        phases: u64,
        domains: &'static [Domain],
    }

    /// Cut from the pre-stripe-aware `Sweep::{domain, window}`: what one
    /// server, or no layout at all, must keep producing.
    const PINNED: &[Pinned] = &[
        // The benchmark's collective call: 8 aggregators x 4 windows.
        Pinned {
            input: (0, 2097152, 8, 65536),
            phases: 4,
            domains: &[
                (
                    (0, 262144),
                    &[
                        (0, 65536),
                        (65536, 131072),
                        (131072, 196608),
                        (196608, 262144),
                    ],
                ),
                (
                    (262144, 524288),
                    &[
                        (262144, 327680),
                        (327680, 393216),
                        (393216, 458752),
                        (458752, 524288),
                    ],
                ),
                (
                    (524288, 786432),
                    &[
                        (524288, 589824),
                        (589824, 655360),
                        (655360, 720896),
                        (720896, 786432),
                    ],
                ),
                (
                    (786432, 1048576),
                    &[
                        (786432, 851968),
                        (851968, 917504),
                        (917504, 983040),
                        (983040, 1048576),
                    ],
                ),
                (
                    (1048576, 1310720),
                    &[
                        (1048576, 1114112),
                        (1114112, 1179648),
                        (1179648, 1245184),
                        (1245184, 1310720),
                    ],
                ),
                (
                    (1310720, 1572864),
                    &[
                        (1310720, 1376256),
                        (1376256, 1441792),
                        (1441792, 1507328),
                        (1507328, 1572864),
                    ],
                ),
                (
                    (1572864, 1835008),
                    &[
                        (1572864, 1638400),
                        (1638400, 1703936),
                        (1703936, 1769472),
                        (1769472, 1835008),
                    ],
                ),
                (
                    (1835008, 2097152),
                    &[
                        (1835008, 1900544),
                        (1900544, 1966080),
                        (1966080, 2031616),
                        (2031616, 2097152),
                    ],
                ),
            ],
        },
        // Displaced and ragged.
        Pinned {
            input: (20480, 1073152, 3, 262144),
            phases: 2,
            domains: &[
                ((20480, 371371), &[(20480, 282624), (282624, 371371)]),
                ((371371, 722262), &[(371371, 633515), (633515, 722262)]),
                ((722262, 1073152), &[(722262, 984406), (984406, 1073152)]),
            ],
        },
        Pinned {
            input: (1000, 2000, 3, 150),
            phases: 3,
            domains: &[
                ((1000, 1334), &[(1000, 1150), (1150, 1300), (1300, 1334)]),
                ((1334, 1668), &[(1334, 1484), (1484, 1634), (1634, 1668)]),
                ((1668, 2000), &[(1668, 1818), (1818, 1968), (1968, 2000)]),
            ],
        },
        // One block under a buffer that could swallow it.
        Pinned {
            input: (4096, 8192, 4, 16384),
            phases: 1,
            domains: &[
                ((4096, 5120), &[(4096, 5120)]),
                ((5120, 6144), &[(5120, 6144)]),
                ((6144, 7168), &[(6144, 7168)]),
                ((7168, 8192), &[(7168, 8192)]),
            ],
        },
        Pinned {
            input: (0, 8388608, 5, 4194304),
            phases: 1,
            domains: &[
                ((0, 1677722), &[(0, 1677722)]),
                ((1677722, 3355444), &[(1677722, 3355444)]),
                ((3355444, 5033166), &[(3355444, 5033166)]),
                ((5033166, 6710888), &[(5033166, 6710888)]),
                ((6710888, 8388608), &[(6710888, 8388608)]),
            ],
        },
        Pinned {
            input: (20480, 320480, 7, 16384),
            phases: 3,
            domains: &[
                (
                    (20480, 63338),
                    &[(20480, 36864), (36864, 53248), (53248, 63338)],
                ),
                (
                    (63338, 106196),
                    &[(63338, 79722), (79722, 96106), (96106, 106196)],
                ),
                (
                    (106196, 149054),
                    &[(106196, 122580), (122580, 138964), (138964, 149054)],
                ),
                (
                    (149054, 191912),
                    &[(149054, 165438), (165438, 181822), (181822, 191912)],
                ),
                (
                    (191912, 234770),
                    &[(191912, 208296), (208296, 224680), (224680, 234770)],
                ),
                (
                    (234770, 277628),
                    &[(234770, 251154), (251154, 267538), (267538, 277628)],
                ),
                (
                    (277628, 320480),
                    &[(277628, 294012), (294012, 310396), (310396, 320480)],
                ),
            ],
        },
        // The short last domain runs out of windows a phase early.
        Pinned {
            input: (0, 4097, 4, 512),
            phases: 3,
            domains: &[
                ((0, 1025), &[(0, 512), (512, 1024), (1024, 1025)]),
                ((1025, 2050), &[(1025, 1537), (1537, 2049), (2049, 2050)]),
                ((2050, 3075), &[(2050, 2562), (2562, 3074), (3074, 3075)]),
                ((3075, 4097), &[(3075, 3587), (3587, 4097)]),
            ],
        },
        // Fewer bytes than aggregators can share: the last domain is empty.
        Pinned {
            input: (100, 105, 4, 4096),
            phases: 1,
            domains: &[
                ((100, 102), &[(100, 102)]),
                ((102, 104), &[(102, 104)]),
                ((104, 105), &[(104, 105)]),
                ((105, 105), &[]),
            ],
        },
    ];

    #[test]
    fn one_wire_keeps_the_contiguous_domains_verbatim() {
        for p in PINNED {
            let (gmin, gmax, naggs, cb) = p.input;
            for layout in [None, Some((64 * KIB, 1)), Some((4096, 1))] {
                let s = Sweep::new(gmin, gmax, naggs, cb, layout);
                assert_eq!(s.phases, p.phases, "{:?} {layout:?}", p.input);
                assert_eq!(p.domains.len(), naggs);
                for (a, ((ds, de), want)) in p.domains.iter().enumerate() {
                    let got: Vec<Option<(u64, u64)>> =
                        (0..s.phases).map(|k| s.window(a, k)).collect();
                    // The pinned windows, in phase order, then none.
                    let mut padded: Vec<Option<(u64, u64)>> =
                        want.iter().copied().map(Some).collect();
                    padded.resize(s.phases as usize, None);
                    assert_eq!(got, padded, "{:?} {layout:?} aggregator {a}", p.input);
                    // And they sweep exactly the pinned domain.
                    if let (Some(first), Some(last)) = (want.first(), want.last()) {
                        assert_eq!((first.0, last.1), (*ds, *de));
                    } else {
                        assert_eq!(ds, de);
                    }
                }
            }
        }
    }

    /// Bytes each server serves in each phase, for a layout the sweep may
    /// or may not have been planned on.
    fn phase_loads(s: &Sweep, unit: u64, servers: u64) -> Vec<Vec<u64>> {
        let mut loads = vec![vec![0u64; servers as usize]; s.phases as usize];
        for (k, _, ws, we) in windows(s) {
            let mut at = ws;
            while at < we {
                let stripe = at / unit;
                let end = ((stripe + 1) * unit).min(we);
                loads[k as usize][(stripe % servers) as usize] += end - at;
                at = end;
            }
        }
        loads
    }

    /// `check_sweep` over servers 1..=4, 1..=8 aggregators, a stripe-aligned
    /// and a 20 KiB-displaced start, and extents from one 4 KiB block to
    /// 8 MiB; returns the number of sweeps checked.
    fn check_grid(units: &[u64], cbs: &[u64]) -> usize {
        let extents = [4, 20, 64, 100, 260, 1024, 2048, 2060, 8192].map(|k| k * KIB);
        let mut cases = 0;
        for servers in 1..=4usize {
            for &unit in units {
                for &cb in cbs {
                    for naggs in 1..=8usize {
                        for displaced in [0, 20 * KIB] {
                            for extent in extents {
                                let gmin = 48 * unit + displaced;
                                let layout = Some((unit, servers));
                                let s = Sweep::new(gmin, gmin + extent, naggs, cb, layout);
                                check_sweep(&s, cb, unit, servers as u64);
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn sweep_geometry_properties() {
        let cases = check_grid(
            &[16 * KIB, 64 * KIB, 256 * KIB],
            &[16 * KIB, 64 * KIB, 256 * KIB, 4096 * KIB],
        );
        assert_eq!(cases, 4 * 3 * 4 * 8 * 2 * 9);
        // Sizes that divide nothing: hints are free-form.
        check_grid(
            &[4 * KIB, 12 * KIB, 100_000],
            &[5000, 20 * KIB, 48 * KIB, 1_000_000],
        );
    }

    /// `ranks` views over one file, seeded like `tests/properties.rs`'s
    /// generators: a tile of blocks of irregular length and gap, dealt to
    /// the ranks at random, each rank's filetype the `hindexed` of its
    /// blocks resized to the tile, displaced by up to 20 KiB.
    fn gen_views(rng: &mut Rng64, ranks: usize) -> Vec<FileView> {
        let mut blocks: Vec<Vec<(u64, i64)>> = vec![Vec::new(); ranks];
        let mut at = 0u64;
        for r in 0..ranks {
            // Every rank gets at least one block.
            let mut owners = vec![r];
            for _ in 0..rng.below(3) {
                owners.push(rng.range_usize(0, ranks));
            }
            for owner in owners {
                let len = rng.range(1, 12 * KIB);
                blocks[owner].push((len, at as i64));
                at += len + rng.below(4 * KIB);
            }
        }
        let disp = rng.below(20 * KIB);
        let byte = Datatype::bytes(1);
        // Dealt in file order, so each rank's displacements ascend.
        blocks
            .iter()
            .map(|b| {
                let ft = Datatype::resized(&Datatype::hindexed(b, &byte), 0, at);
                FileView::new(disp, &byte, &ft)
            })
            .collect()
    }

    /// What the exchange moves in place, and what the request exchange
    /// tells the aggregators: in every phase, every rank's pieces in every
    /// aggregator's window are one run of its buffer, `clipped` finds the
    /// same pieces as clipping each one, and each byte ships exactly once;
    /// each aggregator decodes from the request messages exactly each
    /// rank's clipped pieces, phase by phase, and they sum to the run that
    /// rank ships it.
    #[test]
    fn a_window_holds_one_run_of_each_rank_buffer() {
        let mut rng = Rng64::new(0xDA7A_0029);
        for case in 0..64 {
            let ranks = rng.range_usize(1, 9);
            let views = gen_views(&mut rng, ranks);
            let all: Vec<(Vec<Piece>, u64)> = views
                .iter()
                .map(|v| {
                    let nbytes = rng.range(1, 3 * v.tile_size());
                    (pieces_of(v.map(rng.below(v.tile_size()), nbytes)), nbytes)
                })
                .collect();
            let gmin = all.iter().map(|(p, _)| p[0].off).min().unwrap();
            let gmax = all
                .iter()
                .map(|(p, _)| p.last().map_or(0, |l| l.off + l.len))
                .max()
                .unwrap();
            let naggs = rng.range_usize(1, ranks + 1);
            let cb = [4 * KIB, 20 * KIB, 64 * KIB, 1_000_000][rng.range_usize(0, 4)];
            for layout in [None, Some((16 * KIB, 2)), Some((64 * KIB, 3))] {
                let s = Sweep::new(gmin, gmax, naggs, cb, layout);
                // The request messages as an alltoallv delivers them:
                // `inbox[a][r]` is what rank `r` sent aggregator `a`.
                let sent: Vec<Vec<Vec<u8>>> = all
                    .iter()
                    .map(|(pieces, _)| encode_requests(&s, pieces, ranks))
                    .collect();
                let others: Vec<OthersReq> = (0..naggs)
                    .map(|a| {
                        let inbox: Vec<Vec<u8>> = sent.iter().map(|m| m[a].clone()).collect();
                        decode_requests(&s, a, &inbox)
                    })
                    .collect();
                assert!(sent.iter().all(|m| m[naggs..].iter().all(Vec::is_empty)));
                for (r, (pieces, nbytes)) in all.iter().enumerate() {
                    let mut shipped = 0;
                    for (k, a, ws, we) in windows(&s) {
                        let what = format!("case {case} rank {r} phase {k} aggregator {a}");
                        let run = clipped(pieces, ws, we);
                        let each: Vec<Piece> =
                            pieces.iter().filter_map(|p| clip(p, ws, we)).collect();
                        let key = |p: &Piece| (p.off, p.len, p.buf_off);
                        assert_eq!(
                            run.iter().map(key).collect::<Vec<_>>(),
                            each.iter().map(key).collect::<Vec<_>>(),
                            "{what}"
                        );
                        assert!(one_run(&run), "{what}: {run:?}");
                        let asked = &others[a][k as usize][r];
                        let want: Vec<(u64, u64)> = run.iter().map(|p| (p.off, p.len)).collect();
                        assert_eq!(asked, &want, "{what}");
                        let len: u64 = asked.iter().map(|p| p.1).sum();
                        assert_eq!(buffer_span(pieces, ws, we).map_or(0, |(_, l)| l), len);
                        shipped += len;
                    }
                    assert_eq!(shipped, *nbytes, "case {case} rank {r} {layout:?}");
                }
                // A phase in which an aggregator holds no window asks nothing.
                for (a, o) in others.iter().enumerate() {
                    for (k, asked) in o.iter().enumerate() {
                        if s.window(a, k as u64).is_none() {
                            assert!(asked.iter().all(Vec::is_empty), "case {case} {a} {k}");
                        }
                    }
                }
            }
        }
    }

    /// A request message is, per window of its aggregator, a count and
    /// that many `(off, len)`; a data message is the run alone.
    #[test]
    fn a_request_is_a_count_per_window_then_the_pieces() {
        let pieces = pieces_of(vec![(100, 10), (200, 30), (300, 5)]);
        // One aggregator, windows [100, 150), [150, 200), [200, 250),
        // [250, 300), [300, 305).
        let s = Sweep::new(100, 305, 1, 50, None);
        assert_eq!(s.phases, 5);
        let msgs = encode_requests(&s, &pieces, 2);
        let words: Vec<u64> = msgs[0]
            .chunks(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(words, [1, 100, 10, 0, 1, 200, 30, 0, 1, 300, 5]);
        assert!(msgs[1].is_empty());
        // A rank with nothing in a window still says so.
        let idle = encode_requests(&s, &[], 2);
        assert_eq!(idle[0], [0u8; 40]);
        let others = decode_requests(&s, 0, &[msgs[0].clone(), idle[0].clone()]);
        assert_eq!(others[2], [vec![(200, 30)], vec![]]);
        assert_eq!(buffer_span(&pieces, 105, 302), Some((5, 37)));
        assert_eq!(buffer_span(&pieces, 110, 200), None);
    }

    /// The bytes a window's batch counted fill its sorted runs from the
    /// first; where they stop is where every reply is cut.
    #[test]
    fn the_landed_bytes_end_where_the_count_runs_out() {
        let runs = [(0, 4096), (8192, 4096)];
        assert_eq!(landed_end(&runs, 8192), u64::MAX);
        assert_eq!(landed_end(&runs, 4096 + 100), 8192 + 100);
        assert_eq!(landed_end(&runs, 4096), 8192);
        assert_eq!(landed_end(&runs, 1904), 1904);
        assert_eq!(landed_end(&runs, 0), 0);
        assert_eq!(landed_end(&[], 0), u64::MAX);
    }

    fn check_sweep(s: &Sweep, cb: u64, unit: u64, servers: u64) {
        let (gmin, gmax) = (s.gmin, s.gmax);
        let all = windows(s);
        // The windows tile [gmin, gmax) exactly once.
        let mut by_start: Vec<(u64, u64)> = all.iter().map(|&(_, _, ws, we)| (ws, we)).collect();
        by_start.sort_unstable();
        let mut at = gmin;
        for &(ws, we) in &by_start {
            assert_eq!(ws, at, "gap or overlap at {at}: {s:?}");
            assert!(
                we > ws && we - ws <= cb,
                "window [{ws}, {we}) vs cb {cb}: {s:?}"
            );
            at = we;
        }
        assert_eq!(at, gmax, "{s:?}");
        // No phase is spent on nothing.
        assert!(all.iter().any(|&(k, ..)| k + 1 == s.phases), "{s:?}");
        if servers == 1 {
            return;
        }
        // A window of at most one stripe stays inside one; a larger one
        // starts and ends on stripe boundaries (or the extent's ends).
        for &(_, _, ws, we) in &all {
            if s.w <= unit {
                assert_eq!(ws / unit, (we - 1) / unit, "[{ws}, {we}) straddles: {s:?}");
            } else {
                assert!(ws % unit == 0 || ws == gmin, "{ws} unaligned: {s:?}");
                assert!(we % unit == 0 || we == gmax, "{we} unaligned: {s:?}");
            }
        }
        // Every aggregator has work once there is a stripe for each.
        if gmax - gmin >= s.naggs as u64 * unit {
            for a in 0..s.naggs {
                assert!(all.iter().any(|&(_, aa, ..)| aa == a), "{a} idle: {s:?}");
            }
        }
        // Every phase loads the servers within one window of each other —
        // plus, in the phases the extent's ragged ends reach, the bytes
        // those ends clip off the phase's windows.
        for (k, load) in phase_loads(s, unit, servers).iter().enumerate() {
            let held: u64 = load.iter().sum();
            let clipped = s.naggs as u64 * s.w - held;
            let spread = load.iter().max().unwrap() - load.iter().min().unwrap();
            assert!(
                spread <= s.w + clipped,
                "phase {k} loads {load:?} (clipped {clipped}): {s:?}"
            );
        }
    }

    /// What the stripe-aware grid is for: contiguous domains whose size is
    /// a multiple of `unit x servers` put every aggregator's phase-`k`
    /// window on the same server.
    #[test]
    fn contiguous_domains_convoy_and_the_stripe_grid_does_not() {
        let (unit, servers) = (64 * KIB, 2);
        let contiguous = Sweep::new(0, 2048 * KIB, 8, 64 * KIB, None);
        for load in phase_loads(&contiguous, unit, servers) {
            assert_eq!(load.iter().min(), Some(&0), "{load:?}");
            assert_eq!(load.iter().max(), Some(&(512 * KIB)), "{load:?}");
        }
        let grid = Sweep::new(0, 2048 * KIB, 8, 64 * KIB, Some((unit, servers as usize)));
        assert_eq!(grid.phases, contiguous.phases);
        for (k, load) in phase_loads(&grid, unit, servers).iter().enumerate() {
            assert_eq!(load, &vec![256 * KIB; 2]);
            // Phase k hands aggregator a stripe 8k + a.
            for a in 0..8u64 {
                let stripe = 8 * k as u64 + a;
                assert_eq!(
                    grid.window(a as usize, k as u64),
                    Some((stripe * unit, (stripe + 1) * unit))
                );
            }
        }
    }

    #[test]
    fn clip_intersects() {
        let p = Piece {
            off: 100,
            len: 50,
            buf_off: 7,
        };
        let c = clip(&p, 120, 140).unwrap();
        assert_eq!((c.off, c.len, c.buf_off), (120, 20, 27));
        assert!(clip(&p, 150, 200).is_none());
        assert!(clip(&p, 0, 100).is_none());
        // Full containment.
        let c = clip(&p, 0, 1000).unwrap();
        assert_eq!((c.off, c.len, c.buf_off), (100, 50, 7));
    }
}
