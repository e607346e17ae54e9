//! Collective I/O: ROMIO-style two-phase with generalized aggregators.
//!
//! Phase structure for a collective write:
//! 1. ranks flatten their view-mapped requests and allgather the extents;
//! 2. the file range `[gmin, gmax)` is split into contiguous *file domains*,
//!    one per aggregator (`cb_nodes`, default: every rank);
//! 3. each aggregator sweeps its domain in `cb_buffer_size` windows; in each
//!    phase every rank ships the pieces of its data that fall in each
//!    aggregator's current window (one `alltoallv`), the aggregator overlays
//!    them into its collective buffer and issues one coalesced filesystem
//!    write per covered run.
//!
//! Reads run the same sweep in reverse: ranks send piece *descriptors*, the
//! aggregator reads the coalesced coverage once and ships pieces back.
//!
//! The payoff is the paper-era argument for collective I/O: many tiny
//! strided accesses become a few large contiguous transfers, at the price
//! of an interconnect exchange — cheap on a VIA-class network.
//!
//! With `romio_cb_pipeline` left on (the default) the sweep is
//! *double-buffered*: each aggregator owns two collective buffers and
//! issues window k's filesystem batch nonblocking (`itransfer` with
//! `Shape::List`, which DAFS handles carry as one vectored wire request and
//! other drivers serve as the plain contiguous batch), so it drains while
//! window k+1 is packed, exchanged and
//! overlaid into the other buffer. Per window the sweep then costs
//! roughly `max(exchange, io)` instead of `exchange + io`. Time the batch
//! spent in flight before its wait is recorded in
//! `mpiio.twophase.overlap_ns`; `romio_cb_pipeline=disable` restores the
//! strictly synchronous sweep.

use simnet::{ActorCtx, Host, SimTime, VirtAddr};

use crate::adio::{AdioRequest, AdioResult, BatchDir, IoReq, Shape};
use crate::comm::Comm;
use crate::file::MpiFile;
use crate::hints::TriState;

/// Accumulate virtual time since `*since` into the named `_ns` counter and
/// advance the mark. The two-phase sweep calls this at each phase boundary
/// so `bench::report::layer_breakdown` can split collective time into
/// aggregation / exchange / I/O.
fn charge_phase(ctx: &ActorCtx, name: &'static str, since: &mut SimTime) {
    let now = ctx.now();
    ctx.metrics().counter(name).add((now - *since).as_nanos());
    *since = now;
}

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

fn mapped_pieces(file: &MpiFile, offset_etypes: u64, nbytes: u64) -> Vec<Piece> {
    let mut buf_off = 0u64;
    file.map_view(offset_etypes, 0, nbytes)
        .into_iter()
        .map(|(off, len)| {
            let p = Piece { off, len, buf_off };
            buf_off += len;
            p
        })
        .collect()
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

fn put_u64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn get_u64(v: &[u8], pos: &mut usize) -> u64 {
    let x = u64::from_le_bytes(v[*pos..*pos + 8].try_into().unwrap());
    *pos += 8;
    x
}

/// Shared sweep geometry, agreed by allgather.
struct Sweep {
    gmin: u64,
    fd: u64,
    naggs: usize,
    cb: u64,
    phases: u64,
    gmax: u64,
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
    let naggs = file.hints().aggregators(comm.size());
    let fd = (gmax - gmin).div_ceil(naggs as u64).max(1);
    let cb = file.hints().cb_buffer_size;
    let phases = fd.div_ceil(cb);
    Some(Sweep {
        gmin,
        fd,
        naggs,
        cb,
        phases,
        gmax,
    })
}

impl Sweep {
    /// Aggregator `a`'s domain.
    fn domain(&self, a: usize) -> (u64, u64) {
        let s = self.gmin + a as u64 * self.fd;
        (s.min(self.gmax), (s + self.fd).min(self.gmax))
    }

    /// Aggregator `a`'s window in `phase`, if any.
    fn window(&self, a: usize, phase: u64) -> Option<(u64, u64)> {
        let (ds, de) = self.domain(a);
        let ws = ds + phase * self.cb;
        if ws >= de {
            return None;
        }
        Some((ws, (ws + self.cb).min(de)))
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

/// A read window whose replies are still owed: the per-rank request
/// messages, plus `(cbuf, window_start)` if this rank aggregated it.
type OwedWindow = (Vec<Vec<u8>>, Option<(VirtAddr, u64)>);

/// Decode piece descriptors `(off u64, len u64)*` from each rank's
/// request message into one flat list.
fn piece_descs(requests: &[Vec<u8>]) -> Vec<(u64, u64)> {
    let mut wanted = Vec::new();
    for msg in requests {
        let mut pos = 0usize;
        while pos < msg.len() {
            let off = get_u64(msg, &mut pos);
            let len = get_u64(msg, &mut pos);
            wanted.push((off, len));
        }
    }
    wanted
}

/// Record how long a nonblocking window batch has been in flight, then
/// complete it. The `overlap_ns` share is sweep time the synchronous
/// path would have spent blocked in `io_ns`.
fn drain_window_batch(
    ctx: &ActorCtx,
    pending: Option<(AdioRequest, SimTime)>,
    mark: &mut SimTime,
) -> AdioResult<()> {
    if let Some((req, issued)) = pending {
        ctx.metrics()
            .counter("mpiio.twophase.overlap_ns")
            .add((ctx.now() - issued).as_nanos());
        req.wait(ctx)?;
        charge_phase(ctx, "mpiio.twophase.io_ns", mark);
    }
    Ok(())
}

/// Answer a window's piece requests out of the collective buffer it was
/// read into, exchange the replies, and scatter what came back into the
/// user buffer. Runs on every rank each round — the reply `alltoallv` is
/// collective — with `served` set only on the aggregator that holds data
/// for these requests. Returns the bytes landed locally.
#[allow(clippy::too_many_arguments)]
fn ship_read_replies(
    ctx: &ActorCtx,
    comm: &Comm,
    host: &Host,
    pieces: &[Piece],
    dst: VirtAddr,
    requests: &[Vec<u8>],
    served: Option<(VirtAddr, u64)>,
    mark: &mut SimTime,
) -> u64 {
    // Build per-rank replies in request order.
    let mut replies: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
    if let Some((cbuf, ws)) = served {
        for (r, msg) in requests.iter().enumerate() {
            let mut pos = 0usize;
            let reply = &mut replies[r];
            while pos < msg.len() {
                let off = get_u64(msg, &mut pos);
                let len = get_u64(msg, &mut pos);
                put_u64(reply, off);
                put_u64(reply, len);
                host.mem
                    .read_into(cbuf.offset(off - ws), len as usize, reply);
                host.compute(ctx, simnet::cost::HostCost::default().copy(len));
            }
        }
    }
    charge_phase(ctx, "mpiio.twophase.aggregation_ns", mark);
    let incoming = comm.alltoallv(ctx, &replies);
    charge_phase(ctx, "mpiio.twophase.exchange_ns", mark);
    // Scatter the pieces I got back into my user buffer.
    let mut total = 0u64;
    for msg in &incoming {
        let mut pos = 0usize;
        while pos < msg.len() {
            let off = get_u64(msg, &mut pos);
            let len = get_u64(msg, &mut pos);
            // Find the owning piece to recover the buffer offset.
            let p = pieces
                .iter()
                .find(|p| off >= p.off && off + len <= p.off + p.len)
                .expect("reply for an unrequested piece");
            let boff = p.buf_off + (off - p.off);
            host.mem
                .write(dst.offset(boff), &msg[pos..pos + len as usize]);
            host.compute(ctx, simnet::cost::HostCost::default().copy(len));
            pos += len as usize;
            total += len;
        }
    }
    total
}

/// `MPI_File_write_at_all`.
#[allow(clippy::needless_range_loop)] // `a` indexes both windows and sends
pub fn write_at_all(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    offset_etypes: u64,
    src: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    if file.hints().cb_write == TriState::Disable {
        let pieces = mapped_pieces(file, offset_etypes, nbytes);
        let ranges: Vec<(u64, u64)> = pieces.iter().map(|p| (p.off, p.len)).collect();
        let r = file.write_ranges(ctx, &ranges, src).map(|_| nbytes);
        comm.barrier(ctx);
        return r;
    }
    let pieces = mapped_pieces(file, offset_etypes, nbytes);
    let Some(sweep) = plan_sweep(ctx, comm, file, &pieces) else {
        return Ok(nbytes);
    };
    let host = file.host().clone();
    let is_agg = comm.rank() < sweep.naggs;
    let pipelined = file.hints().cb_pipeline != TriState::Disable;
    // Two collective buffers when pipelining: batch k-1 drains from one
    // while phase k overlays into the other.
    let nbufs = if pipelined { 2 } else { 1 };
    let cbufs: Vec<VirtAddr> = (0..if is_agg { nbufs } else { 0 })
        .map(|_| host.mem.alloc(sweep.cb as usize))
        .collect();
    ctx.metrics().counter("mpiio.twophase.writes").inc();
    ctx.trace(
        "mpiio",
        "twophase.write",
        &[
            ("naggs", obs::Value::U64(sweep.naggs as u64)),
            ("phases", obs::Value::U64(sweep.phases)),
            ("extent", obs::Value::U64(sweep.gmax - sweep.gmin)),
        ],
    );
    let mut mark = ctx.now();
    let mut sends: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
    let mut pending: Option<(AdioRequest, SimTime)> = None;

    for phase in 0..sweep.phases {
        // Ship my pieces to each aggregator's current window.
        for s in sends.iter_mut() {
            s.clear();
        }
        for a in 0..sweep.naggs {
            let Some((ws, we)) = sweep.window(a, phase) else {
                continue;
            };
            let msg = &mut sends[a];
            for p in &pieces {
                if let Some(c) = clip(p, ws, we) {
                    put_u64(msg, c.off);
                    put_u64(msg, c.len);
                    host.mem
                        .read_into(src.offset(c.buf_off), c.len as usize, msg);
                    // Packing copy.
                    host.compute(ctx, simnet::cost::HostCost::default().copy(c.len));
                }
            }
        }
        charge_phase(ctx, "mpiio.twophase.aggregation_ns", &mut mark);
        let received = comm.alltoallv(ctx, &sends);
        charge_phase(ctx, "mpiio.twophase.exchange_ns", &mut mark);
        // Aggregate my window. When pipelining, the previous batch is still
        // draining from the *other* collective buffer while this overlays.
        let mut reqs: Option<Vec<IoReq>> = None;
        if let (Some(&cbuf), Some((ws, we))) = (
            cbufs.get(phase as usize % nbufs),
            sweep.window(comm.rank(), phase),
        ) {
            let mut covered: Vec<(u64, u64)> = Vec::new();
            for msg in &received {
                let mut pos = 0usize;
                while pos < msg.len() {
                    let off = get_u64(msg, &mut pos);
                    let len = get_u64(msg, &mut pos);
                    host.mem
                        .write(cbuf.offset(off - ws), &msg[pos..pos + len as usize]);
                    host.compute(ctx, simnet::cost::HostCost::default().copy(len));
                    pos += len as usize;
                    covered.push((off, len));
                }
            }
            let runs = merge_runs(covered);
            let r = window_reqs(&runs, cbuf, ws);
            debug_assert!(runs.iter().all(|(o, l)| *o >= ws && o + l <= we));
            charge_phase(ctx, "mpiio.twophase.aggregation_ns", &mut mark);
            reqs = Some(r);
        }
        if pipelined {
            // Drain window k-1 only now — its filesystem time since issue
            // ran under this phase's pack/exchange.
            drain_window_batch(ctx, pending.take(), &mut mark)?;
            if let Some(r) = reqs {
                pending = Some((
                    file.adio().itransfer(ctx, BatchDir::Write, Shape::List, &r),
                    ctx.now(),
                ));
                // Post cost of issuing the batch.
                charge_phase(ctx, "mpiio.twophase.io_ns", &mut mark);
            }
        } else if let Some(r) = reqs {
            file.adio()
                .transfer(ctx, BatchDir::Write, Shape::List, &r)?;
            charge_phase(ctx, "mpiio.twophase.io_ns", &mut mark);
        }
    }
    drain_window_batch(ctx, pending.take(), &mut mark)?;
    for cbuf in cbufs {
        host.mem.free(cbuf);
    }
    mark = ctx.now();
    comm.barrier(ctx);
    // Time blocked at the closing barrier — mostly waiting on aggregator I/O.
    charge_phase(ctx, "mpiio.twophase.wait_ns", &mut mark);
    Ok(nbytes)
}

/// `MPI_File_read_at_all`.
#[allow(clippy::needless_range_loop)] // `a` indexes both windows and sends
pub fn read_at_all(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    offset_etypes: u64,
    dst: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    if file.hints().cb_read == TriState::Disable {
        let pieces = mapped_pieces(file, offset_etypes, nbytes);
        let ranges: Vec<(u64, u64)> = pieces.iter().map(|p| (p.off, p.len)).collect();
        let r = file.read_ranges(ctx, &ranges, dst);
        comm.barrier(ctx);
        return r;
    }
    let pieces = mapped_pieces(file, offset_etypes, nbytes);
    let Some(sweep) = plan_sweep(ctx, comm, file, &pieces) else {
        return Ok(0);
    };
    let host = file.host().clone();
    let is_agg = comm.rank() < sweep.naggs;
    let pipelined = file.hints().cb_pipeline != TriState::Disable;
    // Two collective buffers when pipelining: window k reads into one
    // while window k-1's replies ship from the other.
    let nbufs = if pipelined { 2 } else { 1 };
    let cbufs: Vec<VirtAddr> = (0..if is_agg { nbufs } else { 0 })
        .map(|_| host.mem.alloc(sweep.cb as usize))
        .collect();
    let mut total = 0u64;
    ctx.metrics().counter("mpiio.twophase.reads").inc();
    ctx.trace(
        "mpiio",
        "twophase.read",
        &[
            ("naggs", obs::Value::U64(sweep.naggs as u64)),
            ("phases", obs::Value::U64(sweep.phases)),
            ("extent", obs::Value::U64(sweep.gmax - sweep.gmin)),
        ],
    );
    let mut mark = ctx.now();
    let mut sends: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
    let mut pending: Option<(AdioRequest, SimTime)> = None;
    // Pipelined sweep: the previous phase's request messages still owed
    // replies, plus the buffer serving them if this rank aggregated that
    // window. Kept `Some` on every rank so the reply exchange stays
    // collective.
    let mut owed: Option<OwedWindow> = None;

    for phase in 0..sweep.phases {
        // Send piece descriptors to aggregators.
        for s in sends.iter_mut() {
            s.clear();
        }
        for a in 0..sweep.naggs {
            let Some((ws, we)) = sweep.window(a, phase) else {
                continue;
            };
            let msg = &mut sends[a];
            for p in &pieces {
                if let Some(c) = clip(p, ws, we) {
                    put_u64(msg, c.off);
                    put_u64(msg, c.len);
                }
            }
        }
        charge_phase(ctx, "mpiio.twophase.aggregation_ns", &mut mark);
        let requests = comm.alltoallv(ctx, &sends);
        charge_phase(ctx, "mpiio.twophase.exchange_ns", &mut mark);
        if pipelined {
            // Window k-1's batch must land before its buffer is answered
            // from — and before the next issue: one batch outstanding
            // keeps the DAFS credit window honest.
            drain_window_batch(ctx, pending.take(), &mut mark)?;
            // Issue my window's coalesced read nonblocking.
            let mut served: Option<(VirtAddr, u64)> = None;
            if let (Some(&cbuf), Some((ws, _we))) = (
                cbufs.get(phase as usize % nbufs),
                sweep.window(comm.rank(), phase),
            ) {
                let runs = merge_runs(piece_descs(&requests));
                let reqs = window_reqs(&runs, cbuf, ws);
                charge_phase(ctx, "mpiio.twophase.aggregation_ns", &mut mark);
                pending = Some((
                    file.adio()
                        .itransfer(ctx, BatchDir::Read, Shape::List, &reqs),
                    ctx.now(),
                ));
                // Post cost of issuing the batch.
                charge_phase(ctx, "mpiio.twophase.io_ns", &mut mark);
                served = Some((cbuf, ws));
            }
            // Ship window k-1's replies while this window's batch drains.
            if let Some((prev_requests, prev_served)) = owed.take() {
                total += ship_read_replies(
                    ctx,
                    comm,
                    &host,
                    &pieces,
                    dst,
                    &prev_requests,
                    prev_served,
                    &mut mark,
                );
            }
            owed = Some((requests, served));
        } else {
            // Aggregator: read coalesced coverage, ship pieces back.
            let mut served: Option<(VirtAddr, u64)> = None;
            if let (Some(&cbuf), Some((ws, _we))) =
                (cbufs.first(), sweep.window(comm.rank(), phase))
            {
                let runs = merge_runs(piece_descs(&requests));
                let reqs = window_reqs(&runs, cbuf, ws);
                charge_phase(ctx, "mpiio.twophase.aggregation_ns", &mut mark);
                file.adio()
                    .transfer(ctx, BatchDir::Read, Shape::List, &reqs)?;
                charge_phase(ctx, "mpiio.twophase.io_ns", &mut mark);
                served = Some((cbuf, ws));
            }
            total +=
                ship_read_replies(ctx, comm, &host, &pieces, dst, &requests, served, &mut mark);
        }
    }
    // Pipelined epilogue: the last window's batch and its reply round.
    drain_window_batch(ctx, pending.take(), &mut mark)?;
    if let Some((prev_requests, prev_served)) = owed.take() {
        total += ship_read_replies(
            ctx,
            comm,
            &host,
            &pieces,
            dst,
            &prev_requests,
            prev_served,
            &mut mark,
        );
    }
    for cbuf in cbufs {
        host.mem.free(cbuf);
    }
    mark = ctx.now();
    comm.barrier(ctx);
    // Time blocked at the closing barrier — mostly waiting on aggregator I/O.
    charge_phase(ctx, "mpiio.twophase.wait_ns", &mut mark);
    Ok(total)
}

/// `MPI_File_write_ordered`: every rank writes at the shared file pointer
/// in **rank order** — the collective counterpart of `write_shared`.
///
/// Implemented the ROMIO way: the sum of contributions is reserved with
/// one shared-pointer fetch-and-add (rank 0), the base is broadcast, and
/// each rank writes at `base + exclusive-prefix-sum(sizes)`. Requires a
/// driver with a shared-pointer primitive (DAFS).
pub fn write_ordered(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    src: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    let prefix = comm.exscan_u64(ctx, nbytes);
    let total = comm.allreduce_u64(ctx, crate::comm::ReduceOp::Sum, nbytes);
    let mut base_bytes = Vec::new();
    if comm.rank() == 0 {
        let base = file.adio().shared_fetch_add(ctx, total)?;
        base_bytes = base.to_le_bytes().to_vec();
    }
    comm.bcast(ctx, 0, &mut base_bytes);
    let base = u64::from_le_bytes(base_bytes.as_slice().try_into().unwrap());
    let ranges = file.map_view(0, base + prefix, nbytes);
    file.write_ranges(ctx, &ranges, src)?;
    comm.barrier(ctx);
    Ok(nbytes)
}

/// `MPI_File_read_ordered`: rank-ordered reads at the shared pointer.
pub fn read_ordered(
    ctx: &ActorCtx,
    comm: &Comm,
    file: &MpiFile,
    dst: VirtAddr,
    nbytes: u64,
) -> AdioResult<u64> {
    let prefix = comm.exscan_u64(ctx, nbytes);
    let total = comm.allreduce_u64(ctx, crate::comm::ReduceOp::Sum, nbytes);
    let mut base_bytes = Vec::new();
    if comm.rank() == 0 {
        let base = file.adio().shared_fetch_add(ctx, total)?;
        base_bytes = base.to_le_bytes().to_vec();
    }
    comm.bcast(ctx, 0, &mut base_bytes);
    let base = u64::from_le_bytes(base_bytes.as_slice().try_into().unwrap());
    let ranges = file.map_view(0, base + prefix, nbytes);
    let n = file.read_ranges(ctx, &ranges, dst)?;
    comm.barrier(ctx);
    Ok(n)
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

    #[test]
    fn merge_runs_coalesces_overlaps() {
        let runs = vec![(10, 5), (0, 4), (14, 6), (30, 2)];
        assert_eq!(merge_runs(runs), vec![(0, 4), (10, 10), (30, 2)]);
        assert_eq!(merge_runs(vec![]), vec![]);
        // Adjacent runs merge.
        assert_eq!(merge_runs(vec![(0, 4), (4, 4)]), vec![(0, 8)]);
    }

    #[test]
    fn sweep_geometry_partitions_domain() {
        let s = Sweep {
            gmin: 1000,
            fd: 400,
            naggs: 3,
            cb: 150,
            phases: 3, // ceil(400/150)
            gmax: 2000,
        };
        // Domains tile [gmin, gmax) without gaps.
        assert_eq!(s.domain(0), (1000, 1400));
        assert_eq!(s.domain(1), (1400, 1800));
        assert_eq!(s.domain(2), (1800, 2000)); // clipped at gmax
                                               // Windows sweep each domain in cb-sized steps.
        assert_eq!(s.window(0, 0), Some((1000, 1150)));
        assert_eq!(s.window(0, 1), Some((1150, 1300)));
        assert_eq!(s.window(0, 2), Some((1300, 1400))); // clipped at domain end
                                                        // The short last domain runs out of windows early.
        assert_eq!(s.window(2, 0), Some((1800, 1950)));
        assert_eq!(s.window(2, 1), Some((1950, 2000)));
        assert_eq!(s.window(2, 2), None);
        // Union of all windows == union of all domains == [gmin, gmax).
        let mut covered = 0u64;
        for a in 0..s.naggs {
            for p in 0..s.phases {
                if let Some((ws, we)) = s.window(a, p) {
                    covered += we - ws;
                }
            }
        }
        assert_eq!(covered, s.gmax - s.gmin);
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
