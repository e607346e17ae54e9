//! Run one plan on one testbed: every rank is a closed loop that issues its
//! script's next MPI-IO call when the previous one returns, with a seeded
//! think time in between. Calls are timed on the virtual clock (and, in a
//! traced run, on the host clock too), every read is compared with the
//! seeded pattern, and after the run the image the servers hold is compared
//! with what the scripts wrote.
//!
//! The rank body uses the user-facing API only: `MpiFile::{open, set_view,
//! read_at, write_at, get_size, sync, close}`, `read_at_all` /
//! `write_at_all`, `Hints::set`, `Comm::{rank, host, barrier}`, the
//! `ActorCtx` clock and the rank's own `Host` (memory, `compute`, CPU
//! meter). Everything below that goes through `layers.rs`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use memfs::MemFs;
use mpiio::{
    read_at_all, write_at_all, AdioFs, Comm, Datatype, Hints, JobReport, MpiFile, OpenMode, Testbed,
};
use simnet::{ActorCtx, Host, SimDuration, VirtAddr};

use crate::layers::{self, Counters};
use crate::script::{check_unit, fill_unit, Op, SplitMix, THINK_MAX_NS, UNIT, UNKNOWN};
use crate::spans::Span;
use crate::workloads::{Plan, STRIPE_UNIT};

/// The one file every workload works on.
const PATH: &str = "/bench/data";

/// RNG stream of the think times (see `workloads.rs` for the others).
const STREAM_THINK: u64 = 4;

/// What one rank measured in one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStat {
    /// Virtual start of the rank's first call (`u64::MAX` if it made none).
    pub first_start_ns: u64,
    /// Virtual end of its last call.
    pub last_end_ns: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl PhaseStat {
    fn empty() -> PhaseStat {
        PhaseStat {
            first_start_ns: u64::MAX,
            ..PhaseStat::default()
        }
    }

    fn merge(&mut self, o: &PhaseStat) {
        self.first_start_ns = self.first_start_ns.min(o.first_start_ns);
        self.last_end_ns = self.last_end_ns.max(o.last_end_ns);
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
    }

    /// Virtual span, first start to last end (0 if no call was made).
    pub fn span_ns(&self) -> u64 {
        self.last_end_ns.saturating_sub(self.first_start_ns)
    }
}

/// Host-clock and counter readings rank 0 takes as it leaves the start
/// barrier and again as it leaves the end barrier.
#[derive(Debug, Clone, Default)]
pub struct Stamp {
    /// Host nanoseconds since the process started.
    pub host_ns: u64,
    pub bytes_buffered: u64,
    /// Registry counters; read in a traced run only.
    pub counters: Counters,
}

/// Everything the ranks of one run measured, merged.
#[derive(Debug, Default)]
pub struct Collected {
    pub phases: Vec<PhaseStat>,
    /// Virtual latency of every timed call of a latency-feeding phase.
    pub latencies_ns: Vec<u64>,
    /// Sum of the virtual latency of all timed calls.
    pub call_ns: u64,
    /// The part of `call_ns` that is the benchmark's own seeded
    /// preparation time.
    pub prepare_ns: u64,
    pub attempted: u64,
    /// Calls that returned `Err`.
    pub errors: u64,
    /// Calls that returned `Ok` with the wrong bytes, count or size.
    pub mismatches: u64,
    pub bytes_moved: u64,
    /// Rank-host CPU busy time inside the timed window, summed over ranks.
    pub client_cpu_ns: u64,
    /// Host time spent generating pattern bytes / checking them.
    pub fill_host_ns: u64,
    pub verify_host_ns: u64,
    pub start: Stamp,
    pub end: Stamp,
    pub spans: Vec<Span>,
}

/// The result of one run.
pub struct Outcome {
    pub collected: Collected,
    pub report: JobReport,
    /// Whether the image the servers hold matches the scripts.
    pub image_ok: bool,
}

struct Shared {
    plan: Arc<Plan>,
    seed: u64,
    traced: bool,
    /// Host clock origin: the process start.
    origin: Instant,
    /// Current version of every file unit; a unit is written by one rank
    /// and read by others only after a barrier. `Relaxed` is enough: ranks
    /// run one at a time, and every handoff between their threads goes
    /// through the simulation kernel's mutex.
    versions: Vec<AtomicU32>,
    collected: Mutex<Collected>,
}

impl Shared {
    fn host_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Run `plan` on `tb`. `origin` is the process start, which `setup_s`
/// counts from.
pub fn run(tb: Testbed, plan: Arc<Plan>, seed: u64, traced: bool, origin: Instant) -> Outcome {
    let server_fss = tb.server_fss.clone();
    let ranks = plan.ranks;
    let units = (plan.file_bytes / UNIT) as usize;
    let shared = Arc::new(Shared {
        collected: Mutex::new(Collected {
            phases: vec![PhaseStat::empty(); plan.phases.len()],
            ..Collected::default()
        }),
        plan,
        seed,
        traced,
        origin,
        versions: (0..units).map(|_| AtomicU32::new(0)).collect(),
    });
    let sh = shared.clone();
    let report = tb.run(ranks, move |ctx, comm, adio| {
        Rank::new(&sh, ctx, comm).run(adio)
    });
    let t0 = Instant::now();
    let image_ok = verify_image(&server_fss, &shared);
    let shared = Arc::try_unwrap(shared).unwrap_or_else(|_| panic!("a rank outlived its run"));
    let mut collected = shared.collected.into_inner().expect("a rank panicked");
    collected.verify_host_ns += t0.elapsed().as_nanos() as u64;
    collected.latencies_ns.sort_unstable();
    collected.spans.sort_by_key(|s| s.id);
    Outcome {
        collected,
        report,
        image_ok,
    }
}

/// One rank's state while it runs its scripts.
struct Rank<'a> {
    sh: &'a Shared,
    ctx: &'a ActorCtx,
    comm: &'a Comm,
    host: Host,
    rank: usize,
    think: SplitMix,
    wbuf: VirtAddr,
    rbuf: VirtAddr,
    scratch: Vec<u8>,
    /// Versions this rank hands out; unique per rank, and a unit has one
    /// writer, so a (unit, version) pair never repeats.
    next_version: u32,
    next_span: u64,
    mine: Collected,
}

impl<'a> Rank<'a> {
    fn new(sh: &'a Shared, ctx: &'a ActorCtx, comm: &'a Comm) -> Rank<'a> {
        let host = comm.host().clone();
        let max = sh.plan.max_op_bytes() as usize;
        Rank {
            sh,
            ctx,
            comm,
            rank: comm.rank(),
            think: SplitMix::derive(sh.seed, comm.rank(), STREAM_THINK),
            wbuf: host.mem.alloc(max),
            rbuf: host.mem.alloc(max),
            scratch: vec![0u8; max],
            host,
            next_version: 0,
            next_span: 0,
            mine: Collected {
                phases: vec![PhaseStat::empty(); sh.plan.phases.len()],
                ..Collected::default()
            },
        }
    }

    fn run(mut self, adio: &dyn AdioFs) {
        let (sh, ctx, comm) = (self.sh, self.ctx, self.comm);
        let plan = &sh.plan;

        // --- set-up: prefill through a plain handle, open the timed one ---
        if let Some(script) = plan.prefill.get(self.rank) {
            let pre = MpiFile::open(
                ctx,
                adio,
                &self.host,
                PATH,
                OpenMode::create(),
                Hints::default(),
            )
            .expect("open for prefill");
            for op in script {
                let Op::Write { off, len } = *op else {
                    panic!("prefill scripts hold writes only");
                };
                let version = self.stage_write(units_of(off, len));
                pre.write_at(ctx, off, self.wbuf, len)
                    .expect("prefill write");
                self.commit(units_of(off, len), version);
            }
            pre.sync(ctx).expect("prefill sync");
            pre.close(ctx, adio).expect("prefill close");
        }
        let mut hints = Hints::default();
        for (k, v) in &plan.hints {
            hints.set(k, v);
        }
        let file =
            MpiFile::open(ctx, adio, &self.host, PATH, OpenMode::create(), hints).expect("open");
        if plan.interleaved {
            // Rank r owns every ranks-th 4 KiB block, starting at block r.
            let el = Datatype::bytes(UNIT);
            let ft = Datatype::resized(
                &Datatype::hindexed(&[(1, (self.rank as u64 * UNIT) as i64)], &el),
                0,
                plan.ranks as u64 * UNIT,
            );
            file.set_view(0, &el, &ft);
        }

        // --- the timed window: start barrier to end barrier ---
        comm.barrier(ctx);
        if self.rank == 0 {
            self.mine.start = self.stamp();
        }
        let cpu0 = self.host.cpu.busy();
        for (pi, phase) in plan.phases.iter().enumerate() {
            let parent = self.open_span();
            let (h0, s0) = (sh.host_ns(), ctx.now().as_nanos());
            for op in &phase.ops[self.rank] {
                self.call(&file, pi, parent, op);
            }
            // No rank may wait in a barrier holding a lease (a holder
            // answers a recall only on entry to its next call), and `sync`
            // hands it back; on an uncached handle it is one flush.
            self.mine.attempted += 1;
            if file.sync(ctx).is_err() {
                self.mine.errors += 1;
            }
            comm.barrier(ctx);
            // The phase span's self time is the rank's sync + barrier wait.
            self.close_span(parent, 0, phase.name, 0, h0, s0);
        }
        self.mine.client_cpu_ns = (self.host.cpu.busy() - cpu0).as_nanos();
        if self.rank == 0 {
            self.mine.end = self.stamp();
        }
        file.close(ctx, adio).expect("close");

        // --- hand the rank's numbers over ---
        let mut all = sh.collected.lock().expect("a rank panicked");
        let mine = self.mine;
        for (a, m) in all.phases.iter_mut().zip(&mine.phases) {
            a.merge(m);
        }
        all.latencies_ns.extend(mine.latencies_ns);
        all.call_ns += mine.call_ns;
        all.prepare_ns += mine.prepare_ns;
        all.attempted += mine.attempted;
        all.errors += mine.errors;
        all.mismatches += mine.mismatches;
        all.bytes_moved += mine.bytes_moved;
        all.client_cpu_ns += mine.client_cpu_ns;
        all.fill_host_ns += mine.fill_host_ns;
        all.verify_host_ns += mine.verify_host_ns;
        all.spans.extend(mine.spans);
        if self.rank == 0 {
            all.start = mine.start;
            all.end = mine.end;
        }
    }

    fn stamp(&self) -> Stamp {
        Stamp {
            host_ns: self.sh.host_ns(),
            bytes_buffered: layers::bytes_buffered_now(),
            counters: if self.sh.traced {
                layers::counters(self.ctx)
            } else {
                Counters::default()
            },
        }
    }

    /// One timed call. The rank thinks (a seeded share of its own CPU that
    /// is not part of the call), then prepares the call (another, which
    /// is: an application's timer around "prepare and call" reads it, and
    /// so does the call's latency here), makes it, accounts for it and
    /// checks what came back. Two draws, because a saturated server hides
    /// one and an idle one hides the other: behind a queue a call ends when
    /// the server says so, whatever the rank did before issuing it.
    fn call(&mut self, file: &MpiFile, pi: usize, parent: u64, op: &Op) {
        let (sh, ctx) = (self.sh, self.ctx);
        let think = self.think.below(THINK_MAX_NS + 1);
        self.host.compute(ctx, SimDuration::from_nanos(think));
        let id = self.open_span();
        let h0 = if sh.traced { sh.host_ns() } else { 0 };
        let s0 = ctx.now().as_nanos();
        let prepare = self.think.below(THINK_MAX_NS + 1);
        self.host.compute(ctx, SimDuration::from_nanos(prepare));
        let units = self.units(op);
        let version = if op.is_write() {
            self.stage_write(units)
        } else {
            0
        };
        let bytes = op.bytes();
        // `Ok(n)`: n is the byte count (or the size, for get_size).
        let result = match *op {
            Op::Read { off, len } => file.read_at(ctx, off, self.rbuf, len),
            Op::Write { off, len } => file.write_at(ctx, off, self.wbuf, len),
            Op::GetSize => file.get_size(ctx),
            Op::Sync => file.sync(ctx).map(|()| 0),
            Op::ReadAll { at, .. } => read_at_all(ctx, self.comm, file, at, self.rbuf, bytes),
            Op::WriteAll { at, .. } => write_at_all(ctx, self.comm, file, at, self.wbuf, bytes),
        };
        let s1 = ctx.now().as_nanos();
        self.close_span(id, parent, op.name(), bytes, h0, s0);

        let expect = match op {
            Op::GetSize => sh.plan.file_bytes,
            _ => bytes,
        };
        let ok = match result {
            Err(_) => {
                if op.is_write() {
                    // Some, all or none of the bytes may have landed.
                    self.commit(units, UNKNOWN);
                }
                false
            }
            Ok(n) => {
                if op.is_write() {
                    self.commit(units, version);
                }
                if n != expect || (op.is_read() && !self.check_read(units)) {
                    self.mine.mismatches += 1;
                }
                true
            }
        };
        let m = &mut self.mine;
        m.attempted += 1;
        m.errors += u64::from(!ok);
        m.call_ns += s1 - s0;
        m.prepare_ns += prepare;
        if sh.plan.phases[pi].feeds_lat {
            m.latencies_ns.push(s1 - s0);
        }
        let st = &mut m.phases[pi];
        st.first_start_ns = st.first_start_ns.min(s0);
        st.last_end_ns = s1;
        if ok && bytes > 0 {
            m.bytes_moved += bytes;
            if op.is_write() {
                st.bytes_written += bytes;
            } else {
                st.bytes_read += bytes;
            }
        }
    }

    /// The file units an op covers, in buffer order.
    fn units(&self, op: &Op) -> Units {
        match *op {
            Op::Read { off, len } | Op::Write { off, len } => units_of(off, len),
            Op::ReadAll { at, blocks } | Op::WriteAll { at, blocks } => Units {
                first: at * self.sh.plan.ranks as u64 + self.rank as u64,
                stride: self.sh.plan.ranks as u64,
                count: blocks,
            },
            Op::GetSize | Op::Sync => Units {
                first: 0,
                stride: 1,
                count: 0,
            },
        }
    }

    /// Put a fresh version of `units` into the write buffer; returns it.
    fn stage_write(&mut self, units: Units) -> u32 {
        let t0 = Instant::now();
        self.next_version += 1;
        let version = self.next_version;
        for (i, unit) in units.iter().enumerate() {
            let at = i * UNIT as usize;
            fill_unit(
                &mut self.scratch[at..at + UNIT as usize],
                self.sh.seed,
                version,
                unit,
            );
        }
        let len = units.count as usize * UNIT as usize;
        self.host.mem.write(self.wbuf, &self.scratch[..len]);
        self.mine.fill_host_ns += t0.elapsed().as_nanos() as u64;
        version
    }

    fn commit(&self, units: Units, version: u32) {
        for unit in units.iter() {
            self.sh.versions[unit as usize].store(version, Ordering::Relaxed);
        }
    }

    /// Compare the read buffer with the current version of `units`.
    fn check_read(&mut self, units: Units) -> bool {
        let t0 = Instant::now();
        let len = units.count as usize * UNIT as usize;
        self.host.mem.read(self.rbuf, &mut self.scratch[..len]);
        let ok = units.iter().enumerate().all(|(i, unit)| {
            let at = i * UNIT as usize;
            let version = self.sh.versions[unit as usize].load(Ordering::Relaxed);
            check_unit(
                &self.scratch[at..at + UNIT as usize],
                self.sh.seed,
                version,
                unit,
            )
        });
        self.mine.verify_host_ns += t0.elapsed().as_nanos() as u64;
        ok
    }

    fn open_span(&mut self) -> u64 {
        self.next_span += 1;
        ((self.rank as u64) << 32) | self.next_span
    }

    /// Record span `id` as ending now (traced runs only).
    fn close_span(&mut self, id: u64, parent: u64, op: &'static str, bytes: u64, h0: u64, s0: u64) {
        if self.sh.traced {
            self.mine.spans.push(Span {
                id,
                parent,
                rank: self.rank,
                op,
                bytes,
                sim_start_ns: s0,
                sim_end_ns: self.ctx.now().as_nanos(),
                host_start_ns: h0,
                host_end_ns: self.sh.host_ns(),
            });
        }
    }
}

/// `count` file units starting at `first`, `stride` apart.
#[derive(Debug, Clone, Copy)]
struct Units {
    first: u64,
    stride: u64,
    count: u64,
}

impl Units {
    fn iter(self) -> impl Iterator<Item = u64> {
        (0..self.count).map(move |i| self.first + i * self.stride)
    }
}

fn units_of(off: u64, len: u64) -> Units {
    Units {
        first: off / UNIT,
        stride: 1,
        count: len / UNIT,
    }
}

/// Compare what the servers hold with the version table, stripe by stripe:
/// logical stripe `g` lives on server `g % servers` at local stripe
/// `g / servers`.
fn verify_image(fss: &[MemFs], sh: &Shared) -> bool {
    let servers = sh.plan.servers;
    assert_eq!(
        fss.len(),
        servers,
        "plan and testbed disagree on the server count"
    );
    let mut stored = 0u64;
    let mut pieces = Vec::with_capacity(servers);
    for fs in fss {
        match fs.resolve(PATH) {
            Ok(attr) => {
                stored += attr.size;
                pieces.push(Some(attr.id));
            }
            Err(_) => pieces.push(None),
        }
    }
    if stored != sh.plan.file_bytes {
        eprintln!(
            "image: servers hold {stored} bytes, the plan wrote {}",
            sh.plan.file_bytes
        );
        return false;
    }
    let stripe = if servers == 1 {
        sh.plan.file_bytes.max(UNIT)
    } else {
        STRIPE_UNIT
    };
    // Read at most 1 MiB at a time, stripe-aligned.
    let chunk = stripe.min(1 << 20);
    let mut off = 0u64;
    while off < sh.plan.file_bytes {
        let g = off / stripe;
        let local = (g / servers as u64) * stripe + off % stripe;
        let len = chunk.min(sh.plan.file_bytes - off);
        let Some(id) = pieces[(g % servers as u64) as usize] else {
            eprintln!(
                "image: server {} has no piece of the file",
                g % servers as u64
            );
            return false;
        };
        let Ok(data) = fss[(g % servers as u64) as usize].read_bytes(id, local, len) else {
            return false;
        };
        if data.len() as u64 != len {
            eprintln!("image: short piece at offset {off}");
            return false;
        }
        for (i, bytes) in data.as_slice().chunks(UNIT as usize).enumerate() {
            let unit = off / UNIT + i as u64;
            let version = sh.versions[unit as usize].load(Ordering::Relaxed);
            if !check_unit(bytes, sh.seed, version, unit) {
                eprintln!(
                    "image: unit {unit} (offset {}) does not hold version {version}",
                    unit * UNIT
                );
                return false;
            }
        }
        off += len;
    }
    true
}
