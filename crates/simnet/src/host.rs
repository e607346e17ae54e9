//! Simulated hosts: CPU accounting and a byte-addressable memory arena.
//!
//! Bytes really move in this simulator — a DMA or a `memcpy` reads and
//! writes actual buffer contents — so end-to-end tests can verify file data
//! written through the whole MPI-IO → DAFS → VIA stack. [`HostMem`] provides
//! a per-host virtual address space backed by allocation chunks;
//! [`CpuMeter`] accumulates busy time for the host-overhead experiments.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buf::{Bytes, Rope};
use crate::coro::Mapping;
use crate::cost::HOST;
use crate::kernel::ActorCtx;
use crate::time::{SimDuration, SimTime};

/// A simulated virtual address within one host's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    #[inline]
    /// Address `delta` bytes past this one.
    pub fn offset(self, delta: u64) -> VirtAddr {
        VirtAddr(self.0 + delta)
    }

    #[inline]
    /// Raw integer value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

struct Allocation {
    base: u64,
    /// Mapped from the OS, not `malloc`ed: sessions allocate megabytes of
    /// slots and staging they mostly never touch, which cost nothing as
    /// untouched zero pages but a `memset` each from a recycled heap.
    data: Mapping,
    /// Views recorded by [`HostMem::place`] as the contents of
    /// `[offset, offset + len)`, disjoint and keyed by offset. The
    /// allocation's contents are `data` overlaid by these; nothing ever
    /// writes them into `data`.
    placed: BTreeMap<usize, Bytes>,
}

impl Allocation {
    /// Take `[off, end)` out of the placed views: an entry it covers goes,
    /// one it cuts keeps the parts outside (sub-views, no copy).
    fn cut(&mut self, off: usize, end: usize) {
        if off == end {
            return;
        }
        let before = self.placed.range(..off).next_back();
        if let Some((&o, b)) = before.filter(|&(&o, b)| o + b.len() > off) {
            let whole = b.clone();
            if o + whole.len() > end {
                self.placed.insert(end, whole.slice(end - o..));
            }
            self.placed.insert(o, whole.slice(..off - o));
        }
        while let Some((&o, _)) = self.placed.range(off..end).next() {
            let b = self.placed.remove(&o).expect("just found");
            if o + b.len() > end {
                self.placed.insert(end, b.slice(end - o..));
            }
        }
    }

    /// Walk `[off, end)` in order: `f(Some(view), r)` for the bytes `r` of
    /// a placed view in range, `f(None, r)` for the mapping's bytes `r`
    /// between them.
    fn walk(&self, off: usize, end: usize, mut f: impl FnMut(Option<&Bytes>, Range<usize>)) {
        let reaching_in = self.placed.range(..off).next_back();
        let reaching_in = reaching_in.filter(|&(&o, b)| o + b.len() > off);
        let mut at = off;
        for (&o, b) in reaching_in.into_iter().chain(self.placed.range(off..end)) {
            if o > at {
                f(None, at..o);
                at = o;
            }
            let stop = (o + b.len()).min(end);
            f(Some(b), at - o..stop - o);
            at = stop;
        }
        if at < end {
            f(None, at..end);
        }
    }

    /// Hand `f` the contents of `[off, end)` in order: slices of the placed
    /// views in range and of the mapping between them.
    fn pieces(&self, off: usize, end: usize, mut f: impl FnMut(&[u8])) {
        self.walk(off, end, |view, r| match view {
            Some(b) => f(&b[r]),
            None => f(&self.data[r]),
        });
    }
}

/// A host's memory arena. Addresses start at 0x1000 (null stays invalid);
/// allocations are contiguous ranges; access outside any allocation panics —
/// in the simulator a wild pointer is always a bug in *our* code, whereas
/// *protection* errors (RDMA to unregistered memory) are modeled separately
/// in the VIA layer.
#[derive(Default)]
struct MemState {
    /// base -> allocation, ordered so range lookups are O(log n).
    allocs: BTreeMap<u64, Allocation>,
    next: u64,
    allocated_bytes: u64,
}

impl MemState {
    /// The allocation `[addr, addr+len)` lies in, and `addr`'s offset in it.
    fn locate(&mut self, addr: VirtAddr, len: usize) -> (&mut Allocation, usize) {
        let (_, alloc) = self
            .allocs
            .range_mut(..=addr.0)
            .next_back()
            .unwrap_or_else(|| panic!("HostMem access to unmapped address {addr}"));
        let off = (addr.0 - alloc.base) as usize;
        assert!(
            off + len <= alloc.data.len(),
            "HostMem access [{addr} + {len}) overruns allocation of {} bytes",
            alloc.data.len()
        );
        (alloc, off)
    }
}

#[derive(Clone)]
/// HostMem.
pub struct HostMem {
    state: Arc<Mutex<MemState>>,
}

impl Default for HostMem {
    fn default() -> Self {
        Self::new()
    }
}

impl HostMem {
    /// Create a new instance with default state.
    pub fn new() -> HostMem {
        HostMem {
            state: Arc::new(Mutex::new(MemState {
                allocs: BTreeMap::new(),
                next: 0x1000,
                allocated_bytes: 0,
            })),
        }
    }

    /// Allocate `len` zeroed bytes; returns the base address.
    pub fn alloc(&self, len: usize) -> VirtAddr {
        let mut st = self.state.lock();
        let base = st.next;
        // Align the next allocation to 4 KiB so page-granularity registration
        // costs are realistic, and leave a guard gap.
        let span = (len as u64 + 0xFFF) & !0xFFF;
        st.next = base + span.max(0x1000) + 0x1000;
        st.allocated_bytes += len as u64;
        st.allocs.insert(
            base,
            Allocation {
                base,
                data: Mapping::zeroed(len),
                placed: BTreeMap::new(),
            },
        );
        VirtAddr(base)
    }

    /// Free an allocation by its base address, its placed views with it.
    /// Panics on a non-base address (simulator-bug detection, like a bad
    /// `free(3)`).
    pub fn free(&self, addr: VirtAddr) {
        let mut st = self.state.lock();
        let a = st
            .allocs
            .remove(&addr.0)
            .unwrap_or_else(|| panic!("HostMem::free of non-allocation {addr}"));
        st.allocated_bytes -= a.data.len() as u64;
    }

    /// Total live allocated bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.state.lock().allocated_bytes
    }

    /// Every byte access goes through here, with the allocation and
    /// `addr`'s offset in it.
    fn with_alloc<R>(
        &self,
        addr: VirtAddr,
        len: usize,
        f: impl FnOnce(&mut Allocation, usize) -> R,
    ) -> R {
        let mut st = self.state.lock();
        let (alloc, off) = st.locate(addr, len);
        f(alloc, off)
    }

    /// Record `bytes` as the contents of `[addr, addr + bytes.len())`
    /// without writing a page: a NIC's placement. Reads see the view; no
    /// one writes it into the mapping, so a buffer only a NIC writes never
    /// has its pages touched. The view keeps its slab alive until a later
    /// placement, write or fill covers it, or the buffer is freed; the
    /// part of an older view that it covers is dropped.
    pub fn place(&self, addr: VirtAddr, bytes: Bytes) {
        self.with_alloc(addr, bytes.len(), |a, off| {
            if !bytes.is_empty() {
                a.cut(off, off + bytes.len());
                a.placed.insert(off, bytes);
            }
        });
    }

    /// Drop every placed view inside `[addr, addr+len)`: the range has been
    /// handed back to the NIC, so nothing may read what was placed there.
    /// A view that reaches outside the range stays whole. A range in no
    /// allocation has nothing to drop.
    pub fn unplace(&self, addr: VirtAddr, len: usize) {
        let mut st = self.state.lock();
        let Some((_, alloc)) = st.allocs.range_mut(..=addr.0).next_back() else {
            return;
        };
        let off = (addr.0 - alloc.base) as usize;
        let end = off + len;
        // The views are disjoint: only the last one starting in range can
        // reach past its end.
        while let Some((&o, b)) = alloc.placed.range(off..end).next() {
            if o + b.len() > end {
                break;
            }
            alloc.placed.remove(&o);
        }
        if alloc.placed.is_empty() {
            // An emptied map keeps its root node; a receive slot re-posted
            // after every frame would hold one each.
            alloc.placed = BTreeMap::new();
        }
    }

    /// Copy bytes out of simulated memory.
    pub fn read(&self, addr: VirtAddr, out: &mut [u8]) {
        self.with_alloc(addr, out.len(), |a, off| {
            let mut at = 0;
            a.pieces(off, off + out.len(), |p| {
                out[at..at + p.len()].copy_from_slice(p);
                at += p.len();
            });
        });
    }

    /// Append `len` bytes at `addr` to `out` — the one pass of a producer
    /// assembling a frame (nothing is zero-filled first).
    pub fn read_into(&self, addr: VirtAddr, len: usize, out: &mut Vec<u8>) {
        out.reserve(len);
        self.with_alloc(addr, len, |a, off| {
            a.pieces(off, off + len, |p| out.extend_from_slice(p))
        });
    }

    /// Copy bytes out into a fresh vector.
    pub fn read_vec(&self, addr: VirtAddr, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        self.read_into(addr, len, &mut v);
        v
    }

    /// The contents of `[addr, addr + len)` as views, in order: what a NIC
    /// placed comes back shared — a sub-view of the placed view, no byte
    /// copied — and only the mapping's bytes between placements are copied,
    /// one exact-size slab per gap. The twin of `MemFs::read_views`, for a
    /// consumer that keeps what it read.
    pub fn read_views(&self, addr: VirtAddr, len: usize) -> Rope {
        let mut out = Rope::new();
        self.with_alloc(addr, len, |a, off| {
            a.walk(off, off + len, |view, r| match view {
                Some(b) => out.push(b.slice(r)),
                None => out.push(Bytes::copy_from_slice(&a.data[r])),
            })
        });
        out
    }

    /// Copy bytes out into a pooled, refcounted frame. One copy out of the
    /// arena; everything downstream shares the frame by reference.
    pub fn read_bytes(&self, addr: VirtAddr, len: usize) -> Bytes {
        let mut frame = crate::buf::frame_pool().alloc(len);
        self.read_into(addr, len, &mut frame);
        frame.freeze()
    }

    /// Copy bytes into simulated memory.
    pub fn write(&self, addr: VirtAddr, data: &[u8]) {
        self.with_alloc(addr, data.len(), |a, off| {
            a.cut(off, off + data.len());
            a.data[off..off + data.len()].copy_from_slice(data);
        });
    }

    /// Fill a range with one byte value.
    pub fn fill(&self, addr: VirtAddr, len: usize, value: u8) {
        self.with_alloc(addr, len, |a, off| {
            a.cut(off, off + len);
            a.data[off..off + len].fill(value);
        });
    }

    /// True if `[addr, addr+len)` lies inside one live allocation.
    pub fn is_mapped(&self, addr: VirtAddr, len: usize) -> bool {
        let st = self.state.lock();
        match st.allocs.range(..=addr.0).next_back() {
            Some((_, a)) => (addr.0 - a.base) as usize + len <= a.data.len(),
            None => false,
        }
    }
}

/// Accumulates CPU busy time on a host; utilization = busy / window.
#[derive(Clone, Default)]
pub struct CpuMeter {
    busy_ns: Arc<AtomicU64>,
}

impl CpuMeter {
    /// Create a new instance with default state.
    pub fn new() -> CpuMeter {
        CpuMeter::default()
    }

    /// Record `d` of CPU work (called by `Host::compute`). A load and a
    /// store: a host's meter is charged on the one thread its simulation
    /// runs on.
    pub fn add(&self, d: SimDuration) {
        let busy = self.busy_ns.load(Ordering::Relaxed);
        (self.busy_ns).store(busy + d.as_nanos(), Ordering::Relaxed);
    }

    /// Accumulated busy time.
    pub fn busy(&self) -> SimDuration {
        SimDuration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }

    /// Utilization.
    pub fn utilization(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.busy().as_nanos() as f64 / window.as_nanos() as f64
    }
}

/// Identifies a host in a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// A simulated machine: name, memory, CPU meter.
#[derive(Clone)]
pub struct Host {
    /// Stable identifier.
    pub id: HostId,
    name: Arc<str>,
    /// This host's memory arena.
    pub mem: HostMem,
    /// This host's CPU busy-time meter.
    pub cpu: CpuMeter,
}

impl Host {
    /// Human-readable name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Perform `d` of CPU work: advances the calling actor's clock and
    /// charges the host CPU meter.
    pub fn compute(&self, ctx: &ActorCtx, d: SimDuration) {
        self.cpu.add(d);
        ctx.cpu_ns().add(d.as_nanos());
        ctx.trace(
            "sim",
            "cpu.compute",
            &[
                ("host", obs::Value::Str(&self.name)),
                ("busy_ns", obs::Value::U64(d.as_nanos())),
            ],
        );
        ctx.advance(d);
    }

    /// Charge this host's CPU one memcpy of `bytes`: one [`Host::compute`]
    /// of [`HOST`]`.copy(bytes)`, the price of a copy on every host. It
    /// moves no byte; the caller makes the copy, or models it.
    pub fn copy(&self, ctx: &ActorCtx, bytes: u64) {
        self.compute(ctx, HOST.copy(bytes));
    }
}

/// A registry of hosts, shared by the transport layers.
#[derive(Clone, Default)]
pub struct Cluster {
    hosts: Arc<Mutex<Vec<Host>>>,
}

impl Cluster {
    /// Create a new instance with default state.
    pub fn new() -> Cluster {
        Cluster::default()
    }

    /// Add host.
    pub fn add_host(&self, name: &str) -> Host {
        let mut hs = self.hosts.lock();
        let host = Host {
            id: HostId(hs.len()),
            name: name.into(),
            mem: HostMem::new(),
            cpu: CpuMeter::new(),
        };
        hs.push(host.clone());
        host
    }

    /// Host.
    pub fn host(&self, id: HostId) -> Host {
        self.hosts.lock()[id.0].clone()
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.hosts.lock().len()
    }

    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Elapsed-window helper for utilization reports.
pub struct Stopwatch {
    start: SimTime,
}

impl Stopwatch {
    /// Start.
    pub fn start(ctx: &ActorCtx) -> Stopwatch {
        Stopwatch { start: ctx.now() }
    }

    /// Elapsed.
    pub fn elapsed(&self, ctx: &ActorCtx) -> SimDuration {
        ctx.now().since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SimKernel;
    use crate::time::units::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let m = HostMem::new();
        let a = m.alloc(64);
        m.write(a, b"hello");
        m.write(a.offset(5), b" world");
        assert_eq!(m.read_vec(a, 11), b"hello world");
        let mut frame = b"hdr:".to_vec();
        m.read_into(a.offset(6), 5, &mut frame);
        assert_eq!(frame, b"hdr:world");
        assert_eq!(m.read_bytes(a, 5), b"hello".as_slice());
        assert_eq!(m.allocated_bytes(), 64);
    }

    #[test]
    fn allocations_are_disjoint_and_zeroed() {
        let m = HostMem::new();
        let a = m.alloc(4096);
        let b = m.alloc(4096);
        assert!(b.0 >= a.0 + 4096);
        m.fill(a, 4096, 0xAA);
        assert_eq!(m.read_vec(b, 16), vec![0u8; 16]);
    }

    #[test]
    fn interior_pointer_access_works() {
        let m = HostMem::new();
        let a = m.alloc(1000);
        m.write(a.offset(500), &[1, 2, 3]);
        assert_eq!(m.read_vec(a.offset(501), 1), vec![2]);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_access_panics() {
        let m = HostMem::new();
        m.read_vec(VirtAddr(0x10), 1);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn overrun_access_panics() {
        let m = HostMem::new();
        let a = m.alloc(8);
        m.read_vec(a, 9);
    }

    #[test]
    fn free_then_mapped_check() {
        let m = HostMem::new();
        let a = m.alloc(128);
        assert!(m.is_mapped(a, 128));
        m.free(a);
        assert!(!m.is_mapped(a, 1));
        assert_eq!(m.allocated_bytes(), 0);
    }

    #[test]
    fn a_placed_frame_is_what_a_read_sees() {
        let m = HostMem::new();
        let a = m.alloc(64);
        m.place(a.offset(8), Bytes::from(&b"frame"[..]));
        assert_eq!(m.read_vec(a.offset(6), 8), b"\0\0frame\0");
        assert_eq!(m.read_bytes(a.offset(8), 5), b"frame".as_slice());
    }

    /// What a NIC placed comes back as the view it placed, not a copy;
    /// only the mapping between placements is copied, and a range that
    /// starts and ends inside views takes just their parts in range.
    #[test]
    fn read_views_shares_what_was_placed_and_copies_only_the_gaps() {
        let m = HostMem::new();
        let a = m.alloc(64);
        m.fill(a, 64, b'.');
        let first = Bytes::from(&b"0123456789"[..]);
        let second = Bytes::from(&b"abcdefghij"[..]);
        m.place(a.offset(4), first.clone());
        m.place(a.offset(20), second.clone());
        let views = m.read_views(a.offset(6), 20);
        assert_eq!(views.to_vec(), b"23456789......abcdef");
        let pieces: Vec<&Bytes> = views.iter().collect();
        assert_eq!(pieces.len(), 3, "view, gap, view");
        assert!(
            std::ptr::eq(pieces[0].as_ptr(), &first[2]),
            "placed, not copied"
        );
        assert!(
            std::ptr::eq(pieces[2].as_ptr(), &second[0]),
            "placed, not copied"
        );
        assert_eq!(pieces[1].as_slice(), b"......");
        // The gap is a slab of its own: a later write to the mapping does
        // not reach it.
        m.fill(a.offset(14), 6, b'!');
        assert_eq!(pieces[1].as_slice(), b"......");
        // Inside one view, one piece; outside every view, one copied gap.
        let inside = m.read_views(a.offset(21), 3);
        assert!(std::ptr::eq(
            inside.as_single().unwrap().as_ptr(),
            &second[1]
        ));
        assert_eq!(
            m.read_views(a.offset(40), 8).as_single().unwrap(),
            b"........".as_slice()
        );
        assert!(m.read_views(a, 0).is_empty());
    }

    #[test]
    fn overlapping_placements_apply_in_order() {
        let m = HostMem::new();
        let a = m.alloc(16);
        m.place(a, Bytes::from(&b"aaaaaa"[..]));
        m.place(a.offset(4), Bytes::from(&b"bbbb"[..]));
        m.place(a.offset(2), Bytes::from(&b"cc"[..]));
        assert_eq!(m.read_vec(a, 8), b"aaccbbbb");
    }

    #[test]
    fn a_write_beside_a_placement_keeps_both() {
        let m = HostMem::new();
        let a = m.alloc(32);
        m.place(a, Bytes::from(&b"placed"[..]));
        m.write(a.offset(6), b"+written");
        m.place(a.offset(14), Bytes::from(&b"!"[..]));
        m.write(a.offset(3), b"-");
        assert_eq!(m.read_vec(a, 15), b"pla-ed+written!");
    }

    #[test]
    fn unplace_drops_what_it_covers_and_writes_what_it_cuts() {
        let m = HostMem::new();
        let a = m.alloc(32);
        m.fill(a, 32, 0xEE);
        m.place(a, Bytes::from(&b"gone"[..]));
        m.place(a.offset(8), Bytes::from(&b"kept"[..]));
        m.place(a.offset(16), Bytes::from(&b"half"[..]));
        m.unplace(a, 8);
        m.unplace(a.offset(18), 8);
        assert_eq!(m.read_vec(a, 4), [0xEE; 4]);
        assert_eq!(m.read_vec(a.offset(8), 12), b"kept\xEE\xEE\xEE\xEEhalf");
        // A range in no allocation has nothing to drop.
        m.unplace(VirtAddr(0x10), 8);
    }

    #[test]
    fn free_drops_a_pending_placement() {
        let m = HostMem::new();
        let a = m.alloc(4096);
        let alive = crate::buf::bytes_alive();
        let slab = Arc::new(crate::buf::Slab::from_vec(vec![7; 4096]));
        m.place(a, Bytes::from_slab(slab.clone()));
        assert_eq!(Arc::strong_count(&slab), 2);
        m.free(a);
        assert_eq!(Arc::strong_count(&slab), 1, "free kept the frame");
        drop(slab);
        assert_eq!(crate::buf::bytes_alive(), alive, "free kept its bytes");
    }

    /// `HostMem` against a flat model: per byte, the mapping's value and,
    /// if placed, the view's value and the id of the view it lies in (a
    /// cut gives the part past it a new id, as the real map makes it a
    /// new entry).
    struct Model {
        mapping: Vec<u8>,
        placed: Vec<Option<(u32, u8)>>,
    }

    impl Model {
        fn new(len: usize) -> Model {
            Model {
                mapping: vec![0; len],
                placed: vec![None; len],
            }
        }

        fn cut(&mut self, off: usize, end: usize, fresh: &mut u32) {
            if off == end {
                return;
            }
            self.placed[off..end].fill(None);
            if let Some(Some((id, _))) = self.placed.get(end).copied() {
                *fresh += 1;
                let run = self.placed[end..].iter_mut();
                for p in run.take_while(|p| matches!(p, Some((i, _)) if *i == id)) {
                    p.as_mut().unwrap().0 = *fresh;
                }
            }
        }

        fn unplace(&mut self, off: usize, end: usize) {
            for i in off..end {
                let Some((id, _)) = self.placed[i] else {
                    continue;
                };
                let of_id = |p: &Option<(u32, u8)>| matches!(p, Some((j, _)) if *j == id);
                let mut outside = self.placed[..off].iter().chain(&self.placed[end..]);
                if !outside.any(of_id) {
                    self.placed[off..end]
                        .iter_mut()
                        .filter(|p| of_id(p))
                        .for_each(|p| *p = None);
                }
            }
        }

        fn contents(&self, off: usize, end: usize) -> Vec<u8> {
            (off..end)
                .map(|i| self.placed[i].map_or(self.mapping[i], |(_, v)| v))
                .collect()
        }

        /// `(offset, len)` of each run of one view id, in order.
        fn views(&self) -> Vec<(usize, usize)> {
            let mut out: Vec<(usize, usize, u32)> = Vec::new();
            for (i, p) in self.placed.iter().enumerate() {
                match (p, out.last_mut()) {
                    (Some((id, _)), Some(last)) if last.2 == *id && last.0 + last.1 == i => {
                        last.1 += 1
                    }
                    (Some((id, _)), _) => out.push((i, 1, *id)),
                    (None, _) => {}
                }
            }
            out.into_iter().map(|(o, n, _)| (o, n)).collect()
        }
    }

    /// The placed views of the allocation at `a`, in order, each non-empty
    /// and starting at or past the end of the one before.
    fn views_of(m: &HostMem, a: VirtAddr) -> Vec<(usize, usize)> {
        let st = m.state.lock();
        let alloc = &st.allocs[&a.0];
        let views: Vec<_> = alloc.placed.iter().map(|(&o, b)| (o, b.len())).collect();
        for w in views.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "views overlap: {w:?}");
        }
        assert!(views
            .iter()
            .all(|&(o, n)| n > 0 && o + n <= alloc.data.len()));
        views
    }

    #[test]
    fn placements_writes_and_reads_match_a_flat_model() {
        use crate::rng::Rng64;
        for seed in 1..=8u64 {
            let mut rng = Rng64::new(seed);
            let m = HostMem::new();
            let sizes = [64usize, 300, 1024];
            let mut addrs: Vec<VirtAddr> = sizes.iter().map(|&n| m.alloc(n)).collect();
            let mut models: Vec<Model> = sizes.iter().map(|&n| Model::new(n)).collect();
            let mut fresh = 0u32;
            for step in 0..2000 {
                let k = rng.range_usize(0, sizes.len());
                let (a, model, len) = (addrs[k], &mut models[k], sizes[k]);
                let off = rng.range_usize(0, len + 1);
                let end = rng.range_usize(off, len + 1);
                match rng.below(10) {
                    0..=2 => {
                        // A view into a larger slab, as a memfs page is.
                        let lead = rng.range_usize(0, 16);
                        let slab = Bytes::from_vec(rng.bytes(lead + end - off + 8));
                        let view = slab.slice(lead..lead + end - off);
                        model.cut(off, end, &mut fresh);
                        fresh += 1;
                        for (i, &v) in (off..end).zip(view.iter()) {
                            model.placed[i] = Some((fresh, v));
                        }
                        m.place(a.offset(off as u64), view);
                    }
                    3 | 4 => {
                        let data = rng.bytes(end - off);
                        model.cut(off, end, &mut fresh);
                        model.mapping[off..end].copy_from_slice(&data);
                        m.write(a.offset(off as u64), &data);
                    }
                    5 => {
                        let v = rng.byte();
                        model.cut(off, end, &mut fresh);
                        model.mapping[off..end].fill(v);
                        m.fill(a.offset(off as u64), end - off, v);
                    }
                    6 | 7 => {
                        model.unplace(off, end);
                        m.unplace(a.offset(off as u64), end - off);
                    }
                    8 => {
                        let want = model.contents(off, end);
                        let at = a.offset(off as u64);
                        let mut out = vec![0xA5; end - off];
                        m.read(at, &mut out);
                        assert_eq!(out, want, "read, seed {seed} step {step}");
                        let mut out = b"hdr".to_vec();
                        m.read_into(at, end - off, &mut out);
                        assert_eq!(out[3..], want[..], "read_into, seed {seed} step {step}");
                        assert_eq!(m.read_bytes(at, end - off), want, "read_bytes");
                        let views = m.read_views(at, end - off);
                        assert_eq!(views.to_vec(), want, "read_views, seed {seed} step {step}");
                    }
                    _ => {
                        m.free(a);
                        addrs[k] = m.alloc(len);
                        *model = Model::new(len);
                    }
                }
                let (a, model) = (addrs[k], &models[k]);
                assert_eq!(
                    m.read_vec(a, len),
                    model.contents(0, len),
                    "seed {seed} step {step}"
                );
                assert_eq!(views_of(&m, a), model.views(), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn cpu_meter_and_compute() {
        let k = SimKernel::new();
        let c = Cluster::new();
        let h = c.add_host("node0");
        let h2 = h.clone();
        k.spawn("w", move |ctx| {
            h2.compute(ctx, us(30));
            ctx.advance(us(70)); // idle
        });
        let end = k.run();
        assert_eq!(h.cpu.busy(), us(30));
        assert!((h.cpu.utilization(end.since(SimTime::ZERO)) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn a_copy_charges_the_one_host_rate() {
        for n in [0, 1, 64 << 10] {
            let k = SimKernel::new();
            let h = Cluster::new().add_host("node0");
            let h2 = h.clone();
            k.spawn("w", move |ctx| h2.copy(ctx, n));
            let end = k.run();
            assert_eq!(
                end.since(SimTime::ZERO),
                HOST.copy(n),
                "clock after copying {n} bytes"
            );
            assert_eq!(
                h.cpu.busy(),
                HOST.copy(n),
                "CPU meter after copying {n} bytes"
            );
        }
    }

    #[test]
    fn cluster_host_lookup() {
        let c = Cluster::new();
        let a = c.add_host("a");
        let b = c.add_host("b");
        assert_eq!(c.len(), 2);
        assert_eq!(c.host(a.id).name(), "a");
        assert_eq!(c.host(b.id).name(), "b");
    }
}
