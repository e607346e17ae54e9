//! Simulated hosts: CPU accounting and a byte-addressable memory arena.
//!
//! Bytes really move in this simulator — a DMA or a `memcpy` reads and
//! writes actual buffer contents — so end-to-end tests can verify file data
//! written through the whole MPI-IO → DAFS → VIA stack. [`HostMem`] provides
//! a per-host virtual address space backed by allocation chunks;
//! [`CpuMeter`] accumulates busy time for the host-overhead experiments.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::coro::Mapping;
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
            },
        );
        VirtAddr(base)
    }

    /// Free an allocation by its base address. Panics on a non-base address
    /// (simulator-bug detection, like a bad `free(3)`).
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

    fn with_alloc<R>(&self, addr: VirtAddr, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut st = self.state.lock();
        let (_, alloc) = st
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
        f(&mut alloc.data[off..off + len])
    }

    /// Copy bytes out of simulated memory.
    pub fn read(&self, addr: VirtAddr, out: &mut [u8]) {
        self.with_alloc(addr, out.len(), |m| out.copy_from_slice(m));
    }

    /// Append `len` bytes at `addr` to `out` — the one pass of a producer
    /// assembling a frame (nothing is zero-filled first).
    pub fn read_into(&self, addr: VirtAddr, len: usize, out: &mut Vec<u8>) {
        self.with_alloc(addr, len, |m| out.extend_from_slice(m));
    }

    /// Copy bytes out into a fresh vector.
    pub fn read_vec(&self, addr: VirtAddr, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        self.read_into(addr, len, &mut v);
        v
    }

    /// Copy bytes out into a pooled, refcounted frame. One copy out of the
    /// arena; everything downstream shares the frame by reference.
    pub fn read_bytes(&self, addr: VirtAddr, len: usize) -> crate::buf::Bytes {
        let mut frame = crate::buf::frame_pool().alloc(len);
        self.read_into(addr, len, &mut frame);
        frame.freeze()
    }

    /// Copy bytes into simulated memory.
    pub fn write(&self, addr: VirtAddr, data: &[u8]) {
        self.with_alloc(addr, data.len(), |m| m.copy_from_slice(data));
    }

    /// Fill a range with one byte value.
    pub fn fill(&self, addr: VirtAddr, len: usize, value: u8) {
        self.with_alloc(addr, len, |m| m.fill(value));
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

    /// Record `d` of CPU work (called by `Host::compute`).
    pub fn add(&self, d: SimDuration) {
        self.busy_ns.fetch_add(d.as_nanos(), Ordering::Relaxed);
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
    fn cluster_host_lookup() {
        let c = Cluster::new();
        let a = c.add_host("a");
        let b = c.add_host("b");
        assert_eq!(c.len(), 2);
        assert_eq!(c.host(a.id).name(), "a");
        assert_eq!(c.host(b.id).name(), "b");
    }
}
