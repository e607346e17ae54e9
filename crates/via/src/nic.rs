//! The simulated VIA NIC (`VipOpenNic` and memory/ptag management).
//!
//! Each host opens one NIC. The NIC owns the two wire directions (transmit
//! and receive serial resources — the receive port is what saturates in the
//! many-clients-one-server experiments), the translation-and-protection
//! table, and the registration cost accounting. Registration charges *host
//! CPU* time: that cost, and caching it away, is one of the paper-family's
//! central measurements.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::{Labels, LazyByteMeter, LazyCounter};
use simnet::{ActorCtx, Host, Resource, SimDuration, VirtAddr};

use crate::cost::{ViaCost, NIC};
use crate::mem::{MemAttributes, MemError, MemHandle, ProtectionTag, RegistrationTable};

pub(crate) struct NicInner {
    pub host: Host,
    pub cost: ViaCost,
    pub tx_wire: Resource,
    pub rx_wire: Resource,
    pub table: RegistrationTable,
    next_ptag: AtomicU64,
    /// Registration activity (R-T2): the NIC's `via.mem.*{host}` series.
    pub registered: LazyByteMeter,
    pub deregistered: LazyCounter,
    pub reg_cpu: AtomicU64,
}

/// A point-in-time snapshot of the NIC's registration counters, read with
/// [`ViaNic::registration_stats`]. Named fields replace the old positional
/// tuple so call sites can't transpose the counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistrationStats {
    /// `VipRegisterMem` calls completed.
    pub registrations: u64,
    /// Total bytes registered across those calls.
    pub bytes: u64,
    /// `VipDeregisterMem` calls completed.
    pub deregistrations: u64,
}

/// Handle to a host's VIA NIC. Cloning shares the NIC.
#[derive(Clone)]
pub struct ViaNic {
    pub(crate) inner: Arc<NicInner>,
}

impl ViaNic {
    /// Open the NIC on `host` with the given cost model (`VipOpenNic`).
    pub fn open(host: Host, cost: ViaCost) -> ViaNic {
        let name = host.name().to_string();
        let labels = Labels::NONE.host(host.id.0 as u64);
        ViaNic {
            inner: Arc::new(NicInner {
                tx_wire: Resource::new(&format!("{name}.via.tx")),
                rx_wire: Resource::new(&format!("{name}.via.rx")),
                table: RegistrationTable::new(),
                next_ptag: AtomicU64::new(1),
                registered: LazyByteMeter::at("via.mem.registered", labels),
                deregistered: LazyCounter::at("via.mem.deregistered", labels),
                reg_cpu: AtomicU64::new(0),
                host,
                cost,
            }),
        }
    }

    /// The host this NIC is installed in.
    pub fn host(&self) -> &Host {
        &self.inner.host
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &ViaCost {
        &self.inner.cost
    }

    /// Allocate a fresh protection tag (`VipCreatePtag`).
    pub fn create_ptag(&self) -> ProtectionTag {
        ProtectionTag(crate::update(&self.inner.next_ptag, |v| v + 1))
    }

    /// Register memory with the NIC (`VipRegisterMem`).
    ///
    /// Charges the calling host the full pin-and-program cost — this is the
    /// expensive operation that DAFS's client-side registration cache exists
    /// to amortize.
    pub fn register_mem(
        &self,
        ctx: &ActorCtx,
        addr: VirtAddr,
        len: u64,
        attrs: MemAttributes,
    ) -> MemHandle {
        assert!(
            self.inner.host.mem.is_mapped(addr, len as usize),
            "registering unmapped memory [{addr} + {len})"
        );
        let cost = NIC.registration(len);
        self.inner.host.compute(ctx, cost);
        self.inner.registered.resolve(ctx.metrics()).record(len);
        crate::update(&self.inner.reg_cpu, |v| v + cost.as_nanos());
        let h = self.inner.table.register(addr, len, attrs);
        ctx.trace(
            "via",
            "mem.register",
            &[
                ("handle", obs::Value::U64(h.0)),
                ("len", obs::Value::U64(len)),
                ("cost_ns", obs::Value::U64(cost.as_nanos())),
            ],
        );
        h
    }

    /// Register memory that was pinned and programmed at boot time (server
    /// buffer pools). Costs nothing at call time — the model for a DAFS
    /// server that registers its buffer cache once at startup. Client code
    /// must use [`ViaNic::register_mem`], which charges the real cost.
    pub fn register_mem_prepinned(
        &self,
        addr: VirtAddr,
        len: u64,
        attrs: MemAttributes,
    ) -> MemHandle {
        assert!(
            self.inner.host.mem.is_mapped(addr, len as usize),
            "registering unmapped memory [{addr} + {len})"
        );
        self.inner.table.register(addr, len, attrs)
    }

    /// Deregister memory (`VipDeregisterMem`).
    pub fn deregister_mem(&self, ctx: &ActorCtx, h: MemHandle) -> Result<(), MemError> {
        let len = self.inner.table.deregister(h)?;
        self.inner.host.compute(ctx, NIC.dereg);
        self.inner.deregistered.resolve(ctx.metrics()).inc();
        crate::update(&self.inner.reg_cpu, |v| v + NIC.dereg.as_nanos());
        ctx.trace(
            "via",
            "mem.deregister",
            &[
                ("handle", obs::Value::U64(h.0)),
                ("len", obs::Value::U64(len)),
            ],
        );
        Ok(())
    }

    /// The NIC's translation-and-protection table (read access for tests
    /// and the remote-validation path).
    pub fn table(&self) -> &RegistrationTable {
        &self.inner.table
    }

    /// Snapshot of the NIC's registration counters: its `{host}` series,
    /// which every NIC opened on the host shares. Each field reads 0 until
    /// this NIC first bumps it.
    pub fn registration_stats(&self) -> RegistrationStats {
        RegistrationStats {
            registrations: self.inner.registered.ops(),
            bytes: self.inner.registered.bytes(),
            deregistrations: self.inner.deregistered.get(),
        }
    }

    /// Total host CPU consumed by registration/deregistration so far.
    pub fn registration_cpu(&self) -> SimDuration {
        SimDuration::from_nanos(self.inner.reg_cpu.load(Ordering::Relaxed))
    }

    /// Transmit-direction wire (diagnostics/utilization).
    pub fn tx_wire(&self) -> &Resource {
        &self.inner.tx_wire
    }

    /// Receive-direction wire (diagnostics/utilization).
    pub fn rx_wire(&self) -> &Resource {
        &self.inner.rx_wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Cluster, SimKernel, SimTime};

    fn setup() -> (SimKernel, ViaNic) {
        let k = SimKernel::new();
        let cluster = Cluster::new();
        let host = cluster.add_host("n0");
        let nic = ViaNic::open(host, ViaCost::default());
        (k, nic)
    }

    #[test]
    fn registration_charges_cpu_and_tracks_bytes() {
        let (k, nic) = setup();
        let n2 = nic.clone();
        k.spawn("app", move |ctx| {
            let buf = n2.host().mem.alloc(64 << 10);
            let tag = n2.create_ptag();
            let h = n2.register_mem(ctx, buf, 64 << 10, MemAttributes::local(tag));
            // 16 pages + base.
            let expect = NIC.registration(64 << 10);
            assert_eq!(ctx.now(), SimTime::ZERO + expect);
            n2.deregister_mem(ctx, h).unwrap();
        });
        k.run();
        let rs = nic.registration_stats();
        assert_eq!(
            (rs.registrations, rs.bytes, rs.deregistrations),
            (1, 64 << 10, 1)
        );
        assert!(nic.registration_cpu() > SimDuration::ZERO);
        assert_eq!(nic.host().cpu.busy(), nic.registration_cpu());
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn registering_wild_pointer_is_a_simulator_bug() {
        let (k, nic) = setup();
        k.spawn("app", move |ctx| {
            let tag = nic.create_ptag();
            nic.register_mem(ctx, VirtAddr(0xDEAD000), 16, MemAttributes::local(tag));
        });
        k.run();
    }

    #[test]
    fn ptags_are_unique() {
        let (_k, nic) = setup();
        let a = nic.create_ptag();
        let b = nic.create_ptag();
        assert_ne!(a, b);
    }
}
