//! R-T2 — VIA memory-registration cost and the registration cache.
//!
//! Expected shape: registration cost grows ~linearly with buffer size
//! (pin plus translation-table update per page); with the cache enabled,
//! a repeated-buffer workload pays the cost once instead of per request.

use dafs::DafsClientConfig;
use memfs::ROOT_ID;
use simnet::Cluster;
use via::{MemAttributes, ViaCost, ViaFabric};

use crate::report::{Cell, Table};
use crate::testbeds::{with_client, with_dafs_client};

/// Registration + deregistration virtual time for one buffer of `len`.
fn reg_cycle(len: u64) -> (Cell, Cell) {
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(ViaCost::default());
    let nic = fabric.open_nic(cluster.add_host("h"));
    let (reg, dereg) = with_client("app", None, |_| {
        move |ctx| {
            let tag = nic.create_ptag();
            let buf = nic.host().mem.alloc(len as usize);
            let t0 = ctx.now();
            let h = nic.register_mem(ctx, buf, len, MemAttributes::local(tag));
            let t1 = ctx.now();
            nic.deregister_mem(ctx, h).unwrap();
            (t1.since(t0).as_nanos(), ctx.now().since(t1).as_nanos())
        }
    })
    .0;
    (Cell::us(reg), Cell::us(dereg))
}

/// Total client registration CPU for 50 repeated 1 MiB direct reads,
/// with/without the registration cache.
fn workload_reg_cpu_ms(use_cache: bool) -> (f64, u64) {
    const LEN: u64 = 1 << 20;
    let (regs, cpu) = with_dafs_client(
        ViaCost::default(),
        DafsClientConfig {
            use_regcache: use_cache,
            ..Default::default()
        },
        None,
        |fs| {
            let f = fs.create(ROOT_ID, "f").unwrap();
            fs.write(f.id, 0, &vec![1u8; LEN as usize]).unwrap();
        },
        move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let dst = nic.host().mem.alloc(LEN as usize);
            for _ in 0..50 {
                c.read(ctx, f.id, 0, dst, LEN).unwrap();
            }
            let regs = nic.registration_stats().registrations;
            (regs, nic.registration_cpu().as_nanos())
        },
    )
    .0;
    (cpu as f64 / 1e6, regs)
}

/// Run R-T2.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-T2: memory registration cost",
        &[("buffer", 0), ("register (us)", 1), ("deregister (us)", 1)],
    );
    for len in [4u64 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20] {
        let (r, d) = reg_cycle(len);
        t.row([Cell::Size(len), r, d]);
    }
    let (cached_ms, cached_regs) = workload_reg_cpu_ms(true);
    let (uncached_ms, uncached_regs) = workload_reg_cpu_ms(false);
    t.note(&format!(
        "50x 1MiB direct reads, registration CPU: cache ON = {cached_ms:.2} ms \
         ({cached_regs} registrations); cache OFF = {uncached_ms:.2} ms ({uncached_regs})"
    ));
    t.note("expect linear growth with pages; cache turns per-I/O cost into one-time cost");
    t
}
