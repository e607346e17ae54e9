//! R-F6 — Server saturation: aggregate DAFS bandwidth vs client count,
//! with single and dual server rails.
//!
//! Expected shape: aggregate read bandwidth climbs with clients and
//! plateaus at the server NIC wire rate (~110 MB/s); doubling the server
//! wire (a dual-rail configuration) doubles the plateau without any
//! software change — the server CPU is not the bottleneck for direct I/O.

use std::sync::Arc;

use dafs::{DafsClient, DafsClientConfig, DafsServerCost};
use memfs::{MemFs, ROOT_ID};
use simnet::{Bandwidth, Cluster, SimKernel};
use via::{ViaCost, ViaFabric};

use crate::report::{Cell, Table};
use crate::testbeds::{Probe, PORT};

const PER_CLIENT: u64 = 8 << 20;

fn aggregate_read_mb_s(clients: usize, wire_mb: u64) -> Cell {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let via = ViaCost {
        wire_bw: Bandwidth::mb_per_sec(wire_mb),
        ..ViaCost::default()
    };
    let fabric = ViaFabric::new(via);
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let fs = MemFs::new();
    let f = fs.create(ROOT_ID, "stream").unwrap();
    fs.write(f.id, 0, &vec![1u8; PER_CLIENT as usize]).unwrap();
    let server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        server_nic,
        fs,
        PORT,
        DafsServerCost::default(),
    );
    let sid = server.host.id;
    let span = Probe::new();
    let fabric = Arc::new(fabric);
    for i in 0..clients {
        let fabric = fabric.clone();
        let host = cluster.add_host(&format!("client{i}"));
        let span = span.clone();
        kernel.spawn(&format!("client{i}"), move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let c = DafsClient::connect(ctx, &fabric, &nic, sid, PORT, DafsClientConfig::default())
                .unwrap();
            let f = c.lookup(ctx, ROOT_ID, "stream").unwrap();
            let buf = nic.host().mem.alloc(PER_CLIENT as usize);
            let t0 = ctx.now();
            c.read(ctx, f.id, 0, buf, PER_CLIENT).unwrap();
            span.max(ctx.now().since(t0).as_nanos());
            c.disconnect(ctx);
        });
    }
    kernel.run();
    Cell::mbps(clients as u64 * PER_CLIENT, span.get())
}

/// Run R-F6.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-F6: server saturation — aggregate direct-read bandwidth (MB/s)",
        &[("clients", 0), ("1 rail (110)", 1), ("2 rails (220)", 1)],
    );
    for clients in [1usize, 2, 4, 8, 16, 32] {
        t.row([
            Cell::Int(clients as u64),
            aggregate_read_mb_s(clients, 110),
            aggregate_read_mb_s(clients, 220),
        ]);
    }
    t.note("expect a plateau at the server wire rate; doubling the rail doubles the plateau");
    t.note(
        "a cell's shortfall below its wire rate is time the server's transmit wire sat idle: tx busy % = 100 x MB/s / wire rate",
    );
    t
}
