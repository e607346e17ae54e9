//! R-F6 — Server saturation: aggregate DAFS bandwidth vs client count,
//! with single and dual server rails.
//!
//! Expected shape: aggregate read bandwidth climbs with clients and
//! plateaus at the server NIC wire rate (~110 MB/s); doubling the server
//! wire (a dual-rail configuration) doubles the plateau without any
//! software change — the server CPU is not the bottleneck for direct I/O.

use dafs::DafsClientConfig;
use memfs::ROOT_ID;
use simnet::Bandwidth;
use via::ViaCost;

use crate::report::{Cell, Table};
use crate::testbeds::{timed, with_dafs_cluster, Dial};

const PER_CLIENT: u64 = 8 << 20;

fn aggregate_read_mb_s(clients: usize, wire_mb: u64) -> Cell {
    let via = ViaCost {
        wire_bw: Bandwidth::mb_per_sec(wire_mb),
        ..ViaCost::default()
    };
    let (spans, ..) = with_dafs_cluster(
        1,
        clients,
        via,
        DafsClientConfig::default(),
        None,
        None,
        Dial::EveryServer,
        |fss| {
            let fs = &fss[0];
            let f = fs.create(ROOT_ID, "stream").unwrap();
            fs.write(f.id, 0, &vec![1u8; PER_CLIENT as usize]).unwrap();
        },
        |ctx, _, cs, nic| {
            let c = &cs[0];
            let f = c.lookup(ctx, ROOT_ID, "stream").unwrap();
            let buf = nic.host().mem.alloc(PER_CLIENT as usize);
            timed(ctx, || _ = c.read(ctx, f.id, 0, buf, PER_CLIENT).unwrap())
        },
    );
    let span = spans.into_iter().max().unwrap();
    Cell::mbps(clients as u64 * PER_CLIENT, span)
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
