//! R-F10 — Switched fabric at scale: incast and oversubscription sweeps
//! (new scenario).
//!
//! Not in the paper: the original testbed was a handful of hosts on a
//! point-to-point cLAN link. This experiment puts the striped DAFS
//! cluster behind the two-leaf dumbbell of [`Topology::dumbbell`] — every
//! server on a server leaf, every client on a client leaf, one trunk in
//! between — and sweeps 64–1024 clients against 4 and 16 servers at trunk
//! oversubscription 1:1 and 4:1.
//!
//! Expected shape: with ≥ 4 clients per server every configuration is
//! already saturated, so each column holds a flat plateau as the client
//! count scales 16×. At 1:1 the plateau sits at the aggregate server wire
//! rate (`servers × 110 MB/s` — the trunk is provisioned to match); at
//! 4:1 the trunk is the bottleneck and the plateau drops to a quarter.
//! That factor-of-four gap *is* the oversubscription knee, and the incast
//! bend shows up in the fabric metrics: the trunk port's queue depth and
//! total queued time grow with the client count while aggregate bandwidth
//! stays pinned.
//!
//! Assertions, checked on every full run:
//!
//! - each column is (weakly) monotone under scale-out — no cell collapses
//!   below 85% of its predecessor while clients double;
//! - at the top of the sweep, the 4:1 plateau is at most half (and at
//!   least an eighth) of the 1:1 plateau — the knee is real and bounded;
//! - the 1:1 plateau lands within 25% of `servers × 110 MB/s`;
//! - trunk queueing (virtual ns spent waiting at the trunk port) grows
//!   from the bottom of the sweep to the top — the incast bend;
//! - every byte read back is verified against the prefilled pattern.
//!
//! A follow-on table reports the per-port fabric counters ([`PortStats`])
//! for the trunk at the top of the sweep, plus one `Drop`-policy row: the
//! same incast with a shallow 8-frame queue and drops enabled sheds frames
//! (asserted non-zero), breaks sessions, and still completes with
//! byte-exact read-back through the reconnect/replay machinery.
//!
//! [`Topology::dumbbell`]: simnet::topo::Topology::dumbbell
//! [`PortStats`]: simnet::topo::PortStats

use dafs::DafsClientConfig;
use memfs::ROOT_ID;
use simnet::topo::{DumbbellSpec, QueuePolicy, Topology};
use simnet::{Bandwidth, SimTime};
use via::ViaCost;

use crate::report::{Cell, Table};
use crate::testbeds::{with_dafs_cluster, Dial};

/// Request size for every read.
const REQ: u64 = 128 << 10;
/// Bytes each client reads (4 requests).
const PER_CLIENT: u64 = 512 << 10;
/// Per-port queue capacity (frames) for the sweep.
const QUEUE: usize = 64;
/// Server wire rate in MB/s (the `ViaCost` default, restated for the
/// plateau assertions).
const WIRE_MB: f64 = 110.0;

/// The full-sweep client counts.
const CLIENTS: [usize; 5] = [64, 128, 256, 512, 1024];
/// The smoke-sweep client counts.
const SMOKE_CLIENTS: [usize; 2] = [4, 16];

/// `(servers, oversub)` columns of the sweep.
const CONFIGS: [(usize, u64); 4] = [(4, 1), (4, 4), (16, 1), (16, 4)];
const SMOKE_CONFIGS: [(usize, u64); 2] = [(2, 1), (2, 4)];

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 17) as u8).collect()
}

/// One sweep cell's result: aggregate bandwidth plus the trunk-port
/// fabric counters and run-wide bookkeeping.
struct CaseOut {
    agg: Cell,
    trunk_qdepth_max: u64,
    trunk_queued_ns: u64,
    trunk_drops: u64,
    reconnects: u64,
    sim_events: u64,
}

/// Run `clients` clients sharded over `servers` servers behind a dumbbell
/// with the trunk provisioned at `servers × wire / oversub`. Every client
/// holds one session (to server `i % servers`), reads [`PER_CLIENT`]
/// bytes in [`REQ`] chunks, and verifies each chunk byte-exact.
///
/// Aggregate bandwidth is total bytes over the virtual window from t = 0
/// to the *last* client's completion (not the max per-client span): that
/// denominator covers every byte moved, so the result is physically
/// bounded by the aggregate wire rate and the plateau assertions hold.
fn sweep_case(servers: usize, clients: usize, oversub: u64, policy: QueuePolicy) -> CaseOut {
    let via = ViaCost::default();
    let wire = via.wire_bw;
    let latency = via.wire_latency;
    let expect = pattern(PER_CLIENT as usize);
    let (spans, ran, _, topology) = with_dafs_cluster(
        servers,
        clients,
        via,
        DafsClientConfig::default(),
        None,
        Some(Box::new(move |cluster, sids| {
            Topology::dumbbell(
                cluster,
                sids,
                DumbbellSpec {
                    port_bw: wire,
                    trunk_bw: Bandwidth::bytes_per_sec(
                        (wire.as_bytes_per_sec() * servers as u64 / oversub).max(1),
                    ),
                    latency,
                    queue_capacity: if policy == QueuePolicy::Drop {
                        8
                    } else {
                        QUEUE
                    },
                    policy,
                },
            )
        })),
        Dial::Shard,
        |fss| {
            let data = pattern(PER_CLIENT as usize);
            for fs in fss {
                let f = fs.create(ROOT_ID, "stream").unwrap();
                fs.write(f.id, 0, &data).unwrap();
            }
        },
        move |ctx, _rank, cs, nic| {
            let c = &cs[0];
            let f = c.lookup(ctx, ROOT_ID, "stream").unwrap();
            let buf = nic.host().mem.alloc(REQ as usize);
            for off in (0..PER_CLIENT).step_by(REQ as usize) {
                let n = c.read(ctx, f.id, off, buf, REQ).unwrap();
                assert_eq!(n, REQ, "short fabric read at {off}");
                assert_eq!(
                    nic.host().mem.read_vec(buf, REQ as usize),
                    expect[off as usize..(off + REQ) as usize],
                    "corrupt read-back at {off} ({servers} servers, {clients} clients)"
                );
            }
            ctx.now().since(SimTime::ZERO).as_nanos()
        },
    );
    // The trunk is the inter-switch port on either leaf; reads flow
    // server→client, so the hot one lives on the server leaf.
    let (mut qmax, mut queued, mut drops) = (0u64, 0u64, 0u64);
    for p in topology.expect("built above").port_stats() {
        if p.port.starts_with("to_leaf") {
            qmax = qmax.max(p.qdepth_max);
            queued += p.queued_ns;
            drops += p.drops;
        }
    }
    let last = spans.iter().max().unwrap();
    CaseOut {
        agg: Cell::mbps(clients as u64 * PER_CLIENT, *last),
        trunk_qdepth_max: qmax,
        trunk_queued_ns: queued,
        trunk_drops: drops,
        reconnects: ran.snapshot().expect("dafs.reconnects").value(),
        sim_events: ran.run.events,
    }
}

/// Run the sweep over `client_counts` × `configs`. `strict` enables the
/// full-scale plateau/knee assertions (the smoke sweep keeps only the
/// ordering checks).
fn run_sweep(client_counts: &[usize], configs: &[(usize, u64)], strict: bool) -> Table {
    let mut t = Table::new(
        &format!(
            "R-F10: switched fabric — aggregate read bandwidth vs clients under oversubscription (MB/s, {}KiB requests)",
            REQ >> 10
        ),
        &std::iter::once(("clients".to_string(), 0))
            .chain(configs.iter().map(|(s, o)| (format!("s={s} o={o}:1"), 1)))
            .collect::<Vec<_>>(),
    );
    // cols[c][i]: CaseOut for configs[c] at client_counts[i].
    let mut cols: Vec<Vec<CaseOut>> = configs.iter().map(|_| Vec::new()).collect();
    // Wall-clock budget cells: the deepest incast (256 × s=16 o=4:1) and
    // the widest fan-out (1024 × s=4 o=1:1); CI gates the events/s of both.
    let mut wall: Vec<(String, u64, std::time::Duration)> = Vec::new();
    for &clients in client_counts {
        let mut row = vec![Cell::Int(clients as u64)];
        for (c, &(servers, oversub)) in configs.iter().enumerate() {
            let timed = strict
                && ((clients == 256 && (servers, oversub) == (16, 4))
                    || (clients == 1024 && (servers, oversub) == (4, 1)));
            let t0 = std::time::Instant::now();
            let out = sweep_case(servers, clients, oversub, QueuePolicy::Backpressure);
            if timed {
                wall.push((
                    format!("{clients}-client s={servers} o={oversub}:1 cell"),
                    out.sim_events,
                    t0.elapsed(),
                ));
            }
            assert_eq!(out.reconnects, 0, "backpressure must not break sessions");
            assert_eq!(out.trunk_drops, 0, "backpressure must not drop frames");
            row.push(out.agg.clone());
            cols[c].push(out);
        }
        t.row(row);
    }
    for (c, &(servers, oversub)) in configs.iter().enumerate() {
        let col = &cols[c];
        for w in col.windows(2) {
            let (a, b) = (w[0].agg.value(), w[1].agg.value());
            assert!(
                b >= a * 0.85,
                "s={servers} o={oversub}: aggregate collapsed under scale-out \
                 ({a:.1} → {b:.1} MB/s)"
            );
        }
        for out in col {
            assert!(
                out.trunk_qdepth_max <= QUEUE as u64,
                "trunk queue depth {} exceeded capacity {QUEUE}",
                out.trunk_qdepth_max
            );
        }
    }
    if strict {
        // Pair each 1:1 column with its 4:1 sibling at the top of the sweep.
        for (c, &(servers, oversub)) in configs.iter().enumerate() {
            if oversub != 1 {
                continue;
            }
            let flat = cols[c].last().unwrap().agg.value();
            let line = servers as f64 * WIRE_MB;
            assert!(
                flat >= line * 0.75 && flat <= line * 1.05,
                "s={servers} 1:1 plateau {flat:.1} MB/s should sit near {line:.0}"
            );
            let sib = configs.iter().position(|&(s, o)| s == servers && o == 4);
            if let Some(sc) = sib {
                let bent = cols[sc].last().unwrap().agg.value();
                assert!(
                    bent <= flat * 0.5 && bent >= flat / 8.0,
                    "s={servers}: 4:1 plateau {bent:.1} vs 1:1 {flat:.1} — \
                     knee out of range"
                );
                let (lo, hi) = (cols[sc].first().unwrap(), cols[sc].last().unwrap());
                assert!(
                    hi.trunk_queued_ns > lo.trunk_queued_ns,
                    "s={servers} o=4: trunk queueing should grow with incast \
                     ({} → {} ns)",
                    lo.trunk_queued_ns,
                    hi.trunk_queued_ns
                );
            }
        }
    }
    // Fabric-counter follow-on: the trunk port at the top of the sweep.
    let top = *client_counts.last().unwrap();
    let mut extra = Table::new(
        &format!("R-F10 fabric counters: trunk port at {top} clients"),
        &[
            ("config", 0),
            ("qdepth max", 0),
            ("queued ms", 1),
            ("drops", 0),
            ("reconnects", 0),
        ],
    );
    let counters = |label: String, out: &CaseOut| {
        [
            Cell::text(label),
            Cell::Int(out.trunk_qdepth_max),
            Cell::ms(out.trunk_queued_ns),
            Cell::Int(out.trunk_drops),
            Cell::Int(out.reconnects),
        ]
    };
    for (c, &(servers, oversub)) in configs.iter().enumerate() {
        let label = format!("s={servers} o={oversub}:1 backpressure");
        extra.row(counters(label, cols[c].last().unwrap()));
    }
    // One Drop-policy row: shallow queue, drops enabled, small scale so the
    // reconnect storm stays bounded. Sheds frames but still completes with
    // verified read-back.
    let (ds, dc, dov) = (2usize, 8usize, 4u64);
    let dropped = sweep_case(ds, dc, dov, QueuePolicy::Drop);
    assert!(
        dropped.trunk_drops > 0,
        "shallow drop-policy trunk must shed frames under 4:1 incast"
    );
    assert!(
        dropped.reconnects > 0,
        "fabric drops must surface as session breaks (and recover)"
    );
    let label = format!("s={ds} o={dov}:1 drop (q=8, {dc} clients)");
    extra.row(counters(label, &dropped));
    extra.note(
        "drop row: every shed frame broke a session; reconnect/replay still read back byte-exact",
    );
    t.push_extra(extra);
    t.note(
        "expect flat plateaus: 1:1 at servers x 110 MB/s (server wires), 4:1 at a quarter (trunk)",
    );
    t.note("incast bend: trunk queueing grows with clients while aggregate stays pinned; asserted");
    for (label, events, el) in wall {
        t.note(&format!(
            "wall-clock: {label} ran {events} sim events in {:.2}s ({:.0} events/s)",
            el.as_secs_f64(),
            events as f64 / el.as_secs_f64().max(1e-9)
        ));
    }
    t
}

/// Run R-F10 at full scale: 64–1024 clients × {4,16} servers × {1:1,4:1}.
pub fn run() -> Table {
    run_sweep(&CLIENTS, &CONFIGS, true)
}

/// The CI smoke sweep: 4 and 16 clients against 2 servers, both trunk
/// provisions, same table shape and ordering/conservation assertions.
pub fn run_smoke() -> Table {
    run_sweep(&SMOKE_CLIENTS, &SMOKE_CONFIGS, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bench tables through a switch are as reproducible as everything
    /// else: two identical sweeps serialize byte-identically, the runs
    /// behind them included, as `bench --json` writes them.
    #[test]
    fn smoke_sweep_is_byte_identical_across_runs() {
        let json = || {
            let (mut t, runs) = crate::testbeds::logged(run_smoke);
            t.runs = runs;
            t.to_json()
        };
        let (a, b) = (json(), json());
        assert_eq!(a, b, "switched bench table diverged between runs");
        assert!(a.contains("oversub"), "table lost its oversubscription id");
        // Four sweep cells and the drop-policy row, each one run.
        assert_eq!(a.matches(r#"{"end_ns":"#).count(), 5, "{a}");
    }
}
