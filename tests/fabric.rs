//! Property battery for the switched fabric (`simnet::topo`).
//!
//! Seeded randomized topologies and workloads — switch chains with random
//! attachment latencies, port rates, queue bounds, and frame schedules —
//! driven straight through [`Topology::deliver`], checking the
//! invariants every transport above the fabric relies on:
//!
//! - **per-flow FIFO**: frames sent in order on one `(src, dst)` flow
//!   arrive in order, on any topology;
//! - **no loss, no duplication** without a fault plan: under `Backpressure`
//!   every frame is delivered exactly once — each destination's host-facing
//!   port admits exactly the frames (and bytes) sent to it;
//! - **conservation across ports**: total admissions over all egress ports
//!   equal the sum of per-frame path lengths — nothing vanishes or is
//!   double-booked at intermediate hops;
//! - **bounded queues**: observed `qdepth_max` never exceeds the configured
//!   per-port capacity;
//! - under `Drop`, the accounting closes: `delivered + dropped == sent`,
//!   and dropped frames never reach the destination port.
//!
//! Uses the repo's own seeded [`Rng64`] (deterministic, no external
//! property-testing framework), ≥ 100 scenarios per run.

use std::sync::{Arc, Mutex};

use mpio_dafs::simnet::topo::{QueuePolicy, SwitchConfig, Topology, TopologyBuilder};
use mpio_dafs::simnet::units::{ns, us};
use mpio_dafs::simnet::{Bandwidth, Cluster, HostId, Rng64, SimKernel, SimTime};

#[derive(Clone, Copy, Debug)]
struct Frame {
    src: usize,
    dst: usize,
    bytes: u64,
    tx_start: SimTime,
}

struct Scenario {
    topo: Arc<Topology>,
    hosts: Vec<HostId>,
    /// Chain index of each host's switch.
    host_sw: Vec<usize>,
    capacity: usize,
    frames: Vec<Frame>,
}

/// Build a random switch chain with random attachments and a random
/// well-ordered frame schedule.
fn gen_scenario(rng: &mut Rng64, policy: QueuePolicy) -> Scenario {
    let cluster = Cluster::new();
    let switches = rng.range_usize(1, 4);
    let capacity = match policy {
        QueuePolicy::Backpressure => rng.range_usize(2, 9),
        QueuePolicy::Drop => rng.range_usize(1, 4),
    };
    let cfg = SwitchConfig {
        port_bw: Bandwidth::mb_per_sec(rng.range(50, 200)),
        queue_capacity: capacity,
        policy,
    };
    let mut b = TopologyBuilder::new(&cluster);
    let refs: Vec<_> = (0..switches)
        .map(|i| b.switch(&format!("sw{i}"), cfg))
        .collect();
    for w in refs.windows(2) {
        b.trunk(
            w[0],
            w[1],
            Bandwidth::mb_per_sec(rng.range(30, 150)),
            us(rng.range(1, 10)),
        );
    }
    let nhosts = rng.range_usize(2, 7);
    let mut hosts = Vec::new();
    let mut host_sw = Vec::new();
    for h in 0..nhosts {
        let sw = rng.range_usize(0, switches);
        let id = cluster.add_host(&format!("h{h}")).id;
        b.attach(id, refs[sw], us(rng.range(1, 5)));
        hosts.push(id);
        host_sw.push(sw);
    }
    let topo = Arc::new(b.build());

    // A well-ordered schedule: globally non-decreasing tx_start (hence
    // non-decreasing within every flow).
    let mut t = SimTime::ZERO;
    let mut frames = Vec::new();
    for _ in 0..rng.range_usize(30, 81) {
        t += ns(rng.below(100_000));
        let src = rng.range_usize(0, nhosts);
        let mut dst = rng.range_usize(0, nhosts);
        while dst == src {
            dst = rng.range_usize(0, nhosts);
        }
        let bytes = rng.range(1, 256 << 10);
        frames.push(Frame {
            src,
            dst,
            bytes,
            tx_start: t,
        });
    }
    Scenario {
        topo,
        hosts,
        host_sw,
        capacity,
        frames,
    }
}

/// Push every frame through `deliver` in schedule order from one actor.
/// Returns per-frame `Ok(first-bit arrival ns)` / `Err(())`.
fn run_scenario(sc: &Scenario) -> Vec<Result<u64, ()>> {
    let results: Arc<Mutex<Vec<Result<u64, ()>>>> = Arc::new(Mutex::new(Vec::new()));
    let kernel = SimKernel::new();
    let (topo, hosts, frames, out) = (
        sc.topo.clone(),
        sc.hosts.clone(),
        sc.frames.clone(),
        results.clone(),
    );
    kernel.spawn("driver", move |ctx| {
        let mut res = Vec::new();
        for f in &frames {
            res.push(
                topo.deliver(ctx, None, hosts[f.src], hosts[f.dst], f.bytes, f.tx_start)
                    .map(|at| at.as_nanos())
                    .map_err(|_| ()),
            );
        }
        *out.lock().unwrap() = res;
    });
    kernel.run();
    let out = results.lock().unwrap().clone();
    out
}

/// Shared invariant checks; returns (delivered, dropped) counts.
fn check_invariants(sc: &Scenario, results: &[Result<u64, ()>]) -> (u64, u64) {
    assert_eq!(results.len(), sc.frames.len());

    // Per-flow FIFO: arrival order matches send order on every flow.
    let mut last: std::collections::HashMap<(usize, usize), u64> = Default::default();
    for (f, r) in sc.frames.iter().zip(results) {
        if let Ok(at) = r {
            let prev = last.entry((f.src, f.dst)).or_insert(0);
            assert!(
                *at >= *prev,
                "flow h{}→h{} reordered: arrival {at} after {prev}",
                f.src,
                f.dst
            );
            *prev = *at;
        }
    }

    let stats = sc.topo.port_stats();
    let mut dropped = 0u64;
    for p in &stats {
        assert!(
            p.qdepth_max <= sc.capacity as u64,
            "{}.{}: queue depth {} exceeds capacity {}",
            p.switch,
            p.port,
            p.qdepth_max,
            sc.capacity
        );
        dropped += p.drops;
    }

    // Exactly-once at the destination: each host-facing port admits the
    // delivered frames/bytes for that destination, nothing more.
    for (h, &id) in sc.hosts.iter().enumerate() {
        let label = format!("to_h{}", id.0);
        let (mut pf, mut pb) = (0u64, 0u64);
        for p in stats.iter().filter(|p| p.port == label) {
            pf += p.frames;
            pb += p.bytes;
        }
        let (mut sf, mut sb) = (0u64, 0u64);
        for (f, r) in sc.frames.iter().zip(results) {
            if f.dst == h && r.is_ok() {
                sf += 1;
                sb += f.bytes;
            }
        }
        assert_eq!(pf, sf, "h{h}: delivered-frame count diverges at its port");
        assert_eq!(pb, sb, "h{h}: delivered-byte count diverges at its port");
    }

    (results.iter().filter(|r| r.is_ok()).count() as u64, dropped)
}

#[test]
fn backpressure_delivers_every_frame_exactly_once() {
    let mut rng = Rng64::new(0xFAB0_0001);
    for case in 0..60 {
        let sc = gen_scenario(&mut rng, QueuePolicy::Backpressure);
        let results = run_scenario(&sc);
        assert!(
            results.iter().all(|r| r.is_ok()),
            "case {case}: backpressure lost a frame with no fault plan"
        );
        let (delivered, dropped) = check_invariants(&sc, &results);
        assert_eq!(delivered, sc.frames.len() as u64, "case {case}");
        assert_eq!(dropped, 0, "case {case}: phantom drops under backpressure");

        // Full-path conservation: admissions across every egress port sum
        // to the per-frame chain path lengths (|Δswitch| trunk hops + the
        // destination's host port).
        let total: u64 = sc.topo.port_stats().iter().map(|p| p.frames).sum();
        let expect: u64 = sc
            .frames
            .iter()
            .map(|f| (sc.host_sw[f.src].abs_diff(sc.host_sw[f.dst]) + 1) as u64)
            .sum();
        assert_eq!(
            total, expect,
            "case {case}: frames vanished or were double-booked mid-path"
        );
    }
}

#[test]
fn drop_policy_accounting_closes() {
    let mut rng = Rng64::new(0xFAB0_0002);
    let mut total_drops = 0u64;
    for case in 0..60 {
        let sc = gen_scenario(&mut rng, QueuePolicy::Drop);
        let results = run_scenario(&sc);
        let (delivered, dropped) = check_invariants(&sc, &results);
        assert_eq!(
            delivered + dropped,
            sc.frames.len() as u64,
            "case {case}: delivered + dropped must equal sent"
        );
        assert_eq!(
            dropped,
            results.iter().filter(|r| r.is_err()).count() as u64,
            "case {case}: per-port drop counters disagree with deliver() errors"
        );
        total_drops += dropped;
    }
    assert!(
        total_drops > 0,
        "60 shallow-queue scenarios shed nothing — the generator lost its teeth"
    );
}

#[test]
fn identical_seeds_build_identical_fabrics() {
    // The generator itself is part of the battery's determinism story:
    // same seed, same topology, same schedule, same results and counters.
    let (mut r1, mut r2) = (Rng64::new(0xFAB0_0003), Rng64::new(0xFAB0_0003));
    for _ in 0..5 {
        let s1 = gen_scenario(&mut r1, QueuePolicy::Backpressure);
        let s2 = gen_scenario(&mut r2, QueuePolicy::Backpressure);
        let o1 = run_scenario(&s1);
        let o2 = run_scenario(&s2);
        assert_eq!(o1, o2, "same seed diverged");
        let p1: Vec<_> = s1
            .topo
            .port_stats()
            .iter()
            .map(|p| (p.switch.clone(), p.port.clone(), p.frames, p.bytes))
            .collect();
        let p2: Vec<_> = s2
            .topo
            .port_stats()
            .iter()
            .map(|p| (p.switch.clone(), p.port.clone(), p.frames, p.bytes))
            .collect();
        assert_eq!(p1, p2, "same seed, different port counters");
    }
}
