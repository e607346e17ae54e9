//! The metric tables — names, units, which way is better, and the bound an
//! end-to-end metric may worsen by — and the arithmetic that turns what a
//! run measured into them. `BENCHMARK.json` mirrors these tables; a test
//! holds the two together.
//!
//! `sim_*` metrics are virtual time and repeat exactly for a seed;
//! `host_*` and `setup_s` are the host's wall clock, calibrated (see
//! `proc::host_slowdown`).

use mpiio::DriverKind;

use crate::exec::Outcome;
use crate::layers::{Cell, Counters, Rung, MICRO_NAMES};
use crate::stats::nearest_rank;
use crate::workloads::Plan;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `old` the value `new` is worse (negative: better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return if new == old { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the old value by which the metric may worsen when runs of
    /// *different* seeds are compared, as the driver does
    /// (`BENCHMARK.json`). At least three times the widest quartile spread
    /// any workload showed over ten seeds (README.md has the table).
    pub bound: f64,
    /// The same for `compare` on two results of the *same* seed. Virtual
    /// time repeats exactly there, so it gets the issue's 0.5 %; the host
    /// clock is no steadier for a fixed seed and keeps its bound.
    pub same_seed_bound: f64,
    /// A worsening below this absolute amount never counts (`setup_s` is
    /// milliseconds on most workloads; a quarter of that is scheduler
    /// noise).
    pub floor: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    same_seed_bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        same_seed_bound,
        floor: 0.0,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        floor: 0.05,
        ..e2e("setup_s", "s", Better::Lower, 0.25, 0.25)
    },
    e2e("host_run_s", "s", Better::Lower, 0.25, 0.25),
    e2e("host_peak_rss_MiB", "MiB", Better::Lower, 0.25, 0.25),
    e2e("sim_wr_MBps", "MB/s", Better::Higher, 0.03, 0.005),
    e2e("sim_rd_MBps", "MB/s", Better::Higher, 0.03, 0.005),
    e2e("sim_op_p50_us", "us", Better::Lower, 0.01, 0.005),
    e2e("sim_op_p99_us", "us", Better::Lower, 0.05, 0.005),
    e2e(
        "sim_client_cpu_us_per_MiB",
        "us/MiB",
        Better::Lower,
        0.18,
        0.005,
    ),
];

/// Whether a metric is a time read off the host clock — end-to-end,
/// per-layer, ladder or micro — and so gets calibrated
/// (`proc::host_slowdown`).
pub fn is_host_time(name: &str) -> bool {
    name == "setup_s"
        || name == "host_run_s"
        || name.ends_with("_host_s")
        || name.contains("host_ns")
}

/// Whether an end-to-end metric is virtual time, which must read the same
/// in every repeat of a seed.
pub fn is_virtual_time(name: &str) -> bool {
    name.starts_with("sim_")
}

/// A per-layer metric: informational, no bound.
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Per-layer metrics every workload's traced run reports.
const PER_WORKLOAD: [(&str, &str, Better); 45] = [
    ("simnet.kernel.events", "count", Better::Lower),
    ("simnet.kernel.host_ns_per_event", "ns", Better::Lower),
    ("simnet.kernel.actors", "count", Better::Lower),
    ("simnet.buf.bytes_buffered", "B", Better::Lower),
    ("simnet.buf.copy_ratio", "ratio", Better::Lower),
    ("simnet.fabric.frames", "count", Better::Lower),
    ("simnet.fabric.queued_ns", "ns", Better::Lower),
    ("simnet.fabric.drops", "count", Better::Lower),
    ("simnet.faults.dropped", "count", Better::Lower),
    ("via.doorbells_per_op", "1/op", Better::Lower),
    ("via.completions_per_op", "1/op", Better::Lower),
    ("via.rdma.share", "ratio", Better::Higher),
    ("via.mem.registrations", "count", Better::Lower),
    ("via.conn_broken", "count", Better::Lower),
    ("tcp.packets_per_op", "1/op", Better::Lower),
    ("dafs.server.ops", "count", Better::Lower),
    ("dafs.server.wire_reqs_per_op", "1/op", Better::Lower),
    ("dafs.server.cpu_ns_per_op", "ns", Better::Lower),
    ("dafs.client.read_ns", "ns", Better::Lower),
    ("dafs.client.write_ns", "ns", Better::Lower),
    ("dafs.regcache.hit_ratio", "ratio", Better::Higher),
    ("dafs.list.segs_per_req", "1/req", Better::Higher),
    ("dafs.reconnects", "count", Better::Lower),
    ("dafs.replay.hits", "count", Better::Lower),
    ("dafs.direct_fallbacks", "count", Better::Lower),
    ("dafs.cache.hit_ratio", "ratio", Better::Higher),
    ("dafs.cache.attr_hit_ratio", "ratio", Better::Higher),
    (
        "dafs.cache.flush_pages_per_batch",
        "1/batch",
        Better::Higher,
    ),
    ("dafs.cache.invalidations", "count", Better::Lower),
    ("dafs.lease.recalls_sent", "count", Better::Lower),
    ("nfs.rpc_ns", "ns", Better::Lower),
    ("nfs.retrans", "count", Better::Lower),
    ("nfs.pagecache.hit_ratio", "ratio", Better::Higher),
    ("nfs.server.cpu_ns_per_op", "ns", Better::Lower),
    ("mpiio.call_ns", "ns", Better::Lower),
    ("mpiio.above_fs_ns", "ns", Better::Lower),
    ("mpiio.twophase.exchange_ns", "ns", Better::Lower),
    ("mpiio.twophase.io_ns", "ns", Better::Lower),
    ("mpiio.twophase.aggregation_ns", "ns", Better::Lower),
    ("mpiio.twophase.wait_ns", "ns", Better::Lower),
    ("mpiio.twophase.overlap_ns", "ns", Better::Higher),
    ("adio.retries", "count", Better::Lower),
    ("obs.trace_overhead_ratio", "ratio", Better::Lower),
    ("bench.fill_host_s", "s", Better::Lower),
    ("bench.verify_host_s", "s", Better::Lower),
];

/// The metric a traced run's parent adds: traced `host_run_s` over the
/// untraced median.
pub const TRACE_OVERHEAD: &str = "obs.trace_overhead_ratio";

pub fn ladder_sim_name(rung: Rung, cell: Cell) -> String {
    format!("ladder.{}.{}.sim_ns", rung.name(), cell.name())
}

pub fn ladder_host_name(rung: Rung, cell: Cell) -> String {
    format!("ladder.{}.{}.host_ns", rung.name(), cell.name())
}

/// All 107 per-layer metrics: 45 per workload, the ladder's 36 virtual and
/// 18 host cells (read cells only), and the 8 micro loops.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out: Vec<PerLayer> = PER_WORKLOAD
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    let ns = |name: String| PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
    };
    for rung in Rung::ALL {
        out.extend(Cell::ALL.iter().map(|&c| ns(ladder_sim_name(rung, c))));
    }
    for rung in Rung::ALL {
        out.extend(
            Cell::ALL
                .iter()
                .filter(|c| !c.write)
                .map(|&c| ns(ladder_host_name(rung, c))),
        );
    }
    out.extend(MICRO_NAMES.iter().map(|n| ns(n.to_string())));
    out
}

/// Names of the per-workload per-layer metrics (the first 45 of
/// [`per_layer`]).
pub fn per_workload_names() -> impl Iterator<Item = &'static str> {
    PER_WORKLOAD.iter().map(|m| m.0)
}

const MIB: f64 = (1u64 << 20) as f64;

/// MB/s (10⁶ bytes per second, as the goldens count) of `bytes` in `ns`.
pub fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        bytes as f64 * 1e3 / ns as f64
    }
}

/// The end-to-end metrics of one run, in [`END_TO_END`] order, host times
/// as the clock read them (the parent calibrates). `peak_rss_mib` is the
/// process's `VmHWM`.
pub fn end_to_end(o: &Outcome, plan: &Plan, peak_rss_mib: f64) -> Vec<(String, f64)> {
    let c = &o.collected;
    // Bytes over the summed virtual spans of the bandwidth-feeding phases
    // that moved such bytes; a mixed phase lends its one span to both.
    let bandwidth = |bytes_of: fn(&crate::exec::PhaseStat) -> u64| {
        let (mut bytes, mut ns) = (0u64, 0u64);
        for (stat, phase) in c.phases.iter().zip(&plan.phases) {
            if phase.feeds_bw && bytes_of(stat) > 0 {
                bytes += bytes_of(stat);
                ns += stat.span_ns();
            }
        }
        mb_per_s(bytes, ns)
    };
    let values = [
        c.start.host_ns as f64 / 1e9,
        (c.end.host_ns - c.start.host_ns) as f64 / 1e9,
        peak_rss_mib,
        bandwidth(|s| s.bytes_written),
        bandwidth(|s| s.bytes_read),
        nearest_rank(&c.latencies_ns, 50.0) as f64 / 1e3,
        nearest_rank(&c.latencies_ns, 99.0) as f64 / 1e3,
        c.client_cpu_ns as f64 / 1e3 / (c.bytes_moved as f64 / MIB),
    ];
    END_TO_END
        .iter()
        .map(|m| m.name.to_string())
        .zip(values)
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-workload per-layer metrics of one traced run, in
/// [`per_workload_names`] order except [`TRACE_OVERHEAD`], which only the
/// parent — holding the untraced repeats — can compute.
///
/// Counters are the registry's change between the start and the end
/// barrier, so set-up and prefill do not count; "per op" is per timed
/// MPI-IO call. Server CPU, kernel events and fabric port statistics exist
/// only for the whole run, and are reported as such. Host times are as
/// the clock read them; the parent calibrates.
pub fn per_workload(o: &Outcome, plan: &Plan) -> Vec<(String, f64)> {
    let c = &o.collected;
    let r = &o.report;
    let d = |name: &str| delta(&c.start.counters, &c.end.counters, name);
    let whole = |name: &str| r.snapshot.get(name).map_or(0, |e| e.value());
    let calls = plan.timed_calls() as u64;
    let dafs = matches!(r.backend, DriverKind::Dafs | DriverKind::DafsStriped);
    let nfs = r.backend == DriverKind::Nfs;
    let server_cpu_per_op = |on: bool| {
        if on {
            ratio(r.server_cpu.as_nanos(), r.server_ops)
        } else {
            0.0
        }
    };
    let fs_client_ns = d("dafs.read_ns") + d("dafs.write_ns") + d("nfs.rpc_ns");
    let buffered = c.end.bytes_buffered - c.start.bytes_buffered;
    // The calls themselves: the benchmark's op spans less the preparation
    // time it put inside them.
    let calls_ns = c.call_ns - c.prepare_ns;
    let value = |name: &str| -> f64 {
        match name {
            "simnet.kernel.events" => r.wall.sim_events as f64,
            "simnet.kernel.host_ns_per_event" => {
                ratio(r.wall.elapsed.as_nanos() as u64, r.wall.sim_events)
            }
            "simnet.kernel.actors" => whole("sim.actors.spawned") as f64,
            "simnet.buf.bytes_buffered" => buffered as f64,
            "simnet.buf.copy_ratio" => ratio(buffered, c.bytes_moved),
            "simnet.fabric.frames" => whole("fabric.frames") as f64,
            "simnet.fabric.queued_ns" => whole("fabric.queued_ns") as f64,
            "simnet.fabric.drops" => whole("fabric.drops") as f64,
            "simnet.faults.dropped" => d("sim.faults.dropped") as f64,
            "via.doorbells_per_op" => ratio(d("via.doorbells"), calls),
            "via.completions_per_op" => ratio(d("via.completions"), calls),
            "via.rdma.share" => ratio(
                d("via.rdma.bytes"),
                d("via.rdma.bytes") + d("via.send.bytes"),
            ),
            "via.mem.registrations" => d("via.mem.registered.ops") as f64,
            "via.conn_broken" => d("via.conn_broken") as f64,
            "tcp.packets_per_op" => ratio(d("tcp.packets"), calls),
            "dafs.server.ops" => {
                if dafs {
                    r.server_ops as f64
                } else {
                    0.0
                }
            }
            "dafs.server.wire_reqs_per_op" => ratio(d("dafs.ops"), calls),
            "dafs.server.cpu_ns_per_op" => server_cpu_per_op(dafs),
            "dafs.client.read_ns" => d("dafs.read_ns") as f64,
            "dafs.client.write_ns" => d("dafs.write_ns") as f64,
            "dafs.regcache.hit_ratio" => ratio(
                d("dafs.regcache.hits"),
                d("dafs.regcache.hits") + d("dafs.regcache.misses"),
            ),
            "dafs.list.segs_per_req" => ratio(d("dafs.list.segs"), d("dafs.list.reqs")),
            "dafs.cache.hit_ratio" => ratio(
                d("dafs.cache.hits"),
                d("dafs.cache.hits") + d("dafs.cache.misses"),
            ),
            "dafs.cache.attr_hit_ratio" => ratio(
                d("dafs.cache.attr_hits"),
                d("dafs.cache.attr_hits") + d("dafs.cache.attr_misses"),
            ),
            "dafs.cache.flush_pages_per_batch" => {
                ratio(d("dafs.cache.flush_pages"), d("dafs.cache.flush_batches"))
            }
            "nfs.pagecache.hit_ratio" => ratio(
                d("nfs.pagecache.hits"),
                d("nfs.pagecache.hits") + d("nfs.pagecache.misses"),
            ),
            "nfs.server.cpu_ns_per_op" => server_cpu_per_op(nfs),
            "mpiio.call_ns" => calls_ns as f64,
            // Blocking contiguous calls on one server only: a collective
            // call waits on other ranks' file I/O, which is not below it,
            // and the striped driver's requests carry no client span.
            "mpiio.above_fs_ns" => {
                if plan.interleaved || plan.servers > 1 {
                    0.0
                } else {
                    calls_ns.saturating_sub(fs_client_ns) as f64
                }
            }
            "bench.fill_host_s" => c.fill_host_ns as f64 / 1e9,
            "bench.verify_host_s" => c.verify_host_ns as f64 / 1e9,
            // Everything else is a registry counter under its own name.
            "dafs.reconnects"
            | "dafs.replay.hits"
            | "dafs.direct_fallbacks"
            | "dafs.cache.invalidations"
            | "dafs.lease.recalls_sent"
            | "nfs.rpc_ns"
            | "nfs.retrans"
            | "mpiio.twophase.exchange_ns"
            | "mpiio.twophase.io_ns"
            | "mpiio.twophase.aggregation_ns"
            | "mpiio.twophase.wait_ns"
            | "mpiio.twophase.overlap_ns"
            | "adio.retries" => d(name) as f64,
            other => unreachable!("per-layer metric {other} has no source"),
        }
    };
    per_workload_names()
        .filter(|n| *n != TRACE_OVERHEAD)
        .map(|n| (n.to_string(), value(n)))
        .collect()
}

fn delta(start: &Counters, end: &Counters, name: &str) -> u64 {
    let at = |c: &Counters| c.get(name).copied().unwrap_or(0);
    at(end).saturating_sub(at(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let layer = per_layer();
        assert_eq!(layer.len(), 107);
        assert!(layer.len() <= 128 && END_TO_END.len() <= 16);
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .chain(layer.iter().map(|m| (m.name.clone(), m.unit)))
        {
            assert!(name_ok(&name), "bad name {name}");
            assert!(unit_ok(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().all(|m| m.same_seed_bound <= m.bound));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn host_times_and_virtual_times_are_told_apart() {
        let host: Vec<String> = END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(per_layer().into_iter().map(|m| m.name))
            .filter(|n| is_host_time(n))
            .collect();
        assert_eq!(host.len(), 2 + 3 + 18 + 8, "{host:?}");
        assert!(
            host.iter().any(|n| n == "simnet.kernel.host_ns_per_event")
                && !is_host_time("host_peak_rss_MiB")
        );
        assert_eq!(
            END_TO_END
                .iter()
                .filter(|m| is_virtual_time(m.name))
                .count(),
            5
        );
        assert!(END_TO_END
            .iter()
            .all(|m| !(is_virtual_time(m.name) && is_host_time(m.name))));
    }

    #[test]
    fn ladder_has_36_virtual_and_18_host_cells() {
        let layer = per_layer();
        let count = |suffix: &str| {
            layer
                .iter()
                .filter(|m| m.name.starts_with("ladder.") && m.name.ends_with(suffix))
                .count()
        };
        assert_eq!(count(".sim_ns"), 36);
        assert_eq!(count(".host_ns"), 18);
        assert!(layer
            .iter()
            .any(|m| m.name == "ladder.adio_dafs.rd128k.host_ns"));
        assert!(!layer
            .iter()
            .any(|m| m.name == "ladder.adio_dafs.wr128k.host_ns"));
        assert_eq!(
            layer
                .iter()
                .filter(|m| m.name.starts_with("micro."))
                .count(),
            8
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(Better::Lower.worsening(10.0, 11.0), 0.1);
        assert_eq!(Better::Lower.worsening(10.0, 9.0), -0.1);
        assert_eq!(Better::Higher.worsening(10.0, 9.0), 0.1);
        assert_eq!(Better::Higher.worsening(0.0, 0.0), 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn mb_per_s_counts_decimal_megabytes() {
        assert_eq!(mb_per_s(131_072, 1_000_000), 131.072);
        assert_eq!(mb_per_s(1, 0), 0.0);
    }

    #[test]
    fn delta_is_end_minus_start() {
        let start = Counters::from([("a".to_string(), 3)]);
        let end = Counters::from([("a".to_string(), 10), ("b".to_string(), 4)]);
        assert_eq!(delta(&start, &end, "a"), 7);
        assert_eq!(delta(&start, &end, "b"), 4);
        assert_eq!(delta(&start, &end, "c"), 0);
    }
}
