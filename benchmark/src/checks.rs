//! Assertions the benchmark makes about its own numbers, so that each
//! workload provably loads its mechanism and bypasses the others, and the
//! ladder's rungs stack up and agree with the checked-in goldens.

use crate::json::Json;
use crate::layers::{Cell, Rung};
use crate::metrics::{ladder_sim_name, mb_per_s, per_workload_names};
use crate::results::{Check, WorkloadResult};

/// A family of per-layer metrics that belongs to one workload: it must
/// read 0 everywhere else, and `witness` must read above 0 at home.
struct Home {
    workload: &'static str,
    witness: &'static str,
    owns: fn(&str) -> bool,
}

const HOMES: [Home; 5] = [
    Home {
        workload: "reread_cached",
        witness: "dafs.cache.hit_ratio",
        owns: |m| m.starts_with("dafs.cache.") || m.starts_with("dafs.lease."),
    },
    Home {
        workload: "coll_interleaved",
        witness: "mpiio.twophase.exchange_ns",
        owns: |m| m.starts_with("mpiio.twophase."),
    },
    Home {
        workload: "fabric_incast",
        witness: "simnet.fabric.frames",
        owns: |m| m.starts_with("simnet.fabric."),
    },
    Home {
        workload: "lossy_replay",
        witness: "simnet.faults.dropped",
        owns: |m| {
            matches!(
                m,
                "simnet.faults.dropped"
                    | "via.conn_broken"
                    | "dafs.reconnects"
                    | "dafs.replay.hits"
                    | "dafs.direct_fallbacks"
                    | "adio.retries"
            )
        },
    },
    Home {
        workload: "nfs_baseline",
        witness: "tcp.packets_per_op",
        owns: |m| m.starts_with("tcp.") || m.starts_with("nfs."),
    },
];

/// Layers the NFS column must not touch at all.
fn dafs_side(metric: &str) -> bool {
    metric.starts_with("via.") || metric.starts_with("dafs.")
}

/// The "must read 0" cells of the per-layer table, the witnesses that must
/// not, and `op_fail_ratio` = 0 on the fault-free workloads.
pub fn isolation(workloads: &[WorkloadResult]) -> Vec<Check> {
    let mut checks = Vec::new();
    for w in workloads {
        let mut leaks = Vec::new();
        for metric in per_workload_names() {
            let home = HOMES.iter().find(|h| (h.owns)(metric));
            let foreign = home.is_some_and(|h| h.workload != w.name)
                || (w.name == "nfs_baseline" && dafs_side(metric));
            let value = w.layer(metric).unwrap_or(0.0);
            if foreign && value != 0.0 {
                leaks.push(format!("{metric}={value}"));
            }
        }
        checks.push(Check {
            name: format!("isolation.{}.bypasses_other_mechanisms", w.name),
            ok: leaks.is_empty(),
            detail: if leaks.is_empty() {
                "every foreign counter reads 0".to_string()
            } else {
                format!("must read 0: {}", leaks.join(", "))
            },
        });
        if let Some(h) = HOMES.iter().find(|h| h.workload == w.name) {
            let value = w.layer(h.witness).unwrap_or(0.0);
            checks.push(Check {
                name: format!("isolation.{}.exercises_its_mechanism", w.name),
                ok: value > 0.0,
                detail: format!("{}={value}", h.witness),
            });
        }
        if w.name != "lossy_replay" {
            checks.push(Check {
                name: format!("isolation.{}.no_failed_op", w.name),
                ok: w.failed == 0,
                detail: format!("{} of {} calls failed", w.failed, w.attempted),
            });
        }
        checks.push(Check {
            name: format!("verify.{}.bytes", w.name),
            ok: w.correct,
            detail: "every read and the stored image match the seeded pattern".to_string(),
        });
    }
    checks
}

/// R-F2's 128K row of the newest `BENCH_*.json` in `dir`:
/// `(file, DAFS rd, DAFS wr, NFS rd, NFS wr)` in MB/s.
pub fn golden_f2_128k(dir: &std::path::Path) -> Option<(String, [f64; 4])> {
    let mut files: Vec<(u32, std::path::PathBuf)> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| {
            let path = e.ok()?.path();
            let n = path
                .file_name()?
                .to_str()?
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((n, path))
        })
        .collect();
    files.sort();
    let (_, path) = files.pop()?;
    let text = std::fs::read_to_string(&path).ok()?;
    let table = text.lines().filter_map(|l| Json::parse(l).ok()).find(|t| {
        t.get("title")
            .and_then(Json::as_str)
            .is_some_and(|t| t.starts_with("R-F2:"))
    })?;
    let headers: Vec<&str> = table
        .get("headers")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let row = table
        .get("rows")?
        .as_arr()?
        .iter()
        .find(|r| r.as_arr().and_then(|r| r.first()).and_then(Json::as_str) == Some("128K"))?
        .as_arr()?;
    let cell = |header: &str| -> Option<f64> {
        row.get(headers.iter().position(|h| *h == header)?)?
            .as_str()?
            .parse()
            .ok()
    };
    Some((
        path.file_name()?.to_str()?.to_string(),
        [
            cell("DAFS rd")?,
            cell("DAFS wr")?,
            cell("NFS rd")?,
            cell("NFS wr")?,
        ],
    ))
}

/// Cost must not fall going up either chain, in any cell; and the `dafs`
/// and `nfs` 128 KiB rungs must reproduce R-F2's 128K row within 1 %.
/// `golden` is what [`golden_f2_128k`] found; without a golden file that
/// check is reported as skipped, not failed — the benchmark must outlive
/// the file.
pub fn ladder(layers: &[(String, f64)], golden: Option<(String, [f64; 4])>) -> Vec<Check> {
    let sim = |rung: Rung, cell: Cell| -> f64 {
        let name = ladder_sim_name(rung, cell);
        layers
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut checks = Vec::new();
    for chain in Rung::CHAINS {
        for cell in Cell::ALL {
            let costs: Vec<f64> = chain.iter().map(|&r| sim(r, cell)).collect();
            let names: Vec<&str> = chain.iter().map(|r| r.name()).collect();
            checks.push(Check {
                name: format!("ladder.monotone.{}.{}", names[0], cell.name()),
                ok: costs[0] > 0.0 && costs.windows(2).all(|w| w[0] <= w[1]),
                detail: format!("{} = {costs:?} ns", names.join(" <= ")),
            });
        }
    }
    let cells = [
        (Rung::Dafs, Cell::ALL[2]),
        (Rung::Dafs, Cell::ALL[3]),
        (Rung::Nfs, Cell::ALL[2]),
        (Rung::Nfs, Cell::ALL[3]),
    ];
    match golden {
        None => checks.push(Check {
            name: "ladder.golden.r_f2_128k".to_string(),
            ok: true,
            detail: "skipped: no BENCH_*.json with an R-F2 128K row beside the benchmark"
                .to_string(),
        }),
        Some((file, want)) => {
            for ((rung, cell), want) in cells.into_iter().zip(want) {
                let got = mb_per_s(cell.size, sim(rung, cell) as u64);
                checks.push(Check {
                    name: format!("ladder.golden.{}.{}", rung.name(), cell.name()),
                    ok: (got - want).abs() <= 0.01 * want,
                    detail: format!("{got:.2} MB/s against {want} MB/s in {file} (R-F2, 128K row)"),
                });
            }
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(name: &str, layer: &[(&str, f64)]) -> WorkloadResult {
        WorkloadResult {
            name: name.to_string(),
            attempted: 10,
            failed: 0,
            correct: true,
            samples: 10,
            end_to_end: Vec::new(),
            host_slowdown: Vec::new(),
            per_layer: layer.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn isolation_catches_a_leak_a_dead_mechanism_and_a_failed_op() {
        let clean = [
            workload("stream_large", &[("via.doorbells_per_op", 3.0)]),
            workload("reread_cached", &[("dafs.cache.hit_ratio", 0.6)]),
        ];
        assert!(isolation(&clean).iter().all(|c| c.ok));
        let leak = [workload(
            "stream_large",
            &[("dafs.cache.invalidations", 2.0)],
        )];
        assert!(isolation(&leak)
            .iter()
            .any(|c| !c.ok && c.detail.contains("dafs.cache.invalidations")));
        let dead = [workload("reread_cached", &[("dafs.cache.hit_ratio", 0.0)])];
        assert!(isolation(&dead)
            .iter()
            .any(|c| !c.ok && c.name.ends_with("exercises_its_mechanism")));
        let nfs = [workload(
            "nfs_baseline",
            &[("tcp.packets_per_op", 9.0), ("via.doorbells_per_op", 1.0)],
        )];
        assert!(isolation(&nfs)
            .iter()
            .any(|c| !c.ok && c.detail.contains("via.doorbells_per_op")));
        let mut failed = workload("smallop_mix", &[]);
        failed.failed = 1;
        assert!(isolation(&[failed.clone()])
            .iter()
            .any(|c| !c.ok && c.name.ends_with("no_failed_op")));
        failed.name = "lossy_replay".to_string();
        failed.per_layer = vec![("simnet.faults.dropped".to_string(), 4.0)];
        assert!(
            isolation(&[failed]).iter().all(|c| c.ok),
            "lossy_replay may fail ops"
        );
    }

    fn ladder_values(f: impl Fn(Rung, Cell) -> f64) -> Vec<(String, f64)> {
        Rung::ALL
            .iter()
            .flat_map(|&r| Cell::ALL.iter().map(move |&c| (r, c)))
            .map(|(r, c)| (ladder_sim_name(r, c), f(r, c)))
            .collect()
    }

    #[test]
    fn ladder_checks_order_and_goldens() {
        let rising = ladder_values(|r, _| {
            1000.0 * (1 + Rung::ALL.iter().position(|x| *x == r).unwrap()) as f64
        });
        assert!(ladder(&rising, None).iter().all(|c| c.ok));
        assert_eq!(ladder(&rising, None).len(), 9);
        let falling = ladder_values(|r, _| if r == Rung::AdioDafs { 10.0 } else { 1000.0 });
        assert!(ladder(&falling, None).iter().any(|c| !c.ok));
        // 131072 B in 1_226_000 ns is 106.9 MB/s.
        let exact = ladder_values(|r, c| match (r, c.write) {
            (Rung::Dafs, false) => 1_226_000.0,
            (Rung::Dafs, true) => 1_420_000.0,
            (Rung::Nfs, false) => 6_521_000.0,
            (Rung::Nfs, true) => 6_687_000.0,
            _ => 1.0,
        });
        let golden = Some(("BENCH_10.json".to_string(), [106.9, 92.3, 20.1, 19.6]));
        let checks = ladder(&exact, golden.clone());
        assert!(
            checks
                .iter()
                .filter(|c| c.name.contains("golden"))
                .all(|c| c.ok),
            "{checks:?}"
        );
        let off = ladder_values(|_, _| 2_000_000.0);
        assert!(ladder(&off, golden)
            .iter()
            .any(|c| c.name.contains("golden") && !c.ok));
    }

    #[test]
    fn golden_row_is_read_from_the_newest_file() {
        // Under the benchmark's own (ignored) out/ directory, not /tmp.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let table = |rd: &str| {
            format!(
                "{{\"title\":\"R-T1: x\",\"headers\":[],\"rows\":[]}}\n{{\"title\":\"R-F2: bw\",\"headers\":[\"request\",\"DAFS rd\",\"DAFS wr\",\"DAFS-inline rd\",\"NFS rd\",\"NFS wr\"],\"rows\":[[\"32K\",\"1\",\"1\",\"1\",\"1\",\"1\"],[\"128K\",\"{rd}\",\"92.3\",\"66.4\",\"20.1\",\"19.6\"]]}}\n"
            )
        };
        std::fs::write(dir.join("BENCH_9.json"), table("1.0")).unwrap();
        std::fs::write(dir.join("BENCH_10.json"), table("106.9")).unwrap();
        let (file, row) = golden_f2_128k(&dir).unwrap();
        assert_eq!(
            (file.as_str(), row),
            ("BENCH_10.json", [106.9, 92.3, 20.1, 19.6])
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(golden_f2_128k(&dir), None);
    }
}
