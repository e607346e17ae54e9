//! What runs report and how two reports are set side by side: the line a
//! child prints for its parent, the `results.json` a full invocation
//! writes, and `compare`.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{is_host_time, is_virtual_time, Better, END_TO_END};
use crate::stats::{quartiles, Quartiles};

/// What one child run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    /// MPI-IO calls made inside the timed window.
    pub attempted: u64,
    /// Calls that returned `Err`.
    pub errors: u64,
    /// Calls that returned `Ok` with wrong bytes, count or size.
    pub mismatches: u64,
    /// Whether the image the servers hold matched the scripts.
    pub image_ok: bool,
    /// Latency samples behind `sim_op_p50_us` / `sim_op_p99_us`.
    pub samples: u64,
    pub end_to_end: Vec<(String, f64)>,
    /// What the host times were divided by: `proc::host_slowdown` around
    /// the run (1 as the child prints the line; see
    /// [`ChildResult::calibrate`]).
    pub host_slowdown: f64,
    /// Empty for an untraced run.
    pub per_layer: Vec<(String, f64)>,
}

fn pairs_to_json(pairs: &[(String, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

fn pairs_from_json(v: Option<&Json>, what: &str) -> Result<Vec<(String, f64)>, String> {
    v.and_then(Json::as_obj)
        .ok_or_else(|| format!("{what}: not an object"))?
        .iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("{what}.{k}: not a number"))
        })
        .collect()
}

fn numbers_to_json(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

fn numbers_from_json(v: Option<&Json>, what: &str) -> Result<Vec<f64>, String> {
    v.and_then(Json::as_arr)
        .and_then(|a| a.iter().map(Json::as_f64).collect())
        .ok_or_else(|| format!("{what}: missing or not numbers"))
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{key}: missing or not a number"))
}

impl ChildResult {
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// Outputs were correct: every checked byte matched.
    pub fn correct(&self) -> bool {
        self.image_ok && self.mismatches == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Divide every host time by `slowdown`, the host's slowdown around the
    /// run as the parent measured it.
    pub fn calibrate(&mut self, slowdown: f64) {
        for (name, value) in self.end_to_end.iter_mut().chain(&mut self.per_layer) {
            if is_host_time(name) {
                *value /= slowdown;
            }
        }
        self.host_slowdown = slowdown;
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("attempted", self.attempted)
            .set("errors", self.errors)
            .set("mismatches", self.mismatches)
            .set("image_ok", self.image_ok)
            .set("samples", self.samples)
            .set("end_to_end", pairs_to_json(&self.end_to_end))
            .set("host_slowdown", self.host_slowdown)
            .set("per_layer", pairs_to_json(&self.per_layer));
        o
    }

    pub fn from_json(v: &Json) -> Result<ChildResult, String> {
        Ok(ChildResult {
            attempted: num(v, "attempted")? as u64,
            errors: num(v, "errors")? as u64,
            mismatches: num(v, "mismatches")? as u64,
            image_ok: v
                .get("image_ok")
                .and_then(Json::as_bool)
                .ok_or("image_ok: missing")?,
            samples: num(v, "samples")? as u64,
            end_to_end: pairs_from_json(v.get("end_to_end"), "end_to_end")?,
            host_slowdown: num(v, "host_slowdown")?,
            per_layer: pairs_from_json(v.get("per_layer"), "per_layer")?,
        })
    }
}

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndResult {
    pub name: String,
    /// The metric in each untraced repeat. Virtual-time metrics read the
    /// same in all of them; host-clock ones are calibrated readings.
    pub repeats: Vec<f64>,
}

impl EndToEndResult {
    /// Median (the reported value) and quartiles over the repeats.
    pub fn quartiles(&self) -> Quartiles {
        quartiles(&self.repeats)
    }

    pub fn value(&self) -> f64 {
        self.quartiles().median
    }
}

/// One workload of an invocation: the untraced repeats, plus the traced
/// run's per-layer metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub samples: u64,
    pub end_to_end: Vec<EndToEndResult>,
    /// `proc::host_slowdown` of each untraced repeat.
    pub host_slowdown: Vec<f64>,
    pub per_layer: Vec<(String, f64)>,
}

impl WorkloadResult {
    /// Fold the untraced repeats of one workload (all of one seed).
    pub fn from_repeats(
        name: &str,
        repeats: &[ChildResult],
        per_layer: Vec<(String, f64)>,
    ) -> WorkloadResult {
        let first = &repeats[0];
        WorkloadResult {
            name: name.to_string(),
            attempted: first.attempted,
            failed: repeats.iter().map(ChildResult::failed).max().unwrap_or(0),
            correct: repeats.iter().all(ChildResult::correct),
            samples: first.samples,
            end_to_end: first
                .end_to_end
                .iter()
                .map(|(k, _)| EndToEndResult {
                    name: k.clone(),
                    repeats: repeats.iter().filter_map(|r| r.value(k)).collect(),
                })
                .collect(),
            host_slowdown: repeats.iter().map(|r| r.host_slowdown).collect(),
            per_layer,
        }
    }

    pub fn op_fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<&EndToEndResult> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    pub fn layer(&self, metric: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|(k, _)| k == metric)
            .map(|(_, v)| *v)
    }

    fn to_json(&self) -> Json {
        let mut e2e = Json::obj();
        for m in &self.end_to_end {
            let unit = END_TO_END
                .iter()
                .find(|d| d.name == m.name)
                .map_or("", |d| d.unit);
            let q = m.quartiles();
            let mut j = Json::obj();
            j.set("median", q.median)
                .set("q1", q.q1)
                .set("q3", q.q3)
                .set("n", q.n)
                .set("unit", unit)
                .set("repeats", numbers_to_json(&m.repeats));
            e2e.set(&m.name, j);
        }
        let mut o = Json::obj();
        o.set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("op_fail_ratio", self.op_fail_ratio())
            .set("correct", self.correct)
            .set("samples", self.samples)
            .set("end_to_end", e2e)
            .set("host_slowdown", numbers_to_json(&self.host_slowdown))
            .set("per_layer", pairs_to_json(&self.per_layer));
        o
    }

    fn from_json(name: &str, v: &Json) -> Result<WorkloadResult, String> {
        let e2e = v
            .get("end_to_end")
            .and_then(Json::as_obj)
            .ok_or("end_to_end: not an object")?;
        let end_to_end = e2e
            .iter()
            .map(|(k, m)| {
                Ok(EndToEndResult {
                    name: k.clone(),
                    repeats: numbers_from_json(m.get("repeats"), "repeats")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(WorkloadResult {
            name: name.to_string(),
            attempted: num(v, "attempted")? as u64,
            failed: num(v, "failed")? as u64,
            correct: v
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("correct: missing")?,
            samples: num(v, "samples")? as u64,
            end_to_end,
            host_slowdown: numbers_from_json(v.get("host_slowdown"), "host_slowdown")?,
            per_layer: pairs_from_json(v.get("per_layer"), "per_layer")?,
        })
    }
}

/// One assertion a full invocation made about its own numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything a full invocation measured: `results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub scale: String,
    /// Untraced repeats per workload (K).
    pub repeats: usize,
    /// CPUs the host offers; runs are pinned to one.
    pub cpus: usize,
    pub workloads: Vec<WorkloadResult>,
    /// The ladder cells and micro loops (not per workload).
    pub layers: Vec<(String, f64)>,
    pub checks: Vec<Check>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        let checks = self.checks.iter().map(|c| {
            let mut o = Json::obj();
            o.set("name", c.name.as_str())
                .set("ok", c.ok)
                .set("detail", c.detail.as_str());
            o
        });
        let mut o = Json::obj();
        o.set("benchmark", "mpio-benchmark")
            .set("seed", self.seed)
            .set("scale", self.scale.as_str())
            .set("repeats", self.repeats)
            .set("cpus", self.cpus)
            .set(
                "workloads",
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(|w| (w.name.clone(), w.to_json()))
                        .collect(),
                ),
            )
            .set("layers", pairs_to_json(&self.layers))
            .set("checks", checks.collect::<Vec<_>>());
        o
    }

    pub fn from_json(v: &Json) -> Result<Results, String> {
        let workloads = v
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("workloads: not an object")?
            .iter()
            .map(|(name, w)| WorkloadResult::from_json(name, w).map_err(|e| format!("{name}: {e}")))
            .collect::<Result<_, _>>()?;
        let checks = v
            .get("checks")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|c| {
                Ok(Check {
                    name: c
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("check name")?
                        .to_string(),
                    ok: c.get("ok").and_then(Json::as_bool).ok_or("check ok")?,
                    detail: c
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Results {
            seed: num(v, "seed")? as u64,
            scale: v
                .get("scale")
                .and_then(Json::as_str)
                .ok_or("scale: missing")?
                .to_string(),
            repeats: num(v, "repeats")? as usize,
            cpus: num(v, "cpus")? as usize,
            workloads,
            layers: pairs_from_json(v.get("layers"), "layers")?,
            checks,
        })
    }

    pub fn load(path: &str) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Results::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    }
}

/// Verdict of one workload × end-to-end metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The new median is worse than the old by more than the bound.
    Regressed,
    /// The spread between repeats is wider than the bound, so the row
    /// cannot say "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one row. `bound` is a share of the old median; `floor` an
/// absolute amount below which neither a worsening nor a spread counts.
pub fn judge(better: Better, bound: f64, floor: f64, old: &Quartiles, new: &Quartiles) -> Verdict {
    let worse_by = better.worsening(old.median, new.median);
    if worse_by > bound && (new.median - old.median).abs() > floor {
        return Verdict::Regressed;
    }
    let too_wide = |q: &Quartiles| q.spread() > bound && (q.q3 - q.q1) > floor;
    if too_wide(old) || too_wide(new) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Set two results side by side. Returns the report and whether anything
/// regressed (a higher `op_fail_ratio` counts).
pub fn compare(old: &Results, new: &Results) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let same_seed = old.seed == new.seed && old.scale == new.scale;
    let _ = writeln!(
        out,
        "old: seed {} scale {} K={} | new: seed {} scale {} K={} | bounds: {}",
        old.seed,
        old.scale,
        old.repeats,
        new.seed,
        new.scale,
        new.repeats,
        if same_seed {
            "same seed (virtual time must repeat)"
        } else {
            "different seeds (cross-seed bounds of BENCHMARK.json)"
        }
    );
    let _ = writeln!(
        out,
        "{:<17} {:<34} {:>30} {:>30} {:>16} {:>6}  verdict",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "new/old", "bound"
    );
    for w_old in &old.workloads {
        let Some(w_new) = new.workloads.iter().find(|w| w.name == w_old.name) else {
            let _ = writeln!(out, "{:<17} missing from the new results", w_old.name);
            regressed = true;
            continue;
        };
        for m in END_TO_END {
            let (Some(o), Some(n)) = (w_old.metric(m.name), w_new.metric(m.name)) else {
                continue;
            };
            let bound = if same_seed {
                m.same_seed_bound
            } else {
                m.bound
            };
            let (qo, qn) = (o.quartiles(), n.quartiles());
            let verdict = judge(m.better, bound, m.floor, &qo, &qn);
            regressed |= verdict == Verdict::Regressed;
            let cell = |q: &Quartiles| format!("{:.5} [{:.5}, {:.5}]", q.median, q.q1, q.q3);
            let _ = writeln!(
                out,
                "{:<17} {:<34} {:>30} {:>30} {:>16} {:>5.1}%  {}",
                w_old.name,
                format!("{} ({})", m.name, m.unit),
                cell(&qo),
                cell(&qn),
                format!("{:.4} of {:.4}", qn.median / qo.median, qo.median),
                bound * 100.0,
                verdict.name()
            );
        }
        let (fo, fn_) = (w_old.op_fail_ratio(), w_new.op_fail_ratio());
        let worse = fn_ > fo || (w_old.correct && !w_new.correct);
        regressed |= worse;
        let _ = writeln!(
            out,
            "{:<17} {:<34} {:>30} {:>30} {:>16} {:>6}  {}",
            w_old.name,
            "op_fail_ratio (ratio)",
            format!("{fo:.6} ({}/{})", w_old.failed, w_old.attempted),
            format!("{fn_:.6} ({}/{})", w_new.failed, w_new.attempted),
            "-",
            "0",
            if worse { "regressed" } else { "ok" }
        );
    }
    let _ = writeln!(out, "\nper-layer metrics (information only; no bound)");
    let layer_rows = old
        .workloads
        .iter()
        .flat_map(|w| {
            w.per_layer
                .iter()
                .map(move |(k, v)| (w.name.as_str(), k, *v))
        })
        .chain(old.layers.iter().map(|(k, v)| ("-", k, *v)));
    for (workload, metric, vo) in layer_rows {
        let vn = if workload == "-" {
            new.layers
                .iter()
                .find(|(k, _)| k == metric)
                .map(|(_, v)| *v)
        } else {
            new.workloads
                .iter()
                .find(|w| w.name == workload)
                .and_then(|w| w.layer(metric))
        };
        let change = match vn {
            Some(vn) if vo != 0.0 => format!("{:+.2}%", (vn - vo) / vo.abs() * 100.0),
            Some(vn) if vn == vo => "=".to_string(),
            Some(_) => "new".to_string(),
            None => "gone".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<17} {:<44} {:>18} {:>18} {:>10}",
            workload,
            metric,
            format!("{vo:.4}"),
            vn.map_or("-".to_string(), |v| format!("{v:.4}")),
            change
        );
    }
    (out, regressed)
}

/// The simulator is deterministic: every virtual-time metric and every
/// count must be identical across the repeats of one seed. A mismatch is a
/// bug in the program or the benchmark, never noise.
pub fn check_determinism(workload: &str, repeats: &[ChildResult]) -> Result<(), String> {
    let first = &repeats[0];
    for (i, r) in repeats.iter().enumerate().skip(1) {
        let counts = |c: &ChildResult| (c.attempted, c.errors, c.mismatches, c.samples, c.image_ok);
        if counts(r) != counts(first) {
            return Err(format!(
                "{workload}: repeat {i} counted {:?}, repeat 0 counted {:?}",
                counts(r),
                counts(first)
            ));
        }
        for (name, v0) in first.end_to_end.iter().filter(|(k, _)| is_virtual_time(k)) {
            let vi = r.value(name);
            if vi != Some(*v0) {
                return Err(format!(
                    "{workload}: {name} read {v0} in repeat 0 and {vi:?} in repeat {i}; virtual time must repeat exactly"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(host_run: f64, p50: f64) -> ChildResult {
        ChildResult {
            attempted: 100,
            errors: 0,
            mismatches: 0,
            image_ok: true,
            samples: 96,
            end_to_end: vec![
                ("setup_s".into(), 0.02),
                ("host_run_s".into(), host_run),
                ("sim_op_p50_us".into(), p50),
            ],
            host_slowdown: 1.25,
            per_layer: vec![("via.doorbells_per_op".into(), 2.5)],
        }
    }

    fn results(host_runs: &[f64], p50: f64) -> Results {
        let repeats: Vec<ChildResult> = host_runs.iter().map(|&h| child(h, p50)).collect();
        Results {
            seed: 1,
            scale: "full".into(),
            repeats: repeats.len(),
            cpus: 2,
            workloads: vec![WorkloadResult::from_repeats(
                "w",
                &repeats,
                repeats[0].per_layer.clone(),
            )],
            layers: vec![("ladder.via.rd4k.sim_ns".into(), 12345.0)],
            checks: vec![Check {
                name: "c".into(),
                ok: true,
                detail: "d \"quoted\"".into(),
            }],
        }
    }

    #[test]
    fn child_line_round_trips() {
        let c = child(3.25, 101.5);
        let back = ChildResult::from_json(&Json::parse(&c.to_json().to_line()).unwrap()).unwrap();
        assert_eq!(back, c);
        assert!(ChildResult::from_json(&Json::parse("{\"attempted\":1}").unwrap()).is_err());
    }

    #[test]
    fn calibration_divides_host_times_only() {
        let mut c = child(3.0, 101.5);
        c.host_slowdown = 1.0;
        c.per_layer
            .push(("simnet.kernel.host_ns_per_event".into(), 6000.0));
        c.calibrate(1.5);
        assert_eq!(c.value("host_run_s"), Some(2.0));
        assert_eq!(c.value("simnet.kernel.host_ns_per_event"), Some(4000.0));
        assert_eq!(c.value("sim_op_p50_us"), Some(101.5));
        assert_eq!(c.value("via.doorbells_per_op"), Some(2.5));
        assert_eq!(c.host_slowdown, 1.5);
    }

    #[test]
    fn repeats_fold_to_their_median() {
        let w = WorkloadResult::from_repeats(
            "w",
            &[child(3.0, 1.0), child(9.0, 1.0), child(3.2, 1.0)],
            Vec::new(),
        );
        let run = w.metric("host_run_s").unwrap();
        assert_eq!(run.repeats, [3.0, 9.0, 3.2]);
        assert_eq!(
            run.value(),
            3.2,
            "one disturbed repeat does not move the median"
        );
        assert_eq!(w.metric("sim_op_p50_us").unwrap().value(), 1.0);
        assert_eq!(w.host_slowdown, [1.25; 3]);
    }

    #[test]
    fn results_json_round_trips() {
        let r = results(&[3.0, 3.1, 2.9], 101.5);
        let text = r.to_json().to_pretty();
        assert_eq!(Results::from_json(&Json::parse(&text).unwrap()).unwrap(), r);
        assert!(text.contains("\"op_fail_ratio\": 0"));
        assert!(text.contains("\"median\": 3"));
    }

    #[test]
    fn judge_tells_ok_regressed_and_unresolved_apart() {
        let q = |v: &[f64]| quartiles(v);
        let steady = q(&[10.0, 10.1, 9.9]);
        assert_eq!(
            judge(Better::Lower, 0.1, 0.0, &steady, &q(&[10.5, 10.4, 10.6])),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 0.0, &steady, &q(&[11.5, 11.4, 11.6])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.1, 0.0, &steady, &q(&[8.5, 8.4, 8.6])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 0.0, &steady, &q(&[8.0, 10.0, 12.0])),
            Verdict::Unresolved
        );
        // Below the floor nothing counts: 0.02 s -> 0.04 s of set-up.
        let (a, b) = (q(&[0.02, 0.021, 0.019]), q(&[0.04, 0.041, 0.039]));
        assert_eq!(judge(Better::Lower, 0.25, 0.05, &a, &b), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.25, 0.0, &a, &b), Verdict::Regressed);
    }

    #[test]
    fn compare_flags_a_slower_run_and_a_moved_virtual_time() {
        let base = results(&[3.0, 3.1, 2.9], 101.5);
        let (report, bad) = compare(&base, &base);
        assert!(!bad, "{report}");
        assert!(report.contains("host_run_s") && report.contains("via.doorbells_per_op"));
        assert!(
            compare(&base, &results(&[4.1, 4.2, 4.0], 101.5)).1,
            "a third slower must regress"
        );
        assert!(
            !compare(&base, &results(&[3.0, 3.1, 9.0], 101.5)).1,
            "one disturbed repeat must not"
        );
        assert!(
            compare(&base, &results(&[3.0, 3.1, 2.9], 102.5)).1,
            "1 % of virtual time at the same seed must regress"
        );
        let mut failing = base.clone();
        failing.workloads[0].failed = 1;
        assert!(
            compare(&base, &failing).1,
            "a higher op_fail_ratio must regress"
        );
    }

    #[test]
    fn determinism_check_fails_loudly_on_virtual_time_only() {
        assert!(check_determinism("w", &[child(3.0, 101.5), child(3.3, 101.5)]).is_ok());
        let err = check_determinism("w", &[child(3.0, 101.5), child(3.0, 101.6)]).unwrap_err();
        assert!(err.contains("sim_op_p50_us"), "{err}");
        let mut odd = child(3.0, 101.5);
        odd.attempted = 99;
        assert!(check_determinism("w", &[child(3.0, 101.5), odd]).is_err());
    }
}
