//! The repo benchmark. `benchmark/run.sh` builds this binary and passes its
//! arguments through; README.md says what is measured and why.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one result line (BENCHMARK.json's command)
//! run.sh [--seed N] [--repeats K] [--smoke]              every workload, ladder, micro loops, checks
//! run.sh compare OLD.json NEW.json                       two results side by side
//! run.sh spec                                            print BENCHMARK.json from the tables in the code
//! ```
//!
//! Every measurement runs in a fresh child of this binary pinned to one
//! CPU (`child`, `child-layers`); the parent only launches, folds and
//! prints.

mod checks;
mod exec;
mod json;
mod layers;
mod metrics;
mod proc;
mod results;
mod script;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use json::Json;
use layers::{Cell, Rung};
use metrics::{END_TO_END, TRACE_OVERHEAD};
use results::{ChildResult, Results, WorkloadResult};
use workloads::{Scale, Workload};

/// Where a run leaves its files, relative to the repo root (run.sh's
/// working directory): `results.json` and the spans of traced runs.
const OUT_DIR: &str = "benchmark/out";
/// The seed a full invocation uses unless told otherwise.
const DEFAULT_SEED: u64 = 20020415;
/// Untraced repeats per workload of a full invocation (K).
const DEFAULT_REPEATS: usize = 5;
/// `BENCHMARK.json`'s `run_seconds`: what `--seconds` is in the driver's
/// runs. Sized so that every workload gets [`MIN_REPEATS`] repeats or a
/// few more on a quiet host, and so that all the driver's runs fit its cap
/// even when a noisy neighbour doubles every run (README.md has the sums).
const RUN_SECONDS: u64 = 10;
/// `--seconds` buys at least this many repeats, so that there is a median
/// however slow a run is ...
const MIN_REPEATS: usize = 3;
/// ... and at most this many, however fast.
const MAX_REPEATS: usize = 12;

fn main() {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child(origin, &args[1..]),
        Some("child-layers") => child_layers(),
        Some("compare") => compare(&args[1..]),
        Some("spec") => {
            print!("{}", spec().to_pretty());
            Ok(0)
        }
        _ if args.iter().any(|a| a == "--workload") => driver(&args),
        _ => full(&args),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("mpio-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// The value after `--name`, if the flag is there.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        None => default.ok_or_else(|| format!("{name} is required")),
    }
}

/// `--seed`: a number, or anything else, hashed (FNV-1a) to one — whatever
/// the caller hands over is a seed.
fn seed_arg(args: &[String]) -> u64 {
    match flag(args, "--seed") {
        None => DEFAULT_SEED,
        Some(text) => text.parse().unwrap_or_else(|_| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        }),
    }
}

fn workload_arg(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

// --- children -----------------------------------------------------------------

fn pin() {
    if proc::pin_to_one_cpu().is_none() {
        eprintln!("mpio-benchmark: cannot pin to one CPU here; host times will be noisier");
    }
}

/// One run of one workload in this (fresh) process; prints a
/// [`ChildResult`] line.
fn child(origin: Instant, args: &[String]) -> Result<i32, String> {
    let w = workload_arg(args)?;
    let seed: u64 = parsed(args, "--seed", None)?;
    let scale = Scale::from_name(flag(args, "--scale").unwrap_or("full"))
        .ok_or("--scale: full or smoke")?;
    let traced = flag(args, "--trace") == Some("1");
    pin();
    let t0 = Instant::now();
    let plan = Arc::new(workloads::plan(w, seed, scale));
    let script_ns = t0.elapsed().as_nanos() as u64;
    let tb = workloads::testbed(w, seed);
    let mut outcome = exec::run(tb, plan.clone(), seed, traced, origin);
    outcome.collected.fill_host_ns += script_ns;
    let c = &outcome.collected;
    if let Some(path) = flag(args, "--spans") {
        spans::write_jsonl(Path::new(path), w.name(), &c.spans)
            .map_err(|e| format!("{path}: {e}"))?;
        print_phase_summary(w, &plan, &c.spans);
    }
    let rss = proc::peak_rss_mib().unwrap_or(0.0);
    let result = ChildResult {
        attempted: c.attempted,
        errors: c.errors,
        mismatches: c.mismatches,
        image_ok: outcome.image_ok,
        samples: c.latencies_ns.len() as u64,
        end_to_end: metrics::end_to_end(&outcome, &plan, rss),
        host_slowdown: 1.0,
        per_layer: if traced {
            metrics::per_workload(&outcome, &plan)
        } else {
            Vec::new()
        },
    };
    println!("{}", result.to_json().to_line());
    Ok(0)
}

/// Where each phase's virtual time went, summed over ranks: in the calls,
/// or in the phase span's self time (the sync and barrier wait at its end).
fn print_phase_summary(w: Workload, plan: &workloads::Plan, spans: &[spans::Span]) {
    let self_ns = spans::self_times_ns(spans);
    for phase in &plan.phases {
        let of_phase = spans.iter().filter(|s| s.parent == 0 && s.op == phase.name);
        let (total, waiting) = of_phase.fold((0, 0), |(t, s), span| {
            (t + span.sim_ns(), s + self_ns[&span.id])
        });
        eprintln!(
            "{} phase {}: {:.3} ms of rank time, {:.3} ms in calls, {:.3} ms in sync + barrier",
            w.name(),
            phase.name,
            total as f64 / 1e6,
            (total - waiting) as f64 / 1e6,
            waiting as f64 / 1e6
        );
    }
}

/// The ladder and the micro loops in this (fresh, pinned) process; prints
/// one object of name → value.
fn child_layers() -> Result<i32, String> {
    pin();
    let mut out = Json::obj();
    for rung in Rung::ALL {
        for cell in Cell::ALL {
            let cost = layers::ladder_cell(rung, cell);
            out.set(&metrics::ladder_sim_name(rung, cell), cost.sim_ns);
            if !cell.write {
                out.set(&metrics::ladder_host_name(rung, cell), cost.host_ns);
            }
        }
    }
    for (name, value) in layers::MICRO_NAMES.iter().zip(layers::micro_all()) {
        out.set(name, value);
    }
    println!("{}", out.to_line());
    Ok(0)
}

/// The host clock's calibration, read in the parent between children. The
/// reference routine runs here, pinned to the CPU the children pin
/// themselves to, and not inside them: there its thread would change how
/// the allocator spreads the program's own threads over arenas (it added
/// 70 MiB to `lossy_replay`'s peak). The reading after one child is the
/// reading before the next, so K children cost K + 1 reference runs.
struct Calibrator {
    last: f64,
}

impl Calibrator {
    /// Pins the parent, then takes the first reading.
    fn new() -> Calibrator {
        pin();
        Calibrator {
            last: proc::host_slowdown(),
        }
    }

    /// Run a measuring child: its output line, and the host's slowdown
    /// while it ran (the mean of the readings around it).
    fn child(&mut self, args: &[String], env: &[(&str, String)]) -> Result<(String, f64), String> {
        let before = self.last;
        let line = proc::run_child(args, env)?;
        self.last = proc::host_slowdown();
        Ok((line, (before + self.last) / 2.0))
    }
}

fn run_workload_child(
    cal: &mut Calibrator,
    w: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
) -> Result<ChildResult, String> {
    let mut args: Vec<String> = [
        "child",
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--scale",
        scale.name(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut env = Vec::new();
    // A traced run also turns the program's own event tracer on, so that
    // its cost is part of `obs.trace_overhead_ratio`. That trace runs to
    // hundreds of megabytes, so it goes once the run is over; what stays is
    // the benchmark's own spans.
    let trace = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", w.name()));
    if traced {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        // The tracer appends; start it from nothing.
        let _ = std::fs::remove_file(&trace);
        env.push(("MPIO_DAFS_TRACE", trace.to_string_lossy().into_owned()));
        let spans = Path::new(OUT_DIR).join(format!("{}.spans.jsonl", w.name()));
        args.extend(["--trace", "1", "--spans"].map(String::from));
        args.push(spans.to_string_lossy().into_owned());
    }
    let outcome = cal.child(&args, &env);
    if traced {
        let _ = std::fs::remove_file(&trace);
    }
    let (line, slowdown) = outcome?;
    let mut result = ChildResult::from_json(&Json::parse(&line)?)
        .map_err(|e| format!("{}: child result: {e}", w.name()))?;
    result.calibrate(slowdown);
    Ok(result)
}

fn run_layers_child(cal: &mut Calibrator) -> Result<Vec<(String, f64)>, String> {
    let (line, slowdown) = cal.child(&["child-layers".to_string()], &[])?;
    Json::parse(&line)?
        .as_obj()
        .ok_or("child-layers: not an object")?
        .iter()
        .map(|(k, v)| {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("child-layers: {k} is not a number"))?;
            Ok((
                k.clone(),
                if metrics::is_host_time(k) {
                    n / slowdown
                } else {
                    n
                },
            ))
        })
        .collect()
}

/// One workload: untraced repeats while `keep_going` says so, and a traced
/// run if asked. Checks that virtual time repeated exactly.
fn measure(
    cal: &mut Calibrator,
    w: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
    mut keep_going: impl FnMut(&[ChildResult]) -> bool,
) -> Result<WorkloadResult, String> {
    let mut repeats: Vec<ChildResult> = Vec::new();
    while keep_going(&repeats) {
        repeats.push(run_workload_child(cal, w, seed, scale, false)?);
    }
    let mut per_layer = Vec::new();
    let mut all = repeats.clone();
    if traced {
        let t = run_workload_child(cal, w, seed, scale, true)?;
        // Tracing overhead: the traced window over the untraced median.
        let untraced = WorkloadResult::from_repeats(w.name(), &repeats, Vec::new());
        let overhead = t.value("host_run_s").unwrap_or(0.0)
            / untraced
                .metric("host_run_s")
                .map_or(f64::NAN, |m| m.value());
        per_layer = metrics::per_workload_names()
            .map(|name| {
                let v = if name == TRACE_OVERHEAD {
                    Some(overhead)
                } else {
                    t.value(name)
                };
                v.map(|v| (name.to_string(), v))
                    .ok_or_else(|| format!("{}: {name} was not measured", w.name()))
            })
            .collect::<Result<_, _>>()?;
        all.push(ChildResult {
            per_layer: Vec::new(),
            ..t
        });
    }
    results::check_determinism(w.name(), &all)?;
    // The traced run counts for correctness, not for the host clock.
    let mut folded = WorkloadResult::from_repeats(w.name(), &repeats, per_layer);
    folded.correct = all.iter().all(ChildResult::correct);
    folded.failed = all.iter().map(ChildResult::failed).max().unwrap_or(0);
    Ok(folded)
}

// --- the driver's contract -------------------------------------------------------

/// `--workload W --seed N --seconds S --trace T`: measure one workload and
/// print, as the last line, `{"correct", "attempted", "failed", "metrics"}`
/// with the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
fn driver(args: &[String]) -> Result<i32, String> {
    let w = workload_arg(args)?;
    let seed = seed_arg(args);
    let seconds: f64 = parsed(args, "--seconds", None)?;
    let traced = parsed::<u8>(args, "--trace", Some(0))? == 1;
    let mut cal = Calibrator::new();

    // Each repeat is a fresh pinned child running the workload's frozen
    // script. Untraced: repeat until the timed windows add up to
    // `--seconds`. Traced: one untraced repeat to hold the traced run
    // against, then the ladder and micro loops.
    let folded = measure(&mut cal, w, seed, Scale::Full, traced, |done| {
        // Seconds as the clock read them, not calibrated ones: `--seconds`
        // is the caller's time.
        let measured: f64 = done
            .iter()
            .filter_map(|r| Some(r.value("host_run_s")? * r.host_slowdown))
            .sum();
        let want = if traced { 1 } else { MIN_REPEATS };
        done.len() < want || (!traced && measured < seconds && done.len() < MAX_REPEATS)
    })?;
    let mut metrics = Json::obj();
    if traced {
        let mut layer = folded.per_layer.clone();
        layer.extend(run_layers_child(&mut cal)?);
        for m in metrics::per_layer() {
            let value = layer.iter().find(|(k, _)| *k == m.name).map(|(_, v)| *v);
            let value =
                value.ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
            metrics.set(&m.name, metric_json(value, m.unit));
        }
    } else {
        for m in END_TO_END {
            let r = folded
                .metric(m.name)
                .ok_or_else(|| format!("{} was not measured", m.name))?;
            metrics.set(m.name, metric_json(r.value(), m.unit));
        }
        let run = folded.metric("host_run_s").map_or(&[][..], |m| &m.repeats);
        eprintln!(
            "{}: seed {seed}, {} latency samples, repeats took {run:?} calibrated s at host slowdown {:?}",
            w.name(),
            folded.samples,
            folded.host_slowdown
        );
    }
    let mut line = Json::obj();
    line.set("correct", folded.correct)
        .set("attempted", folded.attempted)
        .set("failed", folded.failed)
        .set("metrics", metrics);
    println!("{}", line.to_line());
    Ok(0)
}

fn metric_json(value: f64, unit: &str) -> Json {
    let mut m = Json::obj();
    m.set("value", value).set("unit", unit);
    m
}

/// `BENCHMARK.json`, from the tables in the code.
fn spec() -> Json {
    let workloads = Workload::ALL.iter().map(|w| {
        let mut o = Json::obj();
        o.set("name", w.name()).set("why", w.why());
        o
    });
    let end_to_end = END_TO_END.iter().map(|m| {
        let mut o = Json::obj();
        o.set("name", m.name)
            .set("unit", m.unit)
            .set("better", m.better.name())
            .set("bound", m.bound);
        o
    });
    let per_layer = metrics::per_layer().into_iter().map(|m| {
        let mut o = Json::obj();
        o.set("name", m.name)
            .set("unit", m.unit)
            .set("better", m.better.name());
        o
    });
    let mut o = Json::obj();
    o.set(
        "command",
        vec![Json::from("bash"), Json::from("benchmark/run.sh")],
    )
    .set("paths", vec![Json::from("benchmark")])
    .set("run_seconds", RUN_SECONDS)
    .set("workloads", workloads.collect::<Vec<_>>())
    .set("end_to_end", end_to_end.collect::<Vec<_>>())
    .set("per_layer", per_layer.collect::<Vec<_>>());
    o
}

// --- the full command ------------------------------------------------------------

/// Every workload (K untraced repeats and one traced run each), then the
/// ladder and micro loops, then the checks. Prints every metric as
/// `name value unit`, writes `results.json`, exits non-zero if a check
/// fails.
fn full(args: &[String]) -> Result<i32, String> {
    let seed = seed_arg(args);
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = if smoke { Scale::Smoke } else { Scale::Full };
    let k: usize = parsed(
        args,
        "--repeats",
        Some(if smoke { 1 } else { DEFAULT_REPEATS }),
    )?;
    if k == 0 {
        return Err("--repeats must be at least 1".to_string());
    }
    let mut cal = Calibrator::new();
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let folded = measure(&mut cal, w, seed, scale, true, |done| done.len() < k)?;
        print_workload(&folded);
        workloads.push(folded);
    }
    let layers = run_layers_child(&mut cal)?;
    for (name, value) in &layers {
        println!("- {name} {value} ns");
    }
    let mut checks = checks::isolation(&workloads);
    checks.extend(checks::ladder(
        &layers,
        checks::golden_f2_128k(Path::new(".")),
    ));
    for c in &checks {
        println!(
            "check {} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    let failed = checks.iter().filter(|c| !c.ok).count();
    let results = Results {
        seed,
        scale: scale.name().to_string(),
        repeats: k,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads,
        layers,
        checks,
    };
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(&path, results.to_json().to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} ({} checks, {failed} failed)",
        path.display(),
        results.checks.len()
    );
    Ok(i32::from(failed > 0))
}

fn print_workload(w: &WorkloadResult) {
    for m in END_TO_END {
        if let Some(r) = w.metric(m.name) {
            let q = r.quartiles();
            println!(
                "{} {} {} {} (q1 {} q3 {} K={})",
                w.name, m.name, q.median, m.unit, q.q1, q.q3, q.n
            );
        }
    }
    println!(
        "{} op_fail_ratio {} ratio ({} of {} calls; {} latency samples)",
        w.name,
        w.op_fail_ratio(),
        w.failed,
        w.attempted,
        w.samples
    );
    let units = metrics::per_layer();
    for (name, value) in &w.per_layer {
        let unit = units
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit);
        println!("{} {name} {value} {unit}", w.name);
    }
}

// --- compare -------------------------------------------------------------------------

fn compare(args: &[String]) -> Result<i32, String> {
    let [old, new] = args else {
        return Err("usage: compare OLD.json NEW.json".to_string());
    };
    let (report, regressed) = results::compare(&Results::load(old)?, &Results::load(new)?);
    print!("{report}");
    Ok(i32::from(regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must say what the code measures.
    #[test]
    fn benchmark_json_is_what_spec_prints_and_fits_the_contract() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 << 10);
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            file,
            spec(),
            "regenerate with: benchmark/run.sh spec > BENCHMARK.json"
        );

        let keys: Vec<&str> = file
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let len = |k: &str| file.get(k).unwrap().as_arr().unwrap().len();
        assert!((2..=8).contains(&len("workloads")));
        assert!((1..=16).contains(&len("end_to_end")));
        assert!((1..=128).contains(&len("per_layer")));
        assert!((1..=60).contains(&RUN_SECONDS));
        for (k, fields) in [("workloads", 2), ("end_to_end", 4), ("per_layer", 3)] {
            assert!(file.get(k).unwrap().as_arr().unwrap().iter().all(|e| e
                .as_obj()
                .unwrap()
                .len()
                == fields));
        }
    }

    #[test]
    fn flags_parse() {
        let args: Vec<String> = ["--seed", "7", "--smoke", "--workload", "smallop_mix"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag(&args, "--seed"), Some("7"));
        assert_eq!(parsed::<u64>(&args, "--seed", None), Ok(7));
        assert_eq!(parsed::<u64>(&args, "--repeats", Some(5)), Ok(5));
        assert!(parsed::<u64>(&args, "--seconds", None).is_err());
        assert_eq!(seed_arg(&args), 7);
        assert_eq!(seed_arg(&[]), DEFAULT_SEED);
        let odd = |s: &str| seed_arg(&["--seed".to_string(), s.to_string()]);
        assert_eq!(odd("-3"), odd("-3"));
        assert_ne!(odd("-3"), odd("-4"));
        assert_eq!(workload_arg(&args), Ok(Workload::SmallopMix));
        assert!(workload_arg(&["--workload".to_string(), "x".to_string()]).is_err());
    }
}
