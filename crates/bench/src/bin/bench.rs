//! The evaluation, one program:
//! `cargo run -p mpio-dafs-bench --release --bin bench -- [flags]`.
//!
//! * no flag — the whole suite, pinned to one CPU, every table followed by
//!   its `wall-clock:` harness note;
//! * `--only ID[,ID…]` — just those experiments (`R-T1` … `X-6`, `R-K1`),
//!   in suite order;
//! * `--smoke` — the seconds-scale run CI makes (R-F5, R-T6, R-F7 … R-F10,
//!   X-5, X-6, R-K1);
//! * `--fault-seed N` — another fault timeline (R-F8, X-4, X-5); the same
//!   seed reproduces the same table bit for bit;
//! * `--floor N` — exit 1 if any R-K1 workload dispatches fewer than `N`
//!   events per wall-clock second;
//! * `--json PATH` — also write the tables as JSON lines, one object per
//!   experiment, with the runs behind each.
//!
//! A flag an experiment has no run for is an error, never a silent full run.
use std::io::Write;

use mpio_dafs_bench::{all_experiments, pin_to_one_cpu, run_timed, Experiment, Table, Verdict};

const USAGE: &str =
    "usage: bench [--only ID[,ID...]] [--smoke] [--fault-seed N] [--floor EVENTS_PER_S] [--json PATH]";

fn usage(msg: &str) -> ! {
    eprintln!("bench: {msg}\n{USAGE}");
    std::process::exit(2);
}

#[derive(Default)]
struct Flags {
    only: Vec<String>,
    smoke: bool,
    fault_seed: Option<u64>,
    floor: Option<f64>,
    json: Option<String>,
}

fn parse_flags() -> Flags {
    let mut f = Flags::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--only" => f.only.extend(value().split(',').map(str::to_string)),
            "--smoke" => f.smoke = true,
            "--json" => f.json = Some(value()),
            "--fault-seed" => {
                let v = value();
                let seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                f.fault_seed =
                    Some(seed.unwrap_or_else(|_| usage(&format!("bad --fault-seed value: {v}"))));
            }
            "--floor" => {
                let v = value();
                f.floor = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage(&format!("--floor needs a number, got {v:?}"))),
                );
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    f
}

type Run = Box<dyn FnOnce() -> (Table, Option<Verdict>)>;

/// The run of `e` the flags ask for, or the flag `e` does not take.
fn pick(e: &Experiment, f: &Flags) -> Result<Run, String> {
    let smoke = f.smoke;
    let lacks = |flag: &str| format!("{} has no {flag} run", e.id);
    let small = e.smoke.ok_or_else(|| lacks("--smoke"));
    Ok(match (f.floor, f.fault_seed) {
        (Some(_), Some(_)) => return Err("no experiment takes --floor and --fault-seed".into()),
        (Some(floor), None) => {
            let run = e.floored.ok_or_else(|| lacks("--floor"))?;
            Box::new(move || {
                let (table, verdict) = run(smoke, floor);
                (table, Some(verdict))
            })
        }
        (None, Some(seed)) => {
            let run = e.seeded.ok_or_else(|| lacks("--fault-seed"))?;
            if smoke {
                small?;
            }
            Box::new(move || (run(smoke, seed), None))
        }
        (None, None) => {
            let run = if smoke { small? } else { e.run };
            Box::new(move || (run(), None))
        }
    })
}

fn main() {
    let cpu = pin_to_one_cpu();
    let flags = parse_flags();
    let suite = all_experiments();
    if let Some(bad) = flags
        .only
        .iter()
        .find(|id| !suite.iter().any(|e| e.id.eq_ignore_ascii_case(id)))
    {
        let ids: Vec<&str> = suite.iter().map(|e| e.id).collect();
        usage(&format!("no experiment {bad:?}; ids: {}", ids.join(" ")));
    }
    // Every flag is checked against every selected experiment before the
    // first one runs.
    let runs: Vec<Run> = suite
        .iter()
        .filter(|e| {
            flags.only.is_empty() || flags.only.iter().any(|id| e.id.eq_ignore_ascii_case(id))
        })
        .map(|e| pick(e, &flags).unwrap_or_else(|msg| usage(&msg)))
        .collect();
    let mut json = flags
        .json
        .as_deref()
        .map(|p| std::fs::File::create(p).expect("create JSON output"));
    for run in runs {
        let ((mut table, verdict), runs, wall_note) = run_timed(run, cpu);
        table.runs = runs;
        if let Some(f) = json.as_mut() {
            writeln!(f, "{}", table.to_json()).expect("write JSON line");
        }
        table.note(&wall_note);
        table.print();
        match verdict {
            Some(Ok(line)) => println!("{line}"),
            Some(Err(violation)) => {
                eprintln!("{violation}");
                std::process::exit(1);
            }
            None => {}
        }
    }
    if let Some(p) = flags.json {
        eprintln!("wrote JSON lines to {p}");
    }
}
