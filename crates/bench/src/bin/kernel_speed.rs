//! Raw DES kernel dispatch-speed microbenchmark:
//! `cargo run -p mpio-dafs-bench --release --bin kernel_speed [-- --smoke] [-- --floor N]`.
//!
//! `--smoke` runs seconds-scale sizes (for CI). `--floor N` exits nonzero
//! if any workload dispatches fewer than `N` events per wall-clock second —
//! the CI regression gate against the simulator itself getting slow.
use mpio_dafs_bench::kernel_speed;

fn main() {
    let cpu = mpio_dafs_bench::pin_to_one_cpu();
    let mut smoke = false;
    let mut floor: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--floor" => {
                let v = args.next().unwrap_or_default();
                floor = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--floor needs a number, got {v:?}");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other} (supported: --smoke, --floor N)");
                std::process::exit(2);
            }
        }
    }
    let runs = if smoke {
        kernel_speed::run_smoke()
    } else {
        kernel_speed::measure(200_000, 64, 2_000, 256, 1_000)
    };
    let mut table = kernel_speed::table_from(&runs);
    table.note(&format!("wall-clock: {}", mpio_dafs_bench::pin_note(cpu)));
    table.print();
    if let Some(f) = floor {
        for r in &runs {
            let eps = r.events_per_sec();
            if eps < f {
                eprintln!(
                    "FLOOR VIOLATION: {} ran at {eps:.0} events/s < floor {f:.0}",
                    r.label
                );
                std::process::exit(1);
            }
        }
        println!("floor ok: all workloads >= {f:.0} events/s");
    }
}
