//! Run every reconstructed experiment and print all tables.
//! `cargo run -p mpio-dafs-bench --release --bin all_experiments`
//!
//! Set `MPIO_DAFS_JSON=<path>` to also write the results as JSON lines
//! (one object per experiment) for downstream plotting.
use std::io::Write;

fn main() {
    let cpu = mpio_dafs_bench::pin_to_one_cpu();
    let json_path = std::env::var("MPIO_DAFS_JSON").ok();
    let mut json = json_path
        .as_deref()
        .map(|p| std::fs::File::create(p).expect("create JSON output"));
    for (_id, run) in mpio_dafs_bench::all_experiments() {
        let (mut table, wall_note) = mpio_dafs_bench::run_timed(run, cpu);
        // JSON first: the wall-clock note stays out of the JSON stream
        // (one object per line — it would exclude the whole table from
        // the byte-identity comparison instead of just its own line).
        if let Some(f) = json.as_mut() {
            writeln!(f, "{}", table.to_json()).expect("write JSON line");
        }
        table.note(&wall_note);
        table.print();
    }
    if let Some(p) = json_path {
        eprintln!("wrote JSON lines to {p}");
    }
}
