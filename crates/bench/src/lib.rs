//! # mpio-dafs-bench — the reconstructed evaluation harness
//!
//! One module per reconstructed table/figure (`R-T1` … `R-F6`, indexed in
//! `DESIGN.md` §5). Each module's `run()` returns a [`Table`]; the one
//! binary, `bench`, prints any subset of [`all_experiments`].
//! All times and bandwidths are **simulated** (virtual-time) quantities
//! from the calibrated cost models — deterministic and exactly
//! reproducible.

#![warn(missing_docs)]

pub mod report;
pub mod testbeds;

pub mod f10_fabric_sweep;
pub mod f1_transport_bandwidth;
pub mod f2_file_bandwidth;
pub mod f3_mpiio_scaling;
pub mod f4_collective_vs_independent;
pub mod f5_direct_threshold;
pub mod f6_server_saturation;
pub mod f7_overlap;
pub mod f8_server_scaling;
pub mod f9_listio;
pub mod kernel_speed;
pub mod t1_transport_latency;
pub mod t2_registration_cost;
pub mod t3_fileop_latency;
pub mod t4_cpu_overhead;
pub mod t5_regcache_ablation;
pub mod t6_cb_buffer_sweep;
pub mod x1_btio_subarray;
pub mod x2_mixed_workload;
pub mod x3_latency_sensitivity;
pub mod x4_bandwidth_under_loss;
pub mod x5_small_op_cache;
pub mod x6_qos_fairness;

pub use report::Table;
use testbeds::Run;

/// What `--floor` says of a run: the line for stdout, or the violation.
pub type Verdict = Result<String, String>;

/// A `--floor` run: `(smoke, floor)` to the table and the verdict on it.
pub type FlooredRun = fn(bool, f64) -> (Table, Verdict);

/// One reconstructed experiment and the runs the `bench` binary can make
/// of it; a flag an entry has no runner for is refused, not ignored.
pub struct Experiment {
    /// Id as DESIGN.md §5 and `--only` spell it.
    pub id: &'static str,
    /// The full-size run the goldens hold.
    pub run: fn() -> Table,
    /// `--smoke`: the seconds-scale run CI makes (same table shape and
    /// assertions, except the bounds only full-size quantiles can pin).
    pub smoke: Option<fn() -> Table>,
    /// `--fault-seed`: either size (`true` = smoke) under another fault
    /// timeline; the same seed reproduces the same table bit for bit.
    pub seeded: Option<fn(bool, u64) -> Table>,
    /// `--floor`: either size, judged against a wall-clock events/s floor.
    pub floored: Option<FlooredRun>,
}

fn full_only(id: &'static str, run: fn() -> Table) -> Experiment {
    Experiment {
        id,
        run,
        smoke: None,
        seeded: None,
        floored: None,
    }
}

/// R-F8 under `seed`; smoke moves 1 MiB per client instead of 4 MiB.
fn f8(smoke: bool, seed: u64) -> Table {
    f8_server_scaling::run_sized(if smoke { 1 << 20 } else { 4 << 20 }, seed)
}

/// X-5 under `seed`; smoke makes 2 timed passes instead of 8 and climbs a
/// 16-client scale-out ladder.
fn x5(smoke: bool, seed: u64) -> Table {
    use x5_small_op_cache::{run_with, DEFAULT_ROUNDS, SCALE_CLIENTS, SMOKE_SCALE_CLIENTS};
    if smoke {
        run_with(2, seed, &SMOKE_SCALE_CLIENTS)
    } else {
        run_with(DEFAULT_ROUNDS, seed, &SCALE_CLIENTS)
    }
}

/// Every experiment, in DESIGN.md order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        full_only("R-T1", t1_transport_latency::run),
        full_only("R-F1", f1_transport_bandwidth::run),
        full_only("R-T2", t2_registration_cost::run),
        full_only("R-F2", f2_file_bandwidth::run),
        full_only("R-T3", t3_fileop_latency::run),
        full_only("R-F3", f3_mpiio_scaling::run),
        full_only("R-T4", t4_cpu_overhead::run),
        full_only("R-F4", f4_collective_vs_independent::run),
        full_only("R-T5", t5_regcache_ablation::run),
        Experiment {
            // Twenty-five sub-second cells and the asserts on them: the
            // full run is the smoke run.
            smoke: Some(f5_direct_threshold::run),
            ..full_only("R-F5", f5_direct_threshold::run)
        },
        Experiment {
            // Sixteen sub-second cells: the full run is the smoke run.
            smoke: Some(t6_cb_buffer_sweep::run),
            ..full_only("R-T6", t6_cb_buffer_sweep::run)
        },
        full_only("R-F6", f6_server_saturation::run),
        Experiment {
            // 16 rounds through a 16 KiB collective buffer.
            smoke: Some(|| f7_overlap::run_sized(16, 16 << 10)),
            ..full_only("R-F7", f7_overlap::run)
        },
        Experiment {
            smoke: Some(|| f8(true, f8_server_scaling::DEFAULT_SEED)),
            seeded: Some(f8),
            ..full_only("R-F8", f8_server_scaling::run)
        },
        Experiment {
            // A 2 MiB span instead of 8 MiB.
            smoke: Some(|| f9_listio::run_sized(2 << 20)),
            ..full_only("R-F9", f9_listio::run)
        },
        Experiment {
            // 4 and 16 clients against 2 servers; the plateau and knee
            // assertions only arm at full scale.
            smoke: Some(f10_fabric_sweep::run_smoke),
            ..full_only("R-F10", f10_fabric_sweep::run)
        },
        full_only("X-1", x1_btio_subarray::run),
        full_only("X-2", x2_mixed_workload::run),
        full_only("X-3", x3_latency_sensitivity::run),
        Experiment {
            seeded: Some(|_, seed| x4_bandwidth_under_loss::run_with_seed(seed)),
            ..full_only("X-4", x4_bandwidth_under_loss::run)
        },
        Experiment {
            smoke: Some(|| x5(true, x5_small_op_cache::DEFAULT_SEED)),
            seeded: Some(x5),
            ..full_only("X-5", x5_small_op_cache::run)
        },
        Experiment {
            // 40 small ops instead of 200: WFQ p99 must still beat FIFO,
            // the >= 5x bound is the full run's.
            smoke: Some(|| x6_qos_fairness::run_with(40)),
            ..full_only("X-6", x6_qos_fairness::run)
        },
        Experiment {
            smoke: Some(|| kernel_speed::table_from(&kernel_speed::measure(true))),
            floored: Some(|smoke, floor| {
                let runs = kernel_speed::measure(smoke);
                (
                    kernel_speed::table_from(&runs),
                    kernel_speed::check_floor(&runs, floor),
                )
            }),
            ..full_only("R-K1", kernel_speed::run)
        },
    ]
}

/// `cpu_set_t` is 1024 bits.
#[cfg(target_os = "linux")]
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread — and every thread it spawns from now on — to the
/// highest-numbered CPU it is allowed on (CPU 0 takes most interrupts), and
/// return that CPU; `None` where pinning is unavailable. A simulation runs
/// on the one thread inside `SimKernel::run`, so there is no cross-core wake
/// left to avoid; pinning only keeps the OS from migrating that thread
/// mid-measurement, for steadier wall-clock numbers.
/// For bench binaries to call first thing; library code never pins.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte length passed,
    // which is what sched_getaffinity(2) fills; pid 0 is the caller.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the byte length passed;
    // the kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// No-op off Linux: the run goes on unpinned and its notes say so.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// How a `wall-clock:` note names the result of [`pin_to_one_cpu`].
fn pin_note(cpu: Option<usize>) -> String {
    cpu.map_or("unpinned".to_string(), |c| format!("pinned to CPU {c}"))
}

/// Run one experiment, measuring wall-clock harness telemetry around it:
/// sim-events/s, MiB of payload materialized per second, peak refcounted
/// bytes alive, on the CPU `cpu` names (see [`pin_to_one_cpu`]). Returns
/// what the experiment returned, the [`Run`]s its fixtures logged
/// ([`testbeds::logged`]), and a `wall-clock:`-prefixed note line for the
/// *rendered* output only (its own line, so the byte-identity filter drops
/// exactly it); [`Table::to_json`] leaves such notes out.
pub fn run_timed<T>(run: impl FnOnce() -> T, cpu: Option<usize>) -> (T, Vec<Run>, String) {
    let ev0 = simnet::events_scheduled_global();
    let bytes0 = simnet::buf::bytes_total();
    simnet::buf::reset_bytes_peak();
    let t0 = std::time::Instant::now();
    let (out, runs) = testbeds::logged(run);
    let el = t0.elapsed().as_secs_f64().max(1e-9);
    let events = simnet::events_scheduled_global() - ev0;
    let bytes = simnet::buf::bytes_total() - bytes0;
    let peak = simnet::buf::bytes_peak();
    let note = format!(
        "wall-clock: {events} sim events in {el:.2}s ({:.0} events/s, {:.1} MiB-sim/s, peak {} KiB buffered, {})",
        events as f64 / el,
        bytes as f64 / (1u64 << 20) as f64 / el,
        peak >> 10,
        pin_note(cpu),
    );
    (out, runs, note)
}
