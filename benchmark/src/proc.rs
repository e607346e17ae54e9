//! Process plumbing: pin this process to one CPU, calibrate its host clock,
//! read its peak resident size, and run a child of the benchmark binary to
//! completion.
//!
//! Every measurement runs in a fresh child pinned to one allowed CPU. The
//! simulation kernel runs one actor thread at a time, so a second core buys
//! nothing and costs a cross-core wake-up per event (README.md has the
//! numbers); and daemon actors and their buffers outlive their testbed, so
//! a second run in the same process measures the first one's leftovers.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread — and every thread it spawns from now on — to
/// the highest-numbered CPU it is allowed on (CPU 0 takes most interrupts).
/// Returns that CPU, or `None` where pinning is unavailable; the run then
/// goes on unpinned and says so.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte length
    // passed, which is what sched_getaffinity(2) fills; pid 0 is the caller.
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

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    let _ = CPU_SET_WORDS;
    None
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A child that runs longer than this is killed: the driver allows a whole
/// invocation 180 s, and no child of a healthy build needs a fifth of that.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// Run this binary again with `args` (and `env` added), wait for it to end,
/// and return the last line of its standard output. Its standard error
/// passes through. The repo's own `MPIO_*` switches are removed from the
/// child's environment so a stray variable cannot change what is measured.
pub fn run_child(args: &[String], env: &[(&str, String)]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MPIO_") {
            cmd.env_remove(key);
        }
    }
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "child {args:?} ran over {CHILD_TIMEOUT:?} and was killed"
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(25)),
            Err(e) => return Err(format!("waiting for child: {e}")),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "child output reader panicked".to_string())?
        .map_err(|e| format!("reading child output: {e}"))?;
    if !status.success() {
        return Err(format!("child {args:?} ended with {status}"));
    }
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("child {args:?} printed nothing"))
}

/// Rounds of [`host_slowdown`]'s reference routine, and what one round
/// takes on this class of machine when nothing disturbs it. The nominal
/// only sets the scale: calibrated seconds are about this box's quiet ones.
const REFERENCE_ROUNDS: u32 = 20_000;
const NOMINAL_ROUND_NS: f64 = 8_000.0;

/// How much slower than nominal the host is right now: the time a fixed
/// reference routine takes, over its nominal time.
///
/// The VM shares its host, and what the neighbours slow is exactly what a
/// simulation event costs: a blocking handoff between two threads and the
/// cache-cold memory traffic after it (README.md has the measurements; a
/// pure ALU loop does not see the slowdown at all). So the reference is
/// that and nothing else — two threads taking turns over a mutex and a
/// condvar, each turn copying 16 KiB inside an 8 MiB arena — with no repo
/// code in it, so that nothing a later change does to the program can move
/// the yardstick. Every host-clock reading of a child is divided by the
/// mean of this taken just before and just after what it measures.
pub fn host_slowdown() -> f64 {
    const COPY: usize = 16 << 10;
    let turns = 2 * REFERENCE_ROUNDS;
    let shared = Arc::new((Mutex::new((0u32, vec![1u8; 8 << 20])), Condvar::new()));
    // One side takes the even turns, the other the odd ones.
    let play = move |shared: &(Mutex<(u32, Vec<u8>)>, Condvar), parity: u32| {
        let (lock, cv) = shared;
        let mut g = lock.lock().expect("reference peer panicked");
        loop {
            while g.0 < turns && g.0 % 2 != parity {
                g = cv.wait(g).expect("reference peer panicked");
            }
            if g.0 >= turns {
                break;
            }
            let (turn, arena) = (g.0 as usize, &mut g.1);
            let span = arena.len() - COPY;
            arena.copy_within(
                turn * 20_480 % span..turn * 20_480 % span + COPY,
                (turn * 36_864 + span / 2) % span,
            );
            g.0 += 1;
            cv.notify_one();
        }
    };
    let started = Instant::now();
    let peer = {
        let shared = shared.clone();
        std::thread::spawn(move || play(&shared, 1))
    };
    play(&shared, 0);
    peer.join().expect("reference peer panicked");
    started.elapsed().as_nanos() as f64 / (f64::from(REFERENCE_ROUNDS) * NOMINAL_ROUND_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_routine_finishes_and_reads_a_plausible_slowdown() {
        let f = host_slowdown();
        assert!(f > 0.05 && f < 100.0, "{f}");
    }

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        }
    }
}
