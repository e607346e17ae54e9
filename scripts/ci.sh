#!/usr/bin/env sh
# Local CI: build, test, lint. Run from the repo root; fails fast.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> the two lease state machines stay pure"
# The server's lease table, the client's page cache and the explorer that
# composes them name no kernel, NIC, simulated memory, metric or trace —
# tests included: both explorers run without a SimKernel.
if grep -nE 'ActorCtx|ViaNic|HostMem|VirtAddr|obs::|metrics\(|\.trace\(|\.compute\(' \
    crates/dafs/src/cache.rs crates/dafs/src/lease.rs crates/dafs/src/explore.rs; then
    echo "ci: I/O in a pure module (lines above)" >&2
    exit 1
fi

echo "==> cargo build --release (warnings are errors)"
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test -q again, under the deleted MPIO_* switches"
# Hints and the server scheduler are functions of their arguments: the six
# process-wide switches that used to move defaults are gone, so exporting
# them to hostile values must change no test. An ambient read that sneaks
# back in fails here.
MPIO_DAFS_CACHE=enable MPIO_DAFS_SCHED=wfq MPIO_ROMIO_CB_CACHE=enable \
    MPIO_DAFS_QOS=enable MPIO_DAFS_TENANT_WEIGHT=8 MPIO_DAFS_LISTIO=disable \
    cargo test -q --workspace

echo "==> R-F7 overlap smoke (pipelined two-phase sweep)"
f7_out=$(cargo run --release -p mpio-dafs-bench --bin f7_overlap -- --smoke)
echo "$f7_out"
echo "$f7_out" | grep -q "pipelined" || {
    echo "ci: R-F7 output missing the pipelined column" >&2
    exit 1
}

echo "==> R-F8 server-scaling smoke (striped multi-server DAFS)"
f8_out=$(cargo run --release -p mpio-dafs-bench --bin f8_server_scaling -- --smoke)
echo "$f8_out"
echo "$f8_out" | grep -q "bit-identical" || {
    echo "ci: R-F8 output missing the striped-vs-raw identity note" >&2
    exit 1
}

echo "==> R-F9 list-I/O smoke (vectored ops vs data sieving)"
f9_out=$(cargo run --release -p mpio-dafs-bench --bin f9_listio -- --smoke)
echo "$f9_out"
echo "$f9_out" | grep -q "byte-identical" || {
    echo "ci: R-F9 output missing the cross-routing identity note" >&2
    exit 1
}

echo "==> R-X5 client-cache smoke (lease-coherent re-read sweep)"
x5_out=$(cargo run --release -p mpio-dafs-bench --bin x5_small_op_cache -- --smoke)
echo "$x5_out"
echo "$x5_out" | grep -q "cached+loss" || {
    echo "ci: R-X5 output missing the degraded cached+loss row" >&2
    exit 1
}
echo "$x5_out" | grep -q "scale-out" || {
    echo "ci: R-X5 output missing the striped scale-out ladder" >&2
    exit 1
}

echo "==> R-F10 switched-fabric smoke (incast/oversubscription sweep)"
f10_out=$(cargo run --release -p mpio-dafs-bench --bin f10_fabric_sweep -- --smoke)
echo "$f10_out"
echo "$f10_out" | grep -q "oversub" || {
    echo "ci: R-F10 output missing the oversubscription sweep" >&2
    exit 1
}

echo "==> X-6 QoS-fairness smoke (multi-tenant WFQ vs FIFO)"
# The binary's own asserts are the gate: WFQ small-op p99 must beat FIFO
# (the >=5x bound is enforced on the full-size run inside all_experiments
# below, where the quantiles are fine enough to pin a ratio).
x6_out=$(cargo run --release -p mpio-dafs-bench --bin x6_qos_fairness -- --smoke)
echo "$x6_out"
echo "$x6_out" | grep -q "deadline boost" || {
    echo "ci: X-6 output missing the deadline-boost note" >&2
    exit 1
}

echo "==> R-K1 kernel-speed floor (wall-clock events/s regression gate)"
# The simulator itself must stay fast: the smoke-size kernel microbench
# (which pins itself to one CPU) has to dispatch at least this many events
# per wall-clock second on every workload shape. The floor is a tenth of
# what the slowest shape, ping-pong, measures on a quiet machine now that
# a handoff is a user-space stack switch between coroutines (seven pinned
# runs: ping-pong 4.6-5.7 M events/s, median 5.5 M; fan-in 9.1-10.4 M;
# burst 6.1-8.6 M), so it only trips on a genuine dispatch-path
# regression — a syscall or a contended lock back in the handoff, which
# costs that factor of ten — not on host noise.
cargo run --release -p mpio-dafs-bench --bin kernel_speed -- --smoke --floor 500000

echo "==> repo benchmark smoke (isolation, determinism, bytes-verified, ladder checks)"
benchmark/run.sh --smoke

echo "==> repo benchmark unit tests"
# benchmark/ is a package of its own, outside the workspace, frozen by
# BENCHMARK.json: its tests are what notice a library API moved from under it.
(cd benchmark && CARGO_TARGET_DIR=../target cargo test --release --offline -q)

echo "==> bench suite golden diff"
# The full suite must emit exactly the checked-in goldens. What that
# gates: default hints reproduce every table (`dafs_cache` defaults to
# off, `dafs_listio` and the pipelined sweep to on), and the server's
# default FifoSched is byte-identical in virtual time to the
# pre-scheduler dispatch loop — X-6's fifo rows come from that same path.
# Wall-clock lines are real elapsed time (nondeterministic by design):
# the per-table harness throughput notes in the rendered text, R-F10's
# embedded cell notes, and the R-K1 microbench (whose title carries the
# marker, excluding its whole JSON line). Both diffs filter them; every
# other line is compared byte-for-byte.
tmp_json=$(mktemp) tmp_txt=$(mktemp)
MPIO_DAFS_JSON="$tmp_json" \
    cargo run --release -p mpio-dafs-bench --bin all_experiments >"$tmp_txt"
grep -v 'wall-clock' bench_output.txt >"$tmp_txt.golden"
grep -v 'wall-clock' "$tmp_txt" >"$tmp_txt.got"
diff -u "$tmp_txt.golden" "$tmp_txt.got" || {
    echo "ci: the suite's output differs from bench_output.txt" >&2
    exit 1
}
grep -v 'wall-clock' BENCH_13.json >"$tmp_json.golden"
grep -v 'wall-clock' "$tmp_json" >"$tmp_json.got"
diff -u "$tmp_json.golden" "$tmp_json.got" || {
    echo "ci: the suite's JSON differs from BENCH_13.json" >&2
    exit 1
}

echo "==> R-F10 1024-client cell wall-clock budget"
# The 1024-client cell is the largest single simulation in the suite:
# over a thousand actors, each a coroutine on a mapped stack, and 1 024
# sessions of mapped slot buffers. The floor is a tenth of a
# quiet-machine reading (five pinned suite runs: 238 700-272 300
# events/s, median 251 000; the same cell ran 28 700-53 500 when every
# handoff was a futex round trip between threads), so a kernel, fabric,
# mapping or view-mapping regression that makes the big cells crawl
# fails CI instead of just making the suite slow. The note comes from
# the golden run above.
f10_rate=$(sed -n 's|.*1024-client s=4 o=1:1 cell ran [0-9]* sim events in [0-9.]*s (\([0-9]*\) events/s).*|\1|p' "$tmp_txt")
if [ -z "$f10_rate" ]; then
    echo "ci: R-F10 output missing the 1024-client cell wall-clock note" >&2
    exit 1
fi
if [ "$f10_rate" -lt 25000 ]; then
    echo "ci: R-F10 1024-client cell too slow: $f10_rate events/s (floor 25000)" >&2
    exit 1
fi
echo "1024-client cell: $f10_rate events/s (floor 25000)"

rm -f "$tmp_json" "$tmp_txt" "$tmp_txt.golden" "$tmp_txt.got" "$tmp_json.golden" "$tmp_json.got"

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings, i.e. broken intra-doc links, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "ci: OK"
