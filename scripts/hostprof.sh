#!/usr/bin/env sh
# Wall-clock self-profile of any command, with no timers in the program and
# nothing to switch on: a preloaded sampler (scripts/hostprof/hostprof.c)
# backtraces the process every millisecond of CPU time (every kernel tick,
# where that is coarser), and this script symbolises the samples and prints
# where they fell. The workspace's release builds carry debug info
# ([profile.release] in Cargo.toml), so inlined frames are named too.
#
#   scripts/hostprof.sh [-n ROWS] [--by-owner | --heap] CMD [ARG...]
#
#   scripts/hostprof.sh target/release/bench --only R-F2
#   scripts/hostprof.sh -n 60 target/release/mpio-benchmark child \
#       --workload stream_large --seed 101 --scale full
#   scripts/hostprof.sh --by-owner target/release/bench --only R-K1
#   scripts/hostprof.sh --heap target/release/mpio-benchmark child \
#       --workload fabric_incast --seed 7 --scale full
#
# "self" is the innermost function of the interrupted frame; "inclusive"
# counts a function once per sample it appears anywhere in; each list shows
# ROWS rows (default 25). The frames every coroutine stack starts with
# (simnet::coro's boot and first_frame, the spawn closure, the catch_unwind
# chain under it) are left out of the inclusive list: they sit on nearly
# every sample and say nothing. A name tagged
# [no line info] comes from the symbol table alone: callees inlined into it
# are folded in (benchmark/ builds without debug info; build it with
# CARGO_PROFILE_RELEASE_DEBUG=true to get them back). In a stripped system
# library the nearest exported symbol is often not the function sampled
# (libc's memcpy and memset are local symbols): an address past the end of
# that symbol, or after one with no size, prints as `libc.so.6+0xOFFSET`
# instead of under a wrong name.
#
# --by-owner charges each sample to its owner instead: the innermost frame
# outside std, core, alloc (hashbrown included) and the system libraries
# (libc, the loader, libgcc, the vdso) — the code that asked for the work.
# It prints shares by crate and by owning function, and, for the samples
# that fell in a system library (memcpy, malloc, munmap, ...), the chain
# of their three innermost owning frames. CMD's own output
# passes through; the profile goes to stderr. Processes CMD spawns are
# sampled too and reported together. Pin CMD to one CPU (taskset -c 1) as
# for any wall-clock number here.
#
# --heap measures memory instead of time: a preloaded tracker
# (scripts/hostprof/heapprof.c) takes the call stack of every malloc,
# calloc, realloc and aligned allocation, and prints, per process, the live
# heap bytes at the peak grouped by crate, by owning function (the owner
# rule above) and by the chain of three innermost owners, next to the
# process's VmHWM. What VmHWM holds beyond the heap is not attributed:
# mappings (HostMem regions, coroutine stacks), binary text, and the
# tracker's own tables, whose size it prints. Every allocation takes a
# backtrace, so CMD runs several times slower; time figures taken under
# --heap mean nothing.
set -eu

rows=25
mode=frames
while :; do
    case ${1:-} in
    -n)
        rows=${2:-}
        [ $# -lt 2 ] || shift 2
        ;;
    --by-owner)
        mode=owner
        shift
        ;;
    --heap)
        mode=heap
        shift
        ;;
    *) break ;;
    esac
done
# A missing or non-numeric ROWS falls through to the usage message.
case $rows in '' | *[!0-9]*) set -- ;; esac
[ $# -gt 0 ] || {
    echo "usage: $0 [-n ROWS] [--by-owner | --heap] CMD [ARG...]" >&2
    exit 2
}
for tool in cc addr2line nm python3; do
    command -v "$tool" >/dev/null 2>&1 || {
        echo "hostprof: '$tool' not found; it needs cc (to build the sampler or tracker), addr2line, nm and python3 (to read the samples)" >&2
        exit 1
    }
done

here=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
preload=hostprof
[ "$mode" != heap ] || preload=heapprof
cc -O1 -shared -fPIC -o "$work/$preload.so" "$here/hostprof/$preload.c"

status=0
HOSTPROF_OUT="$work/samples" LD_PRELOAD="$work/$preload.so" "$@" || status=$?

python3 - "$work" "$rows" "$mode" >&2 <<'EOF'
import bisect, collections, glob, os, re, subprocess, sys

TOP = int(sys.argv[2])
BY_OWNER = sys.argv[3] == "owner"
HEAP = sys.argv[3] == "heap"
# What every actor's stack starts with, below the actor's own closure.
BOOT = re.compile(
    r"simnet::coro::(boot|first_frame)|simnet::kernel::SimKernel::spawn_inner"
    r"|std::panicking::(try|catch_unwind)|std::panic::catch_unwind|__rust_try"
    r"|<core::panic::unwind_safe::AssertUnwindSafe<F> as core::ops::function::FnOnce"
    r"|core::ops::function::FnOnce::call_once|<alloc::boxed::Box<F,A> as core::ops::function::FnOnce"
)
# The runtime under the program's own code: not an owner.
RUNTIME = re.compile(r"^<*(std|core|alloc|hashbrown)::|^__rust_|^__rdl_|^\?\?")
SYSTEM_LIB = re.compile(r"^(libc|libm|libgcc_s|libpthread|ld-linux.*|linux-vdso)\.so|^(hostprof|heapprof)\.so$")


class Report:
    """What one profile charges: a weight per sample (1) or per live heap
    stack (its bytes), by frame, crate, owner and owner chain."""

    def __init__(self):
        self.self_hits = collections.Counter()
        self.incl_hits = collections.Counter()
        self.crate_hits = collections.Counter()
        self.owner_hits = collections.Counter()
        self.chain_hits = collections.Counter()
        self.total = 0


samples = Report()
heaps = []  # (pid, the tracker's "heap" line as a dict, Report)
dropped = 0

extents = {}

def in_a_symbol(obj, addr):
    """Whether `addr` lies inside a sized symbol of `obj`'s static or dynamic
    table: without line info addr2line names the nearest symbol below an
    address, however far below."""
    if obj not in extents:
        size = {}
        for table in ([], ["-D"]):
            out = subprocess.run(
                ["nm", "-S", "--defined-only"] + table + [obj],
                capture_output=True, text=True,
            ).stdout
            for f in map(str.split, out.splitlines()):
                # "addr size type name", or "addr type name" for no size.
                if len(f) >= 3:
                    start = int(f[0], 16)
                    size[start] = max(size.get(start, 0), int(f[1], 16) if len(f) > 3 else 0)
        extents[obj] = (sorted(size), size)
    starts, size = extents[obj]
    i = bisect.bisect_right(starts, addr) - 1
    return i >= 0 and addr < starts[i] + size[starts[i]]

for path in sorted(glob.glob(sys.argv[1] + "/samples.*")):
    maps, stacks, weights, heap = [], [], [], None
    for line in open(path):
        f = line.split()
        if not f:
            continue
        if f[0] == "samples":
            dropped += int(f[3])
        elif f[0] == "heap":
            heap = dict(zip(f[1::2], map(int, f[2::2])))
        elif f[0] == "site":
            weights.append(int(f[1]))
            stacks.append([int(a, 16) for a in f[2:]])
        elif "-" in f[0]:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else ""))
        else:
            weights.append(1)
            stacks.append([int(a, 16) for a in f])
    if HEAP and heap is None:
        continue
    report = samples
    if HEAP:
        report = Report()
        heaps.append((path.rsplit(".", 1)[1], heap, report))
    # An object's load bias is where its offset-0 mapping starts.
    bias = {obj: lo for lo, _, off, obj in reversed(maps) if off == 0}

    def locate(addr):
        for lo, hi, _, obj in maps:
            if lo <= addr < hi and obj.startswith("/"):
                return obj, addr - bias.get(obj, lo)
        return None

    # A sample's frame 0 is the interrupted pc; every other frame, and every
    # frame of a heap stack, is a return address, one past the call.
    wanted = collections.defaultdict(set)
    located = []
    for stack in stacks:
        frames = [locate(a - (i > 0 or HEAP)) for i, a in enumerate(stack)]
        located.append(frames)
        for fr in frames:
            if fr:
                wanted[fr[0]].add(fr[1])
    names = {}
    for obj, addrs in wanted.items():
        addrs = sorted(addrs)
        for i in range(0, len(addrs), 2000):
            out = subprocess.run(
                ["addr2line", "-a", "-f", "-i", "-C", "-e", obj]
                + [hex(a) for a in addrs[i : i + 2000]],
                capture_output=True, text=True,
            ).stdout.splitlines()
            # Per address: its line, then (function, file:line) pairs,
            # innermost inlined frame first.
            cur = None
            for j, line in enumerate(out):
                if line.startswith("0x"):
                    addr = int(line, 16)
                    cur = names.setdefault((obj, addr), [])
                    fn_line = j + 1
                elif cur is not None and (j - fn_line) % 2 == 0:
                    if out[j + 1].startswith("??"):
                        if in_a_symbol(obj, addr):
                            line += " [no line info]"
                        else:
                            line = f"{os.path.basename(obj)}+{addr:#x}"
                    cur.append(line)
    for weight, stack, frames in zip(weights, stacks, located):
        report.total += weight
        seen = set()
        # The stack's functions, innermost first, each with whether it
        # sits in a system library.
        chain = []
        for depth, fr in enumerate(frames):
            fns = (names.get(fr) if fr else None) or ["?? (unmapped)"]
            if depth == 0:
                report.self_hits[fns[0]] += weight
            seen.update(fns)
            system = fr is not None and SYSTEM_LIB.search(os.path.basename(fr[0])) is not None
            chain += [(fn.removesuffix(" [no line info]"), system) for fn in fns]
        for fn in seen:
            if not BOOT.search(fn):
                report.incl_hits[fn] += weight
        owners = []
        for fn, system in chain:
            if not system and not RUNTIME.search(fn) and fn not in owners[-1:]:
                owners.append(fn)
        if not stack:
            # The tracker's stack table was full: its site 0 keeps the rest.
            owners = ["(no stack: the tracker's table of stacks was full)"]
        crate = re.match(r"<*([A-Za-z_]\w*)::", owners[0]) if owners else None
        report.crate_hits[crate.group(1) if crate else "(runtime only)"] += weight
        report.owner_hits[owners[0] if owners else "(runtime only)"] += weight
        if HEAP:
            report.chain_hits[tuple(owners[:3]) or ("(runtime only)",)] += weight
        elif chain and chain[0][1]:
            # A local symbol's offset (memcpy's, in a stripped libc) would
            # split one function into many rows.
            lib = re.sub(r"\+0x[0-9a-f]+$", "+?", chain[0][0])
            report.chain_hits[(lib,) + tuple(owners[:3])] += weight


def show(lists, total, unit):
    for title, hits, top in lists:
        print(f"\n  {title}")
        for key, n in hits.most_common(top):
            row = key if isinstance(key, str) else " <- ".join(key)
            print(f"  {100 * n / total:6.2f}%  {unit(n)}  {row}")
        if not hits:
            print("  (none)")


MIB = 1 << 20
if HEAP:
    if not heaps:
        sys.exit("hostprof: no heap profile (the command exited without running destructors)")
    for pid, heap, r in heaps:
        hwm = heap["hwm_kib"] * 1024
        print(
            f"hostprof: process {pid}: peak live heap {heap['peak'] / MIB:.1f} MiB"
            f" (owners read at {heap['copied'] / MIB:.1f} MiB); VmHWM {hwm / MIB:.1f} MiB,"
            f" of which {heap['tables'] / MIB:.1f} MiB the tracker's own tables;"
            f" not attributed: {max(hwm - heap['copied'] - heap['tables'], 0) / MIB:.1f} MiB"
            " (mappings, stacks, binary text)"
        )
        if r.total:
            show(
                (
                    ("peak live heap by crate (innermost frame outside std/core/alloc/libc)", r.crate_hits, None),
                    ("peak live heap by owning function", r.owner_hits, TOP),
                    ("peak live heap by its three innermost owners", r.chain_hits, TOP),
                ),
                r.total,
                lambda n: f"{n / MIB:9.3f} MiB",
            )
        print()
    sys.exit()
if samples.total == 0:
    sys.exit("hostprof: no samples (the command used almost no CPU, or exited without running destructors)")
print(f"hostprof: {samples.total} samples" + (f", {dropped} more dropped" if dropped else ""))
if BY_OWNER:
    lists = (
        ("by crate (innermost frame outside std/core/alloc/libc)", samples.crate_hits, None),
        ("by owning function", samples.owner_hits, TOP),
        ("in a system library: that function <- its three innermost owners", samples.chain_hits, TOP),
    )
else:
    lists = (("top self", samples.self_hits, TOP), ("top inclusive", samples.incl_hits, TOP))
show(lists, samples.total, lambda n: f"{n:7d}")
EOF

exit "$status"
