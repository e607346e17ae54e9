#!/usr/bin/env sh
# Wall-clock self-profile of any command, with no timers in the program and
# nothing to switch on: a preloaded sampler (scripts/hostprof/hostprof.c)
# backtraces the process every millisecond of CPU time (every kernel tick,
# where that is coarser), and this script symbolises the samples and prints
# where they fell. The workspace's release builds carry debug info
# ([profile.release] in Cargo.toml), so inlined frames are named too.
#
#   scripts/hostprof.sh [-n ROWS] [--by-owner] CMD [ARG...]
#
#   scripts/hostprof.sh target/release/bench --only R-F2
#   scripts/hostprof.sh -n 60 target/release/mpio-benchmark child \
#       --workload stream_large --seed 101 --scale full
#   scripts/hostprof.sh --by-owner target/release/bench --only R-K1
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
    *) break ;;
    esac
done
# A missing or non-numeric ROWS falls through to the usage message.
case $rows in '' | *[!0-9]*) set -- ;; esac
[ $# -gt 0 ] || {
    echo "usage: $0 [-n ROWS] [--by-owner] CMD [ARG...]" >&2
    exit 2
}
for tool in cc addr2line nm python3; do
    command -v "$tool" >/dev/null 2>&1 || {
        echo "hostprof: '$tool' not found; it needs cc (to build the sampler), addr2line, nm and python3 (to read the samples)" >&2
        exit 1
    }
done

here=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cc -O1 -shared -fPIC -o "$work/hostprof.so" "$here/hostprof/hostprof.c"

status=0
HOSTPROF_OUT="$work/samples" LD_PRELOAD="$work/hostprof.so" "$@" || status=$?

python3 - "$work" "$rows" "$mode" >&2 <<'EOF'
import bisect, collections, glob, os, re, subprocess, sys

TOP = int(sys.argv[2])
BY_OWNER = sys.argv[3] == "owner"
# What every actor's stack starts with, below the actor's own closure.
BOOT = re.compile(
    r"simnet::coro::(boot|first_frame)|simnet::kernel::SimKernel::spawn_inner"
    r"|std::panicking::(try|catch_unwind)|std::panic::catch_unwind|__rust_try"
    r"|<core::panic::unwind_safe::AssertUnwindSafe<F> as core::ops::function::FnOnce"
    r"|core::ops::function::FnOnce::call_once|<alloc::boxed::Box<F,A> as core::ops::function::FnOnce"
)
# The runtime under the program's own code: not an owner.
RUNTIME = re.compile(r"^<*(std|core|alloc|hashbrown)::|^__rust_|^__rdl_|^\?\?")
SYSTEM_LIB = re.compile(r"^(libc|libm|libgcc_s|libpthread|ld-linux.*|linux-vdso)\.so|^hostprof\.so$")
self_hits = collections.Counter()
incl_hits = collections.Counter()
crate_hits = collections.Counter()
owner_hits = collections.Counter()
chain_hits = collections.Counter()
total = dropped = 0

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

for path in glob.glob(sys.argv[1] + "/samples.*"):
    maps, stacks = [], []
    for line in open(path):
        f = line.split()
        if not f:
            continue
        if f[0] == "samples":
            dropped += int(f[3])
        elif "-" in f[0]:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else ""))
        else:
            stacks.append([int(a, 16) for a in f])
    # An object's load bias is where its offset-0 mapping starts.
    bias = {obj: lo for lo, _, off, obj in reversed(maps) if off == 0}

    def locate(addr):
        for lo, hi, _, obj in maps:
            if lo <= addr < hi and obj.startswith("/"):
                return obj, addr - bias.get(obj, lo)
        return None

    # Frame 0 is the interrupted pc; callers are return addresses, one past
    # the call.
    wanted = collections.defaultdict(set)
    located = []
    for stack in stacks:
        frames = [locate(a - (i > 0)) for i, a in enumerate(stack)]
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
    for frames in located:
        total += 1
        seen = set()
        # The sample's functions, innermost first, each with whether it
        # sits in a system library.
        chain = []
        for depth, fr in enumerate(frames):
            fns = (names.get(fr) if fr else None) or ["?? (unmapped)"]
            if depth == 0:
                self_hits[fns[0]] += 1
            seen.update(fns)
            system = fr is not None and SYSTEM_LIB.search(os.path.basename(fr[0])) is not None
            chain += [(fn.removesuffix(" [no line info]"), system) for fn in fns]
        for fn in seen:
            if not BOOT.search(fn):
                incl_hits[fn] += 1
        owners = []
        for fn, system in chain:
            if not system and not RUNTIME.search(fn) and fn not in owners[-1:]:
                owners.append(fn)
        crate = re.match(r"<*([A-Za-z_]\w*)::", owners[0]) if owners else None
        crate_hits[crate.group(1) if crate else "(runtime only)"] += 1
        owner_hits[owners[0] if owners else "(runtime only)"] += 1
        if chain and chain[0][1]:
            # A local symbol's offset (memcpy's, in a stripped libc) would
            # split one function into many rows.
            lib = re.sub(r"\+0x[0-9a-f]+$", "+?", chain[0][0])
            chain_hits[(lib,) + tuple(owners[:3])] += 1

if total == 0:
    sys.exit("hostprof: no samples (the command used almost no CPU, or exited without running destructors)")
print(f"hostprof: {total} samples" + (f", {dropped} more dropped" if dropped else ""))
if BY_OWNER:
    lists = (
        ("by crate (innermost frame outside std/core/alloc/libc)", crate_hits, None),
        ("by owning function", owner_hits, TOP),
        ("in a system library: that function <- its three innermost owners", chain_hits, TOP),
    )
else:
    lists = (("top self", self_hits, TOP), ("top inclusive", incl_hits, TOP))
for title, hits, top in lists:
    print(f"\n  {title}")
    for key, n in hits.most_common(top):
        row = key if isinstance(key, str) else " <- ".join(key)
        print(f"  {100 * n / total:6.2f}%  {n:7d}  {row}")
    if not hits:
        print("  (none)")
EOF

exit "$status"
