#!/usr/bin/env sh
# Local CI: build, test, lint. Run from the repo root; fails fast.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> the lease, replay, request, window and recovery state machines stay pure"
# The server's lease table, the client's page cache, the explorer that
# composes them, the replay cache both servers drive, the request table
# and transfer window both clients keep and the DAFS client's recovery
# planner name no kernel, NIC, simulated memory, metric or trace — tests
# included: both explorers and the planner's and the window's exhaustive
# tests run without a SimKernel.
if grep -nE 'ActorCtx|ViaNic|HostMem|VirtAddr|obs::|metrics\(|\.trace\(|\.compute\(' \
    crates/dafs/src/cache.rs crates/dafs/src/lease.rs crates/dafs/src/explore.rs \
    crates/dafs/src/recover.rs crates/simnet/src/replay.rs crates/simnet/src/reqtab.rs \
    crates/simnet/src/window.rs; then
    echo "ci: I/O in a pure module (lines above)" >&2
    exit 1
fi

echo "==> one duplicate-request machine"
# The DAFS server and the nfsd drive one replay cache, `simnet::replay`:
# no second cache type, and no synthetic identity for a cid-less Hello.
if grep -rnE 'struct Drc\b|DRC_CAPACITY|LEGACY_CID_BASE|next_legacy_cid' crates ||
    grep -rn 'struct ReplayCache\b' crates | grep -v '^crates/simnet/src/replay.rs:'; then
    echo "ci: a second duplicate-request cache is back (lines above)" >&2
    exit 1
fi

echo "==> one request table"
# Both clients keep their request ids, credit window, arrived replies and
# lost requests in one `simnet::reqtab::RequestTable`: no id counter of
# their own, and no map of pending or outstanding replies beside it.
if grep -nE 'AtomicU32|\bpending:|\boutstanding:' crates/dafs/src/client.rs \
    crates/nfsv3/src/client.rs; then
    echo "ci: request bookkeeping outside the request table (lines above)" >&2
    exit 1
fi

echo "==> one transfer window"
# Both clients pipeline a transfer through one `simnet::window::Window`:
# which piece goes next, how many are in flight, and what a short, EOF or
# failed reply does to the rest. Neither `NfsTransfer` nor `DafsBatch`
# keeps an in-flight queue or a post counter of its own.
transfers=$(sed -n '/^pub struct NfsTransfer\b/,/^}/p' crates/nfsv3/src/client.rs
    sed -n '/^pub struct DafsBatch\b/,/^}/p' crates/dafs/src/client.rs)
if grep -nE '\b(in_flight|inflight): *VecDeque' crates/nfsv3/src/client.rs \
    crates/dafs/src/client.rs || echo "$transfers" | grep -nE '^ *(posted|next):' ||
    [ "$(echo "$transfers" | grep -c ': Window<')" -ne 2 ]; then
    echo "ci: a transfer keeps its own window (lines above), or NfsTransfer and" \
        "DafsBatch do not each hold a Window" >&2
    exit 1
fi

echo "==> one way into the DAFS client, one way onto the wire"
# Which route a read, write or getattr takes is the session's to say (the
# files it enrolled), decided in the cache driver's first step: no caller
# picks a `*_cached` entry point, and the striped file carries no flag.
if grep -rnE '\.(read|write|getattr)_cached\(' crates tests examples ||
    grep -nE '\bcached:' crates/dafs/src/striped.rs; then
    echo "ci: a caller-side cached route is back (lines above)" >&2
    exit 1
fi
# One way onto the wire per client: a blocking DAFS transfer is a batch of
# the one request (one encoder names each op once), a sub that dies with
# its session is retried under its own id, and the NFS client's blocking
# RPC is its split-phase halves back to back.
if grep -rnE 'fn (read_inline|write_inline_chunks|replay_inline|exchange_with_retransmit|run_subs)\b' crates ||
    grep -rn 'batch_recoveries' crates; then
    echo "ci: a second copy of a wire path is back (lines above)" >&2
    exit 1
fi
# A write's attributes come from its replies: the GETATTR has one caller,
# the cache driver's `CacheIo::getattr`.
getattr_callers=$(grep -rn 'getattr_wire(' crates | grep -v 'fn getattr_wire(')
if [ "$(echo "$getattr_callers" | wc -l)" -ne 1 ] ||
    ! grep -A3 'fn getattr(&mut self' crates/dafs/src/client.rs | grep -q 'getattr_wire('; then
    echo "ci: getattr_wire has a caller besides CacheIo::getattr:" >&2
    echo "$getattr_callers" >&2
    exit 1
fi
for op in ReadInline ReadDirect WriteInline; do
    if [ "$(grep -o "DafsOp::$op\b" crates/dafs/src/client.rs | wc -l)" -gt 1 ]; then
        echo "ci: crates/dafs/src/client.rs encodes or decodes DafsOp::$op twice" >&2
        exit 1
    fi
done

echo "==> a DAFS write is inline"
# The modelled NIC, like the paper's cLAN, has no RDMA Read, and no table
# turns it on: nothing in the DAFS crate pulls a client's buffer by RDMA
# Read, keeps a staging area for it, or names the direct-write op.
if grep -rnE 'RdmaRead|rdma_read|STAGING|WriteDirect' crates/dafs/src; then
    echo "ci: DAFS uses RDMA Read again (lines above)" >&2
    exit 1
fi

echo "==> one dispatch path"
# A DAFS server without a scheduler serves each frame on receipt; with one,
# it is a `WfqSched`, whose quantum and boost deadline are constants. No
# scheduler trait, identity queue or tunables struct comes back, and the
# server never asks a scheduler whether it reorders.
if grep -rnE 'FifoSched|RequestSched|WfqParams' crates tests examples README.md ||
    grep -rn 'reorders(' crates/dafs/src; then
    echo "ci: a second dispatch path is back (lines above)" >&2
    exit 1
fi

echo "==> one ADIO data method"
# A driver implements `AdioFile::itransfer`: a blocking transfer is it plus
# its wait, and a contiguous read or write is a blocking transfer of one
# range — the trait's provided methods. Only the NFS driver overrides
# `transfer`, and it is the one NFS path with a window of one: each range
# the mount's transfer with one RPC in flight, the baseline as measured.
# The striped DAFS file's one data entry is `issue`, with one retry budget
# above it.
defs() { grep -rn "fn $1" crates/mpiio | wc -l; }
if [ "$(defs read_contig)" -gt 1 ] || [ "$(defs write_contig)" -gt 1 ] ||
    [ "$(defs 'transfer(')" -gt 2 ] || grep -rn 'dafs_blocking' crates ||
    grep -n 'fn transfer(' crates/dafs/src/striped.rs; then
    echo "ci: a second ADIO data path is back: crates/mpiio defines read_contig" \
        "$(defs read_contig)x, write_contig $(defs write_contig)x (at most 1 each)," \
        "transfer $(defs 'transfer(')x (at most 2), or the lines above" >&2
    exit 1
fi

echo "==> one NFS data path"
# Every NFS READ and WRITE is one `NfsTransfer`, its window the RPCs it
# keeps in flight: one for a blocking call, the whole range for a
# split-phase one. The client encodes each procedure in one place, and the
# ADIO driver keeps no second loop, per-direction pending type or
# actor-local host beside it.
for op in Read Write; do
    if [ "$(grep -o "NfsProc::$op\b" crates/nfsv3/src/client.rs | wc -l)" -gt 1 ]; then
        echo "ci: crates/nfsv3/src/client.rs names NfsProc::$op more than once" >&2
        exit 1
    fi
done
if grep -rnE 'NfsPendingOps|fn sequential\b|CurrentHost|set_current_host' crates/mpiio; then
    echo "ci: a second NFS data path is back in crates/mpiio (lines above)" >&2
    exit 1
fi

echo "==> a DAFS reconnect replaces the VI, not the registrations"
# A session keeps one protection tag for its life, so a redial re-posts the
# receive ring on the new VI and registers nothing: the cache is never
# re-keyed, and the body of `DafsClient::reconnect` neither rebuilds the
# rings nor registers or deregisters memory.
reconnect_body=$(sed -n '/^    fn reconnect(/,/^    }$/p' crates/dafs/src/client.rs)
if grep -rnE 'fn retarget\b' crates/dafs || [ -z "$reconnect_body" ] ||
    echo "$reconnect_body" | grep -nE '\b(post_rings|register_mem|deregister_mem)\b'; then
    echo "ci: a reconnect re-registers, or DafsClient::reconnect is gone (lines above)" >&2
    exit 1
fi

echo "==> a redial does not wait for its Hello"
# A redial posts its Hello and returns; the request that needed it goes out
# right behind, and the caller takes the Hello's reply when it arrives. So
# the body of `DafsClient::reconnect` calls nothing that awaits a reply.
if [ -z "$reconnect_body" ] ||
    echo "$reconnect_body" | grep -nE '\b(hello|take_hello|await_reply|collect)\('; then
    echo "ci: DafsClient::reconnect waits for a reply (lines above)" >&2
    exit 1
fi

echo "==> one recovery plan"
# What a broken DAFS session re-posts under its requests' own ids, gives up
# and redoes, and in what order, is the pure plan in
# `crates/dafs/src/recover.rs` (its exhaustive test holds the slot, window
# and order rules). One driver in client.rs runs it, and connect and
# deliver share one redial loop: `max_reconnects` is read at one site, and
# neither of the two re-post paths the driver replaced comes back.
reads=$(grep -o '\.max_reconnects\b' crates/dafs/src/client.rs | wc -l)
if [ "$reads" -ne 1 ] || grep -nE 'fn (resend_lost|fallback)\b' crates/dafs/src/client.rs; then
    echo "ci: crates/dafs/src/client.rs reads max_reconnects at $reads sites (exactly 1)," \
        "or a second recovery path is back (lines above)" >&2
    exit 1
fi

echo "==> one transfer planner"
# How a request is cut into wire subs — inline or direct, chunked, listed,
# in place or copied — is the pure planner in `crates/dafs/src/plan.rs`
# (its exhaustive test pins the cut and every `warm` call). The client asks
# it at one site, `DafsClient::cut`: the one read of `direct_threshold`
# and the one `RegCache::warm` call in client.rs; none of the eight
# functions the planner replaced comes back. The planner names no kernel,
# NIC, simulated memory, registration cache, metric or trace.
thresholds=$(grep -o '\.direct_threshold\b' crates/dafs/src/client.rs | wc -l)
warms=$(grep -o '\.warm(' crates/dafs/src/client.rs | wc -l)
if [ "$thresholds" -ne 1 ] || [ "$warms" -ne 1 ] ||
    grep -nE 'fn (goes_direct|gathers|expand_subs|inline_subs|chunk_segs|list_sub|inline_list_subs|expand_list_subs)\b' \
        crates/dafs/src/client.rs; then
    echo "ci: crates/dafs/src/client.rs reads direct_threshold at $thresholds sites and" \
        "calls warm at $warms (exactly 1 each), or defines a cut function (lines above)" >&2
    exit 1
fi
if grep -nE 'ActorCtx|ViaNic|HostMem|RegCache|obs::|metrics\(|\.trace\(|\.compute\(' \
    crates/dafs/src/plan.rs; then
    echo "ci: I/O in the transfer planner (lines above)" >&2
    exit 1
fi

echo "==> the aggregator knows the layout before the data"
# One request exchange per collective call tells every aggregator where each
# rank's pieces go, so data messages carry no descriptors and the aggregator
# moves other ranks' pieces as data segments past the gather floor. Its side
# of the exchange is charged in one place (`charge_pieces`), which copies
# only its own pieces and messages below the floor.
# `tests/full_stack.rs::two_phase_copies_only_what_stays_on_the_host` holds
# the byte count; this holds the site, and keeps the per-message
# descriptor parsers from coming back.
copies=$(grep -c 'charge_copy(' crates/mpiio/src/collective.rs || true)
if [ "$copies" -ne 1 ]; then
    echo "ci: crates/mpiio/src/collective.rs charges $copies copies (exactly 1):" >&2
    grep -n 'charge_copy(' crates/mpiio/src/collective.rs >&2
    exit 1
fi
if grep -nE '\b(split_run|buffer_run|request_descs)\b' crates/mpiio/src/collective.rs; then
    echo "ci: crates/mpiio/src/collective.rs parses descriptors out of data messages (lines above)" >&2
    exit 1
fi

echo "==> collective buffers live with the handle"
# `MpiFile::coll_bufs` hands every sweep the same buffers and the handle
# frees them when it goes, so a driver that registers them registers them
# once. A `mem.alloc(` or `mem.free(` in collective.rs is a per-call buffer
# coming back; `tests/full_stack.rs::the_second_collective_call_registers_and_copies_nothing`
# holds what that costs.
if grep -nE 'mem\.(alloc|free)\(' crates/mpiio/src/collective.rs; then
    echo "ci: crates/mpiio/src/collective.rs allocates or frees memory (lines above);" \
        "collective buffers come from MpiFile::coll_bufs" >&2
    exit 1
fi

echo "==> one two-phase sweep, one ranges path"
# A collective write and a collective read are one two-phase sweep: one
# phase loop, whose depth (`romio_cb_pipeline`, 0 or 1) is read once; and
# an independent access is one ranges path, whichever way it goes.
sweep_src=$(sed '/^#\[cfg(test)\]/,$d' crates/mpiio/src/collective.rs)
phase_loops=$(echo "$sweep_src" | grep -cE '\bfor [a-z_]+ in 0\.\.[^{]*phases' || true)
depth_reads=$(echo "$sweep_src" | grep -o '\.cb_pipeline\b' | wc -l)
if [ "$phase_loops" -ne 1 ] || [ "$depth_reads" -ne 1 ] ||
    grep -nE 'fn (read_ranges|write_ranges|batch_write)\b' crates/mpiio/src/file.rs; then
    echo "ci: crates/mpiio/src/collective.rs has $phase_loops phase loops and reads" \
        "cb_pipeline at $depth_reads sites (exactly 1 each), or crates/mpiio/src/file.rs" \
        "has a second ranges path (lines above)" >&2
    exit 1
fi

echo "==> one metrics value"
# A metric key is a name plus a small fixed label set (`obs::Labels`), and a
# per-object count is its labelled series, bumped once: no name formatted at
# run time outside `obs` (a tenant or a port is a label, or a struct of its
# own), one sample type (`obs::SampleSet`), and no by-name registry twin
# beside the session's cache and byte counters.
if grep -rnE '(counter|byte_meter)\(&format!' crates/*/src tests examples | grep -v '^crates/obs/'; then
    echo "ci: a metric name formatted at run time (lines above); use a label" >&2
    exit 1
fi
if grep -rnE 'struct Histogram\b|DurationMetric|WindowedRate' crates; then
    echo "ci: a second sample type is back (lines above); obs::SampleSet is the one" >&2
    exit 1
fi
count_body=$(sed -n '/^    fn count(&mut self, stat: CacheStat/,/^    }$/p' crates/dafs/src/client.rs)
account_body=$(sed -n '/^    fn account(/,/^    }$/p' crates/dafs/src/client.rs)
if [ -z "$count_body" ] || [ -z "$account_body" ] ||
    echo "$count_body$account_body" | grep -nE '\.(counter|byte_meter|histogram)(_at)?\('; then
    echo "ci: Live::count or DafsClient::account looks a metric up by name (a twin" \
        "of the session's series, lines above), or either is gone" >&2
    exit 1
fi

echo "==> one VIA data path"
# A posted descriptor runs through one executor (check, trip, land,
# complete), and its bytes make one trip, whichever way they flow: the
# trip is the one site that books the wire, takes the fabric hop and draws
# the loss verdict and the jitter. `disconnect` keeps the other loss
# verdict (control path: loss only, no booking, no jitter). TCP has no
# topology to thread through.
vi=crates/via/src/vi.rs
drops=$(grep -c '\.should_drop(' "$vi" || true)
jitters=$(grep -c '\.jitter(' "$vi" || true)
hops=$(grep -E '\.deliver\(' "$vi" | grep -vc 'self\.deliver(' || true)
if grep -nE 'fn (do_send|do_rdma_write|do_rdma_read)\b' "$vi" ||
    [ "$drops" -ne 2 ] || [ "$jitters" -ne 1 ] || [ "$hops" -ne 1 ] ||
    grep -n 'Topology' crates/tcpnet/src/lib.rs; then
    echo "ci: $vi has a per-op executor (lines above), or calls should_drop at $drops" \
        "sites (exactly 2), jitter at $jitters (exactly 1), a topology deliver at $hops" \
        "(exactly 1); or crates/tcpnet/src/lib.rs names Topology (lines above)" >&2
    exit 1
fi

echo "==> one loss draw per link"
# A loss or jitter verdict is a function of (seed, directed link, stream,
# the frame's index on that link): `FaultPlan::should_drop` and `jitter`
# take counter-based draws (`rng::keyed`), one counter per directed link
# and stream. A shared `Rng64` would deal every link's verdicts from one
# sequence in global frame order, so one more frame anywhere would move
# every later verdict everywhere.
if grep -nE '\bRng64\b|\.rng\b' crates/simnet/src/fault.rs; then
    echo "ci: crates/simnet/src/fault.rs draws from a shared Rng64 (lines above)" >&2
    exit 1
fi

echo "==> the fabric models what the tables run"
# One plane of cut-through switches with per-port queues: every table and
# workload runs one rail, no shared buffer pool and cut-through forwarding,
# so those options and the machinery behind them are gone.
if grep -rnE 'ForwardingMode|StoreAndForward|pool_bytes|PoolState|rail_assign|pick_rail|fabric\.failovers' \
    crates tests examples; then
    echo "ci: a deleted fabric mechanism is back (lines above): rails, the shared" \
        "pool or store-and-forward" >&2
    exit 1
fi

echo "==> a receiver books its own wire"
# `Resource` is FIFO only if it is booked in arrival order. An MPI message's
# receive wire is booked by the receiver when it takes the envelope off its
# port, which yields envelopes in arrival order; a sender that booked its
# peer's wire would reserve it at send time, ahead of messages that get
# there first.
if grep -nE 'peer\.rx_wire' crates/mpiio/src/comm.rs ||
    grep -nE 'rx_wire\.book' crates/mpiio/src/comm.rs | grep -v 'me\.rx_wire\.book'; then
    echo "ci: crates/mpiio/src/comm.rs books another rank's rx_wire (lines above)" >&2
    exit 1
fi

echo "==> a NIC places, a CPU writes"
# Every NIC landing is a placement: `Vi::deliver` (a receive) and
# `Vi::execute` (an RDMA Write into the peer's memory, an RDMA Read into
# this end's segments) record views of the bytes with `HostMem::place`,
# and no read writes a placement back into the pages (`HostMem` has no
# `settle`). Only a CPU writes host memory. The DAFS client and server
# parse the completion's payload and re-post at once, so they never read
# a receive slot back (`read_bytes` is how either would).
body() { awk -v f="$1" '$0 ~ "^    fn " f "\\(" { on = 1 } on && /^    }$/ { print; exit } on' crates/via/src/vi.rs; }
deliver=$(body deliver)
execute=$(body execute)
if [ -z "$deliver" ] || [ -z "$execute" ] ||
    printf '%s\n%s\n' "$deliver" "$execute" | grep -n '\.mem\.write(' ||
    grep -nE 'fn settle\b' crates/simnet/src/host.rs ||
    grep -nE '\.read_bytes\(' crates/dafs/src/client.rs crates/dafs/src/server.rs; then
    echo "ci: Vi::deliver or Vi::execute writes into host memory, HostMem writes a" \
        "placement back, or the DAFS client or server reads a receive slot back" \
        "(lines above)" >&2
    exit 1
fi

echo "==> a HostMem region maps on its first write"
# An allocation only reserves its address range. It is mapped the first time
# a CPU writes into it: `Allocation::written`, under `HostMem::write` and a
# non-zero `HostMem::fill`. So a ring slot or an RDMA target that only a NIC
# places into costs no syscall and no page, at connect or at teardown.
# `Mapping::zeroed` has one call in host.rs, inside `written`, and
# `written` has two callers, `write` and `fill`.
fn_body() { awk -v f="$1" '$0 ~ "^    (pub )?fn " f "\\(" { on = 1 } on { print } on && /^    }$/ { exit }' crates/simnet/src/host.rs; }
host_src=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' crates/simnet/src/host.rs)
if [ "$(echo "$host_src" | grep -c 'Mapping::zeroed')" -ne 1 ] ||
    [ "$(fn_body written | grep -c 'Mapping::zeroed')" -ne 1 ] ||
    [ "$(echo "$host_src" | grep -c '\.written(')" -ne 2 ] ||
    [ "$(printf '%s\n%s\n' "$(fn_body write)" "$(fn_body fill)" | grep -c '\.written(')" -ne 2 ]; then
    echo "ci: Mapping::zeroed is reachable from HostMem::alloc: host.rs must call it" \
        "once, inside Allocation::written, which only write and fill call" >&2
    echo "$host_src" | grep -nE 'Mapping::zeroed|\.written\(' >&2
    exit 1
fi

echo "==> the page cache keeps what the NIC placed"
# A cached page is a view of what its fetch landed as (a direct read places
# the server's memfs pages in the scratch buffer), so a miss copies no byte
# the NIC placed: `Page` and `Fetched` in cache.rs hold views, not vectors,
# and `Live::fetch` hands over `HostMem::read_views`, not a `read_vec` copy.
page_types=$(sed -n '/^struct Page {/,/^}/p; /^pub(crate) type Fetched /p' crates/dafs/src/cache.rs)
fetch_body=$(sed -n '/^    fn fetch(&mut self, fh: u64/,/^    }$/p' crates/dafs/src/client.rs)
if [ "$(echo "$page_types" | grep -c 'Page {\|type Fetched')" -ne 2 ] || [ -z "$fetch_body" ] ||
    echo "$page_types" | grep -n 'Vec<u8>' || echo "$fetch_body" | grep -n 'read_vec'; then
    echo "ci: a cached page or fetch reply is a Vec<u8>, Live::fetch copies with" \
        "read_vec, or either definition is gone (lines above)" >&2
    exit 1
fi

echo "==> a socket hands over what arrived"
# A TCP receive returns views of the segments that arrived, and one RPC
# record is one segment, so a record read whole is the sender's frame: the
# kernel-to-user copy is charged (`recv_cpu`), not made. The nfsd stores a
# WRITE's data through `MemFs::write_bytes`, whose whole pages adopt the
# request frame, and the NFS client keeps each reply as the view it got.
# `RecvBuf::take` and `recv_exact*` return no `Vec<u8>`, the nfsd's WRITE
# arm calls no `fs.write(`, and nfsv3's client.rs copies no reply out.
receives=$(awk '/fn (take|recv_exact[a-z_]*)\(/ { on = 1 }
    on { print FILENAME ":" FNR ":" $0 }
    on && /\{$/ { on = 0 }' crates/tcpnet/src/lib.rs)
write_arm=$(sed -n '/NfsProc::Write => {/,/^            }$/p' crates/nfsv3/src/server.rs)
if [ -z "$receives" ] || echo "$receives" | grep 'Vec<u8>' ||
    ! echo "$write_arm" | grep -q 'write_bytes(' || echo "$write_arm" | grep -n 'fs\.write(' ||
    grep -nE '\b(reply|r)\b[^;]*\.to_vec\(\)' crates/nfsv3/src/client.rs; then
    echo "ci: a TCP receive returns a Vec<u8>, the nfsd's WRITE stores through" \
        "something other than write_bytes, or the NFS client copies a reply out" \
        "(lines above)" >&2
    exit 1
fi

echo "==> one host cost"
# Every host runs at the one rate `simnet::cost::HOST`, so the DAFS and NFS
# stacks price a syscall and a memcpy the same way: no crate but simnet
# names `HostCost`, nothing keeps a `host_cost`, and outside simnet a copy
# is charged with `Host::copy(ctx, n)`, never priced off a cost field
# (`.host.copy(n)`, `.host.syscall`).
if grep -rn 'HostCost' crates src tests examples | grep -v '^crates/simnet/src/' ||
    grep -rn 'host_cost' crates src tests examples ||
    grep -rnE '\.host\.(copy\([^,]*\)|syscall)' crates src tests examples |
    grep -v '^crates/simnet/src/'; then
    echo "ci: a host cost outside simnet::cost::HOST (lines above)" >&2
    exit 1
fi

echo "==> a table cell is a value"
# Every bench table fills typed `report::Cell`s (the exact value and how it
# prints) and one renderer makes the text: no row is built from strings,
# and no cell is a number someone already formatted. Prints file:line of
# each `.row(...)` call, up to its closing parenthesis, that names
# `vec![`, `format!` or `to_string`.
string_rows=$(find crates/bench/src -name '*.rs' -exec awk '
    FNR == 1 { depth = 0 }
    {
        s = $0
        if (!depth) {
            i = index(s, ".row(")
            if (!i) next
            s = substr(s, i + 4)
        }
        if (s ~ /vec!\[|format!|to_string/) print FILENAME ":" FNR ":" $0
        for (k = 1; k <= length(s); k++) {
            c = substr(s, k, 1)
            if (c == "(") depth++
            else if (c == ")" && --depth == 0) break
        }
    }' {} +)
if [ -n "$string_rows" ]; then
    echo "$string_rows"
    echo "ci: a bench table row is built from strings (lines above); fill report::Cell values" >&2
    exit 1
fi

echo "==> a bench run goes through testbeds"
# Every simulation a table makes runs through a `testbeds` fixture, which
# returns what the actors computed by value and logs the run (virtual end
# time, events, fault seed) that `bench --json` writes under "runs": no
# shared slot carries a value out of an actor (`Probe`), no second handle
# type stands in for the run (`RunObs`), and no table module but R-K1's
# (`kernel_speed.rs`, which times the kernel itself) makes or runs a
# kernel or an MPI `Testbed`.
if grep -rnwE 'Probe|RunObs' crates/bench/src ||
    grep -rnE '\.run\(|SimKernel::new' crates/bench/src |
    grep -vE '^crates/bench/src/(testbeds|kernel_speed)\.rs:'; then
    echo "ci: a bench simulation bypasses testbeds (lines above)" >&2
    exit 1
fi

echo "==> one thread, no lock prefix"
# A simulation runs on one OS thread, so the state every event touches pays
# for no cross-thread synchronisation: the kernel, ports, hosts, resources,
# payload buffers, metrics, the VIA NIC's ids and registration tallies and
# the TCP and NFS stacks take no std mutex and make no locked
# read-modify-write (a counter is a load and a store; what needs a lock sits
# in the parking_lot shim's single-thread cell, whose one claim is the only
# compare-and-swap), and the shim is not built on std's mutex. Tests are
# exempt: they may share state across the threads they start.
no_tests() { sed '/^#\[cfg(test)\]/,$d' "$1" | grep -nE "$2" | sed "s|^|$1:|" || true; }
std_mutex='std::sync::(\{[^}]*)?\bMutex\b'
locked=$(
    for f in crates/simnet/src/kernel.rs crates/simnet/src/port.rs crates/simnet/src/host.rs \
        crates/simnet/src/resource.rs crates/simnet/src/buf.rs \
        crates/obs/src/stats.rs crates/obs/src/registry.rs \
        crates/via/src/fabric.rs crates/via/src/mem.rs crates/via/src/nic.rs \
        crates/tcpnet/src/lib.rs crates/nfsv3/src/*.rs; do
        no_tests "$f" "$std_mutex|\bfetch_(add|sub|max)\b|\bcompare_exchange"
    done
    no_tests crates/parking_lot/src/lib.rs "$std_mutex"
)
if [ -n "$locked" ]; then
    echo "$locked"
    echo "ci: a std mutex or a locked read-modify-write on the simulation's" \
        "one thread (lines above)" >&2
    exit 1
fi

echo "==> cargo build --release (warnings are errors)"
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test -q --release -p parking_lot"
# The lock cell's re-lock and cross-thread panics hold in a release build
# too, where nothing else runs its tests.
cargo test -q --release -p parking_lot

echo "==> cargo test -q again, under the deleted MPIO_* switches"
# Hints and the server scheduler are functions of their arguments: the six
# process-wide switches that used to move defaults are gone, so exporting
# them to hostile values must change no test. An ambient read that sneaks
# back in fails here.
MPIO_DAFS_CACHE=enable MPIO_DAFS_SCHED=wfq MPIO_ROMIO_CB_CACHE=enable \
    MPIO_DAFS_QOS=enable MPIO_DAFS_TENANT_WEIGHT=8 MPIO_DAFS_LISTIO=disable \
    cargo test -q --workspace

echo "==> one evaluation program, one ambient read"
# `bench` is the only binary of the bench crate, and the only environment
# variable the tree reads names the trace file (`obs`).
if [ "$(ls crates/bench/src/bin)" != "bench.rs" ]; then
    echo "ci: crates/bench/src/bin holds more than bench.rs" >&2
    exit 1
fi
env_reads=$(grep -rn 'env::var' crates src tests examples)
if [ "$(echo "$env_reads" | wc -l)" -ne 1 ] || ! echo "$env_reads" | grep -q '^crates/obs/'; then
    echo "ci: env::var outside the obs trace sink:" >&2
    echo "$env_reads" >&2
    exit 1
fi

bench() {
    cargo run --release -p mpio-dafs-bench --bin bench -- "$@"
}

echo "==> experiment smokes (id:what the output must still say)"
# Each run's own asserts are the gate (R-F5: a reused buffer never reads
# slower than a fresh one, and the default configuration is the envelope of
# every column; R-T6: two servers must carry the 64K-window pipelined sweep
# at >= 1.5x one; X-6: WFQ small-op p99 must beat FIFO; the >=5x bound is
# enforced on the full-size run of the golden diff below, where the
# quantiles are fine enough to pin a ratio); the grep only catches a table
# that lost a column, a row or its identity note.
for smoke in "R-F5:default = envelope" "R-T6:striped(2)" R-F7:pipelined R-F8:bit-identical \
    R-F9:byte-identical X-5:cached+loss X-5:scale-out R-F10:oversub "X-6:deadline boost"; do
    id=${smoke%%:*} must=${smoke#*:}
    out=$(bench --only "$id" --smoke)
    echo "$out"
    echo "$out" | grep -q "$must" || {
        echo "ci: $id --smoke output is missing \"$must\"" >&2
        exit 1
    }
done

echo "==> R-K1 kernel-speed floor (wall-clock events/s regression gate)"
# The simulator itself must stay fast: the smoke-size kernel microbench
# (`bench` pins itself to one CPU) has to dispatch at least this many events
# per wall-clock second on every workload shape. The floor is a tenth of
# what the slowest shape, ping-pong, measures on a quiet machine now that
# a handoff is a user-space stack switch between coroutines (seven pinned
# runs: ping-pong 4.6-5.7 M events/s, median 5.5 M; fan-in 9.1-10.4 M;
# burst 6.1-8.6 M), so it only trips on a genuine dispatch-path
# regression — a syscall or a contended lock back in the handoff, which
# costs that factor of ten — not on host noise.
bench --only R-K1 --smoke --floor 500000

echo "==> host profile by owner and heap by owner (scripts/hostprof.sh --by-owner, --heap on R-K1)"
# The profiler's owner view must still see through std to the code that
# asked for the work: the kernel benchmark's samples fall in simnet. It
# builds its sampler with cc and names frames with addr2line; without
# either there is nothing to check.
if command -v cc >/dev/null 2>&1 && command -v addr2line >/dev/null 2>&1; then
    prof=$(scripts/hostprof.sh --by-owner target/release/bench --only R-K1 2>&1 >/dev/null)
    echo "$prof"
    echo "$prof" | sed -n '/^  by crate/,/^$/p' | grep -qE '%[[:space:]]+[0-9]+[[:space:]]+simnet$' || {
        echo "ci: hostprof --by-owner printed no by-crate section with a simnet row" >&2
        exit 1
    }
    # The heap view: a preloaded allocation tracker must see the run's peak
    # and say what of VmHWM it could not attribute.
    heap=$(scripts/hostprof.sh --heap -n 5 target/release/bench --only R-K1 2>&1 >/dev/null)
    echo "$heap"
    echo "$heap" | grep -qE '^hostprof: process [0-9]+: peak live heap [0-9.]+ MiB .*VmHWM [0-9.]+ MiB' || {
        echo "ci: hostprof --heap printed no peak line" >&2
        exit 1
    }
else
    echo "ci: skipping the host-profile checks: cc or addr2line is missing"
fi

echo "==> repo benchmark smoke (isolation, determinism, bytes-verified, ladder checks)"
benchmark/run.sh --smoke

echo "==> repo benchmark unit tests"
# benchmark/ is a package of its own, outside the workspace, frozen by
# BENCHMARK.json: its tests are what notice a library API moved from under it.
(cd benchmark && CARGO_TARGET_DIR=../target cargo test --release --offline -q)

echo "==> bench suite golden diff"
# The full suite must emit exactly the checked-in goldens. What that
# gates: default hints reproduce every table (`dafs_cache` defaults to
# off, `dafs_listio` and the pipelined sweep to on), and a server without
# a scheduler serves each frame on receipt, in completion order — every
# table runs that path, X-6's fifo rows included.
# Wall-clock lines are real elapsed time (nondeterministic by design):
# the per-table harness throughput notes and R-F10's cell notes in the
# rendered text (`Table::to_json` leaves every `wall-clock:` note out, so
# R-F10's JSON line, its runs included, is compared), and the R-K1
# microbench (whose title carries the marker, excluding its whole JSON
# line). Both diffs filter them; every other line is compared
# byte-for-byte, each table's "runs" (virtual end time and event count
# of every simulation behind it) with its "values".
tmp_json=$(mktemp) tmp_txt=$(mktemp)
bench --json "$tmp_json" >"$tmp_txt"
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
# sessions whose ring slots are reserved address ranges, never mapped
# (only a NIC places into them; what is mapped is the buffers the ranks
# write). The floor is a tenth of a
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
