//! Micro-benchmarks of the hot code paths (real wall-clock performance of
//! the library itself, as opposed to the virtual-time experiments the
//! `bench` binary runs).
//!
//! Plain `harness = false` timing loops (the build environment carries no
//! external bench framework): each case runs a warmup, then reports the
//! mean wall-clock time per iteration over a fixed batch.

use std::hint::black_box;
use std::time::Instant;

use memfs::{MemFs, ROOT_ID};
use mpiio::{Datatype, FileView};
use simnet::{Port, SimKernel};

/// Time `iters` runs of `f` (after `warmup` unmeasured runs); print the
/// mean per-iteration latency.
fn bench(name: &str, warmup: u32, iters: u32, mut f: impl FnMut()) {
    for _ in 0..warmup {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    let (val, unit) = if per >= 1e-3 {
        (per * 1e3, "ms")
    } else if per >= 1e-6 {
        (per * 1e6, "us")
    } else {
        (per * 1e9, "ns")
    };
    println!("{name:<40} {val:>9.2} {unit}/iter  ({iters} iters)");
}

fn bench_datatype_flatten() {
    // A realistically gnarly nested type: struct of vectors over indexed.
    let el = Datatype::bytes(8);
    let inner = Datatype::vector(16, 2, 5, &el);
    let idx = Datatype::indexed(&[(2, 0), (1, 50), (3, 100)], &inner);
    let dt = Datatype::struct_of(&[(1, 0, idx.clone()), (2, 4096, inner)]);
    bench("datatype_flatten_nested", 10, 1000, || {
        black_box(black_box(&dt).flatten());
    });
    let sub = Datatype::subarray(
        &[64, 64, 64],
        &[16, 16, 16],
        &[8, 8, 8],
        &Datatype::bytes(8),
    );
    bench("datatype_flatten_subarray_16x16x16", 5, 100, || {
        black_box(black_box(&sub).flatten());
    });
}

fn bench_view_map() {
    let ft = Datatype::resized(&Datatype::bytes(4096), 0, 65536);
    let view = FileView::new(0, &Datatype::bytes(1), &ft);
    bench("view_map_1MiB_through_4K_stripes", 10, 1000, || {
        black_box(black_box(&view).map(black_box(12345), black_box(1 << 20)));
    });
}

fn bench_memfs() {
    let fs = MemFs::new();
    let f = fs.create(ROOT_ID, "bench").unwrap();
    let data = vec![7u8; 64 << 10];
    bench("memfs_write_read_64KiB", 10, 2000, || {
        fs.write(f.id, 0, black_box(&data)).unwrap();
        black_box(fs.read(f.id, 0, 64 << 10).unwrap());
    });
}

fn bench_des_kernel() {
    // Wall-clock cost of the DES kernel: one ping-pong pair doing 1000
    // timed message exchanges (2000 scheduling events + wakes).
    bench("des_kernel_1000_roundtrips", 2, 20, || {
        let kernel = SimKernel::new();
        let ab: Port<u32> = Port::new("ab");
        let ba: Port<u32> = Port::new("ba");
        {
            let (ab, ba) = (ab.clone(), ba.clone());
            kernel.spawn("a", move |ctx| {
                for i in 0..1000u32 {
                    ab.send(ctx, i, ctx.now() + simnet::time::units::us(5));
                    ba.recv(ctx).unwrap();
                }
                ab.close(ctx);
            });
        }
        kernel.spawn_daemon("b", move |ctx| {
            while let Some(v) = ab.recv(ctx) {
                ba.send(ctx, v, ctx.now() + simnet::time::units::us(5));
            }
        });
        black_box(kernel.run());
    });
}

fn main() {
    bench_datatype_flatten();
    bench_view_map();
    bench_memfs();
    bench_des_kernel();
}
