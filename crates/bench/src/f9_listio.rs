//! R-F9 — Wire-level list I/O vs data sieving on noncontiguous access
//! (new scenario).
//!
//! Not in the paper: its MPI/IO implementation data-sieves noncontiguous
//! requests into covering-extent transfers. This experiment measures the
//! alternative DAFS offers a user-level client: ship the whole sorted
//! `(offset, len)` list as **one vectored wire request** (`ReadList` /
//! `WriteList`) and let the server walk its filesystem once, returning the
//! payload inline or through a single RDMA pass.
//!
//! The workload is a BTIO-style strided access through the *independent*
//! path: one rank touches `block` bytes every `stride` over a fixed span,
//! under three routings of the same request —
//!
//! - **sieve**: `dafs_listio=disable`, `romio_ds_*=enable` — the classic
//!   read-modify-write of covering windows (pre-PR behavior);
//! - **list**: `dafs_listio` left on — one wire request per credit window
//!   carrying up to 256 segments;
//! - **range**: both off — one wire request per range (the path list I/O
//!   falls back to after exhausted replays).
//!
//! Expected shape: at low stride sieving is competitive (the covering
//! extent is mostly payload), but as the duty cycle drops the sieved
//! transfer is dominated by discarded gap bytes while list I/O moves only
//! the payload — the high-stride DAFS rows must show ≥ 1.3× sieving in
//! both directions (asserted). Per-range sits between: no wasted bytes,
//! but per-op overhead on every range.
//!
//! Built-in cross-checks: every run verifies byte-exact read-back; the
//! three raw-DAFS images per pattern must be byte-identical; list-op
//! counters must fire exactly when the hint says so.

use mpiio::{Backend, Datatype, Hints, MpiFile, OpenMode, Testbed};

use crate::report::{human_size, Cell, Table};
use crate::testbeds::{run_ranks, timed};

/// Span of file the strided pattern sweeps.
const SPAN: u64 = 8 << 20;
/// (block, stride) patterns, densest first.
const PATTERNS: [(u64, u64); 3] = [
    (16 << 10, 32 << 10),
    (4 << 10, 64 << 10),
    (1 << 10, 64 << 10),
];
/// Required list-over-sieve speedup on the high-stride DAFS pattern.
const SPEEDUP_FLOOR: f64 = 1.3;

/// One measured cell: strided write pass then verified read pass over
/// `span`, on a fresh single-rank testbed with the given hint pairs.
/// Returns (write MB/s, read MB/s, list-op request count, raw server
/// image — empty for striped backends, whose piece files the equivalence
/// suite in `tests/listio.rs` covers).
fn strided_case(
    backend: Backend,
    pairs: &[(&str, &str)],
    block: u64,
    stride: u64,
    span: u64,
) -> (Cell, Cell, u64, Vec<u8>) {
    let count = span / stride;
    let payload = count * block;
    let tb = Testbed::new(backend);
    let raw_image = tb.server_fss.len() <= 1;
    let fs = tb.fs.clone();
    let pairs: Vec<(String, String)> = pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let (spans, report) = run_ranks(tb, 1, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let hints = Hints::from_pairs(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        let f = MpiFile::open(ctx, adio, &host, "/f9", OpenMode::create(), hints).unwrap();
        // Prefill the span so sieved reads fetch real bytes (no EOF
        // shorts) and sieved writes read-modify-write real content.
        let fill: Vec<u8> = (0..span as usize).map(|i| (i * 7 + 13) as u8).collect();
        let bg = host.mem.alloc(span as usize);
        host.mem.write(bg, &fill);
        f.write_at(ctx, 0, bg, span).unwrap();
        // One `block` every `stride`.
        f.set_view(
            0,
            &Datatype::bytes(1),
            &Datatype::resized(&Datatype::bytes(block), 0, stride),
        );
        let data: Vec<u8> = (0..payload as usize).map(|i| (i * 11 + 3) as u8).collect();
        let src = host.mem.alloc(payload as usize);
        host.mem.write(src, &data);
        let w = timed(ctx, || _ = f.write_at(ctx, 0, src, payload).unwrap());
        let dst = host.mem.alloc(payload as usize);
        let mut n = 0;
        let r = timed(ctx, || n = f.read_at(ctx, 0, dst, payload).unwrap());
        assert_eq!(n, payload, "short strided read ({block}/{stride})");
        assert_eq!(
            host.mem.read_vec(dst, payload as usize),
            data,
            "corrupt strided read-back ({block}/{stride})"
        );
        (w, r)
    });
    let list_reqs = report.snapshot.expect("dafs.list.reqs").value();
    let image = if raw_image {
        let attr = fs.resolve("/f9").unwrap();
        fs.read(attr.id, 0, attr.size).unwrap()
    } else {
        Vec::new()
    };
    let (w, r) = spans[0];
    (
        Cell::mbps(payload, w),
        Cell::mbps(payload, r),
        list_reqs,
        image,
    )
}

/// The three hint configurations, in table-column order.
fn configs() -> [(&'static str, Vec<(&'static str, &'static str)>); 3] {
    [
        (
            "sieve",
            vec![
                ("dafs_listio", "disable"),
                ("romio_ds_read", "enable"),
                ("romio_ds_write", "enable"),
            ],
        ),
        // Explicit `enable`: each column names its routing in full.
        ("list", vec![("dafs_listio", "enable")]),
        (
            "range",
            vec![
                ("dafs_listio", "disable"),
                ("romio_ds_read", "disable"),
                ("romio_ds_write", "disable"),
            ],
        ),
    ]
}

/// Run R-F9 over an explicit span.
pub fn run_sized(span: u64) -> Table {
    let mut t = Table::new(
        &format!(
            "R-F9: wire-level list I/O vs data sieving — strided independent access, span {} (MB/s)",
            human_size(span)
        ),
        &[
            ("backend", 0),
            ("pattern", 0),
            ("sieve rd", 1),
            ("list rd", 1),
            ("range rd", 1),
            ("sieve wr", 1),
            ("list wr", 1),
            ("range wr", 1),
        ],
    );
    for (bname, backend) in [
        ("dafs", Backend::dafs as fn() -> Backend),
        ("dafs-striped(2)", || Backend::dafs_striped(2)),
    ] {
        for (block, stride) in PATTERNS {
            let mut rd = Vec::new();
            let mut wr = Vec::new();
            let mut images = Vec::new();
            for (cname, pairs) in configs() {
                let (w, r, list_reqs, image) = strided_case(backend(), &pairs, block, stride, span);
                // The hint must actually steer the wire: list ops fire on
                // the list column and nowhere else.
                if cname == "list" {
                    assert!(list_reqs > 0, "{bname} {cname}: no list ops on the wire");
                } else {
                    assert_eq!(list_reqs, 0, "{bname} {cname}: unexpected list ops");
                }
                rd.push(r);
                wr.push(w);
                images.push(image);
            }
            // All three routings must land identical raw-server bytes.
            if !images[0].is_empty() {
                assert!(
                    images[0] == images[1] && images[1] == images[2],
                    "{bname} {block}/{stride}: file images differ across routings"
                );
            }
            if bname == "dafs" && stride / block >= 16 {
                for (dir, s, l) in [("read", &rd[0], &rd[1]), ("write", &wr[0], &wr[1])] {
                    let (s, l) = (s.value(), l.value());
                    assert!(
                        l >= SPEEDUP_FLOOR * s,
                        "high-stride {dir}: list {l:.1} MB/s < {SPEEDUP_FLOOR}x sieve {s:.1} MB/s"
                    );
                }
            }
            let pattern = format!("{}/{}", human_size(block), human_size(stride));
            let labels = [Cell::text(bname), Cell::text(pattern)];
            t.row(labels.into_iter().chain(rd).chain(wr));
        }
    }
    t.note("sieve moves the covering extent (gaps included); list ships one vectored request per credit window; range pays per-op overhead on every block");
    t.note(&format!(
        "high-stride dafs rows asserted: list >= {SPEEDUP_FLOOR}x sieve for reads and writes; raw-server images byte-identical across all three routings"
    ));
    t
}

/// Run R-F9 with the default span.
pub fn run() -> Table {
    run_sized(SPAN)
}
