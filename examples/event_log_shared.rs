//! Shared-file-pointer event logging — the second scenario class the paper
//! family cares about: many producers appending variable-size records to
//! one log, ordered by a *shared* file pointer.
//!
//! Each rank emits a stream of fixed-header/variable-payload records with
//! `MPI_File_write_shared`; the DAFS driver implements the shared pointer
//! with real protocol file locks around a hidden pointer file. The example
//! then scans the log and checks that the records tile the file exactly.
//!
//! Run with:
//! ```sh
//! cargo run --example event_log_shared --release
//! ```

use mpio_dafs::mpiio::{Backend, Hints, MpiFile, OpenMode, Testbed};

const RANKS: usize = 6;
const EVENTS_PER_RANK: usize = 10;

/// Record: 8-byte header (rank, seq) + payload of (seq % 5 + 1) * 32 bytes.
fn record(rank: usize, seq: usize) -> Vec<u8> {
    let payload = (seq % 5 + 1) * 32;
    let mut r = Vec::with_capacity(8 + payload);
    r.extend_from_slice(&(rank as u32).to_le_bytes());
    r.extend_from_slice(&(seq as u32).to_le_bytes());
    r.extend(std::iter::repeat_n((rank * 16 + seq) as u8, payload));
    r
}

fn main() {
    let testbed = Testbed::new(Backend::dafs());
    let fs = testbed.fs.clone();

    let report = testbed.run(RANKS, |ctx, comm, adio| {
        let host = comm.host().clone();
        let log = MpiFile::open(
            ctx,
            adio,
            &host,
            "/logs/events.bin",
            OpenMode::create(),
            Hints::default(),
        )
        .expect("open log");
        for seq in 0..EVENTS_PER_RANK {
            let rec = record(comm.rank(), seq);
            let buf = host.mem.alloc(rec.len());
            host.mem.write(buf, &rec);
            log.write_shared(ctx, buf, rec.len() as u64)
                .expect("append record");
            host.mem.free(buf);
        }
        comm.barrier(ctx);
        if comm.rank() == 0 {
            println!(
                "{} ranks appended {} records in virtual {}",
                comm.size(),
                comm.size() * EVENTS_PER_RANK,
                ctx.now()
            );
        }
    });

    // Scan the log: records must tile the file exactly, each intact, with
    // per-rank sequence numbers in order.
    let attr = fs.resolve("/logs/events.bin").expect("log exists");
    let data = fs.read(attr.id, 0, attr.size).unwrap();
    let mut pos = 0usize;
    let mut next_seq = [0u32; RANKS];
    let mut count = 0;
    while pos < data.len() {
        let rank = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let seq = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        assert!(rank < RANKS, "corrupt record header at {pos}");
        assert_eq!(seq, next_seq[rank], "rank {rank} records out of order");
        next_seq[rank] += 1;
        let payload = (seq as usize % 5 + 1) * 32;
        let body = &data[pos + 8..pos + 8 + payload];
        assert!(
            body.iter().all(|&b| b == (rank * 16 + seq as usize) as u8),
            "torn record: rank {rank} seq {seq}"
        );
        pos += 8 + payload;
        count += 1;
    }
    assert_eq!(pos, data.len(), "log has trailing garbage");
    assert_eq!(count, RANKS * EVENTS_PER_RANK);
    println!(
        "scanned {} bytes: {count} intact records, no gaps or tears (end t={})",
        data.len(),
        report.end_time
    );
    println!("event_log_shared: OK");
}
