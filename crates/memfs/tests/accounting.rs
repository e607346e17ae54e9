//! What a write costs in payload bytes, read off `simnet::buf`'s gauges.
//!
//! The gauges are process-wide, so these tests live in a binary of their
//! own and take one lock: nothing else here makes a slab while one of them
//! is counting.

use std::sync::Mutex;

use memfs::{MemFs, ROOT_ID};
use simnet::buf::{bytes_alive, bytes_total, Bytes};

static ACCOUNTING: Mutex<()> = Mutex::new(());

/// One test at a time. The lock guards nothing but the turn, so a test that
/// failed while holding it has left nothing broken behind.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    ACCOUNTING.lock().unwrap_or_else(|e| e.into_inner())
}

/// The file-page size, as observed: the longest view `read_views` hands
/// out of a file written in one piece.
fn page_size(fs: &MemFs) -> u64 {
    let f = fs.create(ROOT_ID, "probe").unwrap();
    fs.write(f.id, 0, &vec![1u8; 1 << 20]).unwrap();
    let views = fs.read_views(f.id, 0, 1 << 20).unwrap();
    let page = views.iter().map(Bytes::len).max().unwrap() as u64;
    fs.remove(ROOT_ID, "probe").unwrap();
    page
}

/// The landmine this layout removes: with the file in one slab, a write that
/// met one outstanding read view cloned the whole file.
#[test]
fn a_write_that_meets_a_view_copies_one_page_not_the_file() {
    let _serial = serial();
    let fs = MemFs::new();
    let page = page_size(&fs);
    const SIZE: u64 = 8 << 20;
    let f = fs.create(ROOT_ID, "big").unwrap();
    fs.write(f.id, 0, &vec![0xAAu8; SIZE as usize]).unwrap();

    let held = fs.read_bytes(f.id, 0, 4096).unwrap();
    let last_before = fs.read_bytes(f.id, SIZE - 16, 16).unwrap();
    let total = bytes_total();
    fs.write(f.id, SIZE - 1, &[0xBB]).unwrap();
    let grew = bytes_total() - total;
    assert!(
        grew < 2 * page,
        "one byte written under a 4 KiB view materialised {grew} bytes"
    );

    assert!(held.iter().all(|&b| b == 0xAA), "held view changed");
    assert!(
        last_before.iter().all(|&b| b == 0xAA),
        "a view of the written page, taken before the write, reads new bytes"
    );
    let last_after = fs.read_bytes(f.id, SIZE - 16, 16).unwrap();
    assert_eq!(&last_after[..15], &[0xAA; 15]);
    assert_eq!(last_after[15], 0xBB);
}

/// A far write into an empty file stores the page it touches, not the gap.
#[test]
fn a_far_write_allocates_its_page_not_the_gap() {
    let _serial = serial();
    let fs = MemFs::new();
    let page = page_size(&fs);
    let f = fs.create(ROOT_ID, "sparse").unwrap();
    let alive = bytes_alive();
    fs.write(f.id, 256 << 20, &[7u8; 4096]).unwrap();
    let grew = bytes_alive() - alive;
    assert!(
        grew < page + 4096,
        "a 4 KiB write at 256 MiB holds {grew} payload bytes"
    );
    assert_eq!(fs.getattr(f.id).unwrap().size, (256 << 20) + 4096);
}
